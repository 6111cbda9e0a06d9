"""Reference list scheduler: the rescan-every-step algorithm.

Each step rescans every pending node for readiness and places ready ops
in ``(alap, asap, nid)`` order.  ``repro.sched.list_scheduler`` must
produce exactly these schedules and failures with its ready-set
implementation; this slow version is kept only as the tests' oracle.
"""

from __future__ import annotations

from repro.ir.graph import CDFG
from repro.sched.list_scheduler import ListSchedulingFailure
from repro.sched.resources import Allocation
from repro.sched.timing import TimingFrame


def oracle_list_schedule(graph: CDFG, n_steps: int, allocation: Allocation,
                         initiation_interval: int | None = None
                         ) -> dict[int, int]:
    """Start step per node; raises like ``list_schedule``."""
    frame = TimingFrame.compute(graph, n_steps)
    ii = initiation_interval
    start: dict[int, int] = {}
    finished_at: dict[int, int] = {}
    busy: dict = {}

    def occupy(nid: int, step: int) -> None:
        node = graph.node(nid)
        start[nid] = step
        finished_at[nid] = step + node.latency
        if node.is_schedulable:
            for s in range(step, step + node.latency):
                slot = s % ii if ii else s
                key = (slot, node.resource)
                busy[key] = busy.get(key, 0) + 1

    def has_unit(node, step: int) -> bool:
        for s in range(step, step + node.latency):
            slot = s % ii if ii else s
            if busy.get((slot, node.resource), 0) >= \
                    allocation.get(node.resource):
                return False
        return True

    pending = set(graph.node_ids)
    for step in range(n_steps):
        changed = True
        while changed:
            changed = False
            for nid in sorted(pending):
                node = graph.node(nid)
                if node.is_schedulable:
                    continue
                preds = graph.preds(nid)
                if all(p in finished_at and finished_at[p] <= step
                       for p in preds):
                    ready_at = max((finished_at[p] for p in preds), default=0)
                    occupy(nid, max(ready_at, 0) if preds else 0)
                    pending.discard(nid)
                    changed = True

        ready = [
            nid for nid in pending
            if graph.node(nid).is_schedulable
            and all(p in finished_at and finished_at[p] <= step
                    for p in graph.preds(nid))
        ]
        ready.sort(key=lambda nid: (frame.alap[nid], frame.asap[nid], nid))
        for nid in ready:
            node = graph.node(nid)
            if node.latency + step > n_steps:
                raise ListSchedulingFailure(
                    f"{node.label()} cannot finish by step {n_steps}",
                    bottleneck=node.resource)
            if has_unit(node, step):
                occupy(nid, step)
                pending.discard(nid)
            elif frame.alap[nid] == step:
                raise ListSchedulingFailure(
                    f"step {step}: no free {node.resource.value} unit for "
                    f"forced op {node.label()}",
                    bottleneck=node.resource)

    if any(graph.node(nid).is_schedulable for nid in pending):
        leftover = [graph.node(n).label() for n in sorted(pending)
                    if graph.node(n).is_schedulable]
        raise ListSchedulingFailure(
            f"unscheduled ops after {n_steps} steps: {', '.join(leftover)}")
    for nid in sorted(pending):
        preds = graph.preds(nid)
        ready_at = max((finished_at[p] for p in preds), default=0)
        start[nid] = ready_at
        finished_at[nid] = ready_at
    return start
