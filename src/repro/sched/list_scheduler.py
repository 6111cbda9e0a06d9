"""Resource-constrained list scheduling.

This is our stand-in for HYPER's scheduler (paper step 11): given a step
budget and an execution-unit allocation, place every operation honouring
data *and control* precedence.  Priority is deadline-first (smallest ALAP),
which keeps forced operations from missing their slot.

Supports functional pipelining: with ``initiation_interval=II`` the resource
occupancy of a step is shared with all steps congruent modulo II, modelling
overlapped consecutive samples (paper §IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.graph import CDFG
from repro.ir.ops import ResourceClass
from repro.sched.resources import Allocation
from repro.sched.schedule import Schedule
from repro.sched.timing import InfeasibleScheduleError, TimingFrame


@dataclass
class ListSchedulingFailure(Exception):
    """Scheduling failed; ``bottleneck`` is the resource class that ran out
    (used by the minimum-resource search to decide what to add)."""

    message: str
    bottleneck: ResourceClass | None = None

    def __str__(self) -> str:
        return self.message


def list_schedule(
    graph: CDFG,
    n_steps: int,
    allocation: Allocation,
    initiation_interval: int | None = None,
    frame: TimingFrame | None = None,
) -> Schedule:
    """Schedule ``graph`` into ``n_steps`` with ``allocation`` units.

    ``frame`` is the graph's ``TimingFrame`` for ``n_steps`` when the
    caller already has it (the minimum-resource search reuses one across
    attempts).  Raises :class:`InfeasibleScheduleError` if the precedence
    structure alone does not fit, or :class:`ListSchedulingFailure` if
    resources are the limit.
    """
    if frame is None:
        frame = TimingFrame.compute(graph, n_steps)  # raises if no slack
    ii = initiation_interval
    if ii is not None and ii <= 0:
        raise ValueError(f"initiation interval must be positive, got {ii}")

    start: dict[int, int] = {}
    finished_at: dict[int, int] = {}
    # busy[(slot, cls)] = units in use; slot = step % II when pipelining.
    busy: dict[tuple[int, ResourceClass], int] = {}

    def has_unit(node, step: int) -> bool:
        for s in range(step, step + node.latency):
            slot = s % ii if ii else s
            if busy.get((slot, node.resource), 0) >= allocation.get(node.resource):
                return False
        return True

    # Ready set by predecessor counters.  An op is ready at the step all
    # its predecessors have finished by; it waits in `arrivals[step]`
    # until then.  Zero-latency nodes take no unit, so they start the
    # moment their last predecessor finishes, unlocking their consumers.
    unplaced = {nid: len(graph.preds(nid)) for nid in graph.node_ids}
    arrivals: dict[int, list[int]] = {}

    def place(nid: int, step: int, current: int) -> None:
        """Start ``nid`` at ``step`` and release what it unblocks; an op
        released while step ``current`` is being filled joins the ready
        list of step ``current`` at the earliest."""
        todo = [(nid, step)]
        while todo:
            nid, step = todo.pop()
            node = graph.node(nid)
            start[nid] = step
            finished_at[nid] = step + node.latency
            if node.is_schedulable:
                for s in range(step, step + node.latency):
                    slot = s % ii if ii else s
                    key = (slot, node.resource)
                    busy[key] = busy.get(key, 0) + 1
            for succ in graph.succs(nid):
                unplaced[succ] -= 1
                if unplaced[succ]:
                    continue
                ready_at = max(finished_at[p] for p in graph.preds(succ))
                if graph.node(succ).is_schedulable:
                    arrivals.setdefault(max(ready_at, current),
                                        []).append(succ)
                else:
                    todo.append((succ, ready_at))

    for nid in sorted(n for n, count in unplaced.items() if count == 0):
        if graph.node(nid).is_schedulable:
            arrivals.setdefault(0, []).append(nid)
        else:
            place(nid, 0, 0)

    ready: list[int] = []
    for step in range(n_steps):
        ready.extend(arrivals.pop(step, ()))
        ready.sort(key=lambda nid: (frame.alap[nid], frame.asap[nid], nid))
        waiting = []
        for nid in ready:
            node = graph.node(nid)
            if node.latency + step > n_steps:
                raise ListSchedulingFailure(
                    f"{node.label()} cannot finish by step {n_steps}",
                    bottleneck=node.resource,
                )
            if has_unit(node, step):
                place(nid, step, step + 1)
            elif frame.alap[nid] == step:
                # Forced op with no free unit: this allocation cannot work.
                raise ListSchedulingFailure(
                    f"step {step}: no free {node.resource.value} unit for "
                    f"forced op {node.label()}",
                    bottleneck=node.resource,
                )
            else:
                waiting.append(nid)
        ready = waiting

    leftover = [graph.node(n).label() for n in sorted(graph.node_ids)
                if n not in start and graph.node(n).is_schedulable]
    if leftover:
        raise ListSchedulingFailure(
            f"unscheduled ops after {n_steps} steps: {', '.join(leftover)}"
        )

    schedule = Schedule(graph=graph, n_steps=n_steps, start=start,
                        initiation_interval=ii)
    schedule.verify(allocation)
    return schedule
