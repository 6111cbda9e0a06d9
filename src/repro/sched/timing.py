"""ASAP / ALAP timing analysis over CDFGs.

Control steps are 0-indexed: a node with start ``s`` and latency ``l``
occupies steps ``s .. s+l-1`` and its result is available at step ``s+l``.
Zero-latency nodes (inputs, constants, wiring) produce their value at their
start step and occupy no execution unit.

All analyses respect both data edges and control edges, so the PM pass's
added precedence (paper step 10) automatically tightens ASAP/ALAP — this is
exactly the re-timing of steps 4-5 of the paper's pseudo-code.

The ASAP map and each step budget's :class:`TimingFrame` are memoized on
the graph's control-level memo (:func:`entry_frame`), so the PM pass reads
its entry frame and the critical path once per input graph; control-edge
mutation drops them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

from repro.ir.graph import CDFG


class InfeasibleScheduleError(Exception):
    """The graph cannot be scheduled within the requested control steps."""


def asap_times(graph: CDFG) -> dict[int, int]:
    """Earliest start step of every node (paper's ASAP values)."""
    asap: dict[int, int] = {}
    for nid in graph.topological_order():
        preds = graph.preds(nid)
        if not preds:
            asap[nid] = 0
        else:
            asap[nid] = max(asap[p] + graph.node(p).latency for p in preds)
    return asap


def _memo_asap(graph: CDFG) -> dict[int, int]:
    """:func:`asap_times`, memoized on the graph; shared, so read-only."""
    memo = graph._control()
    if memo.asap is None:
        memo.asap = asap_times(graph)
    return memo.asap


def critical_path_length(graph: CDFG) -> int:
    """Minimum number of control steps any schedule needs (paper Table I
    column 2: *Critical Path*)."""
    asap = _memo_asap(graph)
    if not asap:
        return 0
    return max(asap[nid] + graph.node(nid).latency for nid in asap)


def alap_times(graph: CDFG, n_steps: int) -> dict[int, int]:
    """Latest start step of every node for a ``n_steps`` schedule.

    Raises InfeasibleScheduleError if ``n_steps`` is below the critical path.
    """
    alap: dict[int, int] = {}
    for nid in reversed(graph.topological_order()):
        node = graph.node(nid)
        succs = graph.succs(nid)
        if not succs:
            alap[nid] = n_steps - node.latency
        else:
            alap[nid] = min(alap[s] for s in succs) - node.latency
        if alap[nid] < 0:
            raise InfeasibleScheduleError(
                f"{n_steps} control steps infeasible: node {node.label()} "
                f"would need to start at step {alap[nid]}"
            )
    return alap


@dataclass(frozen=True)
class TimingFrame:
    """ASAP/ALAP pair for a fixed step budget, with mobility helpers.

    This is the object the PM pass inspects for the paper's step-6 test
    (``ASAP > ALAP`` => power management not possible).
    """

    n_steps: int
    asap: dict[int, int]
    alap: dict[int, int]

    @classmethod
    def compute(cls, graph: CDFG, n_steps: int) -> "TimingFrame":
        """A fresh frame the caller owns (see :func:`entry_frame`)."""
        asap = _memo_asap(graph)
        alap = alap_times(graph, n_steps)
        for nid, early in asap.items():
            if early > alap[nid]:
                raise InfeasibleScheduleError(
                    f"node {graph.node(nid).label()}: ASAP {early} > "
                    f"ALAP {alap[nid]} with {n_steps} steps"
                )
        return cls(n_steps=n_steps, asap=dict(asap), alap=dict(alap))

    def mobility(self, nid: int) -> int:
        """Slack of a node: number of alternative start steps."""
        return self.alap[nid] - self.asap[nid]

    def is_feasible(self) -> bool:
        return all(self.asap[n] <= self.alap[n] for n in self.asap)


def entry_frame(graph: CDFG, n_steps: int) -> TimingFrame:
    """``TimingFrame.compute(graph, n_steps)``, memoized on the graph.

    The frame is shared by every caller until the graph's next mutation,
    so it is read-only: :func:`retime` returns new dicts.  An infeasible
    budget raises :class:`InfeasibleScheduleError` and is not memoized.
    """
    frames = graph._control().frames
    frame = frames.get(n_steps)
    if frame is None:
        frame = frames[n_steps] = TimingFrame.compute(graph, n_steps)
    return frame


def try_timing(graph: CDFG, n_steps: int) -> TimingFrame | None:
    """TimingFrame if ``graph`` fits in ``n_steps``, else None.

    The from-scratch feasibility test of paper steps 4-7; the PM pass gets
    the same answer from :func:`edges_fit` without re-timing the graph.
    """
    try:
        return TimingFrame.compute(graph, n_steps)
    except InfeasibleScheduleError:
        return None


def edges_fit(frame: TimingFrame, graph: CDFG, src: int,
              dsts: Collection[int]) -> bool:
    """Whether control edges ``src -> d`` for every ``d`` in ``dsts`` keep
    ``graph`` within ``frame.n_steps``; ``frame`` must be the feasible frame
    of ``graph`` *without* those edges.

    Every new edge leaves ``src``, so no path can use two of them (it would
    have to return to ``src``: a cycle, which ``add_control_edge``
    rejects).  The longest path through ``src -> d`` therefore starts at
    ``src``'s unchanged ASAP and ends from ``d``'s unchanged ALAP, and the
    graph fits iff ``asap[src] + lat(src) <= alap[d]`` for each ``d``: an
    exact answer in O(len(dsts)) instead of a full :func:`try_timing`.
    """
    ready = frame.asap[src] + graph.node(src).latency
    return all(ready <= frame.alap[d] for d in dsts)


def retime(frame: TimingFrame, graph: CDFG, src: int,
           dsts: Collection[int]) -> TimingFrame:
    """``frame`` updated for control edges ``src -> dsts`` that ``graph``
    now carries and that :func:`edges_fit` accepted.

    ASAP values are pushed forward from the ``dsts`` and ALAP values
    pulled back from ``src`` by worklist, touching only the nodes whose
    values move; the result equals ``TimingFrame.compute`` on ``graph``.
    """
    if not dsts:
        return frame
    asap = dict(frame.asap)
    alap = dict(frame.alap)
    ready = asap[src] + graph.node(src).latency
    work = [d for d in dsts if asap[d] < ready]
    for nid in work:
        asap[nid] = ready
    while work:
        nid = work.pop()
        done = asap[nid] + graph.node(nid).latency
        for succ in graph.succs(nid):
            if asap[succ] < done:
                asap[succ] = done
                work.append(succ)

    latest = min(alap[d] for d in dsts) - graph.node(src).latency
    work = [src] if latest < alap[src] else []
    if work:
        alap[src] = latest
    while work:
        nid = work.pop()
        for pred in graph.preds(nid):
            bound = alap[nid] - graph.node(pred).latency
            if bound < alap[pred]:
                alap[pred] = bound
                work.append(pred)
    return TimingFrame(n_steps=frame.n_steps, asap=asap, alap=alap)
