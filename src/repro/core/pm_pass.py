"""The power-management scheduling pass — paper Figure 3.

Given a CDFG and a control-step budget (throughput constraint), decide for
each multiplexor whether its data-cone operations can be scheduled *after*
its select signal, and if so commit precedence ("control") edges from the
select driver to the top nodes of the 0/1 shut-down cones.  A downstream
resource-minimizing scheduler (step 11) then produces the final schedule,
and the controller generator turns the gating information into conditional
register-load enables.

Implementation note: the paper commits tightened ASAP/ALAP values per
selected MUX (steps 4-8).  We keep the tentative control edges of every
selected MUX in the working graph, together with the working graph's
feasible ASAP/ALAP frame.  Every edge a MUX adds leaves its select driver,
so the slack test of steps 6-7 reads two frame values per edge
(:func:`~repro.sched.timing.edges_fit`) instead of re-timing the graph; a
commit updates the frame incrementally (:func:`~repro.sched.timing.retime`)
to exactly the values a global recomputation gives, so constraints
accumulate across MUXes as in the paper, and reverting a rejected MUX is
just removing its edges.

The pass only adds control edges, so what it reads of the data structure
is the same for every MUX order: the cones come from the data-level memo
the working copy shares with the input graph, and the entry frame and
critical path from the input graph's control-level memo.  An optimizer
that runs the pass many times on one graph computes them once.

Each MUX's decision depends only on the input graph, the budget, the
``allocation`` and ``partial`` knobs, and the control edges the run has
committed before it, whatever order got the run there.  A caller that
runs the pass over many MUX orders can hold a decision memo (a plain
dict, passed as ``memo=``) keyed on exactly that state: a hit replays
the decision's edges and adopts its post-commit timing frame without
probing.  The memo belongs to the caller (the optimizer's
:class:`~repro.opt.evaluate.Evaluator` keeps one per search); without
one the pass probes every MUX, as the synthesis pipeline does.

Two opt-in generalizations beyond the Figure-3 pseudo-code:

* ``PMOptions.allocation`` makes the feasibility test *resource-aware*: a
  MUX is only selected if the augmented graph still list-schedules under
  the given execution-unit allocation (the pseudo-code checks slack only).
* ``PMOptions.partial`` implements the fallback the paper describes in
  §II-B for the one-subtractor |a-b| schedule ("the operation in the first
  control step will always be computed, but we can still disable the one
  in the second"): when the whole cone cannot be re-timed, gate the subset
  of cone operations that can individually be scheduled after the select
  signal.  Gating a subset is functionally safe — an ungated consumer of a
  gated (stale) value only feeds paths the MUX deselects.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.cones import MuxCones, compute_cones
from repro.core.ordering import order_muxes
from repro.ir.graph import CDFG, CDFGError
from repro.sched.resources import UNIT_COST, Allocation
from repro.sched.timing import (
    TimingFrame,
    critical_path_length,
    edges_fit,
    entry_frame,
    retime,
)

# Rejection reasons recorded on MuxDecision.
REASON_SELECTED = "selected"
REASON_PARTIAL = "partially-selected"
REASON_NOTHING_TO_GATE = "nothing-to-gate"
REASON_NO_SLACK = "insufficient-slack"
REASON_CYCLE = "would-create-cycle"
REASON_LIMIT = "mux-limit-reached"


@dataclass(frozen=True)
class MuxDecision:
    """Outcome of the paper's steps 3-8 for one multiplexor.

    ``gated`` lists the operations actually gated for this MUX — the whole
    eligible cone when fully selected, a subset under partial selection.
    """

    mux: int
    selected: bool
    reason: str
    cones: MuxCones
    added_edges: tuple[tuple[int, int], ...] = ()
    gated: frozenset[int] = frozenset()


@dataclass
class PMResult:
    """Everything the rest of the flow needs after the PM pass.

    ``graph`` is a copy of the input augmented with the control edges of
    every selected MUX; ``gating`` maps a node id to the (mux, side) guards
    under which it executes — the controller loads its operands only when
    every guard's select register holds the required side.
    """

    graph: CDFG
    n_steps: int
    decisions: list[MuxDecision] = field(default_factory=list)
    gating: dict[int, tuple[tuple[int, int], ...]] = field(default_factory=dict)

    @property
    def selected_muxes(self) -> list[int]:
        return [d.mux for d in self.decisions if d.selected]

    @property
    def fully_selected_muxes(self) -> list[int]:
        return [d.mux for d in self.decisions
                if d.selected and d.reason == REASON_SELECTED]

    @property
    def partially_selected_muxes(self) -> list[int]:
        return [d.mux for d in self.decisions
                if d.selected and d.reason == REASON_PARTIAL]

    @property
    def rejected_muxes(self) -> list[int]:
        return [d.mux for d in self.decisions if not d.selected]

    @property
    def managed_count(self) -> int:
        """Paper Table II column 3: number of power-managed multiplexors."""
        return len(self.selected_muxes)

    def decision_for(self, mux_id: int) -> MuxDecision:
        for decision in self.decisions:
            if decision.mux == mux_id:
                return decision
        raise KeyError(f"no decision recorded for mux {mux_id}")

    def gated_ops(self) -> set[int]:
        """All operations with at least one shut-down guard."""
        return set(self.gating)


def pm_digest(pm: PMResult, graph_fingerprint: str) -> str:
    """Content digest of everything downstream stages read from ``pm``.

    ``graph_fingerprint`` identifies the graph the PM pass ran on.  The
    pass only adds control edges to a copy of it, so that fingerprint
    plus ``pm.graph``'s sorted control edges identify the augmented graph
    without re-serialising it.  The rest is ``n_steps``, the gating map
    and the decisions (``_drop_broken`` in
    :mod:`repro.core.pipelined_gating` reads them), all sorted by node
    or MUX: orderings that commit the same edges, gating and decisions
    share one digest whatever order they processed the MUXes in.

    Memoized on ``pm``, which is treated as immutable once produced.
    """
    memo = pm.__dict__.get("_digest")
    if memo is not None and memo[0] == graph_fingerprint:
        return memo[1]
    payload = repr((
        graph_fingerprint,
        pm.n_steps,
        sorted(pm.graph.control_edges()),
        sorted(pm.gating.items()),
        sorted((d.mux, d.selected, d.reason, d.added_edges, sorted(d.gated))
               for d in pm.decisions),
    ))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    pm.__dict__["_digest"] = (graph_fingerprint, digest)
    return digest


@dataclass(frozen=True)
class PMOptions:
    """Knobs for the PM pass.

    ordering:     MUX processing order strategy (see repro.core.ordering).
    given_order:  explicit order for strategy "given"; any sequence,
                  stored as a tuple so options hash and compare by value.
    max_muxes:    stop selecting after this many MUXes (None = unlimited).
    enabled:      False turns the pass into a no-op (the paper's baseline:
                  traditional scheduling, everything always executes).
    allocation:   when given, feasibility additionally requires the
                  augmented graph to list-schedule under this allocation
                  (resource-aware power management).
    partial:      allow per-operation fallback when a whole cone does not
                  fit (see module docstring).
    """

    ordering: str = "output_first"
    given_order: Sequence[int] | None = None
    max_muxes: int | None = None
    enabled: bool = True
    allocation: Allocation | None = None
    partial: bool = False

    def __post_init__(self) -> None:
        if self.given_order is not None \
                and not isinstance(self.given_order, tuple):
            object.__setattr__(self, "given_order", tuple(self.given_order))


class _SlackProbe:
    """The working graph plus its feasible timing frame, kept current as
    MUXes commit control edges."""

    def __init__(self, work: CDFG, frame: TimingFrame,
                 options: PMOptions) -> None:
        self.work = work
        self.n_steps = frame.n_steps
        self.options = options
        self.frame = frame

    def feasible(self, driver: int, added: list[int]) -> bool:
        """Slack feasibility of the edges ``driver -> added`` just put into
        the working graph, plus resource feasibility when requested."""
        if not edges_fit(self.frame, self.work, driver, added):
            return False
        if self.options.allocation is not None:
            from repro.sched.list_scheduler import (
                ListSchedulingFailure,
                list_schedule,
            )
            from repro.sched.timing import InfeasibleScheduleError
            try:
                list_schedule(self.work, self.n_steps,
                              self.options.allocation)
            except (ListSchedulingFailure, InfeasibleScheduleError):
                return False
        return True

    def commit(self, driver: int, added: list[int]) -> None:
        self.frame = retime(self.frame, self.work, driver, added)


def apply_power_management(
    graph: CDFG,
    n_steps: int,
    options: PMOptions = PMOptions(),
    memo: dict | None = None,
) -> PMResult:
    """Run the paper's Figure-3 algorithm on ``graph`` for ``n_steps``.

    The input graph is not modified; the result holds an augmented copy.
    Raises :class:`~repro.sched.timing.InfeasibleScheduleError` if even the
    unconstrained graph misses the step budget.

    ``memo`` is a caller-held dict that maps a MUX state — (input-graph
    fingerprint, ``n_steps``, ``allocation``, ``partial``), the MUX id
    and the frozenset of control edges committed before it — to the
    decision and its post-commit timing frame.  Runs sharing it answer
    states an earlier run decided; the result is the same without it.
    """
    cp = critical_path_length(graph)
    if n_steps < cp:
        from repro.sched.timing import InfeasibleScheduleError
        raise InfeasibleScheduleError(
            f"{n_steps} steps < critical path {cp} of {graph.name!r}"
        )

    work = graph.copy()
    result = PMResult(graph=work, n_steps=n_steps)
    if not options.enabled:
        return result
    # A pass never meets one MUX twice, so a fresh memo only records.
    memo = {} if memo is None else memo

    # ``graph`` has ``work``'s structure until the first commit, and its
    # memo outlives this call.
    order = order_muxes(graph, options.ordering, options.given_order)
    gating: dict[int, list[tuple[int, int]]] = {}
    probe = _SlackProbe(work, entry_frame(graph, n_steps), options)
    state = (graph.fingerprint(), n_steps, options.allocation,
             options.partial)
    committed: frozenset[tuple[int, int]] = frozenset()

    for mux_id in order:
        if (options.max_muxes is not None
                and result.managed_count >= options.max_muxes):
            cones = compute_cones(work, mux_id)
            result.decisions.append(MuxDecision(
                mux=mux_id, selected=False, reason=REASON_LIMIT, cones=cones))
            continue

        cones = compute_cones(work, mux_id)
        gatable = cones.all_shutdown_ops(work)
        if not gatable:
            result.decisions.append(MuxDecision(
                mux=mux_id, selected=False, reason=REASON_NOTHING_TO_GATE,
                cones=cones))
            continue

        key = (state, mux_id, committed)
        known = memo.get(key)
        if known is None:
            decision = _decide(probe, mux_id, cones)
            memo[key] = (decision, probe.frame)
        else:
            decision, probe.frame = known
            # Probing would have keyed the select driver, even for a
            # refused edge; the replay keeps that edge order.
            work.reserve_control_source(work.node(mux_id).select_operand)
            for src, dst in decision.added_edges:
                work.add_control_edge(src, dst)
        if decision.added_edges:
            committed = committed.union(decision.added_edges)
        result.decisions.append(decision)
        if decision.selected:
            for side in (0, 1):
                for nid in cones.shutdown_ops(work, side):
                    if nid in decision.gated:
                        gating.setdefault(nid, []).append((mux_id, side))

    result.gating = {nid: tuple(guards) for nid, guards in gating.items()}
    return result


def _decide(probe: _SlackProbe, mux_id: int, cones: MuxCones) -> MuxDecision:
    """Paper steps 4-8 for one MUX with something to gate, falling back
    to partial selection when asked and the whole cone lacks slack."""
    decision = _try_full_selection(probe, mux_id, cones)
    if not decision.selected and probe.options.partial \
            and decision.reason == REASON_NO_SLACK:
        decision = _try_partial_selection(probe, mux_id, cones)
    return decision


def _try_full_selection(probe: _SlackProbe, mux_id: int,
                        cones: MuxCones) -> MuxDecision:
    """Paper steps 4-8: re-time the whole cone or revert."""
    work = probe.work
    driver = work.node(mux_id).select_operand
    existing = work.control_succs(driver)
    added: list[int] = []
    reason = REASON_SELECTED
    feasible = True
    try:
        for side in (0, 1):
            for top in sorted(cones.top_nodes(work, side)):
                # add_control_edge refuses self-edges and cycles, which
                # surfaces as CDFGError and rejects this MUX.
                if top not in existing:
                    work.add_control_edge(driver, top)
                    added.append(top)
    except CDFGError:
        feasible = False
        reason = REASON_CYCLE

    if feasible and not probe.feasible(driver, added):
        feasible = False
        reason = REASON_NO_SLACK

    edges = [(driver, top) for top in added]
    if not feasible:
        for src, dst in edges:
            work.remove_control_edge(src, dst)
        return MuxDecision(mux=mux_id, selected=False, reason=reason,
                           cones=cones)
    probe.commit(driver, added)
    return MuxDecision(
        mux=mux_id, selected=True, reason=REASON_SELECTED, cones=cones,
        added_edges=tuple(edges), gated=cones.all_shutdown_ops(work))


def _try_partial_selection(probe: _SlackProbe, mux_id: int,
                           cones: MuxCones) -> MuxDecision:
    """§II-B fallback: gate the individually re-timable cone subset.

    Greedy by power weight (most expensive units first), so under a tight
    budget the multiplier is disabled before an adder.  Each candidate gets
    a direct control edge from the select driver; infeasible candidates
    are reverted independently.
    """
    work = probe.work
    driver = work.node(mux_id).select_operand
    candidates = sorted(
        cones.all_shutdown_ops(work),
        key=lambda nid: (-UNIT_COST[work.node(nid).resource], nid),
    )
    edges: list[tuple[int, int]] = []
    gated: set[int] = set()
    for nid in candidates:
        pre_existing = nid in work.control_succs(driver)
        try:
            if not pre_existing:
                work.add_control_edge(driver, nid)
        except CDFGError:
            continue
        added = [] if pre_existing else [nid]
        if probe.feasible(driver, added):
            gated.add(nid)
            if not pre_existing:
                edges.append((driver, nid))
                probe.commit(driver, added)
        elif not pre_existing:
            work.remove_control_edge(driver, nid)

    if not gated:
        return MuxDecision(mux=mux_id, selected=False,
                           reason=REASON_NO_SLACK, cones=cones)
    return MuxDecision(
        mux=mux_id, selected=True, reason=REASON_PARTIAL, cones=cones,
        added_edges=tuple(edges), gated=frozenset(gated))
