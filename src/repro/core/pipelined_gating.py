"""Mutual-exclusion gating under functional pipelining (paper §IV-B,
re-derived for overlapped samples).

The paper's gating argument assumes one sample in flight: once a MUX's
select value is computed, the deselected cone is not needed *for this
sample*, and the select register still holds this sample's value when the
cone's operations would latch their operands.  With an initiation
interval ``II`` below the schedule length, up to ``ceil(L / II)`` samples
overlap and the second half of that argument breaks: the select register
is rewritten every II steps by the next sample, so a gated operation that
starts ``d = start(op) - finish(select driver)`` steps after its guard
value is latched reads a *newer* sample's select once ``d >= II``.
Gating on that stale guard would shut down operations an older in-flight
sample still needs — two mutually-exclusive branches from different
samples can be simultaneously active.

Two repairs, selected by ``FlowConfig.pipelined_gating``:

* ``"per_sample"`` (default) — carry the select value down the pipeline
  with one guard-register copy per crossed II boundary
  (``floor(d / II)`` extra registers per guard term).  Gating stays
  exact for every in-flight sample at a register-area cost, which
  :attr:`PipelinedGatingReport.guard_copies` quantifies.
* ``"drop"`` — conservatively remove every guard with ``d >= II``; a
  MUX whose guards all drop is deselected outright.  The savings that
  survive are :attr:`PipelinedGatingReport.pipelined_gated_weight`.

Either way the design's *function* is unchanged — gating only ever skips
work whose result the sample discards — so pipelined designs simulate
bit-identically across all backends in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from repro.core.pm_pass import MuxDecision, PMResult
from repro.sched.resources import UNIT_COST
from repro.sched.schedule import Schedule

#: Rejection reason recorded on a MuxDecision deselected by "drop" mode.
REASON_OVERLAP = "pipelining-breaks-exclusivity"

PIPELINED_GATING_MODES = ("per_sample", "drop")


@dataclass(frozen=True)
class GuardFate:
    """What pipelining does to one ``(op, mux, side)`` guard term.

    ``distance`` is ``start(op) - finish(select driver)`` in control
    steps; the guard ``survives`` a single select register iff
    ``distance < II``, and otherwise needs ``copies = distance // II``
    stage-indexed register copies (or must be dropped).
    """

    op: int
    mux: int
    side: int
    distance: int
    survives: bool
    copies: int


@dataclass
class PipelinedGatingReport:
    """How a PM result fares under a pipelined schedule.

    ``adjusted`` is the PM result downstream stages should elaborate
    from: identical to the input in ``per_sample`` mode, stripped of
    broken guards in ``drop`` mode.
    """

    mode: str
    initiation_interval: int
    fates: list[GuardFate]
    adjusted: PMResult
    #: Expected gated weight of the unpipelined gating decisions.
    gated_weight: float
    #: Expected gated weight that remains valid under overlap.
    pipelined_gated_weight: float
    #: Extra stage-indexed guard registers "per_sample" mode needs.
    guard_copies: int
    #: Managed MUXes whose every guard survives a single select register.
    surviving_muxes: list[int] = field(default_factory=list)
    #: Managed MUXes that lost at least one guard to overlap.
    broken_muxes: list[int] = field(default_factory=list)

    def adjusted_for(self, pm: PMResult) -> PMResult:
        """``adjusted``, re-derived from ``pm``: a PM result with the
        same content as the analysed one whose decisions may be in
        another MUX order (a cached schedule is shared by such results).
        Keeps ``pm``'s own decision order."""
        if self.mode == "drop" and self.broken_muxes:
            return _drop_broken(pm, self.adjusted.gating)
        return pm

    @property
    def lost_weight(self) -> float:
        return self.gated_weight - self.pipelined_gated_weight

    @property
    def lost_pct(self) -> float:
        if self.gated_weight <= 0:
            return 0.0
        return 100.0 * self.lost_weight / self.gated_weight

    def describe(self) -> str:
        broken = len(self.broken_muxes)
        return (
            f"pipelined gating (II={self.initiation_interval}, "
            f"mode={self.mode}): weight {self.gated_weight:.2f} -> "
            f"{self.pipelined_gated_weight:.2f} "
            f"({self.lost_pct:.1f}% crosses a stage boundary), "
            f"{broken} mux(es) affected, "
            f"{self.guard_copies} guard-register copies")


def _expected_weight(pm: PMResult,
                     gating: dict[int, tuple[tuple[int, int], ...]]) -> float:
    total = 0.0
    for nid, guards in gating.items():
        if not guards:
            continue
        weight = UNIT_COST[pm.graph.node(nid).resource]
        total += weight * (1.0 - 0.5 ** len(guards))
    return total


def analyze_pipelined_gating(
    pm: PMResult,
    schedule: Schedule,
    mode: str = "per_sample",
) -> PipelinedGatingReport:
    """Re-check every gating decision of ``pm`` against a pipelined
    ``schedule`` (which must carry an ``initiation_interval``)."""
    if mode not in PIPELINED_GATING_MODES:
        raise ValueError(
            f"unknown pipelined-gating mode {mode!r}; choose from "
            f"{PIPELINED_GATING_MODES}")
    ii = schedule.initiation_interval
    if not ii:
        raise ValueError(
            "analyze_pipelined_gating needs a pipelined schedule "
            "(initiation_interval is unset)")

    graph = pm.graph
    fates: list[GuardFate] = []
    surviving: dict[int, list[tuple[int, int]]] = {}
    copies = 0
    for nid in sorted(pm.gating):
        kept: list[tuple[int, int]] = []
        for mux_id, side in pm.gating[nid]:
            driver = graph.node(mux_id).select_operand
            distance = schedule.step_of(nid) - schedule.finish_of(driver)
            ok = distance < ii
            n_copies = 0 if ok else distance // ii
            fates.append(GuardFate(op=nid, mux=mux_id, side=side,
                                   distance=distance, survives=ok,
                                   copies=n_copies))
            copies += n_copies
            if ok or mode == "per_sample":
                kept.append((mux_id, side))
        if kept:
            surviving[nid] = kept

    broken_by_mux: set[int] = {f.mux for f in fates if not f.survives}
    surviving_muxes = sorted(set(pm.selected_muxes) - broken_by_mux)
    broken_muxes = sorted(set(pm.selected_muxes) & broken_by_mux)

    # The weight that stays valid counts only guards with distance < II,
    # regardless of mode; "per_sample" then buys the rest back with the
    # reported register copies.
    valid: dict[int, tuple[tuple[int, int], ...]] = {}
    for nid in pm.gating:
        terms = tuple(
            (f.mux, f.side) for f in fates if f.op == nid and f.survives)
        if terms:
            valid[nid] = terms
    gated = _expected_weight(pm, pm.gating)

    if mode == "drop" and broken_by_mux:
        adjusted = _drop_broken(pm, surviving)
    else:
        adjusted = pm

    return PipelinedGatingReport(
        mode=mode, initiation_interval=ii, fates=fates, adjusted=adjusted,
        gated_weight=gated,
        pipelined_gated_weight=_expected_weight(pm, valid),
        guard_copies=copies, surviving_muxes=surviving_muxes,
        broken_muxes=broken_muxes)


def _drop_broken(
    pm: PMResult,
    surviving: Mapping[int, Sequence[tuple[int, int]]],
) -> PMResult:
    """A PMResult with every overlap-broken guard removed.

    The augmented graph is kept as-is: its control edges only constrain
    the (already fixed) schedule.  Decisions lose the dropped ops from
    their ``gated`` sets; a decision with nothing left to gate is
    deselected with :data:`REASON_OVERLAP`.
    """
    gating = {nid: tuple(guards) for nid, guards in surviving.items()}
    decisions: list[MuxDecision] = []
    for decision in pm.decisions:
        if not decision.selected:
            decisions.append(decision)
            continue
        gated = frozenset(
            nid for nid in decision.gated
            if any(mux == decision.mux
                   for mux, _ in gating.get(nid, ())))
        if gated:
            decisions.append(replace(decision, gated=gated))
        else:
            decisions.append(replace(decision, selected=False,
                                     reason=REASON_OVERLAP,
                                     gated=frozenset()))
    return PMResult(graph=pm.graph, n_steps=pm.n_steps,
                    decisions=decisions, gating=gating)


def pipelined_gated_weight(pm: PMResult, schedule: Schedule,
                           mode: str = "drop") -> float:
    """Convenience: the overlap-valid expected gated weight."""
    return analyze_pipelined_gating(pm, schedule,
                                    mode=mode).pipelined_gated_weight
