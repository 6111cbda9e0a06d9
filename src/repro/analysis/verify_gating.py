"""Gating soundness verification.

Power management is only correct if a shut-down operation can never
influence an output: whenever a gated op's guard is false, every path from
the op to any output must pass through a multiplexor input that the
(guard-satisfying) select values de-select, or through another op that is
itself disabled under the same assignment.

``verify_gating`` checks this *structurally* for every gated operation by
propagating a taint from the op through the graph under each falsifying
assignment of its guard drivers: a data edge propagates taint unless it
enters a MUX data port that the assignment de-selects; select ports always
propagate (a tainted select means a tainted mux output).  Ops whose own
guard is false under the assignment produce no taint of their own but
still forward tainted operands — conservatively modelling stale registers.

This is the safety argument of the paper made executable; the flow runs it
after every PM pass in tests, and the pipeline's verify stage runs it under
``FlowConfig(verify=True)``.
"""

from __future__ import annotations

from itertools import product

from repro.core.pm_pass import PMResult
from repro.ir.graph import CDFG
from repro.ir.node import MUX_IN0, MUX_IN1, MUX_SELECT
from repro.ir.ops import Op

# NOTE: repro.rtl.guards is imported lazily inside the functions below;
# importing it at module level would cycle through repro.rtl -> repro.alloc
# -> repro.analysis during package initialization.


class GatingUnsoundError(Exception):
    """A gated operation could reach an output while shut down."""


def _falsifying_assignments(guard) -> list[dict[int, int]]:
    """All driver assignments under which the guard is false.

    Enumerates the guard's own drivers only (2^k for k terms; cones are
    shallow in practice).  Every returned assignment fixes each driver to
    0 or 1.
    """
    drivers = [t.driver for t in guard.terms]
    required = {t.driver: t.value for t in guard.terms}
    assignments = []
    for values in product((0, 1), repeat=len(drivers)):
        assignment = dict(zip(drivers, values))
        if any(assignment[d] != required[d] for d in drivers):
            assignments.append(assignment)
    return assignments


def _taint_reaches_output(graph: CDFG, source: int,
                          assignment: dict[int, int]) -> int | None:
    """First output node reached by taint from ``source``, or None.

    ``assignment`` fixes some select-driver values; MUX nodes whose select
    driver is assigned block taint arriving on the de-selected data port.
    """
    tainted: set[int] = {source}
    frontier = [source]
    while frontier:
        nid = frontier.pop()
        for consumer_id in graph.data_succs(nid):
            consumer = graph.node(consumer_id)
            if consumer_id in tainted:
                continue
            if consumer.is_mux:
                select_driver = consumer.select_operand
                chosen = assignment.get(select_driver)
                if chosen is not None and select_driver not in tainted:
                    # The select value is known and clean: taint on the
                    # de-selected data port is blocked.
                    blocked_port = MUX_IN1 if chosen == 0 else MUX_IN0
                    arrives_only_blocked = all(
                        consumer.operands[port] != nid
                        for port in (MUX_SELECT, MUX_IN0, MUX_IN1)
                        if port != blocked_port
                    )
                    if arrives_only_blocked:
                        continue
            if consumer.op is Op.OUTPUT:
                return consumer_id
            tainted.add(consumer_id)
            frontier.append(consumer_id)
    return None


def verify_gating(result: PMResult) -> None:
    """Raise :class:`GatingUnsoundError` if any gated op could corrupt an
    output while disabled; return silently when gating is sound."""
    from repro.rtl.guards import all_guards

    graph = result.graph
    guards = all_guards(result)
    for nid in sorted(result.gating):
        guard = guards[nid]
        if guard.never:
            continue  # never loaded: stale forever, must still be blocked
        for assignment in _falsifying_assignments(guard):
            output = _taint_reaches_output(graph, nid, assignment)
            if output is not None:
                raise GatingUnsoundError(
                    f"gated op {graph.node(nid).label()} reaches output "
                    f"{graph.node(output).label()} under select assignment "
                    f"{assignment} that disables it"
                )


def is_gating_sound(result: PMResult) -> bool:
    """Boolean wrapper around :func:`verify_gating`."""
    try:
        verify_gating(result)
    except GatingUnsoundError:
        return False
    return True
