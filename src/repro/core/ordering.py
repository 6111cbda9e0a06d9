"""Multiplexor processing order (paper §III last paragraph and §IV-A).

The PM pass is greedy: selecting one MUX adds precedence edges that may make
another infeasible, so order matters.  The paper processes MUXes *closest to
the outputs first* (largest shut-down potential); §IV-A observes this can be
suboptimal and proposes reordering.  We implement:

* ``output_first`` — paper's default: ascending longest-path-to-output;
* ``input_first``  — the reverse (baseline for the ablation);
* ``savings``      — greedy by estimated gated power weight (§IV-A's
  proposed pre-processing, which the paper lists as work in progress);
* ``given``        — caller-supplied explicit order: every MUX exactly
  once, nothing else.

``exhaustive_orderings`` enumerates permutations for small MUX counts so the
ablation can report the true optimum.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from typing import Iterable, Iterator, Sequence

from repro.core.cones import compute_cones
from repro.ir.graph import CDFG
from repro.sched.resources import UNIT_COST

STRATEGIES = ("output_first", "input_first", "savings", "given")


def estimated_savings_weight(graph: CDFG, mux_id: int,
                             select_prob: float = 0.5) -> float:
    """Power weight expected to be saved if this MUX alone is managed:
    each exclusive-cone op is skipped with the probability that the other
    side is selected."""
    cones = compute_cones(graph, mux_id)
    p = (1.0 - select_prob, select_prob)  # P(side not taken): side0 skipped w.p. P(sel=1)
    total = 0.0
    for side in (0, 1):
        skipped = p[1] if side == 0 else p[0]
        for nid in cones.shutdown_ops(graph, side):
            total += UNIT_COST[graph.node(nid).resource] * skipped
    return total


def order_muxes(
    graph: CDFG,
    strategy: str = "output_first",
    given: Sequence[int] | None = None,
) -> list[int]:
    """Return MUX node ids in processing order for ``strategy``."""
    mux_ids = [m.nid for m in graph.muxes()]
    if strategy == "given":
        if given is None:
            raise ValueError("strategy 'given' requires an explicit order")
        known, named = set(mux_ids), set(given)
        if named - known:
            raise ValueError(
                f"given order names non-mux ids {sorted(named - known)}")
        if len(named) != len(given):
            repeated = sorted(m for m, k in Counter(given).items() if k > 1)
            raise ValueError(f"given order repeats muxes {repeated}")
        missing = known - named
        if missing:
            raise ValueError(f"given order misses muxes {sorted(missing)}")
        return list(given)
    if strategy == "output_first" or strategy == "input_first":
        dist = graph.longest_path_to_output()
        reverse = strategy == "input_first"
        return sorted(mux_ids, key=lambda m: (dist[m], m), reverse=reverse)
    if strategy == "savings":
        return sorted(
            mux_ids,
            key=lambda m: (-estimated_savings_weight(graph, m), m),
        )
    raise ValueError(f"unknown ordering strategy {strategy!r}; "
                     f"choose from {STRATEGIES}")


def exhaustive_orderings(graph: CDFG, limit: int = 8) -> Iterator[list[int]]:
    """All permutations of the graph's MUXes (guarded by ``limit``)."""
    mux_ids = [m.nid for m in graph.muxes()]
    if len(mux_ids) > limit:
        raise ValueError(
            f"{len(mux_ids)} muxes exceed the exhaustive limit of {limit}"
        )
    for perm in permutations(mux_ids):
        yield list(perm)
