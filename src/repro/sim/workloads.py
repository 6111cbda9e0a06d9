"""Workload-shaped input vectors.

Uniform random vectors (the paper's validation method) are right for
dataflow circuits like dealer/vender/cordic, but iterative circuits see a
very particular input distribution: the values their own outputs feed back.
``gcd_trace_vectors`` replays real GCD runs — every (a, b) pair an
iterating implementation would actually present to the circuit, including
the terminating equal pair — which is the honest way to exercise gcd's
done-branch in power simulation.

Each workload comes in two forms: an ``iter_*`` generator that streams
vectors lazily (what the Monte Carlo estimator consumes) and a
list-returning wrapper over the identical sequence.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from repro.ir.graph import CDFG
from repro.sim.reference import evaluate


def iter_gcd_trace_vectors(graph: CDFG, n_runs: int | None = 32,
                           seed: int = 1996, width: int = 8,
                           max_iterations: int = 64,
                           ) -> Iterator[dict[str, int]]:
    """Stream input pairs from complete GCD computations, run by run.

    ``graph`` must be the gcd benchmark (inputs ``a``/``b``; outputs
    ``gcd``/``next_b``/``done``).  Each run starts from random positive
    operands and iterates the circuit until the done flag rises, yielding
    every intermediate input pair (the terminating pair included twice:
    once when detected, once as the final state — matching how the FSM
    would see it).  A run is also cut off after ``max_iterations`` pairs.
    ``n_runs=None`` streams runs forever.
    """
    rng = random.Random(seed)
    hi = (1 << (width - 1)) - 1
    runs = itertools.count() if n_runs is None else range(n_runs)
    for _ in runs:
        a = rng.randint(1, hi)
        b = rng.randint(1, hi)
        for _ in range(max_iterations):
            yield {"a": a, "b": b}
            out = evaluate(graph, {"a": a, "b": b}, width=width)
            if out["done"]:
                break
            a, b = out["gcd"], out["next_b"]
            if a <= 0 or b <= 0:  # defensive: malformed circuit variant
                break


def gcd_trace_vectors(graph: CDFG, n_runs: int = 32, seed: int = 1996,
                      width: int = 8,
                      max_iterations: int = 64) -> list[dict[str, int]]:
    """Input pairs from ``n_runs`` complete GCD computations."""
    return list(iter_gcd_trace_vectors(
        graph, n_runs, seed=seed, width=width,
        max_iterations=max_iterations))


def iter_balanced_condition_vectors(
        graph: CDFG, count: int | None = None, seed: int = 1996,
        width: int = 8,
        equal_fraction: float = 0.5) -> Iterator[dict[str, int]]:
    """Stream two-input vectors where a chosen fraction of pairs are equal.

    Implements the paper's Table II assumption ("each multiplexor has equal
    probability of selecting any of its inputs") as an actual stimulus for
    equality-tested circuits like gcd: with ``equal_fraction=0.5`` the
    done-condition is true half the time, so the simulated savings should
    approach the static model's prediction.  ``count=None`` streams
    forever; bad ``equal_fraction`` raises eagerly, at call time.
    """
    if not 0.0 <= equal_fraction <= 1.0:
        raise ValueError(f"equal_fraction {equal_fraction} outside [0, 1]")
    names = [n.name for n in graph.inputs()]

    def generate() -> Iterator[dict[str, int]]:
        rng = random.Random(seed)
        hi = (1 << (width - 1)) - 1
        counter = itertools.count() if count is None else range(count)
        for _ in counter:
            base = rng.randint(1, hi)
            vector = {name: rng.randint(1, hi) for name in names}
            if rng.random() < equal_fraction:
                vector = {name: base for name in names}
            yield vector

    return generate()


def balanced_condition_vectors(graph: CDFG, count: int = 256,
                               seed: int = 1996, width: int = 8,
                               equal_fraction: float = 0.5) -> list[dict[str, int]]:
    """Two-input vectors where a chosen fraction of pairs are equal."""
    return list(iter_balanced_condition_vectors(
        graph, count, seed=seed, width=width,
        equal_fraction=equal_fraction))
