"""Batch design-space exploration through the pipeline API.

The Table II access pattern — every circuit at every budget — expressed
as one ``explore()`` call instead of a hand-written double loop.  The
bench runs the same sweep twice: the first pass fills the artifact
store, the second is served almost entirely from it, which is the
mechanism that makes interactive design-space work cheap.  A third pass
fans the points out over worker processes.

Run standalone for the disk-store smoke check CI uses::

    python benchmarks/bench_explore.py --smoke

It sweeps the grid cold against a fresh ``IndexedArtifactStore``, then
again through a brand-new store instance on the same directory (i.e.
only the disk is shared, as for a new process on a later day), and
exits nonzero unless the warm pass reports disk-cache hits, computes
nothing, returns identical points, and is faster, and unless
``store.gc()`` then finds the index and the entry tree in agreement
(nothing to adopt, nothing to drop).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.pipeline import (  # noqa: E402
    IndexedArtifactStore,
    clear_explore_cache,
    explore,
)

CIRCUITS = ("dealer", "gcd", "vender")
BUDGETS = {"dealer": (5, 6, 7), "gcd": (5, 6, 7), "vender": (5, 6, 7)}


def regenerate_exploration():
    clear_explore_cache()
    cold = explore(CIRCUITS, BUDGETS)
    warm = explore(CIRCUITS, BUDGETS)
    return cold, warm


def test_bench_explore(benchmark):
    from conftest import print_table

    cold, warm = benchmark(regenerate_exploration)

    print_table(
        "Design-space sweep (3 circuits x 3 budgets), cold vs warm cache",
        ["Circuit", "Steps", "PM muxes", "PowerRed%", "Area",
         "cold hits", "warm hits"],
        [[c.circuit, c.n_steps, c.managed_muxes, c.power_reduction_pct,
          c.area, c.cache_hits, w.cache_hits]
         for c, w in zip(cold.points, warm.points)])
    print(f"cold pass: {cold.cache_hits} stage-cache hits, "
          f"{cold.cache_misses} stages computed")
    print(f"warm pass: {warm.cache_hits} stage-cache hits, "
          f"{warm.cache_misses} stages computed")

    # Shape: the sweep covers the full cross product...
    assert len(cold.points) == 9
    assert set(cold.circuits()) == set(CIRCUITS)
    # ...the warm pass reuses every cacheable stage of every point...
    assert warm.cache_hits > 0
    assert warm.cache_misses == 0
    # ...and both passes report identical synthesis results.
    assert [(p.circuit, p.n_steps, p.managed_muxes, p.area)
            for p in cold.points] == \
           [(p.circuit, p.n_steps, p.managed_muxes, p.area)
            for p in warm.points]

    # The same sweep distributed over worker processes matches too.
    parallel = explore(CIRCUITS, BUDGETS, workers=2)
    assert [(p.circuit, p.n_steps, p.managed_muxes, p.area)
            for p in parallel.points] == \
           [(p.circuit, p.n_steps, p.managed_muxes, p.area)
            for p in cold.points]


def _shape(result):
    return [(p.circuit, p.n_steps, p.managed_muxes, p.area,
             p.power_reduction_pct) for p in result.points]


def run_store_smoke(root: Path, workers: int = 1) -> int:
    """Cold sweep vs warm disk-store sweep; nonzero exit on regression."""
    store_dir = root / "store"

    def sweep(store):
        try:
            start = time.perf_counter()
            result = explore(CIRCUITS, BUDGETS, store=store,
                             workers=workers)
            return result, time.perf_counter() - start
        finally:
            store.close()

    cold, cold_s = sweep(IndexedArtifactStore(store_dir))

    # Best-of-two: shared CI runners hiccup; the second warm pass hits
    # the same store, so the min is the honest steady-state number.
    warm_s = float("inf")
    for _ in range(2):
        warm, seconds = sweep(IndexedArtifactStore(store_dir))
        warm_s = min(warm_s, seconds)

    # Every worker wrote through the index, so it must already agree
    # with the entry tree.
    auditor = IndexedArtifactStore(store_dir)
    try:
        audit = auditor.gc()
    finally:
        auditor.close()

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    print(f"cold pass: {cold.store_misses} stage artifacts computed, "
          f"{cold.store_hits} disk hits, {cold_s * 1000:.1f} ms")
    print(f"warm pass: {warm.store_misses} stage artifacts computed, "
          f"{warm.store_hits} disk hits, {warm_s * 1000:.1f} ms "
          f"({speedup:.1f}x)")
    print(f"store gc: {audit}")

    failures = []
    if warm.store_hits == 0:
        failures.append("warm pass reported zero disk-cache hits")
    if warm.store_misses != 0:
        failures.append(
            f"warm pass recomputed {warm.store_misses} stage artifacts")
    if _shape(cold) != _shape(warm):
        failures.append("warm pass points differ from the cold pass")
    if warm_s >= cold_s:
        failures.append(
            f"warm pass not faster ({warm_s:.3f}s vs {cold_s:.3f}s)")
    if audit["adopted"] != 0 or audit["dropped"] != 0:
        failures.append(f"store index and entry tree disagree: {audit}")
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("store smoke OK")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: cold-vs-warm disk-store sweep "
                             "with hard assertions")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="store directory (default: a fresh temp dir)")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    if not args.smoke and args.store is None:
        parser.error("standalone runs need --smoke (or --store DIR); the "
                     "pytest-benchmark entry point is test_bench_explore")
    if args.store is not None:
        return run_store_smoke(Path(args.store), workers=args.workers)
    with tempfile.TemporaryDirectory(prefix="bench-explore-") as tmp:
        return run_store_smoke(Path(tmp), workers=args.workers)


if __name__ == "__main__":
    sys.exit(main())
