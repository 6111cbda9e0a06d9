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
``store.gc()`` then reports ``entries == len(store) <= max_entries``
and the store directory holds nothing but its ``index.db*`` files.

A second check sweeps gcd@7 over three MUX orderings against another
cold store.  All three orderings commit the same control edges, and
stages after the PM pass are keyed on the PM result, so the ``savings``
point must compute only its PM pass and be served schedule, allocation
and elaboration from the store.  Every point must equal the same point
explored without any cache.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.pm_pass import PMOptions  # noqa: E402
from repro.pipeline import (  # noqa: E402
    FlowConfig,
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

    auditor = IndexedArtifactStore(store_dir)
    try:
        audit = auditor.gc()
        entries = len(auditor)
    finally:
        auditor.close()
    strays = sorted(path.name for path in store_dir.rglob("*")
                    if not path.name.startswith("index.db"))

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
    if not audit["entries"] == entries <= auditor.max_entries:
        failures.append(f"store gc {audit} disagrees with len() "
                        f"{entries} or the bound {auditor.max_entries}")
    if strays:
        failures.append(f"store directory holds more than its "
                        f"database: {strays}")
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("store smoke OK")
    return 1 if failures else 0


ORDERINGS = ("output_first", "input_first", "savings")
#: Cacheable stages after the PM pass, keyed on its result.
POST_PM_STAGES = ("schedule", "allocate", "elaborate")
#: Per-point fields that depend on what was cached, not on the design.
_CACHE_FIELDS = ("cache_hits", "cache_misses", "store_hits", "store_misses")


def _design_fields(point) -> dict:
    return {k: v for k, v in point.to_dict().items()
            if k not in _CACHE_FIELDS}


def run_ordering_smoke() -> int:
    """gcd@7 over three orderings on a cold store: the later orderings
    reuse the post-PM stages, and every point equals a cacheless one."""
    configs = [FlowConfig(pm=PMOptions(ordering=o), label=o)
               for o in ORDERINGS]
    with tempfile.TemporaryDirectory(prefix="bench-explore-") as tmp:
        swept = explore(("gcd",), (7,), configs=configs, store=tmp)
    savings = swept.points[ORDERINGS.index("savings")]
    print(f"ordering sweep: savings point computed "
          f"{savings.store_misses} stage(s), {savings.store_hits} "
          f"served from the cold store")

    failures = []
    # Only power_manage may run: analyze and every post-PM stage hit.
    if savings.store_misses != 1 \
            or savings.store_hits != 1 + len(POST_PM_STAGES):
        failures.append(
            f"savings point did not reuse the post-PM stages "
            f"({savings.store_hits} hits, {savings.store_misses} misses)")
    for config, point in zip(configs, swept.points):
        clear_explore_cache()
        alone = explore(("gcd",), (7,), configs=[config]).points[0]
        if _design_fields(point) != _design_fields(alone):
            failures.append(
                f"{config.label} point differs from a cacheless explore")
    clear_explore_cache()
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("ordering smoke OK")
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
        status = run_store_smoke(Path(args.store), workers=args.workers)
    else:
        with tempfile.TemporaryDirectory(prefix="bench-explore-") as tmp:
            status = run_store_smoke(Path(tmp), workers=args.workers)
    return status | run_ordering_smoke()


if __name__ == "__main__":
    sys.exit(main())
