"""Modulo-scheduler quality gate: found II vs the ceil-division legacy.

Three claims, checked against live synthesis on the paper suite, the
generated ``gen:*`` families, and the CHStone-class kernels:

* **Never worse than ceil-division** — ``scheduler="pipeline"`` capped
  at the legacy ``II = ceil(L / k)`` always returns an initiation
  interval at or below the cap, and beats it outright on a pinned
  subset of the points (the search must actually find overlap, not just
  fall back to the incumbent).

* **Sound** — every returned schedule passes ``Schedule.verify`` and an
  independent modulo-reservation-table recount: busy-cycles counted mod
  II never exceed the returned allocation in any slot, and every
  dependence is respected.

* **Function-preserving** — in both pipelined-gating modes
  (``per_sample`` and ``drop``) the synthesized design simulates
  bit-identically on the compiled backend and on the one ``auto``
  builds for a large batch (vectorized, or compiled when the vectorized
  codegen refuses a cross-vector recurrence, as it does for
  ``gen:branchy:7`` in ``drop`` mode) and matches the functional
  reference model; the report's ``pipelined_gated_weight`` never
  exceeds ``gated_weight``.

Run standalone for the CI smoke check (writes ``BENCH_pipeline.json``
at the repo root)::

    python benchmarks/bench_pipeline.py --smoke

The report holds only what the code determines, so a run on unchanged
code rewrites it byte for byte and CI checks it with ``git diff``; each
point's wall-clock time is printed, not written.

Exits nonzero if any claim fails.  The pytest-benchmark entry point
(``pytest benchmarks/bench_pipeline.py --benchmark-only -s``) times the
II searches and prints the per-circuit table.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.circuits import build  # noqa: E402
from repro.pipeline import FlowConfig, Pipeline  # noqa: E402
from repro.sched.timing import critical_path_length  # noqa: E402
from repro.sim.backend import create_engine  # noqa: E402
from repro.sim.engine import CompiledEngine  # noqa: E402
from repro.sim.reference import evaluate  # noqa: E402
from repro.sim.vectors import random_vectors  # noqa: E402

#: (spec, slack, n_stages, must_beat_cap) — n_steps is cp + slack, the
#: legacy cap is ceil(n_steps / n_stages).  ``must_beat_cap`` pins the
#: points where the modulo scheduler is known to find a strictly
#: smaller II than ceil-division; losing one of those is a regression.
POINTS: tuple[tuple[str, int, int, bool], ...] = (
    ("dealer", 2, 1, True),
    ("gcd", 2, 1, True),
    ("vender", 1, 1, True),
    ("vender", 1, 2, False),
    ("cordic", 0, 2, False),
    ("gen:branchy:7", 3, 2, True),
    ("gen:deep:3", 2, 1, True),
    ("gen:small:11", 1, 1, False),
    ("chstone:adpcm", 3, 1, True),
    ("chstone:jpeg", 2, 2, False),
    ("chstone:mips:3", 1, 2, True),
)

GATING_MODES = ("per_sample", "drop")
BENCH_OUT = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"


def recount_mrt(schedule, allocation) -> str | None:
    """Independent reservation-table + dependence audit; None when OK."""
    ii = schedule.initiation_interval
    graph = schedule.graph
    table: dict[tuple[int, object], int] = {}
    for node in graph.operations():
        s = schedule.step_of(node.nid)
        for k in range(node.latency):
            key = ((s + k) % ii, node.resource)
            table[key] = table.get(key, 0) + 1
    for (slot, cls), n in table.items():
        if n > allocation.get(cls):
            return (f"slot {slot} uses {n} {cls.value} units, "
                    f"allocated {allocation.get(cls)}")
    for node in graph:
        for succ in graph.succs(node.nid):
            if schedule.step_of(succ) < schedule.step_of(node.nid) + \
                    node.latency:
                return f"dependence {node.nid}->{succ} violated"
    return None


def check_function(graph, design, n_vectors: int, seed: int) -> str | None:
    """Backends vs the reference model; None when bit-identical."""
    vectors = random_vectors(graph, n_vectors, seed=seed)
    expected = evaluate(graph, vectors, width=design.width)
    outs, _ = CompiledEngine(design).run_many(vectors)
    if outs != expected:
        return "compiled backend diverged from the reference"
    engine = create_engine(design)
    outs, _ = engine.run_many(vectors)
    if outs != expected:
        return f"{engine.chosen_backend} backend diverged from the reference"
    return None


def run_points() -> list[dict[str, object]]:
    rows = []
    for spec, slack, n_stages, must_beat in POINTS:
        graph = build(spec)
        cp = critical_path_length(graph)
        n_steps = cp + slack
        cap = -(-n_steps // n_stages)  # the legacy ceil-division II
        row: dict[str, object] = {
            "spec": spec, "n_steps": n_steps, "stages": n_stages,
            "cap": cap, "must_beat_cap": must_beat, "failures": [],
        }
        started = time.perf_counter()
        for mode in GATING_MODES:
            result = Pipeline().run(graph, FlowConfig(
                n_steps=n_steps, scheduler="pipeline",
                initiation_interval=cap, pipelined_gating=mode,
                verify=True))
            ii = result.schedule.initiation_interval
            if mode == GATING_MODES[0]:
                row["ii"] = ii
                report = result.pipelined_gating
                if report is not None:
                    row["gated_weight"] = round(report.gated_weight, 4)
                    row["pipelined_gated_weight"] = round(
                        report.pipelined_gated_weight, 4)
                    row["guard_copies"] = report.guard_copies
                    row["broken_muxes"] = len(report.broken_muxes)
                    if report.pipelined_gated_weight > \
                            report.gated_weight + 1e-9:
                        row["failures"].append(
                            "pipelined_gated_weight exceeds gated_weight")
                else:
                    row["gated_weight"] = row["pipelined_gated_weight"] = \
                        None
                    row["guard_copies"] = row["broken_muxes"] = 0
            if ii is None or ii > cap:
                row["failures"].append(
                    f"found II {ii} above the ceil-division cap {cap} "
                    f"({mode})")
                continue
            result.schedule.verify(result.allocation)
            audit = recount_mrt(result.schedule, result.allocation)
            if audit:
                row["failures"].append(f"MRT audit ({mode}): {audit}")
            n_vectors = 6 if spec == "cordic" else 16
            diverged = check_function(graph, result.design, n_vectors,
                                      seed=n_steps)
            if diverged:
                row["failures"].append(f"{diverged} ({mode})")
        if must_beat and not row["failures"] and row["ii"] >= cap:
            row["failures"].append(
                f"modulo scheduler no longer beats ceil-division "
                f"(II {row['ii']} vs cap {cap})")
        row["seconds"] = round(time.perf_counter() - started, 3)
        rows.append(row)
    return rows


def _print_rows(rows) -> None:
    for r in rows:
        status = "OK" if not r["failures"] else "FAIL"
        weight = ("" if r["gated_weight"] is None else
                  f"  w {r['gated_weight']:.2f}->"
                  f"{r['pipelined_gated_weight']:.2f} "
                  f"(+{r['guard_copies']} regs, "
                  f"{r['broken_muxes']} mux broken)")
        print(f"{r['spec']:>16s}@{r['n_steps']:<3d} II {r['ii']}/"
              f"{r['cap']}{weight}  {r['seconds'] * 1000:.0f} ms  "
              f"{status}")


def _write_report(rows, failures) -> None:
    report = {
        "criterion": ("II <= ceil(n_steps / stages) on every point, "
                      "strictly below on the pinned subset; schedules "
                      "pass an independent MRT + dependence audit; both "
                      "gating modes bit-identical on compiled and on "
                      "auto (vectorized unless refused) vs the "
                      "reference"),
        "points": [{key: value for key, value in row.items()
                    if key != "seconds"} for row in rows],
        "ok": not failures,
        "failures": failures,
    }
    BENCH_OUT.write_text(json.dumps(report, indent=2) + "\n",
                         encoding="utf-8")
    print(f"wrote {BENCH_OUT.name} ({'OK' if not failures else 'FAILED'})")


def run_smoke() -> int:
    rows = run_points()
    failures = [f"{r['spec']}@{r['n_steps']}: {msg}"
                for r in rows for msg in r["failures"]]
    _print_rows(rows)
    _write_report(rows, failures)
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        beat = sum(1 for r in rows if r["ii"] < r["cap"])
        print(f"pipeline smoke OK (II below ceil-division on "
              f"{beat}/{len(rows)} points)")
    return 1 if failures else 0


def test_bench_pipeline(benchmark):
    from conftest import print_table

    rows = benchmark(run_points)
    print_table(
        "Modulo scheduler vs ceil-division pipelining",
        ["Circuit", "Steps", "Stages", "Cap", "II", "Gated w",
         "Pipelined w", "Copies", "ms"],
        [[r["spec"], r["n_steps"], r["stages"], r["cap"], r["ii"],
          r["gated_weight"], r["pipelined_gated_weight"],
          r["guard_copies"], round(r["seconds"] * 1000)] for r in rows])
    for r in rows:
        assert not r["failures"], r


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: II / soundness / bit-identity "
                             "assertions, nonzero exit on failure; "
                             "writes BENCH_pipeline.json")
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("standalone runs need --smoke; the pytest-benchmark "
                     "entry point is test_bench_pipeline")
    return run_smoke()


if __name__ == "__main__":
    sys.exit(main())
