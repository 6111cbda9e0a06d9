"""Optimizer quality gate: stochastic search vs the known optima.

Four claims, checked against live synthesis:

* **Exhaustive parity** — on every circuit small enough for
  ``exhaustive_search`` (the paper suite at its Table III budgets plus
  ``gen:tiny``/``gen:small``/``gen:branchy``/``gen:deep`` family
  members), simulated annealing *and* beam search reach the exhaustive
  optimum of the gated-weight objective.

* **Beats greedy** — on at least one generated ``gen:branchy``/
  ``gen:deep`` scenario, annealing strictly beats the best built-in
  greedy ordering strategy, i.e. the search finds §IV-A reorderings the
  heuristics miss.

* **Portfolio parity + front gain** — at equal wall-clock (the
  portfolio's ``time_budget`` is set to a measured single-chain anneal
  run, same seed), the island-model ``portfolio`` driver (workers=4)
  matches the chain's scalarized best everywhere and — on the pinned
  large multi-objective scenarios — its Pareto archive reaches
  nondominated points the single chain never finds.

* **Anytime monotonicity** — a short ``time_budget`` run's archive is
  covered by a long run's archive of the same configuration.

Run standalone for the CI smoke check, or the full large-scenario gate
(which writes ``BENCH_opt.json`` at the repo root; the smoke check only
prints its rows)::

    python benchmarks/bench_opt.py --smoke
    python benchmarks/bench_opt.py --full

Exits nonzero if any claim fails.  The pytest-benchmark entry point
(``pytest benchmarks/bench_opt.py --benchmark-only -s``) times the
annealing runs and prints the per-circuit comparison table.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.circuits import build  # noqa: E402
from repro.core.reordering import exhaustive_search, gated_weight  # noqa: E402
from repro.gen.random_cdfg import random_cdfg  # noqa: E402
from repro.opt import anneal, beam_search  # noqa: E402
from repro.opt.portfolio import portfolio  # noqa: E402
from repro.sched.timing import critical_path_length  # noqa: E402

#: (spec, budget) — budget ``None`` means critical path + 1.  All have
#: <= 6 MUXes, so exhaustive permutation search is feasible.
EXHAUSTIVE_POINTS: tuple[tuple[str, int | None], ...] = (
    ("dealer", 6),
    ("gcd", 7),
    ("vender", 6),
    ("gen:tiny:1", None),
    ("gen:tiny:7", None),
    ("gen:small:3", None),
    ("gen:branchy:2", None),
    ("gen:deep:0", None),
)

#: Generated scenarios (at pinned budgets) where the greedy strategies
#: are provably suboptimal; annealing must strictly beat them on at
#: least one.
BEAT_GREEDY_POINTS: tuple[tuple[str, int | None], ...] = (
    ("gen:branchy:2", 13),
    ("gen:branchy:8", 12),
    ("gen:deep:0", 15),
)

ANNEAL_ITERS = 300
ANNEAL_RESTARTS = 3
SEED = 0
TOL = 1e-9


def _budget(graph, budget: int | None) -> int:
    return budget if budget is not None else critical_path_length(graph) + 1


def run_points() -> list[dict[str, object]]:
    """Evaluate every exhaustive-parity point; one result row each."""
    rows = []
    for spec, budget in EXHAUSTIVE_POINTS:
        graph = build(spec)
        steps = _budget(graph, budget)
        exhaustive = gated_weight(
            exhaustive_search(graph, steps, limit=6).best)
        started = time.perf_counter()
        annealed = anneal(graph, n_steps=steps, iters=ANNEAL_ITERS,
                          seed=SEED, restarts=ANNEAL_RESTARTS)
        anneal_s = time.perf_counter() - started
        beamed = beam_search(graph, n_steps=steps)
        rows.append({
            "spec": spec, "steps": steps,
            "muxes": len(graph.muxes()),
            "exhaustive": exhaustive,
            "anneal": annealed.best_score,
            "beam": beamed.best_score,
            "greedy": annealed.best_greedy_score,
            "anneal_s": anneal_s,
            "evaluations": annealed.evaluations,
        })
    return rows


def run_beat_greedy() -> list[dict[str, object]]:
    rows = []
    for spec, budget in BEAT_GREEDY_POINTS:
        graph = build(spec)
        steps = _budget(graph, budget)
        annealed = anneal(graph, n_steps=steps, iters=ANNEAL_ITERS,
                          seed=SEED, restarts=ANNEAL_RESTARTS)
        rows.append({
            "spec": spec, "steps": steps,
            "greedy": annealed.best_greedy_score,
            "anneal": annealed.best_score,
            "improvement": annealed.improvement_over_greedy,
        })
    return rows


#: Registry scenarios for the fast (CI) portfolio-parity check.
PORTFOLIO_SMOKE_POINTS: tuple[tuple[str, int], ...] = (
    ("gen:branchy:8", 12),
    ("gen:deep:0", 15),
)

#: Pinned large multi-objective scenarios for the full portfolio gate:
#: 48-op graphs at the ``branchy`` preset densities, searched over a
#: (budget x scheduler) grid under a gated-weight/area trade-off — the
#: regime where a scalar-focused single chain leaves parts of the
#: Pareto front undiscovered.
LARGE_SCENARIOS: tuple[int, ...] = (0, 4, 8)
LARGE_OBJECTIVE = "gated_weight,area=0.02"
LARGE_SCHEDULERS = ("list", "force_directed")
LARGE_SLACKS = (1, 2, 3, 4)
CHAIN_ITERS = 300
#: The large multi-objective spaces need a longer horizon before both
#: sides plateau (the chain is flat well before this; the extra wall
#: clock is what lets the portfolio's diverse islands converge too).
LARGE_CHAIN_ITERS = 450
PORTFOLIO_WORKERS = 4
#: How many large scenarios must show a strict Pareto-front gain.
MIN_FRONT_GAINS = 2

BENCH_OUT = Path(__file__).resolve().parent.parent / "BENCH_opt.json"


def _large_graph(seed: int):
    """One pinned large scenario graph (deterministic per seed)."""
    return random_cdfg(seed, preset="branchy", n_ops=48, n_inputs=6,
                       name=f"bench:lbranchy:{seed}")


def run_portfolio_point(graph, *, budgets, schedulers=("list",),
                        objective="gated_weight",
                        chain_iters=CHAIN_ITERS) -> dict[str, object]:
    """One equal-wall-clock comparison: a single annealing chain (seed
    0, one restart) is timed, then the portfolio gets exactly that much
    wall clock as its ``time_budget``."""
    started = time.perf_counter()
    chain = anneal(graph, objective=objective, budgets=budgets,
                   schedulers=schedulers, iters=chain_iters,
                   seed=SEED, restarts=1)
    wall = time.perf_counter() - started
    ported = portfolio(graph, objective=objective, budgets=budgets,
                       schedulers=schedulers, iters=None,
                       time_budget=wall, workers=PORTFOLIO_WORKERS,
                       seed=SEED)
    chain_front = chain.archive
    port_front = ported.archive
    return {
        "circuit": graph.name,
        "budgets": list(budgets),
        "objective": objective,
        "wall_s": round(wall, 3),
        "chain_score": chain.best_score,
        "portfolio_score": ported.best_score,
        "chain_evaluations": chain.evaluations,
        "portfolio_evaluations": ported.evaluations,
        "chain_front": len(chain_front),
        "portfolio_front": len(port_front),
        # Scalar parity: the portfolio must not lose the single-number
        # race while it spreads effort across the front.
        "scalar_ok": ported.best_score >= chain.best_score - TOL,
        # Strict gain: the portfolio found nondominated points the
        # chain's archive neither dominates nor matches.
        "front_gain": not port_front.covered_by(chain_front),
        "chain_covered": chain_front.covered_by(port_front),
    }


def run_portfolio_gate(points, **kwargs) -> list[dict[str, object]]:
    rows = []
    for spec, budget in points:
        graph = build(spec)
        rows.append(run_portfolio_point(graph, budgets=(budget,), **kwargs))
    return rows


def run_large_gate() -> list[dict[str, object]]:
    rows = []
    for seed in LARGE_SCENARIOS:
        graph = _large_graph(seed)
        cp = critical_path_length(graph)
        rows.append(run_portfolio_point(
            graph, budgets=tuple(cp + s for s in LARGE_SLACKS),
            schedulers=LARGE_SCHEDULERS, objective=LARGE_OBJECTIVE,
            chain_iters=LARGE_CHAIN_ITERS))
    return rows


def run_anytime(spec_graph, budget: int, short_s: float,
                long_s: float) -> dict[str, object]:
    """The anytime contract: more time never loses ground — the short
    run's archive is covered by the long run's."""
    short = portfolio(spec_graph, n_steps=budget, iters=None,
                      time_budget=short_s, workers=PORTFOLIO_WORKERS,
                      seed=SEED)
    long_run = portfolio(spec_graph, n_steps=budget, iters=None,
                         time_budget=long_s, workers=PORTFOLIO_WORKERS,
                         seed=SEED)
    return {
        "circuit": spec_graph.name,
        "budget": budget,
        "short_s": short_s,
        "long_s": long_s,
        "short_score": short.best_score,
        "long_score": long_run.best_score,
        "short_evaluations": short.evaluations,
        "long_evaluations": long_run.evaluations,
        "covered": short.archive.covered_by(long_run.archive),
        "monotone": long_run.best_score >= short.best_score - TOL,
    }


def _portfolio_failures(rows, anytime, *, strict: bool) -> list[str]:
    failures = []
    for r in rows:
        if not r["scalar_ok"]:
            failures.append(
                f"portfolio lost to the single chain on {r['circuit']} "
                f"at equal wall-clock ({r['portfolio_score']} < "
                f"{r['chain_score']} in {r['wall_s']}s)")
    if strict:
        gains = sum(1 for r in rows if r["front_gain"])
        if gains < MIN_FRONT_GAINS:
            failures.append(
                f"portfolio showed a strict Pareto-front gain on only "
                f"{gains}/{len(rows)} large scenarios "
                f"(need {MIN_FRONT_GAINS})")
    if not anytime["covered"]:
        failures.append(
            f"anytime regression on {anytime['circuit']}: the "
            f"{anytime['short_s']}s archive is not covered by the "
            f"{anytime['long_s']}s archive")
    if not anytime["monotone"]:
        failures.append(
            f"anytime regression on {anytime['circuit']}: "
            f"{anytime['long_s']}s score {anytime['long_score']} < "
            f"{anytime['short_s']}s score {anytime['short_score']}")
    return failures


def _print_portfolio_rows(rows) -> None:
    for r in rows:
        gain = "front+" if r["front_gain"] else "front="
        status = "OK" if r["scalar_ok"] else "FAIL"
        print(f"{r['circuit']:>18s} {r['wall_s']:5.1f}s  chain "
              f"{r['chain_score']:9.4f} ({r['chain_evaluations']} evals)"
              f"  portfolio {r['portfolio_score']:9.4f} "
              f"({r['portfolio_evaluations']} evals, front "
              f"{r['portfolio_front']} vs {r['chain_front']})  "
              f"{gain}  {status}")


def _write_report(rows, anytime, failures) -> None:
    report = {
        "mode": "full",
        "workers": PORTFOLIO_WORKERS,
        "criterion": ("equal wall-clock vs a single-chain anneal "
                      "(same seed): scalar parity everywhere, strict "
                      f"Pareto-front gain on >= {MIN_FRONT_GAINS} "
                      "large scenarios, anytime short-run archive "
                      "covered by the long run"),
        "scenarios": rows,
        "anytime": anytime,
        "ok": not failures,
        "failures": failures,
    }
    BENCH_OUT.write_text(json.dumps(report, indent=2) + "\n",
                         encoding="utf-8")
    print(f"wrote {BENCH_OUT.name} (full mode, "
          f"{'OK' if not failures else 'FAILED'})")


def run_portfolio_smoke() -> list[str]:
    rows = run_portfolio_gate(PORTFOLIO_SMOKE_POINTS)
    anytime = run_anytime(build("gen:branchy:8"), 12, 0.7, 2.8)
    failures = _portfolio_failures(rows, anytime, strict=False)
    _print_portfolio_rows(rows)
    print(f"{anytime['circuit']:>18s} anytime {anytime['short_s']}s "
          f"({anytime['short_score']:.4f}) covered by "
          f"{anytime['long_s']}s ({anytime['long_score']:.4f}): "
          f"{'OK' if anytime['covered'] and anytime['monotone'] else 'FAIL'}")
    return failures


def run_portfolio_full() -> list[str]:
    rows = run_large_gate()
    anytime = run_anytime(_large_graph(1), 20, 2.0, 10.0)
    failures = _portfolio_failures(rows, anytime, strict=True)
    _print_portfolio_rows(rows)
    print(f"{anytime['circuit']:>18s} anytime {anytime['short_s']}s "
          f"({anytime['short_score']:.4f}) covered by "
          f"{anytime['long_s']}s ({anytime['long_score']:.4f}): "
          f"{'OK' if anytime['covered'] and anytime['monotone'] else 'FAIL'}")
    _write_report(rows, anytime, failures)
    return failures


def test_bench_opt(benchmark):
    from conftest import print_table

    rows = benchmark(run_points)
    print_table(
        "Stochastic optimizer vs exhaustive ordering search (gated weight)",
        ["Circuit", "Steps", "MUXes", "Exhaustive", "Anneal", "Beam",
         "Greedy", "Evals"],
        [[r["spec"], r["steps"], r["muxes"], r["exhaustive"], r["anneal"],
          r["beam"], r["greedy"], r["evaluations"]] for r in rows])
    for r in rows:
        assert abs(r["anneal"] - r["exhaustive"]) <= TOL
        assert abs(r["beam"] - r["exhaustive"]) <= TOL

    beat = run_beat_greedy()
    print_table(
        "Annealing vs best greedy strategy on generated scenarios",
        ["Circuit", "Steps", "Greedy", "Anneal", "Improvement"],
        [[r["spec"], r["steps"], r["greedy"], r["anneal"],
          r["improvement"]] for r in beat])
    assert any(r["improvement"] > TOL for r in beat)


def test_bench_portfolio(benchmark):
    from conftest import print_table

    rows = benchmark(run_portfolio_gate, PORTFOLIO_SMOKE_POINTS)
    print_table(
        "Portfolio (workers=4) vs single-chain anneal, equal wall-clock",
        ["Circuit", "Wall s", "Chain", "Portfolio", "Chain front",
         "Port front"],
        [[r["circuit"], r["wall_s"], r["chain_score"],
          r["portfolio_score"], r["chain_front"], r["portfolio_front"]]
         for r in rows])
    for r in rows:
        assert r["scalar_ok"], r


def run_smoke() -> int:
    failures = []
    for r in run_points():
        status = "OK"
        if abs(r["anneal"] - r["exhaustive"]) > TOL:
            status = "FAIL"
            failures.append(
                f"anneal missed the exhaustive optimum on {r['spec']}@"
                f"{r['steps']}: {r['anneal']} != {r['exhaustive']}")
        if abs(r["beam"] - r["exhaustive"]) > TOL:
            status = "FAIL"
            failures.append(
                f"beam missed the exhaustive optimum on {r['spec']}@"
                f"{r['steps']}: {r['beam']} != {r['exhaustive']}")
        print(f"{r['spec']:>14s}@{r['steps']:<3d} exhaustive "
              f"{r['exhaustive']:8.4f}  anneal {r['anneal']:8.4f}  "
              f"beam {r['beam']:8.4f}  ({r['evaluations']} evals, "
              f"{r['anneal_s'] * 1000:.0f} ms)  {status}")

    beat = run_beat_greedy()
    beaten = [r for r in beat if r["improvement"] > TOL]
    for r in beat:
        print(f"{r['spec']:>14s}@{r['steps']:<3d} greedy "
              f"{r['greedy']:8.4f}  anneal {r['anneal']:8.4f}  "
              f"(+{r['improvement']:.4f})")
    if not beaten:
        failures.append(
            "annealing beat the best greedy strategy on none of "
            f"{[spec for spec, _ in BEAT_GREEDY_POINTS]}")

    failures.extend(run_portfolio_smoke())

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(f"opt smoke OK (annealing beats greedy on "
              f"{len(beaten)}/{len(beat)} generated scenarios; "
              f"portfolio parity + anytime hold)")
    return 1 if failures else 0


def run_full() -> int:
    failures = run_portfolio_full()
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("opt full gate OK (portfolio parity + front gain + "
              "anytime hold on the pinned large scenarios)")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: exhaustive-parity + beats-greedy "
                             "+ portfolio-parity assertions, nonzero "
                             "exit on failure")
    parser.add_argument("--full", action="store_true",
                        help="large-scenario portfolio gate (slow); "
                             "writes BENCH_opt.json at the repo root")
    args = parser.parse_args(argv)
    if args.full:
        return run_full()
    if not args.smoke:
        parser.error("standalone runs need --smoke or --full; the "
                     "pytest-benchmark entry point is test_bench_opt")
    return run_smoke()


if __name__ == "__main__":
    sys.exit(main())
