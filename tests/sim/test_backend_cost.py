"""The ``auto`` backend's cost model: build cost plus per-vector run cost.

The model chooses between the compiled and vectorized engines from the
vector count a caller is about to simulate.  Its coefficients are fitted
to the committed ``BENCH_sim.json`` rows, and these tests hold it to
those measurements.
"""

import json
import logging
from pathlib import Path

import pytest

from repro.circuits import build
from repro.pipeline import FlowConfig, Pipeline, run_pair
from repro.power.simulated import compare_designs
from repro.sim.backend import (
    BACKENDS,
    COST_MODEL,
    VECTOR_WIDTH_LIMIT,
    create_engine,
    estimate_ms,
    fit_cost_model,
    plan_ops,
    resolve_backend,
)
from repro.sim.engine import (
    _RUNNER_CACHE,
    CompiledEngine,
    cached_plan,
    clear_compile_caches,
    design_fingerprint,
)
from repro.sim.vectorized import _VECTOR_CACHE, VectorizedEngine

BENCH_SIM = Path(__file__).resolve().parents[2] / "BENCH_sim.json"

#: Relative gap between the two backends' measured build+run above which
#: the model must pick the cheaper one.
DECISIVE_GAP = 0.20


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_compile_caches()
    yield
    clear_compile_caches()


@pytest.fixture(scope="module")
def gcd_pair():
    return run_pair(build("gcd"), FlowConfig(n_steps=7))


def _auto(design, n_vectors, pm=True, **kwargs):
    return resolve_backend(((design, pm),), "auto", n_vectors, **kwargs)


class TestChoice:
    def test_monotone_in_vector_count(self, gcd_pair):
        """Cold, small batches build the cheap compiled engine; once the
        count passes the crossover every larger count stays vectorized."""
        design = gcd_pair.managed.design
        counts = [2 ** k for k in range(14)]
        chosen = [_auto(design, n)[0] for n in counts]
        assert chosen == sorted(chosen)  # "compiled" < "vectorized"
        assert _auto(design, 16)[0] == "compiled"
        assert _auto(design, 128)[0] == "compiled"
        assert _auto(design, 4096)[0] == "vectorized"

    def test_cached_runner_costs_no_build(self, gcd_pair):
        design = gcd_pair.managed.design
        assert _auto(design, 128)[0] == "compiled"
        VectorizedEngine(design)  # now in the compile cache
        chosen, reason = _auto(design, 128)
        assert chosen == "vectorized"
        ops = plan_ops(cached_plan(design))
        cold = estimate_ms("compiled", ops, 128)
        cached = estimate_ms("vectorized", ops, 128, cached=True)
        assert reason == (f"auto: 128 vectors, est. compiled {cold:.2f} ms, "
                          f"vectorized {cached:.2f} ms")

    def test_unknown_count_keeps_vectorized(self, gcd_pair):
        design = gcd_pair.managed.design
        assert _auto(design, None) == ("vectorized",
                                       "auto: vector count unknown")
        engine = create_engine(design)
        assert isinstance(engine, VectorizedEngine)
        assert engine.chosen_backend == "vectorized"

    def test_wide_design_is_compiled(self):
        graph = build("gcd")
        width = VECTOR_WIDTH_LIMIT + 2
        design = run_pair(graph, FlowConfig(n_steps=7,
                                            width=width)).managed.design
        for n_vectors in (None, 16, 4096):
            chosen, reason = _auto(design, n_vectors)
            assert chosen == "compiled"
            assert f"width {width}" in reason
        engine = create_engine(design, n_vectors=4096)
        assert isinstance(engine, CompiledEngine)

    def test_monte_carlo_blocks_count_as_calls(self, gcd_pair):
        """Each block is one engine call, so small blocks weigh the
        vectorized engine's fixed per-call cost once per block."""
        design = gcd_pair.managed.design
        VectorizedEngine(design)
        CompiledEngine(design)
        assert _auto(design, 4096)[0] == "vectorized"
        assert _auto(design, 4096, block_size=64)[0] == "compiled"

    def test_compiled_build_charged_once_per_design(self, gcd_pair):
        """Both modes of one design share a compiled runner, so a resolve
        set charges its build once; vectorized runners stay per mode."""
        design = gcd_pair.managed.design
        ops = plan_ops(cached_plan(design))
        _chosen, reason = resolve_backend(((design, True), (design, False)),
                                          "auto", 16)
        compiled = (estimate_ms("compiled", ops, 16)
                    + estimate_ms("compiled", ops, 16, cached=True))
        vectorized = 2 * estimate_ms("vectorized", ops, 16)
        assert reason == (f"auto: 16 vectors, est. compiled {compiled:.2f} "
                          f"ms, vectorized {vectorized:.2f} ms")

    def test_compiled_block_is_cheaper_at_default_block_size(self):
        """``measure_power`` counts only the blocks Monte Carlo must run;
        that undercount is safe for a compiled choice only while one
        more 64-vector block costs the compiled engine less."""
        for ops in range(1, 2000):
            assert (estimate_ms("compiled", ops, 64, cached=True)
                    < estimate_ms("vectorized", ops, 64, cached=True))


class TestReason:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_vectors", [None, 16, 4096])
    def test_every_engine_records_a_reason(self, gcd_pair, backend,
                                           n_vectors):
        engine = create_engine(gcd_pair.managed.design, backend=backend,
                               n_vectors=n_vectors)
        assert engine.chosen_backend in ("compiled", "vectorized")
        assert engine.backend_reason
        if backend != "auto":
            assert engine.backend_reason == "requested"

    def test_auto_reason_gives_count_and_estimates(self, gcd_pair, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.sim.backend"):
            engine = create_engine(gcd_pair.managed.design, n_vectors=16)
        reason = engine.backend_reason
        assert reason.startswith("auto: 16 vectors, est. compiled ")
        assert " ms, vectorized " in reason
        assert reason in caplog.text


class TestCallers:
    def test_verify_stage_builds_for_its_count(self):
        """16 check vectors per mode: ``auto`` builds one compiled runner
        for the design and runs it in both modes."""
        ctx = Pipeline().run_context(build("vender"),
                                     FlowConfig(n_steps=6, verify=True))
        assert ctx.get("verified") is True
        assert list(_RUNNER_CACHE) == [design_fingerprint(ctx.get("design"))]
        assert not _VECTOR_CACHE

    def test_compare_designs_one_backend_for_the_pair(self, gcd_pair):
        """A cached runner for one design alone would split the pair."""
        orig = gcd_pair.baseline.design
        managed = gcd_pair.managed.design
        VectorizedEngine(managed)
        assert _auto(managed, 128)[0] == "vectorized"
        assert _auto(orig, 128, pm=False)[0] == "compiled"
        comparison = compare_designs(orig, managed, n_vectors=128)
        assert comparison.orig.chosen_backend \
            == comparison.managed.chosen_backend
        assert comparison == compare_designs(orig, managed, n_vectors=128,
                                             backend="compiled")


class TestCalibration:
    @pytest.fixture(scope="class")
    def report(self):
        report = json.loads(BENCH_SIM.read_text())
        assert report["mode"] == "full", \
            "BENCH_sim.json must come from a full bench_sim.py run"
        return report

    def test_coefficients_are_fitted_to_the_bench_rows(self, report):
        fitted = fit_cost_model(report)
        assert fitted.keys() == COST_MODEL.keys()
        for backend, terms in COST_MODEL.items():
            for name, pair in terms.items():
                assert fitted[backend][name] == pytest.approx(pair,
                                                              rel=1e-3)

    def test_rows_include_the_calibration_sizes(self, report):
        for result in report["results"]:
            sizes = {(row["backend"], row["n_vectors"])
                     for row in result["rows"]}
            for backend in ("compiled", "vectorized"):
                for n in (16, 128, report["n_vectors"]):
                    assert (backend, n) in sizes, (result["circuit"], n)

    def test_model_picks_the_cheaper_backend(self, report):
        decided = 0
        for result in report["results"]:
            measured = {}
            for row in result["rows"]:
                if row["backend"] in ("compiled", "vectorized"):
                    measured[row["n_vectors"], row["backend"]] = \
                        row["build_s"] + row["seconds"]
            for n in {n for n, _backend in measured}:
                compiled = measured[n, "compiled"]
                vectorized = measured[n, "vectorized"]
                if abs(compiled - vectorized) \
                        <= DECISIVE_GAP * min(compiled, vectorized):
                    continue
                cheaper = "compiled" if compiled < vectorized \
                    else "vectorized"
                modelled = min(("compiled", "vectorized"),
                               key=lambda backend: estimate_ms(
                                   backend, result["plan_ops"], n))
                assert modelled == cheaper, (result["circuit"], n)
                decided += 1
        assert decided >= 12
