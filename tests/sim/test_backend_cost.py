"""The ``auto`` backend's rule: compiled for small engine calls.

``auto`` builds the compiled engine for at most ``COMPILED_MAX_VECTORS``
vectors per call and the vectorized one above, whatever the compile
caches hold.  The rule is held to the committed ``BENCH_sim.json`` rows:
wherever the two backends' measured cost differs clearly, it picks the
cheaper one.
"""

import json
import logging
from pathlib import Path

import pytest

from repro.circuits import build
from repro.pipeline import FlowConfig, Pipeline, run_pair
from repro.power.simulated import compare_designs, measure_power
from repro.sim.backend import (
    BACKENDS,
    COMPILED_MAX_VECTORS,
    VECTOR_WIDTH_LIMIT,
    _auto,
    create_engine,
)
from repro.sim import engine as engine_module
from repro.sim.engine import (
    _RUNNER_CACHE,
    CompiledEngine,
    clear_compile_caches,
    design_fingerprint,
)
from repro.sim.vectorized import _VECTOR_CACHE, VectorizedEngine

BENCH_SIM = Path(__file__).resolve().parents[2] / "BENCH_sim.json"

#: Relative gap between the two backends' measured build+run above which
#: the rule must pick the cheaper one.
DECISIVE_GAP = 0.20


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_compile_caches()
    yield
    clear_compile_caches()


@pytest.fixture(scope="module")
def gcd_pair():
    return run_pair(build("gcd"), FlowConfig(n_steps=7))


def _choice(design, n_vectors, pm=True):
    engine = create_engine(design, power_management=pm, n_vectors=n_vectors)
    return engine.chosen_backend, engine.backend_reason


class TestChoice:
    def test_monotone_in_vector_count(self, gcd_pair):
        design = gcd_pair.managed.design
        counts = [2 ** k for k in range(14)]
        chosen = [_choice(design, n)[0] for n in counts]
        assert chosen == sorted(chosen)  # "compiled" < "vectorized"
        assert _choice(design, 16)[0] == "compiled"
        assert _choice(design, 128)[0] == "compiled"
        assert _choice(design, 4096)[0] == "vectorized"

    def test_boundary(self, gcd_pair):
        design = gcd_pair.managed.design
        assert COMPILED_MAX_VECTORS == 256
        assert _choice(design, 256) == ("compiled",
                                        "auto: 256 vectors per call <= 256")
        assert _choice(design, 257) == ("vectorized",
                                        "auto: 257 vectors per call > 256")

    @pytest.mark.parametrize("n_vectors", [None, 16, 256, 257, 4096])
    def test_choice_ignores_cache_state(self, gcd_pair, n_vectors):
        """Cold and fully warm compile caches give the same choice and
        the same reason, in both power-management modes."""
        designs = (gcd_pair.baseline.design, gcd_pair.managed.design)
        cold = [_choice(design, n_vectors, pm)
                for design in designs for pm in (False, True)]
        for design in designs:
            for pm in (False, True):
                CompiledEngine(design, power_management=pm)
                VectorizedEngine(design, power_management=pm)
        warm = [_choice(design, n_vectors, pm)
                for design in designs for pm in (False, True)]
        assert warm == cold
        assert len(set(cold)) == 1

    def test_unknown_count_keeps_vectorized(self, gcd_pair):
        design = gcd_pair.managed.design
        assert _choice(design, None) == ("vectorized",
                                         "auto: vector count unknown")
        assert isinstance(create_engine(design), VectorizedEngine)

    def test_wide_design_is_compiled(self):
        graph = build("gcd")
        width = VECTOR_WIDTH_LIMIT + 2
        design = run_pair(graph, FlowConfig(n_steps=7,
                                            width=width)).managed.design
        for n_vectors in (None, 16, 4096):
            chosen, reason = _choice(design, n_vectors)
            assert chosen == "compiled"
            assert f"width {width}" in reason
        engine = create_engine(design, n_vectors=4096)
        assert isinstance(engine, CompiledEngine)

    def test_monte_carlo_decides_by_block_size(self, gcd_pair):
        """Each Monte Carlo block is one engine call, so the block size
        is the count ``auto`` decides by."""
        design = gcd_pair.managed.design
        small = measure_power(design, rel_tol=0.05, seed=7, block_size=64,
                              max_vectors=1024)
        assert small.chosen_backend == "compiled"
        large = measure_power(design, rel_tol=0.05, seed=7, block_size=4096,
                              max_vectors=4 * 4096)
        assert large.chosen_backend == "vectorized"


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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_negative_count_is_an_error(self, gcd_pair, backend):
        """``auto`` used to read -3 vectors as a small call."""
        with pytest.raises(ValueError, match="n_vectors"):
            create_engine(gcd_pair.managed.design, backend=backend,
                          n_vectors=-3)
        assert not _RUNNER_CACHE
        assert not _VECTOR_CACHE

    def test_unread_activity_is_never_counted(self, gcd_pair, monkeypatch):
        """A compiled engine counts a batch's activity only when read,
        so a caller that reads outputs only pays for no counting."""
        def no_count(*args):
            raise AssertionError("activity counted")

        monkeypatch.setattr(engine_module, "_count", no_count)
        engine = create_engine(gcd_pair.managed.design, backend="compiled")
        assert engine.backend_reason == "requested"
        outputs = engine.run_batch([{"a": 6, "b": 4}]).outputs
        assert outputs[0]["gcd"] == 2

    def test_auto_reason_gives_count_and_limit(self, gcd_pair, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.sim.backend"):
            engine = create_engine(gcd_pair.managed.design, n_vectors=16)
        assert engine.backend_reason == "auto: 16 vectors per call <= 256"
        assert engine.backend_reason in caplog.text


class TestCallers:
    def test_verify_stage_builds_the_one_runner(self):
        """The check runs the design's one compiled program in both
        modes and compiles nothing on the vectorized backend."""
        ctx = Pipeline().run_context(build("vender"),
                                     FlowConfig(n_steps=6, verify=True))
        assert ctx.get("verified") is True
        assert list(_RUNNER_CACHE) == [
            design_fingerprint(ctx.get("design"))]
        assert not _VECTOR_CACHE

    def test_verified_and_simulated_point_compiles_once(self,
                                                         monkeypatch):
        """Verify and simulated power share one program per design:
        the managed and the baseline design compile one runner each."""
        from repro.pipeline import clear_explore_cache, explore
        from repro.sched.timing import critical_path_length

        compiled = []

        def counting(source, filename, mode):
            compiled.append(filename)
            return compile(source, filename, mode)

        # Every program the compiled engine builds goes through this.
        monkeypatch.setattr(engine_module, "compile", counting,
                            raising=False)
        clear_explore_cache()
        cp = critical_path_length(build("gcd"))
        result = explore(["gcd"], [cp + 2],
                         configs=[FlowConfig(verify=True)], sim_vectors=16)
        assert result.points[0].simulated_reduction_pct is not None
        assert len(compiled) == len(_RUNNER_CACHE) == 2
        assert not _VECTOR_CACHE

    def test_compare_designs_one_backend_for_the_pair(self, gcd_pair):
        """A cached runner for one design alone does not split the pair."""
        orig = gcd_pair.baseline.design
        managed = gcd_pair.managed.design
        VectorizedEngine(managed)
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

    def test_rows_include_the_calibration_sizes(self, report):
        for result in report["results"]:
            sizes = {(row["backend"], row["n_vectors"])
                     for row in result["rows"]}
            backends = ("compiled", "vectorized")
            if result["circuit"] == "recurrent":
                # The vectorized codegen refuses the recurrence: auto
                # runs it compiled, and there is no vectorized row.
                assert result["auto_backend"] == "compiled"
                assert "recurrence" in result["auto_reason"]
                assert not any(b == "vectorized" for b, _n in sizes)
                backends = ("compiled",)
            else:
                assert result["auto_backend"] == "vectorized"
            for backend in backends:
                for n in (16, 128, report["n_vectors"]):
                    assert (backend, n) in sizes, (result["circuit"], n)

    def test_rule_picks_the_cheaper_backend(self, report):
        decided = 0
        for result in report["results"]:
            measured = {}
            for row in result["rows"]:
                if row["backend"] in ("compiled", "vectorized"):
                    measured[row["n_vectors"], row["backend"]] = \
                        row["build_s"] + row["seconds"]
            for n in {n for n, backend in measured
                      if backend == "vectorized"}:
                compiled = measured[n, "compiled"]
                vectorized = measured[n, "vectorized"]
                if abs(compiled - vectorized) \
                        <= DECISIVE_GAP * min(compiled, vectorized):
                    continue
                cheaper = "compiled" if compiled < vectorized \
                    else "vectorized"
                assert _auto(FlowConfig().width, n)[0] == cheaper, \
                    (result["circuit"], n)
                decided += 1
        assert decided >= 12
