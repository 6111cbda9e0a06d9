"""Backend parity: power reports are byte-identical across sim backends.

The acceptance bar for the vectorized backend: ``measure_power`` (fixed
and Monte Carlo modes) and ``compare_designs`` must produce *identical*
— not merely close — numbers on every backend at the same seed, and
``explore(..., sim_vectors=N)`` must match them, because the engines are
bit-exact and the estimator arithmetic is shared.
"""

import pytest

from repro.circuits import build
from repro.pipeline import FlowConfig, explore, run_pair
from repro.pipeline.explore import clear_explore_cache
from repro.power.simulated import MonteCarloPower, compare_designs, \
    measure_power


@pytest.fixture(scope="module")
def gcd_pair():
    return run_pair(build("gcd"), FlowConfig(n_steps=7))


#: Array backends held to byte-identity against the compiled engine.
ARRAY_BACKENDS = ("vectorized",)


class TestFixedMode:
    @pytest.mark.parametrize("backend", ARRAY_BACKENDS)
    def test_fixed_sample_identical(self, gcd_pair, backend):
        design = gcd_pair.managed.design
        compiled = measure_power(design, n_vectors=96, backend="compiled")
        other = measure_power(design, n_vectors=96, backend=backend)
        assert compiled == other

    @pytest.mark.parametrize("backend", ARRAY_BACKENDS)
    def test_ungated_mode_identical(self, backend):
        """A managed design with its gating off: the compiled runner it
        shares with the gated mode reports what ``backend`` does."""
        pair = run_pair(build("dealer"), FlowConfig(n_steps=6))
        design = pair.managed.design
        gated = measure_power(design, n_vectors=96, backend="compiled")
        compiled = measure_power(design, n_vectors=96, backend="compiled",
                                 power_management=False)
        other = measure_power(design, n_vectors=96, backend=backend,
                              power_management=False)
        assert compiled == other
        assert compiled != gated


class TestMonteCarlo:
    @pytest.mark.parametrize("backend", ARRAY_BACKENDS)
    def test_monte_carlo_identical(self, gcd_pair, backend):
        """Identical MonteCarloPower estimates — samples, blocks, CI and
        convergence flag included — at a fixed seed on every backend."""
        design = gcd_pair.managed.design
        kwargs = dict(rel_tol=0.02, seed=1996, block_size=64,
                      max_vectors=4096)
        compiled = measure_power(design, backend="compiled", **kwargs)
        other = measure_power(design, backend=backend, **kwargs)
        assert isinstance(compiled, MonteCarloPower)
        assert isinstance(other, MonteCarloPower)
        assert compiled == other
        assert compiled.samples == other.samples
        assert compiled.blocks == other.blocks
        assert compiled.ci_halfwidth == other.ci_halfwidth
        assert compiled.converged == other.converged

    def test_chosen_backend_surfaced(self, gcd_pair):
        """Fallback observability: every report records which engine ran
        it, without perturbing report equality (the field is excluded
        from comparison so parity checks above stay byte-identical).
        ``auto`` records the rule's choice for the vectors per engine
        call: a 32-vector batch and 64-vector Monte Carlo blocks run
        compiled, and a 4096-vector batch runs vectorized."""
        design = gcd_pair.managed.design
        for backend in ("compiled",) + ARRAY_BACKENDS:
            report = measure_power(design, n_vectors=32, backend=backend)
            assert report.chosen_backend == backend
        auto = measure_power(design, n_vectors=32, backend="auto")
        assert auto.chosen_backend == "compiled"
        mc = measure_power(design, rel_tol=0.05, seed=7, block_size=64,
                           max_vectors=1024, backend="auto")
        assert isinstance(mc, MonteCarloPower)
        assert mc.chosen_backend == "compiled"
        large = measure_power(design, n_vectors=4096, backend="auto")
        assert large.chosen_backend == "vectorized"
        assert large == measure_power(design, n_vectors=4096,
                                      backend="compiled")

    @pytest.mark.parametrize("backend", ARRAY_BACKENDS)
    def test_compare_designs_identical(self, gcd_pair, backend):
        compiled = compare_designs(gcd_pair.baseline.design,
                                   gcd_pair.managed.design,
                                   n_vectors=64, backend="compiled")
        other = compare_designs(gcd_pair.baseline.design,
                                gcd_pair.managed.design,
                                n_vectors=64, backend=backend)
        assert compiled == other


class TestExplore:
    def test_explore_sim_vectors_identical(self, gcd_pair):
        """explore() runs the engine ``auto`` picks; its simulated saving
        equals compare_designs on every forced engine."""
        clear_explore_cache()
        point = explore(["gcd"], [7], sim_vectors=48).points[0]
        assert point.chosen_backend == "compiled"
        for backend in ("compiled",) + ARRAY_BACKENDS:
            comparison = compare_designs(gcd_pair.baseline.design,
                                         gcd_pair.managed.design,
                                         n_vectors=48, backend=backend)
            assert comparison.managed.chosen_backend == backend
            assert point.simulated_reduction_pct \
                == comparison.reduction_pct, backend
