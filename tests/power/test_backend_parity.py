"""Backend parity: power reports are byte-identical across sim backends.

The acceptance bar for the vectorized backend: ``measure_power`` (fixed
and Monte Carlo modes), ``compare_designs`` and ``explore(...,
sim_vectors=N)`` must produce *identical* — not merely close — numbers
on every backend at the same seed, because the engines are bit-exact and
the estimator arithmetic is shared.
"""

import pytest

from repro.circuits import build
from repro.pipeline import FlowConfig, explore, run_pair
from repro.pipeline.explore import clear_explore_cache
from repro.power.simulated import MonteCarloPower, compare_designs, \
    measure_power
from repro.sim.vectors import array_random_vectors


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
    def test_matrix_input_identical(self, gcd_pair, backend):
        """A pre-generated input matrix is just another vector source."""
        design = gcd_pair.managed.design
        matrix = array_random_vectors(design.graph, 96)
        from_lists = measure_power(design, n_vectors=96, backend="compiled")
        from_matrix = measure_power(design, vectors=matrix, backend=backend)
        from_matrix_c = measure_power(design, vectors=matrix,
                                      backend="compiled")
        assert from_matrix == from_lists
        assert from_matrix_c == from_lists

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

    def test_mismatched_matrix_rejected_on_all_backends(self, gcd_pair):
        import numpy as np

        design = gcd_pair.managed.design
        bad = np.zeros((8, 3), dtype=np.int64)
        for backend in ("compiled",) + ARRAY_BACKENDS:
            with pytest.raises(ValueError, match="input matrix"):
                measure_power(design, vectors=bad, backend=backend)

    def test_float_matrix_rejected_on_all_backends(self, gcd_pair):
        """No silent truncation: a float matrix fails loudly everywhere."""
        import numpy as np

        design = gcd_pair.managed.design
        floats = np.zeros((8, 2), dtype=np.float64)
        for backend in ("compiled",) + ARRAY_BACKENDS:
            with pytest.raises(TypeError, match="integer dtype"):
                measure_power(design, vectors=floats, backend=backend)


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

    def test_monte_carlo_matrix_source(self, gcd_pair):
        """A finite matrix source drains block-wise like a dict stream."""
        design = gcd_pair.managed.design
        matrix = array_random_vectors(design.graph, 200)
        rows = [dict(zip(("a", "b"), row)) for row in matrix.tolist()]
        from_matrix = measure_power(design, vectors=matrix, rel_tol=1e-9,
                                    block_size=64, backend="vectorized")
        from_stream = measure_power(design, vectors=iter(rows),
                                    rel_tol=1e-9, block_size=64,
                                    backend="compiled")
        assert from_matrix == from_stream
        assert from_matrix.samples == 200  # ran the matrix dry

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
    def test_explore_sim_vectors_identical(self):
        points = {}
        for backend in ("compiled",) + ARRAY_BACKENDS:
            clear_explore_cache()
            config = FlowConfig(sim_backend=backend, label="parity")
            result = explore(["gcd"], [7], configs=[config], sim_vectors=48)
            point = result.points[0]
            assert point.chosen_backend == backend
            points[backend] = point.simulated_reduction_pct
        assert len(set(points.values())) == 1, points
