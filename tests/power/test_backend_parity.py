"""Backend parity: power reports are byte-identical across sim backends.

The acceptance bar for the vectorized backend: ``measure_power`` (fixed
and Monte Carlo modes) and ``compare_designs`` must produce *identical*
— not merely close — numbers on every backend at the same seed, and
``explore(..., sim_vectors=N)`` must match them, because the engines are
bit-exact and the estimator arithmetic is shared.
"""

import pytest

from repro.circuits import build
from repro.ir.builder import GraphBuilder
from repro.pipeline import FlowConfig, Pipeline, explore, run_pair
from repro.pipeline.explore import clear_explore_cache
from repro.power.simulated import MonteCarloPower, compare_designs, \
    measure_power
from repro.sched.timing import critical_path_length


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
    @pytest.mark.parametrize("block_size", [64, 512])
    def test_monte_carlo_identical(self, gcd_pair, backend, block_size):
        """Identical MonteCarloPower estimates — samples, blocks, CI and
        convergence flag included — at a fixed seed on every backend.
        The vectorized engine draws its blocks as matrices from one
        stream; the compiled one draws dicts."""
        design = gcd_pair.managed.design
        kwargs = dict(rel_tol=0.02, seed=1996, block_size=block_size,
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


    @pytest.mark.parametrize("width", [8, 16, 31, 32])
    def test_compare_designs_drawn_matrix_identical(self, width):
        """At 4096 vectors ``auto`` runs the vectorized engine on one
        matrix drawn for both designs: replayed up to 31-bit inputs,
        packed dicts above.  Both equal the compiled engine on dicts."""
        pair = run_pair(build("dealer"), FlowConfig(n_steps=6, width=width))
        designs = (pair.baseline.design, pair.managed.design)
        auto = compare_designs(*designs, n_vectors=4096, seed=5)
        assert auto.managed.chosen_backend == "vectorized"
        assert auto == compare_designs(*designs, n_vectors=4096, seed=5,
                                       backend="compiled")

    def test_compare_designs_reordered_inputs(self):
        """The managed design declares the inputs in another order than
        the one the vectors are drawn in; each engine reads its inputs
        by name on both backends."""
        designs = []
        for order in ("abc", "cab"):
            builder = GraphBuilder("ordered")
            ports = {name: builder.input(name) for name in order}
            builder.output(ports["a"] + ports["b"] * ports["c"], "out")
            graph = builder.build()
            designs.append(Pipeline().run(graph, FlowConfig(
                n_steps=critical_path_length(graph) + 1)).design)
        auto = compare_designs(*designs, n_vectors=4096, seed=3)
        assert auto.managed.chosen_backend == "vectorized"
        assert auto == compare_designs(*designs, n_vectors=4096, seed=3,
                                       backend="compiled")


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
