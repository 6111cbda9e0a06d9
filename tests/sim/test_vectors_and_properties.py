"""Vector generation + the full-flow equivalence property test."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import FlowConfig, Pipeline
from repro.sched.timing import critical_path_length
from repro.sim.reference import evaluate
from repro.sim.simulator import RTLSimulator
from repro.sim.vectors import exhaustive_vectors, random_vectors
from tests.strategies import circuits


class TestVectors:
    def test_random_vectors_deterministic_by_seed(self, dealer_graph):
        a = random_vectors(dealer_graph, 10, seed=42)
        b = random_vectors(dealer_graph, 10, seed=42)
        c = random_vectors(dealer_graph, 10, seed=43)
        assert a == b
        assert a != c

    def test_random_vectors_in_range(self, dealer_graph):
        for vec in random_vectors(dealer_graph, 50, width=8):
            for value in vec.values():
                assert -128 <= value <= 127

    def test_exhaustive_covers_all(self, abs_diff_graph):
        vectors = exhaustive_vectors(abs_diff_graph, width=3)
        assert len(vectors) == 8 * 8
        assert len({tuple(sorted(v.items())) for v in vectors}) == 64


class TestFullFlowProperty:
    """The headline invariant: for ANY circuit and ANY slack, synthesis
    with power management produces hardware with identical behaviour."""

    @settings(max_examples=40, deadline=None)
    @given(circuits(max_ops=10), st.integers(min_value=0, max_value=2),
           st.integers(min_value=0, max_value=10_000))
    def test_pm_design_equals_reference(self, graph, slack, seed):
        cp = critical_path_length(graph)
        result = Pipeline().run(graph, FlowConfig(n_steps=cp + slack))
        vectors = random_vectors(graph, 8, seed=seed)
        sim = RTLSimulator(result.design, power_management=True)
        outputs, _ = sim.run_many(vectors)
        assert outputs == [evaluate(graph, v) for v in vectors]

    @settings(max_examples=25, deadline=None)
    @given(circuits(max_ops=8), st.integers(min_value=0, max_value=2))
    def test_baseline_design_equals_reference(self, graph, slack):
        cp = critical_path_length(graph)
        from repro.core.pm_pass import PMOptions
        result = Pipeline().run(graph, FlowConfig(
            n_steps=cp + slack, pm=PMOptions(enabled=False)))
        vectors = random_vectors(graph, 6, seed=0)
        sim = RTLSimulator(result.design, power_management=False)
        outputs, _ = sim.run_many(vectors)
        assert outputs == [evaluate(graph, v) for v in vectors]

    @settings(max_examples=25, deadline=None)
    @given(circuits(max_ops=10))
    def test_gated_activity_never_exceeds_baseline(self, graph):
        """Power management can only reduce the number of executions."""
        cp = critical_path_length(graph)
        result = Pipeline().run(graph, FlowConfig(n_steps=cp + 2))
        vectors = random_vectors(graph, 5, seed=1)
        managed = RTLSimulator(result.design, power_management=True)
        _, act_managed = managed.run_many(vectors)
        baseline = RTLSimulator(result.design, power_management=False)
        _, act_baseline = baseline.run_many(vectors)
        assert act_managed.total_activations() <= \
            act_baseline.total_activations()
