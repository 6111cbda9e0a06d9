"""RTL simulator: functional equivalence and shut-down accounting."""

import pytest

from repro.pipeline import FlowConfig, Pipeline, run_pair
from repro.sim.reference import evaluate
from repro.sim.simulator import RTLSimulator
from repro.sim.vectors import random_vectors
from repro.sched.timing import critical_path_length


class TestFunctionalEquivalence:
    """Power management must never change circuit outputs."""

    @pytest.mark.parametrize("name,steps", [
        ("dealer", 4), ("dealer", 6),
        ("gcd", 5), ("gcd", 7),
        ("vender", 5), ("vender", 6),
    ])
    def test_benchmarks_match_reference(self, name, steps):
        from repro.circuits import build
        graph = build(name)
        pair = run_pair(graph, FlowConfig(n_steps=steps))
        vectors = random_vectors(graph, 60, seed=steps)
        expected = [evaluate(graph, v) for v in vectors]
        for result, pm in ((pair.managed, True), (pair.baseline, False)):
            sim = RTLSimulator(result.design, power_management=pm)
            outputs, _ = sim.run_many(vectors)
            assert outputs == expected

    def test_managed_design_with_pm_disabled_still_correct(self,
                                                           dealer_graph):
        """Running the PM datapath with gating off is the same circuit."""
        result = Pipeline().run(dealer_graph, FlowConfig(n_steps=6))
        vectors = random_vectors(dealer_graph, 30)
        sim = RTLSimulator(result.design, power_management=False)
        outputs, _ = sim.run_many(vectors)
        assert outputs == [evaluate(dealer_graph, v) for v in vectors]

    def test_cordic_equivalence(self, cordic_graph):
        result = Pipeline().run(cordic_graph, FlowConfig(n_steps=48))
        vectors = random_vectors(cordic_graph, 8)
        sim = RTLSimulator(result.design)
        outputs, _ = sim.run_many(vectors)
        assert outputs == [evaluate(cordic_graph, v) for v in vectors]


class TestShutdownAccounting:
    def test_abs_diff_idles_one_sub_per_sample(self, abs_diff_graph):
        result = Pipeline().run(abs_diff_graph, FlowConfig(n_steps=3))
        sim = RTLSimulator(result.design)
        vectors = random_vectors(abs_diff_graph, 40)
        _, activity = sim.run_many(vectors)
        assert activity.total_idles() == 40  # exactly one sub skipped each

    def test_baseline_never_idles(self, dealer_graph):
        pair = run_pair(dealer_graph, FlowConfig(n_steps=6))
        sim = RTLSimulator(pair.baseline.design, power_management=False)
        _, activity = sim.run_many(random_vectors(dealer_graph, 20))
        assert activity.total_idles() == 0

    def test_idle_plus_active_equals_scheduled(self, vender_graph):
        result = Pipeline().run(vender_graph, FlowConfig(n_steps=6))
        sim = RTLSimulator(result.design)
        n = 25
        _, activity = sim.run_many(random_vectors(vender_graph, n))
        total_ops = len(vender_graph.operations())
        assert activity.total_idles() + activity.total_activations() \
            == n * total_ops

    def test_idle_unit_has_no_input_toggles(self, abs_diff_graph):
        """The core power-management claim: disabled latches don't switch.

        With equal inputs the selected subtraction is a-b = 0 twice in a
        row; run the same vector twice — the second pass must add zero
        input toggles for the sub class beyond the first."""
        result = Pipeline().run(abs_diff_graph, FlowConfig(n_steps=3))
        sim = RTLSimulator(result.design)
        vec = {"a": 9, "b": 3}
        sim.run(vec)
        second = sim.run(vec)
        from repro.ir.ops import ResourceClass
        assert second.activity.fu_input_toggles.get(ResourceClass.SUB, 0) == 0

    def test_controller_cycles_counted(self, dealer_graph):
        result = Pipeline().run(dealer_graph, FlowConfig(n_steps=6))
        sim = RTLSimulator(result.design)
        sample = sim.run({"p": 5, "d": 3, "c": 2})
        assert sample.activity.controller_cycles == 6


class TestStateAndErrors:
    def test_missing_input_raises(self, abs_diff_graph):
        sim = RTLSimulator(
            Pipeline().run(abs_diff_graph, FlowConfig(n_steps=3)).design)
        with pytest.raises(KeyError, match="missing input"):
            sim.run({"a": 1})

    def test_repeated_runs_are_deterministic(self, abs_diff_graph):
        """Same vector twice: same outputs, and the warm datapath sees no
        execution-unit input switching at all."""
        design = Pipeline().run(abs_diff_graph, FlowConfig(n_steps=3)).design
        sim = RTLSimulator(design)
        first = sim.run({"a": 100, "b": 1})
        repeat = sim.run({"a": 100, "b": 1})
        assert repeat.outputs == first.outputs
        assert sum(repeat.activity.fu_input_toggles.values()) == 0

    def test_equivalence_at_critical_path(self, small_circuit):
        cp = critical_path_length(small_circuit)
        result = Pipeline().run(small_circuit, FlowConfig(n_steps=cp))
        vectors = random_vectors(small_circuit, 20, seed=5)
        sim = RTLSimulator(result.design)
        outputs, _ = sim.run_many(vectors)
        assert outputs == [evaluate(small_circuit, v) for v in vectors]
