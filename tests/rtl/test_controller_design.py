"""Controller FSM and design assembly."""

import pytest

from repro.core.pm_pass import PMOptions
from repro.pipeline import FlowConfig, Pipeline, run_pair


class TestController:
    def test_one_load_per_operation(self, dealer_graph):
        result = Pipeline().run(dealer_graph, FlowConfig(n_steps=6))
        controller = result.design.controller
        assert len(controller.loads) == len(dealer_graph.operations())

    def test_loads_fire_at_op_finish(self, dealer_graph):
        result = Pipeline().run(dealer_graph, FlowConfig(n_steps=6))
        design = result.design
        for load in design.controller.loads:
            node = design.graph.node(load.op)
            assert load.state == \
                design.schedule.step_of(load.op) + node.latency - 1

    def test_pm_controller_has_more_literals(self, small_circuit):
        """The paper: 'the controller for the power managed circuit is
        slightly more complex'."""
        from repro.sched.timing import critical_path_length
        steps = critical_path_length(small_circuit) + 2
        pair = run_pair(small_circuit, FlowConfig(n_steps=steps))
        managed = pair.managed.design
        baseline = pair.baseline.design
        if managed.is_power_managed:
            guard_literals = sum(
                load.guard.literal_count
                for load in managed.controller.loads
            )
            assert guard_literals > 0

    def test_literal_count_formula(self, abs_diff_graph):
        result = Pipeline().run(abs_diff_graph, FlowConfig(n_steps=3))
        controller = result.design.controller
        expected = controller.input_loads
        expected += sum(1 + l.guard.literal_count for l in controller.loads)
        expected += len(controller.steers)
        assert controller.literal_count == expected

    def test_loads_in_state_partition(self, vender_graph):
        result = Pipeline().run(vender_graph, FlowConfig(n_steps=6))
        controller = result.design.controller
        total = sum(len(controller.loads_in_state(s))
                    for s in range(controller.n_states))
        assert total == len(controller.loads)


class TestDesign:
    def test_summary_mentions_kind(self, dealer_graph):
        pair = run_pair(dealer_graph, FlowConfig(n_steps=6))
        assert "PM" in pair.managed.design.summary()
        assert "baseline" in pair.baseline.design.summary()

    def test_area_breakdown_components_positive(self, vender_graph):
        design = Pipeline().run(vender_graph, FlowConfig(n_steps=6)).design
        area = design.area()
        assert area.functional_units > 0
        assert area.registers > 0
        assert area.controller > 0
        assert area.total == area.datapath + area.controller

    def test_is_power_managed_flags(self, abs_diff_graph):
        def design(config):
            return Pipeline().run(abs_diff_graph, config).design

        assert design(FlowConfig(n_steps=3)).is_power_managed
        assert not design(FlowConfig(
            n_steps=3, pm=PMOptions(enabled=False))).is_power_managed
        # Two steps: no slack, no PM even though the pass ran.
        assert not design(FlowConfig(n_steps=2)).is_power_managed
