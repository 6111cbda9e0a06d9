"""End-to-end synthesis flow."""

import pytest

from repro.core.pm_pass import PMOptions
from repro.pipeline import FlowConfig, Pipeline, run_pair
from repro.sched.timing import InfeasibleScheduleError, critical_path_length


class TestSynthesize:
    def test_produces_complete_design(self, dealer_graph):
        result = Pipeline().run(dealer_graph, FlowConfig(n_steps=6))
        design = result.design
        assert design.schedule.n_steps == 6
        assert design.binding.units
        assert design.registers.count > 0
        assert design.controller.n_states == 6

    def test_throughput_constraint_respected(self, small_circuit):
        cp = critical_path_length(small_circuit)
        for steps in (cp, cp + 1):
            result = Pipeline().run(small_circuit, FlowConfig(n_steps=steps))
            result.schedule.verify(result.allocation)
            assert result.schedule.n_steps == steps

    def test_infeasible_raises(self, dealer_graph):
        with pytest.raises(InfeasibleScheduleError):
            Pipeline().run(dealer_graph, FlowConfig(n_steps=2))

    def test_static_report_available(self, gcd_graph):
        result = Pipeline().run(gcd_graph, FlowConfig(n_steps=5))
        assert result.static_report().reduction_pct == \
            pytest.approx(11.76, abs=0.01)

    def test_invalid_graph_rejected(self):
        from repro.ir.builder import GraphBuilder
        b = GraphBuilder("broken")
        b.input("a")
        with pytest.raises(Exception):
            Pipeline().run(b.graph, FlowConfig(n_steps=3))

    def test_mutex_sharing_flag(self, abs_diff_graph):
        plain = Pipeline().run(abs_diff_graph, FlowConfig(n_steps=2))
        shared = Pipeline().run(abs_diff_graph,
                                FlowConfig(n_steps=2, mutex_sharing=True))
        assert len(shared.design.binding.units) <= \
            len(plain.design.binding.units)


class TestSynthesizePair:
    def test_baseline_has_no_gating(self, vender_graph):
        pair = run_pair(vender_graph, FlowConfig(n_steps=6))
        assert not pair.baseline.design.is_power_managed
        assert pair.baseline.pm.managed_count == 0

    def test_area_increase_reasonable(self, small_circuit):
        """Paper Table II: area increase stays within ~1.2x."""
        cp = critical_path_length(small_circuit)
        pair = run_pair(small_circuit, FlowConfig(n_steps=cp + 2))
        assert 0.9 <= pair.area_increase <= 1.35

    def test_pipelined_pair(self, dealer_graph):
        pair = run_pair(dealer_graph,
                        FlowConfig(n_steps=6, initiation_interval=3))
        assert pair.managed.schedule.initiation_interval == 3
        pair.managed.schedule.verify(pair.managed.allocation)

    def test_ordering_option_propagates(self, vender_graph):
        default = Pipeline().run(vender_graph, FlowConfig(n_steps=5))
        savings = Pipeline().run(vender_graph, FlowConfig(
            n_steps=5, pm=PMOptions(ordering="savings")))
        # Both must be valid designs; selections may differ.
        assert default.design.controller.n_states == 5
        assert savings.design.controller.n_states == 5
