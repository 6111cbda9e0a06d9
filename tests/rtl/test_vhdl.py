"""VHDL backend structure tests (no simulator available offline)."""

import pytest

from repro.pipeline import FlowConfig, Pipeline, run_pair
from repro.rtl.vhdl import generate_vhdl


@pytest.fixture
def dealer_vhdl(dealer_graph):
    return generate_vhdl(
        Pipeline().run(dealer_graph, FlowConfig(n_steps=6)).design)


class TestStructure:
    def test_three_entities_present(self, dealer_vhdl):
        assert "entity dealer_datapath is" in dealer_vhdl
        assert "entity dealer_controller is" in dealer_vhdl
        assert "entity dealer_top is" in dealer_vhdl

    def test_ports_cover_io(self, dealer_graph, dealer_vhdl):
        for node in dealer_graph.inputs():
            assert f"{node.name.lower()} : in signed" in dealer_vhdl
        for node in dealer_graph.outputs():
            assert f"{node.name.lower()} : out signed" in dealer_vhdl

    def test_fsm_states_match_steps(self, dealer_graph):
        design = Pipeline().run(dealer_graph, FlowConfig(n_steps=6)).design
        text = generate_vhdl(design)
        assert "type state_t is (s0, s1, s2, s3, s4, s5);" in text

    def test_units_instantiated(self, dealer_graph):
        design = Pipeline().run(dealer_graph, FlowConfig(n_steps=6)).design
        text = generate_vhdl(design)
        for unit in design.binding.units:
            assert f"{unit.name}_proc" in text

    def test_library_headers(self, dealer_vhdl):
        assert "library ieee;" in dealer_vhdl
        assert "use ieee.numeric_std.all;" in dealer_vhdl


class TestPowerManagementMarkers:
    def test_guarded_loads_only_in_pm_design(self, dealer_graph):
        pair = run_pair(dealer_graph, FlowConfig(n_steps=6))
        managed = generate_vhdl(pair.managed.design)
        baseline = generate_vhdl(pair.baseline.design)
        assert "power management:" in managed
        assert "power management:" not in baseline

    def test_header_names_design_kind(self, dealer_graph):
        pair = run_pair(dealer_graph, FlowConfig(n_steps=6))
        assert "power-managed design" in generate_vhdl(pair.managed.design)
        assert "baseline design" in generate_vhdl(pair.baseline.design)


class TestDeterminism:
    def test_output_is_reproducible(self, vender_graph):
        config = FlowConfig(n_steps=6)
        a = generate_vhdl(Pipeline().run(vender_graph, config).design)
        b = generate_vhdl(Pipeline().run(vender_graph, config).design)
        assert a == b

    def test_identifier_sanitization(self):
        from repro.rtl.vhdl import _ident
        assert _ident("a-b c") == "a_b_c"
        assert _ident("1abc") == "n_1abc"
        assert _ident("OK") == "ok"
