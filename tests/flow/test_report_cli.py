"""Report rendering and the command-line interface."""

import pytest

from repro.circuits import gcd
from repro.cli import load_circuit, main
from repro.pipeline import FlowConfig, Pipeline
from repro.report import full_report, register_map, schedule_gantt, utilization


@pytest.fixture(scope="module")
def gcd_result():
    return Pipeline().run(gcd(), FlowConfig(n_steps=7))


class TestReport:
    def test_full_report_sections(self, gcd_result):
        text = full_report(gcd_result)
        for fragment in ("power-management decisions", "schedule:",
                         "unit utilization", "registers:", "area:",
                         "expected datapath power", "controller:"):
            assert fragment in text

    def test_gantt_one_row_per_unit(self, gcd_result):
        gantt = schedule_gantt(gcd_result)
        lines = gantt.splitlines()
        assert len(lines) == 1 + len(gcd_result.design.binding.units)
        # Guarded ops are marked with '?'.
        assert "?" in gantt

    def test_utilization_in_unit_interval(self, gcd_result):
        for fraction in utilization(gcd_result).values():
            assert 0.0 < fraction <= 1.0

    def test_register_map_mentions_lifetimes(self, gcd_result):
        text = register_map(gcd_result)
        assert "[0.." in text
        for reg in set(gcd_result.design.registers.assignment.values()):
            assert reg.name in text


class TestCLI:
    def test_stats(self, capsys):
        assert main(["stats", "dealer"]) == 0
        out = capsys.readouterr().out
        assert "critical path : 4" in out
        assert "MUX 3, COMP 3" in out

    def test_synthesize(self, capsys):
        assert main(["synthesize", "gcd", "--steps", "7"]) == 0
        out = capsys.readouterr().out
        assert "2/6 muxes managed" in out
        assert "11.8% saved" in out

    def test_synthesize_defaults_to_cp_plus_slack(self, capsys):
        assert main(["synthesize", "gcd"]) == 0
        out = capsys.readouterr().out
        assert "6 steps" in out  # cp 5 + default slack 1

    def test_no_pm_flag(self, capsys):
        assert main(["synthesize", "gcd", "--steps", "7", "--no-pm"]) == 0
        out = capsys.readouterr().out
        assert "0/0 muxes managed" in out or "baseline" in out

    def test_vhdl_to_file(self, tmp_path, capsys):
        target = tmp_path / "gcd.vhd"
        assert main(["vhdl", "gcd", "--steps", "6", "-o", str(target)]) == 0
        text = target.read_text()
        assert "entity gcd_datapath is" in text

    def test_vhdl_to_stdout(self, capsys):
        assert main(["vhdl", "gcd", "--steps", "6"]) == 0
        assert "entity gcd_controller" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert main(["simulate", "dealer", "--steps", "6",
                     "--vectors", "32"]) == 0
        out = capsys.readouterr().out
        assert "saved" in out and "area x" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table II" in out
        assert "cordic" in out

    def test_dsl_file_loading(self, tmp_path, capsys):
        source = tmp_path / "tiny.circ"
        source.write_text(
            "circuit tiny { input a, b; c = a > b;"
            " output r = c ? a - b : b - a; }")
        assert main(["stats", str(source)]) == 0
        assert "MUX 1" in capsys.readouterr().out

    def test_unknown_circuit_exits(self):
        with pytest.raises(SystemExit, match="neither a known circuit"):
            load_circuit("no_such_thing")

    def test_partial_flag(self, capsys):
        assert main(["synthesize", "dealer", "--steps", "4",
                     "--partial"]) == 0
        assert "managed" in capsys.readouterr().out
