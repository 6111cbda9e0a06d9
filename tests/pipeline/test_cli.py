"""CLI features introduced with the pipeline API, plus load_circuit errors."""

import pytest

from repro.cli import load_circuit, main


class TestLoadCircuit:
    def test_registered_name(self):
        assert load_circuit("dealer").name == "dealer"

    def test_dsl_file(self, tmp_path):
        source = tmp_path / "tiny.circ"
        source.write_text("""
circuit tiny {
    input a, b;
    c = a > b;
    output out = c ? a : b;
}
""")
        graph = load_circuit(str(source))
        assert graph.name == "tiny"

    def test_unknown_spec_is_a_clean_error(self):
        with pytest.raises(SystemExit) as excinfo:
            load_circuit("not_a_circuit_or_file")
        message = str(excinfo.value)
        assert "not_a_circuit_or_file" in message
        assert "dealer" in message  # lists the registered names

    def test_unreadable_path_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="neither"):
            load_circuit(str(tmp_path / "missing.circ"))


class TestSchedulerFlag:
    def test_synthesize_with_named_scheduler(self, capsys):
        assert main(["synthesize", "gcd", "--steps", "7",
                     "--scheduler", "force_directed"]) == 0
        assert "schedule:" in capsys.readouterr().out

    def test_unknown_scheduler_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["synthesize", "gcd", "--steps", "7",
                  "--scheduler", "hyper"])
        assert "invalid choice" in capsys.readouterr().err

    def test_verify_flag(self, capsys):
        assert main(["synthesize", "gcd", "--steps", "7",
                     "--verify"]) == 0


class TestSimBackendFlag:
    def test_sim_backend_flag_is_gone(self, capsys):
        """The flow picks the engine itself: argparse refuses the flag."""
        with pytest.raises(SystemExit) as excinfo:
            main(["synthesize", "gcd", "--sim-backend", "compiled"])
        assert excinfo.value.code == 2
        assert "--sim-backend" in capsys.readouterr().err


class TestPipelineFlags:
    def test_ii_cap_reaches_the_modulo_scheduler(self, capsys):
        assert main(["synthesize", "vender", "--steps", "6",
                     "--scheduler", "pipeline", "--ii", "2",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "pipelined gating (II=2, mode=per_sample)" in out

    def test_gating_mode_flag(self, capsys):
        assert main(["synthesize", "vender", "--steps", "6",
                     "--scheduler", "pipeline", "--ii", "2",
                     "--pipelined-gating", "drop", "--verify"]) == 0
        assert "mode=drop" in capsys.readouterr().out

    def test_bad_gating_mode_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["synthesize", "vender", "--steps", "6",
                  "--pipelined-gating", "optimistic"])
        assert "invalid choice" in capsys.readouterr().err

    def test_ii_on_a_non_pipelining_scheduler_is_an_error(self):
        with pytest.raises(ValueError, match="pipeline"):
            main(["synthesize", "gcd", "--steps", "7",
                  "--scheduler", "exact", "--ii", "3"])

    def test_unpipelined_run_prints_no_gating_section(self, capsys):
        assert main(["synthesize", "vender", "--steps", "6"]) == 0
        assert "pipelined gating" not in capsys.readouterr().out


class TestExploreCommand:
    def test_sweep_prints_table_and_best_point(self, capsys):
        assert main(["explore", "dealer", "gcd", "--budgets", "5,6"]) == 0
        out = capsys.readouterr().out
        assert "dealer" in out and "gcd" in out
        assert "best point:" in out
        # 2 circuits x 2 budgets.
        assert out.count("default") == 4

    def test_empty_budgets_rejected(self):
        with pytest.raises(SystemExit, match="budgets"):
            main(["explore", "dealer", "--budgets", ","])

    def test_infeasible_budget_is_a_clean_error(self):
        # dealer's critical path is 4; a 3-step sweep cannot schedule.
        with pytest.raises(SystemExit, match="critical path"):
            main(["explore", "dealer", "--budgets", "3"])

    def test_non_integer_budgets_rejected(self):
        with pytest.raises(SystemExit, match="comma-separated"):
            main(["explore", "dealer", "--budgets", "5,six"])

    def test_verify_flag_reaches_the_sweep_configs(self, monkeypatch):
        import repro.cli as cli

        seen = {}
        real_explore = cli.explore

        def fake_explore(circuits, budgets, configs, workers, **kwargs):
            seen["verify"] = [c.verify for c in configs]
            return real_explore(circuits, budgets, configs=configs,
                                workers=workers, **kwargs)

        monkeypatch.setattr(cli, "explore", fake_explore)
        assert main(["explore", "gcd", "--budgets", "6", "--verify"]) == 0
        assert seen["verify"] == [True]

    def test_dsl_file_circuits_supported(self, tmp_path, capsys):
        source = tmp_path / "tiny.circ"
        source.write_text("""
circuit tiny {
    input a, b;
    c = a > b;
    output out = c ? a : b;
}
""")
        assert main(["explore", str(source), "--budgets", "2,3"]) == 0
        assert "tiny" in capsys.readouterr().out

    def test_generator_specs_supported(self, capsys):
        assert main(["explore", "gen:tiny:3", "--budgets", "8,9"]) == 0
        out = capsys.readouterr().out
        assert "gen:tiny:3" in out

    def test_bad_generator_spec_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="bad generator spec"):
            main(["explore", "gen:tiny:x", "--budgets", "8"])

    def test_typoed_preset_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="unknown preset 'larg'"):
            main(["explore", "gen:larg:42", "--budgets", "8"])

    def test_dsl_file_with_colon_in_name_still_loads(self, tmp_path,
                                                     capsys):
        source = tmp_path / "my:circ.dsl"
        source.write_text("""
circuit colonfile {
    input a, b;
    c = a > b;
    output out = c ? a : b;
}
""")
        assert main(["explore", str(source), "--budgets", "2,3"]) == 0
        assert "colonfile" in capsys.readouterr().out

    def test_store_and_resume_flags(self, tmp_path, capsys):
        store = tmp_path / "store"
        journal = tmp_path / "sweep.jsonl"
        argv = ["explore", "gcd", "--budgets", "6,7",
                "--store", str(store), "--resume", str(journal)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "disk-store hits" in first
        assert store.is_dir() and journal.exists()
        # Second run: all points replayed from the journal.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "resumed from journal: 2 points" in second

    def test_pareto_flag_prints_the_front(self, capsys):
        assert main(["explore", "dealer", "gcd", "--budgets", "5,6",
                     "--pareto"]) == 0
        out = capsys.readouterr().out
        assert "pareto front:" in out
        assert "best point:" in out


class TestStagesCommand:
    def test_prints_wiring_and_schedulers(self, capsys):
        assert main(["stages"]) == 0
        out = capsys.readouterr().out
        for stage in ("validate", "power_manage", "schedule", "elaborate",
                      "report"):
            assert stage in out
        assert "force_directed" in out
