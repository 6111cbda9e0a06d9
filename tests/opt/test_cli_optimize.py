"""The ``repro optimize`` subcommand and ``repro explore --search``."""

import json

import pytest

from repro.cli import main


class TestOptimizeCommand:
    def test_default_anneal_run(self, capsys):
        assert main(["optimize", "gcd", "--steps", "7",
                     "--iters", "40"]) == 0
        out = capsys.readouterr().out
        assert "anneal on 'gcd'" in out
        assert "greedy" in out and "best" in out
        assert "chosen design:" in out

    def test_beam_driver_and_budgets(self, capsys):
        assert main(["optimize", "dealer", "--search", "beam",
                     "--budgets", "5,6", "--beam-width", "2"]) == 0
        out = capsys.readouterr().out
        assert "beam on 'dealer'" in out

    def test_weighted_objective(self, capsys):
        assert main(["optimize", "dealer", "--steps", "6",
                     "--objective", "gated_weight,area=0.01",
                     "--iters", "10"]) == 0
        assert "chosen design:" in capsys.readouterr().out

    def test_bad_objective_is_a_clean_error(self, capsys):
        with pytest.raises(SystemExit, match="unknown metric"):
            main(["optimize", "dealer", "--steps", "6",
                  "--objective", "nonsense"])

    def test_bad_budgets_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="--budgets"):
            main(["optimize", "dealer", "--budgets", "five"])

    def test_infeasible_budget_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="critical path"):
            main(["optimize", "gcd", "--steps", "2", "--iters", "5"])

    def test_store_and_resume_flags(self, capsys, tmp_path):
        journal = tmp_path / "opt.jsonl"
        args = ["optimize", "gcd", "--steps", "7", "--iters", "30",
                "--store", str(tmp_path / "store"), "--resume",
                str(journal)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "resumed from journal" in out
        meta = json.loads(journal.read_text().splitlines()[0])
        assert meta["kind"] == "opt-journal"

    def test_partial_flag_reaches_the_synthesized_design(self, capsys,
                                                         tmp_path):
        """--partial must shape both the search and the final synthesis
        of the chosen design (regression: the report used to rebuild
        the design with partial gating off)."""
        source = tmp_path / "pgate.circ"
        source.write_text("""
circuit pgate {
    input a, b, c, d;
    x = a + b;
    y = x * c;
    c0 = a > d;
    output out = c0 ? y : d;
}
""")
        assert main(["optimize", str(source), "--steps", "3",
                     "--iters", "10"]) == 0
        assert "chosen design: 0 managed muxes" in capsys.readouterr().out
        assert main(["optimize", str(source), "--steps", "3",
                     "--iters", "10", "--partial"]) == 0
        assert "chosen design: 1 managed muxes" in capsys.readouterr().out

    def test_gen_family_spec(self, capsys):
        assert main(["optimize", "gen:branchy:2", "--budgets", "13",
                     "--search", "beam"]) == 0
        out = capsys.readouterr().out
        assert "gen:branchy:2" in out
        # The pinned seed where search beats every greedy strategy.
        assert "+1.2500 over greedy" in out


class TestIterationsFlag:
    """``--iters`` reaches the driver as given; only an omitted flag on a
    pure ``--time-budget`` portfolio run means "no move cap"."""

    @pytest.mark.parametrize("argv, expected", [
        ([], 150),
        (["--search", "portfolio"], 150),
        (["--search", "portfolio", "--time-budget", "1"], None),
        (["--search", "portfolio", "--time-budget", "1",
          "--iters", "150"], 150),
        (["--search", "portfolio", "--time-budget", "1",
          "--iters", "149"], 149),
    ])
    def test_iters_reaching_the_driver(self, monkeypatch, argv, expected):
        seen = {}

        class Stop(Exception):
            pass

        def fake_optimize(graph, spec, **kwargs):
            seen["iters"] = spec.iters
            raise Stop

        monkeypatch.setattr("repro.opt.search.optimize", fake_optimize)
        with pytest.raises(Stop):
            main(["optimize", "gcd", "--steps", "7", *argv])
        assert seen["iters"] == expected


class TestExploreSearchFlag:
    def test_search_mode_prints_one_point_per_circuit(self, capsys):
        assert main(["explore", "dealer", "gcd", "--budgets", "6,7",
                     "--search", "beam"]) == 0
        out = capsys.readouterr().out
        assert "beam[gated_weight]" in out
        assert out.count("beam[gated_weight]") == 2
        assert "best point:" in out

    def test_infeasible_budget_is_a_clean_error(self):
        """Search mode reports bad budgets as ValueError; the CLI must
        still exit cleanly, like grid mode does."""
        with pytest.raises(SystemExit, match="critical path"):
            main(["explore", "gcd", "--budgets", "2", "--search",
                  "anneal"])
