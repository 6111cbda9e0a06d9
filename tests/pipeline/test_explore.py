"""Batch design-space exploration: shapes, caching, parallel workers,
persistent stores, journaled resume, and Pareto reduction."""

import json
import time

import pytest

from repro.circuits import build
from repro.core import PMOptions
from repro.pipeline import (
    ExplorationPoint,
    ExplorationResult,
    FlowConfig,
    IndexedArtifactStore,
    clear_explore_cache,
    explore,
    job_key,
    plan_jobs,
    run_pair,
)
from repro.power.simulated import compare_designs
from repro.sim.engine import clear_compile_caches

CIRCUITS = ["dealer", "gcd", "vender"]
BUDGETS = [5, 6, 7]


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_explore_cache()
    yield
    clear_explore_cache()


class TestShape:
    def test_full_cross_product(self):
        result = explore(CIRCUITS, BUDGETS)
        assert isinstance(result, ExplorationResult)
        assert len(result.points) == 9
        assert all(isinstance(p, ExplorationPoint) for p in result.points)
        assert result.circuits() == ("dealer", "gcd", "vender")
        assert {p.n_steps for p in result.points} == set(BUDGETS)

    def test_points_carry_synthesis_summaries(self):
        result = explore(["gcd"], [7])
        point = result.points[0]
        assert point.circuit == "gcd"
        assert point.managed_muxes == 2
        assert point.power_reduction_pct == pytest.approx(11.76, abs=0.01)
        assert point.area > 0 and point.controller_literals > 0
        assert point.allocation_dict  # e.g. {'-': 1, '<': 1, 'mux': 1}

    def test_per_circuit_budget_mapping(self):
        result = explore(["dealer", "gcd"],
                         {"dealer": [5, 6], "gcd": [7]})
        assert [(p.circuit, p.n_steps) for p in result.points] == \
            [("dealer", 5), ("dealer", 6), ("gcd", 7)]

    def test_multiple_configs_per_point(self):
        configs = [FlowConfig(label="pm"),
                   FlowConfig(pm=PMOptions(enabled=False),
                              label="baseline")]
        result = explore(["gcd"], [7], configs=configs)
        labels = [p.config_label for p in result.points]
        assert labels == ["pm", "baseline"]
        by_label = {p.config_label: p for p in result.points}
        assert by_label["pm"].managed_muxes > 0
        assert by_label["baseline"].managed_muxes == 0

    def test_cdfg_objects_accepted(self, abs_diff_graph):
        result = explore([abs_diff_graph], [3])
        assert result.points[0].circuit == abs_diff_graph.name
        assert result.points[0].managed_muxes == 1

    def test_helpers(self):
        result = explore(CIRCUITS, BUDGETS)
        assert len(result.for_circuit("gcd")) == 3
        best = result.best()
        assert best.power_reduction_pct == \
            max(p.power_reduction_pct for p in result.points)
        table = result.table()
        assert "dealer" in table and "stage-cache hits" in table

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="at least one circuit"):
            explore([], BUDGETS)
        with pytest.raises(TypeError, match="registry name or CDFG"):
            explore([42], BUDGETS)
        with pytest.raises(KeyError):
            explore(["nonesuch"], BUDGETS)

    @pytest.mark.parametrize("bad", [-5, 2.5, True, "16"])
    def test_bad_sim_vectors_rejected(self, bad):
        """A negative count used to simulate nothing and report an
        unsimulated sweep as if asked for none."""
        with pytest.raises(ValueError, match="sim_vectors"):
            explore(["gcd"], [7], sim_vectors=bad)
        with pytest.raises(ValueError, match="sim_vectors"):
            plan_jobs(["gcd"], [7], sim_vectors=bad)


class TestCaching:
    def test_second_sweep_is_served_from_cache(self):
        cold = explore(CIRCUITS, BUDGETS)
        warm = explore(CIRCUITS, BUDGETS)
        assert cold.cache_misses > 0
        assert warm.cache_hits > 0
        assert warm.cache_misses == 0
        # Identical synthesis outcomes either way.
        assert [(p.circuit, p.n_steps, p.managed_muxes, p.area,
                 p.power_reduction_pct) for p in cold.points] == \
               [(p.circuit, p.n_steps, p.managed_muxes, p.area,
                 p.power_reduction_pct) for p in warm.points]

    def test_first_sweep_already_shares_analysis_across_budgets(self):
        cold = explore(["gcd"], BUDGETS)
        # Budgets 6 and 7 reuse gcd's budget-independent analyze artifact.
        assert cold.cache_hits >= 2



class TestSimulatedBackend:
    def test_chosen_backend_ignores_process_history(self):
        """A point records the same backend in a fresh process and after
        a 4096-vector power study has left vectorized runners for its
        designs in the compile caches."""
        clear_compile_caches()
        fresh = explore(["gcd"], [7], sim_vectors=128).points[0]
        clear_explore_cache()
        pair = run_pair(build("gcd"), FlowConfig(n_steps=7))
        compare_designs(pair.baseline.design, pair.managed.design,
                        n_vectors=4096)
        warm = explore(["gcd"], [7], sim_vectors=128).points[0]
        assert warm == fresh
        assert warm.chosen_backend == fresh.chosen_backend == "compiled"

class TestParallel:
    def test_worker_processes_match_serial_results(self):
        serial = explore(CIRCUITS, [5, 6])
        parallel = explore(CIRCUITS, [5, 6], workers=2)
        assert [(p.circuit, p.n_steps, p.managed_muxes, p.area,
                 p.power_reduction_pct) for p in parallel.points] == \
               [(p.circuit, p.n_steps, p.managed_muxes, p.area,
                 p.power_reduction_pct) for p in serial.points]

    def test_chunk_size_does_not_change_results(self):
        whole = explore(CIRCUITS, [5, 6], workers=2, chunk_size=6)
        tiny = explore(CIRCUITS, [5, 6], workers=2, chunk_size=1)
        assert [(p.circuit, p.n_steps, p.area) for p in whole.points] == \
               [(p.circuit, p.n_steps, p.area) for p in tiny.points]

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_chunk_size_rejected(self, bad):
        """A chunk size below 1 used to drop every point (negative) or
        fail inside ``range()`` (zero)."""
        with pytest.raises(ValueError, match="chunk_size"):
            explore(["gcd", "dealer"], [6, 7], workers=2, chunk_size=bad)


def _shape(result):
    return [(p.circuit, p.n_steps, p.managed_muxes, p.area,
             p.power_reduction_pct) for p in result.points]


class TestDiskStore:
    def test_second_sweep_hits_the_store_and_is_faster(self, tmp_path):
        """The acceptance-criteria pin: a warm store run reports >0 disk
        hits, computes nothing, and takes measurably less wall time."""
        start = time.perf_counter()
        cold = explore(CIRCUITS, BUDGETS, store=tmp_path / "store")
        cold_s = time.perf_counter() - start
        assert cold.store_misses > 0
        # A fresh store instance on the same directory: only the disk is
        # shared, exactly like a new process on a later day.  Timing is
        # best-of-two so a one-off scheduler hiccup can't flake the pin.
        warm_s = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            warm = explore(CIRCUITS, BUDGETS,
                           store=IndexedArtifactStore(tmp_path / "store"))
            warm_s = min(warm_s, time.perf_counter() - start)
        assert warm.store_hits > 0
        assert warm.store_misses == 0
        assert warm.cache_misses == 0
        assert warm_s < cold_s
        assert _shape(cold) == _shape(warm)

    def test_store_accepts_a_path(self, tmp_path):
        result = explore(["gcd"], [7], store=tmp_path / "s")
        assert result.store_misses > 0
        assert (tmp_path / "s").is_dir()

    @pytest.mark.parametrize("search", [None, "random"])
    def test_store_opened_from_a_path_is_closed(self, tmp_path,
                                                monkeypatch, search):
        closed = []
        monkeypatch.setattr(IndexedArtifactStore, "close",
                            lambda store: closed.append(store.root))
        explore(["gcd"], [7], store=tmp_path / "s", search=search)
        assert closed == [tmp_path / "s"]
        # A caller's own instance stays open for the caller to reuse.
        explore(["gcd"], [7], store=IndexedArtifactStore(tmp_path / "t"),
                search=search)
        assert closed == [tmp_path / "s"]

    def test_store_shared_across_worker_processes(self, tmp_path):
        cold = explore(CIRCUITS, [5, 6], store=tmp_path / "s")
        warm = explore(CIRCUITS, [5, 6], workers=2,
                       store=IndexedArtifactStore(tmp_path / "s"))
        assert warm.store_hits > 0 and warm.store_misses == 0
        assert _shape(cold) == _shape(warm)

    def test_point_level_store_accounting(self, tmp_path):
        result = explore(["gcd"], [7, 7], store=tmp_path / "s")
        first, second = result.points
        assert first.store_misses > 0
        assert second.store_hits > 0 and second.store_misses == 0
        assert "disk-store hits" in result.table()

    def test_without_store_no_store_stats(self):
        result = explore(["gcd"], [7])
        assert result.store_hits == 0 and result.store_misses == 0
        assert "disk-store" not in result.table()


class TestResume:
    def test_journal_written_and_replayed(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        first = explore(CIRCUITS, [5, 6], resume=journal)
        assert first.resumed == 0
        assert journal.exists()
        second = explore(CIRCUITS, [5, 6], resume=journal)
        assert second.resumed == len(second.points) == 6
        assert _shape(first) == _shape(second)

    def test_kill_resume_completes_without_recompute(self, tmp_path,
                                                     monkeypatch):
        """Truncating the journal simulates a mid-sweep kill (including
        a torn trailing record); the re-run computes exactly the missing
        points."""
        journal = tmp_path / "sweep.jsonl"
        full = explore(CIRCUITS, BUDGETS, resume=journal)
        lines = journal.read_text().splitlines()
        assert len(lines) == 1 + 9  # meta + one record per point
        # Keep meta + 4 records, then a torn half-record.
        journal.write_text("\n".join(lines[:5]) + '\n{"key": "torn')

        import importlib

        # The package attribute `explore` is the function; fetch the
        # submodule itself to patch its internals.
        explore_mod = importlib.import_module("repro.pipeline.explore")
        real_run_point = explore_mod._run_point
        computed = []

        def counting_run_point(spec, config, sim_vectors, store):
            computed.append(spec)
            return real_run_point(spec, config, sim_vectors, store)

        monkeypatch.setattr(explore_mod, "_run_point", counting_run_point)
        resumed = explore(CIRCUITS, BUDGETS, resume=journal)
        assert resumed.resumed == 4
        assert len(computed) == 5  # only the missing grid points
        assert _shape(resumed) == _shape(full)
        # The journal is whole again: a third run recomputes nothing.
        computed.clear()
        third = explore(CIRCUITS, BUDGETS, resume=journal)
        assert computed == [] and third.resumed == 9

    def test_grid_extension_reuses_the_journal(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        explore(["gcd"], [6, 7], resume=journal)
        extended = explore(["gcd", "dealer"], [6, 7], resume=journal)
        assert extended.resumed == 2  # the gcd points were journaled
        assert len(extended.points) == 4

    def test_journal_records_are_json_with_stable_keys(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        explore(["gcd"], [7], resume=journal)
        meta, record = [json.loads(line)
                        for line in journal.read_text().splitlines()]
        assert meta["kind"] == "explore-journal"
        expected_key = job_key(("name", "gcd"),
                               FlowConfig(n_steps=7), 0)
        assert record["key"] == expected_key
        point = ExplorationPoint.from_dict(record["point"])
        assert point.circuit == "gcd" and point.n_steps == 7

    def test_resume_with_workers(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        explore(["gcd"], [6], resume=journal)
        result = explore(CIRCUITS, [5, 6], workers=2, resume=journal)
        assert result.resumed == 1
        assert len(result.points) == 6

    def test_config_changes_invalidate_journal_entries(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        explore(["gcd"], [7], resume=journal)
        other = explore(["gcd"], [7],
                        configs=[FlowConfig(scheduler="force_directed")],
                        resume=journal)
        assert other.resumed == 0  # different config -> different job key


class TestPointRoundTrip:
    def test_to_from_dict(self):
        point = explore(["gcd"], [7]).points[0]
        clone = ExplorationPoint.from_dict(
            json.loads(json.dumps(point.to_dict())))
        assert clone == point

    def test_unknown_fields_ignored_for_forward_compat(self):
        point = explore(["gcd"], [7]).points[0]
        data = point.to_dict()
        data["future_field"] = "ignored"
        assert ExplorationPoint.from_dict(data) == point


class TestPareto:
    def _result(self, rows):
        points = tuple(
            ExplorationPoint(circuit=c, n_steps=steps, config_label="t",
                             scheduler="list", managed_muxes=0,
                             power_reduction_pct=saved, area=area,
                             controller_literals=1, allocation=(),
                             cache_hits=0, cache_misses=0)
            for c, steps, area, saved in rows)
        return ExplorationResult(points=points)

    def test_dominated_points_are_dropped(self):
        result = self._result([
            ("a", 5, 100, 30.0),   # front
            ("b", 5, 120, 20.0),   # dominated by a (worse area + power)
            ("c", 4, 150, 10.0),   # front: best latency
            ("d", 6, 90, 35.0),    # front: best area and power
        ])
        front = result.pareto()
        assert [p.circuit for p in front.points] == ["a", "c", "d"]

    def test_single_objective(self):
        result = self._result([
            ("a", 5, 100, 30.0),
            ("b", 6, 90, 20.0),
        ])
        front = result.pareto(objectives=("area",))
        assert [p.circuit for p in front.points] == ["b"]

    def test_duplicate_scores_all_survive(self):
        result = self._result([
            ("a", 5, 100, 30.0),
            ("b", 5, 100, 30.0),
        ])
        assert len(result.pareto().points) == 2

    def test_simulated_power_preferred_when_present(self):
        base = self._result([("a", 5, 100, 30.0), ("b", 5, 100, 10.0)])
        # Static estimate says a wins; simulation says b wins.
        from dataclasses import replace

        points = (replace(base.points[0], simulated_reduction_pct=5.0),
                  replace(base.points[1], simulated_reduction_pct=25.0))
        front = ExplorationResult(points=points).pareto(
            objectives=("power",))
        assert [p.circuit for p in front.points] == ["b"]

    def test_real_sweep_front_is_consistent(self):
        result = explore(CIRCUITS, BUDGETS)
        front = result.pareto()
        assert 0 < len(front.points) <= len(result.points)
        fronts = {p.circuit for p in front.points}
        # Every circuit's cheapest-area point can only be dominated by
        # points of other circuits; the front must be non-empty per
        # objective extreme.
        best_area = min(result.points, key=lambda p: p.area)
        assert best_area.circuit in fronts or any(
            p.area <= best_area.area for p in front.points)

    def test_bad_objective_rejected(self):
        with pytest.raises(KeyError, match="unknown Pareto objective"):
            self._result([("a", 5, 1, 1.0)]).pareto(objectives=("beauty",))
        with pytest.raises(ValueError, match="at least one objective"):
            self._result([("a", 5, 1, 1.0)]).pareto(objectives=())
