"""Search drivers: greedy floor, determinism, resume, cache-awareness."""

import json
import random

import pytest

from repro.circuits import build
from repro.core.reordering import exhaustive_search, gated_weight
from repro.opt.evaluate import EvaluationBudgetExceeded, Evaluator
from repro.opt.search import (
    DRIVERS,
    Chain,
    SearchSpec,
    anneal,
    beam_search,
    optimize,
    random_search,
)
from repro.opt.space import SearchSpace
from repro.pipeline import IndexedArtifactStore, explore


def conflict_graph():
    """The §IV-A order-dependence example from tests/core/test_reordering:
    output-first ordering wastes the slack the multiplier cone needs."""
    from repro.ir.builder import GraphBuilder

    b = GraphBuilder("conflict")
    x, y = b.input("x"), b.input("y")
    c2 = b.gt(y, 0, name="c2")
    big = b.mul(x, y, name="big")
    m2 = b.mux(c2, big, x, name="m2")
    mid = b.add(m2, y, name="mid")
    c1 = b.gt(x, 0, name="c1")
    small = b.sub(x, y, name="small")
    m1 = b.mux(c1, small, mid, name="m1")
    b.output(m1, "out")
    return b.build()


class TestChain:
    """The one chain loop every stochastic driver walks."""

    @pytest.fixture
    def space(self, gcd_graph):
        return SearchSpace.for_graph(gcd_graph, n_steps=7)

    @pytest.mark.parametrize("temperature", [None, 1.0])
    def test_error_mid_walk_leaves_the_last_accepted(self, space,
                                                     temperature):
        rng = random.Random(0)
        chain = Chain(space.random_candidate(rng), 0.0)
        seen = []

        def evaluate(candidate):
            if len(seen) == 3:
                raise EvaluationBudgetExceeded("spent")
            seen.append(candidate)
            return float(len(seen))  # every move improves: all accepted

        with pytest.raises(EvaluationBudgetExceeded):
            chain.walk(space, rng, evaluate, 10, temperature=temperature)
        assert chain.current == seen[-1]
        assert chain.score == 3.0

    def test_random_walk_keeps_the_best(self, space):
        scores = iter([2.0, 5.0, 1.0, 3.0])
        chain = Chain()
        chain.walk(space, random.Random(1), lambda c: next(scores), 4)
        assert chain.score == 5.0

    def test_cold_walk_rejects_worse_moves(self, space):
        rng = random.Random(2)
        start = space.random_candidate(rng)
        chain = Chain(start, 10.0)
        chain.walk(space, rng, lambda c: 0.0, 5, temperature=1e-9)
        assert (chain.current, chain.score) == (start, 10.0)

    def test_stop_is_checked_before_every_move(self, space):
        moves = []

        def evaluate(candidate):
            moves.append(candidate)
            return 0.0

        Chain().walk(space, random.Random(3), evaluate, 10,
                     stop=lambda: len(moves) == 4)
        assert len(moves) == 4


class TestDriverQuality:
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_never_worse_than_best_greedy(self, driver, small_circuit):
        result = optimize(small_circuit, driver, n_steps=7, iters=30)
        assert result.best_score >= result.best_greedy_score
        assert result.improvement_over_greedy >= 0.0

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_finds_the_conflict_optimum(self, driver):
        """Every driver escapes the greedy trap of the conflict graph."""
        graph = conflict_graph()
        optimum = gated_weight(exhaustive_search(graph, 5).best)
        result = optimize(graph, driver, n_steps=5, iters=60, seed=0)
        assert result.best_score == pytest.approx(optimum)

    def test_anneal_searches_the_budget_dimension(self, gcd_graph):
        result = anneal(gcd_graph, budgets=(5, 6, 7), iters=120, seed=0)
        best_at_best_budget = gated_weight(
            exhaustive_search(gcd_graph, 7, limit=6).best)
        assert result.best_score == pytest.approx(best_at_best_budget)

    def test_scheduler_dimension_reaches_the_result(self, dealer_graph):
        result = anneal(dealer_graph, n_steps=6,
                        schedulers=("force_directed",), iters=10)
        assert result.best.scheduler == "force_directed"
        assert result.flow_config().scheduler == "force_directed"

    def test_no_mux_graph(self, chain_graph):
        result = anneal(chain_graph, n_steps=3, iters=10)
        assert result.best.order == ()
        assert result.best_score == 0.0


class TestDeterminismAndResult:
    def test_same_seed_same_outcome(self, vender_graph):
        first = anneal(vender_graph, n_steps=6, iters=60, seed=3)
        again = anneal(vender_graph, n_steps=6, iters=60, seed=3)
        assert first.outcome() == again.outcome()

    def test_outcome_is_json_compatible(self, gcd_graph):
        result = beam_search(gcd_graph, n_steps=7, beam_width=2)
        assert json.loads(json.dumps(result.outcome())) == result.outcome()

    def test_history_tracks_improvements(self, gcd_graph):
        result = anneal(gcd_graph, n_steps=7, iters=40, seed=0)
        scores = [score for _, score in result.history]
        assert scores == sorted(scores)
        assert scores[-1] == result.best_score

    def test_table_mentions_greedy_and_best(self, gcd_graph):
        text = anneal(gcd_graph, n_steps=7, iters=10, seed=0).table()
        assert "greedy" in text and "best" in text

    def test_flow_config_pins_the_chosen_order(self, gcd_graph):
        result = anneal(gcd_graph, n_steps=7, iters=20, seed=0)
        config = result.flow_config()
        assert config.pm.ordering == "given"
        assert config.pm.given_order == result.best.order
        assert config.n_steps == result.best.n_steps

    def test_driver_validation(self, gcd_graph):
        with pytest.raises(ValueError, match="unknown search driver"):
            optimize(gcd_graph, "tabu", n_steps=7)
        with pytest.raises(ValueError, match="restarts"):
            anneal(gcd_graph, n_steps=7, restarts=0)
        with pytest.raises(ValueError, match="beam_width"):
            beam_search(gcd_graph, n_steps=7, beam_width=0)

    def test_spec_dispatch_forwards_driver_knobs(self, gcd_graph):
        spec = SearchSpec(driver="beam", beam_width=1, seed=9)
        result = optimize(gcd_graph, spec, n_steps=7)
        assert result.driver == "beam"
        assert result.seed == 9


class TestResume:
    def test_interrupted_run_resumes_byte_identical(self, tmp_path):
        """Kill a search mid-flight; the journal resume must land on the
        identical outcome (the satellite acceptance property)."""
        graph = build("gen:branchy:8")
        journal = tmp_path / "opt.jsonl"
        kwargs = dict(n_steps=12, iters=80, seed=0, restarts=2)
        uninterrupted = anneal(graph, **kwargs)

        with pytest.raises(EvaluationBudgetExceeded):
            anneal(graph, journal=journal, max_evaluations=10, **kwargs)
        resumed = anneal(graph, journal=journal, **kwargs)

        assert resumed.outcome() == uninterrupted.outcome()
        assert resumed.resumed >= 10  # served from the journal
        assert resumed.evaluations < uninterrupted.evaluations

    def test_journal_replay_costs_no_evaluations(self, gcd_graph, tmp_path):
        journal = tmp_path / "opt.jsonl"
        first = anneal(gcd_graph, n_steps=7, iters=40, seed=0,
                       journal=journal)
        replay = anneal(gcd_graph, n_steps=7, iters=40, seed=0,
                        journal=journal)
        assert replay.outcome() == first.outcome()
        assert replay.evaluations == 0
        assert replay.resumed > 0

    def test_journal_has_meta_line_and_keys(self, gcd_graph, tmp_path):
        journal = tmp_path / "opt.jsonl"
        anneal(gcd_graph, n_steps=7, iters=5, seed=0, journal=journal)
        lines = journal.read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta == {"format": 1, "kind": "opt-journal"}
        record = json.loads(lines[1])
        assert {"key", "sig", "metrics"} <= set(record)

    def test_torn_tail_tolerated(self, gcd_graph, tmp_path):
        journal = tmp_path / "opt.jsonl"
        first = anneal(gcd_graph, n_steps=7, iters=30, seed=0,
                       journal=journal)
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"key": "torn-rec')  # killed mid-write
        resumed = anneal(gcd_graph, n_steps=7, iters=30, seed=0,
                         journal=journal)
        assert resumed.outcome() == first.outcome()

    def test_stale_signature_records_ignored(self, gcd_graph, tmp_path):
        """A journal written under different evaluation parameters must
        not poison a new run."""
        journal = tmp_path / "opt.jsonl"
        anneal(gcd_graph, n_steps=7, iters=10, seed=0, journal=journal,
               objective="sim_power", sim_vectors=8)
        fresh = anneal(gcd_graph, n_steps=7, iters=10, seed=0,
                       journal=journal)  # gated_weight level
        assert fresh.resumed == 0

    def test_shared_journal_across_circuits(self, tmp_path):
        """Record keys embed the graph fingerprint, so one journal can
        serve a multi-circuit run without collisions."""
        journal = tmp_path / "opt.jsonl"
        for name in ("dealer", "gcd"):
            anneal(build(name), n_steps=7, iters=10, seed=0,
                   journal=journal)
        dealer_again = anneal(build("dealer"), n_steps=7, iters=10,
                              seed=0, journal=journal)
        assert dealer_again.evaluations == 0


class TestStoreAwareness:
    def test_warm_store_recomputes_nothing(self, gcd_graph, tmp_path):
        store = IndexedArtifactStore(tmp_path / "store")
        cold = anneal(gcd_graph, n_steps=7, iters=40, seed=0, store=store)
        warm = anneal(gcd_graph, n_steps=7, iters=40, seed=0,
                      store=IndexedArtifactStore(tmp_path / "store"))
        assert warm.outcome() == cold.outcome()
        assert warm.evaluations == 0
        assert cold.evaluations > 0

    def test_store_accepts_a_path(self, gcd_graph, tmp_path):
        anneal(gcd_graph, n_steps=7, iters=10, seed=0,
               store=tmp_path / "store")
        warm = anneal(gcd_graph, n_steps=7, iters=10, seed=0,
                      store=tmp_path / "store")
        assert warm.evaluations == 0

    def test_evaluator_closes_only_a_store_it_opened(self, gcd_graph,
                                                     tmp_path, monkeypatch):
        closed = []
        monkeypatch.setattr(IndexedArtifactStore, "close",
                            lambda store: closed.append(store.root))
        with Evaluator(graph=gcd_graph, objective="gated_weight",
                       store=tmp_path / "opened") as evaluator:
            assert isinstance(evaluator.store, IndexedArtifactStore)
        assert closed == [tmp_path / "opened"]
        with Evaluator(graph=gcd_graph, objective="gated_weight",
                       store=IndexedArtifactStore(tmp_path / "given")):
            pass
        assert closed == [tmp_path / "opened"]

    def test_expensive_objectives_share_stage_artifacts(self, dealer_graph,
                                                        tmp_path):
        """area needs full synthesis; the store doubles as the pipeline
        stage cache so a warm run synthesizes nothing."""
        store = IndexedArtifactStore(tmp_path / "store")
        cold = anneal(dealer_graph, objective="gated_weight,area=0.01",
                      n_steps=6, iters=15, seed=0, store=store)
        warm_store = IndexedArtifactStore(tmp_path / "store")
        warm = anneal(dealer_graph, objective="gated_weight,area=0.01",
                      n_steps=6, iters=15, seed=0, store=warm_store)
        assert warm.outcome() == cold.outcome()
        assert warm.evaluations == 0

    def test_evaluation_budget_without_journal(self, gcd_graph):
        with pytest.raises(EvaluationBudgetExceeded):
            anneal(gcd_graph, n_steps=7, iters=200, seed=0,
                   max_evaluations=3)

    def test_journal_closed_when_driver_dies(self, gcd_graph, tmp_path,
                                             monkeypatch):
        """An interrupted driver must not leak the journal handle."""
        from repro.opt import evaluate as evaluate_mod

        closed = []
        original = evaluate_mod.Evaluator.close
        monkeypatch.setattr(
            evaluate_mod.Evaluator, "close",
            lambda self: (closed.append(True), original(self))[1])
        with pytest.raises(EvaluationBudgetExceeded):
            anneal(gcd_graph, n_steps=7, iters=100, seed=0,
                   journal=tmp_path / "opt.jsonl", max_evaluations=2)
        assert closed

    def test_pm_base_none_matches_paper_defaults(self, gcd_graph):
        """None and PMOptions() are the same evaluation question, so
        they must share journal/store signatures."""
        from repro.core.pm_pass import PMOptions

        none_sig = Evaluator(graph=gcd_graph,
                             objective="gated_weight")._signature()
        default_sig = Evaluator(graph=gcd_graph, objective="gated_weight",
                                pm_base=PMOptions())._signature()
        assert none_sig == default_sig


class TestEvaluatorLevels:
    def test_pm_level_metrics(self, gcd_graph):
        evaluator = Evaluator(graph=gcd_graph, objective="gated_weight")
        from repro.opt.space import SearchSpace

        space = SearchSpace.for_graph(gcd_graph, n_steps=7)
        _, candidate = space.greedy_candidates(gcd_graph)[0]
        score, metrics = evaluator.evaluate(candidate)
        assert set(metrics) == {"gated_weight", "managed_muxes",
                                "static_power"}
        assert score == metrics["gated_weight"]

    def test_design_level_adds_area(self, dealer_graph):
        evaluator = Evaluator(graph=dealer_graph, objective="area")
        from repro.opt.space import SearchSpace

        space = SearchSpace.for_graph(dealer_graph, n_steps=6)
        _, candidate = space.greedy_candidates(dealer_graph)[0]
        score, metrics = evaluator.evaluate(candidate)
        assert metrics["area"] > 0
        assert metrics["controller_literals"] > 0
        assert score == -metrics["area"]  # minimized

    def test_pair_level_simulates(self, dealer_graph):
        evaluator = Evaluator(graph=dealer_graph, objective="sim_power",
                              sim_vectors=16)
        from repro.opt.space import SearchSpace

        space = SearchSpace.for_graph(dealer_graph, n_steps=6)
        _, candidate = space.greedy_candidates(dealer_graph)[0]
        _, metrics = evaluator.evaluate(candidate)
        assert "sim_power" in metrics

    def test_memo_hit_on_revisit(self, gcd_graph):
        evaluator = Evaluator(graph=gcd_graph, objective="gated_weight")
        from repro.opt.space import SearchSpace

        space = SearchSpace.for_graph(gcd_graph, n_steps=7)
        _, candidate = space.greedy_candidates(gcd_graph)[0]
        evaluator.evaluate(candidate)
        evaluator.evaluate(candidate)
        assert evaluator.stats.computed == 1
        assert evaluator.stats.memo_hits == 1


class TestExploreSearchMode:
    def test_one_optimized_point_per_circuit(self):
        result = explore(["dealer", "gcd"], budgets=[6, 7],
                         search=SearchSpec(driver="beam", beam_width=2))
        assert len(result.points) == 2
        assert [p.circuit for p in result.points] == ["dealer", "gcd"]
        assert all(p.config_label == "beam[gated_weight]"
                   for p in result.points)
        assert all(p.n_steps in (6, 7) for p in result.points)

    def test_search_at_least_matches_grid_best(self):
        grid = explore(["gcd"], budgets=[5, 6, 7])
        searched = explore(["gcd"], budgets=[5, 6, 7], search="anneal")
        # The optimizer maximizes gated weight, which weakly improves
        # managed-mux count vs every fixed-ordering grid point's best.
        assert searched.points[0].managed_muxes >= \
            max(p.managed_muxes for p in grid.points) - 1

    def test_store_and_resume_thread_through(self, tmp_path):
        journal = tmp_path / "search.jsonl"
        cold = explore(["dealer"], budgets=[6],
                       search=SearchSpec(iters=20),
                       store=tmp_path / "store", resume=journal)
        warm = explore(["dealer"], budgets=[6],
                       search=SearchSpec(iters=20),
                       store=tmp_path / "store", resume=journal)

        def shape(result):
            return [(p.circuit, p.n_steps, p.config_label,
                     p.managed_muxes, p.area, p.power_reduction_pct)
                    for p in result.points]

        assert shape(warm) == shape(cold)
        assert warm.resumed > 0
        assert warm.store_hits > 0  # stage artifacts came from disk

    def test_mapping_budgets(self):
        result = explore(["dealer", "gcd"],
                         budgets={"dealer": [5, 6], "gcd": [6, 7]},
                         search="beam")
        by_name = {p.circuit: p for p in result.points}
        assert by_name["dealer"].n_steps in (5, 6)
        assert by_name["gcd"].n_steps in (6, 7)
