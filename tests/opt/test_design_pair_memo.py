"""The evaluator simulates each distinct (baseline, managed) design pair
once: a candidate whose designs were already simulated reuses that
``sim_power`` exactly, and says so in ``design_hits``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import build
from repro.core.ordering import order_muxes
from repro.core.pm_pass import apply_power_management, pm_digest
from repro.opt.evaluate import Evaluator
from repro.opt.search import optimize
from repro.opt.space import Candidate
from repro.sched.timing import critical_path_length
from repro.serve.work import run_optimize_job


def _orders(graph, strategies=("output_first", "input_first", "savings")):
    return [tuple(order_muxes(graph, s)) for s in strategies]


class TestPairMemo:
    def test_orderings_with_one_design_simulate_once(self, gcd_graph):
        # gcd@7: all three built-in orderings commit the same edge.
        orders = _orders(gcd_graph)
        assert len(set(orders)) == 3
        evaluator = Evaluator(gcd_graph, "sim_power")
        metrics = [evaluator.evaluate(Candidate(order, 7))[1]
                   for order in orders]
        assert evaluator.stats.computed == 3
        assert evaluator.stats.design_hits == 2
        assert metrics[0] == metrics[1] == metrics[2]

    def test_memo_hits_are_not_design_hits(self, gcd_graph):
        evaluator = Evaluator(gcd_graph, "sim_power")
        candidate = Candidate(_orders(gcd_graph)[0], 7)
        evaluator.evaluate(candidate)
        evaluator.evaluate(candidate)
        assert evaluator.stats.memo_hits == 1
        assert evaluator.stats.design_hits == 0

    def test_objectives_without_simulation_never_hit(self, gcd_graph):
        evaluator = Evaluator(gcd_graph, "area")
        for order in _orders(gcd_graph):
            evaluator.evaluate(Candidate(order, 7))
        assert evaluator.stats.design_hits == 0

    @pytest.mark.parametrize("objective",
                             ["gated_weight", "area", "sim_power"])
    @settings(max_examples=10, deadline=None)
    @given(orders=st.lists(st.randoms(use_true_random=False),
                           min_size=2, max_size=4))
    def test_memoized_metrics_equal_a_fresh_evaluator(self, objective,
                                                      orders):
        graph = build("gen:branchy:19")
        cp = critical_path_length(graph)
        muxes = order_muxes(graph, "output_first")
        shuffled = []
        for rng in orders:
            order = list(muxes)
            rng.shuffle(order)
            shuffled.append(tuple(order))
        shared = Evaluator(graph, objective)
        fresh_evals = 0
        candidates, outcomes = set(), set()
        outcome_repeats = 0
        for n_steps in (cp, cp + 2):
            for order in shuffled + shuffled[:1]:
                candidate = Candidate(order, n_steps)
                computed = shared.stats.computed
                _, memoized = shared.evaluate(candidate)
                fresh_evals += shared.stats.computed > computed
                _, fresh = Evaluator(graph, objective).evaluate(candidate)
                assert memoized == fresh
                if candidate in candidates:
                    continue
                candidates.add(candidate)
                pm = apply_power_management(
                    graph, n_steps, candidate.pm_options())
                outcome = pm_digest(pm, graph.fingerprint())
                outcome_repeats += outcome in outcomes
                outcomes.add(outcome)
        stats = shared.stats
        assert stats.computed == fresh_evals == len(candidates)
        assert stats.memo_hits == 2 * (len(shuffled) + 1) - len(candidates)
        assert stats.outcome_hits == (
            0 if objective == "gated_weight" else outcome_repeats)


class TestReporting:
    @pytest.fixture(scope="class")
    def result(self):
        return optimize(build("gcd"), "random", objective="sim_power",
                        n_steps=7, iters=12, seed=3)

    def test_result_carries_design_hits(self, result):
        assert 0 < result.design_hits <= result.evaluations
        assert "design-pair simulations reused" in result.table()

    def test_outcome_leaves_design_hits_out(self, result):
        assert "design_hits" not in result.outcome()

    def test_serve_result_reports_design_hits(self):
        summary = run_optimize_job({
            "circuit": "gcd",
            "search": {"driver": "random", "objective": "sim_power",
                       "iters": 12, "seed": 3},
            "budgets": [7],
        })
        assert summary["design_hits"] > 0
        assert summary["design_hits"] <= summary["evaluations"]

    def test_portfolio_sums_island_design_hits(self):
        result = optimize(build("gcd"), "portfolio", objective="sim_power",
                          n_steps=7, iters=24, seed=3, workers=1,
                          islands=2)
        assert 0 < result.design_hits <= result.evaluations
