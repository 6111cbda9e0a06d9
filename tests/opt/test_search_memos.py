"""Scope and reporting of the evaluator's per-search memos.

The PM decision memo and the outcome memo belong to one
:class:`~repro.opt.evaluate.Evaluator`.  Nothing a search learns is left
on the input graph, so the next search on that graph, and the synthesis
pipeline, which passes no memo, probe every MUX again.
"""

import itertools

import pytest

import repro.core.pm_pass as pm_pass
import repro.opt.evaluate as evaluate_module
from repro.circuits import build
from repro.core.pm_pass import (
    MuxDecision,
    PMOptions,
    PMResult,
    apply_power_management,
)
from repro.opt.evaluate import Evaluator
from repro.opt.search import optimize
from repro.opt.space import Candidate
from repro.sched.timing import TimingFrame, critical_path_length
from repro.serve.work import run_optimize_job

CIRCUIT = "gen:branchy:19"


def _candidates(graph):
    cp = critical_path_length(graph)
    muxes = [m.nid for m in graph.muxes()]
    orders = itertools.islice(itertools.permutations(muxes), 6)
    return [Candidate(order, n_steps) for order in orders
            for n_steps in (cp, cp + 2)]


def _reachable(root):
    """Every object reachable from ``root`` through containers, instance
    dicts and slots (classes are not entered)."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, dict):
            stack.extend(obj.items())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            stack.extend(getattr(obj, slot) for slot in
                         getattr(type(obj), "__slots__", ())
                         if hasattr(obj, slot))


def _decision_state(graph):
    return [obj for obj in _reachable(graph)
            if isinstance(obj, (MuxDecision, PMResult))]


@pytest.fixture
def probes(monkeypatch):
    """MUX ids the PM pass probed (decided without a memo hit)."""
    seen = []
    decide = pm_pass._decide

    def counting(probe, mux_id, cones):
        seen.append(mux_id)
        return decide(probe, mux_id, cones)

    monkeypatch.setattr(pm_pass, "_decide", counting)
    return seen


class TestDecisionMemoScope:
    def test_a_pass_without_memo_leaves_no_decision_on_the_graph(self):
        graph = build(CIRCUIT)
        for candidate in _candidates(graph):
            apply_power_management(graph, candidate.n_steps,
                                   candidate.pm_options())
        assert _decision_state(graph) == []

    def test_a_search_leaves_no_decision_on_the_graph(self):
        graph = build(CIRCUIT)
        with Evaluator(graph, "area") as evaluator:
            for candidate in _candidates(graph):
                evaluator.evaluate(candidate)
        assert evaluator.stats.outcome_hits > 0
        assert _decision_state(graph) == []

    def test_the_graph_keeps_only_entry_frames(self):
        graph = build(CIRCUIT)
        cp = critical_path_length(graph)
        with Evaluator(graph, "gated_weight") as evaluator:
            for candidate in _candidates(graph):
                evaluator.evaluate(candidate)
        frames = [obj for obj in _reachable(graph)
                  if isinstance(obj, TimingFrame)]
        assert sorted(frame.n_steps for frame in frames) == [cp, cp + 2]

    def test_two_evaluators_on_one_graph_share_none(self, probes):
        graph = build(CIRCUIT)
        counts, stats = [], []
        for _ in range(2):
            probes.clear()
            evaluator = Evaluator(graph, "area")
            for candidate in _candidates(graph):
                evaluator.evaluate(candidate)
            counts.append(len(probes))
            stats.append(evaluator.stats)
        assert counts[0] == counts[1] > 0
        assert stats[0] == stats[1]

    def test_a_search_probes_each_state_once(self, probes):
        graph = build(CIRCUIT)
        candidates = _candidates(graph)
        for candidate in candidates:
            apply_power_management(graph, candidate.n_steps,
                                   candidate.pm_options())
        memo_free = len(probes)
        probes.clear()
        evaluator = Evaluator(graph, "gated_weight")
        for candidate in candidates:
            evaluator.evaluate(candidate)
        assert 0 < len(probes) < memo_free

    def test_the_pipeline_probes_every_run(self, probes):
        from repro.pipeline import FlowConfig, Pipeline

        graph = build(CIRCUIT)
        config = FlowConfig(n_steps=critical_path_length(graph),
                            pm=PMOptions())
        Pipeline().run(graph, config)
        first = len(probes)
        Pipeline().run(graph, config)
        assert len(probes) == 2 * first > 0


class TestDecisionMemoBound:
    def test_a_full_memo_is_dropped_and_refills(self, monkeypatch,
                                                probes):
        graph = build(CIRCUIT)
        candidates = _candidates(graph)
        unbounded = Evaluator(graph, "gated_weight")
        expected = [unbounded.evaluate(c) for c in candidates]
        probed = len(probes)
        probes.clear()
        monkeypatch.setattr(evaluate_module, "DECISION_MEMO_CELLS",
                            4 * len(graph))
        bounded = Evaluator(graph, "gated_weight")
        sizes = []
        for candidate, answer in zip(candidates, expected):
            assert bounded.evaluate(candidate) == answer
            sizes.append(len(bounded._decisions))
        assert len(probes) > probed
        assert max(sizes) <= 4 + len(graph.muxes())
        assert bounded.stats == unbounded.stats


class TestOutcomeMemo:
    def test_no_second_pm_pass_on_a_miss(self, monkeypatch):
        calls = []
        run = pm_pass.apply_power_management

        def counting(*args, **kwargs):
            calls.append(args[1])
            return run(*args, **kwargs)

        monkeypatch.setattr(evaluate_module, "apply_power_management",
                            counting)
        monkeypatch.setattr(pm_pass, "apply_power_management", counting)
        graph = build(CIRCUIT)
        evaluator = Evaluator(graph, "sim_power")
        candidates = _candidates(graph)
        for candidate in candidates:
            evaluator.evaluate(candidate)
        # One pass per fresh candidate, plus the baseline (PM disabled)
        # run per budget, which the stage cache keeps after its first run.
        assert len(calls) == evaluator.stats.computed + 2
        assert evaluator.stats.outcome_hits > 0

    def test_a_store_backed_search_keeps_pm_results_off_the_store(
            self, monkeypatch, tmp_path):
        from repro.pipeline.store import IndexedArtifactStore

        stages = []
        for name in ("lookup", "store"):
            method = getattr(IndexedArtifactStore, name)

            def recording(self, key, *args, _method=method):
                stages.append(key[0])
                return _method(self, key, *args)

            monkeypatch.setattr(IndexedArtifactStore, name, recording)
        graph = build(CIRCUIT)
        candidates = _candidates(graph)
        with Evaluator(graph, "area", store=tmp_path / "store") as stored:
            metrics = [stored.evaluate(c) for c in candidates]
        assert metrics == [Evaluator(graph, "area").evaluate(c)
                           for c in candidates]
        assert "schedule" in stages
        assert "power_manage" not in stages

    def test_hits_return_copies(self):
        graph = build(CIRCUIT)
        evaluator = Evaluator(graph, "area")
        metrics = [evaluator.evaluate(c)[1]
                   for c in _candidates(graph)[0:6:2]]
        assert evaluator.stats.outcome_hits == 2
        assert metrics[0] == metrics[1] == metrics[2]
        assert len({id(m) for m in metrics}) == 3

    def test_schedulers_do_not_share_an_outcome(self):
        graph = build(CIRCUIT)
        evaluator = Evaluator(graph, "area")
        order = _candidates(graph)[0].order
        n_steps = critical_path_length(graph)
        for scheduler in ("list", "force_directed"):
            candidate = Candidate(order, n_steps, scheduler)
            assert evaluator.evaluate(candidate) == \
                Evaluator(graph, "area").evaluate(candidate)
        assert evaluator.stats.outcome_hits == 0


class TestOutcomeReporting:
    @pytest.fixture(scope="class")
    def result(self):
        return optimize(build("gcd"), "random", objective="area",
                        n_steps=7, iters=12, seed=3)

    def test_result_carries_outcome_hits(self, result):
        assert 0 < result.outcome_hits <= result.evaluations
        assert "PM outcomes reused" in result.table()

    def test_outcome_leaves_outcome_hits_out(self, result):
        assert "outcome_hits" not in result.outcome()

    def test_serve_result_reports_outcome_hits(self):
        summary = run_optimize_job({
            "circuit": "gcd",
            "search": {"driver": "random", "objective": "area",
                       "iters": 12, "seed": 3},
            "budgets": [7],
        })
        assert 0 < summary["outcome_hits"] <= summary["evaluations"]

    def test_portfolio_sums_island_outcome_hits(self):
        result = optimize(build("gcd"), "portfolio", objective="area",
                          n_steps=7, iters=24, seed=3, workers=1,
                          islands=2)
        assert 0 < result.outcome_hits <= result.evaluations
