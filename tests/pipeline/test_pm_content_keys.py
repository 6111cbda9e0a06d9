"""Stages after the PM pass are keyed on the PM result, not on its options.

MUX orderings that commit the same control edges, gating and decisions
produce one PM result, so schedule/allocate/elaborate run once for all
of them, and every run still returns exactly what a cacheless run does.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import build
from repro.core.ordering import order_muxes
from repro.core.pm_pass import PMOptions, PMResult, pm_digest
from repro.pipeline import ArtifactCache, FlowConfig, Pipeline
from repro.sched.timing import critical_path_length
from repro.sim.engine import design_fingerprint

POST_PM = ["schedule", "allocate", "elaborate"]


def _config(ordering):
    return FlowConfig(n_steps=7, pm=PMOptions(ordering=ordering))


def _decisions(pm):
    return [(d.mux, d.selected, d.reason, d.added_edges, d.gated)
            for d in pm.decisions]


def assert_matches_cacheless(ctx, graph, config):
    """``ctx`` (a cached run) returns what a cacheless run of ``config``
    returns: the same design, the same PM result in its own decision
    order, the same pipelined-gating accounting."""
    fresh = Pipeline().run(graph, config)
    result = ctx.result
    assert design_fingerprint(result.design) == \
        design_fingerprint(fresh.design)
    assert result.schedule.start == fresh.schedule.start
    assert _decisions(result.pm) == _decisions(fresh.pm)
    assert list(result.pm.gating.items()) == list(fresh.pm.gating.items())
    if fresh.pipelined_gating is None:
        assert result.pipelined_gating is None
    else:
        mine, theirs = result.pipelined_gating, fresh.pipelined_gating
        assert mine.fates == theirs.fates
        assert mine.broken_muxes == theirs.broken_muxes
        assert mine.pipelined_gated_weight == theirs.pipelined_gated_weight
        assert mine.guard_copies == theirs.guard_copies


class TestOptionsIdentity:
    def test_list_order_is_stored_as_a_tuple(self):
        options = PMOptions(ordering="given", given_order=[3, 1, 2])
        assert options.given_order == (3, 1, 2)

    def test_list_and_tuple_orders_are_one_config(self):
        as_list = FlowConfig(n_steps=7, pm=PMOptions(
            ordering="given", given_order=[3, 1, 2]))
        as_tuple = FlowConfig(n_steps=7, pm=PMOptions(
            ordering="given", given_order=(3, 1, 2)))
        assert hash(as_list) == hash(as_tuple)
        assert as_list == as_tuple
        stage = Pipeline().stage("power_manage")
        assert as_list.cache_key(stage.config_fields) == \
            as_tuple.cache_key(stage.config_fields)


class TestSharedPMResult:
    def test_orderings_with_one_pm_result_share_post_pm_stages(
            self, gcd_graph):
        pipeline = Pipeline(cache=ArtifactCache())
        first = pipeline.run_context(gcd_graph, _config("output_first"))
        assert first.cache_misses == ["analyze", "power_manage"] + POST_PM
        ctx = pipeline.run_context(gcd_graph, _config("savings"))
        # The order is the PM pass's input, so it reruns; nothing after.
        assert ctx.cache_misses == ["power_manage"]
        assert ctx.cache_hits == ["analyze"] + POST_PM
        assert _decisions(ctx.get("pm")) != _decisions(first.get("pm"))
        assert_matches_cacheless(ctx, gcd_graph, _config("savings"))

    def test_different_pm_results_do_not_share(self, gcd_graph):
        pipeline = Pipeline(cache=ArtifactCache())
        pipeline.run(gcd_graph, _config("output_first").baseline())
        ctx = pipeline.run_context(gcd_graph, _config("output_first"))
        assert ctx.cache_misses == ["power_manage"] + POST_PM

    def test_options_enter_only_through_the_pm_artifact(self):
        for stage in Pipeline().stages:
            if stage.name in POST_PM:
                assert "pm" not in stage.config_fields
                assert "pm" in stage.requires
        assert "pm" in Pipeline().stage("power_manage").config_fields

    @pytest.mark.parametrize("mode", ["drop", "per_sample"])
    def test_pipelined_gating_matches_a_cacheless_run(self, vender_graph,
                                                      mode):
        # vender@6 at II=2: every built-in ordering commits the same
        # edges (in different orders) and overlap breaks mux 16's guards.
        pipeline = Pipeline(cache=ArtifactCache())
        for index, ordering in enumerate(
                ("output_first", "input_first", "savings")):
            config = FlowConfig(
                n_steps=6, scheduler="pipeline", initiation_interval=2,
                pipelined_gating=mode, pm=PMOptions(ordering=ordering),
                verify=True)
            ctx = pipeline.run_context(vender_graph, config)
            if index:
                assert ctx.cache_hits == ["analyze"] + POST_PM
            report = ctx.get("pipelined_gating")
            assert report.broken_muxes == [16]
            assert ctx.get("verified") is True
            assert_matches_cacheless(ctx, vender_graph, config)

    @settings(max_examples=12, deadline=None)
    @given(orders=st.lists(st.randoms(use_true_random=False),
                           min_size=2, max_size=4),
           slack=st.integers(min_value=0, max_value=2))
    def test_random_orders_build_the_cacheless_design(self, orders, slack):
        graph = build("gen:branchy:19")
        muxes = order_muxes(graph, "output_first")
        n_steps = critical_path_length(graph) + slack
        pipeline = Pipeline(cache=ArtifactCache())
        for rng in orders:
            order = list(muxes)
            rng.shuffle(order)
            config = FlowConfig(n_steps=n_steps, pm=PMOptions(
                ordering="given", given_order=order))
            ctx = pipeline.run_context(graph, config)
            assert_matches_cacheless(ctx, graph, config)


def _pm(reverse=False, n_steps=7):
    """A real PM result (gcd@7) rebuilt around a fresh graph copy, with
    its decisions and gating map optionally in reverse order."""
    pm = Pipeline().run_context(build("gcd"), FlowConfig(n_steps=7)) \
        .get("pm")
    decisions = list(pm.decisions)
    gating = list(pm.gating.items())
    if reverse:
        decisions.reverse()
        gating.reverse()
    return PMResult(graph=pm.graph.copy(), n_steps=n_steps,
                    decisions=decisions, gating=dict(gating))


class TestDigest:
    FP = "f" * 64

    def test_ignores_decision_and_gating_order(self):
        assert pm_digest(_pm(), self.FP) == \
            pm_digest(_pm(reverse=True), self.FP)

    def test_covers_the_input_graph(self):
        assert pm_digest(_pm(), self.FP) != pm_digest(_pm(), "0" * 64)

    def test_covers_n_steps(self):
        assert pm_digest(_pm(), self.FP) != pm_digest(_pm(n_steps=8),
                                                      self.FP)

    def test_covers_gating(self):
        pm = _pm()
        nid = next(iter(pm.gating))
        changed = _pm()
        changed.gating[nid] = changed.gating[nid][:-1]
        assert pm_digest(pm, self.FP) != pm_digest(changed, self.FP)

    def test_covers_a_control_edge(self):
        pm = _pm()
        changed = _pm()
        src, dst = changed.graph.control_edges()[0]
        changed.graph.remove_control_edge(src, dst)
        assert pm_digest(pm, self.FP) != pm_digest(changed, self.FP)

    def test_covers_a_decisions_gated_set(self):
        pm = _pm()
        changed = _pm()
        index = next(i for i, d in enumerate(changed.decisions) if d.gated)
        decision = changed.decisions[index]
        changed.decisions[index] = replace(
            decision, gated=frozenset(sorted(decision.gated)[1:]))
        assert pm_digest(pm, self.FP) != pm_digest(changed, self.FP)

    def test_memoized_per_input_fingerprint(self):
        pm = _pm()
        digest = pm_digest(pm, self.FP)
        assert pm.__dict__["_digest"] == (self.FP, digest)
        # Another input fingerprint recomputes instead of reusing.
        assert pm_digest(pm, "0" * 64) != digest
