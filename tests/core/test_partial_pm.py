"""Resource-aware and partial power management (paper §II-B fallback).

The paper: "If that is not the case [two subtractors available], we need
to assign one subtract to the first control step and another to the
second; the operation in the first control step will always be computed,
but we can still disable the one in the second control step when it is
not needed."
"""

import pytest

from repro.circuits import abs_diff, vender
from repro.core.pm_pass import (
    PMOptions,
    REASON_PARTIAL,
    REASON_SELECTED,
    apply_power_management,
)
from repro.ir.ops import ResourceClass
from repro.pipeline import FlowConfig, Pipeline
from repro.power.static import static_power
from repro.sched.list_scheduler import list_schedule
from repro.sched.resources import Allocation
from repro.sim.reference import evaluate
from repro.sim.simulator import RTLSimulator
from repro.sim.vectors import random_vectors

ONE_SUB = Allocation({ResourceClass.SUB: 1, ResourceClass.COMP: 1,
                      ResourceClass.MUX: 1})


class TestResourceAwareFeasibility:
    def test_full_pm_rejected_with_one_subtractor(self):
        """Both subs after the comparison need two subtractors in 3 steps;
        a resource-aware pass must reject the whole-cone selection."""
        result = apply_power_management(
            abs_diff(), 3, PMOptions(allocation=ONE_SUB))
        assert result.managed_count == 0

    def test_full_pm_accepted_with_two_subtractors(self):
        two_subs = Allocation({ResourceClass.SUB: 2, ResourceClass.COMP: 1,
                               ResourceClass.MUX: 1})
        result = apply_power_management(
            abs_diff(), 3, PMOptions(allocation=two_subs))
        assert result.managed_count == 1
        assert result.decisions[0].reason == REASON_SELECTED

    def test_slack_only_pass_unchanged_by_default(self):
        result = apply_power_management(abs_diff(), 3)
        assert result.managed_count == 1


class TestPartialSelection:
    def test_paper_one_subtractor_scenario(self):
        """Exactly one subtraction gated; the other runs in step 1."""
        result = apply_power_management(
            abs_diff(), 3, PMOptions(allocation=ONE_SUB, partial=True))
        assert result.managed_count == 1
        decision = result.decisions[0]
        assert decision.reason == REASON_PARTIAL
        assert len(decision.gated) == 1
        # The schedule really fits one subtractor.
        schedule = list_schedule(result.graph, 3, ONE_SUB)
        g = result.graph
        gated = next(iter(decision.gated))
        comp = next(n for n in g if n.name == "c")
        assert schedule.step_of(gated) >= schedule.finish_of(comp.nid)

    def test_partial_power_reduction(self):
        """One sub gated at 1/2: saves 1.5 of 11 weighted units."""
        result = apply_power_management(
            abs_diff(), 3, PMOptions(allocation=ONE_SUB, partial=True))
        assert static_power(result).reduction_pct == \
            pytest.approx(100 * 1.5 / 11)

    def test_partial_gates_subset_of_cone(self):
        result = apply_power_management(
            abs_diff(), 3, PMOptions(allocation=ONE_SUB, partial=True))
        decision = result.decisions[0]
        full_cone = decision.cones.all_shutdown_ops(result.graph)
        assert decision.gated < full_cone

    def test_partial_prefers_expensive_units(self):
        """Under a tight budget the multiplier is gated before adders."""
        graph = vender()
        tight = Allocation({ResourceClass.MUL: 1, ResourceClass.SUB: 1,
                            ResourceClass.ADD: 1, ResourceClass.COMP: 1,
                            ResourceClass.MUX: 2})
        result = apply_power_management(
            graph, 6, PMOptions(allocation=tight, partial=True))
        gated_classes = {result.graph.node(n).resource
                         for n in result.gated_ops()}
        if result.gated_ops():
            # whatever fits, a multiplier must be among the gated ops if
            # any mul was gatable at all
            cost_mux = next(n for n in result.graph.muxes()
                            if n.name == "cost")
            decision = result.decision_for(cost_mux.nid)
            if decision.selected:
                assert ResourceClass.MUL in gated_classes

    def test_partial_noop_when_full_selection_fits(self):
        a = apply_power_management(abs_diff(), 3)
        b = apply_power_management(abs_diff(), 3, PMOptions(partial=True))
        assert a.gating == b.gating

    def test_no_gating_at_two_steps_even_partial(self):
        result = apply_power_management(
            abs_diff(), 2, PMOptions(partial=True))
        assert result.managed_count == 0

    def test_fully_and_partially_selected_accessors(self):
        result = apply_power_management(
            abs_diff(), 3, PMOptions(allocation=ONE_SUB, partial=True))
        assert result.partially_selected_muxes
        assert not result.fully_selected_muxes


class TestPartialEquivalence:
    """Partial gating must not change behaviour either."""

    def test_simulated_equivalence_one_subtractor(self):
        graph = abs_diff()
        result = Pipeline().run(graph, FlowConfig(
            n_steps=3, pm=PMOptions(allocation=ONE_SUB, partial=True)))
        # The min-resource search should settle on a single subtractor.
        assert result.allocation.get(ResourceClass.SUB) == 1
        vectors = random_vectors(graph, 80, seed=13)
        sim = RTLSimulator(result.design, power_management=True)
        outputs, activity = sim.run_many(vectors)
        assert outputs == [evaluate(graph, v) for v in vectors]
        # The gated sub idles about half the time under uniform inputs.
        assert 15 <= activity.total_idles() <= 65

    @pytest.mark.parametrize("name,steps", [("dealer", 4), ("vender", 5)])
    def test_partial_on_benchmarks_equivalent(self, name, steps):
        from repro.circuits import build
        graph = build(name)
        result = Pipeline().run(graph, FlowConfig(
            n_steps=steps, pm=PMOptions(partial=True)))
        vectors = random_vectors(graph, 40, seed=steps)
        sim = RTLSimulator(result.design, power_management=True)
        outputs, _ = sim.run_many(vectors)
        assert outputs == [evaluate(graph, v) for v in vectors]

    def test_partial_never_saves_less_than_full(self, vender_graph):
        for steps in (5, 6):
            full = static_power(
                apply_power_management(vender_graph, steps)).reduction_pct
            part = static_power(apply_power_management(
                vender_graph, steps, PMOptions(partial=True))).reduction_pct
            assert part >= full - 1e-9
