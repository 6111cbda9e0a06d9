"""Multiplexor processing order strategies (paper §III / §IV-A)."""

import pytest

from repro.core.ordering import (
    STRATEGIES,
    estimated_savings_weight,
    exhaustive_orderings,
    order_muxes,
)
from repro.core.pm_pass import PMOptions, apply_power_management
from repro.opt.objective import gated_weight


class TestOutputFirst:
    def test_output_first_orders_by_distance(self, gcd_graph):
        g = gcd_graph
        order = order_muxes(g, "output_first")
        dist = g.longest_path_to_output()
        distances = [dist[m] for m in order]
        assert distances == sorted(distances)

    def test_input_first_is_reverse_metric(self, gcd_graph):
        g = gcd_graph
        dist = g.longest_path_to_output()
        order = order_muxes(g, "input_first")
        distances = [dist[m] for m in order]
        assert distances == sorted(distances, reverse=True)


class TestSavings:
    def test_savings_orders_by_gated_weight(self, vender_graph):
        g = vender_graph
        order = order_muxes(g, "savings")
        weights = [estimated_savings_weight(g, m) for m in order]
        assert weights == sorted(weights, reverse=True)

    def test_cost_mux_ranks_first_in_vender(self, vender_graph):
        """The mux gating the two multipliers has the largest potential."""
        g = vender_graph
        first = order_muxes(g, "savings")[0]
        assert g.node(first).name == "cost"

    def test_estimated_savings_on_abs_diff(self, abs_diff_graph):
        mux = abs_diff_graph.muxes()[0]
        # Two subtractors (weight 3) each skipped with probability 1/2.
        assert estimated_savings_weight(abs_diff_graph, mux.nid) == \
            pytest.approx(3.0)


class TestGivenAndErrors:
    def test_given_order_respected(self, gcd_graph):
        mux_ids = [m.nid for m in gcd_graph.muxes()]
        explicit = list(reversed(mux_ids))
        assert order_muxes(gcd_graph, "given", explicit) == explicit

    def test_given_requires_order(self, gcd_graph):
        with pytest.raises(ValueError, match="requires an explicit order"):
            order_muxes(gcd_graph, "given")

    def test_given_must_cover_all_muxes(self, gcd_graph):
        with pytest.raises(ValueError, match="misses"):
            order_muxes(gcd_graph, "given", [gcd_graph.muxes()[0].nid])

    def test_given_rejects_a_repeated_mux(self, gcd_graph):
        """A repeat used to run the MUX twice and double its guards:
        gcd@7 in order (7, 7, 4, 5, 8, 9, 12) gated node 6 under
        ((7, 1), (7, 1), (9, 1)) and counted 3 managed MUXes, not 2."""
        mux_ids = [m.nid for m in gcd_graph.muxes()]
        with pytest.raises(ValueError, match=r"repeats muxes \[7\]"):
            order_muxes(gcd_graph, "given", [7, *mux_ids])
        with pytest.raises(ValueError, match="repeats"):
            apply_power_management(gcd_graph, 7, PMOptions(
                ordering="given", given_order=(7, 7, 4, 5, 8, 9, 12)))

    @pytest.mark.parametrize("stray", [9999, -1, "input"])
    def test_given_rejects_ids_that_are_not_muxes(self, gcd_graph, stray):
        if stray == "input":
            stray = gcd_graph.inputs()[0].nid
        mux_ids = [m.nid for m in gcd_graph.muxes()]
        with pytest.raises(ValueError, match=rf"non-mux ids \[{stray}\]"):
            order_muxes(gcd_graph, "given", [*mux_ids, stray])

    def test_given_order_drives_the_pm_pass(self, gcd_graph):
        mux_ids = [m.nid for m in gcd_graph.muxes()]
        order = (7, *[m for m in mux_ids if m != 7])
        pm = apply_power_management(gcd_graph, 7, PMOptions(
            ordering="given", given_order=order))
        assert [d.mux for d in pm.decisions] == list(order)
        assert pm.gating[6] == ((7, 1), (9, 1))
        assert pm.managed_count == 2
        assert gated_weight(pm) == 2.75

    def test_unknown_strategy(self, gcd_graph):
        with pytest.raises(ValueError, match="unknown ordering strategy"):
            order_muxes(gcd_graph, "bogus")

    def test_strategies_constant_is_complete(self, gcd_graph):
        for strategy in STRATEGIES:
            if strategy == "given":
                continue
            result = order_muxes(gcd_graph, strategy)
            assert sorted(result) == sorted(m.nid for m in gcd_graph.muxes())


class TestExhaustive:
    def test_counts_all_permutations(self, abs_diff_graph):
        perms = list(exhaustive_orderings(abs_diff_graph))
        assert len(perms) == 1  # one mux

    def test_limit_guard(self, cordic_graph):
        with pytest.raises(ValueError, match="exceed"):
            list(exhaustive_orderings(cordic_graph, limit=8))

    def test_six_muxes_factorial(self, gcd_graph):
        perms = list(exhaustive_orderings(gcd_graph, limit=6))
        assert len(perms) == 720
