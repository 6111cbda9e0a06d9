"""Iterative modulo scheduling: MII bounds, the reservation table,
II minimization, and the pipelined-schedule properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.builder import GraphBuilder
from repro.ir.ops import Op, ResourceClass
from repro.sched.modulo import (
    ModuloSchedulingError,
    minimize_initiation_interval,
    modulo_schedule,
    recurrence_mii,
    resource_mii,
)
from repro.sched.resources import Allocation, unbounded_allocation
from repro.sched.schedule import Schedule
from repro.sched.timing import critical_path_length
from tests.strategies import generated_circuits


def two_muls_graph():
    """Two independent multiplies joined by an add."""
    b = GraphBuilder("two_muls")
    a = b.input("a")
    c = b.input("c")
    p = b.mul(a, c, name="p")
    q = b.mul(a, a, name="q")
    b.output(b.add(p, q, name="s"), "out")
    return b.build()


class TestResourceMII:
    def test_ceiling_of_busy_cycles_over_units(self, vender_graph):
        one_each = unbounded_allocation(vender_graph)
        assert resource_mii(vender_graph, one_each) == 1
        muls = sum(1 for n in vender_graph.operations() if n.op is Op.MUL)
        assert muls == 2
        squeezed = Allocation({cls: 1 for cls in ResourceClass})
        assert resource_mii(vender_graph, squeezed) >= muls

    def test_multicycle_ops_count_every_busy_cycle(self):
        graph = two_muls_graph()
        for node in graph.operations():
            if node.op is Op.MUL:
                graph.set_latency(node.nid, 2)
        # 2 muls x 2 cycles on one unit: II >= 4.
        assert resource_mii(graph, Allocation(
            {ResourceClass.MUL: 1, ResourceClass.ADD: 1})) == 4

    def test_missing_class_rejected(self, dealer_graph):
        with pytest.raises(ValueError, match="no .* unit"):
            resource_mii(dealer_graph, Allocation({ResourceClass.MUL: 4}))


class TestRecurrenceMII:
    def test_acyclic_graph_is_one(self, small_circuit):
        assert recurrence_mii(small_circuit) == 1

    def test_explicit_recurrence_bounds_ii(self, chain_graph):
        # chain: a,c -> add(s) -> sub(d) -> out.  A distance-1 feedback
        # from d to s closes a cycle of total latency 2, forcing II >= 2.
        ids = {n.name: n.nid for n in chain_graph.operations()}
        assert recurrence_mii(
            chain_graph, [(ids["d"], ids["s"], 1)]) == 2

    def test_longer_distance_relaxes_the_bound(self, chain_graph):
        ids = {n.name: n.nid for n in chain_graph.operations()}
        assert recurrence_mii(
            chain_graph, [(ids["d"], ids["s"], 2)]) == 1

    def test_nonpositive_distance_rejected(self, chain_graph):
        ids = {n.name: n.nid for n in chain_graph.operations()}
        with pytest.raises(ValueError, match="distance"):
            recurrence_mii(chain_graph, [(ids["d"], ids["s"], 0)])


class TestModuloReservationTable:
    def test_schedule_verifies_against_allocation(self, dealer_graph):
        allocation = unbounded_allocation(dealer_graph)
        schedule = modulo_schedule(dealer_graph, 6, allocation, 2)
        schedule.verify(allocation)
        assert schedule.initiation_interval == 2

    def test_multicycle_op_spans_wrapped_slots(self):
        """A 2-cycle multiply at II=2 owns BOTH modulo slots, so two of
        them need two units no matter how they are offset."""
        graph = two_muls_graph()
        for node in graph.operations():
            if node.op is Op.MUL:
                graph.set_latency(node.nid, 2)
        tight = Allocation({ResourceClass.MUL: 1, ResourceClass.ADD: 1})
        with pytest.raises(ModuloSchedulingError) as err:
            modulo_schedule(graph, 8, tight, 2)
        assert err.value.bottleneck is ResourceClass.MUL
        roomy = tight.with_extra(ResourceClass.MUL)
        schedule = modulo_schedule(graph, 8, roomy, 2)
        schedule.verify(roomy)

    def test_self_overlap_names_the_bottleneck(self):
        """latency > II x units is impossible for a single op alone."""
        graph = two_muls_graph()
        for node in graph.operations():
            if node.op is Op.MUL:
                graph.set_latency(node.nid, 3)
        with pytest.raises(ModuloSchedulingError) as err:
            modulo_schedule(graph, 9, Allocation(
                {ResourceClass.MUL: 1, ResourceClass.ADD: 1}), 2)
        assert err.value.bottleneck is ResourceClass.MUL
        assert "slot" in str(err.value)

    def test_bad_ii_rejected(self, dealer_graph):
        with pytest.raises(ValueError, match="initiation interval"):
            modulo_schedule(dealer_graph, 6,
                            unbounded_allocation(dealer_graph), 0)


class TestResourceUsageModuloWrap:
    """Regression pin for ``Schedule.resource_usage`` under pipelining.

    Issue 10 feared the wrap was missing; it has been correct since the
    seed (``slot = step % ii``).  These tests pin the behaviour so a
    refactor cannot silently lose it: a 2-cycle multiplier at II=2 wraps
    its second busy cycle into slot 0, and two staggered copies collide
    in *both* slots even though their flat step ranges are disjoint.
    """

    def _schedule(self, starts, ii):
        graph = two_muls_graph()
        by_name = {n.name: n.nid for n in graph.operations()}
        for node in graph.operations():
            if node.op is Op.MUL:
                graph.set_latency(node.nid, 2)
        start = {by_name["p"]: starts[0], by_name["q"]: starts[1],
                 by_name["s"]: 4}
        for node in graph:
            if node.nid not in start:
                start[node.nid] = 0 if not graph.preds(node.nid) else 5
        return Schedule(graph=graph, n_steps=6, start=start,
                        initiation_interval=ii)

    def test_disjoint_steps_still_collide_modulo_ii(self):
        # p busy in steps {0,1}, q in {2,3}: disjoint flat, but both
        # cover slots {0,1} at II=2 -> two units required.
        schedule = self._schedule((0, 2), ii=2)
        assert schedule.resource_usage().get(ResourceClass.MUL) == 2

    def test_unpipelined_usage_stays_flat(self):
        schedule = self._schedule((0, 2), ii=None)
        assert schedule.resource_usage().get(ResourceClass.MUL) == 1

    def test_wrapped_second_cycle_lands_in_slot_zero(self):
        # p at step 1 with latency 2 occupies slots 1 and 0 at II=2; a
        # q at step 2 (slots 0,1) overlaps it in both -> two units.
        schedule = self._schedule((1, 2), ii=2)
        assert schedule.resource_usage().get(ResourceClass.MUL) == 2


class TestMinimizeInitiationInterval:
    def test_beats_ceil_division_on_dealer(self, dealer_graph):
        cap = -(-critical_path_length(dealer_graph) // 1)  # flat II cap
        found = minimize_initiation_interval(dealer_graph, 6, max_ii=cap)
        assert found.method == "modulo"
        assert found.initiation_interval < cap
        assert found.initiation_interval >= found.mii
        found.schedule.verify(found.allocation)
        assert found.schedule.initiation_interval == \
            found.initiation_interval

    def test_never_worse_than_the_cap(self, small_circuit):
        cp = critical_path_length(small_circuit)
        for n_stages in (1, 2):
            cap = -(-cp // n_stages)
            found = minimize_initiation_interval(small_circuit, cp,
                                                 max_ii=cap)
            assert found.initiation_interval <= cap
            found.schedule.verify(found.allocation)

    def test_list_fallback_when_cap_is_mii(self, chain_graph):
        # chain's MII is 1 (one op per class); cap 1 leaves nothing to
        # search, so the ceil-division incumbent is returned as-is.
        found = minimize_initiation_interval(chain_graph, 2, max_ii=1)
        assert found.method == "list"
        assert found.initiation_interval == 1
        assert found.attempts == 0
        found.schedule.verify(found.allocation)

    def test_mii_recorded_with_both_components(self, vender_graph):
        found = minimize_initiation_interval(vender_graph, 6)
        assert found.mii == max(found.res_mii, found.rec_mii)
        assert found.rec_mii == 1

    def test_explicit_allocation_may_fail(self):
        # Two 1-cycle muls on one unit need II >= 2; capping at 1 with a
        # fixed allocation leaves no feasible II and no incumbent.
        graph = two_muls_graph()
        with pytest.raises(ModuloSchedulingError):
            minimize_initiation_interval(
                graph, 3, max_ii=1,
                allocation=Allocation({ResourceClass.MUL: 1,
                                       ResourceClass.ADD: 1}))

    def test_bad_cap_rejected(self, dealer_graph):
        with pytest.raises(ValueError, match="cap"):
            minimize_initiation_interval(dealer_graph, 6, max_ii=0)


class TestModuloProperties:
    """Issue 10 satellite: every modulo schedule respects dependences,
    the modulo reservation table, and II >= MII."""

    @given(generated_circuits(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_found_schedule_is_sound(self, graph, slack):
        n_steps = critical_path_length(graph) + slack
        found = minimize_initiation_interval(graph, n_steps)
        ii = found.initiation_interval
        assert found.mii <= ii <= n_steps
        assert found.mii == max(found.res_mii, found.rec_mii)
        schedule = found.schedule
        assert schedule.initiation_interval == ii

        # Dependences: every consumer starts at or after each producer's
        # finish (data and control edges alike).
        for node in graph:
            for succ in graph.succs(node.nid):
                assert schedule.step_of(succ) >= \
                    schedule.step_of(node.nid) + node.latency, \
                    f"{graph.name}: {node.nid}->{succ}"

        # Modulo reservation table: busy cycles counted mod II never
        # exceed the returned allocation in any slot.
        table = {}
        for node in graph.operations():
            s = schedule.step_of(node.nid)
            for k in range(node.latency):
                key = ((s + k) % ii, node.resource)
                table[key] = table.get(key, 0) + 1
        for (slot, cls), n in table.items():
            assert n <= found.allocation.get(cls), \
                f"{graph.name}: slot {slot} {cls.value} over-subscribed"

        schedule.verify(found.allocation)

    @given(generated_circuits(presets=("tiny", "small"), max_seed=999))
    @settings(max_examples=25, deadline=None)
    def test_modulo_never_beats_mii(self, graph):
        """No run may report an II below its own lower bound."""
        n_steps = critical_path_length(graph) + 2
        found = minimize_initiation_interval(graph, n_steps)
        assert found.initiation_interval >= \
            resource_mii(graph, found.allocation) >= 1
