"""Execution-unit binding."""

import pytest

from repro.alloc.fu_binding import FUInstance, bind_operations
from repro.ir.ops import ResourceClass
from repro.sched.list_scheduler import list_schedule
from repro.sched.minimize import minimize_resources
from repro.sched.resources import unbounded_allocation
from repro.sched.timing import critical_path_length


class TestBinding:
    def test_every_op_bound_to_matching_class(self, small_circuit):
        cp = critical_path_length(small_circuit)
        schedule = minimize_resources(small_circuit, cp).schedule
        binding = bind_operations(schedule)
        for node in small_circuit.operations():
            assert binding.unit_of(node.nid).resource == node.resource

    def test_unit_count_equals_peak_usage(self, small_circuit):
        cp = critical_path_length(small_circuit)
        schedule = minimize_resources(small_circuit, cp + 1).schedule
        binding = bind_operations(schedule)
        usage = schedule.resource_usage()
        by_class = {}
        for unit in binding.units:
            by_class[unit.resource] = by_class.get(unit.resource, 0) + 1
        assert by_class == {c: n for c, n in usage.counts.items() if n}

    def test_no_two_ops_share_unit_and_step(self, vender_graph):
        schedule = minimize_resources(vender_graph, 6).schedule
        binding = bind_operations(schedule)
        seen = {}
        for node in vender_graph.operations():
            key = (binding.unit_of(node.nid), schedule.step_of(node.nid))
            assert key not in seen
            seen[key] = node.nid

    def test_ops_on_sorted_by_step(self, dealer_graph):
        schedule = minimize_resources(dealer_graph, 6).schedule
        binding = bind_operations(schedule)
        for unit in binding.units:
            steps = [schedule.step_of(n) for n in binding.ops_on(unit)]
            assert steps == sorted(steps)

    def test_unbound_lookup_raises(self, dealer_graph):
        schedule = minimize_resources(dealer_graph, 4).schedule
        binding = bind_operations(schedule)
        with pytest.raises(KeyError, match="not bound"):
            binding.unit_of(12345)


class TestMutexSharing:
    def test_mutually_exclusive_ops_can_share(self, abs_diff_graph):
        """The §II-C classical optimization: the two subs may share one
        unit in the same step because only one result is ever used."""
        g = abs_diff_graph
        schedule = list_schedule(g, 2, unbounded_allocation(g))
        plain = bind_operations(schedule, mutex_sharing=False)
        shared = bind_operations(schedule, mutex_sharing=True)
        subs_plain = {plain.unit_of(n.nid) for n in g.operations()
                      if n.resource is ResourceClass.SUB}
        subs_shared = {shared.unit_of(n.nid) for n in g.operations()
                       if n.resource is ResourceClass.SUB}
        assert len(subs_plain) == 2
        assert len(subs_shared) == 1

    def test_verify_rejects_illegal_share(self, abs_diff_graph):
        g = abs_diff_graph
        schedule = list_schedule(g, 2, unbounded_allocation(g))
        binding = bind_operations(schedule)
        subs = [n.nid for n in g.operations()
                if n.resource is ResourceClass.SUB]
        binding.assignment[subs[0]] = binding.assignment[subs[1]]
        with pytest.raises(ValueError, match="double-booked"):
            binding.verify(mutex_sharing=False)
        binding.verify(mutex_sharing=True)  # exclusive ops: legal

    def test_shared_slot_ops_are_pairwise_exclusive(self):
        """A third op joins a shared unit-step only when it is exclusive
        with *every* op already there, not just the first (this graph
        used to bind into a double-booking its own verify rejected)."""
        from repro.analysis.mutex import are_mutually_exclusive
        from repro.circuits import build

        g = build("gen:branchy:4")
        schedule = list_schedule(g, 6, unbounded_allocation(g))
        binding = bind_operations(schedule, mutex_sharing=True)
        by_slot = {}
        for nid, unit in binding.assignment.items():
            by_slot.setdefault((unit, schedule.step_of(nid)), []).append(nid)
        shared = [ops for ops in by_slot.values() if len(ops) > 1]
        assert any(len(ops) > 2 for ops in shared)
        for ops in shared:
            for k, a in enumerate(ops):
                for b in ops[k + 1:]:
                    assert are_mutually_exclusive(g, a, b)

    def test_wrong_class_detected(self, abs_diff_graph):
        g = abs_diff_graph
        schedule = list_schedule(g, 3, unbounded_allocation(g))
        binding = bind_operations(schedule)
        comp = next(n for n in g if n.name == "c")
        binding.assignment[comp.nid] = FUInstance(ResourceClass.ADD, 0)
        with pytest.raises(ValueError, match="wrong class"):
            binding.verify()


class TestPipelinedBinding:
    def test_modulo_conflicts_respected(self, dealer_graph):
        result = minimize_resources(dealer_graph, 6, initiation_interval=3)
        binding = bind_operations(result.schedule)
        ii = 3
        seen = {}
        for node in dealer_graph.operations():
            slot = result.schedule.step_of(node.nid) % ii
            key = (binding.unit_of(node.nid), slot)
            assert key not in seen, "modulo-II double booking"
            seen[key] = node.nid
