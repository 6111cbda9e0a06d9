"""Value lifetimes and wiring resolution."""

import pickle

import pytest

from repro.alloc.lifetimes import SourceRef, resolve_source, value_lifetimes
from repro.ir.builder import GraphBuilder
from repro.ir.graph import CDFGError
from repro.ir.ops import Op
from repro.sched.list_scheduler import list_schedule
from repro.sched.resources import unbounded_allocation


class TestResolveSource:
    def test_direct_node_is_its_own_root(self, abs_diff_graph):
        comp = next(n for n in abs_diff_graph if n.name == "c")
        ref = resolve_source(abs_diff_graph, comp.nid)
        assert ref.root == comp.nid
        assert ref.shifts == ()

    def test_shift_chain_resolved_in_order(self):
        b = GraphBuilder("t")
        a = b.input("a")
        s1 = b.shr(a, 1)
        s2 = b.shl(s1, 2)
        b.output(s2, "out")
        g = b.build()
        out = g.outputs()[0]
        ref = resolve_source(g, out.operands[0])
        assert g.node(ref.root).op is Op.INPUT
        assert ref.shifts == ((Op.SHR, 1), (Op.SHL, 2))


def _shift_chain():
    b = GraphBuilder("t")
    a = b.input("a")
    b.output(b.shl(b.shr(a, 1), 2), "out")
    g = b.build()
    return g, g.outputs()[0].operands[0]


class TestResolveSourceMemo:
    """Resolution is memoized in the graph's data-level memo."""

    def test_copy_resolves_identically(self):
        g, wire = _shift_chain()
        ref = resolve_source(g, wire)
        clone = g.copy()
        assert resolve_source(clone, wire) is ref  # the shared memo
        assert resolve_source(pickle.loads(pickle.dumps(g)), wire) == ref
        assert resolve_source(g.copy(), wire).shifts == (
            (Op.SHR, 1), (Op.SHL, 2))

    def test_mutation_refreshes_the_result(self):
        g, wire = _shift_chain()
        ref = resolve_source(g, wire)
        clone = g.copy()
        amount = clone.add_node(Op.CONST, value=3)
        longer = clone.add_node(Op.SHR, [wire, amount])
        assert resolve_source(clone, longer) == SourceRef(
            root=ref.root, shifts=ref.shifts + ((Op.SHR, 3),))
        assert resolve_source(clone, wire) == ref
        with pytest.raises(CDFGError):  # the original never saw it
            resolve_source(g, longer)
        g.set_latency(ref.root, 1)
        assert resolve_source(g, wire) == ref
        assert resolve_source(g, wire) is not ref  # recomputed


class TestLifetimes:
    def test_inputs_born_at_zero(self, abs_diff_graph):
        g = abs_diff_graph
        schedule = list_schedule(g, 2, unbounded_allocation(g))
        lifetimes = value_lifetimes(schedule)
        for node in g.inputs():
            assert lifetimes[node.nid].born == 0

    def test_value_lives_to_last_read(self, abs_diff_graph):
        g = abs_diff_graph
        schedule = list_schedule(g, 2, unbounded_allocation(g))
        lifetimes = value_lifetimes(schedule)
        comp = next(n for n in g if n.name == "c")
        mux = g.muxes()[0]
        assert lifetimes[comp.nid].born == schedule.finish_of(comp.nid)
        assert lifetimes[comp.nid].last_read == schedule.step_of(mux.nid)

    def test_output_values_live_to_end(self, abs_diff_graph):
        g = abs_diff_graph
        schedule = list_schedule(g, 3, unbounded_allocation(g))
        lifetimes = value_lifetimes(schedule)
        mux = g.muxes()[0]
        assert lifetimes[mux.nid].last_read == schedule.n_steps

    def test_constants_have_no_lifetime(self, dealer_graph):
        g = dealer_graph
        schedule = list_schedule(g, 4, unbounded_allocation(g))
        lifetimes = value_lifetimes(schedule)
        for const in g.constants():
            assert const.nid not in lifetimes

    def test_conflict_predicate(self):
        from repro.alloc.lifetimes import Lifetime
        a = Lifetime(value=0, born=0, last_read=2)
        b = Lifetime(value=1, born=3, last_read=4)
        c = Lifetime(value=2, born=2, last_read=3)
        assert not a.conflicts(b)
        assert a.conflicts(c)
        assert c.conflicts(b)

    def test_reads_through_wiring_extend_root(self):
        b = GraphBuilder("t")
        a, c = b.input("a"), b.input("c")
        v = b.add(a, c, name="v")
        sh = b.shr(v, 1, name="sh")
        late = b.sub(sh, c, name="late")
        b.output(late, "out")
        g = b.build()
        schedule = list_schedule(g, 3, unbounded_allocation(g))
        lifetimes = value_lifetimes(schedule)
        v_node = next(n for n in g if n.name == "v")
        late_node = next(n for n in g if n.name == "late")
        assert lifetimes[v_node.nid].last_read >= \
            schedule.step_of(late_node.nid)
