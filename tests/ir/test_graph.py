"""CDFG structure: nodes, edges, traversal, control edges."""

import pytest

from repro.ir.graph import CDFG, CDFGError
from repro.ir.ops import Op


def make_diamond():
    g = CDFG("d")
    a = g.add_node(Op.INPUT, name="a")
    b = g.add_node(Op.INPUT, name="b")
    c = g.add_node(Op.GT, [a, b], name="c")
    s0 = g.add_node(Op.SUB, [b, a], name="s0")
    s1 = g.add_node(Op.SUB, [a, b], name="s1")
    m = g.add_node(Op.MUX, [c, s0, s1], name="m")
    o = g.add_node(Op.OUTPUT, [m], name="out")
    return g, (a, b, c, s0, s1, m, o)


class TestConstruction:
    def test_add_node_assigns_sequential_ids(self):
        g = CDFG()
        assert g.add_node(Op.INPUT, name="x") == 0
        assert g.add_node(Op.INPUT, name="y") == 1

    def test_unknown_operand_rejected(self):
        g = CDFG()
        with pytest.raises(CDFGError, match="does not exist"):
            g.add_node(Op.OUTPUT, [99])

    def test_const_requires_value(self):
        g = CDFG()
        with pytest.raises(ValueError, match="requires a value"):
            g.add_node(Op.CONST)

    def test_wrong_arity_rejected(self):
        g = CDFG()
        a = g.add_node(Op.INPUT, name="a")
        with pytest.raises(ValueError, match="expects 3 operands"):
            g.add_node(Op.MUX, [a, a])

    def test_len_contains_iter(self):
        g, ids = make_diamond()
        assert len(g) == 7
        assert ids[0] in g
        assert 99 not in g
        assert {n.nid for n in g} == set(ids)


class TestEdges:
    def test_data_preds_succs(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        assert g.data_preds(m) == [c, s0, s1]
        assert set(g.data_succs(a)) == {c, s0, s1}
        assert g.data_succs(m) == [o]

    def test_duplicate_operand_collapsed(self):
        g = CDFG()
        a = g.add_node(Op.INPUT, name="a")
        d = g.add_node(Op.ADD, [a, a], name="double")
        assert g.data_preds(d) == [a]
        assert g.data_succs(a) == [d]

    def test_control_edges(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        g.add_control_edge(c, s0)
        assert (c, s0) in g.control_edges()
        assert s0 in g.control_succs(c)
        assert c in g.control_preds(s0)
        assert c in g.preds(s0)
        assert s0 in g.succs(c)

    def test_control_edge_removal(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        g.add_control_edge(c, s0)
        g.remove_control_edge(c, s0)
        assert g.control_edges() == []

    def test_control_self_edge_rejected(self):
        g, (a, b, c, *_rest) = make_diamond()
        with pytest.raises(CDFGError, match="self-edge"):
            g.add_control_edge(c, c)

    def test_control_cycle_rejected_and_rolled_back(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        with pytest.raises(CDFGError, match="cycle"):
            g.add_control_edge(m, c)  # m depends on c already
        assert g.control_edges() == []

    def test_unknown_node_in_control_edge(self):
        g, _ = make_diamond()
        with pytest.raises(CDFGError, match="unknown node"):
            g.add_control_edge(0, 99)

    def test_a_reserved_source_keeps_its_place_in_edge_order(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        g.reserve_control_source(s1)
        assert g.control_edges() == []
        g.add_control_edge(c, s0)
        g.add_control_edge(s1, s0)
        assert g.control_edges() == [(s1, s0), (c, s0)]

    def test_a_refused_edge_reserves_its_source(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        with pytest.raises(CDFGError, match="cycle"):
            g.add_control_edge(m, c)
        g.add_control_edge(c, s0)
        g.add_control_edge(m, o)
        assert g.control_edges() == [(m, o), (c, s0)]

    def test_clear_control_edges(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        g.add_control_edge(c, s0)
        g.clear_control_edges()
        assert g.control_edges() == []


class TestTraversal:
    def test_topological_order_respects_data_edges(self):
        g, ids = make_diamond()
        order = g.topological_order()
        pos = {nid: i for i, nid in enumerate(order)}
        for node in g:
            for p in g.data_preds(node.nid):
                assert pos[p] < pos[node.nid]

    def test_topological_order_respects_control_edges(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        g.add_control_edge(c, s1)
        order = g.topological_order()
        assert order.index(c) < order.index(s1)

    def test_transitive_fanin(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        assert g.transitive_fanin(m) == {a, b, c, s0, s1}
        assert g.transitive_fanin(c) == {a, b}
        assert g.transitive_fanin(a) == set()
        assert a in g.transitive_fanin(a, include_self=True)

    def test_transitive_fanout(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        assert g.transitive_fanout(c) == {m, o}
        assert g.transitive_fanout(a) == {c, s0, s1, m, o}

    def test_longest_path_to_output(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        dist = g.longest_path_to_output()
        assert dist[o] == 0
        assert dist[m] == 1
        assert dist[s0] == 2
        assert dist[c] == 2
        assert dist[a] == 2  # zero-latency input + sub + mux


class TestQueries:
    def test_node_kind_helpers(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        assert [n.nid for n in g.inputs()] == [a, b]
        assert [n.nid for n in g.outputs()] == [o]
        assert [n.nid for n in g.muxes()] == [m]
        assert {n.nid for n in g.operations()} == {c, s0, s1, m}

    def test_op_counts(self):
        g, _ = make_diamond()
        assert g.op_counts() == {"COMP": 1, "-": 2, "MUX": 1}

    def test_node_lookup_error(self):
        g, _ = make_diamond()
        with pytest.raises(CDFGError, match="no node"):
            g.node(1234)


class TestCopy:
    def test_copy_is_deep(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        g.add_control_edge(c, s0)
        clone = g.copy()
        clone.add_control_edge(c, s1)
        assert (c, s1) not in g.control_edges()
        assert (c, s0) in clone.control_edges()
        assert len(clone) == len(g)

    def test_copy_preserves_node_fields(self):
        g, _ = make_diamond()
        clone = g.copy(name="other")
        assert clone.name == "other"
        for node in g:
            other = clone.node(node.nid)
            assert other.op is node.op
            assert other.operands == node.operands
            assert other.name == node.name

    def test_copy_can_extend_without_id_clash(self):
        g, _ = make_diamond()
        clone = g.copy()
        new = clone.add_node(Op.INPUT, name="z")
        assert new not in g
