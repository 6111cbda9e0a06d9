"""GraphBuilder: fluent construction, overloads, coercion, hash-consing."""

import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.graph import CDFGError
from repro.ir.ops import Op
from repro.sim.reference import evaluate


class TestLeaves:
    def test_input_output_roundtrip(self):
        b = GraphBuilder("t")
        a = b.input("a")
        b.output(a, "out")
        g = b.build()
        assert [n.name for n in g.inputs()] == ["a"]
        assert [n.name for n in g.outputs()] == ["out"]

    def test_constants_are_hash_consed(self):
        b = GraphBuilder("t")
        c1 = b.const(5)
        c2 = b.const(5)
        assert c1.nid == c2.nid
        assert b.const(6).nid != c1.nid

    def test_named_constants_are_distinct(self):
        b = GraphBuilder("t")
        assert b.const(5).nid != b.const(5, name="limit").nid


class TestOperators:
    def test_overloads_build_expected_ops(self):
        b = GraphBuilder("t")
        x, y = b.input("x"), b.input("y")
        exprs = {
            Op.ADD: x + y, Op.SUB: x - y, Op.MUL: x * y,
            Op.GT: x > y, Op.LT: x < y, Op.GE: x >= y, Op.LE: x <= y,
            Op.AND: x & y, Op.OR: x | y, Op.XOR: x ^ y,
        }
        for op, value in exprs.items():
            assert b.graph.node(value.nid).op is op

    def test_int_coercion_in_overloads(self):
        b = GraphBuilder("t")
        x = b.input("x")
        s = x + 3
        node = b.graph.node(s.nid)
        assert b.graph.node(node.operands[1]).op is Op.CONST

    def test_shift_overloads(self):
        b = GraphBuilder("t")
        x = b.input("x")
        assert b.graph.node((x >> 2).nid).op is Op.SHR
        assert b.graph.node((x << 1).nid).op is Op.SHL

    def test_negative_shift_rejected(self):
        b = GraphBuilder("t")
        x = b.input("x")
        with pytest.raises(ValueError, match="non-negative"):
            b.shr(x, -1)

    def test_foreign_value_rejected(self):
        b1, b2 = GraphBuilder("a"), GraphBuilder("b")
        x = b1.input("x")
        with pytest.raises(ValueError, match="different builder"):
            b2.add(x, 1)

    def test_bad_type_rejected(self):
        b = GraphBuilder("t")
        with pytest.raises(TypeError, match="expected Value or int"):
            b.add("nope", 1)


class TestMux:
    def test_mux_operand_order(self):
        b = GraphBuilder("t")
        c, x, y = b.input("c"), b.input("x"), b.input("y")
        m = b.mux(c, x, y)
        node = b.graph.node(m.nid)
        assert node.operands == (c.nid, x.nid, y.nid)
        assert node.select_operand == c.nid
        assert node.data_operand(0) == x.nid
        assert node.data_operand(1) == y.nid

    def test_select_sugar_matches_ternary_semantics(self):
        b = GraphBuilder("t")
        c = b.input("c")
        r = b.select(c, b.const(10), b.const(20))
        b.output(r, "out")
        g = b.build()
        assert evaluate(g, {"c": 1})["out"] == 10
        assert evaluate(g, {"c": 0})["out"] == 20


class TestBuild:
    def test_build_validates(self):
        b = GraphBuilder("t")
        b.input("a")  # no outputs
        with pytest.raises(CDFGError, match="no outputs"):
            b.build()

    def test_build_unvalidated_skips_checks(self):
        b = GraphBuilder("t")
        b.input("a")
        assert b.build(validate_graph=False) is b.graph

    def test_behavioural_sanity(self):
        b = GraphBuilder("t")
        x, y = b.input("x"), b.input("y")
        b.output((x + y) * 2 - y, "r")
        g = b.build()
        assert evaluate(g, {"x": 3, "y": 4})["r"] == (3 + 4) * 2 - 4
