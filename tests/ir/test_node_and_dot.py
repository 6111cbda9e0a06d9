"""Node helpers and DOT export."""

import dataclasses

import pytest

from repro.ir.dot import to_dot
from repro.ir.node import Node
from repro.ir.ops import Op, ResourceClass


class TestNode:
    def test_mux_port_accessors(self):
        n = Node(nid=5, op=Op.MUX, operands=[1, 2, 3])
        assert n.select_operand == 1
        assert n.data_operand(0) == 2
        assert n.data_operand(1) == 3

    def test_data_operand_bad_side(self):
        n = Node(nid=5, op=Op.MUX, operands=[1, 2, 3])
        with pytest.raises(ValueError, match="side must be 0 or 1"):
            n.data_operand(2)

    def test_non_mux_port_access_raises(self):
        n = Node(nid=1, op=Op.ADD, operands=[0, 0])
        with pytest.raises(ValueError, match="not a MUX"):
            _ = n.select_operand

    def test_resource_and_schedulable(self):
        add = Node(nid=0, op=Op.ADD, operands=[0, 0])
        assert add.is_schedulable
        assert add.resource is ResourceClass.ADD
        inp = Node(nid=1, op=Op.INPUT)
        assert not inp.is_schedulable
        assert inp.resource is None

    def test_label_variants(self):
        assert Node(nid=0, op=Op.CONST, value=7).label() == "7"
        assert Node(nid=1, op=Op.ADD, operands=[0, 0], name="s").label() == "s:+"
        assert Node(nid=2, op=Op.ADD, operands=[0, 0]).label() == "n2:+"

    def test_latency_override(self):
        n = Node(nid=0, op=Op.MUL, operands=[0, 0], latency=2)
        assert n.latency == 2

    def test_node_is_frozen_with_tuple_operands(self):
        n = Node(nid=0, op=Op.MUL, operands=[0, 0])
        assert n.operands == (0, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            n.latency = 3


class TestDot:
    def test_contains_all_nodes_and_edges(self, abs_diff_graph):
        dot = to_dot(abs_diff_graph)
        for node in abs_diff_graph:
            assert f"n{node.nid} [" in dot
        assert dot.count("->") >= 7
        assert dot.strip().startswith("digraph")

    def test_mux_port_labels(self, abs_diff_graph):
        dot = to_dot(abs_diff_graph)
        assert 'label="sel"' in dot
        assert 'label="0"' in dot
        assert 'label="1"' in dot

    def test_control_edges_dashed(self, diamond_graph):
        g = diamond_graph.copy()
        m = g.muxes()[0]
        g.add_control_edge(m.select_operand, m.data_operand(0))
        assert "style=dashed" in to_dot(g)

    def test_schedule_ranks(self, abs_diff_graph):
        schedule = {n.nid: 0 for n in abs_diff_graph.operations()}
        dot = to_dot(abs_diff_graph, schedule)
        assert "rank=same" in dot
        assert "step 1" in dot
