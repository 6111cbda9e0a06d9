"""Structural validation rules."""

import pytest

from repro.ir.graph import CDFG, CDFGError
from repro.ir.ops import Op
from repro.ir.validate import validate


def minimal_valid():
    g = CDFG("v")
    a = g.add_node(Op.INPUT, name="a")
    g.add_node(Op.OUTPUT, [a], name="out")
    return g


def test_minimal_graph_is_valid():
    validate(minimal_valid())


def test_no_outputs_rejected():
    g = CDFG("v")
    g.add_node(Op.INPUT, name="a")
    with pytest.raises(CDFGError, match="no outputs"):
        validate(g)


def test_dead_operation_rejected():
    g = minimal_valid()
    a = g.inputs()[0].nid
    g.add_node(Op.ADD, [a, a], name="dead")
    with pytest.raises(CDFGError, match="does not reach any output"):
        validate(g)


def test_variable_shift_rejected():
    g = CDFG("v")
    a = g.add_node(Op.INPUT, name="a")
    k = g.add_node(Op.INPUT, name="k")
    s = g.add_node(Op.SHR, [a, k], name="s")
    g.add_node(Op.OUTPUT, [s], name="out")
    with pytest.raises(CDFGError, match="non-constant amount"):
        validate(g)


def test_constant_shift_accepted():
    g = CDFG("v")
    a = g.add_node(Op.INPUT, name="a")
    k = g.add_node(Op.CONST, value=2)
    s = g.add_node(Op.SHR, [a, k], name="s")
    g.add_node(Op.OUTPUT, [s], name="out")
    validate(g)


def test_benchmarks_validate(small_circuit):
    validate(small_circuit)


def test_passing_validation_is_memoized_until_a_mutation():
    g = minimal_valid()
    validate(g)
    assert g._control().validated
    validate(g)  # served from the memo
    a = g.inputs()[0].nid
    g.add_node(Op.ADD, [a, a], name="dead")
    assert not g._control().validated
    with pytest.raises(CDFGError, match="does not reach any output"):
        validate(g)


def test_failed_validation_is_not_memoized():
    g = CDFG("v")
    g.add_node(Op.INPUT, name="a")
    for _ in range(2):
        with pytest.raises(CDFGError, match="no outputs"):
            validate(g)
