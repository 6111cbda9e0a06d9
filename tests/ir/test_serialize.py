"""CDFG JSON serialization round trips."""

import pytest
from hypothesis import given, settings

from repro.circuits import build
from repro.core.pm_pass import apply_power_management
from repro.ir.serialize import dumps, graph_from_dict, graph_to_dict, loads
from repro.sim.reference import evaluate
from repro.sim.vectors import random_vectors
from tests.strategies import circuits, generated_circuits


@pytest.mark.parametrize("name", ["dealer", "gcd", "vender", "cordic"])
def test_benchmarks_round_trip(name):
    graph = build(name)
    restored = loads(dumps(graph))
    assert restored.name == graph.name
    assert len(restored) == len(graph)
    for vec in random_vectors(graph, 10, seed=1):
        assert evaluate(restored, vec) == evaluate(graph, vec)


def test_control_edges_survive():
    result = apply_power_management(build("gcd"), 7)
    restored = loads(dumps(result.graph))
    assert len(restored.control_edges()) == \
        len(result.graph.control_edges())


def test_custom_latency_preserved():
    graph = build("vender")
    mul = next(n for n in graph if n.name == "p2")
    graph.set_latency(mul.nid, 3)
    restored = loads(dumps(graph))
    restored_mul = next(n for n in restored if n.name == "p2")
    assert restored_mul.latency == 3


def test_default_latency_not_stored():
    data = graph_to_dict(build("dealer"))
    assert all("latency" not in entry for entry in data["nodes"])


def test_bad_format_rejected():
    with pytest.raises(ValueError, match="unsupported CDFG format"):
        graph_from_dict({"format": 99, "nodes": []})


def test_unknown_op_rejected():
    with pytest.raises(ValueError, match="unknown op"):
        graph_from_dict({"format": 1, "nodes": [
            {"id": 0, "op": "FROBNICATE", "operands": []}]})


@settings(max_examples=40, deadline=None)
@given(circuits())
def test_random_circuits_round_trip(graph):
    restored = loads(dumps(graph))
    vec = {n.name: -7 for n in graph.inputs()}
    assert evaluate(restored, vec) == evaluate(graph, vec)


@settings(max_examples=50, deadline=None)
@given(generated_circuits())
def test_generated_circuits_dump_load_is_lossless(graph):
    """dump -> load -> dump is a fixpoint over repro.gen workloads:
    the reloaded graph is content-identical (same fingerprint), not
    merely behaviourally equivalent."""
    from repro.pipeline import graph_fingerprint

    restored = loads(dumps(graph))
    assert graph_to_dict(restored) == graph_to_dict(graph)
    assert graph_fingerprint(restored) == graph_fingerprint(graph)
    for vec in random_vectors(graph, 4, seed=11):
        assert evaluate(restored, vec) == evaluate(graph, vec)


@settings(max_examples=25, deadline=None)
@given(generated_circuits(presets=("tiny", "branchy")))
def test_generated_circuits_control_edges_survive(graph):
    from repro.sched.timing import critical_path_length

    result = apply_power_management(graph, critical_path_length(graph) + 1)
    restored = loads(dumps(result.graph))
    assert sorted(restored.control_edges()) == \
        sorted(result.graph.control_edges())
