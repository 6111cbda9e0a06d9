"""The CDFG analysis memo stays coherent with the graph it describes.

Random interleavings of mutations (new nodes, control edges added and
removed, clears), copies and pickle round trips are checked against
adjacency, topological orders and fingerprints recomputed here from the
node operands and the control-edge list alone.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.graph import CDFGError
from repro.ir.ops import Op
from repro.ir.serialize import graph_to_dict
from tests.strategies import generated_circuits


def _expected(graph):
    """(preds, succs, data preds, data succs) recomputed from scratch."""
    data_preds = {n.nid: list(dict.fromkeys(n.operands)) for n in graph}
    data_succs = {nid: [] for nid in data_preds}
    for nid in sorted(data_preds):
        for producer in graph.node(nid).operands:
            if nid not in data_succs[producer]:
                data_succs[producer].append(nid)
    preds = {nid: list(ps) for nid, ps in data_preds.items()}
    succs = {nid: list(ss) for nid, ss in data_succs.items()}
    for src, dst in sorted(graph.control_edges(), key=lambda e: (e[1], e[0])):
        if src not in preds[dst]:
            preds[dst].append(src)
    for src, dst in sorted(graph.control_edges()):
        if dst not in succs[src]:
            succs[src].append(dst)
    return preds, succs, data_preds, data_succs


def _kahn(preds, succs):
    indegree = {nid: len(ps) for nid, ps in preds.items()}
    ready = deque(sorted(n for n, d in indegree.items() if d == 0))
    order = []
    while ready:
        nid = ready.popleft()
        order.append(nid)
        for succ in succs[nid]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    return order


def _fingerprint(graph):
    payload = json.dumps(graph_to_dict(graph), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def assert_coherent(graph):
    preds, succs, data_preds, data_succs = _expected(graph)
    for nid in graph.node_ids:
        assert graph.preds(nid) == preds[nid]
        assert graph.succs(nid) == succs[nid]
        assert graph.data_preds(nid) == data_preds[nid]
        assert graph.data_succs(nid) == data_succs[nid]
    assert graph.topological_order() == _kahn(preds, succs)
    assert graph.topological_order(include_control=False) \
        == _kahn(data_preds, data_succs)
    assert graph.fingerprint() == _fingerprint(graph)


_ACTIONS = st.sampled_from(("add_edge", "add_edge", "add_edge", "remove_edge",
                            "clear", "add_node", "copy", "pickle"))


@settings(max_examples=40, deadline=None)
@given(generated_circuits(), st.data())
def test_memo_matches_recomputation_after_any_mutation(graph, data):
    assert_coherent(graph)
    for action in data.draw(st.lists(_ACTIONS, min_size=1, max_size=12)):
        ids = graph.node_ids
        if action == "add_edge":
            src = data.draw(st.sampled_from(ids))
            dst = data.draw(st.sampled_from(ids))
            try:
                graph.add_control_edge(src, dst)
            except CDFGError:
                pass
        elif action == "remove_edge" and graph.control_edges():
            graph.remove_control_edge(
                *data.draw(st.sampled_from(graph.control_edges())))
        elif action == "clear":
            graph.clear_control_edges()
        elif action == "add_node":
            a = data.draw(st.sampled_from(ids))
            b = data.draw(st.sampled_from(ids))
            graph.add_node(Op.ADD, [a, b])
        elif action == "copy":
            graph = graph.copy()
        elif action == "pickle":
            graph = pickle.loads(pickle.dumps(graph))
        assert_coherent(graph)


@settings(max_examples=30, deadline=None)
@given(generated_circuits(), st.data())
def test_rejected_control_edge_leaves_edges_and_memo_unchanged(graph, data):
    src = data.draw(st.sampled_from(
        [nid for nid in graph.node_ids if graph.transitive_fanin(nid)]))
    dst = data.draw(st.sampled_from(sorted(graph.transitive_fanin(src))))
    graph.fingerprint()
    memo = graph._memo
    edges = graph.control_edges()
    with pytest.raises(CDFGError, match="cycle"):
        graph.add_control_edge(src, dst)
    assert graph.control_edges() == edges
    assert graph._memo is memo
    assert_coherent(graph)


def test_copy_and_pickle_start_without_a_memo(gcd_graph):
    gcd_graph.topological_order()
    assert gcd_graph._memo is not None
    assert gcd_graph.copy()._memo is None
    clone = pickle.loads(pickle.dumps(gcd_graph))
    assert clone._memo is None
    assert clone.fingerprint() == gcd_graph.fingerprint()


def test_public_adjacency_is_a_fresh_list(gcd_graph):
    nid = gcd_graph.outputs()[0].nid
    gcd_graph.preds(nid).append(-1)
    gcd_graph.topological_order().clear()
    assert -1 not in gcd_graph.preds(nid)
    assert_coherent(gcd_graph)
