"""The CDFG analysis memo stays coherent with the graph it describes.

Random interleavings of mutations (new nodes, control edges added and
removed, clears), copies and pickle round trips are checked against
adjacency, topological orders, fingerprints, operation lists and entry
timing frames recomputed here from the node operands and the
control-edge list alone, and against MUX cones decomposed on a
memo-free clone.  Copies share the nodes and the data-level memo, so a
node added, or a latency set, on either side of a copy must stay
invisible to the other.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import vender
from repro.core.cones import compute_cones
from repro.ir.graph import CDFG, CDFGError
from repro.ir.ops import Op
from repro.ir.serialize import graph_to_dict
from repro.sched.timing import critical_path_length, entry_frame
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


def _frame(graph, preds, succs, n_steps):
    """(asap, alap) for ``n_steps`` from the recomputed adjacency."""
    order = _kahn(preds, succs)
    latency = {nid: graph.node(nid).latency for nid in order}
    asap, alap = {}, {}
    for nid in order:
        asap[nid] = max((asap[p] + latency[p] for p in preds[nid]),
                        default=0)
    for nid in reversed(order):
        alap[nid] = min((alap[s] for s in succs[nid]),
                        default=n_steps) - latency[nid]
    return asap, alap


def _cones(graph):
    """MUX id -> (cones, per-side and total shut-down ops)."""
    found = {}
    for mux in graph.muxes():
        cones = compute_cones(graph, mux.nid)
        found[mux.nid] = (cones, cones.shutdown_ops(graph, 0),
                          cones.shutdown_ops(graph, 1),
                          cones.all_shutdown_ops(graph))
    return found


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

    # The operation list holds this graph's own nodes, not a copy's.
    ops = graph.operations()
    expected_ops = [node for node in graph if node.is_schedulable]
    assert [id(node) for node in ops] == [id(node) for node in expected_ops]
    assert _cones(graph) == _cones(pickle.loads(pickle.dumps(graph)))
    cp = max((a + graph.node(nid).latency
              for nid, a in _frame(graph, preds, succs, 0)[0].items()),
             default=0)
    assert critical_path_length(graph) == cp
    for n_steps in (cp, cp + 1):
        frame = entry_frame(graph, n_steps)
        assert frame.n_steps == n_steps
        assert (frame.asap, frame.alap) \
            == _frame(graph, preds, succs, n_steps)


def _add_dead_node(graph, data):
    ids = graph.node_ids
    a = data.draw(st.sampled_from(ids))
    b = data.draw(st.sampled_from(ids))
    return graph.add_node(Op.ADD, [a, b])


def _assert_isolated(graph, before, other, added):
    """``other`` gained node ``added`` after a copy; ``graph`` must not
    see it in its op list or cones."""
    assert added not in graph
    assert added in {node.nid for node in other.operations()}
    assert added not in {node.nid for node in graph.operations()}
    assert _cones(graph) == before
    assert_coherent(graph)
    assert_coherent(other)


def _set_latency(graph, data):
    """Set a drawn operation's latency; returns (nid, old latency)."""
    nid = data.draw(st.sampled_from(
        [node.nid for node in graph.operations()]))
    old = graph.node(nid).latency
    graph.set_latency(nid, data.draw(st.integers(1, 3)))
    return nid, old


_ACTIONS = st.sampled_from(("add_edge", "add_edge", "add_edge", "remove_edge",
                            "clear", "add_node", "copy", "pickle",
                            "add_node_to_copy", "add_node_after_copy",
                            "set_latency", "set_latency_on_copy"))


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
        elif action == "add_node_to_copy":
            before = _cones(graph)
            clone = graph.copy()
            _assert_isolated(graph, before, clone,
                             _add_dead_node(clone, data))
        elif action == "add_node_after_copy":
            before = _cones(graph)
            clone = graph.copy()
            _assert_isolated(clone, before, graph,
                             _add_dead_node(graph, data))
            graph = clone
        elif action == "set_latency":
            _set_latency(graph, data)
        elif action == "set_latency_on_copy":
            clone = graph.copy()
            nid, old = _set_latency(clone, data)
            assert graph.node(nid).latency == old
            assert_coherent(clone)
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
    graph.operations()
    memos = graph._data_memo, graph._control_memo
    edges = graph.control_edges()
    with pytest.raises(CDFGError, match="cycle"):
        graph.add_control_edge(src, dst)
    assert graph.control_edges() == edges
    assert (graph._data_memo, graph._control_memo) == memos
    assert all(memo is not None for memo in memos)
    assert_coherent(graph)


def test_control_edges_keep_the_data_memo(gcd_graph):
    mux = next(mux for mux in gcd_graph.muxes()
               if compute_cones(gcd_graph, mux.nid).all_shutdown_ops(gcd_graph))
    cones = compute_cones(gcd_graph, mux.nid)
    gcd_graph.fingerprint()
    data, control = gcd_graph._data_memo, gcd_graph._control_memo
    assert control is not None
    top = min(cones.top_nodes(gcd_graph, 0) | cones.top_nodes(gcd_graph, 1))
    gcd_graph.add_control_edge(mux.select_operand, top)
    assert gcd_graph._control_memo is not control
    assert gcd_graph._data_memo is data
    assert compute_cones(gcd_graph, mux.nid) is cones
    gcd_graph.add_node(Op.ADD, [top, top])
    assert gcd_graph._data_memo is not data


def test_copy_shares_the_data_memo_and_pickle_drops_both(gcd_graph):
    gcd_graph.topological_order()
    gcd_graph.operations()
    assert gcd_graph._control_memo is not None
    copy = gcd_graph.copy()
    assert copy._control_memo is None
    assert copy._data_memo is gcd_graph._data_memo
    clone = pickle.loads(pickle.dumps(gcd_graph))
    assert clone._data_memo is None
    assert clone._control_memo is None
    assert clone.fingerprint() == gcd_graph.fingerprint()


def test_public_adjacency_is_a_fresh_list(gcd_graph):
    nid = gcd_graph.outputs()[0].nid
    gcd_graph.preds(nid).append(-1)
    gcd_graph.topological_order().clear()
    assert -1 not in gcd_graph.preds(nid)
    assert_coherent(gcd_graph)


def test_set_latency_refreshes_the_fingerprint_and_timing():
    graph = vender()
    fingerprint = graph.fingerprint()
    cp = critical_path_length(graph)
    for node in graph.operations():
        if node.op is Op.MUL:
            graph.set_latency(node.nid, 3)
    # Built with those latencies from the start, node by node.
    fresh = CDFG(graph.name)
    for node in vender():
        fresh.add_node(node.op, node.operands, name=node.name,
                       value=node.value,
                       latency=3 if node.op is Op.MUL else node.latency)
    assert graph.fingerprint() != fingerprint
    assert graph.fingerprint() == fresh.fingerprint()
    assert critical_path_length(graph) != cp
    assert critical_path_length(graph) == critical_path_length(fresh)
    mul = next(node for node in graph if node.op is Op.MUL)
    with pytest.raises(dataclasses.FrozenInstanceError):
        mul.latency = 3
