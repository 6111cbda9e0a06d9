"""The PM pass gives the same answer on a warm graph as on a memo-free one.

The pass reads cones from the data-level memo its working copy shares
with the input graph, and the critical path and entry timing frame from
the input graph's control-level memo.  Running many MUX orders, budgets
and options on one graph therefore reuses state filled by earlier runs;
each run must still match the same run on a fresh pickle round trip of
the graph, which starts with no memo at all.

The same holds for a caller-held decision memo: a run answered partly
from decisions an earlier run (another order, budget, knob setting or
input graph) left in the memo must equal the memo-free run.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import abs_diff, build
from repro.core.ordering import order_muxes
from repro.core.pm_pass import PMOptions, apply_power_management, pm_digest
from repro.opt.objective import gated_weight
from repro.power.static import static_power
from repro.sched.resources import (
    Allocation,
    single_unit_allocation,
    unbounded_allocation,
)
from repro.sched.timing import critical_path_length
from tests.strategies import generated_circuits


def _outcome(graph, n_steps, options, memo=None):
    """Everything downstream reads of one PM run, floats as hex."""
    pm = apply_power_management(graph, n_steps, options, memo=memo)
    report = static_power(pm)
    return (
        [(d.mux, d.selected, d.reason, d.added_edges, d.gated, d.cones)
         for d in pm.decisions],
        pm.gating,
        pm.graph.control_edges(),
        pm_digest(pm, graph.fingerprint()),
        gated_weight(pm).hex(),
        report.baseline.hex(),
        report.managed.hex(),
    )


@st.composite
def _options(draw, graph):
    allocation = None
    if draw(st.booleans()):
        classes = {node.resource for node in graph.operations()}
        allocation = Allocation({cls: draw(st.integers(1, 2))
                                 for cls in sorted(classes,
                                                   key=lambda c: c.value)})
    return dict(partial=draw(st.booleans()),
                max_muxes=draw(st.none() | st.integers(0, 3)),
                allocation=allocation)


@settings(max_examples=25, deadline=None)
@given(generated_circuits(presets=("tiny", "small", "branchy")), st.data())
def test_warm_graph_runs_match_memo_free_runs(graph, data):
    muxes = [m.nid for m in graph.muxes()]
    cp = critical_path_length(graph)
    budgets = (cp, cp + data.draw(st.integers(1, 2)))
    orders = data.draw(st.lists(st.permutations(muxes), min_size=2,
                                max_size=4))
    knob_sets = data.draw(st.lists(_options(graph), min_size=1, max_size=3))
    pristine = pickle.dumps(graph)
    memo = {}
    for knobs in knob_sets:
        for n_steps in budgets:
            for order in orders:
                options = PMOptions(ordering="given", given_order=order,
                                    **knobs)
                warm = _outcome(graph, n_steps, options)
                cold = _outcome(pickle.loads(pristine), n_steps, options)
                assert warm == cold
                assert _outcome(graph, n_steps, options, memo) == cold
    assert graph.control_edges() == []


def _knob_grid(graph):
    """The pass knobs a decision depends on, each at several values."""
    for allocation in (None, single_unit_allocation(graph),
                       unbounded_allocation(graph)):
        for partial in (False, True):
            yield dict(allocation=allocation, partial=partial)


@pytest.mark.parametrize("name", ["abs_diff", "gcd", "dealer", "vender",
                                  "gen:branchy:19"])
def test_one_memo_across_orders_budgets_and_knobs(name):
    graph = abs_diff() if name == "abs_diff" else build(name)
    cp = critical_path_length(graph)
    orders = {tuple(order_muxes(graph, strategy)) for strategy in
              ("output_first", "input_first", "savings")}
    orders |= {order[::-1] for order in orders}
    memo = {}
    for knobs in _knob_grid(graph):
        for n_steps in (cp, cp + 1, cp + 3):
            for order in sorted(orders):
                options = PMOptions(ordering="given", given_order=order,
                                    **knobs)
                assert _outcome(graph, n_steps, options, memo) == \
                    _outcome(graph, n_steps, options)


@pytest.mark.parametrize("name", ["abs_diff", "gcd", "dealer", "vender",
                                  "gen:branchy:19"])
def test_one_memo_across_input_graphs(name):
    """Decisions never cross input graphs: a graph that already carries
    a run's control edges has the same MUX ids but other decisions."""
    graph = abs_diff() if name == "abs_diff" else build(name)
    cp = critical_path_length(graph)
    memo = {}
    for n_steps in (cp, cp + 2):
        augmented = apply_power_management(graph, n_steps).graph
        for source in (graph, augmented, graph):
            assert _outcome(source, n_steps, PMOptions(), memo) == \
                _outcome(source, n_steps, PMOptions())


def test_memo_hits_keep_the_control_edge_order():
    """A refused edge still places its select driver in the order of
    ``control_edges()``; a memo hit on a rejected MUX must too.  Here MUX
    ``a`` is rejected for slack before ``m_d`` commits, and ``m_c`` shares
    ``a``'s select driver, so its edge is listed first."""
    from repro.ir.builder import GraphBuilder

    b = GraphBuilder("shared_driver")
    x, y = b.input("x"), b.input("y")
    c, d = b.gt(x, y, name="c"), b.lt(x, y, name="d")
    a = b.mux(c, b.mul(x, y, name="big"), x, name="a")
    b.output(b.sub(a, y, name="late"), "o1")
    b.output(b.mux(d, b.add(x, y, name="s"), y, name="m_d"), "o2")
    b.output(b.mux(c, b.sub(y, x, name="t"), y, name="m_c"), "o3")
    graph = b.build()
    order = tuple(m.nid for m in graph.muxes())
    options = PMOptions(ordering="given", given_order=order)
    cp = critical_path_length(graph)
    memo = {}
    cold = _outcome(graph, cp, options)
    assert [decision[2] for decision in cold[0]] == [
        "insufficient-slack", "selected", "selected"]
    for _ in range(2):
        assert _outcome(graph, cp, options, memo) == cold


@pytest.mark.parametrize("name", ["gcd", "vender", "gen:branchy:19"])
def test_replayed_edges_pass_the_cycle_probe(name, monkeypatch):
    """A memo hit adds its decision's edges with no cycle probe.  Every
    run's edges, re-added in order through the probing
    ``add_control_edge`` on a fresh copy, are all accepted and rebuild
    the same graph."""
    from repro.ir.graph import CDFG

    replays = []
    replay = CDFG.replay_control_edges

    def counting(self, src, dsts):
        replays.append(src)
        return replay(self, src, dsts)

    monkeypatch.setattr(CDFG, "replay_control_edges", counting)
    graph = build(name)
    muxes = [m.nid for m in graph.muxes()]
    cp = critical_path_length(graph)
    rng = random.Random(name)
    memo = {}
    for _ in range(24):
        options = PMOptions(ordering="given",
                            given_order=rng.sample(muxes, len(muxes)),
                            partial=rng.random() < 0.5)
        pm = apply_power_management(graph, cp + rng.randrange(3), options,
                                    memo=memo)
        probed = graph.copy()
        for src, dst in pm.graph.control_edges():
            probed.add_control_edge(src, dst)
        assert probed.control_edges() == pm.graph.control_edges()
        assert probed.fingerprint() == pm.graph.fingerprint()
    assert replays
