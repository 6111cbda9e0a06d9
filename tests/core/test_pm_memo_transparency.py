"""The PM pass gives the same answer on a warm graph as on a memo-free one.

The pass reads cones from the data-level memo its working copy shares
with the input graph, and the critical path and entry timing frame from
the input graph's control-level memo.  Running many MUX orders, budgets
and options on one graph therefore reuses state filled by earlier runs;
each run must still match the same run on a fresh pickle round trip of
the graph, which starts with no memo at all.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pm_pass import PMOptions, apply_power_management, pm_digest
from repro.opt.objective import gated_weight
from repro.power.static import static_power
from repro.sched.resources import Allocation
from repro.sched.timing import critical_path_length
from tests.strategies import generated_circuits


def _outcome(graph, n_steps, options):
    """Everything downstream reads of one PM run, floats as hex."""
    pm = apply_power_management(graph, n_steps, options)
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
    knobs = data.draw(_options(graph))
    pristine = pickle.dumps(graph)
    for n_steps in budgets:
        for order in orders:
            options = PMOptions(ordering="given", given_order=order,
                                **knobs)
            warm = _outcome(graph, n_steps, options)
            cold = _outcome(pickle.loads(pristine), n_steps, options)
            assert warm == cold
    assert graph.control_edges() == []
