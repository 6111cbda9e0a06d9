"""The incremental analyses agree with the from-scratch ones they replace.

* ``edges_fit`` (the PM pass's O(edges) slack probe) answers exactly as
  ``try_timing`` does on random single-driver edge sets, and ``retime``
  updates a frame to exactly what ``TimingFrame.compute`` gives.
* The ready-set ``list_schedule`` produces the same start steps, and the
  same failures, as the rescan-every-step oracle in
  ``list_schedule_oracle``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pm_pass import apply_power_management
from repro.ir.graph import CDFGError
from repro.ir.ops import Op
from repro.sched.list_scheduler import list_schedule
from repro.sched.resources import (
    Allocation,
    lower_bound_allocation,
    unbounded_allocation,
)
from repro.sched.schedule import Schedule
from repro.sched.timing import (
    TimingFrame,
    critical_path_length,
    edges_fit,
    retime,
    try_timing,
)
from tests.sched.list_schedule_oracle import oracle_list_schedule
from tests.strategies import generated_circuits


@settings(max_examples=80, deadline=None)
@given(generated_circuits(), st.integers(0, 3), st.data())
def test_slack_probe_agrees_with_try_timing(graph, slack, data):
    n_steps = critical_path_length(graph) + slack
    frame = TimingFrame.compute(graph, n_steps)
    ids = graph.node_ids
    for _ in range(data.draw(st.integers(1, 5))):
        src = data.draw(st.sampled_from(ids))
        added = []
        for dst in data.draw(st.lists(st.sampled_from(ids), max_size=4,
                                      unique=True)):
            if dst == src or dst in graph.control_succs(src):
                continue
            try:
                graph.add_control_edge(src, dst)
            except CDFGError:
                continue
            added.append(dst)
        fits = edges_fit(frame, graph, src, added)
        assert fits == (try_timing(graph, n_steps) is not None)
        if fits:
            frame = retime(frame, graph, src, added)
            assert frame == TimingFrame.compute(graph, n_steps)
        else:
            for dst in added:
                graph.remove_control_edge(src, dst)


def _outcome(schedule_fn, *args, **kwargs):
    try:
        return ("ok", schedule_fn(*args, **kwargs))
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return (type(error).__name__, str(error),
                getattr(error, "bottleneck", None))


def _starts(*args, **kwargs):
    return list_schedule(*args, **kwargs).start


def _oracle_starts(graph, n_steps, allocation, ii):
    start = oracle_list_schedule(graph, n_steps, allocation, ii)
    Schedule(graph=graph, n_steps=n_steps, start=start,
             initiation_interval=ii).verify(allocation)
    return start


@settings(max_examples=80, deadline=None)
@given(generated_circuits(), st.integers(0, 3), st.booleans(),
       st.booleans(), st.data())
def test_list_schedule_matches_the_rescan_oracle(graph, slack, managed,
                                                 multicycle, data):
    if multicycle:
        for node in graph.operations():
            if node.op is Op.MUL:
                graph.set_latency(node.nid, 2)
    n_steps = critical_path_length(graph) + slack
    if managed:
        graph = apply_power_management(graph, n_steps).graph
    ceiling = unbounded_allocation(graph)
    kind = data.draw(st.sampled_from(("lower", "unbounded", "random")))
    if kind == "lower":
        allocation = lower_bound_allocation(graph, n_steps)
    elif kind == "unbounded":
        allocation = ceiling
    else:
        allocation = Allocation({
            cls: data.draw(st.integers(1, count))
            for cls, count in ceiling.counts.items()})
    ii = data.draw(st.sampled_from((None, None, 1, 2, 3)))
    expected = _outcome(_oracle_starts, graph, n_steps, allocation, ii)
    got = _outcome(_starts, graph, n_steps, allocation,
                   initiation_interval=ii)
    assert got == expected

