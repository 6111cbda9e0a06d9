"""One compiled runner per design, run in both power-management modes.

The compiled engine takes ``power_management`` as a run-time argument of
its generated runner, so the PM-on and PM-off engines of one design
share a single compile.  Sharing must change nothing observable: with
the two engines' batches interleaved on that one runner, each mode's
outputs and full :class:`ActivityCounter` must equal an
:class:`RTLSimulator` in that mode, batch for batch, and its final
registers, latches and FU outputs must equal the interpreter's.

Activity is counted from the runner's value trace only when read, so
some batches are left unread: the batches after them must still start
from the latches and FU outputs they left.  Random designs also run
batch splits of 0, 1, 16, 64 and 128 vectors against the vectorized
engine.

The fixed designs cover the runners' flag paths: a ``never`` guard
(idle under PM, enabled without it), a multicycle op (its start and end
events sit in different steps), a modulo-scheduled design in both
pipelined-gating modes, and mutually exclusive ops that share one unit
in one step (each op's value must be taken at its own start).
"""

from collections import Counter

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import build, vender
from repro.ir.builder import GraphBuilder
from repro.ir.ops import Op
from repro.pipeline import FlowConfig, Pipeline, run_pair
from repro.sched.timing import critical_path_length
from repro.sim.activity import ActivityCounter
from repro.sim.engine import (
    _RUNNER_CACHE,
    CompiledEngine,
    clear_compile_caches,
    design_fingerprint,
)
from repro.sim.simulator import RTLSimulator
from repro.sim.vectorized import VectorizedEngine
from repro.sim.vectors import random_vectors
from tests.sim.engine_state import interpreter_state
from tests.strategies import circuits


def never_guard_graph():
    """``p`` feeds ``inner``'s true arm, which ``outer`` reads only when
    ``s`` is false: ``p`` is needed under ``s and not s``, so PM gives
    it a ``never`` guard."""
    b = GraphBuilder("never_guard")
    x, y, a, c, d = (b.input(name) for name in "xyacd")
    s = b.gt(x, y, name="s")
    p = b.add(a, c, name="p")
    inner = b.select(s, p, d, name="inner")
    b.output(b.select(s, a, inner, name="outer"), "out")
    return b.build()


def multicycle_graph():
    graph = vender()
    for node in graph.operations():
        if node.op is Op.MUL:
            graph.set_latency(node.nid, 2)
    return graph


@lru_cache(maxsize=None)
def fixed_design(kind):
    if kind == "never_guard":
        graph = never_guard_graph()
        config = FlowConfig(n_steps=critical_path_length(graph) + 1)
    elif kind == "multicycle":
        graph = multicycle_graph()
        config = FlowConfig(n_steps=critical_path_length(graph) + 1)
    elif kind == "mutex":
        graph = vender()
        config = FlowConfig(n_steps=critical_path_length(graph) + 1,
                            mutex_sharing=True)
    else:
        graph = build("dealer")
        config = FlowConfig(n_steps=critical_path_length(graph) + 2,
                            scheduler="pipeline", pipelined_gating=kind)
    return graph, Pipeline().run(graph, config).design


FIXED_KINDS = ("never_guard", "multicycle", "per_sample", "drop", "mutex")

#: Batch sizes, run alternately on the PM-on and PM-off engines, and
#: the indices of batches whose activity is never read.
batch_schedules = st.tuples(
    st.booleans(), st.lists(st.integers(0, 5), min_size=2, max_size=6),
    st.sets(st.integers(0, 5)))

#: The same, over the batch sizes callers use.
long_batch_schedules = st.tuples(
    st.booleans(),
    st.lists(st.sampled_from((0, 1, 16, 64, 128)), min_size=2, max_size=4),
    st.sets(st.integers(0, 3)))


def assert_modes_share_one_runner(graph, design, schedule, seed,
                                  vectorized=False):
    first_pm, sizes, unread = schedule
    clear_compile_caches()
    modes = (first_pm, not first_pm)
    engines = {pm: CompiledEngine(design, power_management=pm)
               for pm in modes}
    assert engines[True]._run is engines[False]._run
    assert list(_RUNNER_CACHE) == [design_fingerprint(design)]
    references = {pm: RTLSimulator(design, power_management=pm)
                  for pm in modes}
    arrays = {pm: VectorizedEngine(design, power_management=pm)
              for pm in modes} if vectorized else {}

    vectors = random_vectors(graph, sum(sizes), width=design.width,
                             seed=seed)
    offset = 0
    for i, size in enumerate(sizes):
        pm = first_pm ^ bool(i % 2)
        batch = vectors[offset:offset + size]
        offset += size
        result = engines[pm].run_batch(batch)
        outputs, activity = references[pm].run_many(batch)
        assert result.outputs == outputs, (i, pm)
        if arrays:
            assert arrays[pm].run_many(batch) == (outputs, activity), (i, pm)
        if i not in unread:
            assert result.activity == activity, (i, pm)
    for pm in modes:
        assert engines[pm].state() == interpreter_state(references[pm]), pm


@pytest.mark.parametrize("kind", FIXED_KINDS)
@settings(max_examples=15, deadline=None)
@given(schedule=batch_schedules, seed=st.integers(0, 10_000))
def test_fixed_designs_share_one_runner(kind, schedule, seed):
    graph, design = fixed_design(kind)
    assert_modes_share_one_runner(graph, design, schedule, seed)


def test_fixed_designs_cover_the_flag_paths():
    """Each fixed design exercises what it is named for."""
    _graph, design = fixed_design("never_guard")
    assert any(guard.never for guard in design.guards.values())
    _graph, design = fixed_design("multicycle")
    assert any(design.graph.node(nid).latency > 1
               and not guard.is_unconditional
               for nid, guard in design.guards.items())
    per_sample = fixed_design("per_sample")[1]
    drop = fixed_design("drop")[1]
    assert per_sample.guards != drop.guards
    _graph, design = fixed_design("mutex")
    shared = Counter((design.binding.unit_of(node.nid),
                      design.schedule.step_of(node.nid))
                     for node in design.graph.operations())
    assert max(shared.values()) > 1


@settings(max_examples=25, deadline=None)
@given(graph=circuits(max_ops=10), slack=st.integers(0, 2),
       mutex=st.booleans(), schedule=batch_schedules,
       seed=st.integers(0, 10_000))
def test_random_designs_share_one_runner(graph, slack, mutex, schedule,
                                         seed):
    n_steps = critical_path_length(graph) + slack
    config = FlowConfig(n_steps=n_steps, mutex_sharing=mutex)
    design = run_pair(graph, config).managed.design
    assert_modes_share_one_runner(graph, design, schedule, seed)


@settings(max_examples=15, deadline=None)
@given(graph=circuits(max_ops=10), slack=st.integers(0, 2),
       mutex=st.booleans(), schedule=long_batch_schedules,
       seed=st.integers(0, 10_000))
def test_random_designs_long_batches(graph, slack, mutex, schedule, seed):
    """Batch splits of 0, 1, 16, 64 and 128 vectors against the
    interpreter and the vectorized engine."""
    n_steps = critical_path_length(graph) + slack
    config = FlowConfig(n_steps=n_steps, mutex_sharing=mutex)
    design = run_pair(graph, config).managed.design
    assert_modes_share_one_runner(graph, design, schedule, seed,
                                  vectorized=True)
