"""Whole-config property: every ``FlowConfig`` computes the reference.

One Hypothesis strategy draws the whole knob cross-product at once —
scheduler, MUX ordering, partial PM, mutex sharing, initiation interval,
pipelined-gating mode and datapath width — over ``gen:*`` and
``chstone:*`` circuits, with the power-management pass on and off, and
simulates the result on a drawn batch engine (compiled or vectorized).
Whatever the draw, the synthesized design must simulate bit-identically
to the reference model: gating and scheduling only ever change *when*
work happens, never what the circuit computes.  The one permitted refusal is the
exact scheduler's documented node limit: it is a reference
implementation for small graphs, and on some larger draws it raises
instead of searching without end.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import build
from repro.core.pm_pass import PMOptions
from repro.pipeline import FlowConfig, Pipeline
from repro.sched.timing import critical_path_length
from repro.sim.backend import create_engine
from repro.sim.reference import evaluate
from repro.sim.vectors import random_vectors
from tests.strategies import generated_circuits

CHSTONE_SPECS = ("chstone:adpcm", "chstone:adpcm:2", "chstone:jpeg",
                 "chstone:mips", "chstone:mips:4")

#: Schedulers that honour an initiation interval (the others reject it).
II_SCHEDULERS = ("list", "pipeline")


@st.composite
def flow_configs(draw, graph, pm_enabled: bool) -> FlowConfig:
    n_steps = critical_path_length(graph) + draw(st.integers(0, 2))
    scheduler = draw(st.sampled_from(
        ("list", "force_directed", "exact", "pipeline")))
    ii = None
    if scheduler in II_SCHEDULERS and draw(st.booleans()):
        ii = draw(st.integers(max(1, n_steps // 2), n_steps))
    pm = PMOptions(
        enabled=pm_enabled,
        ordering=draw(st.sampled_from(
            ("output_first", "input_first", "savings"))),
        partial=draw(st.booleans()))
    return FlowConfig(
        n_steps=n_steps, pm=pm, scheduler=scheduler,
        width=draw(st.sampled_from((8, 16))),
        initiation_interval=ii,
        pipelined_gating=draw(st.sampled_from(("per_sample", "drop"))),
        mutex_sharing=draw(st.booleans()))


#: Batch engines the synthesized design is simulated on.
ENGINES = st.sampled_from(("compiled", "vectorized"))


def assert_config_matches_reference(graph, config, backend):
    try:
        design = Pipeline().run(graph, config).design
    except RuntimeError as exc:
        if config.scheduler == "exact" and "exact search exceeded" in str(exc):
            return
        raise
    vectors = random_vectors(graph, 16, width=config.width, seed=7)
    expected = [evaluate(graph, v, width=config.width) for v in vectors]
    outputs, _ = create_engine(design, backend=backend).run_many(vectors)
    assert outputs == expected, (config, backend)


@pytest.mark.parametrize("pm_enabled", [True, False], ids=["pm", "no_pm"])
@settings(max_examples=30, deadline=None)
@given(data=st.data(),
       graph=generated_circuits(presets=("tiny", "small", "branchy"),
                                max_seed=999))
def test_gen_configs_match_reference(pm_enabled, data, graph):
    config = data.draw(flow_configs(graph, pm_enabled), label="config")
    backend = data.draw(ENGINES, label="backend")
    assert_config_matches_reference(graph, config, backend)


@pytest.mark.parametrize("pm_enabled", [True, False], ids=["pm", "no_pm"])
@settings(max_examples=20, deadline=None)
@given(data=st.data(), spec=st.sampled_from(CHSTONE_SPECS))
def test_chstone_configs_match_reference(pm_enabled, data, spec):
    graph = build(spec)
    config = data.draw(flow_configs(graph, pm_enabled), label="config")
    backend = data.draw(ENGINES, label="backend")
    assert_config_matches_reference(graph, config, backend)
