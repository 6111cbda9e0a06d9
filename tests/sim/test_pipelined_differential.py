"""Differential tests for modulo-scheduled (pipelined) designs.

A design synthesized with ``scheduler="pipeline"`` must compute the same
function as the reference model and simulate bit-identically across the
compiled and vectorized backends — in both pipelined-gating
modes.  Gating only ever skips work whose result the sample discards, so
neither per-sample guard copies nor dropped guards may change outputs.
"""

import pytest

from repro.circuits import build
from repro.core.pipelined_gating import PIPELINED_GATING_MODES
from repro.pipeline import FlowConfig, Pipeline
from repro.sched.timing import critical_path_length
from repro.sim.backend import create_engine
from repro.sim.engine import CompiledEngine
from repro.sim.reference import evaluate
from repro.sim.vectorized import VectorizationError, VectorizedEngine
from repro.sim.vectors import random_vectors

#: (spec, extra slack) — paper benchmarks, generated families, and the
#: CHStone kernels; slack gives the II search room below the budget.
PIPELINED_SPECS = [
    ("dealer", 2), ("gcd", 2), ("vender", 1),
    ("gen:branchy:7", 3), ("gen:deep:3", 2), ("gen:small:11", 1),
    ("chstone:adpcm", 3), ("chstone:jpeg", 2), ("chstone:mips:4", 2),
]


def synthesize(spec, slack, mode):
    graph = build(spec)
    n_steps = critical_path_length(graph) + slack
    result = Pipeline().run(graph, FlowConfig(
        n_steps=n_steps, scheduler="pipeline", pipelined_gating=mode,
        verify=True))
    return graph, result


def assert_matches_reference(graph, design, vectors):
    expected = [evaluate(graph, v, width=design.width) for v in vectors]
    compiled, _ = CompiledEngine(design).run_many(vectors)
    assert compiled == expected
    outputs, _ = create_engine(design, backend="vectorized").run_many(vectors)
    assert outputs == expected


class TestPipelinedDesignsAreBitIdentical:
    @pytest.mark.parametrize("spec,slack", PIPELINED_SPECS,
                             ids=[s for s, _ in PIPELINED_SPECS])
    @pytest.mark.parametrize("mode", PIPELINED_GATING_MODES)
    def test_backends_match_reference(self, spec, slack, mode):
        graph, result = synthesize(spec, slack, mode)
        vectors = random_vectors(graph, 24, seed=sum(map(ord, spec)))
        assert_matches_reference(graph, result.design, vectors)

    def test_recurrent_pipelined_design_runs_compiled(self):
        """``gen:branchy:7`` at II 6 in ``drop`` mode (a point of
        ``benchmarks/bench_pipeline.py``): its gated state forms a
        cross-vector recurrence, so the vectorized codegen refuses it
        and ``auto`` builds the compiled engine, which matches the
        reference."""
        graph = build("gen:branchy:7")
        result = Pipeline().run(graph, FlowConfig(
            n_steps=critical_path_length(graph) + 3, scheduler="pipeline",
            initiation_interval=6, pipelined_gating="drop"))
        with pytest.raises(VectorizationError, match="recurrence"):
            VectorizedEngine(result.design)
        engine = create_engine(result.design, n_vectors=4096)
        assert engine.chosen_backend == "compiled"
        vectors = random_vectors(graph, 24, seed=7)
        outputs, _ = engine.run_many(vectors)
        assert outputs == [evaluate(graph, v, width=result.design.width)
                           for v in vectors]

    def test_gating_modes_share_one_function(self):
        """per_sample and drop elaborate different gating but must agree
        on every output for every vector."""
        graph = build("vender")
        vectors = random_vectors(graph, 48, seed=7)
        outputs = []
        for mode in PIPELINED_GATING_MODES:
            result = Pipeline().run(graph, FlowConfig(
                n_steps=6, scheduler="pipeline", initiation_interval=2,
                pipelined_gating=mode))
            outs, _ = CompiledEngine(result.design).run_many(vectors)
            outputs.append(outs)
        assert outputs[0] == outputs[1]

    def test_pipelined_matches_unpipelined_function(self, gcd_graph):
        """The modulo schedule changes timing, never the function."""
        vectors = random_vectors(gcd_graph, 32, seed=3)
        flat = Pipeline().run(gcd_graph, FlowConfig(n_steps=7))
        piped = Pipeline().run(gcd_graph, FlowConfig(
            n_steps=7, scheduler="pipeline"))
        assert piped.schedule.initiation_interval <= 7
        a, _ = CompiledEngine(flat.design).run_many(vectors)
        b, _ = CompiledEngine(piped.design).run_many(vectors)
        assert a == b
