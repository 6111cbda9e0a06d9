"""Differential tests: compiled engine vs interpreted simulator vs reference.

The compiled engine must be bit-for-bit equivalent to the legacy
:class:`RTLSimulator` — same outputs AND the same merged
:class:`ActivityCounter`, key presence included — with power management
both on and off, for every registered benchmark and for arbitrary
Hypothesis-generated circuits.  Outputs must also match the functional
reference model, closing the loop to the graph semantics.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import TABLE2_BUDGETS, build
from repro.lang import compile_circuit
from repro.pipeline import FlowConfig, Pipeline, run_pair
from repro.sched.timing import critical_path_length
from repro.sim.activity import ActivityCounter
from repro.sim.engine import _CHUNK, CompiledEngine
from repro.sim.reference import evaluate
from repro.sim.simulator import RTLSimulator
from repro.sim.vectorized import VectorizedEngine
from repro.sim.vectors import random_vectors
from repro.sim.workloads import balanced_condition_vectors, gcd_trace_vectors
from tests.strategies import circuits


def assert_identical(design, vectors, power_management):
    """Engine == interpreter (outputs + full activity), and both == ref."""
    legacy = RTLSimulator(design, power_management=power_management)
    louts, lact = legacy.run_many(vectors)
    engine = CompiledEngine(design, power_management=power_management)
    eouts, eact = engine.run_many(vectors)
    assert eouts == louts
    assert eact.fu_input_toggles == lact.fu_input_toggles
    assert eact.fu_output_toggles == lact.fu_output_toggles
    assert eact.fu_activations == lact.fu_activations
    assert eact.fu_idles == lact.fu_idles
    assert eact.register_toggles == lact.register_toggles
    assert eact.controller_cycles == lact.controller_cycles
    assert eact.controller_literals == lact.controller_literals
    assert eact == lact
    graph = design.graph
    assert eouts == [evaluate(graph, v, width=design.width) for v in vectors]


class TestRegisteredCircuits:
    @pytest.mark.parametrize("name,steps", [
        (name, steps)
        for name, budgets in TABLE2_BUDGETS.items() for steps in budgets
    ])
    def test_all_budgets_identical(self, name, steps):
        graph = build(name)
        pair = run_pair(graph, FlowConfig(n_steps=steps))
        n = 8 if name == "cordic" else 48
        vectors = random_vectors(graph, n, seed=steps)
        for result in (pair.managed, pair.baseline):
            for pm in (True, False):
                assert_identical(result.design, vectors, pm)

    def test_gcd_workload_vectors(self, gcd_graph):
        """Identical on the trace and balanced workloads, not just uniform."""
        pair = run_pair(gcd_graph, FlowConfig(n_steps=7))
        for vectors in (gcd_trace_vectors(gcd_graph, n_runs=6),
                        balanced_condition_vectors(gcd_graph, count=40)):
            assert_identical(pair.managed.design, vectors, True)
            assert_identical(pair.managed.design, vectors, False)

    def test_multicycle_multiplier_identical(self):
        from repro.circuits import vender
        from repro.ir.ops import Op

        graph = vender()
        for node in graph.operations():
            if node.op is Op.MUL:
                graph.set_latency(node.nid, 2)
        cp = critical_path_length(graph)
        pair = run_pair(graph, FlowConfig(n_steps=cp + 1))
        vectors = random_vectors(graph, 24)
        assert_identical(pair.managed.design, vectors, True)
        assert_identical(pair.baseline.design, vectors, False)


class TestRandomCircuits:
    @settings(max_examples=40, deadline=None)
    @given(circuits(max_ops=10), st.integers(min_value=0, max_value=2),
           st.integers(min_value=0, max_value=10_000))
    def test_engine_equals_legacy_and_reference(self, graph, slack, seed):
        cp = critical_path_length(graph)
        pair = run_pair(graph, FlowConfig(n_steps=cp + slack))
        vectors = random_vectors(graph, 6, seed=seed)
        for result in (pair.managed, pair.baseline):
            for pm in (True, False):
                assert_identical(result.design, vectors, pm)

    @settings(max_examples=20, deadline=None)
    @given(circuits(max_ops=8), st.integers(min_value=0, max_value=10_000))
    def test_batch_boundaries_do_not_matter(self, graph, seed):
        """Splitting a sequence across batches changes nothing."""
        cp = critical_path_length(graph)
        design = run_pair(graph, FlowConfig(n_steps=cp + 1)).managed.design
        vectors = random_vectors(graph, 9, seed=seed)
        one = CompiledEngine(design).run_batch(vectors)
        split = CompiledEngine(design)
        parts = [split.run_batch(vectors[:4]), split.run_batch(vectors[4:])]
        assert sum((p.outputs for p in parts), []) == one.outputs
        merged = ActivityCounter(width=design.width)
        for p in parts:
            merged.merge(p.activity)
        assert merged == one.activity


def _gated_designs():
    from repro.circuits.extra import gated_recurrence

    vender = build("vender")
    recurrence = gated_recurrence()
    return {
        "vender": (vender, run_pair(vender, FlowConfig(
            n_steps=critical_path_length(vender) + 2)).managed.design),
        "gated_recurrence": (recurrence, run_pair(recurrence, FlowConfig(
            n_steps=critical_path_length(recurrence) + 1)).managed.design),
    }


class TestChunkedBatches:
    """A batch longer than a runner call is run and counted chunk by
    chunk: one batch across ``_CHUNK`` boundaries equals the interpreter
    and the same vectors split into batches, outputs and activity."""

    @pytest.mark.parametrize("pm", [True, False])
    @pytest.mark.parametrize("name", ["vender", "gated_recurrence"])
    def test_one_batch_across_chunks(self, name, pm):
        graph, design = _gated_designs()[name]
        assert any(not g.is_unconditional for g in design.guards.values())
        n = 2 * _CHUNK + 88
        vectors = random_vectors(graph, n, seed=n)
        one = CompiledEngine(design, power_management=pm).run_batch(vectors)
        outputs, activity = RTLSimulator(
            design, power_management=pm).run_many(vectors)
        assert one.outputs == outputs
        assert one.activity == activity

        split = CompiledEngine(design, power_management=pm)
        merged = ActivityCounter(width=design.width)
        cuts = [0, 17, _CHUNK + 3, 2 * _CHUNK, n]
        for start, stop in zip(cuts, cuts[1:]):
            part = split.run_batch(vectors[start:stop])
            assert part.outputs == outputs[start:stop]
            merged.merge(part.activity)
        assert merged == activity


class TestWidthOne:
    """At width 1 the signed range is {-1, 0}, so a comparison's 1 is out
    of range: the bitwise ops and a right shift that read it wrap, in the
    model and in every engine."""

    SOURCE = """
        circuit narrow {
            input a, b;
            c = a > b;
            output inverse = ~c;
            output both = c & b;
            output either = c | b;
            output differ = c ^ b;
            output shifted = c >> 0;
            output pick = c ? a : b;
            output raw = c;
        }
    """

    @pytest.mark.parametrize("pm", [True, False])
    def test_comparison_operands_wrap(self, pm):
        graph = compile_circuit(self.SOURCE)
        vectors = [{"a": a, "b": b} for a in (-1, 0) for b in (-1, 0)] * 3
        assert evaluate(graph, {"a": 0, "b": -1}, width=1) == {
            "inverse": 0, "both": -1, "either": -1, "differ": 0,
            "shifted": -1, "pick": 0, "raw": 1}
        pair = run_pair(graph, FlowConfig(n_steps=3, width=1))
        for result in (pair.managed, pair.baseline):
            assert_identical(result.design, vectors, pm)
            outputs, activity = VectorizedEngine(
                result.design, power_management=pm).run_many(vectors)
            assert outputs == evaluate(graph, vectors, width=1)
            assert activity == RTLSimulator(
                result.design, power_management=pm).run_many(vectors)[1]

    def test_verifies(self):
        ctx = Pipeline().run_context(compile_circuit(self.SOURCE),
                                     FlowConfig(n_steps=3, width=1,
                                                verify=True))
        assert ctx.get("verified") is True
