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
from repro.pipeline import FlowConfig, run_pair
from repro.sched.timing import critical_path_length
from repro.sim.engine import CompiledEngine
from repro.sim.reference import evaluate
from repro.sim.simulator import RTLSimulator
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
        from repro.sim.activity import ActivityCounter

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
