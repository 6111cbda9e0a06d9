"""Differential tests: vectorized backend vs compiled engine vs interpreter.

The vectorized NumPy backend must be bit-for-bit equivalent to the
compiled engine (which is itself pinned against the interpreter and the
functional reference): same outputs AND the same merged
:class:`ActivityCounter`, key presence included — with power management
both on and off, for every registered benchmark, for multicycle variants,
for arbitrary Hypothesis-generated circuits, and across every batch
boundary (odd sizes, size-1 blocks, empty blocks).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import TABLE2_BUDGETS, build
from repro.pipeline import FlowConfig, run_pair
from repro.sched.timing import critical_path_length
from repro.sim.activity import ActivityCounter
from repro.sim.backend import create_engine
from repro.sim.engine import CompiledEngine
from repro.sim.simulator import RTLSimulator
from repro.sim.vectorized import (
    VectorizationError,
    VectorizedEngine,
    _masked_ffill,
)
from repro.sim.vectors import random_vectors, vectors_to_array
from repro.sim.workloads import balanced_condition_vectors, gcd_trace_vectors
from tests.strategies import circuits


def assert_identical(design, vectors, power_management):
    """Vectorized == compiled == interpreter: outputs + full activity."""
    legacy = RTLSimulator(design, power_management=power_management)
    louts, lact = legacy.run_many(vectors)
    compiled = CompiledEngine(design, power_management=power_management)
    couts, cact = compiled.run_many(vectors)
    vector = VectorizedEngine(design, power_management=power_management)
    vouts, vact = vector.run_many(vectors)
    assert vouts == couts == louts
    assert vact.fu_input_toggles == cact.fu_input_toggles
    assert vact.fu_output_toggles == cact.fu_output_toggles
    assert vact.fu_activations == cact.fu_activations
    assert vact.fu_idles == cact.fu_idles
    assert vact.register_toggles == cact.register_toggles
    assert vact.controller_cycles == cact.controller_cycles
    assert vact.controller_literals == cact.controller_literals
    assert vact == cact == lact


class TestMaskedForwardFill:
    """``_masked_ffill`` == sequential carry propagation, seeded by the
    scalar carry of the previous block."""

    @staticmethod
    def sequential(values, mask, carry):
        out, cur = [], carry
        for value, taken in zip(values, mask):
            if taken:
                cur = int(value)
            out.append(cur)
        return out

    @pytest.mark.parametrize("n,carry,taken", [
        (1, 0, 0.4), (1, -3, 0.4), (64, 7, 0.4), (65, -1, 0.4),
        (100, 0, 0.4), (100, -5, 0.4), (130, 3, 0.4),
        (10, 99, 1.0), (10, -7, 0.0),  # all taken; none: the carry holds
    ])
    def test_matches_sequential_scan(self, n, carry, taken):
        import numpy as np

        rng = np.random.default_rng(n * 1000 + carry % 97)
        values = rng.integers(-128, 128, size=n, dtype=np.int64)
        mask = rng.random(n) < taken
        got = _masked_ffill(values, mask, carry, np.arange(1, n + 1))
        assert got.tolist() == self.sequential(values, mask, carry)


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


    @pytest.mark.parametrize("n_stages,width", [(1, 2), (4, 4), (12, 4),
                                                (6, 8)])
    def test_pure_logic_circuit(self, n_stages, width):
        """Logic-only dataflow: no arithmetic, every lane a logic chain."""
        from repro.circuits.extra import logic_mixer

        graph = logic_mixer(n_stages=n_stages, width=width)
        pair = run_pair(graph,
                        FlowConfig(n_steps=critical_path_length(graph) + 1))
        vectors = random_vectors(graph, 70, seed=n_stages)
        for result in (pair.managed, pair.baseline):
            for pm in (True, False):
                assert_identical(result.design, vectors, pm)

    @pytest.mark.parametrize("name", ["dealer", "gcd", "vender", "cordic"])
    def test_suite_batch_boundaries(self, name):
        """A split block threads state like one block, in both modes."""
        graph = build(name)
        steps = critical_path_length(graph) + 1
        design = run_pair(graph, FlowConfig(n_steps=steps)).managed.design
        n, cut = (8, 3) if name == "cordic" else (150, 70)
        vectors = random_vectors(graph, n, seed=steps)
        for pm in (True, False):
            one = CompiledEngine(design, power_management=pm).run_batch(
                vectors)
            split = VectorizedEngine(design, power_management=pm)
            parts = [split.run_batch(vectors[:cut]),
                     split.run_batch(vectors[cut:])]
            assert sum((p.outputs for p in parts), []) == one.outputs
            merged = ActivityCounter(width=design.width)
            for p in parts:
                merged.merge(p.activity)
            assert merged == one.activity


class TestBatchShapes:
    @pytest.mark.parametrize("sizes", [
        (1,), (2,), (1, 1, 1), (4095,), (1, 4095), (7, 64, 1, 28),
    ])
    def test_odd_batch_sizes(self, gcd_graph, sizes):
        """Splitting across odd block boundaries changes nothing."""
        design = run_pair(gcd_graph, FlowConfig(n_steps=7)).managed.design
        total = sum(sizes)
        vectors = random_vectors(gcd_graph, total)
        one = CompiledEngine(design).run_batch(vectors)
        split = VectorizedEngine(design)
        merged = ActivityCounter(width=design.width)
        outputs = []
        offset = 0
        for size in sizes:
            part = split.run_batch(vectors[offset:offset + size])
            outputs += part.outputs
            merged.merge(part.activity)
            offset += size
        assert outputs == one.outputs
        assert merged == one.activity

    def test_empty_batch_is_identity(self, gcd_graph):
        design = run_pair(gcd_graph, FlowConfig(n_steps=7)).managed.design
        engine = VectorizedEngine(design)
        before = engine.state()
        result = engine.run_batch([])
        assert result.outputs == []
        assert result.activity == ActivityCounter(width=design.width)
        assert engine.state() == before
        assert engine.samples == 0

    def test_run_array_matches_run_batch(self, gcd_graph):
        design = run_pair(gcd_graph, FlowConfig(n_steps=7)).managed.design
        vectors = random_vectors(gcd_graph, 33)
        a = VectorizedEngine(design)
        b = VectorizedEngine(design)
        matrix = vectors_to_array(vectors, a.input_names)
        array_result = a.run_array(matrix)
        batch_result = b.run_batch(vectors)
        assert array_result.activity == batch_result.activity
        assert array_result.samples == batch_result.samples == 33
        for name, column in array_result.outputs.items():
            assert column.tolist() == [o[name] for o in batch_result.outputs]

    def test_missing_input_raises_like_compiled(self, gcd_graph):
        design = run_pair(gcd_graph, FlowConfig(n_steps=7)).managed.design
        engine = VectorizedEngine(design)
        with pytest.raises(KeyError, match="missing input"):
            engine.run_batch([{"a": 1}])

    def test_bad_matrix_shape_raises(self, gcd_graph):
        import numpy as np

        design = run_pair(gcd_graph, FlowConfig(n_steps=7)).managed.design
        engine = VectorizedEngine(design)
        with pytest.raises(ValueError, match="input matrix"):
            engine.run_array(np.zeros((4, 7), dtype=np.int64))

    def test_float_matrix_raises(self, gcd_graph):
        """No silent truncation: a float matrix fails loudly."""
        import numpy as np

        design = run_pair(gcd_graph, FlowConfig(n_steps=7)).managed.design
        engine = VectorizedEngine(design)
        with pytest.raises(TypeError, match="integer dtype"):
            engine.run_array(np.zeros((8, 2), dtype=np.float64))


class TestBackendSelection:
    def test_create_engine_backends(self, gcd_graph):
        design = run_pair(gcd_graph, FlowConfig(n_steps=7)).managed.design
        assert isinstance(create_engine(design, backend="compiled"),
                          CompiledEngine)
        assert isinstance(create_engine(design, backend="vectorized"),
                          VectorizedEngine)
        assert isinstance(create_engine(design, backend="auto"),
                          VectorizedEngine)

    def test_create_engine_records_choice(self, gcd_graph):
        design = run_pair(gcd_graph, FlowConfig(n_steps=7)).managed.design
        for requested, resolved in [("compiled", "compiled"),
                                    ("vectorized", "vectorized"),
                                    ("auto", "vectorized")]:
            engine = create_engine(design, backend=requested)
            assert engine.chosen_backend == resolved, requested

    def test_unknown_backend_rejected(self, gcd_graph):
        design = run_pair(gcd_graph, FlowConfig(n_steps=7)).managed.design
        with pytest.raises(ValueError, match="unknown simulation backend"):
            create_engine(design, backend="fortran")

    def test_packed_backend_is_gone(self, gcd_graph):
        """The bit-packed backend was deleted: naming it is an error."""
        from repro.sim.backend import BACKENDS

        design = run_pair(gcd_graph, FlowConfig(n_steps=7)).managed.design
        assert "packed" not in BACKENDS
        with pytest.raises(ValueError, match="unknown simulation backend"):
            create_engine(design, backend="packed")


class TestWidthEnvelope:
    """Widths past the int64 headroom refuse to vectorize; ``auto``
    then builds the compiled engine."""

    @staticmethod
    def design_at(graph, width):
        return run_pair(graph, FlowConfig(n_steps=7,
                                          width=width)).managed.design

    def test_widest_vectorizable_design_identical(self, gcd_graph):
        from repro.sim.backend import VECTOR_WIDTH_LIMIT

        design = self.design_at(gcd_graph, VECTOR_WIDTH_LIMIT)
        vectors = random_vectors(gcd_graph, 24, width=VECTOR_WIDTH_LIMIT,
                                 seed=5)
        for pm in (True, False):
            assert_identical(design, vectors, pm)

    def test_too_wide_design_raises(self, gcd_graph):
        from repro.sim.backend import VECTOR_WIDTH_LIMIT

        design = self.design_at(gcd_graph, VECTOR_WIDTH_LIMIT + 1)
        with pytest.raises(VectorizationError, match="int64 headroom"):
            VectorizedEngine(design)

    def test_auto_builds_compiled_past_the_limit(self, gcd_graph):
        from repro.sim.backend import VECTOR_WIDTH_LIMIT

        design = self.design_at(gcd_graph, VECTOR_WIDTH_LIMIT + 1)
        engine = create_engine(design, backend="auto")
        assert isinstance(engine, CompiledEngine)
        assert engine.chosen_backend == "compiled"
        assert "exceeds the vectorized limit" in engine.backend_reason


class TestGeneratedCircuitFuzz:
    """Differential fuzz over the seeded ``repro.gen`` workload families.

    220 deterministic seeds (no Hypothesis shrinking budget — every seed
    runs every time) are synthesized baseline + managed and executed on
    all three backends; outputs and the full merged activity must be
    bit-identical, and outputs must also match the functional reference
    model evaluated on the input CDFG.  Every seed must vectorize with
    **zero** fallbacks: none of these families builds a cross-vector
    recurrence through guarded state.
    """

    #: (preset, seed range) — 220 seeds total, ≥200 per the acceptance
    #: criteria, spread over op-mix/branchiness/shape families.
    PLANS = [
        ("small", range(0, 100)),
        ("branchy", range(0, 60)),
        ("medium", range(0, 40)),
        ("deep", range(0, 20)),
    ]

    @pytest.mark.parametrize("preset,seeds", [
        (preset, chunk)
        for preset, seed_range in PLANS
        for chunk in (tuple(seed_range)[i:i + 20]
                      for i in range(0, len(seed_range), 20))
    ], ids=lambda value: value if isinstance(value, str)
        else f"{value[0]}-{value[-1]}")
    def test_three_backends_bit_identical(self, preset, seeds):
        from repro.sim.reference import evaluate

        for seed in seeds:
            spec = f"gen:{preset}:{seed}"
            graph = build(spec)
            cp = critical_path_length(graph)
            pair = run_pair(graph, FlowConfig(n_steps=cp + seed % 3))
            vectors = random_vectors(graph, 4, seed=seed)
            expected = [evaluate(graph, v, width=pair.managed.design.width)
                        for v in vectors]
            for result in (pair.managed, pair.baseline):
                for pm in (True, False):
                    # No try/except: VectorizationError here is a bug.
                    assert_identical(result.design, vectors, pm)
                # auto never falls back to the compiled engine here.
                engine = create_engine(result.design, backend="auto")
                assert engine.chosen_backend == "vectorized", spec
                # Functionally correct, not just mutually consistent.
                outputs, _ = CompiledEngine(result.design).run_many(vectors)
                assert outputs == expected, spec


class TestGatedRecurrenceRegression:
    """Pinned 14-node circuit whose guarded state has no closed form.

    Hypothesis (seed 0) found it through
    ``test_batch_boundaries_do_not_matter``: power management leaves a
    register that is written under a guard and read stale within the same
    step, an irreducible cross-vector recurrence.  The vectorized codegen
    refuses it with :class:`VectorizationError`, and ``auto`` builds the
    compiled engine instead.  The circuit is frozen as
    :func:`repro.circuits.extra.gated_recurrence` so the regression stays
    deterministic even if the strategy or its shrinker changes.
    """

    @pytest.fixture(scope="class")
    def recurrent_design(self):
        from repro.circuits.extra import gated_recurrence

        graph = gated_recurrence()
        cp = critical_path_length(graph)
        design = run_pair(graph, FlowConfig(n_steps=cp + 1)).managed.design
        return graph, design

    def test_vectorized_engine_refuses_it(self, recurrent_design):
        _, design = recurrent_design
        with pytest.raises(VectorizationError, match="recurrence"):
            VectorizedEngine(design)
        with pytest.raises(VectorizationError, match="recurrence"):
            create_engine(design, backend="vectorized")

    def test_power_management_off_still_vectorizes(self, recurrent_design):
        """Without guards there is no masked scan, so no recurrence."""
        graph, design = recurrent_design
        assert_identical(design, random_vectors(graph, 48, seed=0), False)

    def test_auto_builds_compiled_naming_the_recurrence(
            self, recurrent_design):
        _, design = recurrent_design
        engine = create_engine(design, n_vectors=4096)
        assert isinstance(engine, CompiledEngine)
        assert engine.chosen_backend == "compiled"
        assert engine.backend_reason.startswith("auto: ")
        assert "cross-vector recurrence" in engine.backend_reason

    def test_auto_engine_matches_interpreter_over_split_batches(
            self, recurrent_design):
        graph, design = recurrent_design
        vectors = random_vectors(graph, 9, seed=0)
        engine = create_engine(design, n_vectors=4096)
        reference = RTLSimulator(design)
        merged = ActivityCounter(width=design.width)
        outputs = []
        for part in (vectors[:4], vectors[4:]):
            result = engine.run_batch(part)
            outputs += result.outputs
            merged.merge(result.activity)
        louts, lact = reference.run_many(vectors)
        assert outputs == louts
        assert merged == lact

    def test_refusal_is_cached(self, recurrent_design, monkeypatch):
        """A second build does not run the failed codegen again."""
        from repro.sim import vectorized
        from repro.sim.engine import clear_compile_caches

        _, design = recurrent_design
        clear_compile_caches()
        calls = []
        real = vectorized.generate_vector_source

        def counting(plan, power_management):
            calls.append(power_management)
            return real(plan, power_management)

        monkeypatch.setattr(vectorized, "generate_vector_source", counting)
        first = create_engine(design, n_vectors=4096)
        second = create_engine(design, n_vectors=4096)
        assert calls == [True]
        assert first.backend_reason == second.backend_reason
        with pytest.raises(VectorizationError, match="recurrence"):
            VectorizedEngine(design)
        assert calls == [True]


class TestStateParity:
    """The two engines name and hold the same hardware state: registers,
    latches and FU outputs, after the same split batches."""

    @pytest.mark.parametrize("name", ["dealer", "gcd", "vender", "cordic"])
    def test_state_equal_after_split_batches(self, name):
        graph = build(name)
        steps = critical_path_length(graph) + 1
        pair = run_pair(graph, FlowConfig(n_steps=steps))
        n, cut = (8, 3) if name == "cordic" else (90, 41)
        vectors = random_vectors(graph, n, seed=steps)
        for design in (pair.managed.design, pair.baseline.design):
            for pm in (True, False):
                compiled = CompiledEngine(design, power_management=pm)
                vector = VectorizedEngine(design, power_management=pm)
                for part in (vectors[:cut], vectors[cut:]):
                    compiled.run_batch(part)
                    vector.run_batch(part)
                assert vector.state() == compiled.state(), (name, pm)
                assert any(vector.state().values())


class TestRandomCircuits:
    @settings(max_examples=40, deadline=None)
    @given(circuits(max_ops=10), st.integers(min_value=0, max_value=2),
           st.integers(min_value=0, max_value=10_000))
    def test_vectorized_equals_compiled_and_legacy(self, graph, slack, seed):
        cp = critical_path_length(graph)
        pair = run_pair(graph, FlowConfig(n_steps=cp + slack))
        vectors = random_vectors(graph, 6, seed=seed)
        for result in (pair.managed, pair.baseline):
            for pm in (True, False):
                # None of these examples builds a cross-vector
                # recurrence; nothing may raise or fall back.
                assert_identical(result.design, vectors, pm)

    @settings(max_examples=20, deadline=None)
    @given(circuits(max_ops=8), st.integers(min_value=0, max_value=10_000))
    def test_batch_boundaries_do_not_matter(self, graph, seed):
        cp = critical_path_length(graph)
        design = run_pair(graph, FlowConfig(n_steps=cp + 1)).managed.design
        vectors = random_vectors(graph, 9, seed=seed)
        one = VectorizedEngine(design).run_batch(vectors)
        split = VectorizedEngine(design)
        parts = [split.run_batch(vectors[:4]), split.run_batch(vectors[4:])]
        assert sum((p.outputs for p in parts), []) == one.outputs
        merged = ActivityCounter(width=design.width)
        for p in parts:
            merged.merge(p.activity)
        assert merged == one.activity
