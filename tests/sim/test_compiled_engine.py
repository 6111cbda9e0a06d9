"""Unit tests for the compiled batch simulation engine."""

import pytest

from repro.ir.ops import ResourceClass
from repro.pipeline import FlowConfig, run_pair
from repro.sim.activity import ActivityCounter
from repro.sim.engine import (
    CompiledEngine,
    compile_plan,
    generate_outputs_source,
)
from repro.sim.simulator import RTLSimulator
from repro.sim.vectors import iter_random_vectors, random_vectors
from tests.sim.engine_state import interpreter_state


@pytest.fixture
def dealer_design(dealer_graph):
    return run_pair(dealer_graph, FlowConfig(n_steps=6)).managed.design


class TestBatchExecution:
    def test_matches_legacy_run_many(self, dealer_graph, dealer_design):
        vectors = random_vectors(dealer_graph, 50)
        louts, lact = RTLSimulator(dealer_design).run_many(vectors)
        eouts, eact = CompiledEngine(dealer_design).run_many(vectors)
        assert eouts == louts
        assert eact == lact

    def test_split_batches_equal_one_batch(self, dealer_graph,
                                           dealer_design):
        """Persistent state makes batch boundaries invisible."""
        vectors = random_vectors(dealer_graph, 40)
        whole = CompiledEngine(dealer_design)
        one = whole.run_batch(vectors)

        split = CompiledEngine(dealer_design)
        first = split.run_batch(vectors[:13])
        second = split.run_batch(vectors[13:])
        assert first.outputs + second.outputs == one.outputs
        merged = ActivityCounter(width=dealer_design.width)
        merged.merge(first.activity)
        merged.merge(second.activity)
        assert merged == one.activity

    def test_accepts_streaming_input(self, dealer_graph, dealer_design):
        stream = iter_random_vectors(dealer_graph, 25)
        result = CompiledEngine(dealer_design).run_batch(stream)
        assert result.samples == 25
        expected = CompiledEngine(dealer_design).run_batch(
            random_vectors(dealer_graph, 25))
        assert result.outputs == expected.outputs
        assert result.activity == expected.activity

    def test_warm_state_sees_no_input_toggles(self, abs_diff_graph):
        """A warm datapath replaying the same vector switches nothing
        (each abs_diff op has its own unit, so latches hold steady)."""
        design = run_pair(abs_diff_graph,
                          FlowConfig(n_steps=3)).managed.design
        engine = CompiledEngine(design)
        vec = random_vectors(abs_diff_graph, 1)
        engine.run_batch(vec)
        repeat = engine.run_batch(vec)
        assert sum(repeat.activity.fu_input_toggles.values()) == 0

    def test_reset_returns_to_cold_state(self, dealer_graph, dealer_design):
        engine = CompiledEngine(dealer_design)
        vectors = random_vectors(dealer_graph, 10)
        cold = engine.run_batch(vectors)
        engine.reset()
        assert engine.samples == 0
        again = engine.run_batch(vectors)
        assert again.outputs == cold.outputs
        assert again.activity == cold.activity

    def test_missing_input_raises(self, dealer_design):
        engine = CompiledEngine(dealer_design)
        with pytest.raises(KeyError, match="missing input"):
            engine.run_batch([{"p": 1}])

    def test_samples_accumulate(self, dealer_graph, dealer_design):
        engine = CompiledEngine(dealer_design)
        engine.run_batch(random_vectors(dealer_graph, 7))
        engine.run_batch(random_vectors(dealer_graph, 5))
        assert engine.samples == 12

    def test_power_management_off_never_idles(self, dealer_graph,
                                              dealer_design):
        engine = CompiledEngine(dealer_design, power_management=False)
        result = engine.run_batch(random_vectors(dealer_graph, 20))
        assert result.activity.total_idles() == 0


class TestPlanCompilation:
    def test_plan_shape(self, dealer_graph, dealer_design):
        plan = compile_plan(dealer_design)
        assert plan.n_steps == 6
        assert [name for name, _ in plan.inputs] == \
            [n.name for n in dealer_graph.inputs()]
        assert [name for name, _ in plan.outputs] == \
            [n.name for n in dealer_graph.outputs()]
        assert len(plan.steps) == plan.n_steps
        starts = sum(len(s.starts) for s in plan.steps)
        ends = sum(len(s.ends) for s in plan.steps)
        assert starts == ends == len(dealer_graph.operations())
        assert ResourceClass.MUX in plan.classes

    def test_operand_sources_are_preresolved(self, dealer_design):
        plan = compile_plan(dealer_design)
        for step in plan.steps:
            for start in step.starts:
                for source in start.sources:
                    assert (source.const is None) != (source.register is None)

    def test_generated_source_is_python(self, dealer_design):
        plan = compile_plan(dealer_design)
        source = generate_outputs_source(plan)
        assert source.startswith("def _run(_vectors, _state, _pm):")
        compile(source, "<test>", "exec")  # must parse
        for pm in (True, False):
            engine = CompiledEngine(dealer_design, power_management=pm)
            assert engine.source == source

    def test_state_snapshot_named(self, dealer_graph, dealer_design):
        """Registers, latches and FU outputs, named as the vectorized
        engine names them, equal to the interpreter's hardware state."""
        engine = CompiledEngine(dealer_design)
        assert all(value == 0 for value in engine.state().values())
        vectors = random_vectors(dealer_graph, 3)
        engine.run_batch(vectors)  # its activity is never read
        reference = RTLSimulator(dealer_design)
        reference.run_many(vectors)
        assert engine.state() == interpreter_state(reference)


def _suite_design(name):
    from repro.circuits import build
    from repro.circuits.extra import gated_recurrence, logic_mixer
    from repro.sched.timing import critical_path_length

    graph = {"gated_recurrence": gated_recurrence,
             "logic_mixer": logic_mixer}.get(name, lambda: build(name))()
    steps = critical_path_length(graph) + 1
    return graph, run_pair(graph, FlowConfig(n_steps=steps)).managed.design


class TestRunTimeMode:
    """Power management is an argument of the runner, not of its code."""

    @pytest.mark.parametrize("name", ["dealer", "gcd", "vender", "cordic",
                                      "gated_recurrence", "logic_mixer"])
    def test_one_runner_matches_interpreter_per_mode(self, name):
        graph, design = _suite_design(name)
        n = 8 if name == "cordic" else 40
        vectors = random_vectors(graph, n, seed=n)
        engines = {pm: CompiledEngine(design, power_management=pm)
                   for pm in (True, False)}
        assert engines[True]._run is engines[False]._run
        for pm, engine in engines.items():
            head = engine.run_batch(vectors[:n // 3])
            tail = engine.run_batch(vectors[n // 3:])
            merged = ActivityCounter(width=design.width)
            merged.merge(head.activity)
            merged.merge(tail.activity)
            expected = RTLSimulator(design,
                                    power_management=pm).run_many(vectors)
            assert (head.outputs + tail.outputs, merged) == expected, pm

    def test_guarded_start_tests_the_mode(self, dealer_design):
        source = generate_outputs_source(compile_plan(dealer_design))
        assert any(guard.terms for guard in dealer_design.guards.values())
        assert " = not _pm or (" in source

    def test_ungated_design_never_reads_the_mode(self, dealer_graph):
        design = run_pair(dealer_graph, FlowConfig(n_steps=6)).baseline.design
        assert all(guard.is_unconditional
                   for guard in design.guards.values())
        source = generate_outputs_source(compile_plan(design))
        assert source.count("_pm") == 1  # the signature only
        assert CompiledEngine(design, power_management=False).run_many(
            random_vectors(dealer_graph, 12)) == CompiledEngine(
                design).run_many(random_vectors(dealer_graph, 12))


def segments(sim: RTLSimulator, batches) -> list[ActivityCounter]:
    """The interpreter's activity per batch, its state carried across."""
    return [sim.run_many(batch)[1] for batch in batches]


class TestLazyCounting:
    """A batch's activity is counted from its trace on first read, or
    before the engine's next batch; either way the latches and FU
    outputs it leaves carry into that next batch."""

    @pytest.mark.parametrize("pm", [True, False])
    def test_unread_middle_batch_still_carries_state(self, dealer_graph,
                                                     dealer_design, pm):
        vectors = random_vectors(dealer_graph, 30, seed=3)
        batches = [vectors[:9], vectors[9:20], vectors[20:]]
        engine = CompiledEngine(dealer_design, power_management=pm)
        first, middle, last = (engine.run_batch(b) for b in batches)
        reference = RTLSimulator(dealer_design, power_management=pm)
        expected = segments(reference, batches)
        assert first.activity == expected[0]
        assert last.activity == expected[2]  # middle never read
        one = CompiledEngine(dealer_design,
                             power_management=pm).run_batch(vectors)
        whole = RTLSimulator(dealer_design,
                             power_management=pm).run_many(vectors)
        assert first.outputs + middle.outputs + last.outputs \
            == one.outputs == whole[0]
        merged = ActivityCounter(width=dealer_design.width)
        for counter in expected:
            merged.merge(counter)
        assert one.activity == merged == whole[1]
        assert engine.state() == interpreter_state(reference)

    def test_read_after_the_next_batch(self, dealer_graph, dealer_design):
        vectors = random_vectors(dealer_graph, 20, seed=4)
        engine = CompiledEngine(dealer_design)
        head = engine.run_batch(vectors[:8])
        tail = engine.run_batch(vectors[8:])
        expected = segments(RTLSimulator(dealer_design),
                            [vectors[:8], vectors[8:]])
        assert [tail.activity, head.activity] == expected[::-1]

    def test_empty_batch_counts_zero_and_keeps_the_carry(self, dealer_graph,
                                                         dealer_design):
        vectors = random_vectors(dealer_graph, 12, seed=5)
        engine = CompiledEngine(dealer_design)
        engine.run_batch(vectors[:5])
        before = engine.state()
        empty = engine.run_batch([])
        assert empty.samples == 0
        assert empty.activity == ActivityCounter(width=dealer_design.width)
        assert engine.state() == before
        rest = engine.run_batch(vectors[5:])
        expected = segments(RTLSimulator(dealer_design),
                            [vectors[:5], vectors[5:]])
        assert rest.activity == expected[1]

    def test_reset_drops_the_pending_trace(self, dealer_graph,
                                           dealer_design):
        vectors = random_vectors(dealer_graph, 10, seed=6)
        engine = CompiledEngine(dealer_design)
        engine.run_batch(vectors)  # never read
        engine.reset()
        assert set(engine.state().values()) == {0}
        cold = CompiledEngine(dealer_design).run_batch(vectors)
        again = engine.run_batch(vectors)
        assert (again.outputs, again.activity) == (cold.outputs,
                                                   cold.activity)


class TestWideDatapaths:
    """Above the int64 limit the count runs on Python-int arrays."""

    @pytest.mark.parametrize("width", [63, 64, 70, 128])
    @pytest.mark.parametrize("name", ["vender", "chstone:adpcm"])
    def test_matches_the_interpreter(self, name, width):
        from repro.circuits import build
        from repro.sched.timing import critical_path_length

        graph = build(name)
        design = run_pair(graph, FlowConfig(
            n_steps=critical_path_length(graph) + 1,
            width=width)).managed.design
        vectors = random_vectors(graph, 24, width=width, seed=width)
        for pm in (True, False):
            engine = CompiledEngine(design, power_management=pm)
            results = [engine.run_batch(vectors[:7]),
                       engine.run_batch(vectors[7:])]
            reference = RTLSimulator(design, power_management=pm)
            assert [(r.outputs, r.activity) for r in results] == [
                reference.run_many(vectors[:7]),
                reference.run_many(vectors[7:])]
            assert engine.state() == interpreter_state(reference)
