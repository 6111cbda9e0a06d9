"""Compile-once semantics: plans and runners are cached by fingerprint."""

from dataclasses import replace

import pytest

from repro.alloc.fu_binding import FUInstance
from repro.alloc.register_alloc import Register
from repro.circuits import build
from repro.pipeline import FlowConfig, run_pair
from repro.rtl.guards import Guard, GuardTerm
from repro.sim.engine import (
    _RUNNER_CACHE,
    CompiledEngine,
    cached_plan,
    clear_compile_caches,
    design_fingerprint,
)
from repro.sim.vectorized import VectorizedEngine


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_compile_caches()
    yield
    clear_compile_caches()


def _design(steps=7):
    return run_pair(build("gcd"), FlowConfig(n_steps=steps)).managed.design


class TestFingerprint:
    def test_stable_across_equal_rebuilds(self):
        """Two independently synthesized but equal designs share one
        fingerprint — what lets explore() workers compile once."""
        assert design_fingerprint(_design()) == design_fingerprint(_design())

    def test_memoized_on_instance(self):
        design = _design()
        first = design_fingerprint(design)
        assert design.__dict__["_sim_fingerprint"] == first
        assert design_fingerprint(design) is first

    def test_differs_across_budgets_and_circuits(self):
        assert design_fingerprint(_design(7)) != design_fingerprint(_design(6))
        other = run_pair(build("dealer"),
                         FlowConfig(n_steps=6)).managed.design
        assert design_fingerprint(_design()) != design_fingerprint(other)

    def test_differs_between_managed_and_baseline(self):
        pair = run_pair(build("gcd"), FlowConfig(n_steps=7))
        assert design_fingerprint(pair.managed.design) \
            != design_fingerprint(pair.baseline.design)


def _perturbed(design):
    """One copy of ``design`` per field the fingerprint covers, each with
    that field alone changed, keyed by what was changed."""
    schedule, binding, registers = (design.schedule, design.binding,
                                    design.registers)
    op = next(n.nid for n in design.graph.operations())
    unit = binding.assignment[op]
    guarded = next(nid for nid, g in design.guards.items() if g.terms)
    guard = design.guards[guarded]
    first, *rest = guard.terms
    fewer_edges = design.graph.copy()
    fewer_edges.remove_control_edge(*design.graph.control_edges()[0])
    return {
        "start step": replace(design, schedule=replace(
            schedule, start={**schedule.start,
                             op: schedule.start[op] + 1})),
        "unit binding": replace(design, binding=replace(
            binding, assignment={**binding.assignment, op: FUInstance(
                unit.resource, unit.index + 1)})),
        "register": replace(design, registers=replace(
            registers, assignment={**registers.assignment, op: Register(
                registers.register_of(op).index + 1)})),
        "guard term": replace(design, guards={
            **design.guards, guarded: Guard(
                terms=(GuardTerm(first.driver, 1 - first.value), *rest),
                never=guard.never)}),
        "width": replace(design, width=design.width + 1),
        "controller literals": replace(design, controller=replace(
            design.controller,
            input_loads=design.controller.input_loads + 1)),
        "control edge": replace(design, schedule=replace(
            schedule, graph=fewer_edges)),
    }


class TestFingerprintCoverage:
    """Every field plan compilation reads is in the key, and nothing
    else: the order control edges were added in is not."""

    def test_each_covered_field_changes_the_key(self):
        design = run_pair(build("vender"), FlowConfig(n_steps=6)) \
            .managed.design
        key = design_fingerprint(design)
        changed = {field: design_fingerprint(variant)
                   for field, variant in _perturbed(design).items()}
        assert sorted(changed) == sorted((
            "start step", "unit binding", "register", "guard term",
            "width", "controller literals", "control edge"))
        for field, variant_key in changed.items():
            assert variant_key != key, field
        assert len(set(changed.values())) == len(changed)

    def test_control_edges_are_hashed_as_a_set(self):
        design = run_pair(build("vender"), FlowConfig(n_steps=6)) \
            .managed.design
        edges = design.graph.control_edges()
        reordered = design.graph.copy()
        reordered.clear_control_edges()
        for src, dst in reversed(edges):
            reordered.add_control_edge(src, dst)
        assert reordered.control_edges() != edges
        assert sorted(reordered.control_edges()) == sorted(edges)
        variant = replace(design, schedule=replace(design.schedule,
                                                   graph=reordered))
        assert design_fingerprint(variant) == design_fingerprint(design)


class TestCompileOnce:
    def test_plan_shared_across_engines(self):
        design = _design()
        assert cached_plan(design) is cached_plan(design)
        a = CompiledEngine(design)
        b = CompiledEngine(design)
        assert a.plan is b.plan
        assert a._run is b._run  # the exec-compiled runner is reused

    def test_plan_shared_across_equal_designs(self):
        a = CompiledEngine(_design())
        b = CompiledEngine(_design())
        assert a.plan is b.plan

    def test_backends_share_one_plan(self):
        design = _design()
        assert CompiledEngine(design).plan is VectorizedEngine(design).plan

    def test_pm_modes_share_one_runner(self):
        """The compiled runner takes the mode as an argument: one cache
        entry per design.  The vectorized runner stays per mode."""
        design = _design()
        on = CompiledEngine(design, power_management=True)
        off = CompiledEngine(design, power_management=False)
        assert on._run is off._run
        assert on.plan is off.plan
        assert list(_RUNNER_CACHE) == [design_fingerprint(design)]
        assert VectorizedEngine(design, power_management=True).source \
            != VectorizedEngine(design, power_management=False).source

    def test_cached_engines_stay_independent(self):
        """Shared runners, private state: one engine's batches must not
        leak into another's counters."""
        from repro.sim.vectors import random_vectors

        design = _design()
        a = CompiledEngine(design)
        b = CompiledEngine(design)
        vectors = random_vectors(design.graph, 8)
        a.run_batch(vectors)
        assert a.samples == 8
        assert b.samples == 0
        fresh = CompiledEngine(design).run_batch(vectors)
        assert fresh.activity == CompiledEngine(design).run_batch(vectors).activity


class TestOneProgram:
    """One compiled program per design serves every caller: both modes,
    outputs-only checks and activity counts."""

    def test_one_cache_entry_for_modes_and_equal_designs(self):
        design = _design()
        on = CompiledEngine(design, power_management=True)
        off = CompiledEngine(_design(), power_management=False)
        assert on._run is off._run
        assert list(_RUNNER_CACHE) == [design_fingerprint(design)]

    def test_clear_flushes_runner_and_layout(self):
        """The counting layout lives in the runner's cache entry, so a
        cleared cache rebuilds both."""
        from repro.sim.vectors import random_vectors

        design = _design()
        engine = CompiledEngine(design)
        runner = _RUNNER_CACHE[design_fingerprint(design)]
        assert "layout" not in runner.__dict__  # nothing counted yet
        engine.run_batch(random_vectors(design.graph, 4)).activity
        layout = runner.__dict__["layout"]
        clear_compile_caches()
        assert not _RUNNER_CACHE
        CompiledEngine(design).run_batch(
            random_vectors(design.graph, 4)).activity
        rebuilt = _RUNNER_CACHE[design_fingerprint(design)]
        assert rebuilt is not runner
        assert rebuilt.__dict__["layout"] is not layout

    @pytest.mark.parametrize("pm", [True, False])
    def test_warm_runner_counts_like_fresh_engines(self, pm):
        """One cached runner and layout counted at 16, 128 and 16
        vectors gives what engines built from cleared caches give."""
        from repro.sim.vectors import random_vectors

        design = _design()
        sizes = (16, 128, 16)
        batches = [random_vectors(design.graph, n, seed=i)
                   for i, n in enumerate(sizes)]
        warm = []
        for batch in batches:
            result = CompiledEngine(design,
                                    power_management=pm).run_batch(batch)
            warm.append((result.outputs, result.activity))
        assert len(_RUNNER_CACHE) == 1
        for batch, (outputs, activity) in zip(batches, warm):
            clear_compile_caches()
            fresh = CompiledEngine(design,
                                   power_management=pm).run_batch(batch)
            assert (fresh.outputs, fresh.activity) == (outputs, activity)

    def test_state_names_registers_latches_and_fu_outputs(self):
        design = _design()
        engine = CompiledEngine(design)
        plan = engine.plan
        assert list(engine.state()) == (
            [f"r{reg}" for reg in plan.registers]
            + [f"l{u}_{p}" for u, p in plan.latch_ports]
            + [f"fo{u}" for u in range(plan.n_units)])
        assert "bit_count" not in engine.source
        assert "_rt" not in engine.source

    def test_missing_input_keeps_the_state(self):
        engine = CompiledEngine(_design())
        engine.run_batch([{"a": 12, "b": 18}])
        before = engine.state()
        with pytest.raises(KeyError, match="missing input 'b'"):
            engine.run_batch([{"a": 3, "b": 4}, {"a": 5}])
        assert engine.state() == before
        assert engine.samples == 1
