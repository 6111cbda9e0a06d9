"""The verify stage catches a broken design, in the mode it is broken in.

``VerifyStage`` runs the design's compiled program against the
reference model with power management on and off.  A flipped guard term
only matters while the guards are obeyed, so it must fail the PM-on
check and pass the PM-off one; a corrupted destination register breaks
the datapath itself, so it must fail both.
"""

from dataclasses import replace
from functools import lru_cache

import pytest

from repro.circuits import build
from repro.pipeline import FlowConfig, Pipeline
from repro.pipeline.stages import StageError, VerifyStage
from repro.rtl.guards import Guard, GuardTerm
from repro.sim.backend import create_engine
from repro.sim.reference import evaluate
from repro.sim.vectors import random_vectors


@lru_cache(maxsize=None)
def verified_context():
    graph = build("vender")
    ctx = Pipeline().run_context(graph, FlowConfig(n_steps=6, verify=True))
    assert ctx.get("verified") is True
    assert ctx.get("design").is_power_managed
    return ctx


def diverges(graph, design, power_management):
    """The verify stage's functional check, in one mode."""
    stage = VerifyStage()
    vectors = random_vectors(graph, stage.n_check_vectors,
                             width=design.width, seed=stage.check_seed)
    engine = create_engine(design, power_management=power_management,
                           backend="compiled")
    return engine.run_batch(vectors).outputs != [
        evaluate(graph, v, width=design.width) for v in vectors]


def verify(design):
    """Run the verify stage on ``design`` in place of the elaborated one."""
    ctx = verified_context()
    original = ctx.get("design")
    ctx.put("design", design, "elaborate")
    try:
        return VerifyStage().run(ctx)
    finally:
        ctx.put("design", original, "elaborate")


def flipped_guard(design):
    """``design`` with the first term of its first gated op negated."""
    nid, guard = next((nid, guard)
                      for nid, guard in sorted(design.guards.items())
                      if guard.terms)
    first, *rest = guard.terms
    flipped = Guard(terms=(GuardTerm(first.driver, 1 - first.value),
                           *rest))
    return replace(design, guards={**design.guards, nid: flipped})


def clobbering_register(design):
    """``design`` with an unconditional op's result written into the
    register of an input that is still read after the op finishes."""
    registers = design.registers
    inputs = [node.nid for node in design.graph.inputs()]
    for node in design.graph.operations():
        if not design.guards[node.nid].is_unconditional:
            continue
        finish = design.schedule.finish_of(node.nid)
        live = [nid for nid in inputs
                if registers.lifetimes[nid].last_read > finish]
        if live:
            assignment = {**registers.assignment,
                          node.nid: registers.assignment[live[0]]}
            return replace(design, registers=replace(
                registers, assignment=assignment))
    raise AssertionError("no input outlives an unconditional op")


def test_intact_design_passes_in_both_modes():
    ctx = verified_context()
    design = ctx.get("design")
    assert verify(design) == {"verified": True}
    for pm in (True, False):
        assert not diverges(ctx.graph, design, pm)


def test_flipped_guard_fails_only_under_power_management():
    ctx = verified_context()
    broken = flipped_guard(ctx.get("design"))
    with pytest.raises(StageError, match=r"power_management=True\)"):
        verify(broken)
    assert diverges(ctx.graph, broken, True)
    assert not diverges(ctx.graph, broken, False)


def test_clobbered_register_fails_in_both_modes():
    ctx = verified_context()
    broken = clobbering_register(ctx.get("design"))
    with pytest.raises(StageError, match="diverges from the reference"):
        verify(broken)
    assert diverges(ctx.graph, broken, True)
    assert diverges(ctx.graph, broken, False)



def test_verify_counts_no_activity(monkeypatch):
    """The check reads outputs only, so it never counts activity."""
    import repro.sim.engine as engine

    def no_count(*args):
        raise AssertionError("the verify stage counted activity")

    monkeypatch.setattr(engine, "_count", no_count)
    engine.clear_compile_caches()
    ctx = Pipeline().run_context(build("gcd"),
                                 FlowConfig(n_steps=7, verify=True))
    assert ctx.get("verified") is True
