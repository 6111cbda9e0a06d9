"""The pipeline reproduces the pre-1.1 monolithic flow byte for byte.

The old ``synthesize()`` sequence — validate, PM pass, minimum-resource
scheduling, elaborate — is inlined here as the reference; the pipeline
must produce identical ``SynthesisResult`` data for every registered
circuit, down to the generated VHDL text.
"""

import pytest

from repro.circuits import CIRCUITS, TABLE2_BUDGETS, build
from repro.core.pm_pass import PMOptions, apply_power_management
from repro.ir.validate import validate
from repro.pipeline import FlowConfig, Pipeline
from repro.rtl.design import elaborate
from repro.rtl.vhdl import generate_vhdl
from repro.sched.minimize import minimize_resources
from repro.sched.timing import critical_path_length


def legacy_flow(graph, n_steps, options=None, width=8,
                initiation_interval=None, mutex_sharing=False):
    """The seed's synthesize(), inlined (flow.py @ v1.0)."""
    validate(graph)
    pm = apply_power_management(graph, n_steps, options or PMOptions())
    minimized = minimize_resources(pm.graph, n_steps,
                                   initiation_interval=initiation_interval)
    return elaborate(pm, minimized.schedule, width=width,
                     mutex_sharing=mutex_sharing)


def assert_designs_identical(old_design, new_result):
    new_design = new_result.design
    assert generate_vhdl(old_design) == generate_vhdl(new_design)
    assert old_design.summary() == new_design.summary()
    assert old_design.schedule.table() == new_result.schedule.table()
    assert old_design.area() == new_design.area()
    assert old_design.pm.gating == new_result.pm.gating
    assert old_design.registers.assignment == \
        new_design.registers.assignment


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_pipeline_matches_legacy_flow_everywhere(name):
    graph = build(name)
    budgets = TABLE2_BUDGETS.get(
        name, [critical_path_length(graph) + 1])
    for steps in budgets:
        old = legacy_flow(graph, steps)
        new = Pipeline().run(graph, FlowConfig(n_steps=steps))
        assert_designs_identical(old, new)


@pytest.mark.parametrize("name", ["dealer", "gcd"])
def test_pipeline_matches_legacy_flow_with_options(name):
    graph = build(name)
    steps = critical_path_length(graph) + 2
    options = PMOptions(ordering="savings", partial=True)
    old = legacy_flow(graph, steps, options=options, width=16,
                      mutex_sharing=True)
    new = Pipeline().run(graph, FlowConfig(
        n_steps=steps, pm=options, width=16, mutex_sharing=True))
    assert_designs_identical(old, new)
    assert new.design.width == 16


def test_pipelined_pipeline_matches_legacy_flow(dealer_graph):
    old = legacy_flow(dealer_graph, 6, initiation_interval=3)
    new = Pipeline().run(dealer_graph,
                         FlowConfig(n_steps=6, initiation_interval=3))
    assert new.schedule.initiation_interval == 3
    assert_designs_identical(old, new)
