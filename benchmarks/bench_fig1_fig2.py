"""Paper Figures 1 and 2: the |a-b| running example.

Fig. 1: with two control steps the schedule is unique — comparison and
both subtractions in step 1 (two subtractors), mux in step 2; no power
management possible.

Fig. 2(a): three steps, traditional scheduling — one subtractor, both
subtractions still always execute.

Fig. 2(b): three steps, power-managed — the comparison runs in step 1 and
only the needed subtraction's operands are loaded in step 2.
"""

from __future__ import annotations

from conftest import print_table

from repro.circuits import abs_diff
from repro.core import apply_power_management
from repro.power import static_power
from repro.sched import minimize_resources


def regenerate_figures() -> dict[str, object]:
    graph = abs_diff()
    result: dict[str, object] = {}

    # Fig. 1 — two steps.
    pm2 = apply_power_management(graph, 2)
    sched2 = minimize_resources(pm2.graph, 2)
    result["fig1_managed"] = pm2.managed_count
    result["fig1_subs"] = sched2.allocation.as_dict().get("-", 0)
    result["fig1_schedule"] = sched2.schedule.table()

    # Fig. 2(a) — three steps, no PM.
    from repro.core import PMOptions
    pm3a = apply_power_management(graph, 3, PMOptions(enabled=False))
    sched3a = minimize_resources(pm3a.graph, 3)
    result["fig2a_subs"] = sched3a.allocation.as_dict().get("-", 0)
    result["fig2a_schedule"] = sched3a.schedule.table()

    # Fig. 2(b) — three steps with PM.
    pm3b = apply_power_management(graph, 3)
    sched3b = minimize_resources(pm3b.graph, 3)
    result["fig2b_managed"] = pm3b.managed_count
    result["fig2b_reduction"] = static_power(pm3b).reduction_pct
    result["fig2b_schedule"] = sched3b.schedule.table()
    result["fig2b_edges"] = len(pm3b.graph.control_edges())
    return result


def test_bench_fig1_fig2(benchmark):
    data = benchmark(regenerate_figures)

    print("\n=== Fig. 1: |a-b| with 2 control steps (no PM possible) ===")
    print(data["fig1_schedule"])
    assert data["fig1_managed"] == 0
    assert data["fig1_subs"] == 2  # the paper's "we need two subtractors"

    print("\n=== Fig. 2(a): 3 steps, traditional (1 subtractor) ===")
    print(data["fig2a_schedule"])
    assert data["fig2a_subs"] == 1

    print("\n=== Fig. 2(b): 3 steps, power managed ===")
    print(data["fig2b_schedule"])
    print(f"control edges added: {data['fig2b_edges']}, "
          f"datapath power reduction: {data['fig2b_reduction']:.1f}%")
    assert data["fig2b_managed"] == 1
    assert data["fig2b_reduction"] > 25.0
