"""Integration regressions: the measured counterparts of the paper tables.

These pin the numbers EXPERIMENTS.md reports.  Where our reconstruction
matches the paper exactly the assertion says so; elsewhere the paper value
appears in a comment so drift is visible in review.
"""

import pytest

from repro.circuits import TABLE2_BUDGETS, build
from repro.core.pm_pass import apply_power_management
from repro.pipeline import FlowConfig, run_pair
from repro.power.static import static_power


# (circuit, steps) -> (managed muxes, datapath power reduction %)
MEASURED_TABLE2 = {
    ("dealer", 4): (1, 16.67),   # paper: 1, 27.00
    ("dealer", 5): (3, 26.04),   # paper: 1, 27.00
    ("dealer", 6): (3, 26.04),   # paper: 2, 33.33
    ("gcd", 5): (2, 11.76),      # paper: 1, 11.76  (reduction exact)
    ("gcd", 6): (2, 11.76),      # paper: 1, 11.76  (reduction exact)
    ("gcd", 7): (2, 11.76),      # paper: 2, 16.18
    ("vender", 5): (2, 30.26),   # paper: 4, 41.67
    ("vender", 6): (3, 32.24),   # paper: 4, 41.67
    ("cordic", 48): (47, 35.32),  # paper: 38, 30.16
    ("cordic", 52): (47, 35.32),  # paper: 46, 34.92
}


@pytest.mark.parametrize("name,steps",
                         [(n, s) for n, budgets in TABLE2_BUDGETS.items()
                          for s in budgets])
def test_table2_measured_values(name, steps):
    graph = build(name)
    result = apply_power_management(graph, steps)
    report = static_power(result)
    muxes, reduction = MEASURED_TABLE2[(name, steps)]
    assert result.managed_count == muxes
    assert report.reduction_pct == pytest.approx(reduction, abs=0.01)


@pytest.mark.parametrize("name,steps", [("dealer", 4), ("gcd", 5),
                                        ("vender", 5)])
def test_table2_shape_savings_positive_with_slack(name, steps):
    """The reproduction shape: every circuit shows datapath savings at
    some budget, within the paper's 10-45% band."""
    graph = build(name)
    best = max(
        static_power(apply_power_management(graph, s)).reduction_pct
        for s in TABLE2_BUDGETS[name]
    )
    assert 10.0 <= best <= 45.0


@pytest.mark.parametrize("name,steps", [("dealer", 6), ("vender", 6)])
def test_table3_shape(name, steps):
    """Simulated (gate-level analog) savings are positive but below the
    static datapath number — the controller penalty the paper reports."""
    from repro.power.simulated import compare_designs
    graph = build(name)
    pair = run_pair(graph, FlowConfig(n_steps=steps))
    cmp = compare_designs(pair.baseline.design, pair.managed.design,
                          n_vectors=128)
    static_pct = static_power(pair.managed.pm).reduction_pct
    assert 0 < cmp.reduction_pct
    assert cmp.reduction_pct <= cmp.datapath_reduction_pct
    assert cmp.reduction_pct < static_pct + 5  # same regime as Table II


def test_table2_area_increase_band():
    """Paper Table II column 4: between 1.00 and 1.20."""
    for name, budgets in TABLE2_BUDGETS.items():
        if name == "cordic":
            continue  # covered by the slower test below in benches
        for steps in budgets:
            pair = run_pair(build(name), FlowConfig(n_steps=steps))
            assert 0.9 <= pair.area_increase <= 1.35
