"""Simulation-based power estimation (Table III machinery)."""

import pytest

from repro.pipeline import FlowConfig, run_pair
from repro.power.simulated import compare_designs, measure_power


@pytest.fixture(scope="module")
def dealer_pair():
    from repro.circuits import dealer
    return run_pair(dealer(), FlowConfig(n_steps=6))


class TestMeasurePower:
    def test_components_positive(self, dealer_pair):
        power = measure_power(dealer_pair.managed.design, n_vectors=64)
        assert power.datapath > 0
        assert power.controller_energy > 0
        assert power.total > power.datapath
        assert power.samples == 64

    def test_same_seed_reproducible(self, dealer_pair):
        a = measure_power(dealer_pair.managed.design, n_vectors=32, seed=9)
        b = measure_power(dealer_pair.managed.design, n_vectors=32, seed=9)
        assert a == b

    def test_pm_off_consumes_at_least_as_much(self, dealer_pair):
        design = dealer_pair.managed.design
        on = measure_power(design, n_vectors=128, power_management=True)
        off = measure_power(design, n_vectors=128, power_management=False)
        assert off.datapath >= on.datapath

    @pytest.mark.parametrize("source", ["list", "iterator", "matrix",
                                        "n_vectors"])
    def test_zero_vectors_rejected(self, dealer_pair, source):
        """Fixed mode divides by the sample count: no vectors is an
        input error, not a ``ZeroDivisionError``."""
        import numpy as np

        design = dealer_pair.managed.design
        kwargs = {"list": {"vectors": []},
                  "iterator": {"vectors": iter([])},
                  "matrix": {"vectors": np.empty(
                      (0, len(list(design.graph.inputs()))),
                      dtype=np.int64)},
                  "n_vectors": {"n_vectors": 0}}[source]
        with pytest.raises(ValueError, match="at least one vector, got 0"):
            measure_power(design, **kwargs)


class TestCompareDesigns:
    def test_dealer_saves_power(self, dealer_pair):
        cmp = compare_designs(dealer_pair.baseline.design,
                              dealer_pair.managed.design, n_vectors=128)
        assert cmp.reduction_pct > 10.0
        assert cmp.datapath_reduction_pct >= cmp.reduction_pct

    def test_vender_saves_power(self):
        from repro.circuits import vender
        pair = run_pair(vender(), FlowConfig(n_steps=6))
        cmp = compare_designs(pair.baseline.design, pair.managed.design,
                              n_vectors=128)
        assert cmp.reduction_pct > 10.0

    def test_controller_complexity_erodes_savings(self, dealer_pair):
        """Paper: Table III savings < Table II savings because the PM
        controller is more complex."""
        cmp = compare_designs(dealer_pair.baseline.design,
                              dealer_pair.managed.design, n_vectors=128)
        assert cmp.managed.controller_energy >= cmp.orig.controller_energy
        assert cmp.reduction_pct <= cmp.datapath_reduction_pct

    def test_area_fields(self, dealer_pair):
        cmp = compare_designs(dealer_pair.baseline.design,
                              dealer_pair.managed.design, n_vectors=32)
        assert cmp.area_orig > 0 and cmp.area_new > 0
        assert cmp.area_increase == pytest.approx(
            cmp.area_new / cmp.area_orig)

    def test_compare_designs_rejects_zero_vectors(self, dealer_pair):
        with pytest.raises(ValueError, match="at least one vector, got 0"):
            compare_designs(dealer_pair.baseline.design,
                            dealer_pair.managed.design, n_vectors=0)
