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

    def test_negative_n_vectors_named(self, dealer_pair):
        """A negative count is an argument error, not an empty draw."""
        with pytest.raises(ValueError,
                           match="n_vectors must be non-negative, got -4"):
            measure_power(dealer_pair.managed.design, n_vectors=-4)
        with pytest.raises(ValueError,
                           match="n_vectors must be non-negative, got -4"):
            compare_designs(dealer_pair.baseline.design,
                            dealer_pair.managed.design, n_vectors=-4)


class TestSameErrorsOnBothEngines:
    """``auto`` runs 16 vectors compiled and 4096 vectorized; a bad input
    set raises the same error on either."""

    @staticmethod
    def _error(call):
        with pytest.raises(KeyError) as info:
            call()
        return str(info.value)

    def test_designs_with_different_inputs(self, dealer_pair):
        from repro.circuits import gcd
        other = run_pair(gcd(), FlowConfig(n_steps=7)).managed.design
        errors = {n: self._error(lambda: compare_designs(
            dealer_pair.baseline.design, other, n_vectors=n))
            for n in (16, 4096)}
        assert errors[16] == errors[4096] == "\"missing input 'a'\""

    def test_vector_missing_an_input(self, dealer_pair):
        design = dealer_pair.managed.design
        vector = {"p": 1, "c": 2}
        errors = {n: self._error(lambda: measure_power(
            design, vectors=[vector] * n)) for n in (16, 4096)}
        assert errors[16] == errors[4096] == "\"missing input 'd'\""
