"""Monte Carlo power estimation: convergence, caps, and streaming."""

import pytest

from repro.pipeline import FlowConfig, run_pair
from repro.power.simulated import (
    MonteCarloPower,
    SimulatedPower,
    measure_power,
)
from repro.sim.vectors import iter_random_vectors, random_vectors


@pytest.fixture(scope="module")
def dealer_pair_designs():
    from repro.circuits import dealer

    pair = run_pair(dealer(), FlowConfig(n_steps=6))
    return pair.baseline.design, pair.managed.design


class TestMonteCarlo:
    def test_returns_monte_carlo_power(self, dealer_pair_designs):
        _, managed = dealer_pair_designs
        power = measure_power(managed, rel_tol=0.10)
        assert isinstance(power, MonteCarloPower)
        assert power.converged
        assert power.blocks >= 4  # minimum before convergence may fire
        assert power.samples >= 4 * 64
        assert power.samples == power.blocks * 64
        assert power.ci_halfwidth > 0.0
        assert power.rel_tol == 0.10

    def test_tighter_tolerance_draws_more_samples(self, dealer_pair_designs):
        _, managed = dealer_pair_designs
        loose = measure_power(managed, rel_tol=0.25)
        tight = measure_power(managed, rel_tol=0.02)
        assert tight.samples >= loose.samples
        assert tight.converged

    def test_estimate_agrees_with_fixed_sample(self, dealer_pair_designs):
        _, managed = dealer_pair_designs
        fixed = measure_power(managed, n_vectors=1024)
        mc = measure_power(managed, rel_tol=0.02)
        assert mc.total == pytest.approx(fixed.total, rel=0.10)

    def test_reported_ci_is_consistent(self, dealer_pair_designs):
        _, managed = dealer_pair_designs
        mc = measure_power(managed, rel_tol=0.05)
        assert mc.rel_ci == pytest.approx(mc.ci_halfwidth / mc.total)
        # Converged means the half-width met the block-mean criterion;
        # the merged-total estimate sits within a whisker of that mean.
        assert mc.rel_ci <= 0.05 * 1.25

    def test_invalid_rel_tol_raises(self, dealer_pair_designs):
        _, managed = dealer_pair_designs
        for bad in (0.0, -0.5):
            with pytest.raises(ValueError, match="rel_tol"):
                measure_power(managed, rel_tol=bad)

    @pytest.mark.parametrize("name, bad", [
        ("confidence", 0.0), ("confidence", 1.0), ("confidence", 1.5),
        ("confidence", -0.2), ("block_size", 0), ("block_size", -3),
        ("max_vectors", 0), ("max_vectors", -1)])
    def test_invalid_monte_carlo_argument_raises_before_simulating(
            self, dealer_pair_designs, monkeypatch, name, bad):
        """Nonsense confidence/block/budget values are rejected up front,
        naming the parameter, instead of converging on a zero-width CI
        or failing after blocks have run."""
        import repro.power.simulated as simulated

        def no_engine(*args, **kwargs):
            raise AssertionError("an engine was built")

        monkeypatch.setattr(simulated, "create_engine", no_engine)
        _, managed = dealer_pair_designs
        with pytest.raises(ValueError, match=name):
            measure_power(managed, rel_tol=0.05, **{name: bad})

    def test_max_vectors_caps_unconvergeable_run(self, dealer_pair_designs):
        _, managed = dealer_pair_designs
        mc = measure_power(managed, rel_tol=1e-9, max_vectors=256,
                           block_size=64)
        assert not mc.converged
        assert mc.samples == 256

    def test_max_vectors_is_a_hard_budget(self, dealer_pair_designs):
        """A cap that block_size does not divide is still never exceeded;
        the clamped final block stays out of the statistics."""
        _, managed = dealer_pair_designs
        mc = measure_power(managed, rel_tol=1e-9, max_vectors=100,
                           block_size=64)
        assert mc.samples == 100
        assert mc.blocks == 1
        assert not mc.converged

    def test_finite_stream_exhaustion(self, dealer_pair_designs):
        import math

        _, managed = dealer_pair_designs
        vectors = random_vectors(managed.graph, 40)
        mc = measure_power(managed, vectors=iter(vectors), rel_tol=1e-9,
                           block_size=64)
        assert mc.samples == 40
        assert not mc.converged
        # 40 < block_size: a partial block feeds the estimate but not
        # the batch-means statistics, so no interval exists — reported
        # honestly as inf, never as a deceptively perfect 0.0.
        assert mc.blocks == 0
        assert math.isinf(mc.ci_halfwidth)
        assert math.isinf(mc.rel_ci)

    def test_partial_trailing_block_excluded_from_stats(
            self, dealer_pair_designs):
        """A 65-vector stream at block_size=64 yields one full block for
        the statistics; the stray sample still lands in the estimate."""
        _, managed = dealer_pair_designs
        vectors = random_vectors(managed.graph, 65)
        mc = measure_power(managed, vectors=iter(vectors), rel_tol=1e-9,
                           block_size=64)
        assert mc.samples == 65
        assert mc.blocks == 1
        assert not mc.converged

    def test_empty_stream_raises(self, dealer_pair_designs):
        _, managed = dealer_pair_designs
        with pytest.raises(ValueError, match="no vectors"):
            measure_power(managed, vectors=[], rel_tol=0.05)

    def test_streaming_source_is_lazy(self, dealer_pair_designs):
        """Converging at a loose tolerance consumes only what it needs
        from an endless stream."""
        _, managed = dealer_pair_designs
        stream = iter_random_vectors(managed.graph)
        mc = measure_power(managed, vectors=stream, rel_tol=0.25)
        assert mc.converged
        assert mc.samples < 1 << 16

    def test_fixed_mode_unchanged(self, dealer_pair_designs):
        """rel_tol=None keeps the exact legacy-compatible behaviour."""
        _, managed = dealer_pair_designs
        power = measure_power(managed, n_vectors=64)
        assert isinstance(power, SimulatedPower)
        assert not isinstance(power, MonteCarloPower)
        assert power.samples == 64

    def test_seeded_runs_reproducible(self, dealer_pair_designs):
        _, managed = dealer_pair_designs
        a = measure_power(managed, rel_tol=0.05, seed=7)
        b = measure_power(managed, rel_tol=0.05, seed=7)
        assert a == b
