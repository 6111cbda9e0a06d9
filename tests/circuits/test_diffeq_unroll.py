"""diffeq negative control and the loop-unrolling transform."""

import math

import pytest

from repro.analysis.stats import circuit_stats
from repro.circuits import gcd
from repro.circuits.diffeq import diffeq
from repro.core.pm_pass import apply_power_management
from repro.ir.compose import unroll
from repro.ir.graph import CDFGError
from repro.ir.validate import validate
from repro.pipeline import FlowConfig, Pipeline
from repro.power.static import static_power
from repro.sched.timing import critical_path_length
from repro.sim.reference import evaluate
from repro.sim.simulator import RTLSimulator
from repro.sim.vectors import random_vectors


class TestDiffeqNegativeControl:
    def test_classic_op_mix(self):
        stats = circuit_stats(diffeq())
        assert (stats.mux, stats.comp, stats.add, stats.sub, stats.mul) == \
            (0, 0, 2, 2, 6)

    def test_no_muxes_means_no_power_management(self):
        graph = diffeq()
        cp = critical_path_length(graph)
        result = apply_power_management(graph, cp + 4)
        assert result.managed_count == 0
        assert static_power(result).reduction_pct == 0.0

    def test_euler_step_values(self):
        out = evaluate(diffeq(), {"x": 1, "y": 2, "u": 3, "dx": 1},
                       width=16)
        # x1 = 1+1; u1 = 3 - 3*1*3*1 - 3*2*1 = -12; y1 = 2 + 3*1 = 5
        assert out["x1"] == 2
        assert out["u1"] == -12
        assert out["y1"] == 5

    def test_full_flow_still_works(self):
        graph = diffeq()
        cp = critical_path_length(graph)
        result = Pipeline().run(graph, FlowConfig(n_steps=cp + 1, width=16))
        vectors = random_vectors(graph, 20, width=8)
        sim = RTLSimulator(result.design)
        outputs, activity = sim.run_many(vectors)
        assert outputs == [evaluate(graph, v, width=16) for v in vectors]
        assert activity.total_idles() == 0  # nothing gatable


class TestUnroll:
    def test_gcd_unrolled_counts_scale(self):
        g4 = unroll(gcd(), 4, {"gcd": "a", "next_b": "b"})
        validate(g4)
        stats = circuit_stats(g4)
        assert stats.mux == 4 * 6
        assert stats.comp == 4 * 2
        assert stats.sub == 4 * 1
        assert stats.critical_path == 4 * 5

    def test_unrolled_gcd_computes_gcd(self):
        g4 = unroll(gcd(), 4, {"gcd": "a", "next_b": "b"})
        out = evaluate(g4, {"a": 48, "b": 18})
        assert out["gcd"] == math.gcd(48, 18)

    def test_identity_unroll(self):
        g1 = unroll(gcd(), 1, {"gcd": "a", "next_b": "b"})
        base = gcd()
        for vec in random_vectors(base, 15, seed=3):
            assert evaluate(g1, vec)["gcd"] == evaluate(base, vec)["gcd"]

    def test_per_iteration_outputs_exported(self):
        g2 = unroll(gcd(), 2, {"gcd": "a", "next_b": "b"})
        names = {o.name for o in g2.outputs()}
        assert {"done_i0", "done_i1", "gcd", "next_b"} <= names

    def test_pm_scales_with_unrolling(self):
        g3 = unroll(gcd(), 3, {"gcd": "a", "next_b": "b"})
        cp = critical_path_length(g3)
        result = apply_power_management(g3, cp)
        assert result.managed_count == 3 * 2
        assert static_power(result).reduction_pct == pytest.approx(
            11.76, abs=0.01)

    def test_unrolled_full_flow_equivalence(self):
        g2 = unroll(gcd(), 2, {"gcd": "a", "next_b": "b"})
        result = Pipeline().run(
            g2, FlowConfig(n_steps=critical_path_length(g2)))
        vectors = random_vectors(g2, 25, seed=17)
        sim = RTLSimulator(result.design)
        outputs, _ = sim.run_many(vectors)
        assert outputs == [evaluate(g2, v) for v in vectors]

    def test_bad_factor(self):
        with pytest.raises(ValueError, match="at least 1"):
            unroll(gcd(), 0, {"gcd": "a"})

    def test_unknown_feedback_output(self):
        with pytest.raises(CDFGError, match="not an output"):
            unroll(gcd(), 2, {"nope": "a"})

    def test_unknown_feedback_input(self):
        with pytest.raises(CDFGError, match="not an input"):
            unroll(gcd(), 2, {"gcd": "zz"})

    def test_duplicate_feedback_target(self):
        with pytest.raises(CDFGError, match="same input"):
            unroll(gcd(), 2, {"gcd": "a", "max": "a"})
