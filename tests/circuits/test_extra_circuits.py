"""ewf (negative control at scale) and the parameterized sparse FIR."""

import pytest

from repro.analysis.stats import circuit_stats
from repro.analysis.verify_gating import verify_gating
from repro.circuits.extra import ewf, sparse_fir
from repro.core.pm_pass import apply_power_management
from repro.pipeline import FlowConfig, Pipeline
from repro.power.static import static_power
from repro.sched.timing import critical_path_length
from repro.sim.reference import evaluate
from repro.sim.simulator import RTLSimulator
from repro.sim.vectors import random_vectors


class TestEWF:
    def test_classic_op_mix(self):
        stats = circuit_stats(ewf())
        assert (stats.mux, stats.comp, stats.add, stats.mul) == (0, 0, 26, 8)

    def test_no_power_management_possible(self):
        graph = ewf()
        cp = critical_path_length(graph)
        result = apply_power_management(graph, cp + 3)
        assert result.managed_count == 0
        assert static_power(result).reduction_pct == 0.0

    def test_full_flow_and_simulation(self):
        graph = ewf()
        cp = critical_path_length(graph)
        result = Pipeline().run(graph, FlowConfig(n_steps=cp + 1, width=16))
        vectors = random_vectors(graph, 10, width=6, seed=2)
        sim = RTLSimulator(result.design)
        outputs, _ = sim.run_many(vectors)
        assert outputs == [evaluate(graph, v, width=16) for v in vectors]


class TestSparseFIR:
    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_structure_scales(self, n):
        stats = circuit_stats(sparse_fir(n))
        assert stats.mux == n
        assert stats.comp == n
        assert stats.mul == n
        assert stats.add == n - 1

    def test_zero_taps_rejected(self):
        with pytest.raises(ValueError, match="at least one tap"):
            sparse_fir(0)

    def test_all_taps_managed_with_one_extra_step(self):
        graph = sparse_fir(8)
        cp = critical_path_length(graph)
        result = apply_power_management(graph, cp + 1)
        assert result.managed_count == 8
        verify_gating(result)

    def test_savings_scale_is_stable(self):
        """Per-tap structure is uniform: relative savings are n-independent
        once every tap is managed."""
        reductions = []
        for n in (4, 8, 12):
            graph = sparse_fir(n)
            cp = critical_path_length(graph)
            result = apply_power_management(graph, cp + 1)
            reductions.append(static_power(result).reduction_pct)
        assert max(reductions) - min(reductions) < 2.0
        assert all(r > 30.0 for r in reductions)

    def test_functional_semantics(self):
        graph = sparse_fir(3, threshold=4)
        out = evaluate(graph, {"x0": 10, "x1": 2, "x2": 5})
        # tap0: 10 > 4 -> 10*1; tap1: 2 <= 4 -> 0; tap2: 5 > 4 -> 5*5
        assert out["y"] == 10 + 0 + 25

    def test_simulated_equivalence_and_idles(self):
        graph = sparse_fir(6)
        cp = critical_path_length(graph)
        result = Pipeline().run(graph, FlowConfig(n_steps=cp + 1))
        vectors = random_vectors(graph, 30, seed=21)
        sim = RTLSimulator(result.design)
        outputs, activity = sim.run_many(vectors)
        assert outputs == [evaluate(graph, v) for v in vectors]
        assert activity.total_idles() > 0  # some taps skipped


class TestLogicMixer:
    def test_logic_only(self):
        from repro.circuits.extra import logic_mixer
        from repro.ir.ops import Op

        graph = logic_mixer()
        ops = {node.op for node in graph.operations()}
        assert ops <= {Op.AND, Op.OR, Op.XOR, Op.NOT, Op.MUX}
        assert len(list(graph.inputs())) == 4

    @pytest.mark.parametrize("n_stages,width", [(0, 4), (3, 1)])
    def test_degenerate_shapes_rejected(self, n_stages, width):
        from repro.circuits.extra import logic_mixer

        with pytest.raises(ValueError, match="n_stages >= 1 and width >= 2"):
            logic_mixer(n_stages=n_stages, width=width)

    def test_full_flow_and_simulation(self):
        from repro.circuits.extra import logic_mixer

        graph = logic_mixer(n_stages=6, width=5)
        cp = critical_path_length(graph)
        result = Pipeline().run(graph, FlowConfig(n_steps=cp + 1))
        vectors = random_vectors(graph, 20, seed=4)
        outputs, _ = RTLSimulator(result.design).run_many(vectors)
        assert outputs == [evaluate(graph, v, width=result.design.width)
                           for v in vectors]
