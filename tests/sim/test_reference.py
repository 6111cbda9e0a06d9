"""The golden functional model."""

import pytest

from repro.circuits import CIRCUITS, build
from repro.circuits.cordic import ANGLE_TABLE
from repro.gen import PRESETS
from repro.ir.ops import Op, OpSemantics
from repro.lang import compile_circuit
from repro.pipeline import FlowConfig, Pipeline
from repro.sim import RTLSimulator, create_engine
from repro.sim.reference import evaluate, evaluate_all
from repro.sim.vectors import random_vectors


class TestKnownCircuits:
    @pytest.mark.parametrize("a,b", [(9, 3), (3, 9), (0, 0), (-5, 5),
                                     (127, -128)])
    def test_abs_diff(self, abs_diff_graph, a, b):
        out = evaluate(abs_diff_graph, {"a": a, "b": b})
        expected = a - b if a > b else b - a
        # 8-bit wraparound applies to the subtraction itself.
        from repro.ir.ops import OpSemantics
        sem = OpSemantics(8)
        expected = sem.wrap(expected)
        assert out["result"] == expected

    def test_gcd_step_semantics(self, gcd_graph):
        out = evaluate(gcd_graph, {"a": 12, "b": 8})
        assert out["max"] == 12
        assert out["next_b"] == 8
        assert out["done"] == 0
        assert out["gcd"] == 4  # 12 - 8

    def test_gcd_done_case(self, gcd_graph):
        out = evaluate(gcd_graph, {"a": 7, "b": 7})
        assert out["done"] == 1
        assert out["gcd"] == 7

    def test_gcd_converges_when_iterated(self, gcd_graph):
        """Feeding the outputs back eventually reaches gcd(a, b)."""
        import math
        a, b = 54, 24
        for _ in range(50):
            out = evaluate(gcd_graph, {"a": a, "b": b})
            if out["done"]:
                break
            a, b = out["gcd"], out["next_b"]
        assert out["gcd"] == math.gcd(54, 24)

    def test_dealer_bust_zeroes_payout(self, dealer_graph):
        out = evaluate(dealer_graph, {"p": 25, "d": 10, "c": 2})
        assert out["payout"] == 0

    def test_dealer_win_pays_margin(self, dealer_graph):
        out = evaluate(dealer_graph, {"p": 20, "d": 10, "c": 1})
        assert out["payout"] == 10  # p - d

    def test_vender_change_on_success(self, vender_graph):
        out = evaluate(vender_graph,
                       {"coins": 10, "credit": 5, "price": 3, "sel": 1})
        # funds=15 > 6, cost = price*2 = 6, change = 9
        assert out["amount"] == 9
        assert out["vend"] == 1

    def test_vender_short_on_failure(self, vender_graph):
        out = evaluate(vender_graph,
                       {"coins": 1, "credit": 2, "price": 3, "sel": 2})
        # funds=3 <= 6: amount = cost - funds = 9 - 3
        assert out["amount"] == 6
        assert out["vend"] == 0

    def test_cordic_drives_y_toward_zero(self, cordic_graph):
        out = evaluate(cordic_graph, {"x0": 40, "y0": 30, "z0": 0})
        assert abs(out["y_residual"]) <= 8  # residual shrinks

    def test_cordic_angle_sign_follows_y(self, cordic_graph):
        pos = evaluate(cordic_graph, {"x0": 50, "y0": 20, "z0": 0})
        neg = evaluate(cordic_graph, {"x0": 50, "y0": -20, "z0": 0})
        assert pos["angle"] > 0 > neg["angle"]


class TestEvaluateAll:
    def test_every_node_valued(self, dealer_graph):
        values = evaluate_all(dealer_graph, {"p": 5, "d": 3, "c": 1})
        assert set(values) == set(dealer_graph.node_ids)

    def test_missing_input_raises(self, abs_diff_graph):
        with pytest.raises(KeyError, match="missing input"):
            evaluate(abs_diff_graph, {"a": 1})

    def test_angle_table_is_monotone(self):
        assert all(a >= b for a, b in zip(ANGLE_TABLE, ANGLE_TABLE[1:]))


def _scalar_values(graph, vector, width):
    """Every node's value for one vector, node by node through
    ``OpSemantics.evaluate``: the model's per-row definition."""
    semantics = OpSemantics(width=width)
    values = {}
    for nid in graph.topological_order(include_control=False):
        node = graph.node(nid)
        if node.op is Op.INPUT:
            values[nid] = semantics.wrap(vector[node.name])
        elif node.op is Op.CONST:
            values[nid] = semantics.wrap(node.value)
        elif node.op in (Op.SHL, Op.SHR):  # a raw wired amount
            values[nid] = semantics.evaluate(node.op, [
                values[node.operands[0]], graph.node(node.operands[1]).value])
        else:
            values[nid] = semantics.evaluate(
                node.op, [values[p] for p in node.operands])
    return values


BATCH_SPECS = sorted(CIRCUITS) + [f"gen:{preset}:3" for preset in PRESETS]


class TestBatch:
    """A sequence of vectors is evaluated column by column; the result
    is the per-vector result, vector for vector."""

    @pytest.mark.parametrize("width", [8, 70])
    @pytest.mark.parametrize("spec", BATCH_SPECS)
    def test_batch_equals_per_vector(self, spec, width):
        graph = build(spec)
        vectors = random_vectors(graph, 12, width=width, seed=5)
        scalar = [_scalar_values(graph, v, width) for v in vectors]

        singles = [evaluate_all(graph, v, width=width) for v in vectors]
        assert singles == scalar
        columns = evaluate_all(graph, vectors, width=width)
        assert set(columns) == set(graph.node_ids)
        assert [{nid: column[row] for nid, column in columns.items()}
                for row in range(len(vectors))] == scalar

        outputs = [{out.name: values[out.nid] for out in graph.outputs()}
                   for values in scalar]
        assert [evaluate(graph, v, width=width) for v in vectors] == outputs
        assert evaluate(graph, vectors, width=width) == outputs
        assert evaluate(graph, tuple(vectors), width=width) == outputs

    def test_missing_input_in_a_batch_raises_like_one_vector(
            self, abs_diff_graph):
        with pytest.raises(KeyError) as single:
            evaluate(abs_diff_graph, {"a": 1})
        with pytest.raises(KeyError) as batch:
            evaluate(abs_diff_graph, [{"a": 1, "b": 2}, {"a": 1}])
        with pytest.raises(KeyError) as every_node:
            evaluate_all(abs_diff_graph, [{"a": 1, "b": 2}, {"a": 1}])
        assert single.value.args == ("missing input 'b'",)
        assert batch.value.args == single.value.args
        assert every_node.value.args == single.value.args

    def test_empty_batch(self, gcd_graph):
        assert evaluate(gcd_graph, []) == []
        assert evaluate_all(gcd_graph, []) == {
            nid: [] for nid in gcd_graph.node_ids}


class TestShiftAmounts:
    """A wiring shift's amount is the constant's raw value in the model,
    the plan and every engine, whatever the datapath width."""

    @pytest.mark.parametrize("width", [2, 3])
    def test_narrow_cordic_verifies(self, width):
        ctx = Pipeline().run_context(
            build("cordic"), FlowConfig(n_steps=50, width=width, verify=True))
        assert ctx.get("verified") is True

    @pytest.mark.parametrize("width", [2, 3])
    def test_amount_past_the_width_matches_the_engines(self, width):
        graph = compile_circuit("""
            circuit wide_shift {
                input a, b;
                c = a + b;
                output up = c << 9;
                output down = c >> 9;
                output both = (c >> 1) << 2;
            }
        """)
        vectors = random_vectors(graph, 24, width=width, seed=width)
        semantics = OpSemantics(width)
        expected = [{"up": semantics.wrap(c << 9), "down": c >> 9,
                     "both": semantics.wrap((c >> 1) << 2)}
                    for c in (semantics.wrap(v["a"] + v["b"])
                              for v in vectors)]
        assert evaluate(graph, vectors, width=width) == expected
        design = Pipeline().run(
            graph, FlowConfig(n_steps=2, width=width)).design
        for backend in ("compiled", "vectorized"):
            engine = create_engine(design, backend=backend)
            assert engine.run_batch(vectors).outputs == expected, backend
        assert RTLSimulator(design).run_many(vectors)[0] == expected

    def test_shifted_read_is_one_operand(self):
        """A left-shifted register read binds as one value inside any
        operator, ``*`` and ``~`` included."""
        graph = compile_circuit("""
            circuit shifted_operand {
                input a, b;
                output product = a * (b << 1);
                output inverse = ~(b << 2);
                output difference = a - (b << 3);
                output test = (b << 1) > a;
            }
        """)
        vectors = random_vectors(graph, 40, seed=3)
        expected = evaluate(graph, vectors)
        design = Pipeline().run(graph, FlowConfig(n_steps=2)).design
        for backend in ("compiled", "vectorized"):
            engine = create_engine(design, backend=backend)
            assert engine.run_batch(vectors).outputs == expected, backend
        assert RTLSimulator(design).run_many(vectors)[0] == expected
