"""Operation classification and bit-true evaluation semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.ops import (
    Op,
    OpSemantics,
    ResourceClass,
    arity,
    default_latency,
    is_commutative,
    is_comparison,
    is_schedulable,
    is_structural,
    is_wiring,
    resource_class,
)


class TestClassification:
    def test_comparisons(self):
        for op in (Op.GT, Op.LT, Op.GE, Op.LE, Op.EQ, Op.NE):
            assert is_comparison(op)
            assert resource_class(op) is ResourceClass.COMP

    def test_arith_resource_classes(self):
        assert resource_class(Op.ADD) is ResourceClass.ADD
        assert resource_class(Op.SUB) is ResourceClass.SUB
        assert resource_class(Op.MUL) is ResourceClass.MUL
        assert resource_class(Op.MUX) is ResourceClass.MUX

    def test_structural_ops_not_schedulable(self):
        for op in (Op.INPUT, Op.OUTPUT, Op.CONST):
            assert is_structural(op)
            assert not is_schedulable(op)
            assert resource_class(op) is None

    def test_wiring_ops_not_schedulable(self):
        for op in (Op.SHL, Op.SHR, Op.PASS):
            assert is_wiring(op)
            assert not is_schedulable(op)

    def test_schedulable_latency_is_one(self):
        assert default_latency(Op.ADD) == 1
        assert default_latency(Op.MUX) == 1
        assert default_latency(Op.MUL) == 1

    def test_non_schedulable_latency_is_zero(self):
        assert default_latency(Op.INPUT) == 0
        assert default_latency(Op.SHR) == 0
        assert default_latency(Op.CONST) == 0

    def test_arity(self):
        assert arity(Op.MUX) == 3
        assert arity(Op.ADD) == 2
        assert arity(Op.NOT) == 1
        assert arity(Op.INPUT) == 0
        assert arity(Op.OUTPUT) == 1

    def test_commutativity(self):
        assert is_commutative(Op.ADD)
        assert is_commutative(Op.MUL)
        assert not is_commutative(Op.SUB)
        assert not is_commutative(Op.GT)


class TestSemantics:
    def setup_method(self):
        self.sem = OpSemantics(width=8)

    def test_wrap_range(self):
        assert self.sem.wrap(127) == 127
        assert self.sem.wrap(128) == -128
        assert self.sem.wrap(-129) == 127
        assert self.sem.wrap(256) == 0

    def test_add_overflow_wraps(self):
        assert self.sem.evaluate(Op.ADD, [100, 100]) == -56

    def test_sub(self):
        assert self.sem.evaluate(Op.SUB, [5, 9]) == -4

    def test_mul_wraps(self):
        assert self.sem.evaluate(Op.MUL, [16, 16]) == 0

    @pytest.mark.parametrize("op,a,b,expected", [
        (Op.GT, 3, 2, 1), (Op.GT, 2, 3, 0), (Op.GT, 2, 2, 0),
        (Op.LT, -1, 0, 1), (Op.GE, 2, 2, 1), (Op.LE, 3, 2, 0),
        (Op.EQ, 7, 7, 1), (Op.NE, 7, 7, 0),
    ])
    def test_comparisons(self, op, a, b, expected):
        assert self.sem.evaluate(op, [a, b]) == expected

    def test_mux_selects(self):
        assert self.sem.evaluate(Op.MUX, [0, 10, 20]) == 10
        assert self.sem.evaluate(Op.MUX, [1, 10, 20]) == 20
        # Any nonzero select routes input 1.
        assert self.sem.evaluate(Op.MUX, [5, 10, 20]) == 20

    def test_shift_right_is_arithmetic(self):
        assert self.sem.evaluate(Op.SHR, [-8, 1]) == -4
        assert self.sem.evaluate(Op.SHR, [8, 2]) == 2

    def test_shift_left_wraps(self):
        assert self.sem.evaluate(Op.SHL, [96, 1]) == -64

    def test_logic_ops(self):
        assert self.sem.evaluate(Op.AND, [12, 10]) == 8
        assert self.sem.evaluate(Op.OR, [12, 10]) == 14
        assert self.sem.evaluate(Op.XOR, [12, 10]) == 6
        assert self.sem.evaluate(Op.NOT, [0]) == -1

    def test_pass_and_output(self):
        assert self.sem.evaluate(Op.PASS, [42]) == 42
        assert self.sem.evaluate(Op.OUTPUT, [42]) == 42

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError):
            self.sem.evaluate(Op.INPUT, [])

    def test_width_4(self):
        sem = OpSemantics(width=4)
        assert sem.evaluate(Op.ADD, [7, 1]) == -8
        assert sem.wrap(15) == -1


class TestWidth:
    @pytest.mark.parametrize("width", [0, -2, True, False, 8.0, "8", None])
    def test_non_positive_or_non_int_width_rejected(self, width):
        with pytest.raises(ValueError, match="width"):
            OpSemantics(width=width)

    def test_one_bit_is_the_narrowest_datapath(self):
        sem = OpSemantics(width=1)
        assert (sem.wrap(0), sem.wrap(1), sem.wrap(2)) == (0, -1, 0)


#: Wrap at 1 and 8 bits, the sign bit at 16, the widths either side of
#: the vectorized engine's int64 limit, and a Python-int width past it.
COLUMN_WIDTHS = (1, 8, 16, 62, 63, 70)
EVALUATED_OPS = [op for op in Op if op not in (Op.INPUT, Op.CONST)]


class TestColumnKernels:
    """``evaluate_column`` is ``evaluate`` applied row by row."""

    @pytest.mark.parametrize("width", COLUMN_WIDTHS)
    @pytest.mark.parametrize("op", EVALUATED_OPS, ids=lambda op: op.name)
    @settings(max_examples=25)
    @given(data=st.data())
    def test_column_equals_per_row_evaluate(self, op, width, data):
        sem = OpSemantics(width=width)
        rows = data.draw(st.integers(0, 6), label="rows")
        bound = 1 << (width + 1)  # operands beyond the wrapped range too
        columns = []
        for port in range(arity(op)):
            values = (st.integers(0, width + 2)
                      if op in (Op.SHL, Op.SHR) and port == 1
                      else st.integers(-bound, bound))
            columns.append(data.draw(
                st.lists(values, min_size=rows, max_size=rows),
                label=f"port {port}"))
        expected = [sem.evaluate(op, list(row)) for row in zip(*columns)]
        assert sem.evaluate_column(op, columns) == expected

    @pytest.mark.parametrize("op", [Op.INPUT, Op.CONST])
    def test_structural_ops_have_no_kernel(self, op):
        with pytest.raises(ValueError, match="cannot evaluate"):
            OpSemantics(width=8).evaluate_column(op, [])
