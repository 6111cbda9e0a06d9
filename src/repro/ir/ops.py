"""Operation types for CDFG nodes.

The paper's circuits are built from five resource classes (Table I):
multiplexors (MUX), comparators (COMP), adders (+), subtractors (-) and
multipliers (*).  In addition the IR carries structural node kinds (inputs,
outputs, constants) and zero-latency wiring operations (constant shifts,
pass-throughs) which do not occupy a control step and are not counted as
operations.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence
from dataclasses import dataclass


class Op(enum.Enum):
    """Every operation a CDFG node can perform."""

    # Structural.
    INPUT = "input"
    OUTPUT = "output"
    CONST = "const"

    # Arithmetic (one control step each, per the paper).
    ADD = "+"
    SUB = "-"
    MUL = "*"

    # Comparisons (all map to the COMP resource class).
    GT = ">"
    LT = "<"
    GE = ">="
    LE = "<="
    EQ = "=="
    NE = "!="

    # Selection: operands are [select, in0, in1]; select==0 routes in0.
    MUX = "mux"

    # Bitwise logic (scheduled like comparators on a LOGIC unit).
    AND = "&"
    OR = "|"
    XOR = "^"
    NOT = "~"

    # Zero-latency wiring: shift by a constant amount, sign negation wiring
    # is NOT free (NEG is implemented as 0 - x and must be built that way).
    SHL = "<<"
    SHR = ">>"
    PASS = "pass"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Op.{self.name}"


class ResourceClass(enum.Enum):
    """Hardware execution-unit class an operation is mapped onto.

    These are the five columns of the paper's Tables I and II plus a LOGIC
    class for bitwise operations (not used by the paper's circuits but
    supported by the language frontend).
    """

    MUX = "MUX"
    COMP = "COMP"
    ADD = "+"
    SUB = "-"
    MUL = "*"
    LOGIC = "LOGIC"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResourceClass.{self.name}"


_COMPARISONS = frozenset({Op.GT, Op.LT, Op.GE, Op.LE, Op.EQ, Op.NE})
_LOGIC = frozenset({Op.AND, Op.OR, Op.XOR, Op.NOT})
_WIRING = frozenset({Op.SHL, Op.SHR, Op.PASS})
_STRUCTURAL = frozenset({Op.INPUT, Op.OUTPUT, Op.CONST})
_SCHEDULABLE = frozenset(Op) - _STRUCTURAL - _WIRING

_RESOURCE_OF = {
    Op.ADD: ResourceClass.ADD,
    Op.SUB: ResourceClass.SUB,
    Op.MUL: ResourceClass.MUL,
    Op.MUX: ResourceClass.MUX,
    **{op: ResourceClass.COMP for op in _COMPARISONS},
    **{op: ResourceClass.LOGIC for op in _LOGIC},
}

_ARITY = {
    Op.INPUT: 0,
    Op.CONST: 0,
    Op.OUTPUT: 1,
    Op.NOT: 1,
    Op.PASS: 1,
    Op.MUX: 3,
}
# Everything else is binary.

_COMMUTATIVE = frozenset({Op.ADD, Op.MUL, Op.EQ, Op.NE, Op.AND, Op.OR, Op.XOR})


def is_comparison(op: Op) -> bool:
    """True for the six relational operators (COMP resource class)."""
    return op in _COMPARISONS


def is_structural(op: Op) -> bool:
    """True for INPUT/OUTPUT/CONST nodes (graph boundary, not hardware)."""
    return op in _STRUCTURAL


def is_wiring(op: Op) -> bool:
    """True for zero-latency operations realized as wiring (shifts, pass)."""
    return op in _WIRING


def is_schedulable(op: Op) -> bool:
    """True if the operation occupies a control step and an execution unit."""
    return op in _SCHEDULABLE


def is_commutative(op: Op) -> bool:
    """True if operand order does not affect the result."""
    return op in _COMMUTATIVE


def arity(op: Op) -> int:
    """Number of operands the operation requires."""
    return _ARITY.get(op, 2)


def resource_class(op: Op) -> ResourceClass | None:
    """Execution-unit class for a schedulable op, None for others."""
    return _RESOURCE_OF.get(op)


def default_latency(op: Op) -> int:
    """Control steps the operation occupies (paper: one per operation)."""
    return 1 if is_schedulable(op) else 0


@dataclass(frozen=True)
class OpSemantics:
    """Bit-true evaluation semantics for a fixed-width two's complement
    datapath.  ``width`` bits; values are Python ints reduced into
    [-(2**(w-1)), 2**(w-1)-1] after every operation, matching the wrap-around
    behaviour of the paper's 8-bit datapath.
    """

    width: int = 8

    def __post_init__(self) -> None:
        check_width(self.width)

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    def wrap(self, value: int) -> int:
        """Reduce ``value`` into signed two's complement range."""
        value &= self.mask
        sign_bit = 1 << (self.width - 1)
        return value - (1 << self.width) if value & sign_bit else value

    def evaluate(self, op: Op, operands: list[int]) -> int:
        """Evaluate ``op`` over integer ``operands`` bit-true at ``width``."""
        if op is Op.ADD:
            return self.wrap(operands[0] + operands[1])
        if op is Op.SUB:
            return self.wrap(operands[0] - operands[1])
        if op is Op.MUL:
            return self.wrap(operands[0] * operands[1])
        if op is Op.GT:
            return int(operands[0] > operands[1])
        if op is Op.LT:
            return int(operands[0] < operands[1])
        if op is Op.GE:
            return int(operands[0] >= operands[1])
        if op is Op.LE:
            return int(operands[0] <= operands[1])
        if op is Op.EQ:
            return int(operands[0] == operands[1])
        if op is Op.NE:
            return int(operands[0] != operands[1])
        if op is Op.MUX:
            select, in0, in1 = operands
            return in1 if select else in0
        if op is Op.AND:
            return self.wrap(operands[0] & operands[1])
        if op is Op.OR:
            return self.wrap(operands[0] | operands[1])
        if op is Op.XOR:
            return self.wrap(operands[0] ^ operands[1])
        if op is Op.NOT:
            return self.wrap(~operands[0])
        if op is Op.SHL:
            return self.wrap(operands[0] << operands[1])
        if op is Op.SHR:
            # Arithmetic shift right (sign preserving), as CORDIC needs.
            return self.wrap(operands[0] >> operands[1])
        if op is Op.PASS or op is Op.OUTPUT:
            return operands[0]
        raise ValueError(f"cannot evaluate {op!r}")

    def evaluate_column(self, op: Op,
                        columns: Sequence[Sequence[int]]) -> list[int]:
        """:meth:`evaluate` row by row over operand ``columns`` (one
        sequence per operand, one entry per row), in one call."""
        kernel = _COLUMN_KERNELS.get(op)
        if kernel is None:
            raise ValueError(f"cannot evaluate {op!r}")
        half = 1 << (self.width - 1)
        return kernel(half, 2 * half - 1, *columns)


def check_width(width: object) -> None:
    """Reject a datapath width that is not an ``int`` of at least 1 bit."""
    if isinstance(width, bool) or not isinstance(width, int) or width < 1:
        raise ValueError(
            f"width must be an int of at least 1 bit (got {width!r})")


# One list comprehension per op for :meth:`OpSemantics.evaluate_column`.
# Each takes ``half`` (2**(w-1)) and ``mask`` (2**w - 1), then the operand
# columns; ``((v + half) & mask) - half`` is ``OpSemantics.wrap(v)``.
_COLUMN_KERNELS: dict[Op, Callable[..., list[int]]] = {
    Op.ADD: lambda h, m, x, y: [((a + b + h) & m) - h for a, b in zip(x, y)],
    Op.SUB: lambda h, m, x, y: [((a - b + h) & m) - h for a, b in zip(x, y)],
    Op.MUL: lambda h, m, x, y: [((a * b + h) & m) - h for a, b in zip(x, y)],
    Op.GT: lambda h, m, x, y: [int(a > b) for a, b in zip(x, y)],
    Op.LT: lambda h, m, x, y: [int(a < b) for a, b in zip(x, y)],
    Op.GE: lambda h, m, x, y: [int(a >= b) for a, b in zip(x, y)],
    Op.LE: lambda h, m, x, y: [int(a <= b) for a, b in zip(x, y)],
    Op.EQ: lambda h, m, x, y: [int(a == b) for a, b in zip(x, y)],
    Op.NE: lambda h, m, x, y: [int(a != b) for a, b in zip(x, y)],
    Op.MUX: lambda h, m, s, x, y: [
        b if c else a for c, a, b in zip(s, x, y)],
    Op.AND: lambda h, m, x, y: [(((a & b) + h) & m) - h
                                for a, b in zip(x, y)],
    Op.OR: lambda h, m, x, y: [(((a | b) + h) & m) - h
                               for a, b in zip(x, y)],
    Op.XOR: lambda h, m, x, y: [(((a ^ b) + h) & m) - h
                                for a, b in zip(x, y)],
    Op.NOT: lambda h, m, x: [((~a + h) & m) - h for a in x],
    Op.SHL: lambda h, m, x, y: [(((a << b) + h) & m) - h
                                for a, b in zip(x, y)],
    Op.SHR: lambda h, m, x, y: [(((a >> b) + h) & m) - h
                                for a, b in zip(x, y)],
    Op.PASS: lambda h, m, x: list(x),
    Op.OUTPUT: lambda h, m, x: list(x),
}
