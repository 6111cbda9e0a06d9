"""CDFG node: a single operation instance with ordered operands."""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.ops import Op, arity, default_latency, is_schedulable, resource_class

# Operand-port indices for MUX nodes (operands are (select, in0, in1)).
MUX_SELECT = 0
MUX_IN0 = 1
MUX_IN1 = 2


@dataclass(frozen=True)
class Node:
    """One CDFG operation, immutable once built.

    Graphs share their ``Node`` objects (``CDFG.copy`` does not rebuild
    them), so a field can never change in place: the one post-build edit,
    a multicycle latency, is ``CDFG.set_latency``, which swaps in a new
    node.

    Attributes:
        nid: Unique integer id within its graph.
        op: Operation performed.
        operands: Ordered producer node ids, as a tuple (any sequence is
            converted).  Order matters for SUB, shifts, comparisons and
            MUX (``(select, in0, in1)``).
        name: Human-readable name (variable the result is bound to).
        value: Constant value for CONST nodes, shift amount for SHL/SHR
            second operands folded at build time, else None.
        latency: Control steps occupied (0 for wiring/structural nodes).
    """

    nid: int
    op: Op
    operands: tuple[int, ...] = ()
    name: str = ""
    value: int | None = None
    latency: int = -1  # filled in __post_init__ if left at sentinel

    def __post_init__(self) -> None:
        if not isinstance(self.operands, tuple):
            object.__setattr__(self, "operands", tuple(self.operands))
        if self.latency < 0:
            object.__setattr__(self, "latency", default_latency(self.op))
        expected = arity(self.op)
        if self.op is not Op.CONST and self.op is not Op.INPUT:
            if len(self.operands) != expected:
                raise ValueError(
                    f"{self.op.value} node {self.nid} ({self.name!r}) expects "
                    f"{expected} operands, got {len(self.operands)}"
                )
        if self.op is Op.CONST and self.value is None:
            raise ValueError(f"CONST node {self.nid} requires a value")

    @property
    def is_schedulable(self) -> bool:
        """True if the node occupies a control step and an execution unit."""
        return is_schedulable(self.op)

    @property
    def is_mux(self) -> bool:
        return self.op is Op.MUX

    @property
    def resource(self):
        """ResourceClass for schedulable nodes, None otherwise."""
        return resource_class(self.op)

    @property
    def select_operand(self) -> int:
        """Producer id of the select input (MUX nodes only)."""
        if self.op is not Op.MUX:
            raise ValueError(f"node {self.nid} is not a MUX")
        return self.operands[MUX_SELECT]

    def data_operand(self, side: int) -> int:
        """Producer id of data input ``side`` (0 or 1) of a MUX node."""
        if self.op is not Op.MUX:
            raise ValueError(f"node {self.nid} is not a MUX")
        if side not in (0, 1):
            raise ValueError(f"MUX side must be 0 or 1, got {side}")
        return self.operands[MUX_IN0 + side]

    def label(self) -> str:
        """Short display label used by reports and DOT export."""
        if self.op is Op.CONST:
            return f"{self.value}"
        if self.name:
            return f"{self.name}:{self.op.value}"
        return f"n{self.nid}:{self.op.value}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ops = ",".join(str(o) for o in self.operands)
        return f"Node({self.nid}, {self.op.value!r}, [{ops}], name={self.name!r})"
