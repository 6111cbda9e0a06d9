"""Relative power weights of execution units.

The paper obtained these "using timing simulation with random input
vectors" on an 8-bit datapath: MUX:1, COMP:4, +:3, -:3, *:20.  All power
numbers in Table II are relative to these weights, so we adopt them as the
default model and let users recalibrate (e.g. from our own RTL simulator's
switching counts) via a custom ``PowerWeights``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.graph import CDFG
from repro.ir.ops import ResourceClass

PAPER_WEIGHTS: dict[ResourceClass, float] = {
    ResourceClass.MUX: 1.0,
    ResourceClass.COMP: 4.0,
    ResourceClass.ADD: 3.0,
    ResourceClass.SUB: 3.0,
    ResourceClass.MUL: 20.0,
    ResourceClass.LOGIC: 4.0,
}


@dataclass(frozen=True)
class PowerWeights:
    """Per-execution of one operation on a unit of each class."""

    per_class: dict[ResourceClass, float] = field(
        default_factory=lambda: dict(PAPER_WEIGHTS))

    def of(self, cls: ResourceClass) -> float:
        try:
            return self.per_class[cls]
        except KeyError:
            raise KeyError(f"no power weight for resource class {cls}") from None

    def total(self, graph: CDFG) -> float:
        """Weighted cost of executing every operation once (the paper's
        'without power management all operations are always executed')."""
        return sum(self.of(node.resource) for node in graph.operations())
