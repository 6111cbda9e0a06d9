"""Execution-unit resource model.

An :class:`Allocation` says how many units of each
:class:`~repro.ir.ops.ResourceClass` the datapath provides.  Costs use the
paper's relative power weights as area proxies (a multiplier is far larger
than an adder), so "minimum resources" matches the intuition of HYPER's
resource-minimizing scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.graph import CDFG
from repro.ir.ops import ResourceClass

# Relative unit costs used when minimizing an allocation.  Mirrors the
# paper's power weights (MUX:1, COMP:4, +:3, -:3, *:20); LOGIC ~ COMP.
UNIT_COST: dict[ResourceClass, int] = {
    ResourceClass.MUX: 1,
    ResourceClass.COMP: 4,
    ResourceClass.ADD: 3,
    ResourceClass.SUB: 3,
    ResourceClass.MUL: 20,
    ResourceClass.LOGIC: 4,
}


@dataclass(frozen=True)
class Allocation:
    """Number of execution units available per resource class.

    ``counts`` is kept in resource-class order, so equal allocations have
    one ``repr`` (the basis of stage-cache and store keys) and one hash,
    whatever order their entries were given in.
    """

    counts: dict[ResourceClass, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for cls, n in self.counts.items():
            if n < 0:
                raise ValueError(f"negative allocation for {cls}: {n}")
        object.__setattr__(self, "counts", dict(
            sorted(self.counts.items(), key=lambda kv: kv[0].value)))

    def __hash__(self) -> int:
        return hash(tuple(self.counts.items()))

    def get(self, cls: ResourceClass) -> int:
        return self.counts.get(cls, 0)

    def with_extra(self, cls: ResourceClass, extra: int = 1) -> "Allocation":
        counts = dict(self.counts)
        counts[cls] = counts.get(cls, 0) + extra
        return Allocation(counts)

    def cost(self) -> int:
        """Weighted total unit cost (area proxy)."""
        return sum(UNIT_COST[cls] * n for cls, n in self.counts.items())

    def dominates(self, other: "Allocation") -> bool:
        """True if self has at least as many units of every class."""
        classes = set(self.counts) | set(other.counts)
        return all(self.get(c) >= other.get(c) for c in classes)

    def as_dict(self) -> dict[str, int]:
        return {cls.value: n for cls, n in self.counts.items()}

    def __str__(self) -> str:
        inner = ", ".join(f"{c.value}:{n}" for c, n in self.counts.items())
        return f"Allocation({inner})"


def unbounded_allocation(graph: CDFG) -> Allocation:
    """One unit per operation — always schedulable at the critical path."""
    counts: dict[ResourceClass, int] = {}
    for node in graph.operations():
        counts[node.resource] = counts.get(node.resource, 0) + 1
    return Allocation(counts)


def single_unit_allocation(graph: CDFG) -> Allocation:
    """One unit of each class used by the graph — the cheapest conceivable."""
    counts = {node.resource: 1 for node in graph.operations()}
    return Allocation(counts)


def lower_bound_allocation(graph: CDFG, n_steps: int) -> Allocation:
    """A simple lower bound: ceil(#ops of class / n_steps), at least 1."""
    totals: dict[ResourceClass, int] = {}
    for node in graph.operations():
        totals[node.resource] = totals.get(node.resource, 0) + 1
    steps = max(1, n_steps)
    return Allocation({cls: max(1, -(-n // steps)) for cls, n in totals.items()})
