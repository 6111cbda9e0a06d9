"""Execution-unit binding.

Assign every scheduled operation to a concrete functional-unit instance of
its resource class such that no two ops occupy one unit in the same control
step (modulo II when pipelined).  Greedy interval assignment is optimal
here because same-class ops form an interval conflict graph.

``mutex_sharing=True`` additionally lets two operations share a unit in the
*same* step when they are mutually exclusive (paper §II-C's classical use
of exclusiveness) — off by default, since the paper's flow keeps them
separate and relies on input-latch gating instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.mutex import are_mutually_exclusive, guard_requirements
from repro.ir.ops import ResourceClass
from repro.sched.schedule import Schedule


@dataclass(frozen=True)
class FUInstance:
    """One physical execution unit."""

    resource: ResourceClass
    index: int

    @property
    def name(self) -> str:
        cls = self.resource.name.lower()
        return f"{cls}{self.index}"


@dataclass
class Binding:
    """Operation -> functional unit assignment."""

    schedule: Schedule
    assignment: dict[int, FUInstance] = field(default_factory=dict)

    @property
    def units(self) -> list[FUInstance]:
        return sorted(set(self.assignment.values()),
                      key=lambda u: (u.resource.value, u.index))

    def ops_on(self, unit: FUInstance) -> list[int]:
        return sorted(
            (nid for nid, u in self.assignment.items() if u == unit),
            key=lambda nid: self.schedule.step_of(nid),
        )

    def unit_of(self, nid: int) -> FUInstance:
        try:
            return self.assignment[nid]
        except KeyError:
            raise KeyError(f"op {nid} is not bound") from None

    def verify(self, mutex_sharing: bool = False) -> None:
        """Raise ValueError if two non-sharable ops collide on a unit."""
        graph = self.schedule.graph
        ii = self.schedule.initiation_interval
        requirements = guard_requirements(graph) if mutex_sharing else None
        occupied: dict[tuple[FUInstance, int], list[int]] = {}
        for nid, unit in self.assignment.items():
            node = graph.node(nid)
            if node.resource != unit.resource:
                raise ValueError(
                    f"op {node.label()} bound to {unit.name} of wrong class")
            start = self.schedule.step_of(nid)
            for step in range(start, start + node.latency):
                slot = step % ii if ii else step
                sharers = occupied.setdefault((unit, slot), [])
                for other in sharers:
                    if not (mutex_sharing and are_mutually_exclusive(
                            graph, nid, other, requirements)):
                        raise ValueError(
                            f"{unit.name} double-booked at step {slot}: "
                            f"{node.label()} vs {graph.node(other).label()}")
                sharers.append(nid)


def bind_operations(schedule: Schedule, mutex_sharing: bool = False) -> Binding:
    """Bind every op to a unit, creating as few instances as possible."""
    graph = schedule.graph
    ii = schedule.initiation_interval
    binding = Binding(schedule=schedule)
    requirements = guard_requirements(graph) if mutex_sharing else None

    by_class: dict[ResourceClass, list[int]] = {}
    for node in graph.operations():
        by_class.setdefault(node.resource, []).append(node.nid)

    for resource, ops in sorted(by_class.items(), key=lambda kv: kv[0].value):
        ops.sort(key=lambda nid: (schedule.step_of(nid), nid))
        # unit index -> {slot: ops sharing it}; a shared slot's ops must
        # be pairwise mutually exclusive, not just exclusive with the
        # first one placed there.
        units: list[dict[int, list[int]]] = []
        for nid in ops:
            node = graph.node(nid)
            start = schedule.step_of(nid)
            slots = [(s % ii if ii else s)
                     for s in range(start, start + node.latency)]
            placed = False
            for index, occupancy in enumerate(units):
                conflict = any(
                    not (mutex_sharing and are_mutually_exclusive(
                        graph, nid, other, requirements))
                    for slot in slots for other in occupancy.get(slot, ()))
                if not conflict:
                    for slot in slots:
                        occupancy.setdefault(slot, []).append(nid)
                    binding.assignment[nid] = FUInstance(resource, index)
                    placed = True
                    break
            if not placed:
                units.append({slot: [nid] for slot in slots})
                binding.assignment[nid] = FUInstance(resource, len(units) - 1)

    binding.verify(mutex_sharing=mutex_sharing)
    return binding
