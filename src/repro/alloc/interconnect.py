"""Interconnect generation: operand multiplexors in front of execution units.

After binding, each functional unit's input port may be fed from several
registers over the schedule; a steering multiplexor per port selects the
right source each step.  The port's mux size (number of distinct sources)
drives the interconnect area term of the Table III comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.alloc.fu_binding import Binding, FUInstance
from repro.alloc.lifetimes import SourceRef, resolve_source
from repro.alloc.register_alloc import RegisterFile
from repro.analysis.area import INTERCONNECT_MUX_AREA
from repro.ir.ops import Op, arity


@dataclass(frozen=True)
class PortSource:
    """One selectable source of a unit input port."""

    source: SourceRef
    is_const: bool
    const_value: int | None = None


@dataclass
class Interconnect:
    """Per (unit, port) set of selectable sources."""

    sources: dict[tuple[FUInstance, int], list[PortSource]] = \
        field(default_factory=dict)

    def port_sources(self, unit: FUInstance, port: int) -> list[PortSource]:
        return self.sources.get((unit, port), [])

    def mux_inputs(self, unit: FUInstance, port: int) -> int:
        return len(self.port_sources(unit, port))

    def area(self) -> int:
        """Steered inputs beyond the first cost mux area."""
        total = 0
        for port_sources in self.sources.values():
            if len(port_sources) > 1:
                total += INTERCONNECT_MUX_AREA * len(port_sources)
        return total


def build_interconnect(binding: Binding, registers: RegisterFile) -> Interconnect:
    """Collect the distinct sources feeding every bound unit input port."""
    graph = binding.schedule.graph
    ports: dict[tuple[FUInstance, int], dict[SourceRef, PortSource]] = {}
    for nid, unit in binding.assignment.items():
        node = graph.node(nid)
        for port in range(arity(node.op)):
            ref = resolve_source(graph, node.operands[port])
            sources = ports.setdefault((unit, port), {})
            if ref in sources:
                continue
            root = graph.node(ref.root)
            if root.op is Op.CONST:
                sources[ref] = PortSource(source=ref, is_const=True,
                                          const_value=root.value)
            else:
                registers.register_of(ref.root)  # must exist
                sources[ref] = PortSource(source=ref, is_const=False)
    return Interconnect(sources={key: list(sources.values())
                                 for key, sources in ports.items()})
