"""Controller (FSM) generation.

The controller is a Moore machine with one state per control step.  Per
state it drives: result-register load enables (gated by guards for power-
managed ops — the paper's new controller routine), interconnect steering
selects, and input-register loads in state 0.

Complexity is measured in *literals* of the control equations: each load
or steering decode costs one state literal, and each guard term adds one
more.  The PM controller is therefore strictly more complex than the
baseline one — the effect the paper cites for Table III's slightly lower
savings — and the literal count feeds both the area and the power models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.alloc.fu_binding import Binding, FUInstance
from repro.alloc.interconnect import Interconnect
from repro.alloc.lifetimes import SourceRef, resolve_source
from repro.alloc.register_alloc import RegisterFile
from repro.rtl.guards import Guard


@dataclass(frozen=True)
class LoadSignal:
    """Load enable of one op's result register, active in one state."""

    op: int
    register: int            # Register.index
    state: int               # control step during which the load fires
    guard: Guard


@dataclass(frozen=True)
class SteerSignal:
    """Interconnect-mux select for (unit, port) during one state."""

    op: int
    unit: FUInstance
    port: int
    state: int
    source_index: int        # index into the port's source list


@dataclass
class Controller:
    """All control signals plus complexity accounting."""

    n_states: int
    loads: list[LoadSignal] = field(default_factory=list)
    steers: list[SteerSignal] = field(default_factory=list)
    input_loads: int = 0     # input registers, loaded in state 0

    def loads_in_state(self, state: int) -> list[LoadSignal]:
        return [s for s in self.loads if s.state == state]

    def steers_in_state(self, state: int) -> list[SteerSignal]:
        return [s for s in self.steers if s.state == state]

    @property
    def literal_count(self) -> int:
        """Total literals of the control equations (area/power driver)."""
        total = self.input_loads  # one decode each in state 0
        for load in self.loads:
            total += 1 + load.guard.literal_count
        for steer in self.steers:
            total += 1
        return total


def build_controller(
    binding: Binding,
    registers: RegisterFile,
    interconnect: Interconnect,
    guards: dict[int, Guard],
) -> Controller:
    """Derive the FSM signals from schedule, binding and guards."""
    schedule = binding.schedule
    graph = schedule.graph
    controller = Controller(n_states=schedule.n_steps)

    controller.input_loads = len(graph.inputs())
    # Per steered port, each source's first index in its source list.
    steering: dict[tuple[FUInstance, int], dict[SourceRef, int]] = {}
    steers: list[tuple[tuple[int, str, int], SteerSignal]] = []
    unguarded = Guard()

    for nid, unit in sorted(binding.assignment.items()):
        node = graph.node(nid)
        first_step = schedule.step_of(nid)
        controller.loads.append(LoadSignal(
            op=nid,
            register=registers.register_of(nid).index,
            state=first_step + node.latency - 1,
            guard=guards.get(nid, unguarded),
        ))
        # Steering selects for every multi-source port the op uses.
        for port in range(len(node.operands)):
            sources = interconnect.port_sources(unit, port)
            if len(sources) <= 1:
                continue
            index_of = steering.get((unit, port))
            if index_of is None:
                index_of = steering[unit, port] = {}
                for i, s in enumerate(sources):
                    index_of.setdefault(s.source, i)
            ref = resolve_source(graph, node.operands[port])
            steers.append(((first_step, unit.name, port), SteerSignal(
                op=nid, unit=unit, port=port, state=first_step,
                source_index=index_of[ref],
            )))

    controller.loads.sort(key=lambda s: (s.state, s.register))
    steers.sort(key=lambda keyed: keyed[0])
    controller.steers = [steer for _key, steer in steers]
    return controller
