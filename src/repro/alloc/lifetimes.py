"""Value lifetime analysis for register allocation.

A value is *born* at its producer's finish step (latched on the clock edge
entering that step) and must be held through its last read.  Zero-latency
wiring nodes (constant shifts, pass-throughs) do not latch anything: a
consumer reading through them reads the underlying root value's register,
so their reads extend the root's lifetime.

Outputs are held to the end of the computation (step ``n_steps``);
constants occupy no register at all (hardwired).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.graph import CDFG
from repro.ir.ops import Op, is_wiring
from repro.sched.schedule import Schedule


@dataclass(frozen=True)
class SourceRef:
    """An operand source resolved through wiring.

    ``root`` is the id of the node whose register (or input port /
    hardwired constant) actually feeds the consumer; ``shifts`` lists the
    (op, amount) wiring transforms applied on the way, in signal order.
    """

    root: int
    shifts: tuple[tuple[Op, int], ...] = ()


def resolve_source(graph: CDFG, nid: int) -> SourceRef:
    """Follow wiring nodes down to the registered/structural root.

    Memoized in the graph's data-level memo: wiring is data structure,
    so copies share the result and ``add_node``/``set_latency`` drop it.
    """
    sources = graph._data().sources
    ref = sources.get(nid)
    if ref is None:
        shifts: list[tuple[Op, int]] = []
        current = nid
        while True:
            node = graph.node(current)
            if node.op is Op.PASS:
                current = node.operands[0]
            elif node.op in (Op.SHL, Op.SHR):
                amount = graph.node(node.operands[1])
                shifts.append((node.op, amount.value))
                current = node.operands[0]
            else:
                break
        ref = sources[nid] = SourceRef(root=current,
                                       shifts=tuple(reversed(shifts)))
    return ref


@dataclass(frozen=True)
class Lifetime:
    """Half-open-ish occupancy: the register is busy on steps
    [born, last_read] inclusive."""

    value: int       # root node id
    born: int
    last_read: int

    def conflicts(self, other: "Lifetime") -> bool:
        return not (self.last_read < other.born or other.last_read < self.born)


def value_lifetimes(schedule: Schedule) -> dict[int, Lifetime]:
    """Lifetime of every register-backed value (inputs + schedulable ops)."""
    graph = schedule.graph
    needs_register = {
        n.nid for n in graph
        if n.op is Op.INPUT or n.is_schedulable
    }
    born = {nid: schedule.finish_of(nid) if graph.node(nid).is_schedulable
            else 0
            for nid in needs_register}
    last_read = dict(born)  # minimum occupancy: the step the value appears

    for consumer in graph:
        if consumer.op is Op.CONST or consumer.op is Op.INPUT:
            continue
        read_step = schedule.step_of(consumer.nid)
        if consumer.op is Op.OUTPUT:
            read_step = schedule.n_steps
        for operand in consumer.operands:
            root = resolve_source(graph, operand).root
            if root in needs_register:
                last_read[root] = max(last_read[root], read_step)

    return {
        nid: Lifetime(value=nid, born=born[nid], last_read=last_read[nid])
        for nid in needs_register
    }
