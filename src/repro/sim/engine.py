"""Compiled batch simulation engine.

The interpreted :class:`~repro.sim.simulator.RTLSimulator` resolves every
operand through the graph, evaluates guards against a freshly built
driver-value dict and dispatches each opcode through an if-chain — per
operand, per step, per vector.  This module compiles a
:class:`~repro.rtl.design.SynthesizedDesign` once into a flat
:class:`ExecutionPlan` — pre-resolved operand sources (register index /
folded constant / shift chain), per-step start/end op tuples, guard-term
drivers and FU latch ports — and specializes the plan into one
straight-line Python program per design.  Power management is a run-time
argument of it, so both modes, the verify stage's outputs check and
simulated power all run one compile.

The program computes outputs and registers and records a value trace;
one NumPy function of the plan (:func:`_count`) counts switching
activity from it for every design.  State persists across batches, so a
split vector sequence counts exactly like one long interpreted run —
outputs and the merged :class:`~repro.sim.activity.ActivityCounter`
alike, as ``tests/sim/test_engine_differential.py`` pins.
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import islice
from typing import Iterable

import numpy as np

from repro.alloc.lifetimes import resolve_source
from repro.ir.ops import Op, OpSemantics, ResourceClass
from repro.rtl.design import SynthesizedDesign
from repro.sim.activity import ActivityCounter


# -- the flat execution plan ----------------------------------------------


@dataclass(frozen=True)
class SourcePlan:
    """One pre-resolved operand source.

    Either a compile-time constant (wiring shifts over CONST roots are
    folded away entirely) or a register index plus the shift chain to
    apply to the registered value at read time.
    """

    const: int | None = None
    register: int | None = None
    shifts: tuple[tuple[Op, int], ...] = ()


@dataclass(frozen=True)
class GuardPlan:
    """A node's load guard in source-plan terms.

    ``terms`` are (driver source, required truthiness) conjuncts;
    ``never`` marks a contradictory guard whose op is never enabled.
    """

    terms: tuple[tuple[SourcePlan, int], ...] = ()
    never: bool = False

    @property
    def unconditional(self) -> bool:
        return not self.terms and not self.never


@dataclass(frozen=True)
class OpStart:
    """Operand latching of one op at its start step."""

    nid: int
    resource: ResourceClass
    unit: int                        # ordinal into the design's unit list
    guard: GuardPlan
    sources: tuple[SourcePlan, ...]  # one per operand port


@dataclass(frozen=True)
class OpEnd:
    """Evaluation + result write-back of one op at its end step."""

    nid: int
    resource: ResourceClass
    unit: int
    op: Op
    dest_register: int


@dataclass(frozen=True)
class StepPlan:
    starts: tuple[OpStart, ...] = ()
    ends: tuple[OpEnd, ...] = ()


@dataclass(frozen=True)
class ExecutionPlan:
    """Everything the generated runner needs, flattened and index-bound."""

    name: str
    width: int
    n_steps: int
    controller_literals: int
    inputs: tuple[tuple[str, int], ...]          # (name, register index)
    outputs: tuple[tuple[str, SourcePlan], ...]  # (name, source)
    steps: tuple[StepPlan, ...] = ()
    registers: tuple[int, ...] = ()              # register indices in use
    n_units: int = 0
    latch_ports: tuple[tuple[int, int], ...] = ()  # (unit ordinal, port)
    classes: tuple[ResourceClass, ...] = ()      # in first-appearance order


def compile_plan(design: SynthesizedDesign) -> ExecutionPlan:
    """Flatten ``design`` into an :class:`ExecutionPlan`.

    All graph traversal — wiring resolution, guard lookup, schedule
    grouping, unit/register binding — happens here, in one walk over the
    operations that resolves each operand source once; the runner never
    touches the graph again.
    """
    graph = design.graph
    schedule = design.schedule
    semantics = OpSemantics(width=design.width)
    register_of = design.registers.register_of
    registers = tuple(sorted(
        {reg.index for reg in set(design.registers.assignment.values())}))
    unit_ordinal = {unit: i for i, unit in enumerate(design.binding.units)}
    sources: dict[int, SourcePlan] = {}

    def source_plan(operand: int) -> SourcePlan:
        plan = sources.get(operand)
        if plan is None:
            ref = resolve_source(graph, operand)
            root = graph.node(ref.root)
            if root.op is Op.CONST:
                value = semantics.wrap(root.value)
                for op, amount in ref.shifts:
                    value = semantics.evaluate(op, [value, amount])
                plan = SourcePlan(const=value)
            else:
                plan = SourcePlan(register=register_of(ref.root).index,
                                  shifts=ref.shifts)
            sources[operand] = plan
        return plan

    def guard_plan(nid: int) -> GuardPlan:
        guard = design.guards[nid]
        if guard.never:
            return GuardPlan(never=True)
        return GuardPlan(terms=tuple(
            (source_plan(term.driver), term.value) for term in guard.terms))

    # Group ops by start/end step in graph-operations order, exactly like
    # the interpreter builds its event tables.
    starts: dict[int, list[OpStart]] = {}
    ends: dict[int, list[OpEnd]] = {}
    latch_ports: dict[tuple[int, int], None] = {}
    classes: dict[ResourceClass, None] = {}
    for node in graph.operations():
        nid, resource = node.nid, node.resource
        step = schedule.step_of(nid)
        unit = unit_ordinal[design.binding.unit_of(nid)]
        classes.setdefault(resource, None)
        sources_of = tuple(map(source_plan, node.operands))
        for port in range(len(sources_of)):
            latch_ports.setdefault((unit, port), None)
        starts.setdefault(step, []).append(OpStart(
            nid=nid, resource=resource, unit=unit, guard=guard_plan(nid),
            sources=sources_of))
        ends.setdefault(step + node.latency - 1, []).append(OpEnd(
            nid=nid, resource=resource, unit=unit, op=node.op,
            dest_register=register_of(nid).index))

    steps = tuple(
        StepPlan(starts=tuple(starts.get(step, ())),
                 ends=tuple(ends.get(step, ())))
        for step in range(schedule.n_steps))
    return ExecutionPlan(
        name=graph.name,
        width=design.width,
        n_steps=schedule.n_steps,
        controller_literals=design.controller.literal_count,
        inputs=tuple((n.name, register_of(n.nid).index)
                     for n in graph.inputs()),
        outputs=tuple((n.name, source_plan(n.operands[0]))
                      for n in graph.outputs()),
        steps=steps,
        registers=registers,
        n_units=len(unit_ordinal),
        latch_ports=tuple(latch_ports),
        classes=tuple(classes),
    )


# -- code generation -------------------------------------------------------

def _state_names(plan: ExecutionPlan) -> tuple[str, ...]:
    """Both engines' state layout: registers, latches ``l<unit>_<port>``
    and FU outputs ``fo<unit>``."""
    names = [f"r{i}" for i in plan.registers]
    names += [f"l{u}_{p}" for u, p in plan.latch_ports]
    names += [f"fo{u}" for u in range(plan.n_units)]
    return tuple(names)


# An op's value over its rendered operands ``{0}``, ``{1}``, ``{2}``, each
# an atom or a parenthesized expression.  Only arithmetic wraps: bitwise
# ops of in-range values stay in range, and a comparison is 0 or 1, in
# range from width 2 up (see ``_WIDTH_ONE_TEMPLATES``).
_TEMPLATES: dict[Op, str] = {
    Op.ADD: "((({0} + {1}) & {mask}) ^ {sign}) - {sign}",
    Op.SUB: "((({0} - {1}) & {mask}) ^ {sign}) - {sign}",
    Op.MUL: "((({0} * {1}) & {mask}) ^ {sign}) - {sign}",
    Op.GT: "+({0} > {1})",
    Op.LT: "+({0} < {1})",
    Op.GE: "+({0} >= {1})",
    Op.LE: "+({0} <= {1})",
    Op.EQ: "+({0} == {1})",
    Op.NE: "+({0} != {1})",
    Op.AND: "{0} & {1}",
    Op.OR: "{0} | {1}",
    Op.XOR: "{0} ^ {1}",
    Op.NOT: "~{0}",
    Op.MUX: "{2} if {0} else {1}",
}
# At width 1 the signed range is {-1, 0}, so an operand may be a
# comparison's out-of-range 1: the bitwise ops wrap, as the model does.
_WIDTH_ONE_TEMPLATES: dict[Op, str] = {
    **_TEMPLATES,
    **{op: f"((({_TEMPLATES[op]}) & {{mask}}) ^ {{sign}}) - {{sign}}"
       for op in (Op.AND, Op.OR, Op.XOR, Op.NOT)},
}


def generate_outputs_source(plan: ExecutionPlan) -> str:
    """Python source of the design's ``_run(vectors, state, pm)`` program.

    ``pm`` (power management) is a run-time argument.  An op's value
    ``v<nid>`` is computed at its start step (so two ops sharing a unit
    in one step stay apart) and written to its register at its end step;
    a guarded op's enable ``g<nid>`` gates both.  An op that ends in the
    step it starts writes its register in the same statement, unless a
    later start of that step reads the register or another op of the
    step writes it.  The state is the register file.  Besides the
    outputs the program returns a trace, one row per vector packed by
    the global ``_PACK``: the wrapped inputs, every op's ``v<nid>`` in
    start order, every gated op's ``g<nid>`` and a 1 (the ungated ops'
    enable).  A missing input raises a bare ``KeyError`` of its name.
    """
    mask, sign = (1 << plan.width) - 1, 1 << (plan.width - 1)
    state = "".join(f"r{i}, " for i in plan.registers)

    def render(sp: SourcePlan) -> str:
        if sp.const is not None:
            return repr(sp.const)
        expr = f"r{sp.register}"
        for op, amount in sp.shifts:
            expr = f"{expr} {'<<' if op is Op.SHL else '>>'} {amount}"
            # A right shift stays in range, but at width 1 a register
            # may hold a comparison's 1.
            if op is Op.SHL or plan.width == 1:
                expr = f"((({expr}) & {mask}) ^ {sign}) - {sign}"
            expr = f"({expr})"
        return expr

    templates = _TEMPLATES if plan.width > 1 else _WIDTH_ONE_TEMPLATES
    ops = {end.nid: end.op for step in plan.steps for end in step.ends}
    starts = [start for step in plan.steps for start in step.starts]
    gated = dict.fromkeys(s.nid for s in starts if not s.guard.unconditional)
    trace = ([f"_i{k}" for k in range(len(plan.inputs))]
             + [f"v{s.nid}" for s in starts]
             + [f"g{nid}" for nid in gated] + ["1"])
    lines: list[str] = []
    emit = lines.append
    emit(f"def _run(_vectors, _state, _pm):  # compiled from {plan.name!r}")
    emit(f"    ({state}) = _state")
    if gated:  # a shut-down op's value is traced, never counted
        emit("    " + " = ".join(f"v{nid}" for nid in gated) + " = 0")
    emit("    _outs, _trace = [], []")
    emit("    _append, _record, _pack = _outs.append, _trace.append, _PACK")
    emit("    for _v in _vectors:")
    for k, (name, reg) in enumerate(plan.inputs):
        emit(f"        r{reg} = _i{k} = ((_v[{name!r}] & {mask}) ^ {sign})"
             f" - {sign}")
    for step in plan.steps:
        dests = [end.dest_register for end in step.ends]
        dest = {end.nid: end.dest_register for end in step.ends
                if dests.count(end.dest_register) == 1}
        last_read: dict[int | None, int] = {}  # register -> last start
        for i, start in enumerate(step.starts if dest else ()):
            for src in start.sources:
                last_read[src.register] = i
            for src, _want in start.guard.terms:
                last_read[src.register] = i
        merged = set()
        for i, start in enumerate(step.starts):
            nid = start.nid
            value = templates[ops[nid]].format(
                *map(render, start.sources), mask=mask, sign=sign)
            if nid in dest and last_read.get(dest[nid], i) <= i:
                merged.add(nid)
                value = f"r{dest[nid]} = v{nid} = {value}"
            else:
                value = f"v{nid} = {value}"
            if nid not in gated:
                emit(f"        {value}")
                continue
            # Enabled: always with PM off; with PM on, on the guard (never,
            # for a ``never`` guard).  Any truthy value enables.
            cond = " and ".join(
                render(src) if want else f"not {render(src)}"
                for src, want in start.guard.terms)
            emit(f"        g{nid} = not _pm"
                 + ("" if start.guard.never else f" or ({cond})"))
            emit(f"        if g{nid}: {value}")
        for end in step.ends:
            if end.nid in merged:
                continue
            write = f"r{end.dest_register} = v{end.nid}"
            emit(f"        if g{end.nid}: {write}" if end.nid in gated
                 else f"        {write}")
    out_items = ", ".join(
        f"{name!r}: {render(src)}" for name, src in plan.outputs)
    emit(f"        _append({{{out_items}}})")
    emit(f"        _record(_pack({', '.join(trace)}))")
    emit(f"    return _outs, ({state}), _trace")
    return "\n".join(lines) + "\n"


# -- activity from a value trace -------------------------------------------

# Widest design whose values array code holds as int64 (products need
# 2*width bits plus sign headroom); wider ones count on Python ints.
VECTOR_WIDTH_LIMIT = 62

# Vectors per runner call: a batch's trace is kept as one list of packed
# rows per call, and counted one such chunk at a time.
_CHUNK = 256

_bit_count = np.frompyfunc(int.bit_count, 1, 1)


def _trace_width(plan: ExecutionPlan) -> int:
    """Values per vector in the program's trace (see
    :func:`generate_outputs_source`)."""
    starts = [s for step in plan.steps for s in step.starts]
    return (len(plan.inputs) + len(starts)
            + sum(not s.guard.unconditional for s in starts) + 1)


class _Slots:
    """The write events of some state slots, laid out for array code with
    indices that do not depend on the batch size.

    A batch of ``n`` vectors is counted on an ``(n + 1, width)`` matrix
    that holds, per slot, a carry column and then the slot's events in
    order.  Row 0 holds each slot's value before the batch; row ``i + 1``
    holds vector ``i``'s writes and, in the carry columns, each slot's
    value after vector ``i - 1``.  Slots whose events are all enabled
    come first; only the columns from ``split`` on, the slots with a
    gated event, need a forward fill.  ``column`` is each event's
    column, in the order the events were given; ``counters`` the counter
    that each column but the first counts its toggles to (``dropped``
    for carry columns, which toggle against another slot's column).
    """

    def __init__(self, slots: list[int], n_slots: int, gated: list[bool],
                 counters: list[int], dropped: int) -> None:
        sizes = [0] * n_slots
        for at in slots:
            sizes[at] += 1
        walked = [size == 0 for size in sizes]  # slots the fill walks
        for at, flag in zip(slots, gated):
            walked[at] = walked[at] or flag
        carry, width = [0] * n_slots, 0
        for at in sorted(range(n_slots), key=walked.__getitem__):
            carry[at], width = width, width + sizes[at] + 1
        after = list(carry)  # each slot's last column so far
        column = []
        for at in slots:
            after[at] += 1
            column.append(after[at])
        plain = [at for at in range(n_slots) if not walked[at]]
        filled = [at for at in range(n_slots) if walked[at]]
        self.width = width
        self.split = sum(sizes[at] + 1 for at in plain)
        self.carry = np.array(carry, np.int64)
        self.column = np.array(column, np.int64)
        self.plain = (self.carry[plain], np.array(after, np.int64)[plain])
        self.walked = (self.carry[filled] - self.split,
                       np.array(after, np.int64)[filled] - self.split)
        self.ends = np.array(plain + filled, np.int64)
        self.first = np.zeros(width - self.split, bool)
        self.first[self.walked[0]] = True
        self.counters = self.columns(counters, dropped)[1:]

    def columns(self, per_event, fill, dtype=np.int64) -> np.ndarray:
        """A value per column: ``per_event`` at the events' columns,
        ``fill`` at the carry columns."""
        out = np.full(self.width, fill, dtype)
        out[self.column] = per_event
        return out

    def fill(self, x: np.ndarray, enables: np.ndarray,
             mask: int) -> tuple[np.ndarray, np.ndarray]:
        """Fill ``x`` in place: set the carry columns, and carry each
        slot's value over its disabled writes (``enables``, one column
        per column from ``split`` on).  Returns the toggles of each
        column but the first against the column before it, and each
        slot's value after the batch."""
        rows, width = x.shape
        carry, last = self.plain
        x[1, carry] = x[0, carry]
        x[2:, carry] = x[1:-1, last]
        end = np.empty(len(self.ends), x.dtype)
        end[self.ends[:len(carry)]] = x[-1, last]
        if self.split < width:
            carry, last = self.walked
            on = np.empty((rows, width - self.split), bool)
            on[0], on[1:] = self.first, enables
            pos = (np.arange(self.split, width)
                   + np.arange(0, rows * width, width)[:, None])
            at = np.maximum.accumulate(np.where(on, pos, 0), axis=1)
            own = pos[:, carry]
            ends = at[:, last]     # where each row leaves each slot
            ends[ends == own] = 0  # unwritten: where the row before left it
            ends[0] = own[0]
            np.maximum.accumulate(ends, axis=0, out=ends)
            flat = x.reshape(-1)
            flat[own[1:]] = flat[ends[:-1]]
            x[:, self.split:] = flat[at]
            end[self.ends[len(self.plain[0]):]] = flat[ends[-1]]
        flips = (x[1:, 1:] ^ x[1:, :-1]) & mask
        count = _bit_count if flips.dtype == object else np.bitwise_count
        return count(flips).sum(axis=0), end


class _Layout:
    """Where each state slot's writes sit in a design's value trace:
    registers take input loads and op ends, FU outputs op ends (trace
    columns both); latches ``(unit, port)`` take op starts' operands,
    read from a constant or a filled register through a shift chain.
    Built in one walk over the plan.

    Counters are numbered: 0 register toggles, then per resource class
    ``c`` (``plan.classes`` order) FU input toggles ``1 + 4c``, output
    toggles ``2 + 4c``, activations ``3 + 4c`` and idles ``4 + 4c``."""

    def __init__(self, plan: ExecutionPlan) -> None:
        n_in = len(plan.inputs)
        starts = [s for step in plan.steps for s in step.starts]
        gated = [s.nid for s in starts if not s.guard.unconditional]
        value = {s.nid: n_in + i for i, s in enumerate(starts)}
        always = _trace_width(plan) - 1  # the trace's 1 column
        flag = dict.fromkeys(value, always) | {
            nid: n_in + len(starts) + i for i, nid in enumerate(gated)}
        first = {cls: 1 + 4 * i for i, cls in enumerate(plan.classes)}
        self.names = ["_rt"] + [name for cls in plan.classes
                                for name in _counter_names(cls)]
        dropped = len(self.names)
        slot = {reg: i for i, reg in enumerate(plan.registers)}
        latch = {port: i for i, port in enumerate(plan.latch_ports)}
        # Held slots' write events: slot, value column, flag, counter.
        h_slot = [slot[reg] for _name, reg in plan.inputs]
        h_value, h_flag = list(range(n_in)), [always] * n_in
        h_counter = [0] * n_in
        writes = [0] * (len(slot) + plan.n_units)  # events per held slot
        for at in h_slot:
            writes[at] += 1
        # Latch write events: latch, flag, counter, and the operand they
        # read: a constant, or a held slot (-1: none) after some writes.
        latched: list[tuple[int, int, int, int, int, int]] = []
        event = latched.append
        chains: dict[tuple, list[int]] = {}
        for step in plan.steps:
            for s in step.starts:
                enable, counter = flag[s.nid], first[s.resource]
                for port, src in enumerate(s.sources):
                    if src.shifts:
                        chains.setdefault(src.shifts, []).append(len(latched))
                    if src.const is None:
                        at = slot[src.register]
                        event((latch[s.unit, port], enable, counter, 0, at,
                               writes[at]))
                    else:
                        event((latch[s.unit, port], enable, counter,
                               src.const, -1, 0))
            for e in step.ends:
                column, enable = value[e.nid], flag[e.nid]
                reg, unit = slot[e.dest_register], len(slot) + e.unit
                h_slot += (reg, unit)
                h_value += (column, column)
                h_flag += (enable, enable)
                h_counter += (0, first[e.resource] + 1)
                writes[reg] += 1
                writes[unit] += 1
        l_latch, l_flag, l_counter, l_const, l_slot, l_after = (
            zip(*latched) if latched else ((),) * 6)
        self.held = _Slots(h_slot, len(writes),
                           [f != always for f in h_flag], h_counter, dropped)
        self.held_value = self.held.columns(h_value, 0)
        self.held_flag = self.held.columns(h_flag, always)[self.held.split:]
        self.latched = _Slots(l_latch, len(latch),
                              [f != always for f in l_flag], l_counter,
                              dropped)
        self.latched_flag = self.latched.columns(
            l_flag, always)[self.latched.split:]
        self.consts = self.latched.columns(
            l_const, 0, object if plan.width > VECTOR_WIDTH_LIMIT
            else np.int64)
        reads = np.asarray(l_slot, np.int64)
        self.read_to = self.latched.column[reads >= 0]
        self.read_from = (self.held.carry[reads]
                          + np.asarray(l_after, np.int64))[reads >= 0]
        self.chains = [(shifts, self.latched.column[events])
                       for shifts, events in chains.items()]
        self.op_flags = np.array([flag[s.nid] for s in starts], np.int64)
        activations = np.array([first[s.resource] + 2 for s in starts],
                               np.int64)
        self.index = np.concatenate((self.held.counters,
                                     self.latched.counters,
                                     activations, activations + 1))


def _count(runner: "_Runner", traces: list, regs: tuple,
           units: tuple) -> tuple[ActivityCounter, tuple[int, ...]]:
    """Switching activity of one batch from its chunks' traces, and the
    latches and FU outputs it leaves (``units``, :func:`_state_names`
    order).  ``regs`` is the register file the batch started from."""
    plan, layout = runner.plan, runner.layout
    mask, sign = (1 << plan.width) - 1, 1 << (plan.width - 1)
    n_latches = len(plan.latch_ports)
    held, latched = [*regs, *units[n_latches:]], units[:n_latches]
    total = np.zeros(len(layout.names) + 1, np.int64)
    n_all = 0
    for rows in map(runner.rows, traces):
        n = len(rows)
        if not n:
            continue
        n_all += n
        enabled = rows != 0
        filled = np.empty((n + 1, layout.held.width), rows.dtype)
        filled[0, layout.held.carry] = held
        np.take(rows, layout.held_value, axis=1, out=filled[1:])
        toggles, held = layout.held.fill(
            filled, enabled[:, layout.held_flag], mask)
        x = np.empty((n + 1, layout.latched.width), rows.dtype)
        x[0, layout.latched.carry], x[1:] = latched, layout.consts
        x[1:, layout.read_to] = filled[1:, layout.read_from]
        for shifts, cols in layout.chains:
            operands = x[1:, cols]
            for op, amount in shifts:
                operands = ((((operands << amount) & mask) ^ sign) - sign
                            if op is Op.SHL else operands >> amount)
            x[1:, cols] = operands
        latch_toggles, latched = layout.latched.fill(
            x, enabled[:, layout.latched_flag], mask)
        active = enabled[:, layout.op_flags].sum(axis=0)
        np.add.at(total, layout.index, np.concatenate(
            (toggles, latch_toggles, active, n - active)).astype(np.int64))
    tally = dict(zip(layout.names, total.tolist()),
                 _cc=n_all * plan.n_steps,
                 _cl=n_all * plan.n_steps * plan.controller_literals)
    held, latched = np.asarray(held).tolist(), np.asarray(latched).tolist()
    return _counter(plan, tally), (*latched, *held[len(regs):])


@cache
def _counter_names(cls: ResourceClass) -> tuple[str, str, str, str]:
    """Tally keys of a resource class: FU input toggles, output toggles,
    activations and idles."""
    return tuple(f"_{kind}_{cls.name}" for kind in ("ai", "ao", "aa", "id"))


def _counter(plan: ExecutionPlan, tally) -> ActivityCounter:
    """An :class:`ActivityCounter` from per-counter totals."""
    counter = ActivityCounter(
        width=plan.width, register_toggles=tally["_rt"],
        controller_cycles=tally["_cc"], controller_literals=tally["_cl"])
    for cls in plan.classes:
        inputs, outputs, activations, idles = map(
            tally.__getitem__, _counter_names(cls))
        if activations:
            # Keys exist exactly when the interpreter would create
            # them: an enabled start always reaches its end event.
            counter.fu_input_toggles[cls] = inputs
            counter.fu_output_toggles[cls] = outputs
            counter.fu_activations[cls] = activations
        if idles:
            counter.fu_idles[cls] = idles
    return counter


# -- compile-once caches ---------------------------------------------------

# Designs are immutable once elaborated, so plans and runners are cached
# by a content fingerprint of the design: equal designs built apart (an
# exploration point revisited by an ``explore()`` worker) compile once.
# A cached design holds about 40-100 KB.  Nearly every hit is an engine
# for the design just compiled (a power run's baseline/managed pair, the
# verify stage's two modes, a verified design's power run), so on
# explore, serve and anneal traffic 128 entries hit as often as an
# unbounded cache (64 designs on the vectorized backend, one runner per
# mode); at 512 a server worker kept 20+ MB it never looked up again.
_LRU_MAX = 128

# Every cache built with _make_lru registers here so
# clear_compile_caches() can flush the vectorized backend's runner cache
# too without a circular import.
_ALL_CACHES: list[OrderedDict] = []


def _make_lru() -> OrderedDict:
    cache: OrderedDict = OrderedDict()
    _ALL_CACHES.append(cache)
    return cache


def _lru_get(cache: OrderedDict, key):
    entry = cache.get(key)
    if entry is not None:
        cache.move_to_end(key)
    return entry


def _lru_put(cache: OrderedDict, key, value) -> None:
    cache[key] = value
    cache.move_to_end(key)
    while len(cache) > _LRU_MAX:
        cache.popitem(last=False)


_PLAN_CACHE = _make_lru()    # fingerprint -> ExecutionPlan
_RUNNER_CACHE = _make_lru()  # fingerprint -> _Runner


def design_fingerprint(design: SynthesizedDesign) -> str:
    """Stable content hash of everything plan compilation reads.

    Covers the graph, schedule, unit binding, register assignment,
    guards, controller complexity and datapath width; memoized on the
    design instance (designs are treated as immutable once elaborated).
    Control edges are hashed as a set: the order the PM pass happened to
    add them in changes no plan.  The hash is over the ``repr`` of one
    tuple of sorted plain values (ints, strings, tuples), which is stable
    across processes.
    """
    cached = design.__dict__.get("_sim_fingerprint")
    if cached is not None:
        return cached
    graph = design.graph
    payload = (
        graph.name,
        sorted((node.nid, node.op.name, node.operands, node.name,
                node.value, node.latency) for node in graph),
        sorted(graph.control_edges()),
        design.width,
        design.schedule.n_steps,
        sorted(design.schedule.start.items()),
        sorted((nid, unit.resource.name, unit.index)
               for nid, unit in design.binding.assignment.items()),
        sorted((nid, reg.index)
               for nid, reg in design.registers.assignment.items()),
        sorted((nid, guard.never,
                tuple((t.driver, t.value) for t in guard.terms))
               for nid, guard in design.guards.items()),
        design.controller.literal_count,
    )
    fingerprint = hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()
    design.__dict__["_sim_fingerprint"] = fingerprint
    return fingerprint


def cached_plan(design: SynthesizedDesign) -> ExecutionPlan:
    """The design's :class:`ExecutionPlan`, compiled at most once per
    content fingerprint (shared by the compiled and vectorized backends)."""
    key = design_fingerprint(design)
    plan = _lru_get(_PLAN_CACHE, key)
    if plan is None:
        plan = compile_plan(design)
        _lru_put(_PLAN_CACHE, key, plan)
    return plan


def clear_compile_caches() -> None:
    """Drop all cached plans and generated runners, every backend's
    (mainly for tests)."""
    for cache in _ALL_CACHES:
        cache.clear()


# -- the engine ------------------------------------------------------------


class _Runner:
    """A design's compiled program; the layout its traces are counted
    with is built on first count.

    The program packs each vector's trace row into bytes of the
    narrowest integer that holds a wrapped value (past the width limit,
    into a tuple of Python ints), so a long run's trace stays compact
    and a count reads each chunk with one ``frombuffer``.
    """

    def __init__(self, plan: ExecutionPlan) -> None:
        self.plan, self.source = plan, generate_outputs_source(plan)
        self.width = _trace_width(plan)
        if plan.width > VECTOR_WIDTH_LIMIT:
            self.dtype, pack = None, (lambda *row: row)
        else:
            self.dtype = np.min_scalar_type(-(1 << (plan.width - 1)))
            code = {1: "b", 2: "h", 4: "i", 8: "q"}[self.dtype.itemsize]
            pack = struct.Struct(f"={self.width}{code}").pack
        namespace: dict[str, object] = {"_PACK": pack}
        exec(compile(self.source, f"<engine:{plan.name}>", "exec"),
             namespace)
        self.run = namespace["_run"]

    @cached_property
    def layout(self) -> _Layout:
        return _Layout(self.plan)

    def rows(self, trace: list) -> np.ndarray:
        """A chunk's trace as the int64 (past the width limit, object)
        ``(vectors, width)`` array :func:`_count` reads."""
        if self.dtype is None:
            return np.array(trace, object).reshape(-1, self.width)
        return np.frombuffer(b"".join(trace), self.dtype).reshape(
            -1, self.width).astype(np.int64)


class BatchResult:
    """Outputs and merged switching activity of one vector batch.  A
    compiled engine passes ``activity`` as a callable that counts it:
    the first read calls it."""

    def __init__(self, outputs: list[dict[str, int]], activity) -> None:
        self.outputs, self._activity = outputs, activity

    @property
    def activity(self) -> ActivityCounter:
        if callable(self._activity):
            self._activity = self._activity()
        return self._activity

    @property
    def samples(self) -> int:
        return len(self.outputs)


class CompiledEngine:
    """Executes vector batches against a compiled design.

    Hardware state (registers, input latches, FU outputs) persists across
    :meth:`run_batch` calls, so split batches equal one big batch — the
    property Monte Carlo estimation relies on.  The runner is cached by
    design fingerprint and takes ``power_management`` as an argument, so
    equal designs compile once for both modes.  A batch's activity,
    latches and FU outputs are counted from its trace when ``activity``
    is first read or before the next batch runs, so a caller that reads
    outputs only counts nothing.
    """

    backend = "compiled"
    # Set by :func:`repro.sim.backend.create_engine`: the backend it
    # resolved to and why (``None`` for engines built directly).
    chosen_backend: str | None = None
    backend_reason: str | None = None

    def __init__(self, design: SynthesizedDesign,
                 power_management: bool = True) -> None:
        self.design = design
        self.power_management = power_management
        key = design_fingerprint(design)
        runner = _lru_get(_RUNNER_CACHE, key)
        if runner is None:
            runner = _Runner(cached_plan(design))
            _lru_put(_RUNNER_CACHE, key, runner)
        self._runner, self.plan, self.source, self._run = \
            runner, runner.plan, runner.source, runner.run
        self.reset()

    def _settle(self) -> tuple[int, ...]:
        """Count any pending batch: the latches and FU outputs it left."""
        if self._pending is not None:
            self._units, self._pending = self._pending()[1], None
        return self._units

    def run_batch(self, vectors: Iterable[dict[str, int]]) -> BatchResult:
        """Run ``vectors`` (any iterable, lists or streams) in sequence.

        A vector without a value for some input raises
        ``KeyError("missing input 'name'")`` and leaves the state as it
        was before the batch."""
        units, regs = self._settle(), self._regs
        start, stream, outputs, traces = regs, iter(vectors), [], []
        try:
            while len(outputs) == len(traces) * _CHUNK:
                outs, regs, trace = self._run(islice(stream, _CHUNK), regs,
                                              self.power_management)
                outputs += outs
                traces.append(trace)
        except KeyError as error:
            raise KeyError(f"missing input {error.args[0]!r}") from None
        self._regs, self.samples = regs, self.samples + len(outputs)
        pending = self._pending = cache(partial(_count, self._runner, traces,
                                                start, units))
        return BatchResult(outputs, lambda: pending()[0])

    def run_many(self, vectors: Iterable[dict[str, int]]) -> tuple[
            list[dict[str, int]], ActivityCounter]:
        """Drop-in signature twin of :meth:`RTLSimulator.run_many`."""
        result = self.run_batch(vectors)
        return result.outputs, result.activity

    def state(self) -> dict[str, int]:
        """Named registers, latches and FU outputs (debug/test aid)."""
        return dict(zip(_state_names(self.plan),
                        (*self._regs, *self._settle())))

    def reset(self) -> None:
        """Zero all hardware state and drop a pending batch's trace."""
        self._regs = (0,) * len(self.plan.registers)
        self._units = (0,) * (len(self.plan.latch_ports) + self.plan.n_units)
        self._pending, self.samples = None, 0
