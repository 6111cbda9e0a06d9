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
from collections import Counter, OrderedDict
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
    grouping, unit/register binding — happens here, once; the runner
    never touches the graph again.
    """
    graph = design.graph
    schedule = design.schedule
    semantics = OpSemantics(width=design.width)
    registers = tuple(sorted(
        {reg.index for reg in set(design.registers.assignment.values())}))
    unit_ordinal = {unit: i for i, unit in enumerate(design.binding.units)}

    def source_plan(operand: int) -> SourcePlan:
        ref = resolve_source(graph, operand)
        root = graph.node(ref.root)
        if root.op is Op.CONST:
            value = semantics.wrap(root.value)
            for op, amount in ref.shifts:
                value = semantics.evaluate(op, [value, amount])
            return SourcePlan(const=value)
        return SourcePlan(
            register=design.registers.register_of(ref.root).index,
            shifts=ref.shifts)

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
        step = schedule.step_of(node.nid)
        unit = unit_ordinal[design.binding.unit_of(node.nid)]
        classes.setdefault(node.resource, None)
        sources = tuple(source_plan(p) for p in node.operands)
        for port in range(len(sources)):
            latch_ports.setdefault((unit, port), None)
        starts.setdefault(step, []).append(OpStart(
            nid=node.nid, resource=node.resource, unit=unit,
            guard=guard_plan(node.nid), sources=sources))
        ends.setdefault(step + node.latency - 1, []).append(OpEnd(
            nid=node.nid, resource=node.resource, unit=unit, op=node.op,
            dest_register=design.registers.register_of(node.nid).index))

    steps = tuple(
        StepPlan(starts=tuple(starts.get(step, ())),
                 ends=tuple(ends.get(step, ())))
        for step in range(schedule.n_steps))
    return ExecutionPlan(
        name=graph.name,
        width=design.width,
        n_steps=schedule.n_steps,
        controller_literals=design.controller.literal_count,
        inputs=tuple((n.name, design.registers.register_of(n.nid).index)
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


def _render_op(op: Op, operands: list[str], mask: int, sign: int) -> str:
    def wrap(expr: str) -> str:
        return f"((({expr}) & {mask}) ^ {sign}) - {sign}"

    a = operands[0]
    b = operands[1] if len(operands) > 1 else None
    if op is Op.ADD:
        return wrap(f"{a} + {b}")
    if op is Op.SUB:
        return wrap(f"{a} - {b}")
    if op is Op.MUL:
        return wrap(f"{a} * {b}")
    if op is Op.GT:
        return f"(1 if {a} > {b} else 0)"
    if op is Op.LT:
        return f"(1 if {a} < {b} else 0)"
    if op is Op.GE:
        return f"(1 if {a} >= {b} else 0)"
    if op is Op.LE:
        return f"(1 if {a} <= {b} else 0)"
    if op is Op.EQ:
        return f"(1 if {a} == {b} else 0)"
    if op is Op.NE:
        return f"(1 if {a} != {b} else 0)"
    if op is Op.MUX:
        return f"({operands[2]} if {a} else {operands[1]})"
    if op is Op.AND:
        return wrap(f"{a} & {b}")
    if op is Op.OR:
        return wrap(f"{a} | {b}")
    if op is Op.XOR:
        return wrap(f"{a} ^ {b}")
    if op is Op.NOT:
        return wrap(f"~{a}")
    raise ValueError(f"cannot compile {op!r}")  # pragma: no cover


def generate_outputs_source(plan: ExecutionPlan) -> str:
    """Python source of the design's ``_run(vectors, state, pm)`` program.

    ``pm`` (power management) is a run-time argument.  An op's value
    ``v<nid>`` is computed at its start step (so two ops sharing a unit
    in one step stay apart) and written to its register at its end step;
    a guarded op's enable ``g<nid>`` gates both.  The state is the
    register file.  Besides the outputs the program returns a trace, one
    tuple per vector: the wrapped inputs, every op's ``v<nid>`` in start
    order, every gated op's ``g<nid>`` and a 1 (the ungated ops' enable).
    """
    mask, sign = (1 << plan.width) - 1, 1 << (plan.width - 1)
    state = "".join(f"r{i}, " for i in plan.registers)

    def render(sp: SourcePlan) -> str:
        if sp.const is not None:
            return repr(sp.const)
        expr = f"r{sp.register}"
        for op, amount in sp.shifts:  # a right shift stays in range
            expr = (f"(((({expr}) << {amount}) & {mask}) ^ {sign}) - {sign}"
                    if op is Op.SHL else f"(({expr}) >> {amount})")
        return expr

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
    emit("    _append, _record = _outs.append, _trace.append")
    emit("    for _v in _vectors:")
    emit("        try:")
    for k, (name, reg) in enumerate(plan.inputs):
        emit(f"            r{reg} = _i{k} = ((_v[{name!r}] & {mask}) ^ {sign})"
             f" - {sign}")
    if not plan.inputs:
        emit("            pass")
    emit("        except KeyError as _e:")
    emit("            raise KeyError('missing input %r' % (_e.args[0],))"
         " from None")
    for step in plan.steps:
        for start in step.starts:
            value = _render_op(ops[start.nid],
                               [render(src) for src in start.sources],
                               mask, sign)
            if start.nid not in gated:
                emit(f"        v{start.nid} = {value}")
                continue
            # Enabled: always with PM off; with PM on, on the guard (never,
            # for a ``never`` guard).  Any truthy value enables.
            cond = " and ".join(
                f"({render(src)})" if want else f"(not ({render(src)}))"
                for src, want in start.guard.terms)
            emit(f"        g{start.nid} = not _pm"
                 + ("" if start.guard.never else f" or ({cond})"))
            emit(f"        if g{start.nid}: v{start.nid} = {value}")
        for end in step.ends:
            write = f"r{end.dest_register} = v{end.nid}"
            emit(f"        if g{end.nid}: {write}" if end.nid in gated
                 else f"        {write}")
    out_items = ", ".join(
        f"{name!r}: {render(src)}" for name, src in plan.outputs)
    emit(f"        _append({{{out_items}}})")
    emit(f"        _record(({', '.join(trace)},))")
    emit(f"    return _outs, ({state}), _trace")
    return "\n".join(lines) + "\n"


# -- activity from a value trace -------------------------------------------

# Widest design whose values array code holds as int64 (products need
# 2*width bits plus sign headroom); wider ones count on Python ints.
VECTOR_WIDTH_LIMIT = 62

# Vectors per runner call: a batch's trace is kept as arrays of this
# many rows, and counted one array at a time.
_CHUNK = 256

_bit_count = np.frompyfunc(int.bit_count, 1, 1)


def _masked_ffill(values: np.ndarray, mask: np.ndarray, carry: int,
                  idx1: np.ndarray) -> np.ndarray:
    """Solve ``out[i] = mask[i] ? values[i] : out[i-1]`` with ``out[-1] =
    carry`` — the end-of-pass column of a slot whose writes are all
    guarded — as pure array code.  ``idx1`` is ``arange(1, n + 1)``."""
    idx = np.maximum.accumulate(np.where(mask, idx1, 0))
    gathered = values[np.maximum(idx, 1) - 1]
    return np.where(idx > 0, gathered, carry)


class _Slots:
    """Write events ``(value, flag column, counter)`` of some state slots,
    per vector, laid out flat for a batch of ``n``: slot by slot, the
    slot's carry and then its events vector by vector.  Event ``e`` of
    vector ``i`` sits at ``a[e] + n * b[e] + i * c[e]``."""

    def __init__(self, slots: list[list[tuple]]) -> None:
        self.sizes = np.array([len(events) for events in slots], np.int64)
        self.before = np.concatenate(([0], np.cumsum(self.sizes)))
        slot = np.repeat(np.arange(len(slots)), self.sizes)
        self.a = np.arange(len(slot)) - self.before[slot] + slot + 1
        self.b, self.c = self.before[slot], self.sizes[slot]
        events = [event for events in slots for event in events]
        self.value, self.flag, self.counters = (
            [event[k] for event in events] for k in range(3))
        self.slots = np.arange(len(slots))

    def fill(self, values, enables, carry, mask: int):
        """Forward-fill disabled writes from each slot's carry: the flat
        filled array, toggles per event, and each slot's end value."""
        n = len(values)
        at = self.a + n * self.b + np.arange(n)[:, None] * self.c
        flat = np.empty(len(self.slots) + values.size, values.dtype)
        keep = np.ones(len(flat), bool)
        flat[self.slots + n * self.before[:-1]] = carry
        flat[at], keep[at] = values, enables
        flat = _masked_ffill(flat, keep, 0, np.arange(1, len(flat) + 1))
        flips = (flat[at] ^ flat[at - 1]) & mask
        count = _bit_count if flips.dtype == object else np.bitwise_count
        return (flat, count(flips).sum(axis=0).tolist(),
                flat[self.slots + n * self.before[1:]])


class _Layout:
    """Where each state slot's writes sit in a design's value trace:
    registers take input loads and op ends, FU outputs op ends (trace
    columns both); latches ``(unit, port)`` take op starts' operands,
    read from a constant or a filled register through a shift chain."""

    def __init__(self, plan: ExecutionPlan) -> None:
        n_in = len(plan.inputs)
        starts = [s for step in plan.steps for s in step.starts]
        gated = [s.nid for s in starts if not s.guard.unconditional]
        value = {s.nid: n_in + i for i, s in enumerate(starts)}
        always = n_in + len(starts) + len(gated)  # the trace's 1 column
        flag = dict.fromkeys(value, always) | {
            nid: n_in + len(starts) + i for i, nid in enumerate(gated)}
        slot = {reg: i for i, reg in enumerate(plan.registers)}
        held = [[] for _ in range(len(slot) + plan.n_units)]
        latched = {port: [] for port in plan.latch_ports}
        for k, (_name, reg) in enumerate(plan.inputs):
            held[slot[reg]].append((k, always, "_rt"))
        for step in plan.steps:
            for s in step.starts:
                for port, src in enumerate(s.sources):
                    reg = slot.get(src.register)
                    position = 0 if reg is None else len(held[reg])
                    read = (src.const, reg, position, src.shifts)
                    latched[s.unit, port].append(
                        (read, flag[s.nid], f"_ai_{s.resource.name}"))
            for e in step.ends:
                held[slot[e.dest_register]].append(
                    (value[e.nid], flag[e.nid], "_rt"))
                held[len(slot) + e.unit].append(
                    (value[e.nid], flag[e.nid], f"_ao_{e.resource.name}"))
        self.held = _Slots(held)
        self.latched = _Slots(list(latched.values()))
        self.op_flags = [flag[s.nid] for s in starts]
        self.names = (self.held.counters + self.latched.counters
                      + [f"_aa_{s.resource.name}" for s in starts]
                      + [f"_id_{s.resource.name}" for s in starts])
        reads = self.latched.value
        self.consts = [0 if r[1] is not None else r[0] for r in reads]
        self.reads, regs, positions = np.array(
            [(i, r[1], r[2]) for i, r in enumerate(reads) if r[1] is not None],
            np.int64).reshape(-1, 3).T
        self.read_at = (regs + positions, self.held.before[regs],
                        self.held.sizes[regs])
        self.chains: dict[tuple, list[int]] = {}
        for i, read in enumerate(reads):
            if read[3]:
                self.chains.setdefault(read[3], []).append(i)


def _count(runner: "_Runner", traces: list[np.ndarray], regs: tuple,
           units: tuple) -> tuple[ActivityCounter, tuple[int, ...]]:
    """Switching activity of one batch from its trace arrays, and the
    latches and FU outputs it leaves (``units``, :func:`_state_names`
    order).  ``regs`` is the register file the batch started from."""
    plan, layout = runner.plan, runner.layout
    mask, sign = (1 << plan.width) - 1, 1 << (plan.width - 1)
    n_latches = len(plan.latch_ports)
    held, latched = [*regs, *units[n_latches:]], units[:n_latches]
    n_all = sum(map(len, traces))
    tally = Counter(_cc=n_all * plan.n_steps,
                    _cl=n_all * plan.n_steps * plan.controller_literals)
    for rows in filter(len, traces):
        n = len(rows)
        rows = rows if rows.dtype == object else rows.astype(np.int64)
        fill, toggles, held = layout.held.fill(
            rows[:, layout.held.value], rows[:, layout.held.flag] != 0,
            np.array(held, rows.dtype), mask)
        operands = np.array(np.broadcast_to(
            layout.consts, (n, len(layout.consts))), rows.dtype)
        a, b, c = layout.read_at
        operands[:, layout.reads] = fill[a + n * b
                                         + np.arange(n)[:, None] * c]
        for shifts, cols in layout.chains.items():
            x = operands[:, cols]
            for op, amount in shifts:
                x = ((((x << amount) & mask) ^ sign) - sign
                     if op is Op.SHL else x >> amount)
            operands[:, cols] = x
        _fill, latch_toggles, latched = layout.latched.fill(
            operands, rows[:, layout.latched.flag] != 0,
            np.array(latched, rows.dtype), mask)
        on = (rows[:, layout.op_flags] != 0).sum(axis=0).tolist()
        for name, count in zip(layout.names, toggles + latch_toggles + on
                               + [n - k for k in on]):
            tally[name] += count
        held, latched = held.tolist(), latched.tolist()
    return _counter(plan, tally), (*latched, *held[len(regs):])


def _counter(plan: ExecutionPlan, tally) -> ActivityCounter:
    """An :class:`ActivityCounter` from per-counter totals."""
    counter = ActivityCounter(
        width=plan.width, register_toggles=tally["_rt"],
        controller_cycles=tally["_cc"], controller_literals=tally["_cl"])
    for cls in plan.classes:
        activations = tally[f"_aa_{cls.name}"]
        if activations:
            # Keys exist exactly when the interpreter would create
            # them: an enabled start always reaches its end event.
            counter.fu_input_toggles[cls] = tally[f"_ai_{cls.name}"]
            counter.fu_output_toggles[cls] = tally[f"_ao_{cls.name}"]
            counter.fu_activations[cls] = activations
        idles = tally[f"_id_{cls.name}"]
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
    with is built on first count."""

    def __init__(self, plan: ExecutionPlan) -> None:
        self.plan, self.source = plan, generate_outputs_source(plan)
        namespace: dict[str, object] = {}
        exec(compile(self.source, f"<engine:{plan.name}>", "exec"),
             namespace)
        self.run = namespace["_run"]
        # Narrowest integer holding a wrapped value: traces wait as these.
        self.dtype = object if plan.width > VECTOR_WIDTH_LIMIT \
            else np.min_scalar_type(-(1 << (plan.width - 1)))

    @cached_property
    def layout(self) -> _Layout:
        return _Layout(self.plan)


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
        """Run ``vectors`` (any iterable, lists or streams) in sequence."""
        units, regs = self._settle(), self._regs
        start, stream, outputs, traces = regs, iter(vectors), [], []
        while len(outputs) == len(traces) * _CHUNK:
            outs, regs, trace = self._run(islice(stream, _CHUNK), regs,
                                          self.power_management)
            outputs += outs
            traces.append(np.array(trace, self._runner.dtype))
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
