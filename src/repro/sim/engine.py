"""Compiled batch simulation engine.

The interpreted :class:`~repro.sim.simulator.RTLSimulator` resolves every
operand through the graph (``resolve_source``), evaluates guards against a
freshly built driver-value dict and dispatches each opcode through an
if-chain — per operand, per step, per vector.  That is the hot path of
``measure_power`` and every Table III regeneration.

This module compiles a :class:`~repro.rtl.design.SynthesizedDesign` once
into a flat :class:`ExecutionPlan` — pre-resolved operand sources
(register index / folded constant / shift chain), per-step start/end op
tuples, guard-term drivers and FU latch ports as state-array slots — and
then specializes the plan into straight-line Python (one generated
``_run`` function per design, built with :func:`exec`; power management
is a run-time argument of it, so both modes share the compile).
Register file, input latches, FU outputs and all activity counters live
in one flat state tuple that persists across batches, so switching
activity between consecutive vectors — and between consecutive
*batches* — is modelled exactly like one long interpreted run.

Checks that compare outputs only (the pipeline's verify stage) build a
second, outputs-only program from the same plan: the same guards and
register write-back, no latches, FU outputs or counters.  It compiles
in about a quarter to a third of the power runner's time.

The engine is bit-for-bit equivalent to the legacy simulator: the same
outputs and the same merged :class:`~repro.sim.activity.ActivityCounter`
(including which resource-class keys exist).  The differential property
tests in ``tests/sim/test_engine_differential.py`` pin that equivalence
against both the interpreter and the functional reference model.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

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
    n_operands: int
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
            n_operands=len(sources),
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

# Activity-counter state variables, in the order they appear per class.
_CLASS_COUNTERS = ("_ai", "_ao", "_aa", "_id")


def _state_names(plan: ExecutionPlan,
                 activity: bool = True) -> tuple[str, ...]:
    names = [f"r{i}" for i in plan.registers]
    if not activity:
        return tuple(names)
    names += [f"l{u}_{p}" for u, p in plan.latch_ports]
    names += [f"fo{u}" for u in range(plan.n_units)]
    names += ["_rt", "_cc", "_cl"]
    for cls in plan.classes:
        names += [f"{prefix}_{cls.name}" for prefix in _CLASS_COUNTERS]
    return tuple(names)


def _render_source(sp: SourcePlan, mask: int, sign: int) -> str:
    if sp.const is not None:
        return repr(sp.const)
    expr = f"r{sp.register}"
    for op, amount in sp.shifts:
        if op is Op.SHL:
            expr = f"(((({expr}) << {amount}) & {mask}) ^ {sign}) - {sign}"
        else:  # arithmetic shift right of an in-range value stays in range
            expr = f"(({expr}) >> {amount})"
    return expr


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


def _render_enable(guard: GuardPlan, render) -> str:
    """The ``if`` that enables a guarded start: always with PM off, on
    the guard with PM on (never, for a ``never`` guard)."""
    if guard.never:
        return "if not _pm:"
    cond = " and ".join(
        f"({render(src)})" if value else f"(not ({render(src)}))"
        for src, value in guard.terms)
    return f"if not _pm or ({cond}):"


def generate_source(plan: ExecutionPlan) -> str:
    """Python source of the ``_run(vectors, state, pm)`` runner.

    Power management is the run-time argument ``pm``, not a codegen
    specialization, so one runner serves a design in both modes.  A
    guarded start runs as ``if not _pm or (<guard>):`` (a ``never``
    guard as ``if not _pm:``) and sets the op's ``g<nid>`` flag, which
    its end event tests; an ungated run therefore sets every flag.
    """
    mask = (1 << plan.width) - 1
    sign = 1 << (plan.width - 1)
    names = _state_names(plan)

    def render(sp: SourcePlan) -> str:
        return _render_source(sp, mask, sign)

    guarded = {start.nid for step in plan.steps for start in step.starts
               if not start.guard.unconditional}
    lines: list[str] = []
    emit = lines.append
    emit(f"def _run(_vectors, _state, _pm):  # compiled from {plan.name!r}")
    emit(f"    ({', '.join(names)},) = _state")
    # Guard-activity flags for gated ops (reset by construction each run).
    if guarded:
        emit("    " + " = ".join(f"g{nid}" for nid in sorted(guarded))
             + " = False")
    emit("    _outs = []")
    emit("    _append = _outs.append")
    emit("    for _v in _vectors:")

    # Clock edge into state 0: input registers load.
    emit("        try:")
    for k, (name, _reg) in enumerate(plan.inputs):
        emit(f"            _in{k} = ((_v[{name!r}] & {mask}) ^ {sign})"
             f" - {sign}")
    if not plan.inputs:
        emit("            pass")
    emit("        except KeyError as _e:")
    emit("            raise KeyError('missing input %r' % (_e.args[0],))"
         " from None")
    for k, (_name, reg) in enumerate(plan.inputs):
        emit(f"        _rt += ((r{reg} ^ _in{k}) & {mask}).bit_count()"
             f"; r{reg} = _in{k}")

    # Counts every sample adds alike — one FSM cycle per control step,
    # one activation per unconditional op — are added once per batch.
    per_sample = {"_cc": plan.n_steps,
                  "_cl": plan.n_steps * plan.controller_literals}

    for step_index, step in enumerate(plan.steps):
        if step.starts or step.ends:
            emit(f"        # step {step_index}")
        for start in step.starts:
            gated = not start.guard.unconditional
            indent = "        "
            if gated:
                emit(f"        {_render_enable(start.guard, render)}")
                indent += "    "
            ts = [f"t{start.nid}_{p}" for p in range(len(start.sources))]
            for t, src in zip(ts, start.sources):
                emit(f"{indent}{t} = {render(src)}")
            toggles = " + ".join(
                f"((l{start.unit}_{p} ^ {t}) & {mask}).bit_count()"
                for p, t in enumerate(ts))
            emit(f"{indent}_ai_{start.resource.name} += {toggles}")
            emit(indent + "; ".join(
                f"l{start.unit}_{p} = {t}" for p, t in enumerate(ts)))
            if gated:
                emit(f"{indent}g{start.nid} = True")
                emit(f"        else:")
                emit(f"            _id_{start.resource.name} += 1")
        for end in step.ends:
            indent = "        "
            if end.nid in guarded:
                emit(f"        if g{end.nid}:")
                indent += "    "
                emit(f"{indent}g{end.nid} = False")
            ts = [f"t{end.nid}_{p}" for p in range(end.n_operands)]
            emit(f"{indent}_x = {_render_op(end.op, ts, mask, sign)}")
            emit(f"{indent}_ao_{end.resource.name} += "
                 f"((fo{end.unit} ^ _x) & {mask}).bit_count()"
                 f"; fo{end.unit} = _x")
            if end.nid in guarded:
                emit(f"{indent}_aa_{end.resource.name} += 1")
            else:
                name = f"_aa_{end.resource.name}"
                per_sample[name] = per_sample.get(name, 0) + 1
            emit(f"{indent}_rt += ((r{end.dest_register} ^ _x) & {mask})"
                 f".bit_count(); r{end.dest_register} = _x")

    out_items = ", ".join(
        f"{name!r}: {render(src)}" for name, src in plan.outputs)
    emit(f"        _append({{{out_items}}})")
    emit("    _n = len(_outs)")
    for name, count in per_sample.items():
        if count:
            emit(f"    {name} += {count} * _n")
    emit(f"    return _outs, ({', '.join(names)},)")
    return "\n".join(lines) + "\n"


def generate_outputs_source(plan: ExecutionPlan) -> str:
    """Python source of the outputs-only ``_run(vectors, state, pm)`` runner.

    The same signature, input wrap, guards and register write-back as
    :func:`generate_source`, without latches, FU outputs, toggle terms
    or counters: an enabled start computes the op's value ``v<nid>``
    from its sources, and its end step writes it to the destination
    register.  The state is the register file alone.
    """
    mask = (1 << plan.width) - 1
    sign = 1 << (plan.width - 1)
    state = "".join(f"{name}, " for name in _state_names(plan, activity=False))

    def render(sp: SourcePlan) -> str:
        return _render_source(sp, mask, sign)

    ops = {end.nid: end.op for step in plan.steps for end in step.ends}
    guarded = {start.nid for step in plan.steps for start in step.starts
               if not start.guard.unconditional}
    lines: list[str] = []
    emit = lines.append
    emit(f"def _run(_vectors, _state, _pm):  # outputs of {plan.name!r}")
    emit(f"    ({state}) = _state")
    if guarded:
        emit("    " + " = ".join(f"g{nid}" for nid in sorted(guarded))
             + " = False")
    emit("    _outs = []")
    emit("    _append = _outs.append")
    emit("    for _v in _vectors:")
    emit("        try:")
    for name, reg in plan.inputs:
        emit(f"            r{reg} = ((_v[{name!r}] & {mask}) ^ {sign})"
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
            if start.nid not in guarded:
                emit(f"        v{start.nid} = {value}")
                continue
            emit(f"        {_render_enable(start.guard, render)}")
            emit(f"            v{start.nid} = {value}; g{start.nid} = True")
        for end in step.ends:
            if end.nid in guarded:
                emit(f"        if g{end.nid}:")
                emit(f"            g{end.nid} = False; "
                     f"r{end.dest_register} = v{end.nid}")
            else:
                emit(f"        r{end.dest_register} = v{end.nid}")
    out_items = ", ".join(
        f"{name!r}: {render(src)}" for name, src in plan.outputs)
    emit(f"        _append({{{out_items}}})")
    emit(f"    return _outs, ({state})")
    return "\n".join(lines) + "\n"


# -- compile-once caches ---------------------------------------------------

# ``CompiledEngine`` used to recompile the plan and regenerate source on
# every construction.  Designs are immutable once elaborated, so plans,
# generated sources and exec-compiled runners are cached module-wide,
# keyed by a content fingerprint of the design — two equal designs built
# independently (e.g. the same exploration point revisited by an
# ``explore()`` worker process) share one compilation.
#
# Entries per cache.  A cached design holds about 40-100 KB (plan plus
# runners); a verified design also holds an outputs-only runner, built
# from about a quarter of the power runner's source, in a cache of its
# own.  Nearly every hit is an engine built for the design just compiled
# (simulated power builds the baseline and managed engines back to
# back; verify builds one engine per mode), so on explore, serve and
# anneal traffic 128 entries hit as often as an unbounded cache; an
# ``explore()`` re-run in one process keeps its hits while it spans at
# most 128 designs (64 on the vectorized backend, which caches one
# runner per mode).
# At 512, a server worker compiling fresh circuits kept 20+ MB of designs
# it never looked up again.
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
_RUNNER_CACHE = _make_lru()  # fingerprint -> (plan, source, runner)
_OUTPUTS_CACHE = _make_lru()  # fingerprint -> (plan, source, runner)


def design_fingerprint(design: SynthesizedDesign) -> str:
    """Stable content hash of everything plan compilation reads.

    Covers the graph, schedule, unit binding, register assignment,
    guards, controller complexity and datapath width; memoized on the
    design instance (designs are treated as immutable once elaborated).
    Control edges are hashed as a set: the order the PM pass happened to
    add them in changes no plan.
    """
    cached = design.__dict__.get("_sim_fingerprint")
    if cached is not None:
        return cached
    from repro.ir.serialize import graph_to_dict

    graph = graph_to_dict(design.graph)
    graph["control_edges"].sort()
    payload = {
        "graph": graph,
        "width": design.width,
        "n_steps": design.schedule.n_steps,
        "start": sorted(design.schedule.start.items()),
        "binding": sorted(
            (nid, unit.resource.name, unit.index)
            for nid, unit in design.binding.assignment.items()),
        "registers": sorted(
            (nid, reg.index)
            for nid, reg in design.registers.assignment.items()),
        "guards": sorted(
            (nid, guard.never,
             [(t.driver, t.value) for t in guard.terms])
            for nid, guard in design.guards.items()),
        "controller_literals": design.controller.literal_count,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    fingerprint = hashlib.sha256(blob.encode("utf-8")).hexdigest()
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


@dataclass(frozen=True)
class BatchResult:
    """Outputs and merged switching activity of one vector batch
    (``activity`` is ``None`` from an outputs-only engine)."""

    outputs: list[dict[str, int]]
    activity: ActivityCounter | None

    @property
    def samples(self) -> int:
        return len(self.outputs)


class _EngineBase:
    """State plumbing shared by the compiled and vectorized backends:
    one flat tuple of ints holding hardware state plus activity counters
    (registers alone for an outputs-only engine), persisted across
    batches, with delta-based activity accounting."""

    plan: ExecutionPlan

    # Which backend name :func:`repro.sim.backend.create_engine` resolved
    # to when it built this engine; ``None`` for engines constructed
    # directly.  Surfaced on power results and explore points so ``auto``
    # resolutions are observable instead of silent.
    chosen_backend: str | None = None
    # Why it resolved that way: for ``auto``, the rule that fired.
    backend_reason: str | None = None

    def _init_state(self, activity: bool = True) -> None:
        self._names = _state_names(self.plan, activity)
        self._index = {name: i for i, name in enumerate(self._names)}
        self._state: tuple[int, ...] = tuple(0 for _ in self._names)
        self.samples = 0

    @property
    def input_names(self) -> tuple[str, ...]:
        """Input names in plan order (the column order of input arrays)."""
        return tuple(name for name, _reg in self.plan.inputs)

    # -- activity accounting -------------------------------------------

    def _delta(self, before: tuple[int, ...], after: tuple[int, ...],
               name: str) -> int:
        i = self._index[name]
        return after[i] - before[i]

    def _activity_delta(self, before: tuple[int, ...],
                        after: tuple[int, ...]) -> ActivityCounter:
        counter = ActivityCounter(width=self.plan.width)
        counter.register_toggles = self._delta(before, after, "_rt")
        counter.controller_cycles = self._delta(before, after, "_cc")
        counter.controller_literals = self._delta(before, after, "_cl")
        for cls in self.plan.classes:
            activations = self._delta(before, after, f"_aa_{cls.name}")
            if activations:
                # Keys exist exactly when the interpreter would create
                # them: an enabled start always reaches its end event.
                counter.fu_input_toggles[cls] = self._delta(
                    before, after, f"_ai_{cls.name}")
                counter.fu_output_toggles[cls] = self._delta(
                    before, after, f"_ao_{cls.name}")
                counter.fu_activations[cls] = activations
            idles = self._delta(before, after, f"_id_{cls.name}")
            if idles:
                counter.fu_idles[cls] = idles
        return counter

    def state(self) -> dict[str, int]:
        """Named snapshot of the persistent state (debug/test aid)."""
        return dict(zip(self._names, self._state))

    def reset(self) -> None:
        """Zero all hardware state and counters (cold power-up)."""
        self._state = tuple(0 for _ in self._names)
        self.samples = 0


class CompiledEngine(_EngineBase):
    """Executes vector batches against a compiled design.

    Hardware state (registers, input latches, FU outputs) persists across
    :meth:`run_batch` calls, so splitting one vector sequence into many
    batches is indistinguishable from one big batch — the property Monte
    Carlo estimation relies on.

    Plan compilation, source generation and the exec-compiled runner are
    cached module-wide by design fingerprint, so constructing many
    engines for equal designs compiles exactly once.  The runner takes
    ``power_management`` as a call argument, so engines in both modes
    share it.

    ``activity=False`` builds the outputs-only program instead
    (:func:`generate_outputs_source`, cached apart from the power
    runner): registers are its whole state, and :meth:`run_batch`
    reports ``activity=None``.
    """

    backend = "compiled"

    def __init__(self, design: SynthesizedDesign,
                 power_management: bool = True,
                 activity: bool = True) -> None:
        self.design = design
        self.power_management = power_management
        self.activity = activity
        cache, generate = ((_RUNNER_CACHE, generate_source) if activity
                           else (_OUTPUTS_CACHE, generate_outputs_source))
        key = design_fingerprint(design)
        cached = _lru_get(cache, key)
        if cached is None:
            plan = cached_plan(design)
            source = generate(plan)
            namespace: dict[str, object] = {}
            exec(compile(source, f"<engine:{design.graph.name}>", "exec"),
                 namespace)
            cached = (plan, source, namespace["_run"])
            _lru_put(cache, key, cached)
        self.plan, self.source, self._run = cached
        self._init_state(activity)

    def run_batch(self, vectors: Iterable[dict[str, int]]) -> BatchResult:
        """Run ``vectors`` (any iterable, lists or streams) in sequence."""
        before = self._state
        outputs, after = self._run(vectors, before, self.power_management)
        self._state = after
        self.samples += len(outputs)
        activity = (self._activity_delta(before, after) if self.activity
                    else None)
        return BatchResult(outputs=outputs, activity=activity)

    def run_many(self, vectors: Iterable[dict[str, int]]) -> tuple[
            list[dict[str, int]], ActivityCounter | None]:
        """Drop-in signature twin of :meth:`RTLSimulator.run_many`."""
        result = self.run_batch(vectors)
        return result.outputs, result.activity
