"""Vectorized NumPy batch simulation backend.

The :class:`~repro.sim.engine.CompiledEngine` removed interpreter
overhead but still executes Python bytecode per vector, per step.  This
module lowers the same :class:`~repro.sim.engine.ExecutionPlan` into a
NumPy *array program*: every register / FU-input-latch / FU-output state
slot becomes an ``int64`` column of shape ``(batch,)``, guards become
boolean masks applied with ``np.where``, masked wrap-around arithmetic
and shift chains are emitted as array expressions, and every
:class:`~repro.sim.activity.ActivityCounter` tally is reduced with
vectorized popcount/XOR over consecutive rows — so one generated function
call simulates a whole vector block at once, bit-identically to the
compiled and interpreted backends.

Cross-vector state
------------------

Hardware state persists between consecutive vectors, which makes the
batch axis a recurrence, not an embarrassingly-parallel dimension.  The
code generator resolves it in closed form:

* A slot written **unconditionally** during a vector's pass carries no
  state into the next vector beyond its end-of-pass column; toggles
  between consecutive vectors are XORs of a column against its
  shift-by-one (``start = concat([carry], end[:-1])``).
* A slot whose writes are all **guarded** (power-managed ops that may be
  shut down) keeps its previous value when disabled.  Its end-of-pass
  column is the masked scan ``end[i] = mask[i] ? value[i] : end[i-1]``,
  computed without a Python loop via a ``maximum.accumulate`` index
  trick (:func:`_masked_ffill`) — the same way d-MC verification work
  batches candidate checks instead of walking them one by one.

Reads that observe a stale slot (a consumer latching the dest register
of a shut-down producer) read the shifted end column of that slot.  The
generator emits all columns as SSA statements and topologically sorts
them.  When the guarded writes form a genuine cross-vector cycle with no
closed form, it raises :class:`VectorizationError` naming the recurrent
slots, as it does for widths beyond the int64 headroom;
``create_engine(backend="auto")`` then builds the compiled engine, which
runs every design.

The program's state is the hardware only: registers, latches and FU
outputs.  The batch's :class:`~repro.sim.activity.ActivityCounter`
tallies come back beside it, as a dict of counter totals.

Power management stays a codegen specialization
-----------------------------------------------

The compiled engine takes power management as a run-time argument, so
one runner serves a design in both modes.  This backend deliberately
does not: with power management off every guard is unconditional
(:meth:`_VectorCodegen.guard_mask` returns ``None``), so the ungated
program has no masked ``ffill`` recurrences and always vectorizes.  A
run-time flag would either ship both programs in one source, which saves
no compile, or run the ungated mode through the masked path, which is
slower on large blocks.  Its runner cache keys on ``(fingerprint,
power_management)``, and holds a refusal as well as a runner.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.ir.ops import Op, ResourceClass
from repro.rtl.design import SynthesizedDesign
from repro.sim.activity import ActivityCounter
from repro.sim.engine import (
    VECTOR_WIDTH_LIMIT,
    BatchResult,
    ExecutionPlan,
    SourcePlan,
    _counter,
    _lru_get,
    _lru_put,
    _make_lru,
    _state_names,
    cached_plan,
    design_fingerprint,
)
from repro.sim.vectors import vectors_to_array


def _masked_ffill(values: np.ndarray, mask: np.ndarray, carry: int,
                  idx1: np.ndarray) -> np.ndarray:
    """Solve ``out[i] = mask[i] ? values[i] : out[i-1]`` with ``out[-1] =
    carry`` — the end-of-pass column of a slot whose writes are all
    guarded — as pure array code.  ``idx1`` is ``arange(1, n + 1)``."""
    idx = np.maximum.accumulate(np.where(mask, idx1, 0))
    gathered = values[np.maximum(idx, 1) - 1]
    return np.where(idx > 0, gathered, carry)


class VectorizationError(Exception):
    """The plan has no closed-form array program: its width is past the
    int64 headroom, or its guarded state forms a cross-vector recurrence.
    The compiled backend runs it instead."""


# -- code generation -------------------------------------------------------


def _contradictory(implied: frozenset) -> bool:
    """True when a term set requires a driver to be both 0 and 1 —
    i.e. the guarded observation can never happen at runtime."""
    required: dict = {}
    for sp, value in implied:
        if required.setdefault(sp, value) != value:
            return True
    return False


@dataclass(frozen=True)
class _Stmt:
    """One SSA statement: ``target = expr``, reading the names ``deps``."""

    target: str
    expr: str
    deps: tuple[str, ...]


class _VectorCodegen:
    """Symbolically executes one vector pass over the plan, emitting SSA
    array statements, then resolves cross-vector state and orders the
    statements topologically."""

    def __init__(self, plan: ExecutionPlan, power_management: bool) -> None:
        self.plan = plan
        self.pm = power_management
        self.mask = (1 << plan.width) - 1
        self.sign = 1 << (plan.width - 1)
        if plan.width > VECTOR_WIDTH_LIMIT:
            raise VectorizationError(
                f"width {plan.width} exceeds the array backend's "
                "int64 headroom; use backend='compiled'")
        # Smallest element type with full product headroom (2w bits).
        # Wrap-around ops are congruent mod 2**dtype_bits ⊇ mod 2**width
        # and every column is rewrapped into signed range immediately, so
        # narrow dtypes stay bit-exact while halving memory traffic.
        self.dtype = "_np.int64"
        for bits, name in ((16, "_np.int16"), (32, "_np.int32")):
            if 2 * plan.width <= bits:
                self.dtype = name
                break
        # For power-of-two widths a signed downcast/upcast pair is the
        # cheapest exact rewrap (truncating two's complement cast).
        self.narrow = {8: "_np.int8", 16: "_np.int16",
                       32: "_np.int32"}.get(plan.width)
        self.stmts: list[_Stmt] = []
        # slot -> write history this pass: (guard name | None, guard term
        # set | None, written column).
        self.writes: dict[str, list[
            tuple[str | None, frozenset | None, str]]] = {}
        self.cur: dict[str, str] = {}       # slot -> current true column
        self.start_used: set[str] = set()   # slots read before first write
        self.contribs: dict[str, list[str]] = {}  # counter -> contrib names
        self._serial = 0
        self._cse: dict[str, str] = {}      # expr -> existing SSA name

    # -- column renderers -----------------------------------------------
    #
    # Everything the symbolic pass knows about the column representation
    # (dtype, masks, NumPy calls) is spelled by these small renderers;
    # the structural pass — write folds, guard implication, closed-form
    # state resolution, DCE, topo sort — never spells a column itself.

    def cond_expr(self, expr: str, value: int) -> str:
        """Boolean mask column: ``expr`` nonzero (value=1) / zero (0)."""
        return f"(({expr}) != 0)" if value else f"(({expr}) == 0)"

    def where_expr(self, guard: str, then: str, other: str) -> str:
        return f"_np.where({guard}, {then}, {other})"

    def count_true(self, guard: str) -> str:
        return f"int({guard}.sum())"

    def count_false(self, guard: str) -> str:
        return f"int((~{guard}).sum())"

    def const_column(self, expr: str) -> str:
        return f"_np.full(_n, {expr}, dtype={self.dtype})"

    def zero_column(self) -> str:
        return f"_np.zeros(_n, dtype={self.dtype})"

    def input_expr(self, k: int) -> str:
        """Load + wrap input column ``k`` of the batch matrix."""
        if self.narrow is not None:
            return f"_m[:, {k}].astype({self.narrow}).astype({self.dtype})"
        return (f"(((_m[:, {k}] & {self.mask}) ^ {self.sign}) - {self.sign})"
                f".astype({self.dtype})")

    def ffill_expr(self, value: str, mask: str,
                   slot: str) -> tuple[str, tuple[str, ...]]:
        """Masked-scan end column of an all-guarded slot."""
        return (f"_ffill({value}, {mask}, {slot}__in, _ar1)",
                (value, mask, "_ar1"))

    def state_last(self, end: str) -> str:
        """Scalar end-of-batch value of a column (last vector's lane)."""
        return f"int(({end})[-1])"

    def state_const_expr(self, slot: str) -> str:
        """Column of a slot never written this pass (constant)."""
        return f"_np.full(_n, {slot}__in, dtype={self.dtype})"

    def state_shift_expr(self, slot: str, end: str) -> str:
        """Shift-by-one start column: ``concat([carry], end[:-1])``."""
        return (f"_np.concatenate((_np.asarray([{slot}__in], "
                f"dtype={self.dtype}), ({end})[:-1]))")

    # -- statement plumbing ---------------------------------------------

    def name(self, stem: str) -> str:
        self._serial += 1
        return f"_{stem}{self._serial}"

    def stmt(self, target: str, expr: str, deps: tuple[str, ...]) -> str:
        self.stmts.append(_Stmt(target, expr, deps))
        return target

    def cse_stmt(self, stem: str, expr: str, deps: tuple[str, ...]) -> str:
        cached = self._cse.get(expr)
        if cached is not None:
            return cached
        name = self.stmt(self.name(stem), expr, deps)
        self._cse[expr] = name
        return name

    def contrib(self, counter: str, expr: str,
                deps: tuple[str, ...] = ()) -> None:
        name = self.stmt(self.name("k"), expr, deps)
        self.contribs.setdefault(counter, []).append(name)

    # -- slot state ------------------------------------------------------
    #
    # Two read modes keep the batch formulation acyclic:
    #
    # * ``read_slot`` (observation): the value a latch or toggle counter
    #   actually sees, including values left stale by shut-down
    #   producers.  Folds the true write chain; bottoms out at the
    #   shifted end-of-pass column ``S_<slot>``.
    # * ``value_read`` (value path): the operand value a *guarded* op
    #   reads, valid only at positions where its guard holds.  When the
    #   producer's guard terms are a subset of the consumer's implied
    #   terms, the producer provably ran, so the fold can anchor on the
    #   producer's fresh column instead of the stale ``S_`` column —
    #   which is what breaks read-modify-write recurrences through
    #   guarded mux networks.

    def read_slot(self, slot: str) -> str:
        current = self.cur.get(slot)
        if current is not None:
            return current
        self.start_used.add(slot)
        return f"S_{slot}"

    def write_slot(self, slot: str, value: str,
                   guard: str | None, terms: frozenset | None) -> None:
        self.writes.setdefault(slot, []).append((guard, terms, value))
        if guard is None:
            self.cur[slot] = value
        else:
            prev = self.read_slot(slot)
            self.cur[slot] = self.cse_stmt(
                "c", self.where_expr(guard, value, prev),
                (guard, value, prev))

    def value_read(self, sp: SourcePlan, implied: frozenset) -> str:
        """Column name for an operand read on the value path (see above);
        falls back to the stale-capable observation fold when no write's
        guard is implied."""
        slot = f"r{sp.register}"
        suffix: list[tuple[str, str]] = []
        base = None
        for guard, terms, value in reversed(self.writes.get(slot, [])):
            if guard is None or (terms is not None and terms <= implied):
                base = value
                break
            suffix.append((guard, value))
        if base is None:
            self.start_used.add(slot)
            base = f"S_{slot}"
        expr, deps = base, (base,)
        for guard, value in reversed(suffix):
            expr = self.where_expr(guard, value, expr)
            deps += (guard, value)
        return self.cse_stmt("w", self.shift_chain(expr, sp.shifts), deps)

    # -- expression rendering -------------------------------------------

    def wrap(self, expr: str) -> str:
        """Rewrap an intermediate into signed ``width``-bit range."""
        if self.narrow is not None:
            return f"({expr}).astype({self.narrow}).astype({self.dtype})"
        return f"((({expr}) & {self.mask}) ^ {self.sign}) - {self.sign}"

    def shift_chain(self, expr: str, shifts) -> str:
        for op, amount in shifts:
            if op is Op.SHL:
                if amount >= self.plan.width:  # shifted fully out: zero
                    expr = f"_np.zeros(_n, dtype={self.dtype})"
                else:
                    expr = self.wrap(f"({expr}) << {amount}")
            else:  # arithmetic shift right of an in-range value
                # Clamp: beyond width-1 bits the result saturates to the
                # sign (identical to Python's unbounded >>), and numpy
                # shifts past the element width are undefined.
                expr = f"(({expr}) >> {min(amount, self.plan.width - 1)})"
                if self.plan.width == 1:  # may shift a comparison's 1
                    expr = self.wrap(expr)
        return expr

    def render_source(self, sp: SourcePlan) -> tuple[str, tuple[str, ...]]:
        """(array expression, deps) for a pre-resolved operand source
        (register column plus shift chain); a constant stays scalar."""
        if sp.const is not None:
            return repr(sp.const), ()
        name = self.read_slot(f"r{sp.register}")
        return self.shift_chain(name, sp.shifts), (name,)

    def op_expr(self, op: Op, ts: list[str]) -> str:
        wrap = self.wrap
        a = ts[0]
        b = ts[1] if len(ts) > 1 else None
        if op is Op.ADD:
            return wrap(f"{a} + {b}")
        if op is Op.SUB:
            return wrap(f"{a} - {b}")
        if op is Op.MUL:
            return wrap(f"{a} * {b}")
        if op is Op.GT:
            return f"({a} > {b}).astype({self.dtype})"
        if op is Op.LT:
            return f"({a} < {b}).astype({self.dtype})"
        if op is Op.GE:
            return f"({a} >= {b}).astype({self.dtype})"
        if op is Op.LE:
            return f"({a} <= {b}).astype({self.dtype})"
        if op is Op.EQ:
            return f"({a} == {b}).astype({self.dtype})"
        if op is Op.NE:
            return f"({a} != {b}).astype({self.dtype})"
        if op is Op.MUX:
            return f"_np.where({a} != 0, {ts[2]}, {ts[1]})"
        if op is Op.AND:
            return wrap(f"{a} & {b}")
        if op is Op.OR:
            return wrap(f"{a} | {b}")
        if op is Op.XOR:
            return wrap(f"{a} ^ {b}")
        if op is Op.NOT:
            return wrap(f"~{a}")
        raise ValueError(f"cannot vectorize {op!r}")  # pragma: no cover

    def popcount(self, prev: str, new: str, guard: str | None,
                 deps: tuple[str, ...]) -> tuple[str, tuple[str, ...]]:
        expr = f"_np.bitwise_count(({prev} ^ {new}) & {self.mask})"
        if guard is not None:
            # Multiplying by the mask is ~7x cheaper than boolean
            # fancy-indexing at 4k-element blocks.
            return f"int(({expr} * {guard}).sum())", deps + (guard,)
        return f"int({expr}.sum())", deps

    # -- pass symbolic execution ----------------------------------------

    def guard_mask(self, guard) -> tuple[str | None | bool, frozenset]:
        """(mask column name, live term set) for a guard; ``None`` =
        unconditional, ``False`` = provably never enabled (constant
        terms fold at compile time, like the scalar generator's
        short-circuit does at run time)."""
        if not self.pm or guard.unconditional:
            return None, frozenset()
        if guard.never:
            return False, frozenset()
        conds = []
        live = []
        deps: tuple[str, ...] = ()
        for sp, value in guard.terms:
            if sp.const is not None:
                if bool(sp.const) != bool(value):
                    return False, frozenset()  # contradiction: never
                continue  # term always true: fold away
            expr, d = self.render_source(sp)
            conds.append(self.cond_expr(expr, value))
            live.append((sp, 1 if value else 0))
            deps += d
        if not conds:
            return None, frozenset()
        return (self.stmt(self.name("g"), " & ".join(conds), deps),
                frozenset(live))

    def run(self) -> str:
        plan = self.plan

        # Clock edge into state 0: input registers load (unconditional).
        for k, (_name, reg) in enumerate(plan.inputs):
            col = self.stmt(f"in{k}", self.input_expr(k), ())
            slot = f"r{reg}"
            prev = self.read_slot(slot)
            self.contrib("_rt", *self.popcount(prev, col, None, (prev, col)))
            self.write_slot(slot, col, None, None)

        # Controller: one FSM cycle per control step, every sample.
        self.contrib("_cc", f"{plan.n_steps} * _n")
        self.contrib("_cl", f"{plan.n_steps * plan.controller_literals} * _n")

        guards: dict[int, str | None | bool] = {}
        gterms: dict[int, frozenset] = {}
        tvalues: dict[int, list[str]] = {}
        for step in plan.steps:
            for start in step.starts:
                g, terms = self.guard_mask(start.guard)
                guards[start.nid], gterms[start.nid] = g, terms
                cls = start.resource.name
                if g is False:
                    self.contrib(f"_id_{cls}", "_n")
                    continue
                if g is not None:
                    self.contrib(f"_id_{cls}", self.count_false(g), (g,))
                is_mux = start.resource is ResourceClass.MUX
                select = start.sources[0] if is_mux else None
                tvs = []
                for port, sp in enumerate(start.sources):
                    expr, deps = self.render_source(sp)
                    if sp.const is not None:
                        expr = self.const_column(expr)
                    t = self.stmt(f"t{start.nid}_{port}", expr, deps)
                    # Value-path operand: a mux data port is additionally
                    # guarded by its own selection (the port's value only
                    # reaches the result when the select picks its side),
                    # so its producer is provably fresh there even for an
                    # unguarded mux.  A contradictory implied set (guard
                    # requires select==0 while the port needs select==1)
                    # means the port is never observed at all — any
                    # column is valid, so substitute zeros instead of
                    # chasing a stale read into a false recurrence.
                    implied = terms
                    if is_mux and port in (1, 2) and select.const is None:
                        implied = terms | {(select, port - 1)}
                    if sp.const is not None or \
                            (g is None and implied == terms):
                        tvs.append(t)
                    elif _contradictory(implied):
                        tvs.append(self.cse_stmt("z", self.zero_column(), ()))
                    else:
                        tvs.append(self.value_read(sp, implied))
                    # Latches are observation-only leaves: their fold can
                    # (and must) carry the true, stale-capable column.
                    latch = f"l{start.unit}_{port}"
                    prev = self.read_slot(latch)
                    self.contrib(f"_ai_{cls}",
                                 *self.popcount(prev, t, g, (prev, t)))
                    self.write_slot(latch, t, g, terms)
                tvalues[start.nid] = tvs
            for end in step.ends:
                g = guards[end.nid]
                if g is False:
                    continue  # never-enabled op: no end event
                cls = end.resource.name
                terms = gterms[end.nid]
                # The result column folds over the value-path operands:
                # identical to folding over the latched columns wherever
                # the result is observed (the op's own guard positions,
                # and — for mux data ports — the selected side).
                x = self.stmt(f"x{end.nid}",
                              self.op_expr(end.op, tvalues[end.nid]),
                              tuple(tvalues[end.nid]))
                fo = f"fo{end.unit}"
                prev = self.read_slot(fo)
                self.contrib(f"_ao_{cls}", *self.popcount(prev, x, g,
                                                          (prev, x)))
                self.write_slot(fo, x, g, terms)
                self.contrib(f"_aa_{cls}",
                             "_n" if g is None else self.count_true(g),
                             () if g is None else (g,))
                dest = f"r{end.dest_register}"
                prev = self.read_slot(dest)
                self.contrib("_rt", *self.popcount(prev, x, g, (prev, x)))
                self.write_slot(dest, x, g, terms)

        # Output columns, read at end of pass.
        out_names = []
        for k, (_name, sp) in enumerate(plan.outputs):
            expr, deps = self.render_source(sp)
            if sp.const is not None:
                expr = self.const_column(expr)
            out_names.append(self.stmt(f"o{k}", expr, deps))

        state_out = self._resolve_state()
        return self._assemble(out_names, state_out)

    # -- cross-vector state resolution ----------------------------------

    def _end_column(self, slot: str) -> str | None:
        """Name of the slot's end-of-pass column (None: never written)."""
        writes = self.writes.get(slot)
        if not writes:
            return None
        if any(guard is None for guard, _t, _v in writes):
            # An unconditional write anchors the pass: the final
            # where-chain is a pure column with no cross-vector term.
            return self.cur[slot]
        # All writes guarded: masked-scan recurrence over the batch
        # (each written column is valid at its own guard's positions —
        # all the masked scan ever reads).
        value = writes[0][2]
        for g, _terms, v in writes[1:]:
            value = self.stmt(self.name("v"),
                              self.where_expr(g, v, value), (g, v, value))
        guards = [g for g, _t, _v in writes]
        mask = self.stmt(self.name("m"), " | ".join(guards), tuple(guards))
        return self.stmt(f"E_{slot}", *self.ffill_expr(value, mask, slot))

    def _resolve_state(self) -> list[str]:
        self.stmt("_ar1", "_np.arange(1, _n + 1)", ())
        state_out = []
        for slot in _state_names(self.plan):
            end = self._end_column(slot)
            if end is None:
                state_out.append(f"{slot}__in")
            else:
                state_out.append(self.stmt(f"{slot}__out",
                                           self.state_last(end), (end,)))
            if slot in self.start_used:
                if end is None:
                    # Never written this pass: constant across the batch.
                    self.stmt(f"S_{slot}", self.state_const_expr(slot), ())
                else:
                    self.stmt(f"S_{slot}", self.state_shift_expr(slot, end),
                              (end,))
        return state_out

    # -- ordering + assembly --------------------------------------------

    def _assemble(self, out_names: list[str], state_out: list[str]) -> str:
        plan = self.plan
        by_target = {s.target: i for i, s in enumerate(self.stmts)}
        if len(by_target) != len(self.stmts):  # pragma: no cover - invariant
            raise VectorizationError(f"duplicate SSA target in {plan.name!r}")

        # Dead-code elimination: keep only statements reachable from the
        # outputs, the returned state tuple and the activity counts.
        counts = [n for names in self.contribs.values() for n in names]
        live: set[str] = set()
        stack = [n for n in out_names + state_out + counts if n in by_target]
        while stack:
            target = stack.pop()
            if target in live:
                continue
            live.add(target)
            stack.extend(d for d in self.stmts[by_target[target]].deps
                         if d in by_target and d not in live)

        # Kahn topological sort, stable on emission order.
        kept = [s for s in self.stmts if s.target in live]
        indegree = {s.target: 0 for s in kept}
        dependants: dict[str, list[str]] = {s.target: [] for s in kept}
        for s in kept:
            for d in set(s.deps):
                if d in indegree:
                    indegree[s.target] += 1
                    dependants[d].append(s.target)
        ready = [by_target[t] for t, n in indegree.items() if n == 0]
        heapq.heapify(ready)
        ordered: list[_Stmt] = []
        while ready:
            s = self.stmts[heapq.heappop(ready)]
            ordered.append(s)
            for t in dependants[s.target]:
                indegree[t] -= 1
                if indegree[t] == 0:
                    heapq.heappush(ready, by_target[t])
        if len(ordered) != len(kept):
            raise VectorizationError(self._recurrence(kept, ordered))

        names = "".join(f"{n}__in, " for n in _state_names(plan))
        lines = [f"def _run(_m, _state):  # vectorized from {plan.name!r}",
                 f"    ({names}) = _state",
                 "    _n = _m.shape[0]"]
        lines += [f"    {s.target} = {s.expr}" for s in ordered]
        outs = "".join(f"{n}, " for n in out_names)
        state = "".join(f"{n}, " for n in state_out)
        totals = ", ".join(f"{counter!r}: {' + '.join(parts)}"
                           for counter, parts in self.contribs.items())
        lines.append(f"    return ({outs}), ({state}), {{{totals}}}")
        return "\n".join(lines) + "\n"

    def _recurrence(self, kept: list[_Stmt], ordered: list[_Stmt]) -> str:
        """Why the sort left statements behind: every cycle runs through
        a slot's shift-by-one start column ``S_<slot>``.  Peeling the
        leftover statements nothing else left over reads keeps those on
        or feeding a cycle; their ``S_`` slots are the recurrent ones."""
        done = {s.target for s in ordered}
        left = {s.target: s.deps for s in kept if s.target not in done}
        while True:
            read = {d for deps in left.values() for d in deps}
            sinks = [t for t in left if t not in read]
            if not sinks:
                break
            for t in sinks:
                del left[t]
        slots = sorted(t[2:] for t in left if t.startswith("S_"))
        return (f"design {self.plan.name!r} has a cross-vector recurrence "
                f"through guarded state {', '.join(slots)}")


def generate_vector_source(plan: ExecutionPlan,
                           power_management: bool) -> str:
    """NumPy source of the specialized ``_run(matrix, state)`` runner,
    which returns ``(output columns, state, activity counts)``.

    Raises :class:`VectorizationError` for plans beyond the backend's
    int64 width headroom and for plans whose guarded state forms a
    cross-vector recurrence with no closed-form batch formulation.
    """
    return _VectorCodegen(plan, power_management).run()


# -- the engine ------------------------------------------------------------


@dataclass(frozen=True)
class ArrayBatchResult:
    """Column outputs and merged switching activity of one array batch."""

    outputs: dict[str, np.ndarray]
    activity: ActivityCounter
    samples: int


# (fingerprint, power_management) -> (plan, source, runner), or the text
# of the VectorizationError its codegen raised — compile or refuse once.
_VECTOR_CACHE = _make_lru()


class VectorizedEngine:
    """Executes whole vector blocks as NumPy array programs.

    Drop-in for :class:`~repro.sim.engine.CompiledEngine`: same persistent
    state semantics (splitting a sequence into blocks is indistinguishable
    from one long run), same bit-exact outputs and
    :class:`~repro.sim.activity.ActivityCounter`.  Prefer
    :meth:`run_array` with a pre-generated ``(batch, n_inputs)`` matrix
    (:class:`~repro.sim.vectors.RandomMatrixStream` draws seeded random
    ones, :func:`~repro.sim.vectors.vectors_to_array` packs dicts) —
    :meth:`run_batch` accepts vector dicts for API parity and converts.
    Raises :class:`VectorizationError` for a design it cannot vectorize.
    """

    backend = "vectorized"
    # Set by :func:`repro.sim.backend.create_engine`: the backend it
    # resolved to and why (``None`` for engines built directly).
    chosen_backend: str | None = None
    backend_reason: str | None = None

    def __init__(self, design: SynthesizedDesign,
                 power_management: bool = True) -> None:
        self.design = design
        self.power_management = power_management
        key = (design_fingerprint(design), power_management)
        cached = _lru_get(_VECTOR_CACHE, key)
        if cached is None:
            plan = cached_plan(design)
            try:
                source = generate_vector_source(plan, power_management)
            except VectorizationError as error:
                cached = str(error)
            else:
                namespace: dict[str, object] = {"_np": np,
                                                "_ffill": _masked_ffill}
                exec(compile(source, f"<vectorized:{design.graph.name}>",
                             "exec"), namespace)
                cached = (plan, source, namespace["_run"])
            _lru_put(_VECTOR_CACHE, key, cached)
        if isinstance(cached, str):
            raise VectorizationError(cached)
        self.plan, self.source, self._run = cached
        self.reset()

    @property
    def input_names(self) -> tuple[str, ...]:
        """Input names in plan order (the column order of input arrays)."""
        return tuple(name for name, _reg in self.plan.inputs)

    def state(self) -> dict[str, int]:
        """Named registers, latches and FU outputs (debug/test aid)."""
        return dict(zip(_state_names(self.plan), self._state))

    def reset(self) -> None:
        """Zero all hardware state (cold power-up)."""
        self._state = (0,) * len(_state_names(self.plan))
        self.samples = 0

    def run_array(self, matrix: np.ndarray) -> ArrayBatchResult:
        """Run a ``(batch, n_inputs)`` int64 matrix (column order =
        ``plan.inputs`` order = ``self.input_names``)."""
        matrix = np.asarray(matrix)
        if not np.issubdtype(matrix.dtype, np.integer):
            # The compiled backend rejects non-integer vectors too; a
            # silent float truncation here would break backend parity.
            raise TypeError(
                f"input matrix must have an integer dtype, "
                f"got {matrix.dtype}")
        matrix = np.ascontiguousarray(matrix, dtype=np.int64)
        n_inputs = len(self.plan.inputs)
        if matrix.ndim != 2 or matrix.shape[1] != n_inputs:
            raise ValueError(
                f"expected a (batch, {n_inputs}) input matrix, "
                f"got shape {matrix.shape}")
        if matrix.shape[0] == 0:
            return ArrayBatchResult(
                outputs={name: np.empty(0, dtype=np.int64)
                         for name, _sp in self.plan.outputs},
                activity=ActivityCounter(width=self.plan.width), samples=0)
        n = matrix.shape[0]
        cols, self._state, counts = self._run(matrix, self._state)
        self.samples += n
        return ArrayBatchResult(
            outputs={name: col for (name, _sp), col
                     in zip(self.plan.outputs, cols)},
            activity=_counter(self.plan, Counter(counts)),
            samples=n)

    def run_batch(self, vectors) -> BatchResult:
        """Run vector dicts (any iterable); converts to one matrix."""
        matrix = vectors_to_array(vectors, self.input_names)
        result = self.run_array(matrix)
        columns = [col.tolist() for col in result.outputs.values()]
        names = list(result.outputs)
        outputs = [dict(zip(names, row)) for row in zip(*columns)] \
            if columns else [{} for _ in range(result.samples)]
        return BatchResult(outputs=outputs, activity=result.activity)

    def run_many(self, vectors) -> tuple[list[dict[str, int]],
                                         ActivityCounter]:
        """Drop-in signature twin of :meth:`CompiledEngine.run_many`."""
        result = self.run_batch(vectors)
        return result.outputs, result.activity
