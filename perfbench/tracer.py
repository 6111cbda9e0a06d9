"""Layer spans recorded from outside the program.

:func:`traced` wraps the public entry point of every layer module of
``repro`` for the duration of a ``with`` block and restores the
originals afterwards; nothing under ``src/`` knows it is being traced.
Each wrapped call records a span (name, start, end, parent span, op id).
A layer's self time is its spans' durations minus the parts their child
spans cover, so nested layers are never counted twice.

The IR adjacency queries run hundreds of thousands of times per
optimizer run; they get a bare call counter instead of a span, which
keeps the tracing overhead at a few percent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: "Span | None"
    op: int | None


class Tracer:
    """In-memory span and counter store; one per traced phase."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.stage_seconds: dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), 0.0,
                    stack[-1] if stack else None,
                    getattr(self._local, "op", None))
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def op(self, op_id: int):
        """One benchmark op: the root span every layer span nests in."""
        self._local.op = op_id
        span = self.begin("op")
        try:
            yield span
        finally:
            self.end(span)
            self._local.op = None

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: total self seconds and call count, over the
        spans recorded inside ops (a client preparing its next input
        between ops is not the program's work)."""
        spans = [span for span in self.spans if span.op is not None]
        covered: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                covered[id(span.parent)] += span.end - span.start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span in spans:
            self_s[span.name] += span.end - span.start - covered[id(span)]
            calls[span.name] += 1
        return self_s, calls

    def to_json(self) -> dict:
        """Spans (parent as an index) plus counters, for a trace file."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return {
            "spans": [[s.name, s.start, s.end,
                       index.get(id(s.parent)) if s.parent else None, s.op]
                      for s in self.spans],
            "counts": dict(self.counts),
            "stage_seconds": dict(self.stage_seconds),
        }


# -- wrappers ---------------------------------------------------------------


def _span(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if after is not None:
            after(tracer, args, result)
        return result
    return wrapper


def _counter(tracer: Tracer, key: str, fn):
    """Count calls made inside ops, without a span."""
    counts = tracer.counts
    local = tracer._local

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if getattr(local, "op", None) is not None:
            counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _after_engine(tracer, args, engine) -> None:
    tracer.counts["sim.engines"] += 1
    if getattr(engine, "chosen_backend", None) == "vectorized":
        tracer.counts["sim.vectorized_engines"] += 1


def _after_run(tracer, args, result) -> None:
    tracer.counts["sim.vectors"] += result.samples


def _after_pipeline(tracer, args, ctx) -> None:
    for stage, seconds in ctx.stage_seconds.items():
        tracer.stage_seconds[stage] += seconds
    tracer.counts["pipeline.cache_hits"] += len(ctx.cache_hits)
    tracer.counts["pipeline.cache_lookups"] += (len(ctx.cache_hits)
                                                + len(ctx.cache_misses))


def _evaluate(tracer: Tracer, fn):
    """``Evaluator.evaluate``: a span, plus whether it computed fresh."""
    @functools.wraps(fn)
    def wrapper(self, candidate):
        computed = self.stats.computed
        span = tracer.begin("opt.evaluate")
        try:
            return fn(self, candidate)
        finally:
            tracer.end(span)
            if self.stats.computed > computed:
                tracer.counts["opt.evals"] += 1
                tracer.samples["opt.eval_ms"].append(
                    (span.end - span.start) * 1000.0)
            else:
                tracer.counts["opt.reused"] += 1
    return wrapper


# (module, attribute path, how to wrap).  A dotted attribute path names a
# method; a plain one a module-level function.
HOOKS = (
    ("repro.ir.graph", "CDFG.topological_order",
     lambda t, fn: _counter(t, "ir.topo_sorts", fn)),
    ("repro.ir.graph", "CDFG.data_preds",
     lambda t, fn: _counter(t, "ir.data_preds_calls", fn)),
    ("repro.ir.graph", "CDFG.add_control_edge",
     lambda t, fn: _counter(t, "ir.control_edges", fn)),
    ("repro.ir.validate", "validate",
     lambda t, fn: _span(t, "ir.validate", fn)),
    ("repro.core.pm_pass", "apply_power_management",
     lambda t, fn: _span(t, "core.pm", fn)),
    ("repro.alloc.fu_binding", "bind_operations",
     lambda t, fn: _span(t, "alloc.bind", fn)),
    ("repro.alloc.register_alloc", "allocate_registers",
     lambda t, fn: _span(t, "alloc.registers", fn)),
    ("repro.rtl.design", "elaborate",
     lambda t, fn: _span(t, "rtl.elaborate", fn)),
    ("repro.sim.backend", "create_engine",
     lambda t, fn: _span(t, "sim.build", fn, _after_engine)),
    ("repro.sim.engine", "CompiledEngine.run_batch",
     lambda t, fn: _span(t, "sim.run", fn, _after_run)),
    ("repro.sim.vectorized", "VectorizedEngine.run_array",
     lambda t, fn: _span(t, "sim.run", fn, _after_run)),
    ("repro.sim.reference", "evaluate",
     lambda t, fn: _span(t, "sim.reference", fn)),
    ("repro.power.simulated", "measure_power",
     lambda t, fn: _span(t, "power.measure", fn)),
    ("repro.power.simulated", "compare_designs",
     lambda t, fn: _span(t, "power.compare", fn)),
    ("repro.pipeline.engine", "Pipeline.run_context",
     lambda t, fn: _span(t, "pipeline.run", fn, _after_pipeline)),
    ("repro.opt.search", "optimize",
     lambda t, fn: _span(t, "opt.optimize", fn)),
    ("repro.opt.evaluate", "Evaluator.evaluate", _evaluate),
    ("repro.serve.client", "ServeClient.submit",
     lambda t, fn: _span(t, "serve.submit", fn)),
)


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every :data:`HOOKS` entry point through ``tracer``.

    Module functions are replaced in their defining module *and* in every
    ``repro`` module that imported them by name, so call sites that bound
    the function at import time are traced too.  Scheduler strategies are
    re-registered through the public registry.
    """
    from repro.pipeline import registry

    undo = []
    try:
        for module_name, path, wrap in HOOKS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, wrap(tracer, original))
                undo.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = wrap(tracer, original)
            for holder in _repro_modules():
                if getattr(holder, attr, None) is original:
                    setattr(holder, attr, wrapper)
                    undo.append((holder, attr, original))
        for name in registry.available_schedulers():
            original = registry.get_scheduler(name)
            registry.register_scheduler(
                name, _span(tracer, "sched.schedule", original),
                supports_ii=registry.supports_initiation_interval(name))
            undo.append((registry, name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            if owner is registry:
                registry.register_scheduler(
                    attr, original,
                    supports_ii=registry.supports_initiation_interval(attr))
            else:
                setattr(owner, attr, original)
