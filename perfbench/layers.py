"""Per-layer metrics from a traced phase, and the span-coverage check.

Every metric is per op.  ``*_ms`` metrics are self times (a span's time
minus its traced children), except ``pipeline.<stage>_ms``, which come
from the public ``FlowContext.stage_seconds`` and include the layers a
stage calls.  Each metric names the spans or counters that feed it, so
the coverage check can tell a layer that did no work from a layer whose
entry point was renamed under ``src/``.
"""

from __future__ import annotations

import statistics

from tracer import Tracer

#: The eight default pipeline stages, in flow order.
STAGES = ("validate", "analyze", "power_manage", "schedule", "allocate",
          "elaborate", "verify", "report")

#: metric -> (spans or counters it is measured from).
SOURCES: dict[str, tuple[str, ...]] = {
    "ir.topo_sorts": ("ir.topo_sorts",),
    "ir.data_preds_calls": ("ir.data_preds_calls",),
    "ir.control_edges": ("ir.control_edges",),
    "core.pm_ms": ("core.pm",),
    "core.pm_calls": ("core.pm",),
    "sched.schedule_ms": ("sched.schedule",),
    "alloc.ms": ("alloc.bind", "alloc.registers"),
    "rtl.elaborate_ms": ("rtl.elaborate",),
    "sim.build_ms": ("sim.build",),
    "sim.builds": ("sim.build",),
    "sim.run_ms": ("sim.run",),
    "sim.vectors": ("sim.run",),
    "sim.vectorized_share": ("sim.engines",),
    "sim.reference_ms": ("sim.reference",),
    "power.measure_ms": ("power.measure",),
    **{f"pipeline.{stage}_ms": ("pipeline.run",) for stage in STAGES},
    "pipeline.cache_hit_ratio": ("pipeline.cache_lookups",),
    "opt.evals": ("opt.evaluate",),
    "opt.reuse_ratio": ("opt.evaluate",),
    "opt.eval_ms_p50": ("opt.evals",),
    "serve.submit_ms_p50": ("serve.submit",),
    "serve.queued_ms_p50": ("serve.queued",),
    "serve.running_ms_p50": ("serve.running",),
    "serve.first_event_ms_p50": ("serve.first_event",),
    "serve.store_hit_ratio": ("serve.store_lookups",),
    "bench.other_share": ("op",),
    "bench.trace_overhead": ("op",),
}

#: Every per-layer metric the traced run reports, in report order.
NAMES = tuple(SOURCES)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _median_ms(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) * 1000.0 if values else 0.0


def _serve_counts(records: list[dict]) -> dict[str, int]:
    """How many serve ops observed each client-side timestamp."""
    counts = {key: sum(r.get(key) is not None for r in records)
              for key in ("submit", "queued", "running", "first_event")}
    counts = {f"serve.{key}": n for key, n in counts.items()}
    counts["serve.store_lookups"] = sum(r.get("store_lookups", 0)
                                        for r in records)
    return counts


def layer_metrics(tracer: Tracer, ops: int, records: list[dict],
                  overhead: float) -> tuple[dict[str, float], dict]:
    """``(metrics, calls)``: every per-layer metric, and the call count
    behind each (for the coverage check)."""
    self_s, calls = tracer.self_times()
    counts = tracer.counts
    per_op = max(ops, 1)

    def ms(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names) * 1000.0 / per_op

    def count(name: str) -> float:
        return counts.get(name, 0) / per_op

    op_total = sum(span.end - span.start for span in tracer.spans
                   if span.name == "op")
    evals = counts.get("opt.evals", 0)
    eval_samples = tracer.samples.get("opt.eval_ms", [])
    metrics = {
        "ir.topo_sorts": count("ir.topo_sorts"),
        "ir.data_preds_calls": count("ir.data_preds_calls"),
        "ir.control_edges": count("ir.control_edges"),
        "core.pm_ms": ms("core.pm"),
        "core.pm_calls": calls.get("core.pm", 0) / per_op,
        "sched.schedule_ms": ms("sched.schedule"),
        "alloc.ms": ms("alloc.bind", "alloc.registers"),
        "rtl.elaborate_ms": ms("rtl.elaborate"),
        "sim.build_ms": ms("sim.build"),
        "sim.builds": calls.get("sim.build", 0) / per_op,
        "sim.run_ms": ms("sim.run"),
        "sim.vectors": count("sim.vectors"),
        "sim.vectorized_share": _ratio(counts.get("sim.vectorized_engines", 0),
                                       counts.get("sim.engines", 0)),
        "sim.reference_ms": ms("sim.reference"),
        "power.measure_ms": ms("power.measure"),
        **{f"pipeline.{stage}_ms":
           tracer.stage_seconds.get(stage, 0.0) * 1000.0 / per_op
           for stage in STAGES},
        "pipeline.cache_hit_ratio": _ratio(
            counts.get("pipeline.cache_hits", 0),
            counts.get("pipeline.cache_lookups", 0)),
        "opt.evals": evals / per_op,
        "opt.reuse_ratio": _ratio(counts.get("opt.reused", 0),
                                  evals + counts.get("opt.reused", 0)),
        "opt.eval_ms_p50": (statistics.median(eval_samples)
                            if eval_samples else 0.0),
        "serve.submit_ms_p50": _median_ms(r.get("submit") for r in records),
        "serve.queued_ms_p50": _median_ms(r.get("queued") for r in records),
        "serve.running_ms_p50": _median_ms(r.get("running")
                                           for r in records),
        "serve.first_event_ms_p50": _median_ms(r.get("first_event")
                                               for r in records),
        "serve.store_hit_ratio": _ratio(
            sum(r.get("store_hits", 0) for r in records),
            sum(r.get("store_lookups", 0) for r in records)),
        "bench.other_share": _ratio(self_s.get("op", 0.0), op_total),
        "bench.trace_overhead": overhead,
    }
    available = {**calls, **counts, **_serve_counts(records)}
    observed = {name: sum(available.get(source, 0) for source in sources)
                for name, sources in SOURCES.items()}
    return metrics, observed


def layer_table(tracer: Tracer, ops: int) -> dict[str, dict[str, float]]:
    """Self ms per op and share of op wall time, by layer."""
    self_s, calls = tracer.self_times()
    op_total = sum(span.end - span.start for span in tracer.spans
                   if span.name == "op") or 1.0
    table: dict[str, dict[str, float]] = {}
    for name, seconds in self_s.items():
        layer = "other" if name == "op" else name.partition(".")[0]
        row = table.setdefault(layer, {"self_ms": 0.0, "share": 0.0,
                                       "calls": 0.0})
        row["self_ms"] += seconds * 1000.0 / max(ops, 1)
        row["share"] += seconds / op_total
        row["calls"] += calls[name] / max(ops, 1)
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["share"]))
