"""End-to-end, layer-attributed benchmark of the synthesis flow.

Run from the root of a checkout::

    python3 perfbench/run.py --workload synth --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures a third of the time untraced and the rest with
every layer's entry point wrapped, and reports the per-layer metrics
plus the tracing overhead between the two.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  A summary goes to standard error
and the spans of a traced run to ``.perfbench/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run; the reported ``setup_s`` is their median.
SETUP_REPS = 5

UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms",
         "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def _layer_unit(name: str) -> str:
    if name.endswith(("_ms", "_ms_p50", ".ms")):
        return "ms"
    if name.endswith(("_ratio", "_share", "_overhead")):
        return "ratio"
    return "count"


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _untraced(workload, seed: int, seconds: float, reps: int,
              min_ops: int | None) -> tuple[dict, int, int]:
    from stats import faster_passes, min_samples, percentile
    from workloads import host_speed, time_imports

    setups = []
    for _ in range(reps):
        speed = host_speed()
        began = time.perf_counter()
        if workload.name != "serve":  # the server spawn pays its imports
            time_imports()
        workload.setup(seed)
        took = time.perf_counter() - began
        setups.append(took * 2.0 / (speed + host_speed()))
    workload.prepare_checks()
    if min_ops is None:
        # Enough ops that the reported ones hold ten beyond the tail.
        needed = min_samples(workload.tail) * (2 if workload.faster_half
                                               else 1)
        phase = workload.measure(seconds, needed)
    else:
        phase = workload.measure(seconds, min_ops, whole_passes=False)
    latencies, elapsed = phase.latencies, phase.elapsed
    if workload.faster_half and min_ops is None:
        latencies = faster_passes(latencies, workload.cycle)
        elapsed = sum(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_ms_p50": percentile(latencies, 50) * 1000.0,
        "op_ms_tail": percentile(latencies, workload.tail) * 1000.0,
        "ops_per_s": len(latencies) / elapsed,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    _log(f"{workload.name}: {phase.ops} ops taking {phase.elapsed:.1f}s, "
         f"{phase.failed} failed, {len(latencies)} reported; tail is "
         f"p{workload.tail}; wall-clock p50 "
         f"{percentile(phase.raw, 50) * 1000.0:.3f}ms; set-ups "
         + ", ".join(f"{s:.3f}s" for s in setups))
    return metrics, phase.ops, phase.failed


def _overhead(plain: list[float], traced: list[float]) -> float:
    """Relative cost of tracing over the ops both phases ran, leaving out
    the first, which also pays the flow's lazy imports."""
    k = min(len(plain), len(traced))
    first = 1 if k > 1 else 0
    return (sum(traced[first:k]) / sum(plain[first:k]) - 1.0) if k else 0.0


def _traced(workload, seconds: float, seed: int) -> tuple[dict, int, int,
                                                           list[str]]:
    from layers import layer_metrics, layer_table
    from tracer import Tracer, traced
    from workloads import WORK_DIR

    workload.setup(seed)
    workload.prepare_checks()
    plain = workload.measure(seconds / 3.0, 1, whole_passes=False)
    tracer = Tracer()
    with traced(tracer):
        phase = workload.measure(seconds * 2.0 / 3.0, 1, tracer=tracer,
                                 whole_passes=False)
    overhead = _overhead(plain.latencies, phase.latencies)
    metrics, observed = layer_metrics(tracer, phase.ops, phase.records,
                                      overhead)
    table = layer_table(tracer, phase.ops)
    missing = [name for name in workload.layers if not observed.get(name)]
    _log(f"{workload.name} traced: {phase.ops} ops "
         f"({plain.ops} untraced), overhead {overhead:+.1%}")
    for layer, row in table.items():
        _log(f"  {layer:<10s} {row['self_ms']:10.3f} ms/op "
             f"{row['share']:7.1%} {row['calls']:10.1f} calls/op")
    for name in missing:
        _log(f"  coverage: {name} recorded no calls")
    WORK_DIR.mkdir(exist_ok=True)
    trace_path = WORK_DIR / f"trace-{workload.name}-{seed}.json"
    trace_path.write_text(json.dumps(
        {"workload": workload.name, "seed": seed, "ops": phase.ops,
         "layers": table, "metrics": metrics, **tracer.to_json()}))
    return (metrics, plain.ops + phase.ops, plain.failed + phase.failed,
            missing)


def run(name: str, seed: int, seconds: float, trace: bool,
        setup_reps: int = SETUP_REPS, min_ops: int | None = None) -> dict:
    """One benchmark run; returns the result object.  ``min_ops`` shrinks
    an untraced run below the ops its tail percentile needs (for tests)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    try:
        if trace:
            metrics, attempted, failed, missing = _traced(workload, seconds,
                                                          seed)
            units = {n: _layer_unit(n) for n in metrics}
        else:
            metrics, attempted, failed = _untraced(workload, seed, seconds,
                                                   setup_reps, min_ops)
            missing = []
            units = UNITS
    finally:
        workload.close()
    return {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("synth", "optimize", "power", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _log(f"perfbench: no program to measure at {src}/repro; run from "
             "the root of a checkout")
        return 2
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        _log(f"perfbench: imported repro from {repro.__file__}, not {src}")
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
