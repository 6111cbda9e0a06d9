"""Simulation-backend benchmark: interpreter vs compiled vs vectorized
vs packed.

Times the simulation backends on each benchmark circuit and emits
``BENCH_sim.json`` at the repo root so the speedup trajectory is tracked
across PRs:

* ``interpreter`` — the legacy :class:`RTLSimulator` oracle, timed on a
  reduced vector count (it is ~3 orders of magnitude off the pace on
  large batches) and normalized per vector;
* ``compiled`` — :class:`CompiledEngine`, generated straight-line Python
  per vector, timed on the full batch;
* ``vectorized`` — :class:`VectorizedEngine`, generated NumPy array
  programs per block (hybrid scalar-slot micro-loop on recurrent
  plans), timed on the same batch fed as one pre-generated input matrix;
* ``packed`` — :class:`PackedEngine`, 64 Monte-Carlo vectors per machine
  word as uint64 bit slices; skipped (with a note) on plans it refuses —
  hybrid recurrences and widths above 64.

The circuit set includes two stress rows beyond the paper suite:

* ``recurrent`` — :func:`repro.circuits.extra.gated_recurrence`, the
  pinned Hypothesis circuit whose schedule forces the hybrid scalar
  micro-loop; its gate is "no slower than compiled", not the vector
  floor (the recurrence serializes one slot by construction).
* ``logic`` — :func:`repro.circuits.extra.logic_mixer` at 32 stages x
  8 lanes, pure AND/OR/XOR/NOT/MUX dataflow; the packed backend's
  showcase and the circuit the ``--min-packed-speedup`` floor (default
  4x over vectorized) is enforced on.

The packed floor is measured on a dedicated **Monte-Carlo block** batch
(``--packed-gate-vectors``, default 1M) rather than the shared batch:
word-packing pays when batches are big enough that the vectorized
backend's per-statement int64 temporaries (8 bytes/vector) spill out of
the last-level cache while the packed bit slices (1 bit/vector/slice)
stay resident — at the shared 4096-vector size both fit and the ratio
only reflects dispatch overhead.  The block run times vectorized vs
packed only (the compiled engine would need minutes on 512k vectors)
and cross-checks their outputs and activity bit-for-bit.

Each circuit also gets **calibration rows**: the compiled and vectorized
backends at 16 and 128 vectors (the verify check and ``sim_power``
sizes), next to their 4096-vector rows.  Every ``build_s`` is a cold
build (compile caches cleared, plan compilation included) and every
``seconds`` one engine call; with ``plan_ops`` per circuit these rows
are what :func:`repro.sim.backend.fit_cost_model` fits the ``auto``
backend's cost model to.

Every circuit row carries ``identical``: all array backends must agree
bit-for-bit (outputs + full ActivityCounter) with the compiled engine on
the full batch, and the compiled engine with the interpreter on the
reduced batch.

Usage::

    python benchmarks/bench_sim.py            # full run (4096-vector batches)
    python benchmarks/bench_sim.py --smoke    # CI-fast run (256 vectors)

Exits nonzero if any backend diverges, if the vectorized-over-compiled
speedup falls below ``--min-speedup`` (default 5x) on a non-hybrid
circuit, if a hybrid circuit is slower than compiled, or if the packed
backend misses ``--min-packed-speedup`` on the pure-logic circuit.
Under ``--smoke`` the perf floors are advisory — millisecond-scale
timings on shared CI runners are too noisy for a hard gate — while the
equality checks stay fatal.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.circuits import build  # noqa: E402
from repro.circuits.extra import gated_recurrence, logic_mixer  # noqa: E402
from repro.pipeline import FlowConfig, run_pair  # noqa: E402
from repro.sched.timing import critical_path_length  # noqa: E402
from repro.sim.backend import plan_ops  # noqa: E402
from repro.sim.engine import (  # noqa: E402
    CompiledEngine,
    cached_plan,
    clear_compile_caches,
)
from repro.sim.packed import PackedEngine, PackingError  # noqa: E402
from repro.sim.simulator import RTLSimulator  # noqa: E402
from repro.sim.vectorized import VectorizedEngine  # noqa: E402
from repro.sim.vectors import random_vectors, vectors_to_array  # noqa: E402

# Circuit -> step budget; cordic is the largest circuit (Table I: 152
# ops); None means critical path + 1 (the PM-friendly minimum slack).
FULL_CIRCUITS = {"dealer": 6, "gcd": 7, "vender": 6, "cordic": 48,
                 "recurrent": None, "logic": None}
# Smoke keeps one paper circuit plus both stress rows so CI always
# exercises the hybrid micro-loop and the packed backend.
SMOKE_CIRCUITS = {"dealer": 6, "gcd": 7, "recurrent": None, "logic": None}

#: Batch sizes of the calibration rows: the verify stage's check and the
#: ``sim_power`` objective's default.
CALIBRATION_VECTORS = (16, 128)

#: Circuits the packed-over-vectorized floor is enforced on (pure-logic
#: dataflow is where bit-packing pays; arithmetic circuits ripple carries
#: slicewise and are only expected to keep parity).
PACKED_GATE_CIRCUITS = ("logic",)


def _graph(name):
    if name == "recurrent":
        return gated_recurrence()
    if name == "logic":
        return logic_mixer(n_stages=32, width=8)
    return build(name)


def _timed(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _cold_build(engine_class, design, repeats: int):
    """An engine plus its best cold build time: caches cleared before
    every build, so plan compilation and code generation are included."""
    best = float("inf")
    for _ in range(repeats):
        clear_compile_caches()
        start = time.perf_counter()
        engine = engine_class(design)
        best = min(best, time.perf_counter() - start)
    return engine, best


def _packed_gate_block(vectorized, packed, n_vectors: int,
                       repeats: int) -> dict[str, object]:
    """Time vectorized vs packed on one Monte-Carlo-block-sized batch
    (compiled stays out: straight-line Python on 512k vectors would
    take minutes) and cross-check the two bit-for-bit."""
    width = vectorized.plan.width
    rng = np.random.default_rng(0xB10C)
    matrix = rng.integers(-(1 << (width - 1)), 1 << (width - 1),
                          size=(n_vectors, len(vectorized.input_names)),
                          dtype=np.int64)
    vec_s = _timed(lambda: (vectorized.reset(),
                            vectorized.run_array(matrix)), repeats)
    packed_s = _timed(lambda: (packed.reset(),
                               packed.run_array(matrix)), repeats)
    vectorized.reset()
    vres = vectorized.run_array(matrix)
    packed.reset()
    pres = packed.run_array(matrix)
    identical = (vres.activity == pres.activity
                 and vres.outputs.keys() == pres.outputs.keys()
                 and all(np.array_equal(vres.outputs[k], pres.outputs[k])
                         for k in vres.outputs))
    return {"n_vectors": n_vectors, "vectorized_s": vec_s,
            "packed_s": packed_s,
            "speedup_vs_vectorized": vec_s / packed_s,
            "identical": identical}


def bench_circuit(name: str, steps: int | None, n_batch: int, n_interp: int,
                  repeats: int, gate_vectors: int = 0) -> dict[str, object]:
    graph = _graph(name)
    if steps is None:
        steps = critical_path_length(graph) + 1
    design = run_pair(graph, FlowConfig(n_steps=steps)).managed.design
    batch = random_vectors(graph, n_batch)
    small = batch[:n_interp]

    compiled, compiled_build_s = _cold_build(CompiledEngine, design, repeats)
    vectorized, vectorized_build_s = _cold_build(VectorizedEngine, design,
                                                 repeats)
    matrix = vectors_to_array(batch, vectorized.input_names)
    packed = packed_build_s = packed_note = None
    try:
        packed, packed_build_s = _cold_build(PackedEngine, design, repeats)
    except PackingError as exc:
        packed_note = str(exc)

    interp_s = _timed(lambda: RTLSimulator(design).run_many(small), repeats)
    compiled_s = _timed(lambda: (compiled.reset(),
                                 compiled.run_batch(batch)), repeats)
    vectorized_s = _timed(lambda: (vectorized.reset(),
                                   vectorized.run_array(matrix)), repeats)
    packed_s = None
    if packed is not None:
        packed_s = _timed(lambda: (packed.reset(),
                                   packed.run_array(matrix)), repeats)

    # Bit-identity: every array backend == compiled on the full batch;
    # compiled == interpreter on the reduced batch.
    compiled.reset()
    vectorized.reset()
    cout, cact = compiled.run_many(batch)
    vout, vact = vectorized.run_many(batch)
    iout, iact = RTLSimulator(design).run_many(small)
    compiled.reset()
    sout, sact = compiled.run_many(small)
    identical = (cout == vout and cact == vact
                 and sout == iout and sact == iact)
    if packed is not None:
        packed.reset()
        pout, pact = packed.run_many(batch)
        identical = identical and pout == cout and pact == cact

    gate_block = None
    if packed is not None and gate_vectors and name in PACKED_GATE_CIRCUITS:
        gate_block = _packed_gate_block(
            vectorized, packed, gate_vectors, max(1, repeats - 1))
        identical = identical and gate_block["identical"]

    per_interp = interp_s / n_interp
    per_compiled = compiled_s / n_batch
    per_vectorized = vectorized_s / n_batch
    rows = [
        {"backend": "interpreter", "n_vectors": n_interp,
         "seconds": interp_s, "per_vector_us": per_interp * 1e6},
        {"backend": "compiled", "n_vectors": n_batch,
         "seconds": compiled_s, "per_vector_us": per_compiled * 1e6,
         "build_s": compiled_build_s,
         "speedup_vs_interpreter": per_interp / per_compiled},
        {"backend": "vectorized", "n_vectors": n_batch,
         "seconds": vectorized_s, "per_vector_us": per_vectorized * 1e6,
         "build_s": vectorized_build_s,
         "speedup_vs_interpreter": per_interp / per_vectorized,
         "speedup_vs_compiled": compiled_s / vectorized_s},
    ]
    if packed_s is not None:
        rows.append(
            {"backend": "packed", "n_vectors": n_batch,
             "seconds": packed_s, "per_vector_us": packed_s / n_batch * 1e6,
             "build_s": packed_build_s,
             "speedup_vs_interpreter": per_interp / (packed_s / n_batch),
             "speedup_vs_compiled": compiled_s / packed_s,
             "speedup_vs_vectorized": vectorized_s / packed_s})
    # Calibration rows: sub-millisecond runs, so more repeats.
    for n in (n for n in CALIBRATION_VECTORS if n <= n_batch):
        for backend, build_s, run in (
                ("compiled", compiled_build_s,
                 lambda: (compiled.reset(), compiled.run_batch(batch[:n]))),
                ("vectorized", vectorized_build_s,
                 lambda: (vectorized.reset(),
                          vectorized.run_array(matrix[:n])))):
            seconds = _timed(run, 3 * repeats)
            rows.append({"backend": backend, "n_vectors": n,
                         "seconds": seconds,
                         "per_vector_us": seconds / n * 1e6,
                         "build_s": build_s})
    # The gate metric comes from the block run when one happened; the
    # shared small batch only measures dispatch overhead there.
    packed_speedup = (vectorized_s / packed_s) if packed_s is not None \
        else None
    if gate_block is not None:
        packed_speedup = gate_block["speedup_vs_vectorized"]
    return {
        "circuit": name,
        "n_steps": steps,
        "plan_ops": plan_ops(cached_plan(design)),
        "hybrid": vectorized.hybrid,
        "rows": rows,
        "vectorized_speedup_over_compiled": compiled_s / vectorized_s,
        "packed_speedup_over_vectorized": packed_speedup,
        "packed_gate_block": gate_block,
        "packed_skipped": packed_note,
        "identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI subset: 256-vector batches, "
                             "dealer + gcd + recurrent + logic")
    parser.add_argument("--vectors", type=int, default=None,
                        help="batch size (default 4096, smoke 256)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail if vectorized beats compiled by less "
                             "than this on non-hybrid circuits (default "
                             "5.0; advisory under --smoke)")
    parser.add_argument("--min-packed-speedup", type=float, default=4.0,
                        help="fail if packed beats vectorized by less "
                             "than this on the pure-logic circuit "
                             "(default 4.0; advisory under --smoke)")
    parser.add_argument("--packed-gate-vectors", type=int, default=None,
                        help="Monte-Carlo block size for the packed-"
                             "floor measurement (default 1048576; 0 "
                             "disables the block run and gates on the "
                             "shared batch; skipped under --smoke)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default <repo>/BENCH_sim.json)")
    args = parser.parse_args(argv)

    circuits = SMOKE_CIRCUITS if args.smoke else FULL_CIRCUITS
    if args.min_speedup is None:
        args.min_speedup = 5.0
    n_batch = args.vectors or (256 if args.smoke else 4096)
    n_interp = min(n_batch, 64 if args.smoke else 256)
    repeats = 3
    gate_vectors = 0 if args.smoke else (
        1048576 if args.packed_gate_vectors is None
        else args.packed_gate_vectors)
    out_path = args.out or (
        Path(__file__).resolve().parent.parent / "BENCH_sim.json")

    results = [bench_circuit(name, steps, n_batch, n_interp, repeats,
                             gate_vectors=gate_vectors)
               for name, steps in circuits.items()]
    gated = [r for r in results if r["circuit"] in PACKED_GATE_CIRCUITS
             and r["packed_speedup_over_vectorized"] is not None]
    report = {
        "bench": "sim_backends",
        "mode": "smoke" if args.smoke else "full",
        "n_vectors": n_batch,
        "min_speedup_required": args.min_speedup,
        "min_packed_speedup_required": args.min_packed_speedup,
        "results": results,
        "min_vectorized_speedup_measured": min(
            r["vectorized_speedup_over_compiled"] for r in results
            if not r["hybrid"]),
        "min_packed_speedup_measured": min(
            (r["packed_speedup_over_vectorized"] for r in gated),
            default=None),
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")

    header = (f"{'circuit':<10s} {'backend':<12s} {'vecs':>6s} "
              f"{'seconds':>9s} {'us/vec':>8s} {'vs interp':>9s} "
              f"{'vs compiled':>11s}")
    print(header)
    print("-" * len(header))
    for result in results:
        for row in result["rows"]:
            vs_i = row.get("speedup_vs_interpreter")
            vs_c = row.get("speedup_vs_compiled")
            print(f"{result['circuit']:<10s} {row['backend']:<12s} "
                  f"{row['n_vectors']:>6d} {row['seconds']:>9.4f} "
                  f"{row['per_vector_us']:>8.2f} "
                  f"{vs_i and f'{vs_i:8.1f}x' or '':>9s} "
                  f"{vs_c and f'{vs_c:10.1f}x' or '':>11s}")
        notes = [f"identical={result['identical']}"]
        if result["hybrid"]:
            notes.append("hybrid scalar-slot plan")
        if result["packed_skipped"]:
            notes.append(f"packed skipped: {result['packed_skipped']}")
        block = result["packed_gate_block"]
        if block is not None:
            notes.append(
                f"packed block ({block['n_vectors']} vecs): "
                f"{block['speedup_vs_vectorized']:.1f}x vs vectorized")
        print(f"{'':10s} {'; '.join(notes)}")
    print(f"wrote {out_path}")

    failures = [r["circuit"] for r in results if not r["identical"]]
    if failures:
        print(f"FAIL: backends diverge on {failures}")
        return 1
    problems = []
    slow = [r["circuit"] for r in results if not r["hybrid"]
            and r["vectorized_speedup_over_compiled"] < args.min_speedup]
    if slow:
        problems.append(
            f"vectorized speedup below {args.min_speedup}x on {slow}")
    # The formerly-fallback (hybrid) set must at least match compiled.
    regressed = [r["circuit"] for r in results if r["hybrid"]
                 and r["vectorized_speedup_over_compiled"] < 1.0]
    if regressed:
        problems.append(f"hybrid plan slower than compiled on {regressed}")
    slow_packed = [r["circuit"] for r in gated
                   if r["packed_speedup_over_vectorized"]
                   < args.min_packed_speedup]
    if slow_packed:
        problems.append(f"packed speedup below {args.min_packed_speedup}x "
                        f"over vectorized on {slow_packed}")
    if problems:
        if args.smoke:
            # Millisecond-scale smoke timings are noisy on shared CI
            # runners: the correctness gate above stays hard, the perf
            # floors are advisory here.
            for problem in problems:
                print(f"WARN: {problem} (advisory in smoke mode)")
            return 0
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
