"""Worker-side job bodies (top-level functions, so the pool can pickle
them).

Explore jobs reuse :func:`repro.pipeline.explore.run_chunk` directly —
the server plans the grid, diffs it against the job's resume journal,
and ships pending chunks here.  Optimize jobs run a whole
:func:`repro.opt.search.optimize` in one worker; incremental
best-so-far improvements — and, for the portfolio driver, evolving
Pareto-archive snapshots (``"type": "pareto"`` records) — stream back
through a sidecar JSONL progress file the server tails (the pool
cannot carry callbacks across the process boundary, a flushed
append-only file can).  The sidecar is flushed but never fsynced: only
the live server that launched the worker reads it, and crash recovery
goes through the evaluation journal instead.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from pathlib import Path

from repro.core.pm_pass import PMOptions
from repro.durable import parse_line
from repro.ir.serialize import graph_from_dict


def _load_graph(params: dict):
    """The job's circuit: a registry/family name or a serialized CDFG."""
    if "graph" in params:
        return graph_from_dict(params["graph"])
    from repro.circuits import build

    return build(params["circuit"])


def run_optimize_job(payload: dict) -> dict:
    """One full optimizer search; returns the JSON outcome summary.

    ``payload`` carries the circuit spec, a ``search`` dict of
    :class:`~repro.opt.search.SearchSpec` fields, the budget/scheduler
    dimensions, the shared artifact store (pickled by path), the
    evaluation resume journal, and the progress-file path to stream
    best-so-far improvements to.
    """
    from repro.opt.search import SearchSpec, optimize

    graph = _load_graph(payload)
    spec = SearchSpec(**payload.get("search", {}))
    progress_path = payload.get("progress_path")

    def _emit(record: dict) -> None:
        # Flushed for the tailing reader, never fsynced (see above).
        handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        handle.flush()

    def progress(step, score, candidate):
        _emit({
            "type": "best",
            "step": step,
            "score": score,
            "n_steps": candidate.n_steps,
            "scheduler": candidate.scheduler,
            "order": list(candidate.order),
        })

    def front_progress(round_index, archive):
        _emit({
            "type": "pareto",
            "round": round_index,
            "size": len(archive),
            "front": [entry.to_dict() for entry in archive.front()],
        })

    if not progress_path:
        progress = front_progress = None
    pm_base = PMOptions(partial=bool(payload.get("partial", False)))
    extra = {}
    if spec.driver == "portfolio":
        extra["front_progress"] = front_progress
    with (open(progress_path, "a", encoding="utf-8") if progress_path
          else nullcontext()) as handle:
        result = optimize(
            graph, spec,
            budgets=tuple(payload["budgets"]),
            schedulers=tuple(payload.get("schedulers", ("list",))),
            store=payload.get("store"),
            journal=payload.get("journal"),
            sim_vectors=int(payload.get("sim_vectors", 128)),
            pm_base=pm_base,
            # Serve journals are the crash-recovery record: fsync each.
            durability="record",
            progress=progress,
            **extra,
        )
    return {
        "outcome": result.outcome(),
        "evaluations": result.evaluations,
        "reused": result.reused,
        "resumed": result.resumed,
        "memo_hits": result.memo_hits,
        "store_hits": result.store_hits,
        "design_hits": result.design_hits,
        "outcome_hits": result.outcome_hits,
        "pareto_size": len(result.archive) if result.archive else 0,
        "improvement_over_greedy": result.improvement_over_greedy,
    }


def read_progress(path: "str | Path", offset: int) -> tuple[list[dict], int]:
    """New progress records past byte ``offset``; returns them plus the
    new offset.  Only complete (newline-terminated) lines are consumed,
    so a record mid-write is picked up whole on the next poll."""
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            data = handle.read()
    except FileNotFoundError:
        return [], offset
    end = data.rfind(b"\n") + 1  # consume only newline-terminated lines
    records = [record for record in map(parse_line, data[:end].split(b"\n"))
               if record is not None]
    return records, offset + end
