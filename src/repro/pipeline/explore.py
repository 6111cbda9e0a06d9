"""Batch design-space exploration.

``explore`` runs the full flow over the cross product of circuits x
step budgets x flow configs and returns one summary row per point —
the loop ``paper_tables`` and the ablation benches used to write by
hand.  Points are independent, so with ``workers > 1`` they fan out in
chunks over a :class:`concurrent.futures.ProcessPoolExecutor`.

Three service-grade facilities turn one-shot sweeps into resumable,
shareable jobs:

* **Persistent store** — pass ``store=`` (an
  :class:`~repro.pipeline.store.IndexedArtifactStore` or a directory
  path) and every stage artifact is kept on disk, shared across worker
  processes *and* across runs: the second sweep over the same grid is
  served from the store.  Per-point disk hit/miss counts surface on
  :class:`ExplorationPoint` and aggregate on :class:`ExplorationResult`.
  Without a store, each process keeps its in-memory cache, exactly as
  before.

* **Journaled resume** — pass ``resume=`` (a JSONL journal path) and
  every finished point is appended as it completes.  A killed sweep
  rerun with the same journal recomputes only the missing points; each
  job is identified by a stable content key over (circuit spec, config,
  sim_vectors), so grids can also be *extended* and re-run against the
  same journal.

* **Pareto reduction** — ``result.pareto()`` keeps only the points not
  dominated on (area, power, latency).

* **Search-driven exploration** — pass ``search=`` (a driver name or a
  :class:`~repro.opt.search.SearchSpec`) and instead of sweeping the
  fixed grid, each circuit's joint (MUX ordering, budget, scheduler)
  space is *searched* by the :mod:`repro.opt` optimizer; the result has
  one point per circuit: the optimizer-chosen design.  ``budgets`` and
  the configs' schedulers define the space, ``store=`` backs candidate
  evaluation, and ``resume=`` journals evaluations instead of points.

Circuits may be registry names — including parameterized family specs
like ``gen:branchy:42`` — or CDFG objects (serialized to the workers
through the IR's JSON form).

Portability note: runtime ``register_scheduler``/``register_family``
registrations live in this process.  Workers inherit them on fork-start
platforms (Linux); under spawn (macOS/Windows) a custom registration
must happen at import time of a module the workers also import, or the
sweep must run with ``workers=1``.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from repro.ir.graph import CDFG
from repro.ir.serialize import graph_from_dict, graph_to_dict
from repro.opt.journal import (
    JOURNAL_FORMAT,
    append_record,
    load_journal,
    open_journal,
)
from repro.opt.objective import pareto_front
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.config import FlowConfig
from repro.pipeline.engine import Pipeline
from repro.pipeline.store import IndexedArtifactStore

# Per-process artifact store.  The parent's cache is inherited by forked
# workers, and repeated explore() calls in one process build on it.
# (With an explicit ``store=`` the disk store is used instead.)
_PROCESS_CACHE = ArtifactCache()


def clear_explore_cache() -> None:
    """Drop this process's exploration cache (mainly for tests)."""
    _PROCESS_CACHE.clear()


@dataclass(frozen=True)
class ExplorationPoint:
    """Summary of one (circuit, budget, config) synthesis run."""

    circuit: str
    n_steps: int
    config_label: str
    scheduler: str
    managed_muxes: int
    power_reduction_pct: float
    area: int
    controller_literals: int
    allocation: tuple[tuple[str, int], ...]
    cache_hits: int
    cache_misses: int
    #: Engine-simulated total power reduction vs the baseline design,
    #: populated when ``explore(..., sim_vectors=N)`` is used.
    simulated_reduction_pct: float | None = None
    #: Disk-store lookups served / computed while synthesizing this
    #: point (0 when no ``store=`` was passed).
    store_hits: int = 0
    store_misses: int = 0
    #: Simulation backend that actually produced
    #: ``simulated_reduction_pct`` (``create_engine`` resolution —
    #: ``auto`` requests record what they resolved to);
    #: ``None`` when no simulation ran or for pre-existing journals.
    chosen_backend: str | None = None

    @property
    def allocation_dict(self) -> dict[str, int]:
        return dict(self.allocation)

    # -- journal round trip ----------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """JSON-compatible form (the journal record payload)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["allocation"] = [list(pair) for pair in self.allocation]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExplorationPoint":
        known = {f.name for f in fields(cls)}
        kwargs = {name: value for name, value in data.items()
                  if name in known}
        kwargs["allocation"] = tuple(
            (str(unit), int(count)) for unit, count in kwargs["allocation"])
        return cls(**kwargs)


#: Objective extractors for :meth:`ExplorationResult.pareto`; every
#: objective is minimized.  ``power`` prefers the engine-simulated total
#: reduction when present, the static datapath estimate otherwise.
PARETO_OBJECTIVES: dict[str, Callable[[ExplorationPoint], float]] = {
    "area": lambda p: float(p.area),
    "power": lambda p: -(p.simulated_reduction_pct
                         if p.simulated_reduction_pct is not None
                         else p.power_reduction_pct),
    "latency": lambda p: float(p.n_steps),
}


@dataclass(frozen=True)
class ExplorationResult:
    """All points of one sweep plus aggregate cache behaviour."""

    points: tuple[ExplorationPoint, ...]
    #: Points served from the resume journal instead of recomputed.
    resumed: int = 0

    @property
    def cache_hits(self) -> int:
        return sum(p.cache_hits for p in self.points)

    @property
    def cache_misses(self) -> int:
        return sum(p.cache_misses for p in self.points)

    @property
    def store_hits(self) -> int:
        """Disk-store hits across all computed points of the sweep."""
        return sum(p.store_hits for p in self.points)

    @property
    def store_misses(self) -> int:
        return sum(p.store_misses for p in self.points)

    def circuits(self) -> tuple[str, ...]:
        seen = dict.fromkeys(p.circuit for p in self.points)
        return tuple(seen)

    def for_circuit(self, name: str) -> tuple[ExplorationPoint, ...]:
        return tuple(p for p in self.points if p.circuit == name)

    def best(self, key=None) -> ExplorationPoint:
        """Highest-scoring point (default: datapath power reduction)."""
        if not self.points:
            raise ValueError("empty exploration result")
        return max(self.points,
                   key=key or (lambda p: p.power_reduction_pct))

    def pareto(self, objectives: Sequence[str] = ("area", "power", "latency"),
               ) -> "ExplorationResult":
        """The non-dominated front of the sweep.

        A point survives unless some other point is at least as good on
        *every* named objective and strictly better on one.  Objectives
        (all minimized) come from :data:`PARETO_OBJECTIVES`.
        """
        try:
            metrics = [PARETO_OBJECTIVES[name] for name in objectives]
        except KeyError as error:
            raise KeyError(
                f"unknown Pareto objective {error.args[0]!r}; choose from "
                f"{sorted(PARETO_OBJECTIVES)}") from None
        if not metrics:
            raise ValueError("pareto() needs at least one objective")
        front = tuple(pareto_front(
            self.points, key=lambda p: [metric(p) for metric in metrics]))
        return ExplorationResult(points=front, resumed=0)

    def table(self) -> str:
        lines = [f"{'circuit':<10s} {'steps':>5s} {'config':<18s} "
                 f"{'muxes':>5s} {'saved%':>7s} {'area':>6s} {'cache':>7s}"]
        for p in self.points:
            lines.append(
                f"{p.circuit:<10s} {p.n_steps:>5d} {p.config_label:<18s} "
                f"{p.managed_muxes:>5d} {p.power_reduction_pct:>7.2f} "
                f"{p.area:>6d} {p.cache_hits:>3d}/{p.cache_hits + p.cache_misses:<3d}")
        lines.append(f"total stage-cache hits: {self.cache_hits} "
                     f"({self.cache_misses} computed)")
        if self.store_hits or self.store_misses:
            lines.append(f"disk-store hits: {self.store_hits} "
                         f"({self.store_misses} stored)")
        if self.resumed:
            lines.append(f"resumed from journal: {self.resumed} points")
        return "\n".join(lines)


def _as_spec(circuit: str | CDFG) -> tuple[str, object]:
    if isinstance(circuit, str):
        return ("name", circuit)
    if isinstance(circuit, CDFG):
        return ("graph", graph_to_dict(circuit))
    raise TypeError(
        f"circuit must be a registry name or CDFG, got {type(circuit)!r}")


def _load_spec(spec: tuple[str, object]) -> CDFG:
    kind, data = spec
    if kind == "name":
        from repro.circuits import build

        return build(data)
    return graph_from_dict(data)


def job_key(spec: tuple[str, object], config: FlowConfig,
            sim_vectors: int) -> str:
    """Stable content key identifying one job of a sweep.

    The key survives process restarts and grid reordering, which is what
    lets a resume journal skip exactly the work already done.  It covers
    the *full* config repr including ``label`` (which ``FlowConfig``
    equality ignores): two grid configs differing only by label must
    journal as distinct jobs so each point replays under its own label —
    the cost is that renaming a label invalidates that config's journal
    entries.
    """
    payload = json.dumps(
        {"spec": spec, "config": repr(config), "sim_vectors": sim_vectors},
        sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def _run_point(spec: tuple[str, object], config: FlowConfig,
               sim_vectors: int,
               store: IndexedArtifactStore | None) -> ExplorationPoint:
    cache = store if store is not None else _PROCESS_CACHE
    hits0 = cache.stats.hits
    misses0 = cache.stats.misses
    graph = _load_spec(spec)
    pipeline = Pipeline(cache=cache)
    ctx = pipeline.run_context(graph, config)
    result = ctx.result
    report = result.static_report()
    simulated = None
    chosen = None
    if sim_vectors > 0:
        from repro.power.simulated import compare_designs

        baseline = pipeline.run(graph, config.baseline())
        comparison = compare_designs(baseline.design, result.design,
                                     n_vectors=sim_vectors)
        simulated = comparison.reduction_pct
        chosen = comparison.managed.chosen_backend
    return ExplorationPoint(
        circuit=graph.name,
        n_steps=config.n_steps,
        config_label=config.label,
        scheduler=config.scheduler,
        managed_muxes=result.pm.managed_count,
        power_reduction_pct=report.reduction_pct,
        area=result.design.area().total,
        controller_literals=result.design.controller.literal_count,
        allocation=tuple(sorted(result.allocation.as_dict().items())),
        cache_hits=len(ctx.cache_hits),
        cache_misses=len(ctx.cache_misses),
        simulated_reduction_pct=simulated,
        store_hits=(cache.stats.hits - hits0) if store is not None else 0,
        store_misses=(cache.stats.misses - misses0)
        if store is not None else 0,
        chosen_backend=chosen,
    )


#: One plannable unit of a sweep: ``(index, job key, circuit spec,
#: config, sim_vectors)``.  ``index`` restores grid order in results.
ExploreJob = tuple[int, str, tuple[str, object], FlowConfig, int]


def run_chunk(job: tuple[IndexedArtifactStore | None, list[ExploreJob]],
              ) -> list[tuple[int, str, ExplorationPoint]]:
    """Worker task: one chunk of jobs against one (shared) store.

    Public because chunk-level submission is the unit the job server
    (:mod:`repro.serve`) multiplexes over its persistent worker pool.
    """
    store, chunk = job
    return [(index, key, _run_point(spec, config, sim_vectors, store))
            for index, key, spec, config, sim_vectors in chunk]


def plan_jobs(circuits: Iterable[str | CDFG],
              budgets: Iterable[int] | Mapping[str, Iterable[int]],
              configs: Sequence[FlowConfig] | None = None,
              sim_vectors: int = 0) -> list[ExploreJob]:
    """The full (circuit x budget x config) grid as submittable jobs.

    This is the planning half of :func:`explore`, exposed so callers
    that own their scheduling — the :mod:`repro.serve` job server — can
    plan once, diff against a resume journal, and submit chunks at
    their own pace with :func:`run_chunk`.
    """
    configs = tuple(configs) if configs else (FlowConfig(),)
    specs = [_as_spec(c) for c in circuits]
    if not specs:
        raise ValueError("explore() needs at least one circuit")
    jobs: list[ExploreJob] = []
    for spec in specs:
        if isinstance(budgets, Mapping):
            name = spec[1] if spec[0] == "name" else spec[1]["name"]
            circuit_budgets = budgets[name]
        else:
            circuit_budgets = budgets
        for steps in circuit_budgets:
            for config in configs:
                job_config = replace(config, n_steps=steps)
                jobs.append((len(jobs), job_key(spec, job_config,
                                                sim_vectors),
                             spec, job_config, sim_vectors))
    return jobs


# -- resume journal ------------------------------------------------------


def load_point_journal(path: Path) -> dict[str, ExplorationPoint]:
    """Completed points by job key; tolerates a torn trailing record."""
    completed: dict[str, ExplorationPoint] = {}
    for key, record in load_journal(path).items():
        try:
            completed[key] = ExplorationPoint.from_dict(record["point"])
        except (KeyError, TypeError, ValueError):
            continue
    return completed


def open_point_journal(path: Path, durability: str = "batch"):
    """Append handle for a sweep journal (meta line written when fresh).

    Group-commits by default; pass ``durability="record"`` to fsync
    every point (the serve crash-recovery contract)."""
    return open_journal(path, kind="explore-journal", durability=durability)


def journal_point(handle, key: str, point: ExplorationPoint) -> None:
    """Durably append one finished point under its job key."""
    append_record(handle, key, {"point": point.to_dict()})


# -- the sweep -----------------------------------------------------------


def _search_explore(
    specs: list[tuple[str, object]],
    budgets: Iterable[int] | Mapping[str, Iterable[int]],
    configs: tuple[FlowConfig, ...],
    search,
    sim_vectors: int,
    store: IndexedArtifactStore | None,
    resume: str | os.PathLike | None,
    workers: int = 1,
    durability: str = "batch",
) -> ExplorationResult:
    """``explore(search=...)``: one optimizer run + one point per circuit."""
    from repro.opt.search import SearchSpec, optimize

    spec_obj = SearchSpec(driver=search) if isinstance(search, str) \
        else search
    schedulers = tuple(dict.fromkeys(c.scheduler for c in configs))
    base = configs[0]
    points = []
    resumed = 0
    extra: dict[str, object] = {}
    if spec_obj.driver == "portfolio":
        # The island-model driver parallelizes *within* one circuit, so
        # explore's worker count flows through instead of being ignored.
        extra["workers"] = max(1, workers)
    for spec in specs:
        graph = _load_spec(spec)
        if isinstance(budgets, Mapping):
            circuit_budgets = budgets[graph.name]
        else:
            circuit_budgets = budgets
        outcome = optimize(
            graph, spec_obj, budgets=tuple(circuit_budgets),
            schedulers=schedulers, store=store, journal=resume,
            pm_base=base.pm, durability=durability,
            sim_vectors=sim_vectors if sim_vectors > 0 else 128, **extra)
        resumed += outcome.resumed
        config = outcome.flow_config(base)
        points.append(_run_point(spec, config, sim_vectors, store))
    return ExplorationResult(points=tuple(points), resumed=resumed)


def explore(
    circuits: Iterable[str | CDFG],
    budgets: Iterable[int] | Mapping[str, Iterable[int]],
    configs: Sequence[FlowConfig] | None = None,
    workers: int = 1,
    sim_vectors: int = 0,
    store: IndexedArtifactStore | str | os.PathLike | None = None,
    resume: str | os.PathLike | None = None,
    chunk_size: int | None = None,
    search=None,
    progress: Callable[[ExplorationPoint], None] | None = None,
    durability: str = "batch",
) -> ExplorationResult:
    """Synthesize every (circuit, budget, config) point of a sweep.

    ``budgets`` is either one list applied to every circuit or a mapping
    ``circuit name -> budgets`` (the paper's per-circuit Table II shape).
    ``configs`` defaults to a single paper-defaults :class:`FlowConfig`;
    each config's ``n_steps`` is overridden per budget.  ``workers > 1``
    distributes job chunks over that many worker processes
    (``chunk_size`` jobs per task; default balances ~4 chunks per
    worker; anything below 1 raises ``ValueError``).  ``sim_vectors > 0``
    additionally simulates every point (baseline vs managed, on the
    batch engine ``auto`` picks for ``sim_vectors``) and fills
    ``simulated_reduction_pct``.

    ``store`` (an :class:`IndexedArtifactStore` or a directory path)
    makes stage artifacts persistent and shared across workers and runs
    (a store opened here from a path is closed before returning);
    ``resume`` (a JSONL path) journals finished points and skips them on
    re-runs.  See the module docstring for the semantics of both.

    ``search`` (an :mod:`repro.opt` driver name or
    :class:`~repro.opt.search.SearchSpec`) switches from sweeping the
    grid to *searching* it: per circuit, the optimizer explores the
    joint (MUX ordering, budget, scheduler) space — budgets from
    ``budgets``, schedulers from ``configs``, other config fields from
    ``configs[0]`` — and the result holds the single optimizer-chosen
    point per circuit.  In search mode single-chain drivers run
    sequentially (``workers``/``chunk_size`` are ignored), while
    ``search="portfolio"`` parallelizes *within* each circuit across
    ``workers`` island processes; ``store=`` additionally backs
    candidate evaluation, ``resume=`` journals evaluations rather than
    finished points, and ``result.resumed`` counts evaluations replayed
    from that journal.

    ``durability`` sets the resume journal's fsync policy: ``"batch"``
    (default) group-commits; ``"record"`` fsyncs every record, as the
    serve crash-recovery path requires.

    ``progress`` (grid mode only) is called in the submitting process
    with every :class:`ExplorationPoint` as it becomes available —
    journal-resumed points first, then computed points in completion
    order — which is what lets a caller stream incremental results
    instead of waiting for the sweep to finish.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    if isinstance(store, (str, os.PathLike)):
        opened = IndexedArtifactStore(store)
        try:
            return explore(circuits, budgets, configs, workers, sim_vectors,
                           opened, resume, chunk_size, search, progress,
                           durability)
        finally:
            opened.close()
    if search is not None:
        configs = tuple(configs) if configs else (FlowConfig(),)
        specs = [_as_spec(c) for c in circuits]
        if not specs:
            raise ValueError("explore() needs at least one circuit")
        return _search_explore(specs, budgets, configs, search,
                               sim_vectors, store, resume,
                               workers=workers, durability=durability)

    jobs = plan_jobs(circuits, budgets, configs, sim_vectors)

    def announce(point: ExplorationPoint) -> None:
        if progress is not None:
            progress(point)

    points: dict[int, ExplorationPoint] = {}
    completed = load_point_journal(Path(resume)) if resume is not None else {}
    pending = []
    for index, key, spec, config, n_sim in jobs:
        if key in completed:
            points[index] = completed[key]
            announce(completed[key])
        else:
            pending.append((index, key, spec, config, n_sim))
    resumed = len(jobs) - len(pending)

    journal = open_point_journal(Path(resume), durability=durability) \
        if resume is not None else None
    try:
        if workers > 1 and len(pending) > 1:
            if chunk_size is None:
                chunk_size = max(1, -(-len(pending) // (workers * 4)))
            chunks = [pending[i:i + chunk_size]
                      for i in range(0, len(pending), chunk_size)]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(run_chunk, (store, chunk))
                           for chunk in chunks]
                for future in as_completed(futures):
                    for index, key, point in future.result():
                        points[index] = point
                        if journal is not None:
                            journal_point(journal, key, point)
                        announce(point)
        else:
            for index, key, spec, config, n_sim in pending:
                point = _run_point(spec, config, n_sim, store)
                points[index] = point
                if journal is not None:
                    journal_point(journal, key, point)
                announce(point)
    finally:
        if journal is not None:
            journal.close()

    return ExplorationResult(
        points=tuple(points[index] for index in sorted(points)),
        resumed=resumed)
