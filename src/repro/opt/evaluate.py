"""Candidate evaluation: the optimizer's in-the-loop objective function.

``Evaluator`` turns a :class:`~repro.opt.space.Candidate` into the
metric dict the :class:`~repro.opt.objective.Objective` scores, running
exactly as much of the flow as the objective's metrics require — the PM
pass alone for ``gated_weight``-style objectives, a full synthesis for
``area``, a baseline/managed pair plus engine simulation for
``sim_power``.

Evaluations are deterministic per candidate, which enables three layers
of reuse:

* an in-process **memo**, so a driver revisiting a candidate pays
  nothing, plus a design-pair memo for ``sim_power``: candidates whose
  (baseline, managed) designs are identical — different MUX orders
  often commit the same control edges — are simulated once;
* an optional persistent **store** (an
  :class:`~repro.pipeline.store.IndexedArtifactStore`, or a directory
  path the evaluator opens one on and closes again): evaluated metric
  dicts are kept as store entries, and the same store doubles as the
  pipeline's stage-artifact cache for the expensive levels, so a later
  run — or another driver on the same circuit — is served from disk;
* an optional JSONL **journal** (the PR-4 explore format): every fresh
  evaluation is appended as it completes, and a re-run with the same
  journal replays them, which is what makes interrupted searches
  resumable (see :mod:`repro.opt.search`).  The writer group-commits by
  default (``durability="batch"``); pass ``durability="record"`` to
  fsync every record, as the serve crash-recovery path does.

``max_evaluations`` bounds the number of *fresh* computations; crossing
the bound raises :class:`EvaluationBudgetExceeded`, leaving the journal
and store intact for the resuming run.

Two hooks exist for the island-model portfolio driver: ``preload``
seeds the memo with metrics computed elsewhere (cross-island memo
inheritance — hits count as memo hits, not replays), and ``session``
collects every record this evaluator *produced* (fresh computes and
store hits, not memo or preload hits), which is exactly what an island
must report back to the coordinator.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.core.pm_pass import PMOptions, PMResult, apply_power_management
from repro.ir.graph import CDFG
from repro.durable import load_journal, open_journal
from repro.opt.objective import (
    NEEDS_DESIGN,
    NEEDS_PAIR,
    NEEDS_PM,
    Objective,
    gated_weight,
)
from repro.opt.space import Candidate

#: Bump when evaluation semantics change incompatibly; part of every
#: store key and journal kind, so stale entries are never replayed.
OPT_FORMAT = 1

JOURNAL_KIND = "opt-journal"


class EvaluationBudgetExceeded(RuntimeError):
    """``max_evaluations`` fresh computations were already spent."""


@dataclass
class EvalStats:
    """Where this evaluator's answers came from."""

    computed: int = 0
    memo_hits: int = 0
    store_hits: int = 0
    #: Fresh evaluations whose ``sim_power`` came from the design-pair
    #: memo instead of a simulation (a subset of ``computed``).
    design_hits: int = 0
    #: Journal records loaded at construction (the resume inheritance).
    resumed: int = 0

    @property
    def reused(self) -> int:
        return self.memo_hits + self.store_hits


@dataclass
class Evaluator:
    """Deterministic, cache-aware candidate evaluation for one graph."""

    graph: CDFG
    objective: Objective
    store: "object | None" = None
    journal: "str | os.PathLike | None" = None
    sim_vectors: int = 128
    sim_seed: int = 1996
    width: int = 8
    pm_base: PMOptions | None = None
    max_evaluations: int | None = None
    durability: str = "batch"
    preload: "Mapping[str, Mapping[str, float]] | None" = None
    stats: EvalStats = field(default_factory=EvalStats)

    def __post_init__(self) -> None:
        self._owned_store = None
        if isinstance(self.store, (str, os.PathLike)):
            from repro.pipeline.store import IndexedArtifactStore

            self.store = self._owned_store = IndexedArtifactStore(self.store)
        self.objective = Objective.parse(self.objective)
        # None means paper defaults (Candidate.pm_options agrees), so
        # normalize before it enters signatures: otherwise None and
        # PMOptions() would journal/store under different keys.
        if self.pm_base is None:
            self.pm_base = PMOptions()
        self._memo: dict[str, dict[str, float]] = {}
        #: ``sim_power`` per (baseline, managed) ``design_fingerprint``
        #: pair; exact because the vector set is fixed per evaluator.
        self._pair_memo: dict[tuple[str, str], float] = {}
        #: Records produced here this session (computed + store hits).
        self.session: dict[str, dict[str, float]] = {}
        self._pipeline = None
        self._journal_handle = None
        if self.preload is not None:
            for key, metrics in self.preload.items():
                self._memo[str(key)] = {
                    str(k): float(v) for k, v in metrics.items()}
        if self.journal is not None:
            path = Path(self.journal)
            for record in load_journal(path).values():
                metrics = record.get("metrics")
                if (record.get("sig") == self._signature()
                        and isinstance(metrics, dict)):
                    self._memo[str(record["key"])] = {
                        str(k): float(v) for k, v in metrics.items()}
                    self.stats.resumed += 1
            self._journal_handle = open_journal(path, JOURNAL_KIND,
                                                durability=self.durability)

    def close(self) -> None:
        if self._journal_handle is not None:
            self._journal_handle.close()
            self._journal_handle = None
        if self._owned_store is not None:
            self._owned_store.close()

    def __enter__(self) -> "Evaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- keys ------------------------------------------------------------

    def fingerprint(self) -> str:
        from repro.pipeline.cache import graph_fingerprint

        return graph_fingerprint(self.graph)

    def _signature(self) -> str:
        """Everything besides the candidate that shapes the metrics."""
        sim = (f":v{self.sim_vectors}:s{self.sim_seed}"
               if self.objective.requires >= NEEDS_PAIR else "")
        return (f"L{self.objective.requires}:w{self.width}"
                f":pm={self.pm_base!r}{sim}")

    def record_key(self, candidate: Candidate) -> str:
        """Journal/store identity of one evaluation (graph included, so
        journals may be shared across circuits)."""
        return f"{self.fingerprint()[:16]}:{candidate.key()}"

    # -- evaluation ------------------------------------------------------

    def evaluate(self, candidate: Candidate) -> tuple[float, dict[str, float]]:
        """Score ``candidate``; returns ``(score, metrics)``."""
        key = self.record_key(candidate)
        metrics = self._memo.get(key)
        if metrics is not None:
            self.stats.memo_hits += 1
            return self.objective.score(metrics), metrics
        if self.store is not None:
            entry = self.store.lookup(
                ("opt-eval", OPT_FORMAT, self._signature(), key))
            if entry is not None:
                metrics = entry["metrics"]
                self.stats.store_hits += 1
                self._remember(key, metrics)
                return self.objective.score(metrics), metrics
        if (self.max_evaluations is not None
                and self.stats.computed >= self.max_evaluations):
            raise EvaluationBudgetExceeded(
                f"evaluation budget of {self.max_evaluations} spent")
        metrics = self._compute(candidate)
        self.stats.computed += 1
        if self.store is not None:
            self.store.store(("opt-eval", OPT_FORMAT, self._signature(), key),
                             {"metrics": metrics})
        self._remember(key, metrics)
        return self.objective.score(metrics), metrics

    def memo_snapshot(self) -> dict[str, dict[str, float]]:
        """Copy of the memo, shippable to workers as a ``preload``."""
        return {key: dict(metrics) for key, metrics in self._memo.items()}

    def absorb(self, key: str, metrics: Mapping[str, float]) -> bool:
        """Adopt an evaluation computed elsewhere (an island's report):
        memoized and journaled unless already known.  True when new."""
        if key in self._memo:
            return False
        self._remember(key, {str(k): float(v) for k, v in metrics.items()})
        return True

    def _remember(self, key: str, metrics: dict[str, float]) -> None:
        self._memo[key] = metrics
        self.session[key] = metrics
        if self._journal_handle is not None:
            self._journal_handle.append(
                key, {"sig": self._signature(), "metrics": metrics})

    def _compute(self, candidate: Candidate) -> dict[str, float]:
        level = self.objective.requires
        if level == NEEDS_PM:
            pm = apply_power_management(self.graph, candidate.n_steps,
                                        candidate.pm_options(self.pm_base))
            return self._pm_metrics(pm)

        from repro.pipeline.cache import ArtifactCache
        from repro.pipeline.config import FlowConfig
        from repro.pipeline.engine import Pipeline

        if self._pipeline is None:
            # The store doubles as the stage-artifact cache, so synthesis
            # work is shared across candidates, drivers, and runs.
            self._pipeline = Pipeline(
                cache=self.store if self.store is not None
                else ArtifactCache())
        config = FlowConfig(n_steps=candidate.n_steps,
                            pm=candidate.pm_options(self.pm_base),
                            scheduler=candidate.scheduler,
                            width=self.width, label="opt")
        result = self._pipeline.run(self.graph, config)
        metrics = self._pm_metrics(result.pm)
        metrics["area"] = float(result.design.area().total)
        metrics["controller_literals"] = \
            float(result.design.controller.literal_count)
        metrics["pipelined_gated_weight"] = float(
            result.pipelined_gating.pipelined_gated_weight
            if result.pipelined_gating is not None
            else metrics["gated_weight"])
        if level >= NEEDS_PAIR:
            metrics["sim_power"] = self._sim_power(
                self._pipeline.run(self.graph, config.baseline()).design,
                result.design)
        return metrics

    def _sim_power(self, baseline, managed) -> float:
        from repro.power.simulated import compare_designs
        from repro.sim.engine import design_fingerprint

        pair = (design_fingerprint(baseline), design_fingerprint(managed))
        reduction = self._pair_memo.get(pair)
        if reduction is not None:
            self.stats.design_hits += 1
            return reduction
        comparison = compare_designs(
            baseline, managed, n_vectors=self.sim_vectors,
            seed=self.sim_seed)
        reduction = self._pair_memo[pair] = float(comparison.reduction_pct)
        return reduction

    def _pm_metrics(self, pm: PMResult) -> dict[str, float]:
        from repro.power.static import static_power

        return {
            "gated_weight": gated_weight(pm),
            "managed_muxes": float(pm.managed_count),
            "static_power": static_power(pm).reduction_pct,
        }
