"""Stochastic PM-aware optimizer subsystem (paper §IV-A, generalized).

The layers:

* :mod:`repro.opt.objective` — the shared metric registry, weighted
  scalarization (:class:`Objective`) and Pareto helpers used by the
  reordering search, ``explore().pareto()`` and the drivers alike;
* :mod:`repro.opt.space` — the joint (MUX ordering, budget, scheduler)
  search space with seeded sampling and annealing moves;
* :mod:`repro.opt.search` — the drivers :func:`anneal`,
  :func:`beam_search`, :func:`random_search` on one chain loop
  (:class:`~repro.opt.search.Chain`), and :func:`optimize`, which
  dispatches all four by name; resumable through the explore-style JSONL journal and
  cache-aware through :class:`~repro.pipeline.IndexedArtifactStore`;
* :mod:`repro.opt.archive` — the NSGA-II Pareto layer
  (:class:`ParetoArchive`, :func:`nondominated_sort`,
  :func:`crowding_distances`) every driver maintains alongside its
  scalarized best;
* :mod:`repro.opt.portfolio` — the island-model parallel ``portfolio``
  driver: heterogeneous chains in worker processes with elite
  migration at deterministic round barriers.

Quick start::

    from repro.circuits import build
    from repro.opt import optimize

    result = optimize(build("gcd"), "anneal", n_steps=7, iters=200)
    print(result.table())
    design = ...  # Pipeline().run(build("gcd"), result.flow_config())

The search/evaluate layers import the synthesis pipeline, which in turn
(via ``core.reordering``) imports :mod:`repro.opt.objective` — so only
the objective/space layers load eagerly here and everything above them
resolves lazily on first attribute access.
"""

from __future__ import annotations

from repro.opt.objective import (
    METRICS,
    Metric,
    Objective,
    dominates,
    gated_weight,
    pareto_front,
    pm_score,
)
from repro.opt.space import Candidate, SearchSpace

_SEARCH_NAMES = ("DRIVERS", "OptResult", "SearchSpec", "anneal",
                 "beam_search", "optimize", "random_search")
_EVALUATE_NAMES = ("EvaluationBudgetExceeded", "Evaluator", "EvalStats",
                   "OPT_FORMAT")
_ARCHIVE_NAMES = ("ArchiveEntry", "ParetoArchive", "crowding_distances",
                  "nondominated_sort", "nsga_select")
_PORTFOLIO_NAMES = ("ISLAND_PROFILES", "run_island_round")

__all__ = [
    "Candidate",
    "METRICS",
    "Metric",
    "Objective",
    "SearchSpace",
    "dominates",
    "gated_weight",
    "pareto_front",
    "pm_score",
    *_ARCHIVE_NAMES,
    *_EVALUATE_NAMES,
    *_PORTFOLIO_NAMES,
    *_SEARCH_NAMES,
]


def __getattr__(name: str):
    if name in _SEARCH_NAMES:
        from repro.opt import search

        return getattr(search, name)
    if name in _EVALUATE_NAMES:
        from repro.opt import evaluate

        return getattr(evaluate, name)
    if name in _ARCHIVE_NAMES:
        from repro.opt import archive

        return getattr(archive, name)
    if name in _PORTFOLIO_NAMES:
        # import_module, not a from-import: ``repro.opt.portfolio`` is
        # a module whose main export shares its name, and the
        # from-import form would re-enter this __getattr__.
        import importlib

        return getattr(importlib.import_module("repro.opt.portfolio"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
