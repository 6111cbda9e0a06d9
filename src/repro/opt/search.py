"""Stochastic search drivers over the joint PM design space.

Four drivers move through the (MUX ordering, control-step budget,
scheduler) space of :mod:`repro.opt.space`, scoring candidates with a
shared cache-aware :class:`~repro.opt.evaluate.Evaluator`:

* :func:`anneal` — seeded simulated annealing with a restart schedule:
  restart 0 starts from the best built-in greedy ordering, later
  restarts from random candidates, each cooling geometrically;
* :func:`beam_search` — deterministic beam search over ordering
  *prefixes*: partial orders are scored by completing them with the
  remaining MUXes in savings order, and the ``beam_width`` best
  prefixes survive each depth;
* :func:`random_search` — the uniform-sampling baseline the other two
  are judged against;
* ``portfolio`` (:mod:`repro.opt.portfolio`) — the island-model
  parallel driver: heterogeneous chains in worker processes with
  periodic elite migration through the shared journal/store.

Every driver first evaluates the built-in greedy strategies
(``output_first`` / ``input_first`` / ``savings``) at every (budget,
scheduler), so its result is **never worse than the best greedy
ordering** by construction.  Drivers are deterministic per (arguments,
seed): re-running one replays the identical trajectory, which is what
makes the journal-based resume exact — an interrupted run re-launched
with the same journal serves the already-computed evaluations from disk
and continues live from the interruption point, producing the same
:meth:`OptResult.outcome` as an uninterrupted run.

Alongside the scalarized best, every driver maintains a
:class:`~repro.opt.archive.ParetoArchive` over the objective's metric
terms and attaches it to :attr:`OptResult.archive` — multi-term
objectives get the whole nondominated trade-off curve, not just the
weighted winner.  ``time_budget=`` (seconds of wall clock) makes any
driver *anytime*: it stops cleanly at the deadline with the best front
found so far, and a longer budget never returns a dominated front.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

from repro.ir.graph import CDFG
from repro.opt.archive import ParetoArchive
from repro.opt.evaluate import Evaluator
from repro.opt.objective import Objective
from repro.opt.space import Candidate, SearchSpace


@dataclass(frozen=True)
class SearchSpec:
    """A portable description of one driver invocation (CLI / explore)."""

    driver: str = "anneal"
    objective: str = "gated_weight"
    iters: int = 150
    seed: int = 0
    restarts: int = 2
    beam_width: int = 4
    workers: int = 4                    #: portfolio only
    time_budget: "float | None" = None  #: anytime wall-clock cap, seconds


@dataclass(frozen=True)
class OptResult:
    """What one driver run found, plus where the answers came from.

    ``best_label`` names the winning candidate's origin: a greedy seed
    label (``output_first@7/list``-style) when no search move beat the
    seeds, ``"search"`` (or ``"island<k>"``) otherwise.  ``evaluations``
    / ``reused`` (split as ``memo_hits`` + ``store_hits``) / ``resumed``
    and ``design_hits`` (evaluations whose ``sim_power`` reused the
    simulation of an identical design pair) are run diagnostics and
    intentionally *not* part of :meth:`outcome` — a resumed run
    recomputes less but must find the same answer.
    ``archive`` is the run's Pareto front over the objective terms.
    """

    circuit: str
    driver: str
    objective: str
    seed: int
    best: Candidate
    best_score: float
    best_metrics: tuple[tuple[str, float], ...]
    best_label: str
    greedy_scores: tuple[tuple[str, float], ...]
    #: Best-score improvements as (driver step, score), step 0 = seeds.
    history: tuple[tuple[int, float], ...]
    evaluations: int
    reused: int
    resumed: int
    memo_hits: int = 0
    store_hits: int = 0
    design_hits: int = 0
    archive: "ParetoArchive | None" = field(
        default=None, compare=False, repr=False)

    @property
    def metrics(self) -> dict[str, float]:
        return dict(self.best_metrics)

    @property
    def journal_replays(self) -> int:
        """Alias for ``resumed`` under its observable name."""
        return self.resumed

    @property
    def best_greedy_score(self) -> float:
        return max(score for _, score in self.greedy_scores)

    @property
    def improvement_over_greedy(self) -> float:
        """How far past the best built-in strategy the search got (>= 0)."""
        return self.best_score - self.best_greedy_score

    def outcome(self) -> dict[str, object]:
        """The resume-invariant search outcome (JSON-compatible).

        Identical for an uninterrupted run and any interrupt/resume
        split of it; this is what the golden regression pins.
        """
        outcome = {
            "circuit": self.circuit,
            "driver": self.driver,
            "objective": self.objective,
            "seed": self.seed,
            "order": list(self.best.order),
            "n_steps": self.best.n_steps,
            "scheduler": self.best.scheduler,
            "score": self.best_score,
            "metrics": dict(self.best_metrics),
            "best_label": self.best_label,
            "greedy_scores": dict(self.greedy_scores),
            "history": [list(step) for step in self.history],
        }
        if self.archive is not None:
            # The front is trajectory-determined, so resume-invariant;
            # the archive's reuse counters are not and stay out.
            outcome["pareto"] = [entry.to_dict()
                                 for entry in self.archive.front()]
        return outcome

    def flow_config(self, base=None):
        """A :class:`~repro.pipeline.FlowConfig` that synthesizes the
        chosen design (ordering pinned via PM strategy ``given``)."""
        from repro.pipeline.config import FlowConfig

        base = base if base is not None else FlowConfig()
        return replace(
            base, n_steps=self.best.n_steps, scheduler=self.best.scheduler,
            pm=self.best.pm_options(base.pm),
            label=f"{self.driver}[{self.objective}]")

    def table(self) -> str:
        lines = [f"{self.driver} on {self.circuit!r} "
                 f"(objective {self.objective}, seed {self.seed})"]
        for label, score in sorted(self.greedy_scores,
                                   key=lambda pair: -pair[1]):
            lines.append(f"  greedy {label:<28s} {score:10.4f}")
        lines.append(f"  best   {self.best_label:<28s} "
                     f"{self.best_score:10.4f}  "
                     f"(+{self.improvement_over_greedy:.4f} over greedy)")
        lines.append(
            f"  order {'>'.join(str(m) for m in self.best.order) or '-'} "
            f"@ {self.best.n_steps} steps / {self.best.scheduler}")
        lines.append(f"  {self.evaluations} evaluated, {self.reused} reused "
                     f"({self.memo_hits} memo, {self.store_hits} store)"
                     + (f", {self.design_hits} design-pair simulations "
                        f"reused" if self.design_hits else "")
                     + (f", {self.journal_replays} resumed from journal"
                        if self.journal_replays else ""))
        if self.archive is not None and len(self.archive) > 1:
            lines.append(f"  pareto front: {len(self.archive)} points over "
                         f"{self.objective}")
        return "\n".join(lines)


class _Run:
    """Shared driver plumbing: space, evaluator, greedy seeds, best."""

    def __init__(self, graph: CDFG, objective, n_steps, budgets, schedulers,
                 store, journal, max_evaluations, sim_vectors, pm_base,
                 progress=None, time_budget=None, durability="batch",
                 archive_size=None):
        self.graph = graph
        self.progress = progress
        self.objective = Objective.parse(objective)
        self.space = SearchSpace.for_graph(
            graph, budgets=budgets, n_steps=n_steps, schedulers=schedulers)
        self.evaluator = Evaluator(
            graph=graph, objective=self.objective, store=store,
            journal=journal, max_evaluations=max_evaluations,
            sim_vectors=sim_vectors, pm_base=pm_base, durability=durability)
        self.archive = ParetoArchive(self.objective, max_size=archive_size)
        self.deadline = (None if time_budget is None
                         else time.monotonic() + float(time_budget))
        self.best: Candidate | None = None
        self.best_score = -math.inf
        self.best_metrics: Mapping[str, float] = {}
        self.best_label = ""
        self.history: list[tuple[int, float]] = []
        self.greedy_scores: list[tuple[str, float]] = []

    def out_of_time(self) -> bool:
        """The anytime wall-clock budget is spent (always False without
        one)."""
        return self.deadline is not None and time.monotonic() >= self.deadline

    # Context manager so a driver that dies mid-search (e.g. on
    # EvaluationBudgetExceeded) still closes the journal handle.
    def __enter__(self) -> "_Run":
        return self

    def __exit__(self, *exc) -> None:
        self.evaluator.close()

    def seed_greedy(self) -> None:
        for label, candidate in self.space.greedy_candidates(self.graph):
            score, metrics = self.evaluator.evaluate(candidate)
            self.greedy_scores.append((label, score))
            self.offer(candidate, score, metrics, step=0, label=label)

    def offer(self, candidate: Candidate, score: float,
              metrics: Mapping[str, float], step: int,
              label: str = "search") -> bool:
        """Track one evaluated candidate; True when the Pareto front
        changed."""
        changed = self.archive.offer(candidate, metrics, label=label)
        if score > self.best_score:
            self.best, self.best_score = candidate, score
            self.best_metrics, self.best_label = metrics, label
            self.history.append((step, score))
            if self.progress is not None:
                self.progress(step, score, candidate)
        return changed

    def result(self, driver: str, seed: int) -> OptResult:
        self.evaluator.close()
        assert self.best is not None
        stats = self.evaluator.stats
        self.archive.evaluations = stats.computed
        self.archive.memo_hits = stats.memo_hits
        self.archive.store_hits = stats.store_hits
        self.archive.journal_replays = stats.resumed
        return OptResult(
            circuit=self.graph.name, driver=driver,
            objective=self.objective.signature(), seed=seed,
            best=self.best, best_score=self.best_score,
            best_metrics=tuple(sorted(self.best_metrics.items())),
            best_label=self.best_label,
            greedy_scores=tuple(self.greedy_scores),
            history=tuple(self.history),
            evaluations=stats.computed, reused=stats.reused,
            resumed=stats.resumed, memo_hits=stats.memo_hits,
            store_hits=stats.store_hits, design_hits=stats.design_hits,
            archive=self.archive)


def random_search(graph: CDFG, objective="gated_weight", *,
                  n_steps: int | None = None, budgets=None,
                  schedulers=("list",), iters: int = 100, seed: int = 0,
                  store=None, journal=None, max_evaluations=None,
                  sim_vectors: int = 128, pm_base=None,
                  time_budget=None, durability="batch",
                  progress=None) -> OptResult:
    """Uniform random sampling of the space — the honesty baseline."""
    with _Run(graph, objective, n_steps, budgets, schedulers,
              store, journal, max_evaluations, sim_vectors, pm_base,
              progress=progress, time_budget=time_budget,
              durability=durability) as run:
        rng = random.Random(seed)
        run.seed_greedy()
        for step in range(1, iters + 1):
            if run.out_of_time():
                break
            candidate = run.space.random_candidate(rng)
            score, metrics = run.evaluator.evaluate(candidate)
            run.offer(candidate, score, metrics, step)
        return run.result("random", seed)


def anneal(graph: CDFG, objective="gated_weight", *,
           n_steps: int | None = None, budgets=None, schedulers=("list",),
           iters: int = 150, seed: int = 0, restarts: int = 2,
           store=None, journal=None, max_evaluations=None,
           sim_vectors: int = 128, pm_base=None,
           time_budget=None, durability="batch",
           progress=None) -> OptResult:
    """Seeded simulated annealing with a restart schedule.

    ``iters`` total neighborhood moves are split evenly across
    ``restarts`` chains.  Chain 0 starts from the best greedy seed;
    later chains from random candidates, re-diversifying the search.
    Each chain cools geometrically from a temperature scaled to the
    seed score down to 1% of it.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    with _Run(graph, objective, n_steps, budgets, schedulers,
              store, journal, max_evaluations, sim_vectors, pm_base,
              progress=progress, time_budget=time_budget,
              durability=durability) as run:
        rng = random.Random(seed)
        run.seed_greedy()
        step = 0
        for restart in range(restarts):
            if run.out_of_time():
                break
            chain_iters = iters // restarts + (1 if restart < iters % restarts
                                               else 0)
            if chain_iters == 0:
                continue
            if restart == 0:
                current, cur_score = run.best, run.best_score
            else:
                current = run.space.random_candidate(rng)
                cur_score, metrics = run.evaluator.evaluate(current)
                step += 1
                run.offer(current, cur_score, metrics, step)
            t_hot = max(1.0, 0.3 * abs(run.best_score))
            cooling = (0.01) ** (1.0 / max(1, chain_iters - 1))
            temperature = t_hot
            for _ in range(chain_iters):
                if run.out_of_time():
                    break
                candidate = run.space.neighbor(current, rng)
                score, metrics = run.evaluator.evaluate(candidate)
                step += 1
                run.offer(candidate, score, metrics, step)
                delta = score - cur_score
                if delta >= 0 or rng.random() < math.exp(delta / temperature):
                    current, cur_score = candidate, score
                temperature *= cooling
        return run.result("anneal", seed)


def beam_search(graph: CDFG, objective="gated_weight", *,
                n_steps: int | None = None, budgets=None,
                schedulers=("list",), beam_width: int = 4, seed: int = 0,
                store=None, journal=None, max_evaluations=None,
                sim_vectors: int = 128, pm_base=None,
                time_budget=None, durability="batch",
                progress=None) -> OptResult:
    """Deterministic beam search over MUX-ordering prefixes.

    A prefix is scored by evaluating the full candidate it induces —
    the prefix followed by the remaining MUXes in savings order — so
    partial decisions are judged by a real synthesis outcome, not a
    proxy.  ``seed`` only labels the result (the driver is
    deterministic); the beam runs once per (budget, scheduler).
    """
    if beam_width < 1:
        raise ValueError(f"beam_width must be >= 1, got {beam_width}")
    from repro.core.ordering import order_muxes

    with _Run(graph, objective, n_steps, budgets, schedulers,
              store, journal, max_evaluations, sim_vectors, pm_base,
              progress=progress, time_budget=time_budget,
              durability=durability) as run:
        run.seed_greedy()
        completion = tuple(order_muxes(graph, "savings"))
        step = 0
        for steps_budget in run.space.budgets:
            for scheduler in run.space.schedulers:
                beam: list[tuple[int, ...]] = [()]
                for _depth in range(len(run.space.mux_ids)):
                    if run.out_of_time():
                        break
                    extensions: list[tuple[float, tuple[int, ...]]] = []
                    for prefix in beam:
                        chosen = set(prefix)
                        for mux in run.space.mux_ids:
                            if mux in chosen:
                                continue
                            new_prefix = prefix + (mux,)
                            head = set(new_prefix)
                            order = new_prefix + tuple(
                                m for m in completion if m not in head)
                            candidate = Candidate(order=order,
                                                  n_steps=steps_budget,
                                                  scheduler=scheduler)
                            score, metrics = \
                                run.evaluator.evaluate(candidate)
                            step += 1
                            run.offer(candidate, score, metrics, step)
                            extensions.append((score, new_prefix))
                    extensions.sort(key=lambda pair: (-pair[0], pair[1]))
                    beam = [prefix for _, prefix in extensions[:beam_width]]
        return run.result("beam", seed)


def _portfolio(graph: CDFG, **kwargs) -> OptResult:
    # Imported lazily: repro.opt.portfolio builds on this module.
    from repro.opt.portfolio import portfolio

    return portfolio(graph, **kwargs)


DRIVERS: dict[str, Callable[..., OptResult]] = {
    "anneal": anneal,
    "beam": beam_search,
    "random": random_search,
    "portfolio": _portfolio,
}

#: Keyword arguments every driver accepts.
COMMON_KNOBS = ("objective", "n_steps", "budgets", "schedulers", "seed",
                "store", "journal", "max_evaluations", "sim_vectors",
                "pm_base", "time_budget", "durability", "progress")

#: Per-driver tuning knobs on top of :data:`COMMON_KNOBS`.  A
#: :class:`SearchSpec` knob outside the chosen driver's set is dropped
#: (one spec fits every driver); any *other* unknown kwarg is an error.
DRIVER_KNOBS = {
    "anneal": ("iters", "restarts"),
    "beam": ("beam_width",),
    "random": ("iters",),
    "portfolio": ("iters", "workers", "islands", "migration_every",
                  "archive_size", "front_progress"),
}

_SPEC_KNOBS = ("iters", "restarts", "beam_width", "workers")


def optimize(graph: CDFG, search: "SearchSpec | str" = SearchSpec(),
             **kwargs) -> OptResult:
    """Run one driver described by ``search`` (a :class:`SearchSpec` or
    a driver name); extra keyword arguments go to the driver."""
    spec = SearchSpec(driver=search) if isinstance(search, str) else search
    if spec.driver not in DRIVERS:
        raise ValueError(f"unknown search driver {spec.driver!r}; choose "
                         f"from {sorted(DRIVERS)}")
    wanted = DRIVER_KNOBS[spec.driver]
    unknown = sorted(set(kwargs)
                     - set(COMMON_KNOBS) - set(wanted) - set(_SPEC_KNOBS))
    if unknown:
        raise ValueError(
            f"unknown option(s) {', '.join(repr(k) for k in unknown)} for "
            f"driver {spec.driver!r}; valid options: "
            f"{', '.join(sorted(set(COMMON_KNOBS) | set(wanted)))}")
    kwargs.setdefault("objective", spec.objective)
    kwargs.setdefault("seed", spec.seed)
    if spec.time_budget is not None:
        kwargs.setdefault("time_budget", spec.time_budget)
    # Each driver takes only its own tuning knobs; the spec's others are
    # dropped here so one SearchSpec (or kwargs pile) fits every driver.
    spec_defaults = {"iters": spec.iters, "restarts": spec.restarts,
                     "beam_width": spec.beam_width, "workers": spec.workers}
    for knob in _SPEC_KNOBS:
        if knob in wanted:
            kwargs.setdefault(knob, spec_defaults[knob])
        else:
            kwargs.pop(knob, None)
    return DRIVERS[spec.driver](graph, **kwargs)
