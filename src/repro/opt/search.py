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

``anneal``, ``random_search`` and every portfolio island walk the one
chain loop, :meth:`Chain.walk`.  Every driver has the signature
``(graph, objective="gated_weight", *, <its own knobs>, **options)``: the
shared run arguments (``n_steps``/``budgets``, ``schedulers``,
``seed``, ``store``, ``journal``, ``durability``, ``max_evaluations``,
``time_budget``, ``sim_vectors``, ``pm_base``, ``progress``) are
declared once, on :class:`_Run`, and :func:`optimize` reads each
driver's valid options from those signatures.

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
found so far, and a longer budget never returns a dominated front.  A
spent ``max_evaluations`` raises
:class:`~repro.opt.evaluate.EvaluationBudgetExceeded` here; the
portfolio returns instead.
"""

from __future__ import annotations

import inspect
import math
import random
import time
from dataclasses import dataclass, field, fields, replace
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
    / ``reused`` (split as ``memo_hits`` + ``store_hits``) / ``resumed``,
    ``design_hits`` (evaluations whose ``sim_power`` reused the
    simulation of an identical design pair) and ``outcome_hits``
    (design-level evaluations answered from an earlier one with the same
    PM result) are run diagnostics and
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
    outcome_hits: int = 0
    archive: "ParetoArchive | None" = field(
        default=None, compare=False, repr=False)

    @property
    def metrics(self) -> dict[str, float]:
        return dict(self.best_metrics)

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
                     + (f", {self.outcome_hits} PM outcomes reused"
                        if self.outcome_hits else "")
                     + (f", {self.resumed} resumed from journal"
                        if self.resumed else ""))
        if self.archive is not None and len(self.archive) > 1:
            lines.append(f"  pareto front: {len(self.archive)} points over "
                         f"{self.objective}")
        return "\n".join(lines)


class Chain:
    """One search chain's position: a candidate and its score.

    Mutable, so an exception raised mid-:meth:`walk` (an
    :class:`~repro.opt.evaluate.EvaluationBudgetExceeded` from
    ``evaluate``) leaves the last accepted candidate in place; picklable,
    so the portfolio ships it to island workers between rounds.
    ``current`` is ``None`` before the chain has been placed.
    """

    def __init__(self, current: "Candidate | None" = None,
                 score: float = -math.inf) -> None:
        self.current = current
        self.score = score

    def walk(self, space: SearchSpace, rng: random.Random,
             evaluate: Callable[[Candidate], float], moves: int, *,
             temperature: "float | None" = None, final: float = 0.01,
             stop: "Callable[[], bool] | None" = None) -> None:
        """Make up to ``moves`` moves, scoring each with ``evaluate``.

        Without ``temperature`` every move is a uniform random draw and
        the chain keeps the best one seen.  With it, every move is a
        neighbor of the current position, accepted by the Metropolis
        rule at a temperature cooling geometrically from ``temperature``
        to ``final`` times it over the walk.  ``stop`` is checked before
        each move and ends the walk when it returns True.
        """
        # One loop for both modes, so every chain stops, and keeps its
        # position on a budget error, the same way.
        cooling = final ** (1.0 / max(1, moves - 1))
        for _ in range(moves):
            if stop is not None and stop():
                return
            if temperature is None:
                candidate = space.random_candidate(rng)
                score = evaluate(candidate)
                if score > self.score:
                    self.current, self.score = candidate, score
                continue
            candidate = space.neighbor(self.current, rng)
            score = evaluate(candidate)
            delta = score - self.score
            if delta >= 0 or rng.random() < math.exp(delta / temperature):
                self.current, self.score = candidate, score
            temperature *= cooling


class _Run:
    """Shared driver plumbing: space, evaluator, greedy seeds, best.

    Its keyword-only arguments are the run arguments every driver
    forwards as ``**options`` (see the module docstring).
    """

    def __init__(self, graph: CDFG, objective="gated_weight", *,
                 n_steps: "int | None" = None, budgets=None,
                 schedulers=("list",), seed: int = 0, store=None,
                 journal=None, max_evaluations: "int | None" = None,
                 sim_vectors: int = 128, pm_base=None,
                 time_budget: "float | None" = None,
                 durability: str = "batch", progress=None):
        self.graph = graph
        self.seed = seed
        self.progress = progress
        self.objective = Objective.parse(objective)
        self.space = SearchSpace.for_graph(
            graph, budgets=budgets, n_steps=n_steps, schedulers=schedulers)
        self.evaluator = Evaluator(
            graph=graph, objective=self.objective, store=store,
            journal=journal, max_evaluations=max_evaluations,
            sim_vectors=sim_vectors, pm_base=pm_base, durability=durability)
        self.archive = ParetoArchive(self.objective)
        self.deadline = (None if time_budget is None
                         else time.monotonic() + float(time_budget))
        self.best: Candidate | None = None
        self.best_score = -math.inf
        self.best_metrics: Mapping[str, float] = {}
        self.best_label = ""
        self.history: list[tuple[int, float]] = []
        self.greedy_scores: list[tuple[str, float]] = []
        self.steps = 0

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

    def step(self, candidate: Candidate) -> float:
        """Evaluate one search move, count it and offer it; its score."""
        score, metrics = self.evaluator.evaluate(candidate)
        self.steps += 1
        self.offer(candidate, score, metrics, self.steps)
        return score

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

    def result(self, driver: str) -> OptResult:
        self.evaluator.close()
        assert self.best is not None
        stats = self.evaluator.stats
        return OptResult(
            circuit=self.graph.name, driver=driver,
            objective=self.objective.signature(), seed=self.seed,
            best=self.best, best_score=self.best_score,
            best_metrics=tuple(sorted(self.best_metrics.items())),
            best_label=self.best_label,
            greedy_scores=tuple(self.greedy_scores),
            history=tuple(self.history),
            evaluations=stats.computed, reused=stats.reused,
            resumed=stats.resumed, memo_hits=stats.memo_hits,
            store_hits=stats.store_hits, design_hits=stats.design_hits,
            outcome_hits=stats.outcome_hits,
            archive=self.archive)


def random_search(graph: CDFG, objective="gated_weight", *,
                  iters: int = 100, **options) -> OptResult:
    """Uniform random sampling of the space — the honesty baseline."""
    with _Run(graph, objective, **options) as run:
        run.seed_greedy()
        Chain().walk(run.space, random.Random(run.seed), run.step, iters,
                     stop=run.out_of_time)
        return run.result("random")


def anneal(graph: CDFG, objective="gated_weight", *, iters: int = 150,
           restarts: int = 2, **options) -> OptResult:
    """Seeded simulated annealing with a restart schedule.

    ``iters`` total neighborhood moves are split evenly across
    ``restarts`` chains.  Chain 0 starts from the best greedy seed;
    later chains from random candidates, re-diversifying the search.
    Each chain cools geometrically from a temperature scaled to the
    seed score down to 1% of it.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    with _Run(graph, objective, **options) as run:
        rng = random.Random(run.seed)
        run.seed_greedy()
        for restart in range(restarts):
            if run.out_of_time():
                break
            chain_iters = iters // restarts + (1 if restart < iters % restarts
                                               else 0)
            if chain_iters == 0:
                continue
            if restart == 0:
                chain = Chain(run.best, run.best_score)
            else:
                start = run.space.random_candidate(rng)
                chain = Chain(start, run.step(start))
            chain.walk(run.space, rng, run.step, chain_iters,
                       temperature=max(1.0, 0.3 * abs(run.best_score)),
                       final=0.01, stop=run.out_of_time)
        return run.result("anneal")


def beam_search(graph: CDFG, objective="gated_weight", *,
                beam_width: int = 4, **options) -> OptResult:
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

    with _Run(graph, objective, **options) as run:
        run.seed_greedy()
        completion = tuple(order_muxes(graph, "savings"))
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
                            score = run.step(Candidate(
                                order=order, n_steps=steps_budget,
                                scheduler=scheduler))
                            extensions.append((score, new_prefix))
                    extensions.sort(key=lambda pair: (-pair[0], pair[1]))
                    beam = [prefix for _, prefix in extensions[:beam_width]]
        return run.result("beam")


_LOCAL = {"anneal": anneal, "beam": beam_search, "random": random_search}
#: The driver names :func:`optimize` dispatches on.
DRIVERS = tuple(sorted([*_LOCAL, "portfolio"]))


def _driver(name: str) -> Callable[..., OptResult]:
    if name == "portfolio":
        # Imported lazily: repro.opt.portfolio builds on this module.
        from repro.opt.portfolio import portfolio

        return portfolio
    return _LOCAL[name]


def _options(driver: Callable[..., OptResult]) -> set[str]:
    """The keyword options ``driver`` takes: its own plus the shared
    run arguments of :class:`_Run`."""
    params = [*inspect.signature(driver).parameters.values(),
              *inspect.signature(_Run).parameters.values()]
    return {p.name for p in params
            if p.name != "graph" and p.kind is not p.VAR_KEYWORD}


def optimize(graph: CDFG, search: "SearchSpec | str" = SearchSpec(),
             **kwargs) -> OptResult:
    """Run one driver described by ``search`` (a :class:`SearchSpec` or
    a driver name); extra keyword arguments go to the driver.

    A :class:`SearchSpec` field the chosen driver does not take (say
    ``beam_width`` for ``anneal``) is dropped, so one spec fits every
    driver; any other unknown option is an error.
    """
    spec = SearchSpec(driver=search) if isinstance(search, str) else search
    if spec.driver not in DRIVERS:
        raise ValueError(f"unknown search driver {spec.driver!r}; choose "
                         f"from {sorted(DRIVERS)}")
    driver = _driver(spec.driver)
    valid = _options(driver)
    spec_fields = {f.name for f in fields(SearchSpec)} - {"driver"}
    unknown = sorted(set(kwargs) - valid - spec_fields)
    if unknown:
        raise ValueError(
            f"unknown option(s) {', '.join(repr(k) for k in unknown)} for "
            f"driver {spec.driver!r}; valid options: "
            f"{', '.join(sorted(valid))}")
    for name in spec_fields:
        if name in valid:
            kwargs.setdefault(name, getattr(spec, name))
        else:
            kwargs.pop(name, None)
    return driver(graph, **kwargs)
