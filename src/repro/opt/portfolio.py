"""Island-model parallel portfolio search.

The single-threaded drivers of :mod:`repro.opt.search` spend almost all
their wall clock inside candidate evaluation, which is embarrassingly
parallel — but one annealing chain is inherently sequential.  The
portfolio driver gets near-linear scaling the island-model way: run
``islands`` *heterogeneous* chains (annealers at different temperature
scales, plus a uniform-random prospector) concurrently in worker
processes, and periodically exchange information.

The run is organized in **rounds** (migration epochs), which are the
determinism unit:

1. the coordinator ships every island its state, a shared memo
   snapshot, and a per-round move quota (``migration_every``);
2. each island walks its chain for the round in its own process,
   evaluating through a :class:`~repro.opt.evaluate.Evaluator` backed
   by the shared store and the shipped memo;
3. the coordinator collects all islands (sorted by island index, so
   worker scheduling cannot reorder anything), journals every fresh
   record through its single batched
   :class:`~repro.opt.journal.JournalWriter`, offers every visited
   candidate to the run's :class:`~repro.opt.archive.ParetoArchive`,
   and reseeds islands from the cross-island elite set
   (:meth:`~repro.opt.archive.ParetoArchive.select`, so elites are
   *diverse*, not ``k`` copies of the scalar best).

Because islands only interact at round barriers and every merge is
index-ordered, the outcome is a pure function of (config, seed,
islands) — ``workers`` only decides how many islands compute at once.
Candidate metrics are themselves deterministic, so memo/store/journal
hits can change *where* answers come from but never what they are:
journal resume reproduces the uninterrupted outcome exactly.

Anytime budgets: ``time_budget`` (seconds) stops at a round boundary,
adaptively shrinking the final rounds to land near the deadline;
``max_evaluations`` caps *fresh* computations, split deterministically
across islands each round.  Either stop returns the best front found
so far — never an error.
"""

from __future__ import annotations

import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.ir.graph import CDFG
from repro.ir.serialize import graph_from_dict, graph_to_dict
from repro.opt.evaluate import EvaluationBudgetExceeded, Evaluator
from repro.opt.search import OptResult, _Run
from repro.opt.space import Candidate, SearchSpace

#: The heterogeneous chain profiles, cycled over island indices:
#: annealers from exploitative (cool) to explorative (hot), plus a
#: uniform-random prospector.  ``t_scale`` scales the start temperature
#: to the elite score; ``cool`` is the per-round global cooling.
ISLAND_PROFILES = (
    {"kind": "anneal", "t_scale": 0.30, "cool": 0.80},
    {"kind": "anneal", "t_scale": 0.10, "cool": 0.70},
    {"kind": "random"},
    {"kind": "anneal", "t_scale": 0.60, "cool": 0.85},
)


@dataclass(frozen=True)
class IslandState:
    """One island's chain position between rounds (picklable)."""

    current: "Candidate | None" = None
    score: float = -math.inf


def _island_rng(seed: int, island: int, round_index: int) -> random.Random:
    """Independent deterministic stream per (seed, island, round)."""
    return random.Random((seed * 1_000_003 + island) * 8_191 + round_index)


# Worker processes keep the deserialized graph across rounds; payloads
# still carry the dict form so a fresh worker can always rebuild it.
_WORKER_GRAPHS: dict[str, CDFG] = {}


def _payload_graph(payload: dict) -> CDFG:
    fingerprint = payload["fingerprint"]
    graph = _WORKER_GRAPHS.get(fingerprint)
    if graph is None:
        graph = graph_from_dict(payload["graph"])
        _WORKER_GRAPHS[fingerprint] = graph
    return graph


def run_island_round(payload: dict) -> dict:
    """One island, one round, in a worker process (top-level so the
    pool can pickle it).

    Walks ``moves`` chain steps from the shipped state, evaluating
    against the shared store with the coordinator's memo snapshot
    preloaded; ``max_fresh`` bounds fresh computations (crossing it
    ends the round early, never errors).  Returns the new state, every
    visited ``(candidate, metrics)`` in trajectory order, the session
    records to journal, and this round's stats deltas.
    """
    graph = _payload_graph(payload)
    profile = payload["profile"]
    space: SearchSpace = payload["space"]
    state: IslandState = payload["state"]
    rng = _island_rng(payload["seed"], payload["island"],
                      payload["round_index"])
    evaluator = Evaluator(
        graph=graph, objective=payload["objective"],
        store=payload["store"], journal=None,
        preload=payload["memo"], max_evaluations=payload["max_fresh"],
        sim_vectors=payload["sim_vectors"], pm_base=payload["pm_base"])
    visited: list[tuple[Candidate, dict[str, float]]] = []
    exhausted = False

    def evaluate(candidate: Candidate):
        score, metrics = evaluator.evaluate(candidate)
        visited.append((candidate, metrics))
        return score

    current, cur_score = state.current, state.score
    try:
        if current is None:
            current = space.random_candidate(rng)
            cur_score = evaluate(current)
        if profile["kind"] == "random":
            for _ in range(payload["moves"]):
                candidate = space.random_candidate(rng)
                score = evaluate(candidate)
                if score > cur_score:
                    current, cur_score = candidate, score
        else:
            moves = payload["moves"]
            t_hot = max(1.0, profile["t_scale"] * abs(cur_score))
            t_hot *= profile["cool"] ** payload["round_index"]
            cooling = 0.1 ** (1.0 / max(1, moves - 1))
            temperature = max(1e-9, t_hot)
            for _ in range(moves):
                candidate = space.neighbor(current, rng)
                score = evaluate(candidate)
                delta = score - cur_score
                if delta >= 0 or rng.random() < math.exp(
                        max(-700.0, delta / temperature)):
                    current, cur_score = candidate, score
                temperature *= cooling
    except EvaluationBudgetExceeded:
        exhausted = True
    stats = evaluator.stats
    return {
        "island": payload["island"],
        "state": IslandState(current=current, score=cur_score),
        "visited": visited,
        "session": list(evaluator.session.items()),
        "computed": stats.computed,
        "memo_hits": stats.memo_hits,
        "store_hits": stats.store_hits,
        "exhausted": exhausted,
    }


def portfolio(graph: CDFG, objective="gated_weight", *,
              n_steps: int | None = None, budgets=None,
              schedulers=("list",), iters: "int | None" = 240,
              seed: int = 0, workers: int = 4, islands: "int | None" = None,
              migration_every: int = 30, store=None, journal=None,
              max_evaluations: "int | None" = None,
              sim_vectors: int = 128, pm_base=None,
              time_budget: "float | None" = None,
              archive_size: "int | None" = None,
              durability: str = "batch",
              progress=None, front_progress=None) -> OptResult:
    """Island-model parallel portfolio search (see module docstring).

    ``iters`` is the per-island move budget (``None`` = unbounded, for
    pure ``time_budget`` / ``max_evaluations`` runs); ``islands``
    defaults to ``workers``.  The outcome depends only on (arguments,
    seed, islands) — never on worker scheduling.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    islands = workers if islands is None else islands
    if islands < 1:
        raise ValueError(f"islands must be >= 1, got {islands}")
    if migration_every < 1:
        raise ValueError(
            f"migration_every must be >= 1, got {migration_every}")
    if iters is None and time_budget is None and max_evaluations is None:
        raise ValueError("an unbounded portfolio needs iters=, "
                         "time_budget= or max_evaluations=")
    # The coordinator owns all journaling (group-committed); islands
    # never write, so concurrent appends cannot interleave records.  Its
    # own evaluator only scores the greedy seeds, so it runs uncapped:
    # max_evaluations is split across the islands round by round.
    with _Run(graph, objective, n_steps, budgets, schedulers, store,
              journal, None, sim_vectors, pm_base, progress=progress,
              time_budget=time_budget, durability=durability,
              archive_size=archive_size) as run:
        _run_islands(run, iters=iters, seed=seed, workers=workers,
                     islands=islands, migration_every=migration_every,
                     max_evaluations=max_evaluations,
                     front_progress=front_progress)
        return run.result("portfolio", seed)


def _run_islands(run: _Run, *, iters, seed, workers, islands,
                 migration_every, max_evaluations, front_progress) -> None:
    """Seed greedily, then run migration rounds until a budget is spent;
    every island's visits and fresh counts fold into ``run``."""
    evaluator, archive = run.evaluator, run.archive
    run.seed_greedy()
    if front_progress is not None:
        front_progress(0, archive)

    states = [IslandState() for _ in range(islands)]
    states[0] = IslandState(current=run.best, score=run.best_score)
    profiles = [ISLAND_PROFILES[k % len(ISLAND_PROFILES)]
                for k in range(islands)]
    graph_dict = graph_to_dict(run.graph)
    fingerprint = evaluator.fingerprint()
    pool = None
    if workers > 1 and islands > 1:
        pool = ProcessPoolExecutor(max_workers=min(workers, islands))
    try:
        moves_done = 0        # per-island moves completed
        round_index = 0
        # EMA of wall seconds per *round move* (one move on every
        # island).  Measured, not modeled: it absorbs however much of
        # the island work the machine actually overlaps.
        per_move = 0.0
        while True:
            if iters is not None and moves_done >= iters:
                break
            moves = migration_every
            if iters is not None:
                moves = min(moves, iters - moves_done)
            if run.deadline is not None:
                remaining = run.deadline - time.monotonic()
                if per_move > 0:
                    # Shrink the closing rounds to land on the deadline
                    # instead of overshooting by a full round.
                    moves = max(1, min(moves, int(remaining / per_move)))
                else:
                    # No cost estimate yet: probe with a short round so
                    # a tight budget is not blown before the first
                    # measurement exists.
                    moves = min(moves, 8)
                if remaining <= (per_move if per_move > 0 else 0.0):
                    break
            caps: "list[int | None]" = [None] * islands
            if max_evaluations is not None:
                remaining_fresh = max_evaluations - evaluator.stats.computed
                if remaining_fresh <= 0:
                    break
                base, extra = divmod(remaining_fresh, islands)
                caps = [base + (1 if k < extra else 0)
                        for k in range(islands)]
            round_index += 1
            memo = evaluator.memo_snapshot()
            payloads = [{
                "graph": graph_dict, "fingerprint": fingerprint,
                "objective": run.objective.signature(), "space": run.space,
                "state": states[k], "profile": profiles[k],
                "island": k, "seed": seed, "round_index": round_index,
                "moves": moves, "memo": memo, "max_fresh": caps[k],
                "store": evaluator.store,
                "sim_vectors": evaluator.sim_vectors,
                "pm_base": evaluator.pm_base,
            } for k in range(islands)]
            started = time.monotonic()
            if pool is not None:
                reports = list(pool.map(run_island_round, payloads))
            else:
                reports = [run_island_round(p) for p in payloads]
            elapsed = time.monotonic() - started
            sample = elapsed / max(1, moves)
            per_move = sample if per_move == 0 else \
                0.5 * per_move + 0.5 * sample
            # Index order, not completion order: worker scheduling must
            # not be observable in the merge.
            reports.sort(key=lambda report: report["island"])
            front_changed = False
            for report in reports:
                k = report["island"]
                states[k] = report["state"]
                evaluator.stats.computed += report["computed"]
                evaluator.stats.memo_hits += report["memo_hits"]
                evaluator.stats.store_hits += report["store_hits"]
                for key, metrics in report["session"]:
                    evaluator.absorb(key, metrics)
                for candidate, metrics in report["visited"]:
                    score = run.objective.score(metrics)
                    if run.offer(candidate, score, metrics, round_index,
                                 f"island{k}"):
                        front_changed = True
            moves_done += moves
            # Migration: reseed annealing islands from a *diverse*
            # elite set (rank + crowding), not k copies of the best.
            elites = archive.select(islands)
            if elites:
                for k in range(islands):
                    if profiles[k]["kind"] == "random":
                        continue
                    elite = elites[k % len(elites)]
                    if elite.score > states[k].score:
                        states[k] = IslandState(current=elite.candidate,
                                                score=elite.score)
            if front_progress is not None and front_changed:
                front_progress(round_index, archive)
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


#: Package-level alias: ``repro.opt.portfolio`` names this module, so
#: the package exports the driver function under this name instead.
portfolio_search = portfolio
