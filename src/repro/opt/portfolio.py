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

1. the coordinator ships every island its chain, a shared memo
   snapshot, and a per-round move quota (``migration_every``);
2. each island walks its :class:`~repro.opt.search.Chain` for the
   round in its own process — the same loop as the single-chain
   drivers, a cooling Metropolis walk or uniform draws by profile —
   evaluating through a :class:`~repro.opt.evaluate.Evaluator` backed
   by the shared store and the shipped memo;
3. the coordinator collects all islands (sorted by island index, so
   worker scheduling cannot reorder anything), journals every fresh
   record through its single batched
   :class:`~repro.durable.JournalWriter`, offers every visited
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

import random
import time
from concurrent.futures import ProcessPoolExecutor

from repro.ir.graph import CDFG
from repro.ir.serialize import graph_from_dict, graph_to_dict
from repro.opt.archive import ParetoArchive
from repro.opt.evaluate import EvaluationBudgetExceeded, Evaluator
from repro.opt.search import Chain, OptResult, _Run
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

    Walks the shipped chain ``moves`` steps, evaluating against the
    shared store with the coordinator's memo snapshot preloaded;
    ``max_fresh`` bounds fresh computations (crossing it ends the round
    early, never errors).  Returns the moved chain, every visited
    ``(candidate, metrics)`` in trajectory order, the session records
    to journal, and this round's stats deltas.
    """
    graph = _payload_graph(payload)
    profile = payload["profile"]
    space: SearchSpace = payload["space"]
    chain: Chain = payload["chain"]
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

    try:
        if chain.current is None:
            chain.current = space.random_candidate(rng)
            chain.score = evaluate(chain.current)
        temperature = None
        if profile["kind"] == "anneal":
            t_hot = max(1.0, profile["t_scale"] * abs(chain.score))
            t_hot *= profile["cool"] ** payload["round_index"]
            temperature = max(1e-9, t_hot)
        chain.walk(space, rng, evaluate, payload["moves"],
                   temperature=temperature, final=0.1)
    except EvaluationBudgetExceeded:
        exhausted = True
    stats = evaluator.stats
    return {
        "island": payload["island"],
        "chain": chain,
        "visited": visited,
        "session": list(evaluator.session.items()),
        "computed": stats.computed,
        "memo_hits": stats.memo_hits,
        "store_hits": stats.store_hits,
        "design_hits": stats.design_hits,
        "outcome_hits": stats.outcome_hits,
        "exhausted": exhausted,
    }


def portfolio(graph: CDFG, objective="gated_weight", *,
              iters: "int | None" = 240, workers: int = 4,
              islands: "int | None" = None, migration_every: int = 30,
              max_evaluations: "int | None" = None,
              archive_size: "int | None" = None, front_progress=None,
              **options) -> OptResult:
    """Island-model parallel portfolio search (see module docstring).

    ``iters`` is the per-island move budget (``None`` = unbounded, for
    pure ``time_budget`` / ``max_evaluations`` runs); ``islands``
    defaults to ``workers``.  ``archive_size`` bounds the Pareto
    archive and ``front_progress(round, archive)`` is called whenever a
    round changes the front.  The outcome depends only on (arguments,
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
    if (iters is None and options.get("time_budget") is None
            and max_evaluations is None):
        raise ValueError("an unbounded portfolio needs iters=, "
                         "time_budget= or max_evaluations=")
    # The coordinator owns all journaling (group-committed); islands
    # never write, so concurrent appends cannot interleave records.  Its
    # own evaluator only scores the greedy seeds, so it runs uncapped:
    # max_evaluations is split across the islands round by round.
    with _Run(graph, objective, **options) as run:
        # Replaces _Run's unbounded archive: only the portfolio bounds it.
        run.archive = ParetoArchive(run.objective, max_size=archive_size)
        _run_islands(run, iters=iters, workers=workers, islands=islands,
                     migration_every=migration_every,
                     max_evaluations=max_evaluations,
                     front_progress=front_progress)
        return run.result("portfolio")


def _run_islands(run: _Run, *, iters, workers, islands, migration_every,
                 max_evaluations, front_progress) -> None:
    """Seed greedily, then run migration rounds until a budget is spent;
    every island's visits and fresh counts fold into ``run``."""
    evaluator, archive = run.evaluator, run.archive
    run.seed_greedy()
    if front_progress is not None:
        front_progress(0, archive)

    chains = [Chain() for _ in range(islands)]
    chains[0] = Chain(run.best, run.best_score)
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
                "chain": chains[k], "profile": profiles[k],
                "island": k, "seed": run.seed, "round_index": round_index,
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
                chains[k] = report["chain"]
                evaluator.stats.computed += report["computed"]
                evaluator.stats.memo_hits += report["memo_hits"]
                evaluator.stats.store_hits += report["store_hits"]
                evaluator.stats.design_hits += report["design_hits"]
                evaluator.stats.outcome_hits += report["outcome_hits"]
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
                    if elite.score > chains[k].score:
                        chains[k] = Chain(elite.candidate, elite.score)
            if front_progress is not None and front_changed:
                front_progress(round_index, archive)
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
