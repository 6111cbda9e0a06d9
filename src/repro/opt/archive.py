"""NSGA-II-style Pareto archive: multi-objective search made first-class.

The scalarized best that :mod:`repro.opt.search` drivers have always
returned answers "which candidate wins under *these* weights" — but a
multi-term objective like ``gated_weight,area`` really asks for the
whole trade-off curve.  This module supplies that layer:

* :func:`nondominated_sort` — the NSGA-II fast nondominated sort over
  minimized objective vectors (front 0 is exactly
  :func:`repro.opt.objective.pareto_front`);
* :func:`crowding_distances` — the NSGA-II diversity measure within one
  front, with deterministic index tie-breaks;
* :func:`nsga_select` — rank-then-crowding truncation selection, used
  by the portfolio driver to pick diverse elites for island migration;
* :class:`ParetoArchive` — the mutable nondominated set every driver
  now maintains and returns on :class:`~repro.opt.search.OptResult`.
  Entries are deduplicated by objective vector (lexicographically
  smallest candidate key wins, so a single-metric objective keeps
  exactly one representative) and the archive is unbounded by default,
  which is what makes the *anytime* guarantee hold: offering more
  evaluations can only grow or improve the front, never dominate a
  previously returned one.

Every sort, selection, and iteration order here is deterministic in the
offered content — archives never depend on wall clock, hashing order,
or worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Iterable, Mapping, Sequence

from repro.opt.objective import Objective, dominates
from repro.opt.space import Candidate


def nondominated_sort(vectors: Sequence[Sequence[float]],
                      ) -> list[list[int]]:
    """NSGA-II fast nondominated sort over minimized vectors.

    Returns fronts of indices: front 0 is the Pareto front of the whole
    set, front 1 the front of the remainder, and so on.  Indices within
    a front are ascending, so the output is a pure function of the
    input sequence.
    """
    vecs = [tuple(v) for v in vectors]
    n = len(vecs)
    dominated: list[list[int]] = [[] for _ in range(n)]
    blockers = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(vecs[i], vecs[j]):
                dominated[i].append(j)
                blockers[j] += 1
            elif dominates(vecs[j], vecs[i]):
                dominated[j].append(i)
                blockers[i] += 1
    fronts: list[list[int]] = []
    current = [i for i in range(n) if blockers[i] == 0]
    while current:
        fronts.append(current)
        successors: list[int] = []
        for i in current:
            for j in dominated[i]:
                blockers[j] -= 1
                if blockers[j] == 0:
                    successors.append(j)
        current = sorted(successors)
    return fronts


def crowding_distances(vectors: Sequence[Sequence[float]]) -> list[float]:
    """NSGA-II crowding distance of each vector within one front.

    Boundary points of every dimension get ``inf``; interior points sum
    normalized neighbor gaps per dimension.  Ties along a dimension are
    ordered by index, so equal inputs always produce equal outputs.
    """
    vecs = [tuple(v) for v in vectors]
    n = len(vecs)
    if n == 0:
        return []
    distances = [0.0] * n
    for dim in range(len(vecs[0])):
        order = sorted(range(n), key=lambda i: (vecs[i][dim], i))
        lo, hi = order[0], order[-1]
        distances[lo] = distances[hi] = inf
        span = vecs[hi][dim] - vecs[lo][dim]
        if span <= 0:
            continue
        for pos in range(1, n - 1):
            i = order[pos]
            if distances[i] != inf:
                gap = vecs[order[pos + 1]][dim] - vecs[order[pos - 1]][dim]
                distances[i] += gap / span
    return distances


def nsga_select(vectors: Sequence[Sequence[float]], k: int) -> list[int]:
    """Pick ``k`` indices by nondomination rank, then crowding distance.

    Whole fronts are taken in rank order; the first front that does not
    fit is truncated by descending crowding distance (ascending index on
    ties).  Deterministic in the input sequence.
    """
    if k <= 0:
        return []
    selected: list[int] = []
    for front in nondominated_sort(vectors):
        if len(selected) + len(front) <= k:
            selected.extend(front)
            if len(selected) == k:
                break
            continue
        distances = crowding_distances([vectors[i] for i in front])
        ranked = sorted(range(len(front)),
                        key=lambda pos: (-distances[pos], front[pos]))
        selected.extend(front[pos] for pos in ranked[:k - len(selected)])
        break
    return selected


@dataclass(frozen=True)
class ArchiveEntry:
    """One nondominated candidate with its full metric evidence."""

    candidate: Candidate
    metrics: "dict[str, float]"
    score: float                  #: scalarized objective value (maximized)
    vector: tuple[float, ...]     #: minimized objective tuple
    label: str = "search"         #: provenance (greedy label or island)

    def to_dict(self) -> dict:
        return {
            "candidate": {"order": list(self.candidate.order),
                          "n_steps": self.candidate.n_steps,
                          "scheduler": self.candidate.scheduler},
            "key": self.candidate.key(),
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
            "score": self.score,
            "vector": list(self.vector),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ArchiveEntry":
        raw = data["candidate"]
        candidate = Candidate(order=tuple(int(m) for m in raw["order"]),
                              n_steps=int(raw["n_steps"]),
                              scheduler=str(raw["scheduler"]))
        return cls(candidate=candidate,
                   metrics={str(k): float(v)
                            for k, v in data["metrics"].items()},
                   score=float(data["score"]),
                   vector=tuple(float(v) for v in data["vector"]),
                   label=str(data.get("label", "search")))


class ParetoArchive:
    """The evolving nondominated set of one search run.

    ``offer`` keeps the archive a Pareto front at all times: a dominated
    offer is rejected, an accepted offer evicts everything it dominates,
    and vector ties keep the lexicographically smallest candidate key.
    ``max_size`` (``None`` = unbounded, the default) truncates by
    crowding distance; bounding the archive trades the strict anytime
    coverage guarantee for memory.  Run counters (evaluations, reuse,
    journal replays) live on :class:`~repro.opt.search.OptResult`.
    """

    def __init__(self, objective: "Objective | str",
                 max_size: "int | None" = None) -> None:
        self.objective = Objective.parse(objective)
        if max_size is not None and max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        self.max_size = max_size
        self._entries: list[ArchiveEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def offer(self, candidate: Candidate, metrics: Mapping[str, float],
              label: str = "search") -> bool:
        """Consider one evaluated candidate; True when the front changed."""
        metrics = {str(k): float(v) for k, v in metrics.items()}
        vector = self.objective.vector(metrics)
        survivors: list[ArchiveEntry] = []
        for entry in self._entries:
            if dominates(entry.vector, vector):
                return False
            if entry.vector == vector:
                # Same objective point: canonical representative wins.
                if entry.candidate.key() <= candidate.key():
                    return False
                continue
            if not dominates(vector, entry.vector):
                survivors.append(entry)
        survivors.append(ArchiveEntry(
            candidate=candidate, metrics=metrics,
            score=self.objective.score(metrics), vector=vector, label=label))
        survivors.sort(key=lambda e: (e.vector, e.candidate.key()))
        if self.max_size is not None and len(survivors) > self.max_size:
            keep = nsga_select([e.vector for e in survivors], self.max_size)
            survivors = [survivors[i] for i in sorted(keep)]
        self._entries = survivors
        return True

    def front(self) -> tuple[ArchiveEntry, ...]:
        """The archive, sorted by (vector, candidate key)."""
        return tuple(self._entries)

    def best(self) -> "ArchiveEntry | None":
        """The scalarized winner (ties broken by candidate key)."""
        if not self._entries:
            return None
        return min(self._entries,
                   key=lambda e: (-e.score, e.candidate.key()))

    def select(self, k: int) -> list[ArchiveEntry]:
        """``k`` diverse elites by crowding distance (for migration)."""
        chosen = nsga_select([e.vector for e in self._entries], k)
        return [self._entries[i] for i in chosen]

    def covered_by(self, other: "ParetoArchive") -> bool:
        """True when every entry here is dominated-or-equaled by
        ``other`` — the anytime-monotonicity check: a longer run's
        archive must cover every shorter run's archive."""
        theirs = [e.vector for e in other._entries]
        return all(
            any(v == mine.vector or dominates(v, mine.vector)
                for v in theirs)
            for mine in self._entries)

    def to_dict(self) -> dict:
        """JSON form (``repro optimize --pareto-out``, serve events)."""
        return {"objective": self.objective.signature(),
                "size": len(self._entries),
                "front": [entry.to_dict() for entry in self._entries]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ParetoArchive":
        archive = cls(data["objective"])
        archive._entries = [ArchiveEntry.from_dict(raw)
                            for raw in data.get("front", ())]
        archive._entries.sort(key=lambda e: (e.vector, e.candidate.key()))
        return archive

    def merged(self, entries: Iterable[ArchiveEntry]) -> int:
        """Offer many entries; returns how many changed the front."""
        changed = 0
        for entry in entries:
            if self.offer(entry.candidate, entry.metrics, entry.label):
                changed += 1
        return changed
