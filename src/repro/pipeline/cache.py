"""Per-stage artifact caching.

Cache keys combine the stage name, a content fingerprint of the input
CDFG, and the subset of :class:`~repro.pipeline.FlowConfig` fields the
stage declared as relevant.  Stages after the PM pass add a digest of
the PM result and drop the ``pm`` options from their subset (see
:class:`~repro.pipeline.stages.PostPMStage`), so MUX orderings that
commit the same control edges share everything downstream of the pass.
Because every stage is a pure function of its key, a hit can splice the
previously-computed artifacts straight into a new
:class:`~repro.pipeline.FlowContext` — which is what makes repeated
budget sweeps, baseline/managed pairs and ordering searches cheap (the
analysis, PM and scheduling work is shared instead of redone).

Cached artifacts are returned by reference, not copied: treat them as
immutable, exactly as you would the return value of any synthesis call.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.ir.graph import CDFG

CacheKey = tuple


def graph_fingerprint(graph: CDFG) -> str:
    """Stable content hash of a CDFG (nodes, operands, control edges).

    Two independently-built but identical graphs fingerprint equally, so
    ``build("gcd")`` in one function and in another share cache entries.
    The hash is memoized on the graph until its next mutation.
    """
    return graph.fingerprint()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class ArtifactCache:
    """LRU store of ``{artifact name -> object}`` dicts keyed per stage.

    Bounded: once more than ``max_entries`` distinct keys are stored the
    least-recently-used entries are evicted (``lookup`` counts as use),
    so long-lived processes sweeping large design spaces cannot grow the
    cache without bound.  ``stats`` tallies hits/misses/evictions.
    """

    max_entries: int = 4096
    stats: CacheStats = field(default_factory=CacheStats)
    _store: "OrderedDict[CacheKey, dict[str, object]]" = \
        field(default_factory=OrderedDict, repr=False)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {self.max_entries}")

    def lookup(self, key: CacheKey) -> dict[str, object] | None:
        entry = self._store.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._store.move_to_end(key)
        self.stats.hits += 1
        return entry

    def store(self, key: CacheKey, artifacts: dict[str, object]) -> None:
        self._store[key] = dict(artifacts)
        self._store.move_to_end(key)
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._store.clear()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._store
