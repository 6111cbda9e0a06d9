"""Disk-backed, content-addressed stage-artifact store.

:class:`IndexedArtifactStore` is the persistent sibling of the in-memory
:class:`~repro.pipeline.cache.ArtifactCache`: same ``lookup``/``store``
contract (so a :class:`~repro.pipeline.Pipeline` accepts either), but
entries live as rows of one WAL-mode SQLite database under a root
directory, ``<root>/index.db``, so

* warm re-runs of a sweep survive process restarts,
* every ``explore`` worker, optimizer island and ``repro serve`` worker
  sharing the root also shares the store (each write is one
  transaction; readers see a committed row or none),
* the store can be shipped to workers and journals by path alone.

Layout: a cache key (stage name, CDFG content fingerprint, per-stage
config subset, plus the PM-result digest for the stages after the PM
pass) is digested to sha256, and the entry is the row
``entries(digest, blob, seq)``: the pickled artifact dict and its LRU
recency, a sequence number past every other row's.

* ``store()`` is one ``BEGIN IMMEDIATE`` transaction: upsert the row,
  then delete the oldest rows past ``max_entries``.  The bound is exact
  after every write, the row just written (the newest) is never a
  victim, and two writers hitting the bound together evict *disjoint*
  victims;
* ``lookup()`` is one ``SELECT``; a hit bumps recency in one
  transaction and a miss writes nothing;
* a blob that fails to unpickle (a stale format) is a miss, and its
  row is deleted;
* ``len()``, ``total_bytes()`` and membership are queries, and
  :meth:`IndexedArtifactStore.gc` re-applies the bound and checkpoints
  the WAL, which is what lets a server run indefinitely against the
  same root.

Entries have the durability of a committed WAL transaction at
``synchronous=NORMAL``: a killed process loses nothing it committed,
while a machine crash can lose the last commits, which then read as
misses.  WAL mode means readers never block the single writer and vice
versa; every process holds its own connection (re-opened after
``fork``, never shared across it), and a store unpickled in a worker
process is that process's one instance for its root.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sqlite3
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.durable import ProcessConnection, transaction
from repro.pipeline.cache import CacheKey, CacheStats


@runtime_checkable
class StageStore(Protocol):
    """What a :class:`~repro.pipeline.Pipeline` needs from any artifact
    store — the in-memory :class:`~repro.pipeline.cache.ArtifactCache`
    and the on-disk :class:`IndexedArtifactStore` both satisfy it.
    """

    stats: CacheStats

    def lookup(self, key: CacheKey) -> "dict[str, object] | None":
        """The artifacts stored under ``key``, or ``None`` on a miss."""

    def store(self, key: CacheKey, artifacts: "dict[str, object]") -> None:
        """Persist ``artifacts`` under ``key``."""

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""

#: Bump when the entry format changes incompatibly; part of the digest,
#: so old entries are simply never hit instead of misread.  Format 2:
#: graphs hold frozen nodes with tuple operands.
STORE_FORMAT = 2

#: Bump when the database schema changes incompatibly; a mismatched
#: database is dropped and recreated empty.
INDEX_FORMAT = 2

INDEX_NAME = "index.db"


_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS entries (digest TEXT PRIMARY KEY,"
    " blob BLOB NOT NULL, seq INTEGER NOT NULL)",
    "CREATE INDEX IF NOT EXISTS entries_by_seq ON entries(seq)",
    "CREATE TABLE IF NOT EXISTS meta (k TEXT PRIMARY KEY,"
    " v INTEGER NOT NULL)",
    f"INSERT OR IGNORE INTO meta (k, v) VALUES ('format', {INDEX_FORMAT})",
    "INSERT OR IGNORE INTO meta (k, v) VALUES ('evictions', 0)",
)

_NEXT_SEQ = "(SELECT COALESCE(MAX(seq), 0) + 1 FROM entries)"

_UPSERT = ("INSERT INTO entries (digest, blob, seq)"
           f" VALUES (?, ?, {_NEXT_SEQ})"
           " ON CONFLICT(digest) DO UPDATE SET blob=excluded.blob,"
           " seq=excluded.seq")

_TOUCH = f"UPDATE entries SET seq={_NEXT_SEQ} WHERE digest=?"

_EVICT = ("DELETE FROM entries WHERE digest IN (SELECT digest FROM entries"
          " ORDER BY seq LIMIT ?)")

# What pickle.loads raises on a garbage or stale-format blob.
_UNPICKLE_ERRORS = (pickle.UnpicklingError, EOFError, AttributeError,
                    ImportError, IndexError, KeyError, TypeError, ValueError)


class IndexedArtifactStore:
    """Persistent ``{cache key -> artifact dict}`` store under ``root``,
    LRU-bounded to ``max_entries`` rows of its SQLite database."""

    def __init__(self, root: str | os.PathLike, max_entries: int = 4096,
                 ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._db = ProcessConnection(
            self.index_path,
            lambda conn: transaction(conn, _init_schema))

    @property
    def index_path(self) -> Path:
        return self.root / INDEX_NAME

    @staticmethod
    def digest(key: CacheKey) -> str:
        """Stable content digest of a stage cache key."""
        payload = f"v{STORE_FORMAT}:{key!r}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def close(self) -> None:
        """Release this process's connection (entries stay put)."""
        self._db.close()

    # -- ArtifactCache contract ------------------------------------------

    def lookup(self, key: CacheKey) -> dict[str, object] | None:
        digest = self.digest(key)
        conn = self._db()
        row = conn.execute("SELECT blob FROM entries WHERE digest=?",
                           (digest,)).fetchone()
        artifacts = None
        if row is not None:
            try:
                artifacts = pickle.loads(row[0])
            except _UNPICKLE_ERRORS:
                transaction(conn, lambda c: c.execute(
                    "DELETE FROM entries WHERE digest=?", (digest,)))
        if artifacts is None:
            self.stats.misses += 1
            return None
        transaction(conn, lambda c: c.execute(_TOUCH, (digest,)))
        self.stats.hits += 1
        return artifacts

    def store(self, key: CacheKey, artifacts: dict[str, object]) -> None:
        row = (self.digest(key),
               pickle.dumps(dict(artifacts), protocol=pickle.HIGHEST_PROTOCOL))

        def body(conn):
            conn.execute(_UPSERT, row)
            return self._evict(conn)

        self.stats.evictions += transaction(self._db(), body)

    def clear(self) -> None:
        transaction(self._db(),
                    lambda conn: conn.execute("DELETE FROM entries"))
        self.stats = CacheStats()

    def __len__(self) -> int:
        return self._db().execute(
            "SELECT COUNT(*) FROM entries").fetchone()[0]

    def __contains__(self, key: CacheKey) -> bool:
        return self._db().execute(
            "SELECT 1 FROM entries WHERE digest=?",
            (self.digest(key),)).fetchone() is not None

    def total_bytes(self) -> int:
        """Sum of the stored blob sizes."""
        return self._db().execute(
            "SELECT COALESCE(SUM(LENGTH(blob)), 0) FROM entries").fetchone()[0]

    def total_evictions(self) -> int:
        """Rows evicted by every writer of this root since the database
        was created."""
        return self._db().execute(
            "SELECT v FROM meta WHERE k='evictions'").fetchone()[0]

    # -- LRU bound -------------------------------------------------------

    def _evict(self, conn: sqlite3.Connection) -> int:
        """Delete the oldest rows past ``max_entries`` inside the caller's
        transaction; returns how many went.  A row just written holds the
        highest ``seq``, so it is never among them."""
        excess = conn.execute(
            "SELECT COUNT(*) FROM entries").fetchone()[0] - self.max_entries
        if excess <= 0:
            return 0
        conn.execute(_EVICT, (excess,))
        conn.execute("UPDATE meta SET v = v + ? WHERE k='evictions'",
                     (excess,))
        return excess

    def gc(self) -> dict[str, int]:
        """Re-apply the LRU bound and checkpoint the WAL.  Returns
        ``{"entries": ..., "evicted": ...}``."""
        conn = self._db()
        evicted = transaction(conn, self._evict)
        self.stats.evictions += evicted
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return {"entries": len(self), "evicted": evicted}

    # -- multiprocessing -------------------------------------------------

    def __reduce__(self):
        # Workers share the database, not the in-process counters, and
        # connections never cross process boundaries.
        return _reopen, (self.root, self.max_entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"IndexedArtifactStore({str(self.root)!r}, "
                f"max_entries={self.max_entries})")


def _init_schema(conn: sqlite3.Connection) -> None:
    """Create the schema, or recreate it empty over another format."""
    for statement in _SCHEMA:
        conn.execute(statement)
    if conn.execute("SELECT v FROM meta WHERE k='format'"
                    ).fetchone()[0] != INDEX_FORMAT:
        conn.execute("DROP TABLE entries")
        conn.execute("DROP TABLE meta")
        for statement in _SCHEMA:
            conn.execute(statement)


#: Unpickled stores by ``(pid, root, max_entries)``: a pool worker
#: sent the store with every chunk keeps one connection and one set of
#: counters.  The pid keeps a forked child off its parent's counters.
_REOPENED: dict[tuple[int, Path, int], IndexedArtifactStore] = {}


def _reopen(root: Path, max_entries: int) -> IndexedArtifactStore:
    key = (os.getpid(), root, max_entries)
    store = _REOPENED.get(key)
    if store is None:
        store = _REOPENED[key] = IndexedArtifactStore(root, max_entries)
    return store
