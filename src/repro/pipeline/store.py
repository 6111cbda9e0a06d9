"""Disk-backed, content-addressed stage-artifact store.

:class:`IndexedArtifactStore` is the persistent sibling of the in-memory
:class:`~repro.pipeline.cache.ArtifactCache`: same ``lookup``/``store``
contract (so a :class:`~repro.pipeline.Pipeline` accepts either), but
entries live as sharded pickle files under a root directory, so

* warm re-runs of a sweep survive process restarts,
* every ``explore`` worker, optimizer island and ``repro serve`` worker
  sharing the root also shares the store (entry writes are atomic
  renames; readers never see partial files),
* the store can be shipped to workers and journals by path alone.

Layout: a cache key (stage name, CDFG content fingerprint, per-stage
config subset) is digested to sha256; the entry is stored at
``<root>/<digest[:2]>/<digest[2:]>.pkl``, giving 256 shard directories
that keep listings cheap at hundreds of thousands of entries.

Bookkeeping lives in a WAL-mode SQLite index (``<root>/index.db``), so
nothing on the hot path scans the tree:

* ``len()`` is ``SELECT COUNT(*)``;
* LRU recency is a monotonic sequence number bumped inside the index
  transaction;
* eviction runs in the same ``BEGIN IMMEDIATE`` transaction as the
  write that overflowed the bound and claims the oldest rows before
  touching the filesystem, so two writers hitting ``max_entries``
  together evict *disjoint* victims;
* :meth:`IndexedArtifactStore.gc` reconciles index and tree in one pass
  (adopting entries the index does not know, dropping rows whose files
  vanished), which is what lets a server run indefinitely against the
  same root.

The tree is the truth.  A new index over an existing tree — the first
open, a deleted ``index.db``, or a schema-format change — adopts every
entry already on disk through the same reconciliation.  A corrupt or
torn entry (a killed writer, a reader racing a writer on a non-POSIX
filesystem) is treated as a miss and deleted.

WAL mode means readers never block the single writer and vice versa;
every process holds its own connection (connections are re-opened after
``fork``, never shared across it).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sqlite3
import tempfile
from pathlib import Path
from typing import Protocol, runtime_checkable

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

#: Bump when the on-disk entry format changes incompatibly; part of the
#: digest, so old trees are simply never hit instead of misread.
STORE_FORMAT = 1

#: Bump when the index schema changes incompatibly; a mismatched index
#: is dropped and rebuilt from the entry tree (the tree is the truth).
INDEX_FORMAT = 1

INDEX_NAME = "index.db"


def wal_connect(path: "str | os.PathLike", *, timeout: float = 30.0,
                check_same_thread: bool = True) -> sqlite3.Connection:
    """A SQLite connection configured for concurrent serving workloads.

    WAL journal (readers never block the writer), ``NORMAL`` synchronous
    (WAL makes that crash-safe for committed transactions), a generous
    busy timeout, and manual transaction control — the configuration
    both the artifact index and the :mod:`repro.serve` lease queue run
    on, so every store-adjacent database behaves the same way under
    multi-process contention.
    """
    conn = sqlite3.connect(path, timeout=timeout, isolation_level=None,
                           check_same_thread=check_same_thread)
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("PRAGMA synchronous=NORMAL")
    conn.execute("PRAGMA busy_timeout={}".format(int(timeout * 1000)))
    return conn


_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS entries (digest TEXT PRIMARY KEY,"
    " size INTEGER NOT NULL, seq INTEGER NOT NULL)",
    "CREATE INDEX IF NOT EXISTS entries_by_seq ON entries(seq)",
    "CREATE TABLE IF NOT EXISTS meta (k TEXT PRIMARY KEY,"
    " v INTEGER NOT NULL)",
    f"INSERT OR IGNORE INTO meta (k, v) VALUES ('format', {INDEX_FORMAT})",
    "INSERT OR IGNORE INTO meta (k, v) VALUES ('seq', 0)",
)

_UPSERT = ("INSERT INTO entries (digest, size, seq) VALUES (?, ?, ?)"
           " ON CONFLICT(digest) DO UPDATE SET size=excluded.size,"
           " seq=excluded.seq")


def _unlink(path: Path) -> None:
    """Remove ``path``; already gone (a racing evictor) is not an error."""
    try:
        os.unlink(path)
    except OSError:
        pass


class IndexedArtifactStore:
    """Persistent ``{cache key -> artifact dict}`` store under ``root``,
    LRU-bounded to ``max_entries`` by its SQLite index."""

    def __init__(self, root: str | os.PathLike, max_entries: int = 4096,
                 ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._conn: sqlite3.Connection | None = None
        self._conn_pid: int | None = None

    @property
    def index_path(self) -> Path:
        return self.root / INDEX_NAME

    # -- key mapping -----------------------------------------------------

    @staticmethod
    def digest(key: CacheKey) -> str:
        """Stable content digest of a stage cache key."""
        payload = f"v{STORE_FORMAT}:{key!r}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path_for(self, key: CacheKey) -> Path:
        """The sharded file path an entry for ``key`` lives at."""
        return self._path(self.digest(key))

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest[2:]}.pkl"

    def _entries(self):
        return self.root.glob("??/*.pkl")

    # -- connection management -------------------------------------------

    def _db(self) -> sqlite3.Connection:
        """This process's connection, (re)opened lazily after a fork."""
        pid = os.getpid()
        if self._conn is None or self._conn_pid != pid:
            self._conn = self._open_index()
            self._conn_pid = pid
        return self._conn

    def _open_index(self) -> sqlite3.Connection:
        # The serving tier touches the index from the event loop's I/O
        # and maintenance executor threads; statement execution is
        # serialized by the sqlite3 module itself.
        conn = wal_connect(self.index_path, timeout=30.0,
                           check_same_thread=False)
        self._transaction(conn, self._init_index)
        return conn

    def _init_index(self, conn: sqlite3.Connection) -> None:
        """Create the schema; a new index over a possibly non-empty tree
        adopts what the tree holds, or len() and eviction would ignore
        it.  One transaction, so concurrent openers adopt only once."""
        fresh = conn.execute("SELECT COUNT(*) FROM sqlite_master "
                             "WHERE name='meta'").fetchone()[0] == 0
        for statement in _SCHEMA:
            conn.execute(statement)
        if conn.execute("SELECT v FROM meta WHERE k='format'"
                        ).fetchone()[0] != INDEX_FORMAT:
            conn.execute("DROP TABLE entries")
            conn.execute("DROP TABLE meta")
            for statement in _SCHEMA:
                conn.execute(statement)
            fresh = True
        if fresh:
            self._reconcile(conn)

    def close(self) -> None:
        """Release this process's index connection (entries stay put)."""
        if self._conn is not None and self._conn_pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._conn_pid = None

    @staticmethod
    def _transaction(conn: sqlite3.Connection, body):
        """Run ``body(conn)`` inside one BEGIN IMMEDIATE transaction."""
        conn.execute("BEGIN IMMEDIATE")
        try:
            outcome = body(conn)
            conn.execute("COMMIT")
            return outcome
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    @staticmethod
    def _next_seq(conn: sqlite3.Connection, count: int = 1) -> int:
        """Reserve ``count`` recency numbers; returns the first."""
        conn.execute("UPDATE meta SET v = v + ? WHERE k='seq'", (count,))
        return conn.execute(
            "SELECT v FROM meta WHERE k='seq'").fetchone()[0] - count + 1

    # -- ArtifactCache contract ------------------------------------------

    def lookup(self, key: CacheKey) -> dict[str, object] | None:
        digest = self.digest(key)
        path = self._path(digest)
        artifacts = None
        try:
            with open(path, "rb") as handle:
                artifacts = pickle.load(handle)
                size = handle.tell()
        except FileNotFoundError:
            pass
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            # Torn write or stale format: drop the entry, treat as a miss.
            _unlink(path)
        conn = self._db()
        if artifacts is None:
            # Keep the index in step with the tree so len() and eviction
            # stay exact.
            conn.execute("DELETE FROM entries WHERE digest=?", (digest,))
            self.stats.misses += 1
            return None
        # Upsert: a hit on an entry the index lost (a writer killed
        # between its rename and its commit) indexes it again.
        self._transaction(conn, lambda c: c.execute(
            _UPSERT, (digest, size, self._next_seq(c))))
        self.stats.hits += 1
        return artifacts

    def store(self, key: CacheKey, artifacts: dict[str, object]) -> None:
        digest = self.digest(key)
        # Open the index before writing, so a new index's adoption pass
        # can never race this entry's own commit below.
        conn = self._db()
        size = self._write_entry(self._path(digest), artifacts)

        def body(conn):
            conn.execute(_UPSERT, (digest, size, self._next_seq(conn)))
            return self._claim_victims(conn, protect=digest)

        self._evict(self._transaction(conn, body))

    def clear(self) -> None:
        self._transaction(self._db(),
                          lambda conn: conn.execute("DELETE FROM entries"))
        for path in self._entries():
            _unlink(path)
        self.stats = CacheStats()

    def __len__(self) -> int:
        return self._db().execute(
            "SELECT COUNT(*) FROM entries").fetchone()[0]

    def __contains__(self, key: CacheKey) -> bool:
        # File-based: the tree is the truth.
        return self.path_for(key).exists()

    def total_bytes(self) -> int:
        """Sum of the indexed entry sizes."""
        return self._db().execute(
            "SELECT COALESCE(SUM(size), 0) FROM entries").fetchone()[0]

    # -- entry files -----------------------------------------------------

    @staticmethod
    def _write_entry(path: Path, artifacts: dict[str, object]) -> int:
        """Atomically persist one entry; returns its size in bytes."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(dict(artifacts), handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
                size = handle.tell()
            os.replace(tmp, path)
        except BaseException:
            _unlink(Path(tmp))
            raise
        return size

    # -- transactional LRU eviction --------------------------------------

    def _claim_victims(self, conn: sqlite3.Connection,
                       protect: str = "") -> list[str]:
        """Delete the oldest rows past ``max_entries`` (never
        ``protect``, the entry this writer just stored); returns their
        digests for :meth:`_evict` to unlink after the commit."""
        excess = conn.execute(
            "SELECT COUNT(*) FROM entries").fetchone()[0] - self.max_entries
        if excess <= 0:
            return []
        victims = [digest for (digest,) in conn.execute(
            "SELECT digest FROM entries WHERE digest != ?"
            " ORDER BY seq ASC LIMIT ?", (protect, excess))]
        conn.executemany("DELETE FROM entries WHERE digest=?",
                         [(d,) for d in victims])
        return victims

    def _evict(self, victims: list[str]) -> None:
        """Unlink claimed victims.  The claim committed first, so
        concurrent evictors never pick the same victim; a file already
        gone is a no-op, not an error."""
        for digest in victims:
            _unlink(self._path(digest))
            self.stats.evictions += 1

    # -- garbage collection ----------------------------------------------

    def _reconcile(self, conn: sqlite3.Connection) -> tuple[int, int]:
        """Make the index match the tree, inside the caller's
        transaction: adopt unindexed entry files (oldest mtime first, so
        they age out first) and drop rows whose files vanished.  Returns
        ``(adopted, dropped)``."""
        on_disk = {path.parent.name + path.stem: path
                   for path in self._entries()}
        indexed = {digest for (digest,) in
                   conn.execute("SELECT digest FROM entries")}
        # A directory scan may miss an entry renamed into place while it
        # ran, so check a file really is gone before dropping its row.
        dropped = [digest for digest in indexed - on_disk.keys()
                   if not self._path(digest).exists()]
        conn.executemany("DELETE FROM entries WHERE digest=?",
                         [(d,) for d in dropped])
        adopted = []
        for digest in on_disk.keys() - indexed:
            try:
                stat = on_disk[digest].stat()
            except OSError:
                continue  # concurrently evicted
            adopted.append((stat.st_mtime_ns, digest, stat.st_size))
        adopted.sort()
        seq = self._next_seq(conn, len(adopted))
        conn.executemany(
            "INSERT OR REPLACE INTO entries (digest, size, seq) "
            "VALUES (?, ?, ?)",
            [(digest, size, seq + k)
             for k, (_, digest, size) in enumerate(adopted)])
        return len(adopted), len(dropped)

    def gc(self) -> dict[str, int]:
        """Reconcile the index with the entry tree, then re-apply the
        LRU bound.  Returns counters:
        ``{"entries": ..., "adopted": ..., "dropped": ..., "evicted": ...}``.
        """
        conn = self._db()
        adopted, dropped = self._transaction(conn, self._reconcile)
        evictions_before = self.stats.evictions
        self._evict(self._transaction(conn, self._claim_victims))
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return {"entries": len(self), "adopted": adopted,
                "dropped": dropped,
                "evicted": self.stats.evictions - evictions_before}

    # -- multiprocessing -------------------------------------------------

    def __getstate__(self) -> dict[str, object]:
        # Workers share the directory, not the in-process counters, and
        # connections never cross process boundaries.
        return {"root": self.root, "max_entries": self.max_entries}

    def __setstate__(self, state: dict[str, object]) -> None:
        self.root = state["root"]
        self.max_entries = state["max_entries"]
        self.stats = CacheStats()
        self._conn = None
        self._conn_pid = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"IndexedArtifactStore({str(self.root)!r}, "
                f"max_entries={self.max_entries})")
