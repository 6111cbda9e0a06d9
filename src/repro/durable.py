"""Every durable write in :mod:`repro`: the SQLite transaction and
per-process WAL connection under the artifact store and the lease queue,
the atomic file replace, and the resume journals.

A journal is an append-only JSONL file: a meta line ``{"format": N,
"kind": "<kind>"}`` followed by one record per completed unit of work,
``{"key": "<content key>", ...payload}``.  Appends go through a
:class:`JournalWriter` with two durability levels:

* ``"record"`` — every append is flushed *and* fsynced before
  returning, so even a machine crash loses at most the record being
  written.  This is the serve crash-recovery contract.
* ``"batch"`` — group commit: every append is still written and
  flushed (a killed *process* loses nothing), but the fsync happens
  only every :data:`BATCH_RECORDS` appends or :data:`BATCH_SECONDS` of
  wall clock, and on :meth:`~JournalWriter.close`.  A machine crash can
  lose at most one batch.  This is the default for the optimizer and
  explorer journals, where records are a cache of recomputable work
  and per-record fsyncs dominate cheap evaluations.

Either way the file stays torn-tail safe: records are single lines,
and loading skips a torn tail (or any other garbage line).  Journals
only ever grow, so long-running services compact them:
:func:`compact_journal` rewrites one in place (fsync, then atomic
replace), keeping the last record per key and dropping superseded
duplicates, torn tails, and garbage.  ``repro journal compact`` is the
CLI face; the :mod:`repro.serve` maintenance pass calls it on every job
journal.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

# -- SQLite ----------------------------------------------------------------

#: Busy timeout of every WAL connection, in seconds.
BUSY_TIMEOUT_S = 30.0


def wal_connect(path: "str | os.PathLike") -> sqlite3.Connection:
    """A SQLite connection configured for concurrent serving workloads.

    WAL journal (readers never block the writer), ``NORMAL`` synchronous
    (WAL makes that crash-safe for committed transactions), a generous
    busy timeout, and manual transaction control.  The connection may be
    used from any thread of its process: the serving tier touches it
    from the event loop and its executor threads, and the sqlite3 module
    serializes statement execution.
    """
    conn = sqlite3.connect(path, timeout=BUSY_TIMEOUT_S,
                           isolation_level=None, check_same_thread=False)
    # Switching a new database to WAL needs an exclusive lock, and SQLite
    # fails a concurrent opener's switch at once instead of waiting out
    # the busy timeout, so wait it out here.
    deadline = time.monotonic() + BUSY_TIMEOUT_S
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            break
        except sqlite3.OperationalError:
            if time.monotonic() >= deadline:
                conn.close()
                raise
            time.sleep(0.005)
    conn.execute("PRAGMA synchronous=NORMAL")
    return conn


def transaction(conn: sqlite3.Connection, body):
    """Run ``body(conn)`` inside one BEGIN IMMEDIATE transaction and
    return its result; any exception rolls the transaction back."""
    conn.execute("BEGIN IMMEDIATE")
    try:
        outcome = body(conn)
        conn.execute("COMMIT")
        return outcome
    except BaseException:
        conn.execute("ROLLBACK")
        raise


class ProcessConnection:
    """This process's :func:`wal_connect` connection to ``path``.

    Calling the holder returns the connection, opening it lazily — and
    again in a forked child, since a connection never crosses ``fork``.
    ``init(conn)`` runs once on every fresh connection (schema creation
    and migration).
    """

    def __init__(self, path: "str | os.PathLike",
                 init: Callable[[sqlite3.Connection], None]) -> None:
        self.path = Path(path)
        self._init = init
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None

    def __call__(self) -> sqlite3.Connection:
        pid = os.getpid()
        if self._conn is None or self._pid != pid:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = wal_connect(self.path)
            self._init(conn)
            self._conn, self._pid = conn, pid
        return self._conn

    def close(self) -> None:
        """Close this process's connection; a parent's is left alone."""
        if self._conn is not None and self._pid == os.getpid():
            self._conn.close()
        self._conn = self._pid = None


# -- files -----------------------------------------------------------------


def unlink(path: "str | os.PathLike") -> None:
    """Remove ``path``; already gone (a racing evictor) is not an error."""
    try:
        os.unlink(path)
    except OSError:
        pass


def atomic_write(path: Path, write: Callable) -> int:
    """Replace ``path`` with what ``write(handle)`` puts in a binary
    temp file next to it; returns the size in bytes.

    Readers see the old file or the new one, never a partial one.  The
    temp file is fsynced before the rename, so a machine crash cannot
    leave the name pointing at unwritten data.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
            size = handle.tell()
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        unlink(tmp)
        raise
    return size


def parse_line(line: "str | bytes") -> dict | None:
    """One JSONL line as a ``dict``; ``None`` for a blank, torn or
    garbage line (anything that is not one JSON object)."""
    try:
        record = json.loads(line)
    except ValueError:  # JSONDecodeError and UnicodeDecodeError alike
        return None
    return record if isinstance(record, dict) else None


# -- journals --------------------------------------------------------------

JOURNAL_FORMAT = 1

DURABILITY_LEVELS = ("record", "batch")

#: Group-commit triggers: fsync at most this many records / this much
#: wall-clock behind the last append.
BATCH_RECORDS = 64
BATCH_SECONDS = 0.25


def _check_durability(durability: str) -> None:
    if durability not in DURABILITY_LEVELS:
        raise ValueError(
            f"unknown journal durability {durability!r}; "
            f"expected one of {DURABILITY_LEVELS}")


def _dumps(record: Mapping[str, object]) -> str:
    return json.dumps(record, separators=(",", ":"))


def load_journal(path: Path) -> dict[str, dict]:
    """Records by content key; tolerates torn/garbage lines and re-keyed
    duplicates (last record wins, matching append order)."""
    records: dict[str, dict] = {}
    if not path.exists():
        return records
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            record = parse_line(line)
            if record is not None and "key" in record:  # not meta
                records[str(record["key"])] = record
    return records


class JournalWriter:
    """Append records to one journal under a durability policy.

    Wraps the raw file handle so the two fsync disciplines (see module
    docstring) share one call site.  Also usable as a context manager;
    :meth:`close` always drains the pending batch first.
    """

    def __init__(self, handle, *, durability: str = "record") -> None:
        _check_durability(durability)
        self._handle = handle
        self.durability = durability
        self._pending = 0
        self._last_sync = time.monotonic()

    @property
    def pending(self) -> int:
        """Records written but not yet fsynced (always 0 for "record")."""
        return self._pending

    def append(self, key: str, payload: Mapping[str, object]) -> None:
        """Append one ``{"key": ..., **payload}`` record.

        Always writes and flushes (torn-tail safe against process
        death); fsyncs per the durability policy.
        """
        self._handle.write(_dumps({"key": key, **payload}) + "\n")
        self._handle.flush()
        self._pending += 1
        if (self.durability == "record"
                or self._pending >= BATCH_RECORDS
                or time.monotonic() - self._last_sync >= BATCH_SECONDS):
            self.sync()

    def sync(self) -> None:
        """Force the pending batch to disk."""
        if self._pending:
            os.fsync(self._handle.fileno())
            self._pending = 0
        self._last_sync = time.monotonic()

    def fileno(self) -> int:
        return self._handle.fileno()

    def close(self) -> None:
        if self._handle.closed:
            return
        self.sync()
        self._handle.close()

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_journal(path: Path, kind: str, *,
                 durability: str = "record") -> JournalWriter:
    """Open ``path`` for appending; write the meta line when fresh and
    repair a torn (newline-less) tail left by a killed writer.  An
    unknown ``durability`` raises before anything is created."""
    _check_durability(durability)
    path.parent.mkdir(parents=True, exist_ok=True)
    fresh = not path.exists()
    torn_tail = False
    if not fresh:
        with open(path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            if handle.tell() > 0:
                handle.seek(-1, os.SEEK_END)
                torn_tail = handle.read(1) != b"\n"
    handle = open(path, "a", encoding="utf-8")
    if fresh:
        handle.write(json.dumps({"format": JOURNAL_FORMAT,
                                 "kind": kind}) + "\n")
        handle.flush()
    elif torn_tail:
        handle.write("\n")
        handle.flush()
    return JournalWriter(handle, durability=durability)


@dataclass(frozen=True)
class CompactionResult:
    """What one :func:`compact_journal` pass did."""

    kept: int      #: records surviving (one per distinct key)
    dropped: int   #: superseded duplicates + garbage/torn lines removed
    bytes_before: int
    bytes_after: int

    @property
    def changed(self) -> bool:
        return self.dropped > 0 or self.bytes_after != self.bytes_before


def compact_journal(path: str | os.PathLike,
                    kind: str | None = None) -> CompactionResult:
    """Rewrite ``path`` keeping only the last record per key.

    The replacement goes through :func:`atomic_write` with an fsync, so
    a crash mid-compaction leaves either the old journal or the new one
    — never a torn hybrid.  The meta line is preserved (``kind``
    overrides the recorded kind when given; a journal that never had
    one gets a fresh meta line).  A missing journal is a no-op.
    """
    path = Path(path)
    if not path.exists():
        return CompactionResult(0, 0, 0, 0)
    bytes_before = path.stat().st_size
    records: dict[str, str] = {}
    record_lines = 0
    garbage = 0
    meta_kind = kind
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = parse_line(line)
            if record is None:
                garbage += 1  # torn/garbage line: compacted away
            elif "key" in record:
                record_lines += 1
                records[str(record["key"])] = _dumps(record)
            elif "format" in record or "kind" in record:
                if meta_kind is None and isinstance(record.get("kind"), str):
                    meta_kind = record["kind"]
                # meta line: re-emitted once below
            else:
                garbage += 1  # keyless non-meta object: compacted away
    meta = {"format": JOURNAL_FORMAT}
    if meta_kind is not None:
        meta["kind"] = meta_kind
    text = "".join(line + "\n" for line in
                   (json.dumps(meta), *records.values()))
    bytes_after = atomic_write(
        path, lambda out: out.write(text.encode("utf-8")))
    return CompactionResult(
        kept=len(records),
        dropped=(record_lines - len(records)) + garbage,
        bytes_before=bytes_before,
        bytes_after=bytes_after)
