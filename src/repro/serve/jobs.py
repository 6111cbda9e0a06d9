"""Job identity, this server's record of a claimed job, and the shared
lease queue.

A job is a client's request — an ``explore`` sweep or an ``optimize``
search.  Its one lifecycle lives on its :class:`LeaseStore` row::

    queued ──> running ──> done
       │          ├──────> failed
       └──────────┴──────> cancelled

The server that claims a job keeps one :class:`Job` record of it: the
task running it, live counters, and a monotonically-sequenced event
feed (finished points, Pareto fronts, optimizer best-so-far) that
clients poll incrementally with ``?since=<seq>`` or follow live over
the server's SSE endpoint.  The record has no state of its own; the
queue row is the only state machine.

Identity is content-addressed: :func:`job_content_key` digests
``(kind, params)``, and the job's resume journal lives under that key —
so resubmitting the same request after a crash (or on a warm store)
replays journaled work instead of recomputing it, and two clients
submitting the identical request while it is in flight share one job.

Multi-server deployments coordinate through :class:`LeaseStore`: a
WAL-mode SQLite queue (``<state>/queue.sqlite``) every server sharing
one ``state_dir`` drains together.  Submissions insert queue rows
(content-key dedup is cluster-wide), servers claim work inside
``BEGIN IMMEDIATE`` transactions that stamp ``(server_id,
lease_deadline)`` on the row, heartbeats extend live leases, and a
lease that expires — the owning server crashed or stalled — makes the
row claimable again.  The content-keyed resume journals make the
re-claimed job warm, so kill -9 of any server loses no finished work.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from repro.durable import ProcessConnection, transaction

JOB_KINDS = ("explore", "optimize")

#: Per-job event-feed memory bound; older events age out of the feed
#: (the count survives on ``events_dropped`` so pollers can tell).
MAX_EVENTS = 4096

#: How far a re-claimed job's event sequence jumps past the queue row's
#: mirrored high-water mark.  The mirror (progress/heartbeat writes)
#: can lag the dead owner's live feed by the events pushed since its
#: last write; a full ring of headroom keeps every new seq above
#: anything a client of the dead owner can have seen, so old
#: ``Last-Event-ID``/``since`` cursors stay valid — at worst they see
#: an explicit ``gap`` followed by the new owner's replay, never a
#: silent skip.
SEQ_REBASE_MARGIN = MAX_EVENTS


class JobError(Exception):
    """Base class for job bookkeeping errors."""


class UnknownJobError(JobError, KeyError):
    """No job with that id."""


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL


_TERMINAL = {JobState.DONE, JobState.FAILED, JobState.CANCELLED}


def job_content_key(kind: str, params: dict) -> str:
    """Stable identity of one request: same (kind, params) — across
    submissions, clients, and server restarts — same key, same journal.
    """
    payload = json.dumps({"kind": kind, "params": params}, sort_keys=True,
                         separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


@dataclass(eq=False)
class Job:
    """This server's record of one job it claimed.

    Made fresh from the row at each claim (:meth:`claimed`): the feed's
    sequence continues from the row's ``last_seq``, which
    :meth:`LeaseStore.claim` rebased past the previous owner's
    high-water mark on a re-claim, so a client cursor from the old
    owner's feed is always *behind* the new feed and resumes with an
    explicit gap + replay instead of silently filtering the new
    owner's events out.  The run is over when ``task`` is done.
    """

    id: str
    kind: str
    params: dict
    key: str
    last_seq: int = 0
    cancel_requested: bool = False
    #: The asyncio task running the job.
    task: "asyncio.Task | None" = None
    #: Whether the job has sent a task to the pool yet.
    submitted: bool = False
    #: Set when this server lost the job's lease: work stops, and no
    #: terminal event is pushed — the job is alive under its new
    #: owner, whose queue row is now the truth.
    abandoned: bool = False
    #: Work units when known (the explore grid size; optimize leaves it
    #: unset until the evaluation count arrives with the result).
    total: int | None = None
    completed: int = 0
    resumed: int = 0
    events: deque = field(default_factory=lambda: deque(maxlen=MAX_EVENTS))
    events_dropped: int = 0

    @classmethod
    def claimed(cls, row: "JobRow") -> "Job":
        return cls(id=row.id, kind=row.kind, params=dict(row.params),
                   key=row.key, last_seq=int(row.last_seq),
                   cancel_requested=bool(row.cancel_requested))

    def push(self, event: dict) -> int:
        """Append one event to the feed; returns its seq."""
        self.last_seq += 1
        if len(self.events) == self.events.maxlen:
            self.events_dropped += 1
        self.events.append({"seq": self.last_seq, **event})
        return self.last_seq

    def events_since(self, since: int) -> tuple[list[dict], int]:
        """Feed events past ``since`` plus the count that aged out of
        the ring before they could be seen (the gap an honest stream
        must surface instead of silently skipping)."""
        events = [e for e in self.events if e["seq"] > since]
        dropped = 0
        if events and events[0]["seq"] > since + 1:
            dropped = events[0]["seq"] - since - 1
        return events, dropped

    def lay_over(self, view: dict, since: int | None = None) -> dict:
        """Lay this record's live counters and feed over its row's
        :meth:`JobRow.snapshot`."""
        view.update(total=self.total, completed=self.completed,
                    resumed=self.resumed, last_seq=self.last_seq,
                    events_dropped=self.events_dropped)
        if since is not None:
            view["events"] = self.events_since(since)[0]
        return view


# -- the shared lease queue ----------------------------------------------


TERMINAL_STATES = tuple(state.value for state in _TERMINAL)

ACTIVE_STATES = (JobState.QUEUED.value, JobState.RUNNING.value)

QUEUE_NAME = "queue.sqlite"

QUEUE_FORMAT = 2

_QUEUE_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id TEXT PRIMARY KEY,
    n INTEGER NOT NULL UNIQUE,
    key TEXT NOT NULL,
    kind TEXT NOT NULL,
    params TEXT NOT NULL,
    state TEXT NOT NULL DEFAULT 'queued',
    error TEXT,
    result TEXT,
    total INTEGER,
    completed INTEGER NOT NULL DEFAULT 0,
    resumed INTEGER NOT NULL DEFAULT 0,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    server_id TEXT,
    lease_deadline REAL,
    claims INTEGER NOT NULL DEFAULT 0,
    last_seq INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs(state, n);
CREATE INDEX IF NOT EXISTS jobs_by_key ON jobs(key);
CREATE TABLE IF NOT EXISTS qmeta (
    k TEXT PRIMARY KEY,
    v INTEGER NOT NULL
);
INSERT OR IGNORE INTO qmeta (k, v) VALUES ('format', {format});
INSERT OR IGNORE INTO qmeta (k, v) VALUES ('n', 0);
""".format(format=QUEUE_FORMAT)


def _init_queue(conn) -> None:
    """Create the queue schema; migrate a format-1 queue in place."""
    conn.executescript(_QUEUE_SCHEMA)
    have = {row[1] for row in conn.execute("PRAGMA table_info(jobs)")}
    if "last_seq" not in have:
        conn.execute("ALTER TABLE jobs ADD COLUMN last_seq INTEGER "
                     "NOT NULL DEFAULT 0")


_ROW_COLUMNS = ("id, n, key, kind, params, state, error, result, total, "
                "completed, resumed, cancel_requested, server_id, "
                "lease_deadline, claims, last_seq")


@dataclass(frozen=True)
class JobRow:
    """One queue row: the cluster-wide truth about a job."""

    id: str
    n: int
    key: str
    kind: str
    params: dict
    state: str
    error: str | None
    result: dict | None
    total: int | None
    completed: int
    resumed: int
    cancel_requested: bool
    server_id: str | None
    lease_deadline: float | None
    claims: int
    #: Mirrored feed high-water mark: the owner writes its event seq
    #: here with progress/heartbeat updates, and a re-claim rebases it
    #: (``+ SEQ_REBASE_MARGIN``) so feed seqs never rewind across
    #: owners.
    last_seq: int

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def snapshot(self, since: int | None = None) -> dict:
        """The JSON view every server answers for this job.  The feed
        fields read empty: the feed lives with the job's owner, which
        lays its :class:`Job` record over this view."""
        view = {
            "id": self.id,
            "kind": self.kind,
            "key": self.key,
            "state": self.state,
            "error": self.error,
            "total": self.total,
            "completed": self.completed,
            "resumed": self.resumed,
            "cancel_requested": self.cancel_requested,
            "result": self.result,
            "server_id": self.server_id,
            "claims": self.claims,
            "last_seq": 0,
            "events_dropped": 0,
        }
        if since is not None:
            view["events"] = []
        return view


def _row(raw) -> JobRow:
    return JobRow(
        id=raw[0], n=raw[1], key=raw[2], kind=raw[3],
        params=json.loads(raw[4]), state=raw[5], error=raw[6],
        result=json.loads(raw[7]) if raw[7] else None,
        total=raw[8], completed=raw[9], resumed=raw[10],
        cancel_requested=bool(raw[11]), server_id=raw[12],
        lease_deadline=raw[13], claims=raw[14], last_seq=raw[15])


class LeaseStore:
    """The shared job queue N servers drain over one ``state_dir``.

    Every mutation is one SQLite transaction against a WAL database,
    so any number of server processes (or threads) coordinate through
    the filesystem alone:

    * :meth:`submit` dedups in-flight requests cluster-wide by content
      key and assigns the job id;
    * :meth:`claim` picks the oldest claimable row — ``queued``, or
      ``running`` with an expired lease — inside ``BEGIN IMMEDIATE``,
      stamping ``(server_id, lease_deadline)`` before returning, so two
      servers can never claim the same job;
    * :meth:`heartbeat` extends the leases of exactly the jobs the
      caller says it is running — never every row stamped with its
      name, so a server restarted under the same identity cannot keep
      a dead predecessor's leases fresh — and reports which of them it
      still owns (a lost lease means a stalled server should abandon
      the work: someone else owns it now);
    * :meth:`finish` and :meth:`progress` are ownership-guarded: a
      server that lost its lease cannot clobber the re-claimant's row;
    * :meth:`release` re-queues a gracefully-stopping server's running
      jobs immediately, without waiting out their leases.

    ``now`` parameters default to ``time.time()`` and exist so tests
    can drive lease expiry deterministically.
    """

    def __init__(self, path: "str | Path", *,
                 lease_s: float = 30.0) -> None:
        if lease_s <= 0:
            raise ValueError(f"lease_s must be > 0, got {lease_s}")
        self.path = Path(path)
        self.lease_s = float(lease_s)
        # One connection shared across this server's threads (the
        # event loop plus its executor), serialized by self._lock.
        self._lock = threading.Lock()
        self._db = ProcessConnection(self.path, _init_queue)

    def close(self) -> None:
        with self._lock:
            self._db.close()

    def _transaction(self, body):
        with self._lock:
            return transaction(self._db(), body)

    # -- submission ------------------------------------------------------

    def submit(self, kind: str, params: dict) -> tuple[JobRow, bool]:
        """Enqueue one request; returns ``(row, created)``.

        ``created`` is ``False`` when an identical request (same
        content key) is queued or running anywhere in the cluster —
        the callers share that job instead of racing two copies.
        """
        if kind not in JOB_KINDS:
            raise JobError(f"unknown job kind {kind!r}; choose from "
                           f"{JOB_KINDS}")
        if not isinstance(params, dict):
            raise JobError(f"params must be an object, got {type(params)!r}")
        key = job_content_key(kind, params)

        def body(conn):
            raw = conn.execute(
                f"SELECT {_ROW_COLUMNS} FROM jobs WHERE key=? AND state"
                " IN (?, ?) ORDER BY n LIMIT 1",
                (key, *ACTIVE_STATES)).fetchone()
            if raw is not None:
                return _row(raw), False
            conn.execute("UPDATE qmeta SET v = v + 1 WHERE k='n'")
            n = conn.execute(
                "SELECT v FROM qmeta WHERE k='n'").fetchone()[0]
            job_id = f"j-{n}-{key[:8]}"
            conn.execute(
                "INSERT INTO jobs (id, n, key, kind, params) "
                "VALUES (?, ?, ?, ?, ?)",
                (job_id, n, key, kind,
                 json.dumps(params, sort_keys=True, default=str)))
            raw = conn.execute(
                f"SELECT {_ROW_COLUMNS} FROM jobs WHERE id=?",
                (job_id,)).fetchone()
            return _row(raw), True

        return self._transaction(body)

    # -- claiming and leases ---------------------------------------------

    def claim(self, server_id: str,
              now: float | None = None) -> JobRow | None:
        """Claim the oldest claimable job for ``server_id``, or None.

        Claimable: ``queued``, or ``running`` with an expired lease held
        by *another* server (a server never steals a job from itself —
        its own stalled lease still has a live local task behind it).
        Claiming resets the progress counters: the new run re-counts
        journal replays itself.  A *re*-claim also rebases ``last_seq``
        to the mirrored high-water mark plus :data:`SEQ_REBASE_MARGIN`,
        so the new owner's event feed continues strictly above every
        seq the old owner's clients can have seen.
        """
        now = time.time() if now is None else now

        def body(conn):
            raw = conn.execute(
                f"SELECT {_ROW_COLUMNS} FROM jobs WHERE state=? OR "
                "(state=? AND lease_deadline < ? AND server_id != ?) "
                "ORDER BY n LIMIT 1",
                (JobState.QUEUED.value, JobState.RUNNING.value, now,
                 server_id)).fetchone()
            if raw is None:
                return None
            conn.execute(
                "UPDATE jobs SET state=?, server_id=?, lease_deadline=?, "
                "claims=claims+1, completed=0, resumed=0, "
                "last_seq=last_seq + "
                "(CASE WHEN claims > 0 THEN ? ELSE 0 END) WHERE id=?",
                (JobState.RUNNING.value, server_id, now + self.lease_s,
                 SEQ_REBASE_MARGIN, raw[0]))
            fresh = conn.execute(
                f"SELECT {_ROW_COLUMNS} FROM jobs WHERE id=?",
                (raw[0],)).fetchone()
            return _row(fresh)

        return self._transaction(body)

    def heartbeat(self, server_id: str, leases: dict[str, int],
                  now: float | None = None) -> list[str]:
        """Extend the leases on the given jobs; returns the ids among
        them ``server_id`` still owns (missing = re-claimed by a peer).

        ``leases`` maps the ids of the jobs the caller is *actually
        running* to each job's feed high-water ``last_seq``, which is
        mirrored onto the row so a later re-claim can rebase the event
        sequence.  Only the listed rows are touched: a row stamped with
        this ``server_id`` by a crashed predecessor (a server restarted
        under a stable identity) keeps its old deadline, expires on
        schedule, and becomes re-claimable instead of being kept fresh
        forever.
        """
        now = time.time() if now is None else now

        def body(conn):
            return [job_id for job_id, last_seq in leases.items()
                    if conn.execute(
                        "UPDATE jobs SET lease_deadline=?, last_seq=? "
                        "WHERE id=? AND server_id=? AND state=?",
                        (now + self.lease_s, int(last_seq), job_id,
                         server_id, JobState.RUNNING.value)).rowcount]

        return self._transaction(body)

    def release(self, server_id: str) -> int:
        """Re-queue every running job ``server_id`` owns (graceful
        shutdown: no reason to make the peers wait out the lease)."""

        def body(conn):
            return conn.execute(
                "UPDATE jobs SET state=?, server_id=NULL, "
                "lease_deadline=NULL WHERE server_id=? AND state=?",
                (JobState.QUEUED.value, server_id,
                 JobState.RUNNING.value)).rowcount

        return self._transaction(body)

    # -- ownership-guarded progress --------------------------------------

    def progress(self, job_id: str, server_id: str, *,
                 completed: int | None = None,
                 resumed: int | None = None,
                 total: int | None = None,
                 last_seq: int | None = None) -> bool:
        """Mirror live counters (and the event-feed high-water mark)
        onto the row so any server can answer status queries and a
        re-claim can rebase the feed; a no-op unless ``server_id``
        owns the job."""
        return self._update_owned(job_id, server_id, [], [],
                                  completed=completed, resumed=resumed,
                                  total=total, last_seq=last_seq)

    def finish(self, job_id: str, server_id: str, state: JobState, *,
               error: str | None = None, result: dict | None = None,
               completed: int | None = None, resumed: int | None = None,
               total: int | None = None,
               last_seq: int | None = None) -> bool:
        """Terminal transition, guarded by lease ownership.

        Returns ``False`` when ``server_id`` no longer owns the row
        (its lease expired and another server re-claimed the job) —
        the caller must abandon the work, not record it.
        """
        if state not in _TERMINAL:
            raise ValueError(f"finish() needs a terminal state, "
                             f"got {state.value}")
        return self._update_owned(
            job_id, server_id,
            ["state=?", "error=?", "result=?", "lease_deadline=NULL"],
            [state.value, error,
             json.dumps(result) if result is not None else None],
            completed=completed, resumed=resumed, total=total,
            last_seq=last_seq)

    def _update_owned(self, job_id: str, server_id: str, sets: list,
                      values: list, **counters) -> bool:
        """One UPDATE of ``sets`` plus every counter given, applied
        only while ``server_id`` owns the running row."""
        for column, value in counters.items():
            if value is not None:
                sets.append(f"{column}=?")
                values.append(int(value))
        if not sets:
            return False

        def body(conn):
            return conn.execute(
                f"UPDATE jobs SET {', '.join(sets)} WHERE id=? AND "
                "server_id=? AND state=?",
                (*values, job_id, server_id,
                 JobState.RUNNING.value)).rowcount > 0

        return self._transaction(body)

    def request_cancel(self, job_id: str) -> "str | None":
        """Flag a job for cancellation, wherever it runs.

        Returns ``"immediate"`` (was queued — cancelled on the spot),
        ``"cooperative"`` (running — its owner stops at the next chunk
        boundary), ``"noop"`` (already terminal), or ``None`` for an
        unknown id.
        """

        def body(conn):
            raw = conn.execute(
                "SELECT state FROM jobs WHERE id=?", (job_id,)).fetchone()
            if raw is None:
                return None
            state = raw[0]
            if state == JobState.QUEUED.value:
                conn.execute(
                    "UPDATE jobs SET state=?, cancel_requested=1, "
                    "server_id=NULL, lease_deadline=NULL WHERE id=?",
                    (JobState.CANCELLED.value, job_id))
                return "immediate"
            if state == JobState.RUNNING.value:
                conn.execute(
                    "UPDATE jobs SET cancel_requested=1 WHERE id=?",
                    (job_id,))
                return "cooperative"
            return "noop"

        return self._transaction(body)

    # -- lookup ----------------------------------------------------------

    def get(self, job_id: str) -> JobRow | None:
        with self._lock:
            raw = self._db().execute(
                f"SELECT {_ROW_COLUMNS} FROM jobs WHERE id=?",
                (job_id,)).fetchone()
        return _row(raw) if raw is not None else None

    def jobs(self) -> list[JobRow]:
        """Every job in the cluster, oldest first."""
        with self._lock:
            rows = self._db().execute(
                f"SELECT {_ROW_COLUMNS} FROM jobs ORDER BY n").fetchall()
        return [_row(raw) for raw in rows]

    def counts(self) -> dict[str, int]:
        with self._lock:
            rows = self._db().execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"
            ).fetchall()
        return {state: count for state, count in rows}

    def active_keys(self) -> set[str]:
        """Content keys of queued/running jobs anywhere in the cluster
        (their journals must not be compacted under the writers)."""
        with self._lock:
            rows = self._db().execute(
                "SELECT key FROM jobs WHERE state IN (?, ?)",
                ACTIVE_STATES).fetchall()
        return {key for (key,) in rows}

    def checkpoint(self) -> dict[str, int]:
        """Fold the WAL back into the database (maintenance)."""
        with self._lock:
            self._db().execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return self.counts()
