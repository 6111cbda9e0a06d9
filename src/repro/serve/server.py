"""The asyncio job server: HTTP/JSON in front, a process pool behind.

One :class:`JobServer` owns five things:

* a stdlib-only HTTP/1.1 API (``asyncio.start_server`` + hand-rolled
  parsing) with keep-alive connections — ``Connection:`` headers are
  honored and requests loop per connection — plus a chunked
  server-sent-event stream per job, so any client from ``curl`` to
  :class:`repro.serve.client.ServeClient` can talk to it;
* a persistent :class:`~concurrent.futures.ProcessPoolExecutor` every
  job shards its work onto — many concurrent jobs multiplex one pool;
* an :class:`~repro.pipeline.store.IndexedArtifactStore` under
  ``<state_dir>/store`` shared by all workers, so every stage artifact
  and candidate evaluation any job ever computed warms every later job;
* a :class:`~repro.serve.jobs.LeaseStore` — the shared SQLite queue at
  ``<state_dir>/queue.sqlite``.  Every server pointed at the same
  ``state_dir`` drains the same queue: jobs are claimed inside
  ``BEGIN IMMEDIATE`` transactions that stamp ``(server_id,
  lease_deadline)``, heartbeats extend live leases, and an expired
  lease (owner crashed) makes the job claimable by any surviving
  server, whose content-keyed resume journal replay makes the re-run
  warm — kill -9 of any server loses nothing;
* one table of the jobs *this* server claimed: a
  :class:`~repro.serve.jobs.Job` record each, holding the task that
  runs the job, its live counters and its bounded event feed.  The
  queue row stays the job's only lifecycle state.

Endpoints (JSON unless noted)::

    GET  /health                     liveness + cluster job counts
    GET  /stats                      store/pool/job statistics
    GET  /jobs                       every job in the cluster
    POST /jobs                       {"kind": "explore"|"optimize",
                                      "params": {...}} -> job snapshot
    GET  /jobs/<id>?since=<seq>      snapshot + events past <seq>
    GET  /jobs/<id>/events           text/event-stream (SSE): live
                                     point/pareto/best/state events,
                                     Last-Event-ID resume
    POST /jobs/<id>/cancel           cooperative cancellation
    POST /maintenance                journal compaction + store GC
    POST /shutdown                   graceful stop (leases released)

Incremental results stream through the per-job event feed: ``point``
events as sweep points finish (journal-resumed ones first), ``pareto``
events with the current non-dominated front, ``best`` events as the
optimizer improves, one terminal ``state`` event at the end.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
import traceback
import uuid
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro.durable import compact_journal, unlink
from repro.pipeline.config import FlowConfig
from repro.pipeline.explore import (
    ExplorationPoint,
    ExplorationResult,
    journal_point,
    load_point_journal,
    open_point_journal,
    plan_jobs,
    run_chunk,
)
from repro.pipeline.store import IndexedArtifactStore
from repro.serve.jobs import (
    QUEUE_NAME,
    Job,
    JobError,
    JobRow,
    JobState,
    LeaseStore,
    UnknownJobError,
)
from repro.serve.work import read_progress, run_optimize_job

SERVER_NAME = "repro-serve/2"

#: How often (seconds) a running optimize job's progress file is polled.
PROGRESS_POLL_S = 0.05

#: Keep-alive: how long an idle connection may wait for its next
#: request line before the server closes it.
IDLE_TIMEOUT_S = 75.0

#: Whole-request deadline: request line seen -> headers + body fully
#: read.  A client trickling headers (slowloris) is cut off here.
REQUEST_TIMEOUT_S = 30.0

#: SSE comment-frame interval, so proxies and client socket timeouts
#: see traffic on a quiet stream.
SSE_KEEPALIVE_S = 15.0

#: Records of finished jobs a server keeps, oldest dropped first.  A
#: dropped job's feed reads as aged out: an empty feed with
#: ``events_dropped`` set, and a ``gap`` before the SSE terminal state.
MAX_FINISHED_JOBS = 256

MAX_HEADERS = 64
MAX_HEADER_BYTES = 8192
MAX_BODY_BYTES = 8 * 1024 * 1024


def _reap(future) -> None:
    """Swallow the outcome of an abandoned future (cancelled job)."""
    if not future.cancelled():
        future.exception()


class _ForkGate:
    """Keeps this process's pool forks apart from its servers' SQLite
    calls: a child forked while another thread is inside SQLite can
    inherit one of SQLite's mutexes held and hang in its first connect."""

    def __init__(self) -> None:
        self._idle = threading.Condition()
        self._calls = 0

    def run(self, fn, *args, **kwargs):
        with self._idle:
            self._calls += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with self._idle:
                self._calls -= 1
                self._idle.notify_all()

    def fork(self, pool: ProcessPoolExecutor) -> None:
        """Fork ``pool``'s workers (under fork start, its first submit
        forks them all) while no SQLite call is in flight."""
        with self._idle:
            self._idle.wait_for(lambda: not self._calls)
            pool.submit(int)


_FORK_GATE = _ForkGate()


class JobServer:
    """Async multi-tenant exploration/optimization server.

    Any number of instances (threads or processes) may share one
    ``state_dir``; they coordinate through the lease queue and the
    artifact store alone.  ``lease_s`` is the crash-detection horizon:
    a job whose owner misses heartbeats for that long is re-claimed.

    A server claims one job ahead of its pool: while its last task
    runs, the next job is claimed and its tasks queue behind it, so the
    workers never idle through the claim and setup in between.  Such a
    job already reports ``running`` while it waits for a worker, and
    it waits at most for the tasks that were running when it was
    claimed (for a single-task ``optimize`` job, one whole search).
    """

    def __init__(self, state_dir: "str | Path", host: str = "127.0.0.1",
                 port: int = 0, workers: int = 2,
                 max_store_entries: int = 65536,
                 chunk_size: int = 1,
                 maintenance_interval: float = 0.0,
                 server_id: str | None = None,
                 lease_s: float = 30.0) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.maintenance_interval = maintenance_interval
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.journal_dir = self.state_dir / "journals"
        self.journal_dir.mkdir(exist_ok=True)
        self.host = host
        self.port = port
        self.workers = workers
        self.chunk_size = max(1, chunk_size)
        self.server_id = server_id or f"srv-{uuid.uuid4().hex[:8]}"
        self.lease_s = float(lease_s)
        self.idle_timeout_s = IDLE_TIMEOUT_S
        self.request_timeout_s = REQUEST_TIMEOUT_S
        self.sse_keepalive_s = SSE_KEEPALIVE_S
        self.store = IndexedArtifactStore(self.state_dir / "store",
                                          max_entries=max_store_entries)
        self.queue = LeaseStore(self.state_dir / QUEUE_NAME,
                                lease_s=lease_s)
        self.pool: ProcessPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._tasks: set[asyncio.Task] = set()
        #: One record per claimed job.  A record moves to the end when
        #: its job finishes; the oldest finished ones beyond
        #: MAX_FINISHED_JOBS are dropped.
        self._jobs: dict[str, Job] = {}
        #: Pool tasks submitted and not yet ended (running or queued).
        self._pool_tasks = 0
        self._waiters: dict[str, set[asyncio.Event]] = {}
        self._connections: set[asyncio.StreamWriter] = set()
        self._claim_event = asyncio.Event()
        self._claim_poll = max(0.05, min(1.0, self.lease_s / 4.0))
        self._stopping = asyncio.Event()
        self._killed = False
        self._loop: asyncio.AbstractEventLoop | None = None
        # Queue/store I/O runs off the event loop on this one thread;
        # maintenance gets its own so compaction never queues behind —
        # or blocks — claim and submit traffic.
        self._io = ThreadPoolExecutor(max_workers=1,
                                      thread_name_prefix="serve-io")
        self._mx = ThreadPoolExecutor(max_workers=1,
                                      thread_name_prefix="serve-mx")
        self._maintenance_lock: asyncio.Lock | None = None

    def _q(self, fn, *args, **kwargs):
        """Run one queue/store operation on the I/O thread."""
        return self._loop.run_in_executor(
            self._io, lambda: _FORK_GATE.run(fn, *args, **kwargs))

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> "JobServer":
        """Bind, start the worker pool and the claim/heartbeat loops."""
        self._loop = asyncio.get_running_loop()
        self._maintenance_lock = asyncio.Lock()
        self.pool = ProcessPoolExecutor(max_workers=self.workers)
        # Fork the workers before any thread of this server uses SQLite.
        _FORK_GATE.fork(self.pool)
        # A dead predecessor that ran under the same --server-id (a
        # stable identity is the documented fleet setup) left running
        # rows stamped with our name.  claim() never self-steals and
        # the heartbeat only extends jobs we actually run, so re-queue
        # them now — nothing of ours is live yet — or they would sit
        # "running" until some *other* server outlives their lease.
        await self._q(self.queue.release, self.server_id)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        for coro in (self._claim_loop(), self._heartbeat_loop()):
            task = self._loop.create_task(coro)
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        if self.maintenance_interval > 0:
            task = self._loop.create_task(self._maintenance_loop())
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        return self

    async def _maintenance_loop(self) -> None:
        """Periodic journal compaction + store GC (``repro serve``
        housekeeping; also available on demand via POST /maintenance)."""
        while True:
            await asyncio.sleep(self.maintenance_interval)
            await self._maintenance_async()

    async def serve_forever(self) -> None:
        """Run until :meth:`shutdown` (or POST /shutdown)."""
        await self._stopping.wait()

    async def shutdown(self) -> None:
        """Stop accepting, cancel in-flight jobs, release their leases
        back to the queue (a peer picks them up warm), free the pool."""
        if self._server is not None:
            self._server.close()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        for writer in list(self._connections):
            try:
                writer.close()
            except Exception:  # noqa: BLE001 - already-dead transport
                pass
        if self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
            self.pool = None
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if not self._killed:
            try:
                _FORK_GATE.run(self.queue.release, self.server_id)
            except Exception:  # noqa: BLE001 - shutdown best-effort
                pass
        _FORK_GATE.run(self.store.close)
        _FORK_GATE.run(self.queue.close)
        self._io.shutdown(wait=False)
        self._mx.shutdown(wait=False)
        self._stopping.set()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    # -- claiming and leases ---------------------------------------------

    async def _claim_loop(self) -> None:
        """Drain the shared queue, one job ahead of the pool: claim
        while every claimed job has sent its tasks to the pool and at
        most ``workers`` of those tasks are outstanding — that is, while
        no task of this server waits for a worker.  The next job's tasks
        are then queued before the last running task ends, and a server
        whose own tasks already wait leaves new jobs to idle peers.
        Wakes instantly on local job submissions, pool submissions and
        task completions, and polls on a short interval for peers'
        submissions and expired leases."""
        while True:
            try:
                while (all(job.submitted for job in self._live())
                       and self._pool_tasks <= self.workers):
                    row = await self._q(self.queue.claim, self.server_id)
                    if row is None:
                        break
                    job = Job.claimed(row)
                    self._schedule(job)
                    # Followers that attached while the job was queued
                    # switch to its live local feed now.
                    self._push(job, {"type": "state",
                                     "state": JobState.RUNNING.value})
                self._claim_event.clear()
                # A timer, not wait_for: 3.11's wait_for can drop a cancel
                # that lands as the event fires, and shutdown hangs on us.
                poll = self._loop.call_later(self._claim_poll,
                                             self._claim_event.set)
                try:
                    await self._claim_event.wait()
                finally:
                    poll.cancel()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - the loop must survive
                await asyncio.sleep(self._claim_poll)

    async def _heartbeat_loop(self) -> None:
        """Extend the leases of the jobs this server is actually
        running — never every row stamped with its name, so a zombie
        row from a crashed same-id predecessor expires on schedule —
        and abandon any job whose lease was lost (another server owns
        it now; running on would duplicate work and clobber nothing,
        but burn the pool for no reason).  Each beat also mirrors the
        feed high-water seq onto the row, so a later re-claim rebases
        the event sequence past everything our clients saw."""
        while True:
            await asyncio.sleep(self.lease_s / 3.0)
            live = self._live()
            if not live:
                continue
            try:
                owned = set(await self._q(
                    self.queue.heartbeat, self.server_id,
                    {job.id: job.last_seq for job in live}))
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - retry next beat
                continue
            for job in live:
                if job.id not in owned:
                    self._abandon(job)

    def _live(self) -> list[Job]:
        """Records of the jobs this server is running."""
        return [job for job in self._jobs.values() if not job.task.done()]

    def _abandon(self, job: Job) -> None:
        """Stop work on a job whose lease this server lost.

        No terminal event: the job is alive under its new owner, and a
        local ``cancelled`` would read as the job's end to stream
        followers.  SSE streams are woken instead; they notice
        ``abandoned`` and fall back to the queue-row state stream (the
        new owner has the full feed)."""
        if job.task.done():
            return  # finished: nothing left to stop
        job.abandoned = True
        job.task.cancel()
        self._wake(job.id)

    # -- job scheduling --------------------------------------------------

    def _schedule(self, job: Job) -> None:
        """Enter a just-claimed job's record and start its task."""
        self._jobs[job.id] = job
        job.task = self._loop.create_task(self._run_job(job))
        self._tasks.add(job.task)

        def _done(task) -> None:
            self._tasks.discard(task)
            if self._jobs.get(job.id) is job:  # not replaced by a re-claim
                del self._jobs[job.id]
                self._jobs[job.id] = job
                finished = [record.id for record in self._jobs.values()
                            if record.task.done()]
                for job_id in finished[:-MAX_FINISHED_JOBS]:
                    del self._jobs[job_id]
            self._wake(job.id)
            self._claim_event.set()

        job.task.add_done_callback(_done)

    def _run_in_pool(self, job: Job, fn, arg) -> asyncio.Future:
        """Submit one task of ``job`` to the pool: the one way work
        reaches the workers, so the claim rule's counts stay exact."""
        job.submitted = True
        self._claim_event.set()
        task = self.pool.submit(fn, arg)
        self._pool_tasks += 1
        # Counted down when the task itself ends, not when the job
        # stops waiting for it: a cancelled job's running task still
        # holds its worker.
        task.add_done_callback(self._pool_task_ended)
        return asyncio.wrap_future(task, loop=self._loop)

    def _pool_task_ended(self, _task) -> None:
        """Done-callback of a pool task; runs on whichever thread ended
        it (the pool's, or the loop's when a cancel ends it)."""
        def ended() -> None:
            self._pool_tasks -= 1
            self._claim_event.set()

        try:
            self._loop.call_soon_threadsafe(ended)
        except RuntimeError:
            pass  # the loop has closed: nothing is left to claim for

    async def _run_job(self, job: Job) -> None:
        try:
            if await self._cancelled(job):
                return
            if job.kind == "explore":
                await self._run_explore(job)
            else:
                await self._run_optimize(job)
        except asyncio.CancelledError:
            # Shutdown or a lost lease, not a job failure: the queue row
            # (released, or re-claimed by the new owner) stays live and
            # the journals make the next run warm.
            raise
        except Exception as error:  # noqa: BLE001 - job isolation boundary
            detail = "".join(traceback.format_exception_only(error)).strip()
            await self._finish(job, JobState.FAILED, error=detail)

    async def _finish(self, job: Job, state: JobState, *,
                      error: str | None = None,
                      result: dict | None = None) -> None:
        """The one terminal write: the lease-guarded queue row, then the
        feed's terminal ``state`` event (whose seq the row records).  A
        server that lost the lease abandons the run instead."""
        if await self._q(self.queue.finish, job.id, self.server_id, state,
                         error=error, result=result,
                         completed=job.completed, resumed=job.resumed,
                         total=job.total, last_seq=job.last_seq + 1):
            self._push(job, {"type": "state", "state": state.value,
                             **({"error": error} if error else {})})
        else:
            self._abandon(job)

    async def _cancelled(self, job: Job) -> bool:
        """Local cancel flag, or — checked at chunk boundaries and once
        per claim poll between them — the cluster-wide flag a cancel
        sent to any peer set on the row."""
        if job.abandoned:
            return True
        if not job.cancel_requested:
            row = await self._q(self.queue.get, job.id)
            if row is not None:
                if row.cancel_requested:
                    job.cancel_requested = True
                elif (row.state == JobState.RUNNING.value
                        and row.server_id != self.server_id):
                    # Lease lost between heartbeats: abandon quietly —
                    # no terminal event (the job lives on under its new
                    # owner), and the ownership guard voids our queue
                    # writes anyway.
                    self._abandon(job)
                    return True
        if job.cancel_requested:
            await self._finish(job, JobState.CANCELLED)
            return True
        return False

    # -- explore jobs ----------------------------------------------------

    @staticmethod
    def _explore_config(params: dict) -> FlowConfig:
        from repro.core.pm_pass import PMOptions

        return FlowConfig(
            pm=PMOptions(
                ordering=params.get("ordering", "output_first"),
                partial=bool(params.get("partial", False)),
                enabled=not params.get("no_pm", False)),
            scheduler=params.get("scheduler", "list"),
            label=params.get("label", "serve"))

    async def _run_explore(self, job: Job) -> None:
        params = job.params
        circuits = params["circuits"]
        budgets = params["budgets"]
        sim_vectors = int(params.get("sim_vectors", 0))
        config = self._explore_config(params)
        planned = plan_jobs(circuits, budgets, [config], sim_vectors)
        job.total = len(planned)

        journal_path = self.journal_dir / f"{job.key}.jsonl"
        completed = load_point_journal(journal_path)
        points: dict[int, ExplorationPoint] = {}
        pending = []
        for index, key, spec, cfg, n_sim in planned:
            if key in completed:
                points[index] = completed[key]
            else:
                pending.append((index, key, spec, cfg, n_sim))
        job.resumed = len(planned) - len(pending)
        job.completed = job.resumed
        for index in sorted(points):
            self._push(job, {
                "type": "point", "resumed": True,
                "point": points[index].to_dict()})
        if points:
            self._push_pareto(job, points)
        await self._q(self.queue.progress, job.id, self.server_id,
                      completed=job.completed, resumed=job.resumed,
                      total=job.total, last_seq=job.last_seq)

        # A non-positive chunk_size used to slice empty chunks and drop
        # every planned point on the floor; _validate_params 400s the
        # obvious garbage and this clamp catches the rest.
        chunk_size = max(1, int(params.get("chunk_size", self.chunk_size)))
        chunks = [pending[i:i + chunk_size]
                  for i in range(0, len(pending), chunk_size)]
        # Crash recovery hinges on this journal: fsync every point.
        journal = open_point_journal(journal_path, durability="record")
        futures: set = set()
        try:
            futures = {self._run_in_pool(job, run_chunk, (self.store, chunk))
                       for chunk in chunks}
            while futures:
                if await self._cancelled(job):
                    for future in futures:
                        future.cancel()
                    await asyncio.gather(*futures, return_exceptions=True)
                    return
                # The timeout re-reads the cancel flag of a job whose
                # chunks wait for a worker (or run long); a cancelled
                # job pushes no point after the cancel.
                done, futures = await asyncio.wait(
                    futures, timeout=self._claim_poll,
                    return_when=asyncio.FIRST_COMPLETED)
                if not done or job.cancel_requested:
                    futures |= done
                    continue
                for future in done:
                    for index, key, point in future.result():
                        points[index] = point
                        journal_point(journal, key, point)
                        # Pool workers do the lookups; /stats reports
                        # them from here.
                        self.store.stats.hits += point.store_hits
                        self.store.stats.misses += point.store_misses
                        job.completed += 1
                        self._push(job, {
                            "type": "point", "resumed": False,
                            "point": point.to_dict()})
                    self._push_pareto(job, points)
                await self._q(self.queue.progress, job.id, self.server_id,
                              completed=job.completed,
                              last_seq=job.last_seq)
        finally:
            for future in futures:  # a failed/cancelled job's leftovers
                future.cancel()
                future.add_done_callback(_reap)
            journal.close()
        if await self._cancelled(job):
            return

        result = ExplorationResult(
            points=tuple(points[i] for i in sorted(points)),
            resumed=job.resumed)
        front = result.pareto()
        best = result.best()
        payload = {
            "points": len(result.points),
            "resumed": result.resumed,
            "store_hits": result.store_hits,
            "store_misses": result.store_misses,
            "pareto_size": len(front.points),
            "pareto": [p.to_dict() for p in front.points],
            "best": best.to_dict(),
        }
        await self._finish(job, JobState.DONE, result=payload)

    def _push_pareto(self, job: Job,
                     points: dict[int, ExplorationPoint]) -> None:
        result = ExplorationResult(
            points=tuple(points[i] for i in sorted(points)))
        front = result.pareto()
        self._push(job, {
            "type": "pareto",
            "size": len(front.points),
            "of": len(result.points),
            "points": [
                {"circuit": p.circuit, "n_steps": p.n_steps,
                 "config_label": p.config_label, "area": p.area,
                 "power_reduction_pct": p.power_reduction_pct}
                for p in front.points],
        })

    # -- optimize jobs ---------------------------------------------------

    async def _run_optimize(self, job: Job) -> None:
        from repro.opt.search import SearchSpec

        params = job.params
        search = {spec_field.name: params[spec_field.name]
                  for spec_field in dataclasses.fields(SearchSpec)
                  if spec_field.name in params}
        progress_path = self.journal_dir / f"{job.key}.progress.jsonl"
        unlink(progress_path)  # each run streams afresh
        payload = {
            "circuit": params.get("circuit"),
            "search": search,
            "budgets": list(params["budgets"]),
            "schedulers": list(params.get("schedulers", ["list"])),
            "sim_vectors": int(params.get("sim_vectors", 128)),
            "partial": bool(params.get("partial", False)),
            "store": self.store,
            "journal": str(self.journal_dir / f"{job.key}.jsonl"),
            "progress_path": str(progress_path),
        }
        if "graph" in params:
            payload["graph"] = params["graph"]

        future = self._run_in_pool(job, run_optimize_job, payload)
        offset = 0
        while True:
            records, offset = read_progress(progress_path, offset)
            for record in records:
                job.completed += 1
                self._push(job, {"type": "best", **record})
            if records:
                await self._q(self.queue.progress, job.id, self.server_id,
                              completed=job.completed,
                              last_seq=job.last_seq)
            if future.done():
                break
            if await self._cancelled(job):
                # The pool worker cannot be interrupted mid-search; the
                # job is cancelled from the client's point of view and
                # the worker's journal writes still warm the next run.
                future.cancel()
                future.add_done_callback(_reap)
                return
            await asyncio.sleep(PROGRESS_POLL_S)
        summary = future.result()
        records, offset = read_progress(progress_path, offset)
        for record in records:
            job.completed += 1
            self._push(job, {"type": "best", **record})
        if await self._cancelled(job):
            return
        job.total = summary["evaluations"] + summary["reused"]
        await self._finish(job, JobState.DONE, result=summary)

    # -- maintenance -----------------------------------------------------

    async def _maintenance_async(self) -> dict:
        """Maintenance off the event loop: compaction and store GC are
        blocking file + SQLite I/O that used to freeze every in-flight
        response for their whole duration."""
        async with self._maintenance_lock:
            return await self._loop.run_in_executor(
                self._mx, _FORK_GATE.run, self.maintenance)

    def maintenance(self) -> dict:
        """Compact every journal and garbage-collect the store — the
        upkeep that lets a server instance run indefinitely.

        Journals of queued/running jobs — anywhere in the cluster, not
        just on this server — are skipped: their writers hold open
        append handles, and compaction's atomic replace would strand
        those appends on the unlinked inode.
        """
        active = self.queue.active_keys()
        guarded = {f"{key}.jsonl" for key in active}
        journals = {}
        for path in sorted(self.journal_dir.glob("*.jsonl")):
            if not path.exists():
                continue
            if path.name.endswith(".progress.jsonl"):
                continue  # transient sidecar, not journal-format
            if path.name in guarded:
                journals[path.name] = {"skipped": "job in flight"}
                continue
            outcome = compact_journal(path)
            journals[path.name] = {
                "kept": outcome.kept, "dropped": outcome.dropped,
                "bytes_before": outcome.bytes_before,
                "bytes_after": outcome.bytes_after}
        return {"journals": journals, "store": self.store.gc(),
                "queue": self.queue.checkpoint()}

    async def stats(self) -> dict:
        """``GET /stats``: the queue and the store are read on the I/O
        thread, this server's own counts on the event loop."""
        jobs, store = await self._q(self._shared_stats)
        return {
            "jobs": jobs,
            "server_id": self.server_id,
            "active": len(self._live()),
            "pool_tasks": self._pool_tasks,
            "workers": self.workers,
            "store": store,
        }

    def _shared_stats(self) -> tuple[dict, dict]:
        return self.queue.counts(), {
            "entries": len(self.store),
            "bytes": self.store.total_bytes(),
            "hits": self.store.stats.hits,
            "misses": self.store.stats.misses,
            "evictions": self.store.total_evictions(),
        }

    # -- snapshots and the event feed ------------------------------------

    def _snapshot(self, row: JobRow, since: int | None = None) -> dict:
        """The queue row's view, with this server's live record laid
        over it when this server owns the job.

        Anything else — queued, or another server's — gets an empty
        feed (events live with the owner; follow them over its SSE
        endpoint).  A job that finished here after its record was
        dropped reports its whole feed as aged out.
        """
        view = row.snapshot(since)
        if row.server_id != self.server_id:
            return view
        job = self._jobs.get(row.id)
        if job is None:
            view["last_seq"] = view["events_dropped"] = row.last_seq
            return view
        return job.lay_over(view, since)

    def _push(self, job: Job, event: dict) -> None:
        """Append to a job's feed and wake every SSE stream following
        it."""
        job.push(event)
        self._wake(job.id)

    def _wake(self, job_id: str) -> None:
        for waiter in self._waiters.get(job_id, ()):
            waiter.set()

    # -- HTTP plumbing ---------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        try:
            keep = True
            while keep and not self._stopping.is_set():
                keep = await self._serve_one(reader, writer)
        except asyncio.CancelledError:
            pass  # server shutdown/kill mid-request: drop the connection
        except (ConnectionError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except Exception:  # noqa: BLE001 - never kill the acceptor
            pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _serve_one(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> bool:
        """Read + answer one request; returns False to close the
        connection (error, ``Connection: close``, SSE stream end)."""
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=self.idle_timeout_s)
        except asyncio.TimeoutError:
            return False  # idle keep-alive connection: just close
        except ValueError:
            await self._respond(writer, 431,
                                {"error": "request line too long"},
                                close=True)
            return False
        if not request_line:
            return False  # client went away
        if len(request_line) > MAX_HEADER_BYTES:
            await self._respond(writer, 431,
                                {"error": "request line too long"},
                                close=True)
            return False
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            await self._respond(writer, 400,
                                {"error": "malformed request line"},
                                close=True)
            return False
        method, target = parts[0].upper(), parts[1]
        version = parts[2].upper() if len(parts) > 2 else "HTTP/1.1"

        # Everything after the request line — headers and body — reads
        # under one deadline: a trickling client can no longer pin a
        # connection (and its buffers) open forever.
        try:
            headers, raw, problem = await asyncio.wait_for(
                self._read_rest(reader), timeout=self.request_timeout_s)
        except asyncio.TimeoutError:
            await self._respond(writer, 408,
                                {"error": "request read timeout"},
                                close=True)
            return False
        except ValueError:
            await self._respond(writer, 431,
                                {"error": "header line too long"},
                                close=True)
            return False
        if problem is not None:
            await self._respond(writer, problem[0], problem[1], close=True)
            return False

        keep = headers.get("connection", "").lower() != "close"
        if version == "HTTP/1.0":
            keep = headers.get("connection", "").lower() == "keep-alive"

        body = {}
        if raw:
            try:
                body = json.loads(raw)
            except json.JSONDecodeError:
                await self._respond(
                    writer, 400,
                    {"error": "request body is not valid JSON"},
                    close=not keep)
                return keep
            if not isinstance(body, dict):
                await self._respond(
                    writer, 400,
                    {"error": "request body must be a JSON object"},
                    close=not keep)
                return keep

        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = {name: values[-1]
                 for name, values in parse_qs(url.query).items()}

        segments = path.split("/")
        if (method == "GET" and len(segments) == 4
                and segments[1] == "jobs" and segments[3] == "events"):
            try:
                await self._stream_events(writer, segments[2], headers,
                                          query)
            except (ConnectionError, BrokenPipeError):
                pass
            return False  # the stream consumed the connection

        try:
            status, payload = await self._route(method, path, query, body)
        except Exception:  # noqa: BLE001 - response boundary
            status, payload = 500, {"error": "internal server error"}
        await self._respond(writer, status, payload, close=not keep)
        if path == "/shutdown":
            return False
        return keep

    async def _read_rest(self, reader: asyncio.StreamReader):
        """Headers + raw body; returns ``(headers, raw, problem)``."""
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if len(line) > MAX_HEADER_BYTES:
                return headers, b"", (431,
                                      {"error": "header line too long"})
            if len(headers) >= MAX_HEADERS:
                return headers, b"", (431, {"error": "too many headers"})
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            content_length = int(headers.get("content-length", "0"))
        except ValueError:
            return headers, b"", (400, {"error": "bad content-length"})
        if content_length < 0:
            return headers, b"", (400, {"error": "bad content-length"})
        if content_length > MAX_BODY_BYTES:
            return headers, b"", (413,
                                  {"error": "request body too large"})
        raw = b""
        if content_length:
            raw = await reader.readexactly(content_length)
        return headers, raw, None

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: dict, close: bool) -> None:
        data = json.dumps(payload).encode("utf-8")
        connection = "close" if close else "keep-alive"
        writer.write(
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Server: {SERVER_NAME}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {connection}\r\n\r\n".encode("ascii"))
        writer.write(data)
        await writer.drain()

    # -- routing ---------------------------------------------------------

    async def _route(self, method: str, path: str, query: dict,
                     body: dict) -> tuple[int, dict]:
        try:
            if path == "/health" and method == "GET":
                counts = await self._q(self.queue.counts)
                return 200, {"ok": True, "server_id": self.server_id,
                             "jobs": counts}
            if path == "/stats" and method == "GET":
                return 200, await self.stats()
            if path == "/jobs" and method == "GET":
                rows = await self._q(self.queue.jobs)
                return 200, {"jobs": [self._snapshot(row)
                                      for row in rows]}
            if path == "/jobs" and method == "POST":
                return await self._submit(body)
            if path.startswith("/jobs/"):
                return await self._job_route(method, path, query)
            if path == "/maintenance" and method == "POST":
                return 200, await self._maintenance_async()
            if path == "/shutdown" and method == "POST":
                self._loop.call_soon(
                    lambda: self._loop.create_task(self.shutdown()))
                return 200, {"ok": True, "stopping": True}
        except UnknownJobError as error:
            return 404, {"error": f"unknown job {error.args[0]!r}"}
        except JobError as error:
            return 400, {"error": str(error)}
        return 404, {"error": f"no route {method} {path}"}

    async def _submit(self, body: dict) -> tuple[int, dict]:
        kind = body.get("kind")
        params = body.get("params", {})
        problem = _validate_params(kind, params)
        if problem:
            return 400, {"error": problem}
        row, created = await self._q(self.queue.submit, kind, params)
        self._claim_event.set()
        return (201 if created else 200), self._snapshot(row)

    async def _job_route(self, method: str, path: str,
                         query: dict) -> tuple[int, dict]:
        parts = path.split("/")  # ['', 'jobs', '<id>', ...rest]
        job_id = parts[2]
        rest = parts[3:]
        row = await self._q(self.queue.get, job_id)
        if row is None:
            raise UnknownJobError(job_id)
        if not rest and method == "GET":
            since = None
            if "since" in query:
                try:
                    since = int(query["since"])
                except ValueError:
                    return 400, {"error": "since must be an integer"}
            return 200, self._snapshot(row, since=since)
        if rest == ["cancel"] and method == "POST":
            outcome = await self._q(self.queue.request_cancel, job_id)
            job = self._jobs.get(job_id)
            if job is not None:
                # Seen at the run's next check, which finishes the row.
                job.cancel_requested = True
            row = await self._q(self.queue.get, job_id) or row
            return 200, {"ok": True, "immediate": outcome == "immediate",
                         **self._snapshot(row)}
        return 404, {"error": f"no route {method} {path}"}

    # -- server-sent events ----------------------------------------------

    async def _stream_events(self, writer: asyncio.StreamWriter,
                             job_id: str, headers: dict,
                             query: dict) -> None:
        """``GET /jobs/<id>/events``: chunked ``text/event-stream``.

        Local jobs stream their feed live (woken by every push, no
        polling); ``Last-Event-ID`` (or ``?last_event_id=``) resumes
        past already-seen events, and a feed gap is surfaced as an
        explicit ``gap`` event.  Jobs owned elsewhere stream
        queue-level ``state`` transitions — follow the owner for the
        full feed.  The stream ends when the job is terminal.
        """
        row = await self._q(self.queue.get, job_id)
        if row is None:
            await self._respond(writer, 404,
                                {"error": f"unknown job {job_id!r}"},
                                close=True)
            return
        since = 0
        raw_since = headers.get("last-event-id") or query.get(
            "last_event_id")
        if raw_since:
            try:
                since = int(raw_since)
            except ValueError:
                await self._respond(
                    writer, 400,
                    {"error": "Last-Event-ID must be an integer"},
                    close=True)
                return
        writer.write((
            "HTTP/1.1 200 OK\r\n"
            f"Server: {SERVER_NAME}\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-store\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n").encode("ascii"))
        await writer.drain()
        # One waiter for the whole stream, set by every push to the job
        # (the claim's ``running`` event included) and cleared as each
        # wait ends: a wake that lands while the stream writes or reads
        # the row ends the next wait at once instead of being lost.
        waiter = asyncio.Event()
        waiters = self._waiters.setdefault(job_id, set())
        waiters.add(waiter)
        try:
            last_remote_state = None
            while True:
                row = await self._q(self.queue.get, job_id)
                if row is None:
                    break
                job = self._jobs.get(job_id)
                if job is not None and row.server_id == self.server_id:
                    since = await self._stream_local(writer, job, since,
                                                     waiter)
                    row = await self._q(self.queue.get, job_id)
                    if row is None or row.server_id == self.server_id:
                        break  # finished here: terminal state sent
                    continue  # lease moved mid-stream: fall back to remote
                if row.state != last_remote_state:
                    if (row.terminal and row.server_id == self.server_id
                            and row.last_seq > since):
                        # Finished here, its record since dropped.
                        self._write_frame(writer, None, "gap", {
                            "type": "gap", "dropped": row.last_seq - since})
                    self._write_frame(writer, None, "state", {
                        "type": "state", "state": row.state,
                        "completed": row.completed,
                        "server_id": row.server_id})
                    await writer.drain()
                    last_remote_state = row.state
                if row.terminal:
                    break
                # A peer's progress shows only on the row: re-read it
                # each claim poll, at once when this server claims it.
                await self._woken(waiter, self._claim_poll)
        finally:
            waiters.discard(waiter)
            if not waiters:
                self._waiters.pop(job_id, None)
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    async def _stream_local(self, writer: asyncio.StreamWriter, job: Job,
                            since: int, waiter: asyncio.Event) -> int:
        """Stream a local job's feed until its run ends — or until
        this server loses the job's lease, so a client attached to a
        deposed server falls back to the queue-row stream instead of
        hanging on keep-alives forever; returns the last seq sent (for
        the remote fallback's resume)."""
        while True:
            events, dropped = job.events_since(since)
            if dropped:
                self._write_frame(writer, None, "gap",
                                  {"type": "gap", "dropped": dropped})
            for event in events:
                since = event["seq"]
                self._write_frame(writer, event["seq"],
                                  event.get("type", "event"), event)
            if events or dropped:
                await writer.drain()
            if job.task.done() or job.abandoned:
                return since
            if not await self._woken(waiter, self.sse_keepalive_s):
                self._write_chunk(writer, b": keep-alive\n\n")
                await writer.drain()
                # Belt and braces for a heartbeat that cannot reach
                # the queue: notice a moved lease ourselves.
                row = await self._q(self.queue.get, job.id)
                if row is None or row.server_id != self.server_id:
                    return since

    @staticmethod
    async def _woken(waiter: asyncio.Event, timeout: float) -> bool:
        """Wait for ``waiter`` at most ``timeout`` seconds; ``False`` if
        the time ran out.  Clears it, so each wake is seen once."""
        try:
            await asyncio.wait_for(waiter.wait(), timeout=timeout)
            return True
        except asyncio.TimeoutError:
            return False
        finally:
            waiter.clear()

    def _write_frame(self, writer: asyncio.StreamWriter,
                     eid: int | None, event_type: str,
                     data: dict) -> None:
        text = ""
        if eid is not None:
            text += f"id: {eid}\n"
        text += f"event: {event_type}\n"
        text += f"data: {json.dumps(data, separators=(',', ':'))}\n\n"
        self._write_chunk(writer, text.encode("utf-8"))

    @staticmethod
    def _write_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
        writer.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")


_REASONS = {200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
            408: "Request Timeout",
            413: "Payload Too Large", 431: "Request Header Fields Too Large",
            500: "Internal Server Error"}


def _validate_params(kind, params) -> str | None:
    """Cheap request-shape validation; deep problems fail the job with
    a recorded error instead of a 400."""
    if kind not in ("explore", "optimize"):
        return f"kind must be 'explore' or 'optimize', got {kind!r}"
    if not isinstance(params, dict):
        return "params must be a JSON object"
    if "sim_backend" in params:
        return ("params.sim_backend was removed: the simulation engine "
                "is chosen per call")
    budgets = params.get("budgets")
    if kind == "explore":
        circuits = params.get("circuits")
        if (not isinstance(circuits, list) or not circuits
                or not all(isinstance(c, str) for c in circuits)):
            return "params.circuits must be a non-empty list of circuit names"
        if isinstance(budgets, dict):
            if not all(isinstance(v, list) and v for v in budgets.values()):
                return "params.budgets map needs a non-empty list per circuit"
        elif not (isinstance(budgets, list) and budgets):
            return "params.budgets must be a non-empty list (or per-circuit map)"
        sim_vectors = params.get("sim_vectors", 0)
        if isinstance(sim_vectors, bool) or not isinstance(sim_vectors, int) \
                or sim_vectors < 0:
            return "params.sim_vectors must be a non-negative integer"
        chunk = params.get("chunk_size")
        if chunk is not None and (isinstance(chunk, bool)
                                  or not isinstance(chunk, int)
                                  or chunk < 1):
            return "params.chunk_size must be a positive integer"
    else:
        if not isinstance(params.get("circuit"), str) \
                and "graph" not in params:
            return "params.circuit must name a circuit (or pass params.graph)"
        if not (isinstance(budgets, list) and budgets):
            return "params.budgets must be a non-empty list"
    return None


# -- embedding helpers ---------------------------------------------------


class ServerHandle:
    """A server running on a background thread (tests, benches, CLI
    helpers).  ``stop()`` is graceful and idempotent."""

    def __init__(self, server: JobServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(
                lambda: self._loop.create_task(self.server.shutdown()))
        self._thread.join(timeout)

    def kill(self, timeout: float = 30.0) -> None:
        """Hard stop: abandon in-flight jobs without marking them
        terminal or releasing their leases, as a crash would.  What
        survives is exactly what a killed process leaves: the journals
        and the queue rows, whose leases expire on their own."""
        self.server._killed = True  # shutdown then releases nothing
        self.stop(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_in_thread(state_dir: "str | Path", **kwargs) -> ServerHandle:
    """Start a :class:`JobServer` on a daemon thread; returns once the
    port is bound."""
    started = threading.Event()
    holder: dict[str, object] = {}

    async def _main() -> None:
        server = JobServer(state_dir, **kwargs)
        await server.start()
        holder["server"] = server
        holder["loop"] = asyncio.get_running_loop()
        started.set()
        try:
            await server.serve_forever()
        finally:
            if server._server is not None or server.pool is not None:
                await server.shutdown()

    def _runner() -> None:
        try:
            asyncio.run(_main())
        except Exception as error:  # pragma: no cover - startup failure
            holder["error"] = error
            started.set()

    thread = threading.Thread(target=_runner, name="repro-serve",
                              daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):
        raise RuntimeError("job server failed to start within 30s")
    if "error" in holder:
        raise RuntimeError("job server failed to start") \
            from holder["error"]  # type: ignore[call-arg]
    return ServerHandle(holder["server"], holder["loop"], thread)
