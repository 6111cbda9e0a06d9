"""The multi-server serving tier: lease queue, SSE streams, HTTP caps.

LeaseStore tests drive lease expiry with injected clocks (no sleeps);
the recovery tests run two real servers over one ``state_dir`` and
kill one mid-job; the HTTP tests talk raw sockets to exercise the
keep-alive loop and the slowloris/size guards.
"""

import json
import os
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.durable import open_journal
from repro.pipeline.explore import run_chunk
from repro.serve import jobs as jobs_module
from repro.serve import server as server_module
from repro.serve import (
    EventGapError,
    JobState,
    LeaseStore,
    ServeClient,
    ServeError,
    start_in_thread,
)

EXPLORE = {"circuits": ["gcd"], "budgets": [6, 7]}
PARAMS = {"circuits": ["gcd"], "budgets": [6]}


class _PointGate:
    """``run_chunk`` for forked pool workers: the first chunk runs at
    once, every later one waits (at most a minute) for :meth:`open`.
    The gate is a directory of marker files, so it holds across the
    workers of both servers of a test."""

    root: Path | None = None

    @classmethod
    def run(cls, job):
        try:
            os.close(os.open(cls.root / "gate.first",
                             os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            deadline = time.monotonic() + 60.0
            while not (cls.root / "gate.open").exists() \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
        return run_chunk(job)

    @classmethod
    def open(cls) -> None:
        (cls.root / "gate.open").touch()


@pytest.fixture()
def queue(tmp_path):
    store = LeaseStore(tmp_path / "queue.sqlite", lease_s=10.0)
    yield store
    store.close()


class TestLeaseStore:
    def test_submit_dedups_active_jobs_only(self, queue):
        row, created = queue.submit("explore", PARAMS)
        assert created and row.state == "queued"
        again, created = queue.submit("explore", PARAMS)
        assert not created and again.id == row.id
        queue.claim("a", now=100.0)
        running, created = queue.submit("explore", PARAMS)
        assert not created and running.id == row.id
        assert queue.finish(row.id, "a", JobState.DONE, result={"n": 1})
        fresh, created = queue.submit("explore", PARAMS)
        assert created and fresh.id != row.id
        assert fresh.key == row.key  # same content, same journal

    def test_claim_is_oldest_first_and_lease_stamped(self, queue):
        first, _ = queue.submit("explore", PARAMS)
        second, _ = queue.submit("explore", {"circuits": ["gcd"],
                                             "budgets": [7]})
        claimed = queue.claim("a", now=100.0)
        assert claimed.id == first.id
        assert claimed.server_id == "a"
        assert claimed.lease_deadline == pytest.approx(110.0)
        assert claimed.claims == 1
        assert queue.claim("a", now=100.0).id == second.id
        assert queue.claim("a", now=100.0) is None  # queue drained

    def test_expired_lease_is_reclaimed_but_never_self_stolen(self, queue):
        row, _ = queue.submit("explore", PARAMS)
        queue.claim("a", now=100.0)
        assert queue.claim("b", now=105.0) is None   # lease still live
        assert queue.claim("a", now=200.0) is None   # own lease: no steal
        stolen = queue.claim("b", now=200.0)
        assert stolen.id == row.id
        assert stolen.server_id == "b"
        assert stolen.claims == 2
        assert stolen.completed == 0  # counters reset for the re-run

    def test_heartbeat_extends_leases_and_reports_ownership(self, queue):
        row, _ = queue.submit("explore", PARAMS)
        queue.claim("a", now=100.0)                  # deadline 110
        assert queue.heartbeat("a", {row.id: 0}, now=108.0) == [row.id]
        assert queue.claim("b", now=115.0) is None   # extended to 118
        assert queue.heartbeat("b", {row.id: 0}, now=116.0) == []
        assert queue.claim("b", now=119.0).id == row.id
        assert queue.heartbeat("a", {row.id: 0}, now=119.5) == []  # lost

    def test_heartbeat_extends_only_the_listed_jobs(self, queue):
        # A server restarted under the same --server-id must not keep
        # its dead predecessor's leases fresh: only the jobs the
        # caller actually runs are extended, so the zombie row expires
        # on schedule and any peer can re-claim it.
        mine, _ = queue.submit("explore", PARAMS)
        zombie, _ = queue.submit("explore", {"circuits": ["gcd"],
                                             "budgets": [7]})
        queue.claim("a", now=100.0)
        queue.claim("a", now=100.0)                  # both leased by "a"
        assert queue.heartbeat("a", {mine.id: 0}, now=109.0) == [mine.id]
        stolen = queue.claim("b", now=112.0)
        assert stolen.id == zombie.id                # expired on time
        assert queue.claim("b", now=112.0) is None   # mine was extended

    def test_heartbeat_mirrors_the_feed_high_water(self, queue):
        row, _ = queue.submit("explore", PARAMS)
        queue.claim("a", now=100.0)
        assert queue.heartbeat("a", {row.id: 17}, now=101.0) == [row.id]
        assert queue.get(row.id).last_seq == 17

    def test_reclaim_rebases_the_event_sequence(self, queue):
        from repro.serve.jobs import SEQ_REBASE_MARGIN

        row, _ = queue.submit("explore", PARAMS)
        first = queue.claim("a", now=100.0)
        assert first.last_seq == 0                   # fresh claim: seqs 1..
        assert queue.progress(row.id, "a", completed=3, last_seq=41)
        stolen = queue.claim("b", now=200.0)
        # The new owner's feed starts strictly past anything a client
        # of "a" can have seen, so an old Last-Event-ID/since cursor
        # resumes with an explicit gap + replay — never a silent skip
        # of events whose seqs restarted below the cursor.
        assert stolen.last_seq == 41 + SEQ_REBASE_MARGIN

    def test_finish_and_progress_are_ownership_guarded(self, queue):
        row, _ = queue.submit("explore", PARAMS)
        queue.claim("a", now=100.0)
        assert queue.progress(row.id, "a", completed=3, total=9)
        assert not queue.progress(row.id, "b", completed=99)
        queue.claim("b", now=200.0)                  # a's lease expired
        assert not queue.finish(row.id, "a", JobState.DONE,
                                result={"n": 1})
        assert queue.get(row.id).state == "running"  # a could not clobber
        assert queue.finish(row.id, "b", JobState.DONE, result={"n": 1},
                            completed=9)
        final = queue.get(row.id)
        assert final.state == "done" and final.result == {"n": 1}
        assert final.completed == 9

    def test_release_requeues_without_waiting_out_the_lease(self, queue):
        row, _ = queue.submit("explore", PARAMS)
        queue.claim("a", now=100.0)
        assert queue.release("a") == 1
        requeued = queue.get(row.id)
        assert requeued.state == "queued" and requeued.server_id is None
        assert queue.claim("b", now=100.0).id == row.id  # no expiry wait

    def test_cancel_paths(self, queue):
        row, _ = queue.submit("explore", PARAMS)
        assert queue.request_cancel(row.id) == "immediate"
        assert queue.get(row.id).state == "cancelled"
        other, _ = queue.submit("explore", {"circuits": ["gcd"],
                                            "budgets": [8]})
        queue.claim("a", now=100.0)
        assert queue.request_cancel(other.id) == "cooperative"
        assert queue.get(other.id).cancel_requested
        queue.finish(other.id, "a", JobState.CANCELLED)
        assert queue.request_cancel(other.id) == "noop"
        assert queue.request_cancel("j-404-missing") is None

    def test_counts_and_active_keys(self, queue):
        row, _ = queue.submit("explore", PARAMS)
        other, _ = queue.submit("explore", {"circuits": ["gcd"],
                                            "budgets": [8]})
        queue.claim("a", now=100.0)
        assert queue.counts() == {"queued": 1, "running": 1}
        assert queue.active_keys() == {row.key, other.key}
        queue.finish(row.id, "a", JobState.DONE)
        assert queue.active_keys() == {other.key}

    def test_forked_worker_opens_its_own_connection(self, queue):
        import multiprocessing

        parent, _ = queue.submit("explore", PARAMS)  # parent conn is open
        context = multiprocessing.get_context("fork")
        child = context.Process(
            target=queue.submit,
            args=("explore", {"circuits": ["gcd"], "budgets": [8]}))
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        # The parent's connection sees the child's row and stays usable.
        assert queue.counts() == {"queued": 2}
        assert queue.claim("a", now=100.0).id == parent.id


class TestMultiServerRecovery:
    def test_two_servers_drain_one_queue(self, tmp_path, serve_client):
        state = tmp_path / "state"
        a = start_in_thread(state, workers=1, lease_s=5.0)
        b = start_in_thread(state, workers=1, lease_s=5.0)
        try:
            client = serve_client(a.port)
            jobs = [client.submit("explore", circuits=["gcd"],
                                  budgets=[budget])["id"]
                    for budget in (5, 6, 7, 8)]
            peer = serve_client(b.port)
            finals = [peer.wait(job_id, timeout=180) for job_id in jobs]
            assert all(f["state"] == "done" for f in finals)
            assert all(f["result"]["points"] == 1 for f in finals)
            # Both servers see the same cluster-wide queue.
            assert {j["id"] for j in client.jobs()} == set(jobs)
            assert {j["id"] for j in peer.jobs()} == set(jobs)
        finally:
            a.stop()
            b.stop()

    def test_kill_one_server_survivor_recovers_without_recompute(
            self, tmp_path, monkeypatch, serve_client):
        state = tmp_path / "state"
        # Gate the pool: one point runs, the other 8 wait until the
        # victim is dead, so the kill provably lands mid-job.  Without
        # the gate all 9 points could finish before the kill, leaving
        # nothing for the survivor to re-claim.
        monkeypatch.setattr(_PointGate, "root", tmp_path)
        monkeypatch.setattr(server_module, "run_chunk", _PointGate.run)
        a = start_in_thread(state, workers=2, lease_s=2.0)
        b = start_in_thread(state, workers=2, lease_s=2.0)
        try:
            client = serve_client(a.port)
            params = {"circuits": ["gcd", "dealer", "vender"],
                      "budgets": [5, 6, 7]}
            job = client.submit("explore", **params)
            row = None
            for _ in range(200):  # wait for a server to claim the job
                row = a.server.queue.get(job["id"])
                if row.server_id is not None:
                    break
                time.sleep(0.05)
            assert row is not None and row.server_id is not None
            victim, survivor = ((a, b)
                                if row.server_id == a.server.server_id
                                else (b, a))
            # Let the one ungated point land, then kill the owner.
            owner = serve_client(victim.port)
            for event in owner.stream(job["id"], timeout=120):
                if event["type"] == "point" and not event.get("resumed"):
                    break
            victim.kill()
            _PointGate.open()

            journal = state / "journals" / f"{job['key']}.jsonl"
            with open(journal, encoding="utf-8") as handle:
                banked = sum(1 for _ in handle) - 1  # minus meta line
            assert banked >= 1

            peer = serve_client(survivor.port)
            final = peer.wait(job["id"], timeout=180)
            assert final["state"] == "done"
            assert final["result"]["points"] == 9
            assert final["server_id"] == survivor.server.server_id
            assert final["claims"] >= 2                # lease re-claimed
            assert final["resumed"] == banked          # replayed, not redone
            # Zero recompute: every point was journaled exactly once.
            with open(journal, encoding="utf-8") as handle:
                assert sum(1 for _ in handle) - 1 == 9
        finally:
            _PointGate.open()
            a.stop()
            b.stop()

    def test_restart_with_same_server_id_recovers_own_jobs(
            self, tmp_path, serve_client):
        state = tmp_path / "state"
        # Long lease: recovery must come from the restart itself —
        # start() re-queues rows stamped with its own id — because
        # claim() never self-steals and no peer exists to outwait it.
        a = start_in_thread(state, workers=1, lease_s=300.0,
                            server_id="box-1")
        try:
            client = serve_client(a.port)
            job = client.submit("explore", circuits=["gcd", "dealer"],
                                budgets=[5, 6, 7])
            for event in client.stream(job["id"], timeout=120):
                if event["type"] == "point" and not event.get("resumed"):
                    break
            a.kill()  # row left "running", stamped server_id="box-1"
        finally:
            a.stop()
        b = start_in_thread(state, workers=1, lease_s=300.0,
                            server_id="box-1")
        try:
            final = serve_client(b.port).wait(job["id"], timeout=180)
            assert final["state"] == "done"
            assert final["result"]["points"] == 6
            assert final["resumed"] >= 1  # journaled points replayed
        finally:
            b.stop()

    def test_deposed_server_stream_falls_back_instead_of_hanging(
            self, tmp_path, serve_client):
        state = tmp_path / "state"
        a = start_in_thread(state, workers=1, lease_s=1.0)
        thief = LeaseStore(state / "queue.sqlite", lease_s=60.0)
        try:
            client = serve_client(a.port)
            job = client.submit("explore",
                                circuits=["gcd", "dealer", "vender"],
                                budgets=[5, 6, 7])
            stream = client.stream(job["id"], timeout=120)
            for event in stream:
                if event["type"] == "point":
                    break
            # Steal the lease out from under the live server (as a
            # peer would after a stall) and finish the job as the new
            # owner.  The deposed server's heartbeat notices the loss,
            # abandons its run, and the SSE stream must fall back to
            # the queue-row state stream instead of hanging on
            # keep-alive comments until the client times out.
            stolen = thief.claim("thief", now=time.time() + 3600.0)
            assert stolen is not None and stolen.id == job["id"]
            assert thief.finish(job["id"], "thief", JobState.DONE,
                                result={"points": 0})
            tail = list(stream)  # must terminate well within timeout
            states = [e for e in tail if e["type"] == "state"]
            assert states and states[-1]["state"] == "done"
            assert states[-1]["server_id"] == "thief"
        finally:
            thief.close()
            a.stop()

    def test_graceful_stop_releases_leases_immediately(
            self, tmp_path, serve_client):
        state = tmp_path / "state"
        # Long lease: a released job must NOT wait out the lease.
        a = start_in_thread(state, workers=1, lease_s=120.0)
        client = serve_client(a.port)
        job = client.submit("explore", circuits=["gcd", "dealer"],
                            budgets=[5, 6, 7])
        for event in client.stream(job["id"], timeout=120):
            if event["type"] == "point":
                break
        a.stop()
        b = start_in_thread(state, workers=1, lease_s=120.0)
        try:
            final = serve_client(b.port).wait(job["id"], timeout=180)
            assert final["state"] == "done"
            assert final["result"]["points"] == 6
        finally:
            b.stop()


class TestServerSentEvents:
    def test_sse_matches_feed_snapshot_and_resumes_by_last_event_id(
            self, tmp_path, serve_client):
        handle = start_in_thread(tmp_path / "state", workers=2)
        try:
            client = serve_client(handle.port)
            job = client.submit("explore", **EXPLORE)
            events = list(client.stream(job["id"], timeout=120))
            kinds = [e["type"] for e in events]
            assert kinds.count("point") == 2
            assert "pareto" in kinds
            assert kinds[-1] == "state" and events[-1]["state"] == "done"
            # The SSE stream carries exactly the server's feed.
            feed = client.job(job["id"], since=0)["events"]
            assert [e for e in feed if e["type"] != "state"] == \
                   [e for e in events if e["type"] != "state"]
            # Resume: events up to seq N are not replayed.
            seqs = [e["seq"] for e in events if "seq" in e]
            midpoint = seqs[len(seqs) // 2]
            tail = list(client.stream(job["id"], timeout=60,
                                      since=midpoint))
            assert all(e["seq"] > midpoint for e in tail if "seq" in e)
            assert tail  # the terminal state event always replays
        finally:
            handle.stop()

    def test_sse_streams_remote_jobs_as_state_transitions(
            self, tmp_path, serve_client):
        state = tmp_path / "state"
        a = start_in_thread(state, workers=1, lease_s=5.0)
        b = start_in_thread(state, workers=1, lease_s=5.0)
        try:
            client = serve_client(a.port)
            job = client.submit("explore", **EXPLORE)
            # Follow from whichever server does NOT own the job.
            row = None
            for _ in range(200):
                row = a.server.queue.get(job["id"])
                if row.server_id is not None or row.terminal:
                    break
                time.sleep(0.05)
            follower = serve_client(
                b.port if row.server_id == a.server.server_id
                else a.port)
            events = list(follower.stream(job["id"], timeout=120))
            states = [e["state"] for e in events if e["type"] == "state"]
            assert states[-1] == "done"
        finally:
            a.stop()
            b.stop()

    def test_follower_of_a_queued_job_sees_its_claim_at_once(
            self, tmp_path, serve_client):
        """A stream attached while its job is queued switches to the live
        feed when this server claims the job, not one claim poll later.
        The poll is stretched to 30 s and the claim loop woken by hand, so
        a stream that waited out the poll would be late by tens of
        seconds, not by a margin a slow runner could eat."""
        handle = start_in_thread(tmp_path / "state", workers=1, lease_s=30.0)
        server = handle.server
        server._claim_poll = 30.0
        queue = server.queue
        claim = queue.claim
        gate = threading.Event()
        claimed_at = {}

        def gated_claim(server_id, now=None):
            if not gate.is_set():
                return None
            row = claim(server_id, now)
            if row is not None:
                claimed_at[row.id] = time.perf_counter()
            return row

        queue.claim = gated_claim
        try:
            client = serve_client(handle.port)
            job = client.submit("explore", **EXPLORE)
            seen = {}
            for event in client.stream(job["id"], timeout=120):
                if event["type"] == "state":
                    seen.setdefault(event["state"], time.perf_counter())
                    if not gate.is_set():
                        # Attached and seen queued: allow the claim now.
                        gate.set()
                        server._loop.call_soon_threadsafe(
                            server._claim_event.set)
            assert list(seen) == ["queued", "running", "done"]
            assert seen["running"] - claimed_at[job["id"]] < 5.0
        finally:
            handle.stop()

    def test_event_ring_overflow_surfaces_as_gap(self, tmp_path,
                                                 monkeypatch, serve_client):
        monkeypatch.setattr(jobs_module, "MAX_EVENTS", 2)  # tiny ring
        handle = start_in_thread(tmp_path / "state", workers=1)
        try:
            client = serve_client(handle.port)
            job = client.submit("explore", circuits=["gcd"],
                                budgets=[5, 6, 7])
            client.wait(job["id"], timeout=120)
            # The feed outgrew the ring; a from-zero snapshot shows the
            # hole as a first seq past 1.
            snapshot = client.job(job["id"], since=0)
            dropped = snapshot["events"][0]["seq"] - 1
            assert dropped >= 1
            assert snapshot["events_dropped"] == dropped
            with pytest.raises(EventGapError):
                list(client.stream(job["id"], timeout=60,
                                   raise_on_gap=True))
            # The SSE replay surfaces the same gap.
            sse = list(client.stream(job["id"], timeout=60))
            assert sse[0]["type"] == "gap"
            assert sse[0]["dropped"] == dropped
        finally:
            handle.stop()


def _raw(port: int, payload: bytes, timeout: float = 10.0) -> bytes:
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(payload)
        chunks = []
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except TimeoutError:
            pass
        return b"".join(chunks)


class TestHTTPHardening:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        handle = start_in_thread(tmp_path_factory.mktemp("http-state"),
                                 workers=1)
        yield handle
        handle.stop()

    def test_keep_alive_serves_many_requests_per_connection(self, served):
        request = (b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
        with socket.create_connection(("127.0.0.1", served.port),
                                      timeout=10.0) as sock:
            reader = sock.makefile("rb")
            for _ in range(3):
                sock.sendall(request)
                status = reader.readline()
                assert b"200" in status
                length = 0
                while True:
                    line = reader.readline()
                    if line in (b"\r\n", b""):
                        break
                    name, _, value = line.decode().partition(":")
                    if name.lower() == "connection":
                        assert value.strip() == "keep-alive"
                    if name.lower() == "content-length":
                        length = int(value)
                body = reader.read(length)
                assert json.loads(body)["ok"] is True

    def test_connection_close_is_honored(self, served):
        raw = _raw(served.port,
                   b"GET /health HTTP/1.1\r\nHost: x\r\n"
                   b"Connection: close\r\n\r\n")
        head = raw.split(b"\r\n\r\n", 1)[0].lower()
        assert b"connection: close" in head  # and recv saw EOF

    def test_slowloris_header_trickle_times_out(self, served):
        served.server.request_timeout_s = 0.4
        try:
            start = time.monotonic()
            raw = _raw(served.port,
                       b"GET /health HTTP/1.1\r\nHost: x\r\n"
                       b"X-Trickle: never-finished")  # no terminator
            elapsed = time.monotonic() - start
            assert b"408" in raw.split(b"\r\n", 1)[0]
            assert elapsed < 5.0
        finally:
            served.server.request_timeout_s = 30.0

    def test_header_count_cap(self, served):
        headers = b"".join(b"X-H%d: v\r\n" % i for i in range(80))
        raw = _raw(served.port,
                   b"GET /health HTTP/1.1\r\n" + headers + b"\r\n")
        assert b"431" in raw.split(b"\r\n", 1)[0]

    def test_header_line_size_cap(self, served):
        raw = _raw(served.port,
                   b"GET /health HTTP/1.1\r\nX-Big: " + b"a" * 9000
                   + b"\r\n\r\n")
        assert b"431" in raw.split(b"\r\n", 1)[0]

    def test_oversized_body_is_rejected(self, served):
        raw = _raw(served.port,
                   b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                   b"Content-Length: 999999999\r\n\r\n")
        assert b"413" in raw.split(b"\r\n", 1)[0]

    def test_chunk_size_validation(self, served, serve_client):
        client = serve_client(served.port)
        for bad in (0, -3, "2", True):
            with pytest.raises(ServeError) as err:
                client.submit("explore", circuits=["gcd"], budgets=[6],
                              chunk_size=bad)
            assert err.value.status == 400
        job = client.submit("explore", circuits=["gcd"], budgets=[5, 6],
                            chunk_size=2)
        final = client.wait(job["id"], timeout=120)
        assert final["result"]["points"] == 2  # no point dropped

    def test_maintenance_guard_matches_journals_exactly(self, tmp_path):
        # No started server (no claim loop): the queued row stays
        # queued, so its journal is deterministically "in flight".
        from repro.serve import JobServer

        server = JobServer(tmp_path / "state", workers=1)
        try:
            row, _ = server.queue.submit(
                "explore", {"circuits": ["zz-no-claim"], "budgets": [1]})
            # A sibling journal whose name merely STARTS with the active
            # key must still be compacted; only <key>.jsonl is guarded.
            active = server.journal_dir / f"{row.key}.jsonl"
            sibling = server.journal_dir / f"{row.key}-old.jsonl"
            for path in (active, sibling):
                open_journal(path, "explore-points").close()
            report = server.maintenance()
            assert report["journals"][active.name] == {
                "skipped": "job in flight"}
            assert "kept" in report["journals"][sibling.name]
            assert "queue" in report
        finally:
            server.queue.close()
            server.store.close()


class TestConcurrentSubmitters:
    def test_racing_identical_submissions_share_one_row(self, tmp_path):
        queue = LeaseStore(tmp_path / "queue.sqlite", lease_s=10.0)
        ids: list[str] = []
        created_flags: list[bool] = []
        lock = threading.Lock()

        def submitter():
            row, created = queue.submit("explore", PARAMS)
            with lock:
                ids.append(row.id)
                created_flags.append(created)

        threads = [threading.Thread(target=submitter) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(ids)) == 1
        assert created_flags.count(True) == 1
        queue.close()


def _until(predicate, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.02)


def _points(client: ServeClient, job_id: str) -> list[str]:
    """A finished job's points, minus the fields a re-run may change."""
    volatile = ("config_label", "cache_hits", "cache_misses",
                "store_hits", "store_misses")
    events = client.job(job_id, since=0)["events"]
    return sorted(json.dumps({k: v for k, v in e["point"].items()
                              if k not in volatile}, sort_keys=True)
                  for e in events if e["type"] == "point")


class TestClaimAhead:
    """A server claims its next job while its last task still runs, so
    the job's tasks wait in the pool instead of the pool waiting on the
    claim; it claims nothing while one of its own tasks waits."""

    FIRST = {"circuits": ["gcd"], "budgets": [6, 7], "sim_vectors": 16}
    NEXT = {"circuits": ["dealer"], "budgets": [4, 5], "sim_vectors": 16}

    @pytest.fixture()
    def gate(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_PointGate, "root", tmp_path)
        monkeypatch.setattr(server_module, "run_chunk", _PointGate.run)
        yield _PointGate
        _PointGate.open()

    def _waiting_behind_held_chunk(self, client):
        """FIRST runs its first chunk and holds its second; NEXT is
        claimed meanwhile and queues both its chunks behind it."""
        first = client.submit("explore", **self.FIRST)
        _until(lambda: client.job(first["id"])["completed"] == 1)
        waiting = client.submit("explore", **self.NEXT)
        _until(lambda: client.stats()["pool_tasks"] == 3)
        return first, waiting

    def test_next_job_runs_before_the_last_task_ends(self, tmp_path,
                                                     gate, serve_client):
        a = start_in_thread(tmp_path / "state", workers=1, lease_s=5.0)
        try:
            client = serve_client(a.port)
            first, waiting = self._waiting_behind_held_chunk(client)
            snapshot = client.job(waiting["id"])
            assert snapshot["state"] == "running"
            assert snapshot["server_id"] == a.server.server_id
            assert client.job(first["id"])["state"] == "running"
            gate.open()
            assert client.wait(first["id"], timeout=120)["state"] == "done"
            assert client.wait(waiting["id"], timeout=120)["state"] == "done"
            together = _points(client, waiting["id"])
            assert client.stats()["pool_tasks"] == 0
        finally:
            a.stop()
        alone = start_in_thread(tmp_path / "alone", workers=1)
        try:
            client = serve_client(alone.port)
            job = client.submit("explore", **self.NEXT)
            assert client.wait(job["id"], timeout=120)["state"] == "done"
            assert together == _points(client, job["id"])
        finally:
            alone.stop()

    def test_stats_count_the_live_records(self, tmp_path, gate, serve_client):
        a = start_in_thread(tmp_path / "state", workers=1, lease_s=5.0)
        try:
            client = serve_client(a.port)
            first, waiting = self._waiting_behind_held_chunk(client)
            assert client.stats()["active"] == 2
            gate.open()
            for job in (first, waiting):
                assert client.wait(job["id"], timeout=120)["state"] == "done"
            _until(lambda: client.stats()["active"] == 0)
        finally:
            a.stop()

    def test_server_with_waiting_tasks_leaves_new_jobs_to_its_peer(
            self, tmp_path, gate, serve_client):
        (tmp_path / "gate.first").touch()  # hold every chunk
        state = tmp_path / "state"
        x = start_in_thread(state, workers=1, lease_s=1.0)
        y = None
        try:
            cx = serve_client(x.port)
            held = cx.submit("explore", circuits=["gcd"], budgets=[5, 6, 7])
            _until(lambda: cx.stats()["pool_tasks"] == 3)
            y = start_in_thread(state, workers=1, lease_s=1.0)
            spill = cx.submit("explore", circuits=["dealer"], budgets=[4])
            _until(lambda: cx.job(spill["id"])["server_id"] is not None)
            time.sleep(2.5 * x.server._claim_poll)
            assert cx.job(spill["id"])["server_id"] == y.server.server_id
            assert cx.job(held["id"])["server_id"] == x.server.server_id
            assert cx.stats()["pool_tasks"] == 3
            gate.open()
            assert cx.wait(held["id"], timeout=120)["state"] == "done"
            assert cx.wait(spill["id"], timeout=120)["state"] == "done"
        finally:
            gate.open()
            x.stop()
            if y is not None:
                y.stop()

    def test_cancelling_a_job_that_waits_for_a_worker(
            self, tmp_path, gate, serve_client):
        a = start_in_thread(tmp_path / "state", workers=1, lease_s=1.0)
        try:
            client = serve_client(a.port)
            first, waiting = self._waiting_behind_held_chunk(client)
            client.cancel(waiting["id"])
            # The gate is still shut: the cancel lands while the job's
            # chunks wait.  Chunks the pool already dispatched to its
            # call queue cannot be cancelled; they run, and are dropped.
            final = client.wait(waiting["id"], timeout=30)
            assert final["state"] == "cancelled"
            gate.open()
            assert client.wait(first["id"], timeout=120)["state"] == "done"
            third = client.submit("explore", circuits=["vender"],
                                  budgets=[5])
            assert client.wait(third["id"], timeout=120)["state"] == "done"
            events = client.job(waiting["id"], since=0)["events"]
            assert [e for e in events if e["type"] == "point"] == []
            _until(lambda: client.stats()["pool_tasks"] == 0)
        finally:
            a.stop()

    def test_graceful_stop_requeues_running_and_waiting_jobs(
            self, tmp_path, gate, serve_client):
        state = tmp_path / "state"
        # Long lease: only the release on stop can requeue the jobs.
        a = start_in_thread(state, workers=1, lease_s=120.0)
        try:
            first, waiting = self._waiting_behind_held_chunk(
                serve_client(a.port))
        finally:
            a.stop()
        queue = LeaseStore(state / "queue.sqlite", lease_s=120.0)
        try:
            for job in (first, waiting):
                row = queue.get(job["id"])
                assert row.state == "queued" and row.server_id is None
        finally:
            queue.close()

    def test_pool_task_count_returns_to_zero(self, tmp_path, serve_client):
        a = start_in_thread(tmp_path / "state", workers=1, lease_s=1.0)
        try:
            client = serve_client(a.port)
            cancelled = client.submit("explore", circuits=["gcd"],
                                      budgets=[5, 6, 7, 8, 9])
            for event in client.stream(cancelled["id"], timeout=120):
                if event["type"] == "point":
                    break
            client.cancel(cancelled["id"])
            jobs = [
                cancelled,
                client.submit("explore", **EXPLORE),
                # Below gcd's critical path: the chunk raises.
                client.submit("explore", circuits=["gcd"], budgets=[2]),
                # No budgets for the circuit: fails before any task.
                client.submit("explore", circuits=["gcd"],
                              budgets={"dealer": [4]}),
            ]
            states = [client.wait(job["id"], timeout=120,
                                  raise_on_failure=False)["state"]
                      for job in jobs]
            assert states == ["cancelled", "done", "failed", "failed"]
            _until(lambda: client.stats()["pool_tasks"] == 0)
            # Nothing claimed is left unsubmitted: the server claims on.
            last = client.submit("explore", circuits=["vender"], budgets=[5])
            assert client.wait(last["id"], timeout=120)["state"] == "done"
            stats = client.stats()
            assert stats["pool_tasks"] == 0 and stats["active"] == 0
        finally:
            a.stop()


class TestJobRecords:
    """A server keeps one record per claimed job; the queue row is the
    job's only lifecycle state."""

    def test_cancel_before_the_first_step_ends_the_row(
            self, tmp_path, serve_client):
        """A cancel that lands between the claim and the job's first step
        still ends the row ``cancelled``: the run sees the flag and makes
        the one terminal write, instead of leaving the row ``running``
        under its owner (which never re-claims it)."""
        handle = start_in_thread(tmp_path / "state", workers=1, lease_s=2.0)
        server = handle.server
        run_job = server._run_job

        async def cancel_then_run(job):
            # The whole cancel route runs after the claim, before the
            # job's first step.
            await server._route("POST", f"/jobs/{job.id}/cancel", {}, {})
            server._run_job = run_job
            await run_job(job)

        server._run_job = cancel_then_run
        try:
            client = serve_client(handle.port)
            job = client.submit("explore", **PARAMS)
            assert client.wait(job["id"], timeout=10)["state"] == "cancelled"
            assert "running" not in client.health()["jobs"]
            again = client.submit("explore", **PARAMS)
            assert again["id"] != job["id"]  # a new job, not the old one
            assert client.wait(again["id"], timeout=120)["state"] == "done"
        finally:
            handle.stop()

    def test_finished_records_are_bounded_and_age_out_as_a_gap(
            self, tmp_path, monkeypatch, serve_client):
        monkeypatch.setattr(server_module, "MAX_FINISHED_JOBS", 2)
        handle = start_in_thread(tmp_path / "state", workers=1)
        records = handle.server._jobs
        try:
            client = serve_client(handle.port)
            ids = []
            for budget in (5, 6, 7, 8):
                job = client.submit("explore", circuits=["gcd"],
                                    budgets=[budget])
                assert client.wait(job["id"], timeout=120)["state"] == "done"
                _until(lambda: len(records) <= 2)
                ids.append(job["id"])
            _until(lambda: list(records) == ids[2:])
            # The oldest job's record is gone: its feed reads as aged
            # out, never as silently empty.
            oldest = client.job(ids[0], since=0)
            assert oldest["state"] == "done"
            assert oldest["events"] == [] and oldest["events_dropped"] > 0
            sse = list(client.stream(ids[0], timeout=60))
            assert [e["type"] for e in sse] == ["gap", "state"]
            assert sse[0]["dropped"] == oldest["events_dropped"]
            assert sse[1]["state"] == "done"
            with pytest.raises(EventGapError):
                list(client.stream(ids[0], timeout=60, raise_on_gap=True))
            # A kept record still answers with its whole feed.
            newest = client.job(ids[-1], since=0)
            assert newest["events_dropped"] == 0
            assert [e["type"] for e in newest["events"]][::len(
                newest["events"]) - 1] == ["state", "state"]
        finally:
            handle.stop()
