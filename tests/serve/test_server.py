"""JobServer end-to-end: HTTP API, concurrency, crash recovery.

Every test runs a real server (background thread, ephemeral port, a
private process pool) and drives it through :class:`ServeClient` — the
same path the CLI and the smoke bench use.
"""

import threading
import time

import pytest

from repro.pipeline.explore import load_point_journal
from repro.serve import ServeClient, ServeError, start_in_thread
from repro.serve.server import _ForkGate

EXPLORE = {"circuits": ["gcd"], "budgets": [6, 7]}
OPTIMIZE = {"circuit": "gcd", "budgets": [6], "driver": "random",
            "iters": 6, "seed": 3, "sim_vectors": 16}


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One server shared by the module's read-mostly tests."""
    state = tmp_path_factory.mktemp("serve-state")
    handle = start_in_thread(state, workers=2)
    client = ServeClient(port=handle.port)
    yield state, handle, client
    client.close()
    handle.stop()


class TestAPI:
    def test_health_and_stats(self, served):
        _, _, client = served
        assert client.health()["ok"] is True
        stats = client.stats()
        assert stats["workers"] == 2
        assert "entries" in stats["store"]

    def test_explore_job_streams_points_and_pareto(self, served):
        _, _, client = served
        job = client.submit("explore", **EXPLORE)
        events = list(client.stream(job["id"], timeout=120))
        kinds = [e["type"] for e in events]
        assert kinds.count("point") == 2
        assert "pareto" in kinds
        assert kinds[-1] == "state" and events[-1]["state"] == "done"
        final = client.job(job["id"])
        assert final["result"]["points"] == 2
        assert final["result"]["pareto_size"] >= 1
        assert final["total"] == 2 and final["completed"] == 2

    def test_resubmit_after_done_resumes_from_journal(self, served):
        _, _, client = served
        first = client.wait(client.submit("explore", **EXPLORE)["id"],
                            timeout=120)
        again = client.submit("explore", **EXPLORE)
        assert again["id"] != first["id"]  # new job...
        final = client.wait(again["id"], timeout=120)
        assert final["resumed"] == 2       # ...but zero recomputes
        assert final["result"]["points"] == 2

    def test_optimize_job_reports_best(self, served):
        _, _, client = served
        job = client.submit("optimize", **OPTIMIZE)
        events = list(client.stream(job["id"], timeout=120))
        assert any(e["type"] == "best" and "score" in e for e in events)
        final = client.job(job["id"])
        assert final["result"]["evaluations"] > 0
        assert "outcome" in final["result"]

    def test_portfolio_job_streams_pareto_archives(self, served):
        _, _, client = served
        job = client.submit("optimize", circuit="gcd", budgets=[6, 7],
                            driver="portfolio", iters=20, seed=3,
                            workers=1, sim_vectors=16)
        events = list(client.stream(job["id"], timeout=120))
        archives = [e for e in events if e["type"] == "pareto"]
        assert archives  # the evolving archive streams live
        assert all("round" in e and e["size"] >= 1 for e in archives)
        assert all(e["front"] for e in archives)
        final = client.job(job["id"])
        result = final["result"]
        assert result["pareto_size"] >= 1
        assert result["outcome"]["pareto"]
        assert result["evaluations"] > 0
        # Warm resubmission: the record-durability journal serves every
        # evaluation, and the hit counters surface in the summary.
        again = client.wait(client.submit(
            "optimize", circuit="gcd", budgets=[6, 7],
            driver="portfolio", iters=20, seed=3, workers=1,
            sim_vectors=16)["id"], timeout=120)
        warm = again["result"]
        assert warm["outcome"] == result["outcome"]
        assert warm["evaluations"] == 0
        assert warm["resumed"] > 0
        assert warm["memo_hits"] > 0

    def test_identical_inflight_submissions_share_a_job(self, served):
        _, _, client = served
        params = {"circuits": ["vender"], "budgets": [6, 7, 8]}
        first = client.submit("explore", **params)
        second = client.submit("explore", **params)
        assert second["id"] == first["id"]
        client.wait(first["id"], timeout=120)

    def test_bad_requests_are_400s(self, served):
        _, _, client = served
        with pytest.raises(ServeError) as err:
            client.submit("explore", circuits=[], budgets=[6])
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.submit("frobnicate", circuits=["gcd"], budgets=[6])
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.job("j-999-deadbeef")
        assert err.value.status == 404

    @pytest.mark.parametrize("bad", [-5, 2.5, True, "16"])
    def test_bad_sim_vectors_is_400(self, served, bad):
        """A negative count used to run a job that simulated nothing."""
        _, _, client = served
        with pytest.raises(ServeError) as err:
            client.submit("explore", circuits=["gcd"], budgets=[7],
                          sim_vectors=bad)
        assert err.value.status == 400
        assert "params.sim_vectors" in str(err.value)

    @pytest.mark.parametrize("kind,params", [
        ("explore", {"circuits": ["gcd"], "budgets": [6],
                     "sim_vectors": 0}),
        ("explore", {"circuits": ["gcd"], "budgets": [6],
                     "sim_vectors": 16}),
        ("optimize", {"circuit": "gcd", "budgets": [6]}),
    ])
    @pytest.mark.parametrize("backend", ["auto", "compiled"])
    def test_sim_backend_param_is_400(self, served, kind, params, backend):
        """The engine is chosen per call: a client that still forces one
        is refused at submit instead of silently running on another."""
        _, _, client = served
        with pytest.raises(ServeError) as err:
            client.submit(kind, sim_backend=backend, **params)
        assert err.value.status == 400
        assert "params.sim_backend was removed" in str(err.value)

    def test_failed_job_reports_the_error(self, served):
        _, _, client = served
        job = client.submit("explore", circuits=["no-such-circuit"],
                            budgets=[6])
        final = client.wait(job["id"], timeout=120,
                            raise_on_failure=False)
        assert final["state"] == "failed"
        assert final["error"]

    def test_maintenance_compacts_and_gcs(self, served):
        state, handle, client = served
        report = client.maintenance()
        assert "journals" in report and "store" in report
        entries = report["store"]["entries"]
        assert entries == client.stats()["store"]["entries"]
        assert entries <= handle.server.store.max_entries
        assert all(path.name.startswith("index.db")
                   for path in (state / "store").rglob("*"))

    def test_stats_count_the_pool_workers_store_lookups(
            self, tmp_path, serve_client):
        """Only pool workers look the store up; /stats must still
        report their hits and misses."""
        handle = start_in_thread(tmp_path / "state", workers=1)
        try:
            client = serve_client(handle.port)
            jobs = [client.wait(client.submit(
                "explore", circuits=["gcd"], budgets=[7],
                label=label)["id"], timeout=120)["result"]
                for label in ("a", "b")]
            assert jobs[1]["store_hits"] > 0
            store = client.stats()["store"]
            assert store["hits"] == sum(j["store_hits"] for j in jobs)
            assert store["misses"] == sum(j["store_misses"] for j in jobs)
        finally:
            handle.stop()

    def test_stats_report_the_workers_evictions(self, tmp_path, serve_client):
        handle = start_in_thread(tmp_path / "state", workers=1,
                                 max_store_entries=4)
        try:
            client = serve_client(handle.port)
            client.wait(client.submit("explore", **EXPLORE)["id"],
                        timeout=120)
            store = client.stats()["store"]
            # Every miss stored one entry; all but the bound were evicted.
            assert store["entries"] == 4
            assert store["evictions"] == store["misses"] - 4 > 0
        finally:
            handle.stop()


class TestConcurrentClients:
    def test_many_clients_one_server(self, tmp_path):
        handle = start_in_thread(tmp_path / "state", workers=2)
        try:
            port = handle.port
            jobs = [("explore", {"circuits": ["gcd"], "budgets": [6, 7]}),
                    ("explore", {"circuits": ["dealer"], "budgets": [6]}),
                    ("optimize", OPTIMIZE)]
            results: dict[int, dict] = {}
            errors: list[Exception] = []

            def run_client(slot, kind, params):
                client = ServeClient(port=port)  # own connections
                try:
                    job = client.submit(kind, **params)
                    results[slot] = client.wait(job["id"], timeout=180)
                except Exception as error:  # noqa: BLE001 - collected
                    errors.append(error)
                finally:
                    client.close()

            threads = [threading.Thread(target=run_client,
                                        args=(slot, kind, params))
                       for slot, (kind, params) in enumerate(jobs)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=180)
            assert errors == []
            assert sorted(results) == [0, 1, 2]
            assert all(r["state"] == "done" for r in results.values())
            assert results[0]["result"]["points"] == 2
            assert results[2]["result"]["evaluations"] > 0
        finally:
            handle.stop()

    def test_workers_are_forked_at_start(self, tmp_path):
        # A worker forked at the first dispatch, while the I/O thread is
        # inside SQLite, could inherit a held SQLite mutex and hang.
        handle = start_in_thread(tmp_path / "state", workers=2)
        try:
            assert len(handle.server.pool._processes) == 2
        finally:
            handle.stop()

    def test_fork_waits_for_sqlite_work_in_flight(self):
        gate = _ForkGate()
        inside, release = threading.Event(), threading.Event()
        forked = threading.Event()

        class Pool:
            def submit(self, fn):
                forked.set()

        def sqlite_work():
            inside.set()
            release.wait(10)

        worker = threading.Thread(target=gate.run, args=(sqlite_work,))
        worker.start()
        assert inside.wait(10)
        forker = threading.Thread(target=gate.fork, args=(Pool(),))
        forker.start()
        assert not forked.wait(0.2)  # held off while work is in flight
        release.set()
        assert forked.wait(10)
        worker.join(10)
        forker.join(10)


class TestCrashRecovery:
    def test_kill_and_restart_resumes_without_recompute(
            self, tmp_path, serve_client):
        state = tmp_path / "state"
        # Short lease: the kill leaves the row leased to a dead server,
        # and the restart can only re-claim it once that lease expires.
        handle = start_in_thread(state, workers=2, lease_s=2.0)
        client = serve_client(handle.port)
        params = {"circuits": ["gcd", "dealer", "vender"],
                  "budgets": [5, 6, 7]}
        job = client.submit("explore", **params)
        # Let some (not necessarily all) points land, then pull the plug.
        for event in client.stream(job["id"], timeout=120):
            if event["type"] == "point":
                break
        handle.kill()

        journal = state / "journals" / f"{job['key']}.jsonl"
        banked = len(load_point_journal(journal))
        assert banked >= 1  # the crash left journaled work behind

        restarted = start_in_thread(state, workers=2, lease_s=2.0)
        try:
            client = serve_client(restarted.port)
            revived = client.job(job["id"])  # same id, re-queued
            assert revived["state"] in ("queued", "running", "done")
            final = client.wait(job["id"], timeout=180)
            assert final["state"] == "done"
            assert final["result"]["points"] == 9
            assert final["resumed"] >= banked  # banked points not redone
        finally:
            restarted.stop()

    def test_restart_with_clean_state_is_empty(self, tmp_path, serve_client):
        handle = start_in_thread(tmp_path / "state", workers=1)
        try:
            assert serve_client(handle.port).jobs() == []
        finally:
            handle.stop()


class TestShutdown:
    def test_stop_is_prompt_when_a_claim_wakeup_races_the_cancel(
            self, tmp_path):
        # On Python 3.11 asyncio.wait_for dropped a cancel that landed
        # as its awaited event fired: the claim loop polled on, and
        # shutdown waited for it forever.
        handle = start_in_thread(tmp_path / "state", workers=1)
        server = handle.server
        time.sleep(0.2)  # the claim loop is parked on its wake-up event

        def wake_and_stop():
            server._claim_event.set()
            server._loop.create_task(server.shutdown())

        server._loop.call_soon_threadsafe(wake_and_stop)
        started = time.monotonic()
        handle.stop(timeout=10)
        assert time.monotonic() - started < 5


class TestCancellation:
    def test_cancel_running_explore(self, tmp_path, serve_client):
        handle = start_in_thread(tmp_path / "state", workers=1)
        try:
            client = serve_client(handle.port)
            job = client.submit("explore",
                                circuits=["gcd", "dealer", "vender"],
                                budgets=[5, 6, 7, 8])
            cancel = client.cancel(job["id"])
            assert cancel["ok"] is True
            final = client.wait(job["id"], timeout=120)
            assert final["state"] == "cancelled"
            assert final["cancel_requested"] is True
        finally:
            handle.stop()
