"""JobServer end-to-end: HTTP API, concurrency, crash recovery.

Every test runs a real server (background thread, ephemeral port, a
private process pool) and drives it through :class:`ServeClient` — the
same path the CLI and the smoke bench use.
"""

import threading

import pytest

from repro.pipeline.explore import load_point_journal
from repro.serve import ServeClient, ServeError, start_in_thread

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
        _, _, client = served
        report = client.maintenance()
        assert "journals" in report and "store" in report
        assert report["store"]["dropped"] == 0  # index and tree agree


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


class TestCrashRecovery:
    def test_kill_and_restart_resumes_without_recompute(self, tmp_path):
        state = tmp_path / "state"
        # Short lease: the kill leaves the row leased to a dead server,
        # and the restart can only re-claim it once that lease expires.
        handle = start_in_thread(state, workers=2, lease_s=2.0)
        client = ServeClient(port=handle.port)
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
            client = ServeClient(port=restarted.port)
            revived = client.job(job["id"])  # same id, re-queued
            assert revived["state"] in ("queued", "running", "done")
            final = client.wait(job["id"], timeout=180)
            assert final["state"] == "done"
            assert final["result"]["points"] == 9
            assert final["resumed"] >= banked  # banked points not redone
        finally:
            restarted.stop()

    def test_restart_with_clean_state_is_empty(self, tmp_path):
        handle = start_in_thread(tmp_path / "state", workers=1)
        try:
            assert ServeClient(port=handle.port).jobs() == []
        finally:
            handle.stop()


class TestCancellation:
    def test_cancel_running_explore(self, tmp_path):
        handle = start_in_thread(tmp_path / "state", workers=1)
        try:
            client = ServeClient(port=handle.port)
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
