"""Smoke bench for the ``repro serve`` job server.

One real server on a background thread, two concurrent clients — one
submitting an exploration sweep over a seeded random circuit
(``gen:tiny``), one an optimizer run — then a resubmission pass against
the warm store/journals, a kill-and-restart, and a graceful shutdown.
This is the CI gate for the serving subsystem::

    python benchmarks/bench_serve.py --smoke

It exits nonzero unless:

* both clients' jobs finish ``done`` while running concurrently;
* the explore client observed streamed ``point`` and ``pareto`` events
  (incremental results, not just a final blob);
* resubmitting the identical sweep resumes every point from the journal
  (zero recomputes) and the store reports warm hits;
* a killed server restarts, re-claims the interrupted job once its
  lease expires, and finishes it without redoing journaled points;
* SSE streaming delivers every point event and ends on the terminal
  state event (its latency is printed);
* two servers sharing one state directory drain one queue — a job
  submitted while server A's worker is busy is claimed by server B;
* maintenance (journal compaction + store GC) and shutdown both
  succeed.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.pipeline.explore import load_point_journal  # noqa: E402
from repro.serve import ServeClient, start_in_thread  # noqa: E402

EXPLORE = {"circuits": ["gen:tiny:7", "gcd"], "budgets": [5, 6, 7]}
OPTIMIZE = {"circuit": "gen:tiny:7", "budgets": [6], "driver": "random",
            "iters": 10, "seed": 1, "sim_vectors": 16}


def run_smoke(state: Path, workers: int = 2) -> int:
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    # Short lease so the kill-and-restart section recovers in seconds
    # instead of waiting out the 30 s default.
    handle = start_in_thread(state, workers=workers, lease_s=2.0)
    port = handle.port
    print(f"server on 127.0.0.1:{port}, state in {state}")

    # -- two concurrent clients -----------------------------------------
    outcomes: dict[str, object] = {}

    def explore_client() -> None:
        client = ServeClient(port=port)
        job = client.submit("explore", **EXPLORE)
        events = list(client.stream(job["id"], timeout=300))
        outcomes["explore"] = (job, events, client.job(job["id"]))

    def optimize_client() -> None:
        client = ServeClient(port=port)
        job = client.submit("optimize", **OPTIMIZE)
        outcomes["optimize"] = client.wait(job["id"], timeout=300)

    start = time.perf_counter()
    threads = [threading.Thread(target=explore_client),
               threading.Thread(target=optimize_client)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    elapsed = time.perf_counter() - start

    job, events, final = outcomes["explore"]
    kinds = [e["type"] for e in events]
    n_points = len(EXPLORE["circuits"]) * len(EXPLORE["budgets"])
    print(f"explore: {kinds.count('point')} point events, "
          f"{kinds.count('pareto')} pareto events; optimize: "
          f"{outcomes['optimize']['result']['evaluations']} evaluations; "
          f"{elapsed:.1f}s wall for both clients")
    check(final["state"] == "done", "explore job finished done")
    check(kinds.count("point") == n_points,
          f"explore streamed all {n_points} points")
    check(kinds.count("pareto") >= 1
          and kinds.index("pareto") < len(kinds) - 1,
          "pareto fronts streamed before the job ended")
    check(final["result"]["pareto_size"] >= 1, "final Pareto front found")
    check(outcomes["optimize"]["state"] == "done",
          "optimize job finished done")
    check(outcomes["optimize"]["result"]["evaluations"] > 0,
          "optimizer evaluated candidates")

    # -- warm resubmission ----------------------------------------------
    client = ServeClient(port=port)
    stats_before = client.stats()["store"]
    again = client.wait(client.submit("explore", **EXPLORE)["id"],
                        timeout=300)
    stats_after = client.stats()["store"]
    print(f"resubmit: resumed {again['resumed']}/{n_points}, store "
          f"{stats_after['hits'] - stats_before['hits']} new hits")
    check(again["id"] != job["id"], "resubmission got a fresh job id")
    check(again["resumed"] == n_points,
          "warm resubmit resumed every point (zero recomputes)")
    check(stats_after["entries"] > 0, "store holds artifacts")

    # -- SSE streaming ---------------------------------------------------
    sse_job = client.submit("explore", circuits=["gen:tiny:31"],
                            budgets=[6, 7])
    t0 = time.perf_counter()
    sse_first = -1.0
    sse_events = []
    for event in client.stream(sse_job["id"], timeout=300):
        if sse_first < 0 and event["type"] == "point":
            sse_first = time.perf_counter() - t0
        sse_events.append(event)
    sse_total = time.perf_counter() - t0
    print(f"stream: sse first point {sse_first * 1000:.0f}ms, done "
          f"{sse_total:.2f}s")
    check([e["type"] for e in sse_events].count("point") == 2,
          "SSE streamed every point event")
    check(sse_events[-1]["type"] == "state"
          and sse_events[-1]["state"] == "done",
          "SSE stream ended on the terminal state event")

    # -- maintenance ------------------------------------------------------
    report = client.maintenance()
    check(report["store"]["entries"] == client.stats()["store"]["entries"]
          <= handle.server.store.max_entries,
          "store GC: entries == len(store) <= max_entries")
    check(all(path.name.startswith("index.db")
              for path in (state / "store").rglob("*")),
          "store directory holds only its database")

    # -- kill and restart -------------------------------------------------
    # A deliberately chunky grid (64k simulated vectors per point), so
    # the kill lands mid-job instead of racing a sub-second sweep.
    interrupted = client.submit(
        "explore",
        circuits=["gen:branchy:11", "dealer", "gcd", "vender"],
        budgets={"gen:branchy:11": [10, 11, 12, 13, 14, 15],
                 "dealer": [5, 6, 7], "gcd": [5, 6, 7],
                 "vender": [5, 6, 7]},
        sim_vectors=65536)
    for event in client.stream(interrupted["id"], timeout=300):
        if event["type"] == "point":
            break  # some progress banked; now crash
    handle.kill()
    journal = state / "journals" / f"{interrupted['key']}.jsonl"
    banked = len(load_point_journal(journal))

    restarted = start_in_thread(state, workers=workers, lease_s=2.0)
    client = ServeClient(port=restarted.port)
    revived = client.wait(interrupted["id"], timeout=300)
    print(f"restart: {banked} points banked at kill, "
          f"{revived['resumed']} resumed, "
          f"{revived['completed']} total after recovery")
    check(revived["state"] == "done", "interrupted job finished after "
                                      "restart (same id)")
    check(banked >= 1, "the kill left journaled points behind")
    check(revived["resumed"] >= banked and revived["completed"] == 15,
          "journaled points were not recomputed after the crash")

    # -- graceful shutdown ------------------------------------------------
    client.shutdown()
    restarted._thread.join(timeout=30)
    check(not restarted._thread.is_alive(), "clean shutdown")

    # -- two servers, one queue -------------------------------------------
    cluster = state / "cluster"
    a = start_in_thread(cluster, workers=1, lease_s=5.0,
                        server_id="bench-a")
    b = start_in_thread(cluster, workers=1, lease_s=5.0,
                        server_id="bench-b")
    try:
        ca = ServeClient(port=a.port)
        cb = ServeClient(port=b.port)
        # A chunky job pins its claimer's only worker...
        busy = ca.submit("explore", circuits=["gen:branchy:11"],
                         budgets=[10, 11, 12, 13, 14, 15],
                         sim_vectors=65536)
        while (owner := ca.job(busy["id"]).get("server_id")) is None:
            time.sleep(0.02)
        # ...so a job handed to the *idle* peer must be claimed there —
        # the busy owner has no free worker to steal it with.
        idle = cb if owner == "bench-a" else ca
        spill = idle.submit("explore", circuits=["gen:tiny:33"],
                            budgets=[6, 7])
        spilled = ca.wait(spill["id"], timeout=300)  # visible cluster-wide
        drained = cb.wait(busy["id"], timeout=300)
        print(f"cluster: {busy['id']} ran on {drained['server_id']}, "
              f"{spill['id']} on {spilled['server_id']}")
        check(drained["state"] == "done" and spilled["state"] == "done",
              "both jobs in the shared queue finished")
        check(spilled["server_id"] != drained["server_id"]
              and {spilled["server_id"], drained["server_id"]}
              == {"bench-a", "bench-b"},
              "the idle server drained the job the busy one could not")
    finally:
        a.stop()
        b.stop()

    print("serve smoke OK" if not failures
          else f"serve smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: hard assertions, nonzero exit on "
                             "any regression")
    parser.add_argument("--state", default=None, metavar="DIR",
                        help="server state dir (default: fresh temp dir)")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    if not args.smoke and args.state is None:
        parser.error("standalone runs need --smoke (or --state DIR)")
    if args.state is not None:
        return run_smoke(Path(args.state), workers=args.workers)
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        return run_smoke(Path(tmp), workers=args.workers)


if __name__ == "__main__":
    sys.exit(main())
