"""The four benchmark workloads: ``synth``, ``optimize``, ``power``, ``serve``.

Every workload is a closed loop: a client sends its next op only after
the previous one returned.  ``synth``, ``optimize`` and ``power`` run one
client in this process; ``serve`` drives a separate ``repro serve``
process from :data:`Serve.clients` client threads.  Inputs come from the
``--seed`` argument only; the program under test receives the generated
circuits and nothing else.  See ``README.md`` beside this file for why
each workload exists and which layer it stresses.
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for server state and trace files, inside the checkout.
WORK_DIR = ROOT / ".perfbench"

#: What a user's process imports before its first op; timed in a fresh
#: interpreter as part of every set-up.
IMPORTS = ("import repro, repro.opt.search, repro.power.simulated, "
           "repro.sim.vectorized")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def time_imports() -> float:
    """Wall time of importing the flow in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], env=child_env(),
                   cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - start


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Seconds the :func:`host_speed` loop takes on an unloaded core of the
#: host the benchmark was tuned on (2 vCPUs at 2.0 GHz).
REFERENCE_S = 0.011


def host_speed() -> float:
    """How much slower than the reference host this core runs right now.

    The host shares its cores with other tenants and runs the same code
    up to twice as slowly while they are busy, for seconds to minutes at
    a time.  Scaling CPU-bound times by this factor, taken around each
    pass, measures the program rather than the neighbours.
    """
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return (time.perf_counter() - start) / REFERENCE_S


@dataclass
class Phase:
    """One measured stretch of closed-loop ops.  ``latencies`` are scaled
    to the reference host speed where the workload does so, and so is
    ``elapsed``, the time the ops took; ``raw`` are wall-clock times."""

    latencies: list[float]
    failed: int
    elapsed: float
    records: list[dict] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.latencies)


class Workload:
    """An in-process, single-client closed loop over a fixed op cycle."""

    name = ""
    #: Tail percentile reported as ``op_ms_tail``; a run holds enough ops
    #: that at least ten lie beyond it.
    tail = 90
    #: Per-layer metrics this workload must exercise (the coverage check).
    layers: tuple[str, ...] = ()
    #: Report the end-to-end metrics over the faster half of the passes.
    faster_half = True

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Untimed oracle work the correctness checks need."""

    @property
    def cycle(self) -> int:
        """Ops in one pass over the workload's inputs."""
        raise NotImplementedError

    def op(self, index: int) -> bool:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def close(self) -> None:
        pass

    def measure(self, seconds: float, min_ops: int, tracer=None,
                whole_passes: bool = True) -> Phase:
        """Run ops until ``seconds`` passed and ``min_ops`` ran; with
        ``whole_passes`` only stop at the end of a pass, so every run
        weighs each input equally.  Each pass's times are scaled by the
        mean :func:`host_speed` before and after it."""
        latencies: list[float] = []
        raw: list[float] = []
        failed = 0
        start = time.perf_counter()
        index = 0
        speed = host_speed()
        while True:
            boundary = index % self.cycle == 0
            done = (time.perf_counter() - start >= seconds
                    and index >= min_ops and (boundary or not whole_passes))
            if len(raw) > len(latencies) and (boundary or done):
                after = host_speed()
                scale = (speed + after) / 2.0
                latencies += [x / scale for x in raw[len(latencies):]]
                speed = after
            if done:
                break
            began = time.perf_counter()
            try:
                with tracer.op(index) if tracer is not None \
                        else nullcontext():
                    ok = self.op(index)
            except Exception:  # noqa: BLE001 - an op failure is a result
                traceback.print_exc()
                ok = False
            raw.append(time.perf_counter() - began)
            failed += not ok
            index += 1
        return Phase(latencies, failed, sum(latencies), raw=raw)


def _budgeted(spec: str, steps: int | None = None):
    """``(spec, graph, budget)``; no budget means critical path + 2."""
    from repro.circuits import build
    from repro.sched import critical_path_length

    graph = build(spec)
    return spec, graph, steps if steps is not None \
        else critical_path_length(graph) + 2


class Synth(Workload):
    """A cold, verified synthesis of one circuit per op."""

    name = "synth"
    tail = 90
    layers = ("ir.topo_sorts", "ir.data_preds_calls", "ir.control_edges",
              "core.pm_ms", "core.pm_calls", "sched.schedule_ms",
              "alloc.ms", "rtl.elaborate_ms", "sim.build_ms", "sim.builds",
              "sim.run_ms", "sim.vectors", "sim.vectorized_share",
              "sim.reference_ms", "pipeline.validate_ms",
              "pipeline.analyze_ms", "pipeline.power_manage_ms",
              "pipeline.schedule_ms", "pipeline.allocate_ms",
              "pipeline.elaborate_ms", "pipeline.verify_ms",
              "pipeline.report_ms")

    def setup(self, seed: int) -> None:
        from repro.circuits import TABLE2_BUDGETS

        rng = random.Random(seed)
        specs = [(name, steps) for name, budgets in TABLE2_BUDGETS.items()
                 for steps in budgets]
        specs += [(f"chstone:{kernel}", None)
                  for kernel in ("adpcm", "jpeg", "mips")]
        specs += [(f"gen:branchy:{rng.randrange(1 << 30)}", None),
                  (f"gen:medium:{rng.randrange(1 << 30)}", None)]
        self.inputs = [_budgeted(spec, steps) for spec, steps in specs]

    @property
    def cycle(self) -> int:
        return len(self.inputs)

    def op(self, index: int) -> bool:
        import repro.pipeline.config as config
        import repro.pipeline.engine as engine
        import repro.sim.engine as sim_engine

        _spec, graph, steps = self.inputs[index % self.cycle]
        # A new design never hits the compile cache in production.
        sim_engine.clear_compile_caches()
        ctx = engine.Pipeline().run_context(
            graph, config.FlowConfig(n_steps=steps, verify=True))
        # The verify stage raises on a reference-model mismatch; zero
        # stage-cache hits proves the op ran cold.
        return ctx.get("verified") is True and not ctx.cache_hits


class Optimize(Workload):
    """One complete annealing search on simulated power per op."""

    name = "optimize"
    # Under a second per op, so a run holds ~25 ops: only the median has
    # ten samples beyond it.  Every op runs the same circuit, so the
    # median already drops the ops a busy neighbour slowed; halving the
    # run for that would double its length.
    tail = 50
    faster_half = False
    #: One circuit: the search cost of a ``gen:branchy`` circuit varies
    #: sevenfold with its generator seed, so circuits drawn per run would
    #: make the median measure the draw.  ``--seed`` draws the annealer's
    #: seeds instead, which move an op's cost by about a tenth.
    CIRCUIT = "gen:branchy:19"
    ANNEAL_SEEDS = 3
    layers = ("ir.topo_sorts", "ir.data_preds_calls", "ir.control_edges",
              "core.pm_ms", "core.pm_calls", "sched.schedule_ms",
              "alloc.ms", "rtl.elaborate_ms", "sim.build_ms", "sim.builds",
              "sim.run_ms", "sim.vectors", "sim.vectorized_share",
              "power.measure_ms", "pipeline.power_manage_ms",
              "pipeline.schedule_ms", "pipeline.allocate_ms",
              "pipeline.elaborate_ms", "pipeline.cache_hit_ratio",
              "opt.evals", "opt.reuse_ratio", "opt.eval_ms_p50")

    def setup(self, seed: int) -> None:
        from repro.circuits import build
        from repro.sched import critical_path_length

        rng = random.Random(seed)
        self.seeds = [rng.randrange(1 << 30)
                      for _ in range(self.ANNEAL_SEEDS)]
        self.graph = build(self.CIRCUIT)
        cp = critical_path_length(self.graph)
        self.budgets = (cp, cp + 2)
        self.outcomes: dict[int, str] = {}

    @property
    def cycle(self) -> int:
        return len(self.seeds)

    def op(self, index: int) -> bool:
        import repro.opt.search as search
        import repro.sim.engine as sim_engine

        seed = self.seeds[index % self.cycle]
        sim_engine.clear_compile_caches()
        result = search.optimize(self.graph, "anneal", objective="sim_power",
                                 budgets=self.budgets, seed=seed)
        outcome = json.dumps(result.outcome(), sort_keys=True)
        # Every repeat of a seed must find the same outcome.
        first = self.outcomes.setdefault(seed, outcome)
        return result.evaluations > 0 and outcome == first


class Power(Workload):
    """Simulated power of a baseline/managed pair at 4096 vectors."""

    name = "power"
    tail = 90
    N_VECTORS = 4096
    #: The Table III pairs, cordic at its critical path and one kernel.
    PAIRS = (("dealer", 6), ("gcd", 7), ("vender", 6), ("cordic", 48),
             ("chstone:adpcm", None))
    #: Vector sets per pair and run, drawn from ``--seed``.
    VECTOR_SETS = 2
    layers = ("sim.build_ms", "sim.builds", "sim.run_ms", "sim.vectors",
              "sim.vectorized_share", "power.measure_ms")

    def setup(self, seed: int) -> None:
        import repro.pipeline.config as config
        import repro.pipeline.engine as engine
        import repro.power.simulated as simulated
        import repro.sim.engine as sim_engine

        sim_engine.clear_compile_caches()
        rng = random.Random(seed)
        vector_seeds = [rng.randrange(1 << 31)
                        for _ in range(self.VECTOR_SETS)]
        self.designs = []
        for spec, steps in self.PAIRS:
            spec, graph, steps = _budgeted(spec, steps)
            pair = engine.run_pair(graph, config.FlowConfig(n_steps=steps))
            self.designs.append((spec, pair.baseline.design,
                                 pair.managed.design))
        self.inputs = [(i, vseed) for vseed in vector_seeds
                       for i in range(len(self.designs))]
        # Warm the engines: a power study re-simulates built designs.
        for _spec, baseline, managed in self.designs:
            simulated.compare_designs(baseline, managed, n_vectors=16)

    def prepare_checks(self) -> None:
        import repro.power.simulated as simulated

        # The bit-identity contract: every backend reports the same
        # totals as the compiled one on the same vectors.
        self.expected = {}
        for i, vseed in self.inputs:
            _spec, baseline, managed = self.designs[i]
            ref = simulated.compare_designs(
                baseline, managed, n_vectors=self.N_VECTORS, seed=vseed,
                backend="compiled")
            self.expected[i, vseed] = (ref.orig, ref.managed)

    @property
    def cycle(self) -> int:
        return len(self.inputs)

    def op(self, index: int) -> bool:
        import repro.power.simulated as simulated

        i, vseed = self.inputs[index % self.cycle]
        _spec, baseline, managed = self.designs[i]
        result = simulated.compare_designs(
            baseline, managed, n_vectors=self.N_VECTORS, seed=vseed)
        return (result.orig, result.managed) == self.expected[i, vseed]


# -- serve --------------------------------------------------------------------

#: Point fields that legitimately differ between a job and its re-run.
_VOLATILE = ("config_label", "cache_hits", "cache_misses", "store_hits",
             "store_misses")


def _comparable(points: list[dict]) -> list[str]:
    return sorted((json.dumps({k: v for k, v in p.items()
                               if k not in _VOLATILE}, sort_keys=True)
                   for p in points))


class ServerProcess:
    """``repro serve --workers 1`` as a child process in its own session,
    so stopping it also stops its pool worker."""

    def __init__(self, state: Path) -> None:
        self.state = state
        shutil.rmtree(state, ignore_errors=True)
        state.mkdir(parents=True)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--state", str(state),
             "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
            start_new_session=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(match.group(1))

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server plus its pool worker."""
        pids = [self.proc.pid]
        children = Path(f"/proc/{self.proc.pid}/task/{self.proc.pid}"
                        "/children")
        try:
            pids += [int(pid) for pid in children.read_text().split()]
        except OSError:
            pass
        total_kb = 0
        for pid in pids:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"VmHWM:\s+(\d+) kB", status)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0

    def stop(self) -> None:
        from repro.serve.client import ServeClient, ServeError

        port = getattr(self, "port", None)
        if self.proc.poll() is None:
            if port is not None:
                try:
                    ServeClient(port=port, timeout=10).shutdown()
                except (OSError, ServeError):
                    pass  # already going down: the wait below settles it
            try:
                self.proc.wait(timeout=30 if port is not None else 0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        # The pool worker shares the server's process group.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        shutil.rmtree(self.state, ignore_errors=True)


class Serve(Workload):
    """Explore jobs submitted to a ``repro serve`` process and followed
    over SSE to their terminal event."""

    name = "serve"
    faster_half = False  # no passes: four clients share one job stream
    #: Concurrent keep-alive connections.  With one worker, a job whose
    #: follower attaches while it is still queued completes ~1 s late
    #: (the follower re-reads the queue row once per claim poll).  Four
    #: clients keep that share near 80%, so the median sits firmly in
    #: the slow mode; two clients put it near 60% and the median flips.
    clients = 4
    # ~5 ops/s: a run holds 40+ ops, enough for ten beyond the p75.
    tail = 75
    layers = ("serve.submit_ms_p50", "serve.queued_ms_p50",
              "serve.running_ms_p50", "serve.first_event_ms_p50",
              "serve.store_hit_ratio")

    def __init__(self) -> None:
        self.server: ServerProcess | None = None
        self.setups = 0

    def setup(self, seed: int) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        self.setups += 1
        self.server = ServerProcess(
            WORK_DIR / f"serve-{os.getpid()}-{self.setups}")
        self.base = seed * 1_000_000
        self.next_k = 0
        self.rerun_queue: list[dict] = []
        # Warm-up job: forks the pool worker and loads the flow there.
        from repro.serve.client import ServeClient

        client = ServeClient(port=self.server.port)
        try:
            spec = f"gen:tiny:{self.base - 1}"
            record = self._follow(client, spec, self._budgets(spec),
                                  "warmup", None)
        finally:
            client.close()
        if not record["ok"]:
            raise RuntimeError("serve warm-up job failed")

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    @staticmethod
    def _budgets(spec: str) -> list[int]:
        from repro.circuits import build
        from repro.sched import critical_path_length

        cp = critical_path_length(build(spec))
        return [cp, cp + 1]

    def _follow(self, client, spec: str, budgets: list[int], label: str,
                original) -> dict:
        from repro.serve.client import TERMINAL

        began = time.perf_counter()
        job = client.submit("explore", circuits=[spec], budgets=budgets,
                            sim_vectors=16, label=label)
        submitted = time.perf_counter()
        running = first = None
        final = None
        points: list[dict] = []
        for event in client.stream(job["id"], timeout=60.0):
            now = time.perf_counter()
            kind = event.get("type")
            if kind == "point":
                first = first if first is not None else now
                points.append(event["point"])
            elif kind == "state":
                if event.get("state") == "running" and running is None:
                    running = now
                if event.get("state") in TERMINAL:
                    final = event["state"]
        ended = time.perf_counter()
        ok = final == "done" and len(points) == len(budgets)
        if original is not None:
            ok = ok and _comparable(points) == original["points"]
        if not ok:
            print(f"serve: job {job['id']} ({spec}, {label}) ended "
                  f"{final} with {len(points)} points"
                  + (", differing from its original"
                     if original is not None else ""),
                  file=sys.stderr, flush=True)
        return {
            "ok": ok, "spec": spec, "warm": original is not None,
            "points": _comparable(points),
            "latency": ended - began,
            "submit": submitted - began,
            "queued": None if running is None else running - began,
            "running": None if running is None else ended - running,
            "first_event": None if first is None else first - began,
            "store_hits": sum(p.get("store_hits", 0) for p in points),
            "store_lookups": sum(p.get("store_hits", 0)
                                 + p.get("store_misses", 0)
                                 for p in points),
        }

    def _next_job(self) -> tuple[int, str, str, dict | None]:
        """The next op's circuit: every fourth re-runs the oldest finished
        fresh job under a new label (a store read), the rest are fresh
        circuits (store writes).  Caller holds the lock."""
        k = self.next_k
        self.next_k += 1
        if k % 4 == 3 and self.rerun_queue:
            original = self.rerun_queue.pop(0)
            return k, original["spec"], f"rerun-{k}", original
        return k, f"gen:tiny:{self.base + k}", "bench", None

    def measure(self, seconds: float, min_ops: int, tracer=None,
                whole_passes: bool = True) -> Phase:
        from repro.serve.client import ServeClient

        lock = threading.Lock()
        records: list[dict] = []
        started = [0]
        start = time.perf_counter()

        def client_loop() -> None:
            client = ServeClient(port=self.server.port, timeout=60.0)
            try:
                while True:
                    with lock:
                        if (time.perf_counter() - start >= seconds
                                and started[0] >= min_ops):
                            return
                        started[0] += 1
                        k, spec, label, original = self._next_job()
                    budgets = self._budgets(spec)
                    began = time.perf_counter()
                    try:
                        with tracer.op(k) if tracer is not None \
                                else nullcontext():
                            record = self._follow(client, spec, budgets,
                                                  label, original)
                    except Exception:  # noqa: BLE001 - counted as failed
                        traceback.print_exc()
                        record = {"ok": False,
                                  "latency": time.perf_counter() - began}
                    with lock:
                        records.append(record)
                        if record["ok"] and not record["warm"]:
                            self.rerun_queue.append(record)
            finally:
                client.close()

        threads = [threading.Thread(target=client_loop, daemon=True)
                   for _ in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120.0)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("serve clients did not finish")
        latencies = [r["latency"] for r in records]
        # Not scaled to host speed: a served op mostly waits on a timer.
        return Phase(latencies, sum(not r["ok"] for r in records),
                     time.perf_counter() - start, records, latencies)


WORKLOADS = {cls.name: cls for cls in (Synth, Optimize, Power, Serve)}
