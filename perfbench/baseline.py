"""Record the benchmark baseline with the machine it ran on.

Runs every workload untraced and traced through ``run.py`` (one child
process per run), checks that the traced numbers keep the direction of
the ROADMAP baseline, and writes ``baseline.json`` beside this file::

    python3 perfbench/baseline.py --seconds 20 --seed 1

Exits non-zero when a run fails its checks or a direction does not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("synth", "optimize", "power", "serve")


def machine(seed: int) -> dict:
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True).stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "platform": platform.platform(), "seed": seed}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    sys.stderr.write(out.stderr)
    return json.loads(out.stdout.splitlines()[-1])


def directions(traced: dict[str, dict]) -> list[tuple[str, bool]]:
    """The ROADMAP baseline's claims, as checked on the traced runs."""
    value = {w: {name: m["value"] for name, m in r["metrics"].items()}
             for w, r in traced.items()}
    checks = [
        ("optimize: sim.build_ms > sim.run_ms",
         value["optimize"]["sim.build_ms"] > value["optimize"]["sim.run_ms"]),
        ("power: sim.run_ms > sim.build_ms",
         value["power"]["sim.run_ms"] > value["power"]["sim.build_ms"]),
        ("serve: serve.queued_ms_p50 >= 10 x serve.running_ms_p50",
         value["serve"]["serve.queued_ms_p50"]
         >= 10 * value["serve"]["serve.running_ms_p50"]),
    ]
    for workload in ("synth", "optimize", "power"):
        checks.append((f"{workload}: sim.vectorized_share == 1.0",
                       value[workload]["sim.vectorized_share"] == 1.0))
        checks.append((f"{workload}: bench.other_share < 0.10",
                       value[workload]["bench.other_share"] < 0.10))
    return checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args(argv)
    untraced = {w: run(w, args.seed, args.seconds, 0) for w in WORKLOADS}
    traced = {w: run(w, args.seed, args.seconds, 1) for w in WORKLOADS}
    checks = directions(traced)
    record = {
        "machine": machine(args.seed),
        "seconds": args.seconds,
        "untraced": untraced,
        "traced": traced,
        "directions": {name: ok for name, ok in checks},
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for name, ok in checks:
        print(("ok   " if ok else "FAIL ") + name)
    incorrect = [f"{workload} {mode}" for workload in WORKLOADS
                 for mode, results in (("untraced", untraced),
                                       ("traced", traced))
                 if not results[workload]["correct"]]
    for name in incorrect:
        print(f"FAIL {name} run was not correct")
    return 1 if incorrect or not all(ok for _, ok in checks) else 0


if __name__ == "__main__":
    sys.exit(main())
