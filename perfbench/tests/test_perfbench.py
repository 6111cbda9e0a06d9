"""Tests of the benchmark itself: metric names, the percentile helper,
and that every workload emits all of its declared metrics at a tiny size.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_are_well_formed():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]]
             + list(workloads.WORKLOADS) + list(run.UNITS)
             + list(layers.NAMES))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(run.UNITS) | set(layers.NAMES)) \
        == len(run.UNITS) + len(layers.NAMES)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.UNITS
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.NAMES)
    for metric in SPEC["per_layer"]:
        assert metric["unit"] == run._layer_unit(metric["name"])
    for workload in workloads.WORKLOADS.values():
        assert set(workload.layers) <= set(layers.NAMES), workload.name


@pytest.mark.parametrize(
    "pct", sorted({50, 75, 90, 95, 99}
                  | {w.tail for w in workloads.WORKLOADS.values()}))
def test_min_samples_keep_ten_beyond_the_percentile(pct):
    n = stats.min_samples(pct)
    samples = [float(i) for i in range(n)]
    cut = stats.percentile(samples, pct)
    assert sum(s > cut for s in samples) >= stats.MIN_BEYOND
    fewer = samples[:-1]
    cut = stats.percentile(fewer, pct)
    assert sum(s > cut for s in fewer) < stats.MIN_BEYOND


def test_percentile_interpolates():
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.percentile([0.0, 10.0], 25) == 2.5
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_faster_passes_keeps_whole_passes():
    latencies = [1.0, 1.0, 5.0, 5.0, 2.0, 2.0, 9.0, 9.0, 3.0, 3.0]
    assert stats.faster_passes(latencies, 2) == [1.0, 1.0, 2.0, 2.0,
                                                 3.0, 3.0]


def _check_result(result: dict, expected: set[str]) -> None:
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_emits_every_metric_at_tiny_size(name):
    untraced = run.run(name, seed=7, seconds=0.01, trace=False,
                       setup_reps=1, min_ops=1)
    _check_result(untraced, set(run.UNITS))
    for metric in untraced["metrics"].values():
        assert metric["value"] > 0
    traced = run.run(name, seed=7, seconds=0.01, trace=True)
    _check_result(traced, set(layers.NAMES))
