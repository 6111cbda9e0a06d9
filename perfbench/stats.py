"""Percentiles for the benchmark's latency metrics.

A tail percentile is only worth reporting when enough samples lie beyond
it: with fewer than ``MIN_BEYOND`` samples above the cut, one slow op
moves it.  Each workload fixes its tail percentile, and a run holds at
least :func:`min_samples` ops for it.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile (the ``numpy`` default method)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` sorted samples sit strictly above ``pct``."""
    return n - 1 - math.floor((n - 1) * pct / 100.0)


def min_samples(pct: int) -> int:
    """Smallest sample count for which ``pct`` has ``MIN_BEYOND`` beyond."""
    n = 1
    while samples_beyond(n, pct) < MIN_BEYOND:
        n += 1
    return n


def faster_passes(latencies: Sequence[float], cycle: int) -> list[float]:
    """The op latencies of the faster half of a run's passes.

    A pass is ``cycle`` consecutive ops, one per input.  On a shared host
    a pass slows by a third whenever a neighbour loads the core; keeping
    the faster half measures the program rather than the neighbours,
    while every input still weighs the same.
    """
    passes = [latencies[i:i + cycle]
              for i in range(0, len(latencies), cycle)]
    passes.sort(key=sum)
    return [x for ops in passes[:(len(passes) + 1) // 2] for x in ops]
