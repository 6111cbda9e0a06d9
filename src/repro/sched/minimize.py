"""Minimum-resource scheduling under a latency constraint.

The paper's step 11 runs HYPER's scheduler "targeting minimum hardware
resources for the desired throughput".  We reproduce that with a greedy
search: start at a lower-bound allocation and add one unit of whichever
class the list scheduler reports as the bottleneck until scheduling
succeeds.  For the small allocations of HLS benchmarks this finds the same
results as exhaustive search (verified in the test suite), and it is the
behaviour downstream code relies on for the paper's Table II area column.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.graph import CDFG
from repro.sched.list_scheduler import ListSchedulingFailure, list_schedule
from repro.sched.resources import (
    Allocation,
    lower_bound_allocation,
    unbounded_allocation,
)
from repro.sched.schedule import Schedule
from repro.sched.timing import TimingFrame


@dataclass(frozen=True)
class MinimizeResult:
    schedule: Schedule
    allocation: Allocation
    attempts: int


def minimize_resources(
    graph: CDFG,
    n_steps: int,
    initiation_interval: int | None = None,
    start_from: Allocation | None = None,
) -> MinimizeResult:
    """Find a small allocation that schedules ``graph`` in ``n_steps``.

    Raises :class:`~repro.sched.timing.InfeasibleScheduleError` if no
    allocation can meet the step budget (precedence-bound).
    """
    ceiling = unbounded_allocation(graph)
    allocation = start_from or lower_bound_allocation(graph, n_steps)
    # Clip the starting point so we never exceed one-unit-per-op.
    allocation = Allocation({
        cls: min(n, max(ceiling.get(cls), 1))
        for cls, n in allocation.counts.items()
    })

    frame = TimingFrame.compute(graph, n_steps)  # raises if no slack
    attempts = 0
    while True:
        attempts += 1
        try:
            schedule = list_schedule(graph, n_steps, allocation,
                                     initiation_interval=initiation_interval,
                                     frame=frame)
            # Trim: the schedule may not use everything we allocated.
            return MinimizeResult(schedule=schedule,
                                  allocation=schedule.resource_usage(),
                                  attempts=attempts)
        except ListSchedulingFailure as failure:
            bottleneck = failure.bottleneck
            if bottleneck is None or \
                    allocation.get(bottleneck) >= ceiling.get(bottleneck):
                # Bottleneck unknown or saturated: widen everything that is
                # still below the ceiling; if nothing is, precedence is the
                # limit and list_schedule would have raised Infeasible.
                widened = False
                for cls in ceiling.counts:
                    if allocation.get(cls) < ceiling.get(cls):
                        allocation = allocation.with_extra(cls)
                        widened = True
                if not widened:
                    raise
            else:
                allocation = allocation.with_extra(bottleneck)
