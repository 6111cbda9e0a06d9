"""Static expected-activation power model (paper Table II).

After the PM pass, each operation carries guards ``(mux, side)``: it
executes only when every guarding multiplexor selects the required side.
Assuming each *distinct select signal* is 1 with probability ``p`` (paper:
uniform, p = 0.5) and distinct signals are independent, the execution
probability of a node is the product over its distinct (driver, value)
requirements — two guards sharing the same select driver count once, and
contradictory requirements on the same driver make the node dead (P = 0).

This reproduces the paper's Table II columns: average number of executions
per operation class and the datapath power reduction percentage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pm_pass import PMResult
from repro.ir.graph import CDFG
from repro.ir.ops import ResourceClass
from repro.power.weights import PowerWeights


@dataclass(frozen=True)
class SelectModel:
    """Probability that each select signal evaluates to 1.

    ``default`` applies to every driver not in ``per_driver`` (keyed by the
    select *driver node id*).  The paper uses 0.5 everywhere; profiles from
    the RTL simulator can override per driver.
    """

    default: float = 0.5
    per_driver: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for p in (self.default, *self.per_driver.values()):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"select probability {p} outside [0, 1]")

    def prob_one(self, driver: int) -> float:
        return self.per_driver.get(driver, self.default)


def execution_probability(
    result: PMResult,
    node_id: int,
    selects: SelectModel = SelectModel(),
) -> float:
    """P(node executes) under the PM result's guards."""
    graph = result.graph
    guards = result.gating.get(node_id, ())
    required: dict[int, int] = {}
    for mux_id, side in guards:
        driver = graph.node(mux_id).select_operand
        if driver in required and required[driver] != side:
            return 0.0  # contradictory requirements: never needed
        required[driver] = side
    prob = 1.0
    for driver, side in required.items():
        p1 = selects.prob_one(driver)
        prob *= p1 if side == 1 else 1.0 - p1
    return prob


def all_execution_probabilities(
    result: PMResult, selects: SelectModel = SelectModel()
) -> dict[int, float]:
    """Execution probability of every schedulable operation."""
    return {
        node.nid: execution_probability(result, node.nid, selects)
        for node in result.graph.operations()
    }


def expected_op_counts(
    result: PMResult, selects: SelectModel = SelectModel()
) -> dict[ResourceClass, float]:
    """Table II columns 5-9: average executions per operation class."""
    counts: dict[ResourceClass, float] = {}
    probs = all_execution_probabilities(result, selects)
    for node in result.graph.operations():
        cls = node.resource
        counts[cls] = counts.get(cls, 0.0) + probs[node.nid]
    return counts


@dataclass(frozen=True)
class StaticPowerReport:
    """Datapath power with and without power management (weighted)."""

    baseline: float
    managed: float

    @property
    def reduction_pct(self) -> float:
        """Table II last column."""
        if self.baseline == 0:
            return 0.0
        return 100.0 * (self.baseline - self.managed) / self.baseline


def static_power(
    result: PMResult,
    weights: PowerWeights = PowerWeights(),
    selects: SelectModel = SelectModel(),
) -> StaticPowerReport:
    """Expected weighted datapath power per computation, vs the baseline
    where every operation always executes.

    Only gated operations need an execution probability; every other one
    executes with probability 1.0, multiplied in at its usual place in the
    sum so the float result does not depend on this shortcut.
    """
    graph: CDFG = result.graph
    baseline = weights.total(graph)
    gating = result.gating
    managed = sum(
        weights.of(node.resource)
        * (execution_probability(result, node.nid, selects)
           if node.nid in gating else 1.0)
        for node in graph.operations()
    )
    return StaticPowerReport(baseline=baseline, managed=managed)
