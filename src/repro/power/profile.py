"""Profile-driven select probabilities.

The paper's Table II assumes every multiplexor picks each input with
probability 1/2.  Real workloads are biased (e.g. GCD's done-test is almost
always 'not done'), which is why Table III's simulated savings differ from
Table II's expectations.  ``profile_selects`` closes the loop: evaluate the
circuit on a workload, measure how often each select driver is true, and
return a :class:`~repro.power.static.SelectModel` that makes the static
model predict the simulated behaviour.
"""

from __future__ import annotations

from repro.ir.graph import CDFG
from repro.power.static import SelectModel
from repro.sim.reference import evaluate_all


def profile_selects(graph: CDFG, vectors: list[dict[str, int]],
                    width: int = 8) -> SelectModel:
    """Measured P(select == 1) for every mux select driver in ``graph``."""
    if not vectors:
        raise ValueError("need at least one vector to profile")
    drivers = {m.select_operand for m in graph.muxes()}
    columns = evaluate_all(graph, vectors, width=width)
    n = len(vectors)
    return SelectModel(
        default=0.5,
        per_driver={d: sum(1 for value in columns[d] if value) / n
                    for d in drivers},
    )
