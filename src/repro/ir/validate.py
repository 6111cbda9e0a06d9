"""Structural validation for CDFGs.

``validate`` is run by ``GraphBuilder.build`` and before synthesis; it
enforces the invariants the rest of the pipeline relies on.
"""

from __future__ import annotations

from repro.ir.graph import CDFG, CDFGError
from repro.ir.ops import Op, arity


def validate(graph: CDFG) -> None:
    """Raise :class:`CDFGError` if the graph violates a structural invariant.

    Checks:
        * acyclicity (over data + control edges);
        * operand arity per op;
        * OUTPUT nodes have no consumers; INPUT/CONST have no operands;
        * at least one OUTPUT exists and every OUTPUT is fed;
        * every non-structural node reaches some OUTPUT (no dead ops);
        * shift amounts are constant.

    A pass is memoized on the graph until its next mutation.
    """
    if graph._control().validated:
        return
    graph.topological_order()  # raises on cycles

    if not graph.outputs():
        raise CDFGError(f"graph {graph.name!r} has no outputs")

    for node in graph:
        expected = arity(node.op)
        if len(node.operands) != expected:
            raise CDFGError(
                f"node {node.nid} ({node.op.value}) has {len(node.operands)} "
                f"operands, expected {expected}"
            )
        if node.op is Op.OUTPUT and graph.data_succs(node.nid):
            raise CDFGError(f"OUTPUT node {node.nid} has consumers")
        if node.op in (Op.SHL, Op.SHR):
            amount = graph.node(node.operands[1])
            if amount.op is not Op.CONST:
                raise CDFGError(
                    f"shift node {node.nid} has non-constant amount; "
                    "variable shifts are not zero-latency wiring"
                )

    # Dead-operation check: every schedulable node must reach an output.
    live = graph.live_nodes()
    for node in graph:
        if node.is_schedulable and node.nid not in live:
            raise CDFGError(
                f"node {node.nid} ({node.label()}) does not reach any output; "
                "run transform.eliminate_dead_nodes or fix the circuit"
            )
    graph._control().validated = True
