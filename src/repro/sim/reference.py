"""Reference functional model: evaluate a CDFG directly.

The golden model every synthesized design is checked against — with and
without power management the RTL must produce exactly these outputs.

The model evaluates a whole batch of input vectors at once: it walks the
data-only topological order once and computes each node's value column
(one entry per vector) with one
:meth:`~repro.ir.ops.OpSemantics.evaluate_column` call.  A single vector
is a batch of one.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.ir.graph import CDFG
from repro.ir.ops import Op, OpSemantics

Vector = Mapping[str, int]


def evaluate(graph: CDFG, inputs: Vector | Sequence[Vector],
             width: int = 8) -> dict[str, int] | list[dict[str, int]]:
    """Outputs of ``graph`` for named ``inputs`` on a ``width``-bit datapath.

    ``inputs`` is one vector (a mapping of input name to value), which
    gives one ``{output name: value}`` dict, or a sequence of vectors,
    which gives the list of those dicts in order (``[]`` for no vectors).
    A vector without a value for some input raises
    ``KeyError("missing input 'name'")``.
    """
    single = isinstance(inputs, Mapping)
    vectors = [inputs] if single else inputs
    columns = evaluate_all(graph, vectors, width)
    outputs = [(out.name, columns[out.nid]) for out in graph.outputs()]
    rows = [{name: column[row] for name, column in outputs}
            for row in range(len(vectors))]
    return rows[0] if single else rows


def evaluate_all(graph: CDFG, inputs: Vector | Sequence[Vector],
                 width: int = 8) -> dict[int, int] | dict[int, list[int]]:
    """Value of every node, keyed by node id.

    For one vector each value is an int; for a sequence of vectors it
    is the node's column, a list with one value per vector.
    """
    if isinstance(inputs, Mapping):
        return {nid: column[0] for nid, column
                in evaluate_all(graph, [inputs], width).items()}
    semantics = OpSemantics(width=width)
    wrap = semantics.wrap
    half, mask = 1 << (width - 1), semantics.mask
    # Enum members as locals: an ``Op.X`` lookup per node costs more
    # than a small graph's column kernels.
    INPUT, CONST, SHL, SHR = Op.INPUT, Op.CONST, Op.SHL, Op.SHR
    values: dict[int, list[int]] = {}
    for nid in graph.topological_order(include_control=False):
        node = graph.node(nid)
        op = node.op
        if op is INPUT:
            name = node.name
            try:
                values[nid] = [wrap(vector[name]) for vector in inputs]
            except KeyError:
                raise KeyError(f"missing input {name!r}") from None
        elif op is CONST:
            values[nid] = [wrap(node.value)] * len(inputs)
        elif op is SHL:
            # Wiring: a shift's amount is the constant's raw value, as
            # the hardware wires it, not a datapath value.
            amount = graph.node(node.operands[1]).value
            values[nid] = [(((a << amount) + half) & mask) - half
                           for a in values[node.operands[0]]]
        elif op is SHR:
            amount = graph.node(node.operands[1]).value
            values[nid] = [(((a >> amount) + half) & mask) - half
                           for a in values[node.operands[0]]]
        else:
            values[nid] = semantics.evaluate_column(
                op, [values[p] for p in node.operands])
    return values
