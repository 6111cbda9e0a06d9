"""Multiplexor fan-in cone analysis (paper step 3).

For a MUX ``m`` with inputs ``[select, in0, in1]``:

* the **control cone** is the transitive fan-in of ``select``;
* the **shut-down cone** of side ``s`` is the largest set of operations
  whose results are needed *only* when ``m`` selects side ``s``:

  1. start from TFI(in_s);
  2. drop nodes also in TFI(in_{1-s}) — needed whichever way the condition
     goes (paper: "in the fanin cone of the 0 and 1 inputs");
  3. drop nodes in TFI(select) — they produce the condition itself;
  4. close under the fan-out rule: drop any node with a consumer outside
     the cone other than ``m`` itself (paper: "nodes that fanout to other
     nodes besides the current multiplexor"), repeating to a fixed point.

Cones contain zero-latency wiring nodes too (so a chain op -> shift -> mux
is gatable end-to-end); only the schedulable members represent execution
units that can be shut down.

Cones read only data edges, so :func:`compute_cones` memoizes them on the
graph's data-level memo: the PM pass, which only adds control edges to a
copy of its input, decomposes each MUX once per input graph, whatever
order it processes the MUXes in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.graph import CDFG
from repro.ir.ops import Op


@dataclass(frozen=True)
class MuxCones:
    """Cone decomposition of one multiplexor.

    Shared by every graph with the same data structure, so read-only; the
    schedulable members are filtered once, on the first query.
    """

    mux: int
    control: frozenset[int]       # TFI(select) incl. the driver, non-structural
    shutdown: tuple[frozenset[int], frozenset[int]]  # per side (0, 1)

    @property
    def select_driver_included(self) -> bool:
        return bool(self.control)

    def shutdown_ops(self, graph: CDFG, side: int) -> frozenset[int]:
        """Schedulable operations gated on ``side`` (what Tables II counts)."""
        return self._ops(graph)[side]

    def all_shutdown_ops(self, graph: CDFG) -> frozenset[int]:
        return self._ops(graph)[2]

    def _ops(self, graph: CDFG) -> tuple[frozenset[int], ...]:
        """(side 0, side 1, both) schedulable members, computed once."""
        ops = self.__dict__.get("_ops_memo")
        if ops is None:
            sides = [frozenset(n for n in self.shutdown[side]
                               if graph.node(n).is_schedulable)
                     for side in (0, 1)]
            ops = self.__dict__["_ops_memo"] = (*sides, sides[0] | sides[1])
        return ops

    def top_nodes(self, graph: CDFG, side: int) -> frozenset[int]:
        """Cone nodes with no data predecessor inside the cone — the nodes
        the paper's step 10 control edges point at."""
        cone = self.shutdown[side]
        return frozenset(
            n for n in cone
            if not any(p in cone for p in graph.data_preds(n))
        )


def _non_structural_tfi(graph: CDFG, nid: int) -> set[int]:
    return {
        n for n in graph.transitive_fanin(nid, include_self=True)
        if not graph.node(n).op in (Op.INPUT, Op.CONST)
    }


def compute_cones(graph: CDFG, mux_id: int) -> MuxCones:
    """Decompose MUX ``mux_id`` into control and per-side shut-down cones.

    Memoized on the graph's data level: the result is shared with every
    copy of ``graph`` and must be treated as read-only.
    """
    memo = graph._data().cones
    cones = memo.get(mux_id)
    if cones is None:
        cones = memo[mux_id] = _decompose(graph, mux_id)
    return cones


def _decompose(graph: CDFG, mux_id: int) -> MuxCones:
    mux = graph.node(mux_id)
    if not mux.is_mux:
        raise ValueError(f"node {mux_id} is not a MUX")

    control = _non_structural_tfi(graph, mux.select_operand)
    tfi = [
        _non_structural_tfi(graph, mux.data_operand(0)),
        _non_structural_tfi(graph, mux.data_operand(1)),
    ]

    sides: list[frozenset[int]] = []
    for side in (0, 1):
        cone = tfi[side] - tfi[1 - side] - control
        cone.discard(mux_id)
        # Fan-out closure: every consumer must stay inside the cone or be
        # the mux itself.  Removing a node can strand its producers, so
        # iterate to a fixed point.
        while True:
            violating = {
                n for n in cone
                if any(s != mux_id and s not in cone
                       for s in graph.data_succs(n))
            }
            if not violating:
                break
            cone -= violating
        sides.append(frozenset(cone))

    return MuxCones(mux=mux_id, control=frozenset(control),
                    shutdown=(sides[0], sides[1]))


def compute_all_cones(graph: CDFG) -> dict[int, MuxCones]:
    """Cone decomposition for every MUX in the graph."""
    return {m.nid: compute_cones(graph, m.nid) for m in graph.muxes()}
