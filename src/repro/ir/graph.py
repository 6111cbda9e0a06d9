"""The Control Data Flow Graph (CDFG).

Nodes are operations; data edges are implied by each node's ordered operand
list.  In addition the graph carries *control edges* — pure precedence
constraints with no data flow — which is exactly what the paper's step 10
inserts between a MUX's select driver and the top nodes of its data cones.

Derived analysis is memoized on two levels, so the PM pass, the
schedulers and the power models can query it as often as they like:

* the **data level** (:class:`_DataMemo`) reads only nodes and operands:
  data adjacency, the data-only topological order, the schedulable
  operation ids, the per-MUX cones of :mod:`repro.core.cones` and the
  operand sources of :func:`repro.alloc.lifetimes.resolve_source`.  Only
  ``add_node`` and ``set_latency`` drop it, and :meth:`CDFG.copy` shares
  it, since a copy has the same data structure until one side changes a
  node;
* the **control level** (:class:`_ControlMemo`) also reads the control
  edges: full adjacency and order, the fingerprint, a passed validation,
  and the timing analysis of :mod:`repro.sched.timing`.  Every mutation
  drops it, and a copy starts without one.

Pickling drops both levels.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import replace
from typing import Callable, Iterable, Iterator

from repro.ir.node import Node
from repro.ir.ops import Op


class CDFGError(Exception):
    """Raised for structurally invalid CDFG operations."""


class _DataMemo:
    """Analysis of the data edges alone, filled on demand.

    It holds only ids, tuples and frozen values (cones, source refs),
    never :class:`Node` objects, so every graph sharing it reads its own
    nodes.
    """

    __slots__ = ("data_preds", "data_succs", "order", "operations", "cones",
                 "sources")

    def __init__(self) -> None:
        self.data_preds: dict[int, tuple[int, ...]] = {}
        self.data_succs: dict[int, tuple[int, ...]] = {}
        #: Data-only topological order.
        self.order: tuple[int, ...] | None = None
        #: Ids of the schedulable operations, in node order.
        self.operations: tuple[int, ...] | None = None
        #: MUX id -> ``repro.core.cones.MuxCones``.
        self.cones: dict[int, object] = {}
        #: Node id -> ``repro.alloc.lifetimes.SourceRef``.
        self.sources: dict[int, object] = {}


class _ControlMemo:
    """Analysis over data and control edges, filled on demand.

    Adjacency entries are tuples, so handing them out internally can never
    corrupt the memo; the public accessors copy them into fresh lists.
    """

    __slots__ = ("preds", "succs", "order", "fingerprint", "validated",
                 "asap", "frames")

    def __init__(self) -> None:
        self.preds: dict[int, tuple[int, ...]] = {}
        self.succs: dict[int, tuple[int, ...]] = {}
        self.order: tuple[int, ...] | None = None
        self.fingerprint: str | None = None
        #: ``repro.ir.validate.validate`` passed on this structure.
        self.validated = False
        #: ``repro.sched.timing``: the ASAP map, and the feasible
        #: ``TimingFrame`` per step budget.  Shared read-only.
        self.asap: dict[int, int] | None = None
        self.frames: dict[int, object] = {}


class CDFG:
    """A directed acyclic graph of operations.

    Edge kinds:
        * data edges — ``u`` is an operand of ``v`` (implied by operands);
        * control edges — scheduling precedence only (added by the PM pass).

    Both kinds constrain scheduling; only data edges carry values.

    All mutation goes through CDFG methods: ``add_node`` and
    ``set_latency`` drop both memo levels, the control edge methods only
    the control level (see the module docstring).  Nodes are frozen and
    the data adjacency holds tuples that a mutation rebinds, never edits,
    so :meth:`copy` shares both with the original; only the control edge
    sets are copied.
    """

    def __init__(self, name: str = "cdfg") -> None:
        self.name = name
        self._nodes: dict[int, Node] = {}
        self._succs: dict[int, tuple[int, ...]] = {}
        self._control_succs: dict[int, set[int]] = {}
        self._control_preds: dict[int, set[int]] = {}
        self._next_id = 0
        self._data_memo: _DataMemo | None = None
        self._control_memo: _ControlMemo | None = None

    def _invalidate(self, data: bool = False) -> None:
        """The one place derived analysis is dropped after a mutation:
        the control level always, the data level when ``data``."""
        self._control_memo = None
        if data:
            self._data_memo = None

    def _data(self) -> _DataMemo:
        memo = self._data_memo
        if memo is None:
            memo = self._data_memo = _DataMemo()
        return memo

    def _control(self) -> _ControlMemo:
        memo = self._control_memo
        if memo is None:
            memo = self._control_memo = _ControlMemo()
        return memo

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_data_memo"], state["_control_memo"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._data_memo = None
        self._control_memo = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(
        self,
        op: Op,
        operands: Iterable[int] = (),
        name: str = "",
        value: int | None = None,
        latency: int = -1,
    ) -> int:
        """Create a node and return its id.  Operands must already exist."""
        operands = tuple(operands)
        for producer in operands:
            if producer not in self._nodes:
                raise CDFGError(f"operand {producer} does not exist")
        nid = self._next_id
        self._next_id += 1
        node = Node(nid=nid, op=op, operands=operands, name=name, value=value,
                    latency=latency)
        self._nodes[nid] = node
        self._succs[nid] = ()
        for producer in operands:
            self._succs[producer] += (nid,)
        self._invalidate(data=True)
        return nid

    def set_latency(self, nid: int, latency: int) -> None:
        """Give node ``nid`` a new latency (a multicycle unit, say).

        Swaps in a new node; a copy that shares the old one keeps it.
        """
        self._nodes[nid] = replace(self.node(nid), latency=latency)
        self._invalidate(data=True)

    def add_control_edge(self, src: int, dst: int) -> None:
        """Add a pure precedence edge ``src`` -> ``dst`` (paper step 10).

        Raises :class:`CDFGError`, leaving the graph untouched, if the edge
        would close a cycle, i.e. if ``src`` is reachable from ``dst``.
        """
        if src not in self._nodes or dst not in self._nodes:
            raise CDFGError(f"control edge {src}->{dst}: unknown node")
        if src == dst:
            raise CDFGError(f"control self-edge on node {src}")
        # Keyed before the cycle probe, even for a refused edge.
        succs = self._control_succs.setdefault(src, set())
        preds = self._control_preds.setdefault(dst, set())
        if dst in succs:
            return
        if self._reaches(dst, src):
            raise CDFGError(f"control edge {src}->{dst} creates a cycle")
        succs.add(dst)
        preds.add(src)
        self._invalidate()

    def replay_control_edges(self, src: int, dsts: Iterable[int]) -> None:
        """Add edges ``src`` -> each of ``dsts`` with no cycle probe, and
        key ``src`` as :meth:`add_control_edge` would, even with no
        ``dsts``.  Only for edges that call accepted on a graph in this
        graph's state, which are acyclic by construction."""
        succs = self._control_succs.setdefault(src, set())
        preds = self._control_preds
        for dst in dsts:
            succs.add(dst)
            preds.setdefault(dst, set()).add(src)
        self._invalidate()

    def remove_control_edge(self, src: int, dst: int) -> None:
        self._control_succs.get(src, set()).discard(dst)
        self._control_preds.get(dst, set()).discard(src)
        self._invalidate()

    def clear_control_edges(self) -> None:
        self._control_succs.clear()
        self._control_preds.clear()
        self._invalidate()

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def node(self, nid: int) -> Node:
        try:
            return self._nodes[nid]
        except KeyError:
            raise CDFGError(f"no node with id {nid}") from None

    def __contains__(self, nid: int) -> bool:
        return nid in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    @property
    def node_ids(self) -> list[int]:
        return list(self._nodes)

    def nodes(self, predicate: Callable[[Node], bool] | None = None) -> list[Node]:
        """All nodes, optionally filtered."""
        if predicate is None:
            return list(self._nodes.values())
        return [n for n in self._nodes.values() if predicate(n)]

    def inputs(self) -> list[Node]:
        return self.nodes(lambda n: n.op is Op.INPUT)

    def outputs(self) -> list[Node]:
        return self.nodes(lambda n: n.op is Op.OUTPUT)

    def constants(self) -> list[Node]:
        return self.nodes(lambda n: n.op is Op.CONST)

    def muxes(self) -> list[Node]:
        return self.nodes(lambda n: n.op is Op.MUX)

    def operations(self) -> list[Node]:
        """Schedulable operation nodes (what Tables I/II count)."""
        memo = self._data()
        if memo.operations is None:
            memo.operations = tuple(nid for nid, node in self._nodes.items()
                                    if node.is_schedulable)
        nodes = self._nodes
        return [nodes[nid] for nid in memo.operations]

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------

    def data_preds(self, nid: int) -> list[int]:
        """Operand producers (with duplicates collapsed, order preserved)."""
        return list(self._data_preds(nid))

    def data_succs(self, nid: int) -> list[int]:
        """Consumers of this node's value (duplicates collapsed)."""
        return list(self._data_succs(nid))

    def control_preds(self, nid: int) -> set[int]:
        return set(self._control_preds.get(nid, ()))

    def control_succs(self, nid: int) -> set[int]:
        return set(self._control_succs.get(nid, ()))

    def control_edges(self) -> list[tuple[int, int]]:
        """Sources in the order they were first keyed (refused edges
        included), destinations ascending."""
        return [(u, v) for u, vs in self._control_succs.items() for v in sorted(vs)]

    def preds(self, nid: int) -> list[int]:
        """All predecessors: data + control (scheduling constraints)."""
        return list(self._preds(nid))

    def succs(self, nid: int) -> list[int]:
        """All successors: data + control."""
        return list(self._succs_of(nid))

    # Memoized adjacency as tuples.  Data edges keep operand order; control
    # edges follow in ascending id order.

    def _data_preds(self, nid: int) -> tuple[int, ...]:
        memo = self._data().data_preds
        found = memo.get(nid)
        if found is None:
            found = memo[nid] = tuple(dict.fromkeys(self.node(nid).operands))
        return found

    def _data_succs(self, nid: int) -> tuple[int, ...]:
        memo = self._data().data_succs
        found = memo.get(nid)
        if found is None:
            found = memo[nid] = tuple(dict.fromkeys(self._succs[nid]))
        return found

    def _preds(self, nid: int) -> tuple[int, ...]:
        memo = self._control().preds
        found = memo.get(nid)
        if found is None:
            found = self._with_control(self._data_preds(nid),
                                       self._control_preds.get(nid))
            memo[nid] = found
        return found

    def _succs_of(self, nid: int) -> tuple[int, ...]:
        memo = self._control().succs
        found = memo.get(nid)
        if found is None:
            found = self._with_control(self._data_succs(nid),
                                       self._control_succs.get(nid))
            memo[nid] = found
        return found

    @staticmethod
    def _with_control(data: tuple[int, ...],
                      control: set[int] | None) -> tuple[int, ...]:
        if not control:
            return data
        return data + tuple(n for n in sorted(control) if n not in data)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def topological_order(self, include_control: bool = True) -> list[int]:
        """Kahn topological sort; raises CDFGError on cycles."""
        memo = self._control() if include_control else self._data()
        if memo.order is None:
            memo.order = self._kahn(include_control)
        return list(memo.order)

    def _kahn(self, include_control: bool) -> tuple[int, ...]:
        succs_of = self._succs_of if include_control else self._data_succs
        preds_of = self._preds if include_control else self._data_preds
        indegree = {nid: len(preds_of(nid)) for nid in self._nodes}
        ready = deque(sorted(n for n, d in indegree.items() if d == 0))
        order: list[int] = []
        while ready:
            nid = ready.popleft()
            order.append(nid)
            for succ in succs_of(nid):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._nodes):
            raise CDFGError("graph contains a cycle")
        return tuple(order)

    def _reaches(self, start: int, target: int) -> bool:
        """Whether ``target`` is reachable from ``start`` over data and
        control edges (depth-first, stops at the first hit)."""
        seen = {start}
        stack = [start]
        while stack:
            nid = stack.pop()
            for step in (self._succs[nid], self._control_succs.get(nid, ())):
                for nxt in step:
                    if nxt == target:
                        return True
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        return False

    def transitive_fanin(self, nid: int, include_self: bool = False) -> set[int]:
        """All nodes from which ``nid`` is reachable via data edges."""
        self.node(nid)  # validate
        return self._reach([nid], self._operands, include_self)

    def transitive_fanout(self, nid: int, include_self: bool = False) -> set[int]:
        """All nodes reachable from ``nid`` via data edges."""
        self.node(nid)  # validate
        return self._reach([nid], self._succs.__getitem__, include_self)

    def live_nodes(self) -> set[int]:
        """The OUTPUT nodes and every node they depend on via data edges,
        in one reverse traversal from all outputs at once."""
        outputs = [node.nid for node in self.outputs()]
        return self._reach(outputs, self._operands, include_self=True)

    def _operands(self, nid: int) -> tuple[int, ...]:
        return self._nodes[nid].operands

    def _reach(self, starts: list[int], step, include_self: bool) -> set[int]:
        """Nodes reachable from ``starts`` through ``step`` (raw adjacency
        with duplicates is fine: every node is visited once)."""
        seen: set[int] = set()
        frontier = deque(nid for start in starts for nid in step(start))
        while frontier:
            nid = frontier.popleft()
            if nid in seen:
                continue
            seen.add(nid)
            frontier.extend(step(nid))
        if include_self:
            seen.update(starts)
        return seen

    def longest_path_to_output(self) -> dict[int, int]:
        """Weighted longest path (sum of latencies) from each node to any
        graph sink, over data+control edges.  Used to order MUX processing
        (paper: closest to the outputs first = smallest distance)."""
        dist: dict[int, int] = {}
        for nid in reversed(self.topological_order()):
            succs = self._succs_of(nid)
            node = self._nodes[nid]
            if not succs:
                dist[nid] = node.latency
            else:
                dist[nid] = node.latency + max(dist[s] for s in succs)
        return dist

    # ------------------------------------------------------------------
    # Utility
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash (nodes, operands, control edges), memoized.

        Two independently-built but identical graphs fingerprint equally.
        """
        memo = self._control()
        if memo.fingerprint is None:
            from repro.ir.serialize import graph_to_dict
            payload = json.dumps(graph_to_dict(self), sort_keys=True,
                                 separators=(",", ":"))
            memo.fingerprint = hashlib.sha256(
                payload.encode("utf-8")).hexdigest()
        return memo.fingerprint

    def copy(self, name: str | None = None) -> "CDFG":
        """Independent copy with the same node ids.

        The copy shares this graph's frozen nodes, data adjacency tuples
        and data-level memo, so analysis either side fills in is computed
        once, until one of them changes a node; it copies the control
        edge sets and starts without a control-level memo."""
        clone = CDFG(name=name or self.name)
        clone._next_id = self._next_id
        clone._data_memo = self._data()
        clone._nodes = dict(self._nodes)
        clone._succs = dict(self._succs)
        clone._control_succs = {src: set(dsts) for src, dsts
                                in self._control_succs.items()}
        clone._control_preds = {dst: set(srcs) for dst, srcs
                                in self._control_preds.items()}
        return clone

    def op_counts(self) -> dict[str, int]:
        """Schedulable operation counts by resource class (Table I columns)."""
        counts: dict[str, int] = {}
        for node in self.operations():
            key = node.resource.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CDFG({self.name!r}, {len(self._nodes)} nodes, "
                f"{len(self.control_edges())} control edges)")
