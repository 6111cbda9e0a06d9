"""The Control Data Flow Graph (CDFG).

Nodes are operations; data edges are implied by each node's ordered operand
list.  In addition the graph carries *control edges* — pure precedence
constraints with no data flow — which is exactly what the paper's step 10
inserts between a MUX's select driver and the top nodes of its data cones.

Derived analysis (deduplicated adjacency, topological orders, the content
fingerprint, a passed validation) is memoized and dropped by every
mutating method, so the PM pass and the schedulers can query it as often
as they like.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from typing import Callable, Iterable, Iterator

from repro.ir.node import Node
from repro.ir.ops import Op


class CDFGError(Exception):
    """Raised for structurally invalid CDFG operations."""


class _Memo:
    """Analysis derived from the graph's structure, filled on demand.

    Adjacency entries are tuples, so handing them out internally can never
    corrupt the memo; the public accessors copy them into fresh lists.
    """

    __slots__ = ("data_preds", "data_succs", "preds", "succs", "order",
                 "fingerprint", "validated")

    def __init__(self) -> None:
        self.data_preds: dict[int, tuple[int, ...]] = {}
        self.data_succs: dict[int, tuple[int, ...]] = {}
        self.preds: dict[int, tuple[int, ...]] = {}
        self.succs: dict[int, tuple[int, ...]] = {}
        self.order: dict[bool, tuple[int, ...]] = {}
        self.fingerprint: str | None = None
        #: ``repro.ir.validate.validate`` passed on this structure.
        self.validated = False


class CDFG:
    """A directed acyclic graph of operations.

    Edge kinds:
        * data edges — ``u`` is an operand of ``v`` (implied by operands);
        * control edges — scheduling precedence only (added by the PM pass).

    Both kinds constrain scheduling; only data edges carry values.

    All mutation goes through CDFG methods (``add_node`` and the control
    edge methods), which drop the analysis memo.  ``Node.operands`` must
    not be mutated after ``add_node``, and a node's other fields not after
    the graph has been fingerprinted: the memo would not see the change.
    """

    def __init__(self, name: str = "cdfg") -> None:
        self.name = name
        self._nodes: dict[int, Node] = {}
        self._succs: dict[int, list[int]] = {}
        self._control_succs: dict[int, set[int]] = {}
        self._control_preds: dict[int, set[int]] = {}
        self._next_id = 0
        self._memo: _Memo | None = None

    def _invalidate(self) -> None:
        """The one place derived analysis is dropped after a mutation."""
        self._memo = None

    def _cache(self) -> _Memo:
        memo = self._memo
        if memo is None:
            memo = self._memo = _Memo()
        return memo

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_memo"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._memo = None

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
        operands = list(operands)
        for producer in operands:
            if producer not in self._nodes:
                raise CDFGError(f"operand {producer} does not exist")
        nid = self._next_id
        self._next_id += 1
        node = Node(nid=nid, op=op, operands=operands, name=name, value=value,
                    latency=latency)
        self._nodes[nid] = node
        self._succs[nid] = []
        for producer in operands:
            self._succs[producer].append(nid)
        self._invalidate()
        return nid

    def add_control_edge(self, src: int, dst: int) -> None:
        """Add a pure precedence edge ``src`` -> ``dst`` (paper step 10).

        Raises :class:`CDFGError`, leaving the graph untouched, if the edge
        would close a cycle, i.e. if ``src`` is reachable from ``dst``.
        """
        if src not in self._nodes or dst not in self._nodes:
            raise CDFGError(f"control edge {src}->{dst}: unknown node")
        if src == dst:
            raise CDFGError(f"control self-edge on node {src}")
        # Keyed before the cycle probe, even for a refused edge: the key
        # order of `_control_succs` is the order of control_edges().
        succs = self._control_succs.setdefault(src, set())
        preds = self._control_preds.setdefault(dst, set())
        if dst in succs:
            return
        if self._reaches(dst, src):
            raise CDFGError(f"control edge {src}->{dst} creates a cycle")
        succs.add(dst)
        preds.add(src)
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
        return self.nodes(lambda n: n.is_schedulable)

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
        memo = self._cache().data_preds
        found = memo.get(nid)
        if found is None:
            found = memo[nid] = tuple(dict.fromkeys(self.node(nid).operands))
        return found

    def _data_succs(self, nid: int) -> tuple[int, ...]:
        memo = self._cache().data_succs
        found = memo.get(nid)
        if found is None:
            found = memo[nid] = tuple(dict.fromkeys(self._succs[nid]))
        return found

    def _preds(self, nid: int) -> tuple[int, ...]:
        memo = self._cache().preds
        found = memo.get(nid)
        if found is None:
            found = self._with_control(self._data_preds(nid),
                                       self._control_preds.get(nid))
            memo[nid] = found
        return found

    def _succs_of(self, nid: int) -> tuple[int, ...]:
        memo = self._cache().succs
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
        memo = self._cache().order
        order = memo.get(include_control)
        if order is None:
            order = memo[include_control] = self._kahn(include_control)
        return list(order)

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

    def _operands(self, nid: int) -> list[int]:
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
        memo = self._cache()
        if memo.fingerprint is None:
            from repro.ir.serialize import graph_to_dict
            payload = json.dumps(graph_to_dict(self), sort_keys=True,
                                 separators=(",", ":"))
            memo.fingerprint = hashlib.sha256(
                payload.encode("utf-8")).hexdigest()
        return memo.fingerprint

    def copy(self, name: str | None = None) -> "CDFG":
        """Deep copy (nodes, data and control edges), preserving node ids.
        The copy starts with an empty analysis memo."""
        clone = CDFG(name=name or self.name)
        clone._next_id = self._next_id
        for nid, node in self._nodes.items():
            clone._nodes[nid] = Node(
                nid=node.nid, op=node.op, operands=list(node.operands),
                name=node.name, value=node.value, latency=node.latency,
            )
            clone._succs[nid] = list(self._succs[nid])
        for src, dsts in self._control_succs.items():
            clone._control_succs[src] = set(dsts)
        for dst, srcs in self._control_preds.items():
            clone._control_preds[dst] = set(srcs)
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
