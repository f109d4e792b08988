"""Exact integral max-flow with vertex capacities; connectivity queries and tables.

Element-connectivity between terminals u,v is a max-flow after the standard
vertex split: every vertex w becomes w_in -> w_out with capacity 1 for
non-terminals and deg(w) for terminals, and every undirected edge becomes a
unit arc in each direction between the matching out/in nodes. The flow value
counts pairwise element-disjoint u-v paths. Hyperedge-connectivity of a
hypergraph is the element-connectivity of its incidence instance, where
hyperedge nodes get unit capacity.

Max-flows use shortest augmenting paths (Edmonds-Karp): each breadth-first
search over the residual arcs finds one shortest source-sink path and pushes
its bottleneck, so a flow of value k costs k+1 searches of O(arcs) each.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import InvalidQueryError, NonTerminalEndpointError, UnknownVertexError
from .hypergraph import Hypergraph, incidence_graph
from .multigraph import ElementConnInstance


@dataclass(frozen=True)
class FlowNetwork:
    """Directed arcs with nonnegative integer capacities and fixed endpoints."""

    num_nodes: int
    arcs: tuple[tuple[int, int, int], ...]
    source: int
    sink: int

    def __post_init__(self):
        for tail, head, cap in self.arcs:
            if not (0 <= tail < self.num_nodes and 0 <= head < self.num_nodes):
                raise ValueError(f"arc ({tail},{head}) endpoint out of range")
            if cap < 0:
                raise ValueError(f"arc ({tail},{head}) has negative capacity {cap}")
        for node in (self.source, self.sink):
            if not 0 <= node < self.num_nodes:
                raise ValueError(f"designated node {node} out of range")


def max_flow(net: FlowNetwork) -> int:
    """Exact value of an integral maximum source->sink flow."""
    if net.source == net.sink:
        raise InvalidQueryError("source and sink coincide")
    return _max_flow(net.num_nodes, net.arcs, net.source, net.sink)


def _max_flow(num_nodes: int, arcs: Iterable[tuple[int, int, int]], source: int, sink: int) -> int:
    # residual arc i runs to head[i] with capacity cap[i]; arc i ^ 1 is its reverse
    head: list[int] = []
    cap: list[int] = []
    out: list[list[int]] = [[] for _ in range(num_nodes)]
    for tail, tip, c in arcs:
        out[tail].append(len(head))
        out[tip].append(len(head) + 1)
        head += (tip, tail)
        cap += (c, 0)

    total = 0
    while True:
        via = [-1] * num_nodes  # residual arc that labelled each node
        via[source] = -2
        queue = deque([source])
        while queue and via[sink] == -1:
            for a in out[queue.popleft()]:
                if cap[a] > 0 and via[head[a]] == -1:
                    via[head[a]] = a
                    queue.append(head[a])
        if via[sink] == -1:
            return total
        path = []
        node = sink
        while node != source:
            path.append(via[node])
            node = head[via[node] ^ 1]
        push = min(cap[a] for a in path)
        for a in path:
            cap[a] -= push
            cap[a ^ 1] += push
        total += push


@dataclass(frozen=True)
class ConnTable:
    """Symmetric map from unordered terminal pairs to connectivity values.

    Keys are canonical (min, max) tuples; every distinct pair of the
    underlying terminal set appears exactly once.
    """

    values: Mapping[tuple[int, int], int]

    def __post_init__(self):
        canon = {}
        for (u, v), k in self.values.items():
            if u == v:
                raise ValueError(f"pair key ({u},{v}) is not a pair")
            if k < 0:
                raise ValueError(f"negative connectivity for pair ({u},{v})")
            canon[(u, v) if u < v else (v, u)] = k
        object.__setattr__(self, "values", MappingProxyType(canon))

    def get(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        try:
            return self.values[key]
        except KeyError:
            raise UnknownVertexError(f"pair ({u},{v}) not in table") from None

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """(u, v, value) triples in ascending key order."""
        for u, v in sorted(self.values):
            yield u, v, self.values[(u, v)]

    def restrict(self, keep: Iterable[int]) -> "ConnTable":
        ks = frozenset(keep)
        return ConnTable({p: k for p, k in self.values.items() if p[0] in ks and p[1] in ks})

    def remapped(self, mapping: Mapping[int, int]) -> "ConnTable":
        """Rewrite pair keys through a vertex bijection."""
        return ConnTable({(mapping[u], mapping[v]): k for (u, v), k in self.values.items()})

    def __len__(self) -> int:
        return len(self.values)


def _split_arcs(inst: ElementConnInstance) -> tuple[int, list[tuple[int, int, int]], dict[int, int]]:
    """Vertex-split arc list shared by every pair query on one instance.

    Returns (node count, arcs, index of each vertex). Vertex w occupies nodes
    2*i (in) and 2*i+1 (out). Terminal capacity is its degree, which bounds
    any flow through it just like an infinite capacity would.
    """
    order = sorted(inst.graph.vertices)
    index = {v: i for i, v in enumerate(order)}
    arcs: list[tuple[int, int, int]] = []
    for v in order:
        cap = inst.graph.degree(v) if v in inst.terminals else 1
        arcs.append((2 * index[v], 2 * index[v] + 1, cap))
    for eid in inst.graph.edge_ids():
        a, b = inst.graph.endpoints(eid)
        arcs.append((2 * index[a] + 1, 2 * index[b], 1))
        arcs.append((2 * index[b] + 1, 2 * index[a], 1))
    return 2 * len(order), arcs, index


def _check_terminal(inst: ElementConnInstance, v: int) -> None:
    if v not in inst.graph.vertices:
        raise UnknownVertexError(f"unknown vertex {v}")
    if v not in inst.terminals:
        raise NonTerminalEndpointError(f"vertex {v} is not a terminal")


def element_connectivity(inst: ElementConnInstance, u: int, v: int) -> int:
    """Minimum number of elements (non-terminals or edges) separating u and v."""
    if u == v:
        raise InvalidQueryError("endpoints coincide")
    _check_terminal(inst, u)
    _check_terminal(inst, v)
    num_nodes, arcs, index = _split_arcs(inst)
    return _max_flow(num_nodes, arcs, 2 * index[u] + 1, 2 * index[v])


def conn_table_elements(inst: ElementConnInstance) -> ConnTable:
    """Element-connectivity for every unordered terminal pair.

    Fewer than two terminals yields an empty table.
    """
    terms = sorted(inst.terminals)
    if len(terms) < 2:
        return ConnTable({})
    num_nodes, arcs, index = _split_arcs(inst)
    values = {}
    for i, u in enumerate(terms):
        for v in terms[i + 1 :]:
            values[(u, v)] = _max_flow(num_nodes, arcs, 2 * index[u] + 1, 2 * index[v])
    return ConnTable(values)


def hyperedge_connectivity(h: Hypergraph, u: int, v: int) -> int:
    """Local edge-connectivity: hyperedges crossing the cheapest u/v-separating cut.

    Computed as element-connectivity on the incidence instance.
    """
    if u == v:
        raise InvalidQueryError("endpoints coincide")
    for w in (u, v):
        if w not in h.vertices:
            raise UnknownVertexError(f"unknown vertex {w}")
    inc = incidence_graph(h)
    return element_connectivity(inc.instance, inc.vertex_node[u], inc.vertex_node[v])


def conn_table_hyper(h: Hypergraph) -> ConnTable:
    """Local edge-connectivity for every unordered vertex pair of ``h``."""
    if len(h.vertices) < 2:
        return ConnTable({})
    inc = incidence_graph(h)
    node_table = conn_table_elements(inc.instance)
    return node_table.remapped(inc.node_vertex)
