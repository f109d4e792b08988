"""Multi-hypergraph data model, cuts, incidence view, and split-off primitives.

A hypergraph is a vertex set plus a multiset of hyperedges, each a vertex
subset of size >= 2 (no singletons, no loops). Hyperedge ids are stable:
a trim keeps the id of the shrunk edge, a merge keeps the ``keep`` id.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    InvalidCutError,
    MergeNotAlmostDisjointError,
    MissingEdgeError,
    ReplayError,
    HypersplitError,
    TrimMissingVertexError,
    UnknownVertexError,
)
from .multigraph import ElementConnInstance, Multigraph


@dataclass(frozen=True)
class Hypergraph:
    """Vertices plus a multiset of hyperedges keyed by stable integer ids."""

    vertices: frozenset[int]
    hyperedges: Mapping[int, frozenset[int]]

    def __post_init__(self):
        vertices = frozenset(self.vertices)
        try:  # one size test and one subset test over all hyperedges
            edges = dict(zip(self.hyperedges, map(frozenset, self.hyperedges.values())))
            bad = min(map(len, edges.values()), default=2) < 2 or not set().union(*edges.values()) <= vertices
        except TypeError:
            bad = True
        if bad:
            for eid, members in self.hyperedges.items():
                ms = frozenset(members)
                if len(ms) < 2:
                    raise ValueError(f"hyperedge {eid} has fewer than 2 vertices")
                if not ms <= vertices:
                    raise ValueError(f"hyperedge {eid} is not a subset of the vertex set")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "hyperedges", MappingProxyType(edges))

    def edge_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.hyperedges))

    def members(self, eid: int) -> frozenset[int]:
        try:
            return self.hyperedges[eid]
        except KeyError:
            raise MissingEdgeError(f"no hyperedge with id {eid}") from None

    def incident(self, v: int) -> tuple[int, ...]:
        """Ids of hyperedges containing v, ascending."""
        if v not in self.vertices:
            raise UnknownVertexError(f"unknown vertex {v}")
        return tuple(sorted(e for e, ms in self.hyperedges.items() if v in ms))

    def degree(self, v: int) -> int:
        return len(self.incident(v))

    @property
    def num_edges(self) -> int:
        return len(self.hyperedges)


@dataclass(frozen=True)
class Trim:
    """Remove the split vertex from one incident hyperedge."""

    edge: int


@dataclass(frozen=True)
class Merge:
    """Replace two hyperedges meeting exactly in the split vertex by their union.

    The result keeps the ``keep`` id; ``absorb`` disappears.
    """

    keep: int
    absorb: int


SplitOffOp = Union[Trim, Merge]


def delta(h: Hypergraph, side: Iterable[int]) -> frozenset[int]:
    """Ids of hyperedges crossing the cut ``side``.

    A hyperedge crosses when it has at least one vertex inside and one
    outside. ``side`` must be a nonempty proper subset of the vertex set.
    """
    s = frozenset(side)
    if not s or not s < h.vertices:
        raise InvalidCutError("cut side must be a nonempty proper subset of the vertices")
    return frozenset(e for e, ms in h.hyperedges.items() if ms & s and ms - s)


def apply_op(h: Hypergraph, s: int, op: SplitOffOp) -> Hypergraph:
    """Apply one trim or merge at vertex s, returning the new hypergraph.

    Trimming to a singleton drops the hyperedge entirely: a one-vertex edge
    crosses no cut, so no connectivity value can change, and the no-singleton
    invariant stays intact.
    """
    if s not in h.vertices:
        raise UnknownVertexError(f"unknown vertex {s}")
    if isinstance(op, Trim):
        target = h.members(op.edge)
        if s not in target:
            raise TrimMissingVertexError(f"hyperedge {op.edge} does not contain vertex {s}")
        shrunk = target - {s}
        edges = dict(h.hyperedges)
        if len(shrunk) >= 2:
            edges[op.edge] = shrunk
        else:
            del edges[op.edge]
        return Hypergraph(h.vertices, edges)
    if isinstance(op, Merge):
        e = h.members(op.keep)
        f = h.members(op.absorb)
        if op.keep == op.absorb or e & f != {s}:
            raise MergeNotAlmostDisjointError(
                f"hyperedges {op.keep} and {op.absorb} do not intersect exactly in vertex {s}"
            )
        edges = dict(h.hyperedges)
        edges[op.keep] = e | f
        del edges[op.absorb]
        return Hypergraph(h.vertices, edges)
    raise TypeError(f"not a split-off operation: {op!r}")


def replay(h: Hypergraph, s: int, ops: Sequence[SplitOffOp]) -> Hypergraph:
    """Left-fold of apply_op over a log.

    A failing operation raises ReplayError carrying its index; the input
    hypergraph is never modified. The result is a complete splitting-off
    iff s ends with degree 0.
    """
    cur = h
    for i, op in enumerate(ops):
        try:
            cur = apply_op(cur, s, op)
        except HypersplitError as exc:
            raise ReplayError(i, exc) from exc
    return cur


def hypergraph_equal(a: Hypergraph, b: Hypergraph) -> bool:
    """Id-agnostic equality: same vertices, same hyperedge multiset."""
    if a.vertices != b.vertices:
        return False
    return Counter(a.hyperedges.values()) == Counter(b.hyperedges.values())


@dataclass(frozen=True)
class Incidence:
    """Bipartite incidence view of a hypergraph as an element-connectivity instance.

    Each vertex is a terminal node with the vertex's own id, each hyperedge a
    non-terminal node, and adjacency is membership. ``edge_node`` maps
    hyperedges to their nodes.
    """

    instance: ElementConnInstance
    edge_node: Mapping[int, int]


def incidence_graph(h: Hypergraph) -> Incidence:
    """Build the bipartite incidence instance of ``h``.

    Vertex v is node v, and the hyperedges, in id order, are the nodes from
    max(V) + 1 on, so a table of the instance is keyed by vertices.
    """
    edge_node = {}
    edges: dict[int, tuple[int, int]] = {}
    for node, eid in enumerate(h.edge_ids(), max(h.vertices, default=-1) + 1):
        edge_node[eid] = node
        for v in sorted(h.hyperedges[eid]):
            edges[len(edges)] = (v, node)
    graph = Multigraph(h.vertices | frozenset(edge_node.values()), edges)
    return Incidence(ElementConnInstance(graph, h.vertices), MappingProxyType(edge_node))
