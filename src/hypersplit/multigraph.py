"""Undirected multigraphs with stable edge ids, and terminal-marked instances.

Edge ids survive deletions and contractions, so reduction traces stay
replayable. All values are immutable; operations return new graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import MissingEdgeError


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph. Parallel edges are distinct entries; no self-loops.

    ``edges`` maps a stable edge id to its endpoint pair, stored as
    (min, max). Isolated vertices are legal.
    """

    vertices: frozenset[int]
    edges: Mapping[int, tuple[int, int]]

    def __post_init__(self):
        vertices = frozenset(self.vertices)
        canon: dict[int, tuple[int, int]] = {}
        for eid, (u, v) in self.edges.items():
            if u == v:
                raise ValueError(f"edge {eid} is a self-loop on vertex {u}")
            if u not in vertices or v not in vertices:
                raise ValueError(f"edge {eid} has an endpoint outside the vertex set")
            canon[eid] = (u, v) if u < v else (v, u)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", MappingProxyType(canon))

    def edge_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.edges))

    def endpoints(self, eid: int) -> tuple[int, int]:
        try:
            return self.edges[eid]
        except KeyError:
            raise MissingEdgeError(f"no edge with id {eid}") from None

    # degree, neighbors, incident, without_edge, without_vertices and contracted
    # have no caller in this package. They stay because benchmark/tracing.py
    # looks each one up by name; they go together with that lookup (ROADMAP item 1).
    def degree(self, v: int) -> int:
        return sum(1 for u, w in self.edges.values() if v == u or v == w)

    def neighbors(self, v: int) -> frozenset[int]:
        out = set()
        for u, w in self.edges.values():
            if u == v:
                out.add(w)
            elif w == v:
                out.add(u)
        return frozenset(out)

    def incident(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(e for e, (u, w) in self.edges.items() if v in (u, w)))

    def without_edge(self, eid: int) -> "Multigraph":
        self.endpoints(eid)
        return Multigraph(self.vertices, {e: uv for e, uv in self.edges.items() if e != eid})

    def without_vertices(self, drop: Iterable[int]) -> "Multigraph":
        """Remove vertices and every incident edge."""
        gone = frozenset(drop)
        return Multigraph(
            self.vertices - gone,
            {e: uv for e, uv in self.edges.items() if not (uv[0] in gone or uv[1] in gone)},
        )

    def contracted(self, eid: int) -> tuple["Multigraph", int, int]:
        """Contract edge ``eid``; the smaller endpoint id survives.

        Parallel copies of the contracted edge become self-loops and are
        discarded. Returns (graph, kept vertex, removed vertex).
        """
        u, v = self.endpoints(eid)
        keep, drop = (u, v) if u < v else (v, u)
        edges: dict[int, tuple[int, int]] = {}
        for e, (a, b) in self.edges.items():
            if e == eid:
                continue
            a2 = keep if a == drop else a
            b2 = keep if b == drop else b
            if a2 == b2:
                continue
            edges[e] = (a2, b2)
        return Multigraph(self.vertices - {drop}, edges), keep, drop


@dataclass(frozen=True)
class ElementConnInstance:
    """Undirected multigraph with a designated terminal set.

    Non-terminal vertices and edges are the deletable "elements" that
    element-connectivity counts.
    """

    graph: Multigraph
    terminals: frozenset[int]

    def __post_init__(self):
        terminals = frozenset(self.terminals)
        if not terminals <= self.graph.vertices:
            raise ValueError("terminals must be a subset of the vertex set")
        object.__setattr__(self, "terminals", terminals)

    @property
    def nonterminals(self) -> frozenset[int]:
        return self.graph.vertices - self.terminals

    def with_graph(self, graph: Multigraph) -> "ElementConnInstance":
        """Same terminal set over a derived graph (terminals must all survive)."""
        return ElementConnInstance(graph, self.terminals)
