"""Brute-force ground truth for connectivity values, plus seeded random instances.

The generators use SplitMix64 so that a seed pins down the instance exactly,
independent of the host language or its standard library. Derivations are
spelled out in the README (bounded ints come from ``next() % bound``,
distinct-vertex samples from a partial Fisher-Yates shuffle).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InstanceTooLargeError, InvalidQueryError, NonTerminalEndpointError, UnknownVertexError
from .hypergraph import Hypergraph
from .multigraph import ElementConnInstance, Multigraph

# Enumeration caps keep the worst case at desk scale; both are plain constants.
MAX_ORACLE_VERTICES = 20
MAX_ORACLE_ELEMENTS = 24

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 PRNG (Steele, Lea, Flood 2014); 64-bit state and output."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-enough draw in [0, bound) via modulo; bound must be positive."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def sample(self, population: int, k: int) -> list[int]:
        """k distinct values from range(population) by partial Fisher-Yates."""
        if k > population:
            raise ValueError("sample larger than population")
        pool = list(range(population))
        for i in range(k):
            j = i + self.below(population - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


@dataclass(frozen=True)
class GenParams:
    """Size knobs and seed for the random instance generators."""

    n: int
    m: int
    r: int
    seed: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 vertices")
        if self.m < 0:
            raise ValueError("edge count must be nonnegative")
        if self.r < 2:
            raise ValueError("max hyperedge size must be at least 2")
        if self.r > self.n:
            raise ValueError("max hyperedge size exceeds vertex count")


def oracle_lambda(h: Hypergraph, u: int, v: int) -> int:
    """Exact local edge-connectivity by enumerating every u/v-separating cut.

    Only for instances with at most MAX_ORACLE_VERTICES vertices. Entirely
    independent of the flow engine.
    """
    if u == v:
        raise InvalidQueryError("endpoints coincide")
    for w in (u, v):
        if w not in h.vertices:
            raise UnknownVertexError(f"unknown vertex {w}")
    if len(h.vertices) > MAX_ORACLE_VERTICES:
        raise InstanceTooLargeError(
            f"{len(h.vertices)} vertices exceeds the enumeration bound {MAX_ORACLE_VERTICES}"
        )
    order = sorted(h.vertices)
    bit = {w: 1 << i for i, w in enumerate(order)}
    full = (1 << len(order)) - 1
    edge_masks = []
    for eid in h.edge_ids():
        mask = 0
        for w in h.hyperedges[eid]:
            mask |= bit[w]
        edge_masks.append(mask)
    others = [bit[w] for w in order if w not in (u, v)]
    best = len(edge_masks)
    # Fix u on the inside; every separating cut appears once this way.
    for pick in range(1 << len(others)):
        side = bit[u]
        for i, b in enumerate(others):
            if pick >> i & 1:
                side |= b
        outside = full & ~side
        crossing = sum(1 for mask in edge_masks if mask & side and mask & outside)
        if crossing < best:
            best = crossing
            if best == 0:
                break
    return best


def oracle_element_conn(inst: ElementConnInstance, u: int, v: int) -> int:
    """Exact element-connectivity by ascending-size element subset enumeration.

    Finds the smallest k such that deleting some k elements (non-terminal
    vertices or edges) disconnects u from v. Only for instances with at most
    MAX_ORACLE_ELEMENTS elements.
    """
    if u == v:
        raise InvalidQueryError("endpoints coincide")
    for w in (u, v):
        if w not in inst.graph.vertices:
            raise UnknownVertexError(f"unknown vertex {w}")
        if w not in inst.terminals:
            raise NonTerminalEndpointError(f"vertex {w} is not a terminal")
    elements: list[tuple[str, int]] = [("v", w) for w in sorted(inst.nonterminals)]
    elements += [("e", e) for e in inst.graph.edge_ids()]
    if len(elements) > MAX_ORACLE_ELEMENTS:
        raise InstanceTooLargeError(
            f"{len(elements)} elements exceeds the enumeration bound {MAX_ORACLE_ELEMENTS}"
        )
    for k in range(len(elements) + 1):
        for combo in itertools.combinations(elements, k):
            gone_vertices = frozenset(x for kind, x in combo if kind == "v")
            gone_edges = frozenset(x for kind, x in combo if kind == "e")
            if not _connected(inst.graph, u, v, gone_vertices, gone_edges):
                return k
    # Deleting every element leaves isolated terminals, so this is unreachable.
    raise AssertionError("u and v cannot be disconnected")


def _connected(graph: Multigraph, u: int, v: int, gone_vertices: frozenset[int],
               gone_edges: frozenset[int]) -> bool:
    """Whether v is reachable from u, a vertex that stays, once the given
    vertices and edges are gone."""
    adjacency: dict[int, list[int]] = {}
    for e, (a, b) in graph.edges.items():
        if e not in gone_edges and a not in gone_vertices and b not in gone_vertices:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
    seen, stack = {u}, [u]
    while stack:
        for x in adjacency.get(stack.pop(), ()):
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return v in seen


def random_hypergraph(params: GenParams) -> Hypergraph:
    """Seed-deterministic hypergraph on vertices 0..n-1.

    Each hyperedge draws its size from [2, r] and then its members by partial
    Fisher-Yates, so no duplicates inside an edge; duplicate edges across
    entries are allowed (multiset semantics).
    """
    rng = SplitMix64(params.seed)
    edges = {}
    for i in range(params.m):
        size = 2 + rng.below(params.r - 1) if params.r > 2 else 2
        edges[i] = frozenset(rng.sample(params.n, size))
    return Hypergraph(frozenset(range(params.n)), edges)


def random_element_instance(params: GenParams) -> ElementConnInstance:
    """Seed-deterministic multigraph with a random terminal set of size >= 2.

    ``params.r`` is ignored: graph edges are always pairs. Edges are drawn
    first (m uniform non-loop pairs, parallels allowed), then the terminal
    count in [2, n], then the terminals themselves.
    """
    rng = SplitMix64(params.seed)
    edges = {}
    for i in range(params.m):
        a = rng.below(params.n)
        b = rng.below(params.n - 1)
        if b >= a:
            b += 1
        edges[i] = (a, b)
    t = 2 + rng.below(params.n - 1)
    terminals = frozenset(rng.sample(params.n, t))
    return ElementConnInstance(Multigraph(frozenset(range(params.n)), edges), terminals)
