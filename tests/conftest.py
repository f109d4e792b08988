"""Shared instance builders and seeded corpus helpers."""

from __future__ import annotations

import pytest

from hypersplit import (
    ElementConnInstance,
    GenParams,
    Hypergraph,
    Multigraph,
    SplitMix64,
    incidence_graph,
    random_element_instance,
    random_hypergraph,
)
from hypersplit.errors import InternalInvariantError
from hypersplit.flow import _checked, _split_arcs
from hypersplit.formats import NameTable


def hyper_params(trial: int, *, max_n: int = 8, max_m: int = 12, max_r: int = 4,
                 salt: int = 0xC0FFEE) -> GenParams:
    """Deterministic size draw for hypergraph corpora: n<=max_n, m<=max_m, r<=max_r."""
    rng = SplitMix64(trial * 0x9E3779B9 + salt)
    n = 2 + rng.below(max_n - 1)
    m = rng.below(max_m + 1)
    r = 2 if n == 2 else 2 + rng.below(min(max_r, n) - 1)
    return GenParams(n=n, m=m, r=r, seed=trial)


def element_params(trial: int, *, salt: int = 0x5EED) -> GenParams:
    """Deterministic sizes for element instances: <=10 vertices, <=14 elements."""
    rng = SplitMix64(trial * 0x9E3779B9 + salt)
    n = 3 + rng.below(5)
    m = rng.below(9)
    return GenParams(n=n, m=m, r=2, seed=trial)


def corpus_hypergraph(trial: int, **kwargs) -> Hypergraph:
    return random_hypergraph(hyper_params(trial, **kwargs))


def corpus_element_instance(trial: int, **kwargs) -> ElementConnInstance:
    return random_element_instance(element_params(trial, **kwargs))


def sparse_element_instance(trial: int) -> ElementConnInstance:
    """Denser graphs with exactly two terminals: rich in non-terminal edges."""
    rng = SplitMix64(trial * 0x9E3779B9 + 0x7E55)
    n = 5 + rng.below(4)
    m = 6 + rng.below(7)
    inst = random_element_instance(GenParams(n=n, m=m, r=2, seed=trial))
    return ElementConnInstance(inst.graph, frozenset(rng.sample(n, 2)))


def names_for(n: int) -> NameTable:
    """Names whose sorted order matches ids 0..n-1 (generated instances use these)."""
    return NameTable(tuple(f"v{i:02d}" for i in range(n)))


def named_hypergraphs(st, *, max_n: int = 7, max_m: int = 8):
    """Hypothesis strategy for (Hypergraph, NameTable, s) with any valid names.

    Isolated vertices and parallel hyperedges are common, and s is any
    vertex. ``st`` is ``hypothesis.strategies``, passed in so that this
    module loads without hypothesis.
    """
    # Valid names: no whitespace, no leading '#' (a .he comment).
    name = st.text(alphabet="ab#._-\u00e909", min_size=1, max_size=3).filter(lambda n: n[0] != "#")

    @st.composite
    def drawn(draw):
        table = NameTable.from_names(draw(st.lists(name, min_size=1, max_size=max_n, unique=True)))
        n = len(table)
        members = st.lists(st.integers(0, n - 1), min_size=2, max_size=min(n, 4), unique=True)
        edges = draw(st.lists(members, max_size=max_m)) if n > 1 else []
        if edges:
            edges += draw(st.lists(st.sampled_from(edges), max_size=3))  # parallel copies
        h = Hypergraph(frozenset(range(n)), {i: frozenset(e) for i, e in enumerate(edges)})
        return h, table, draw(st.integers(0, n - 1))

    return drawn()


def graph(edge_list, extra_vertices=()) -> Multigraph:
    """Multigraph from [(u, v), ...]; edge ids follow list order."""
    vertices = set(extra_vertices)
    for u, v in edge_list:
        vertices.update((u, v))
    return Multigraph(frozenset(vertices), dict(enumerate(edge_list)))


def instance(edge_list, terminals, extra_vertices=()) -> ElementConnInstance:
    return ElementConnInstance(graph(edge_list, extra_vertices), frozenset(terminals))


def hypergraph(edge_list, extra_vertices=()) -> Hypergraph:
    """Hypergraph from [iterable-of-vertices, ...]; hyperedge ids follow list order."""
    vertices = set(extra_vertices)
    for members in edge_list:
        vertices.update(members)
    return Hypergraph(frozenset(vertices), {i: frozenset(e) for i, e in enumerate(edge_list)})


def tree_pairs_hold(inst, table) -> bool:
    """True iff ``inst`` has ``table``'s values on the pairs of ``table.tree()``,
    which decide the whole table when no pair of ``inst`` can exceed its value."""
    try:
        _checked(_split_arcs(inst), table, "the test")
    except InternalInvariantError:
        return False
    return True


def reference_reduce(inst, e, table):
    """Delete edge e from ``inst`` if the tree pairs of ``table`` hold without
    it, else contract it: the instance after, and "deleted" or "contracted"."""
    deleted = ElementConnInstance(inst.graph.without_edge(e), inst.terminals)
    if tree_pairs_hold(deleted, table):
        return deleted, "deleted"
    return ElementConnInstance(inst.graph.contracted(e)[0], inst.terminals), "contracted"


def rebuilt_g3(p) -> ElementConnInstance:
    """G3 of the pipeline ``p``, rebuilt from its bookkeeping: G0 without s, plus
    the surviving gadget vertices ``s2``, each joined to the hyperedge node of
    every hyperedge it holds in ``fa`` by that hyperedge's G0 edge id to s."""
    inc = incidence_graph(p.hypergraph)
    g0 = inc.instance
    holder = {inc.edge_node[e]: a for a, held in p.fa.items() for e in held}
    # Every G0 edge runs from a vertex to a hyperedge node, so s can only be its first end.
    edges = {eid: (holder[b], b) if a == p.s else (a, b)
             for eid, (a, b) in g0.graph.edges.items() if a != p.s or b in holder}
    graph = Multigraph((g0.graph.vertices - {p.s}) | frozenset(p.s2), edges)
    return ElementConnInstance(graph, g0.terminals - {p.s})


@pytest.fixture
def max_flows(monkeypatch):
    """Source/sink of every call of the one max-flow routine everything uses."""
    from hypersplit import flow

    calls = []
    real = flow._max_flow

    def counted(residual, source, sink, *start):
        calls.append((source, sink))
        return real(residual, source, sink, *start)

    monkeypatch.setattr(flow, "_max_flow", counted)
    return calls
