"""Flow engine and connectivity queries against the brute-force oracles."""

import pytest

from hypersplit import (
    ConnTable,
    FlowNetwork,
    InvalidQueryError,
    NonTerminalEndpointError,
    UnknownVertexError,
    conn_table_elements,
    conn_table_hyper,
    element_connectivity,
    hyperedge_connectivity,
    max_flow,
    oracle_element_conn,
    oracle_lambda,
)
from conftest import corpus_element_instance, corpus_hypergraph, hypergraph, instance


class TestMaxFlow:
    def test_single_arc(self):
        assert max_flow(FlowNetwork(2, ((0, 1, 3),), 0, 1)) == 3

    def test_disconnected(self):
        assert max_flow(FlowNetwork(3, ((0, 1, 5),), 0, 2)) == 0

    def test_two_disjoint_unit_paths(self):
        net = FlowNetwork(4, ((0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)), 0, 3)
        assert max_flow(net) == 2

    def test_source_equals_sink(self):
        with pytest.raises(InvalidQueryError):
            max_flow(FlowNetwork(2, ((0, 1, 1),), 1, 1))

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlowNetwork(2, ((0, 1, -1),), 0, 1)

    def test_bottleneck_respected(self):
        net = FlowNetwork(3, ((0, 1, 7), (1, 2, 2)), 0, 2)
        assert max_flow(net) == 2


class TestElementConnectivity:
    def test_star_has_one_cut_element(self):
        # terminals 0,1,2 around a single non-terminal hub
        inst = instance([(3, 0), (3, 1), (3, 2)], terminals=[0, 1, 2])
        assert element_connectivity(inst, 0, 1) == 1

    def test_parallel_edges_count_separately(self):
        inst = instance([(0, 1)] * 4, terminals=[0, 1])
        assert element_connectivity(inst, 0, 1) == 4

    def test_four_cycle_with_chord(self):
        # u=0, v=1 terminals; p=2, q=3 carry the chord. Brute force says 2.
        inst = instance([(0, 2), (2, 1), (1, 3), (3, 0), (2, 3)], terminals=[0, 1])
        assert oracle_element_conn(inst, 0, 1) == 2
        assert element_connectivity(inst, 0, 1) == 2

    def test_rejects_non_terminal_endpoint(self):
        inst = instance([(0, 1), (1, 2)], terminals=[0, 2])
        with pytest.raises(NonTerminalEndpointError):
            element_connectivity(inst, 0, 1)

    def test_rejects_equal_endpoints(self):
        inst = instance([(0, 1)], terminals=[0, 1])
        with pytest.raises(InvalidQueryError):
            element_connectivity(inst, 0, 0)

    def test_rejects_unknown_vertex(self):
        inst = instance([(0, 1)], terminals=[0, 1])
        with pytest.raises(UnknownVertexError):
            element_connectivity(inst, 0, 9)

    def test_matches_oracle_on_random_instances(self):
        for trial in range(80):
            inst = corpus_element_instance(trial)
            terms = sorted(inst.terminals)
            for i, u in enumerate(terms):
                for v in terms[i + 1 :]:
                    assert element_connectivity(inst, u, v) == oracle_element_conn(inst, u, v)


class TestHyperedgeConnectivity:
    def test_single_hyperedge(self):
        assert hyperedge_connectivity(hypergraph([{0, 1, 2}]), 0, 1) == 1

    def test_triangle(self):
        tri = hypergraph([{0, 1}, {1, 2}, {0, 2}])
        assert oracle_lambda(tri, 0, 1) == 2
        assert hyperedge_connectivity(tri, 0, 1) == 2

    def test_disconnected_pair(self):
        h = hypergraph([{0, 1}], extra_vertices=[2])
        assert hyperedge_connectivity(h, 0, 2) == 0

    def test_rejects_equal_endpoints(self):
        with pytest.raises(InvalidQueryError):
            hyperedge_connectivity(hypergraph([{0, 1}]), 0, 0)

    def test_rejects_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            hyperedge_connectivity(hypergraph([{0, 1}]), 0, 9)

    @pytest.mark.parametrize(
        "edge_list, u, v, expected",
        [
            ([{i, i + 1} for i in range(999)], 0, 999, 1),
            ([{0, 1}] * 300, 0, 1, 300),
            ([{0, w} for w in range(2, 302)] + [{w, 1} for w in range(2, 302)], 0, 1, 300),
            ([{0, i} for i in range(1, 201)] + [{i, i % 200 + 1} for i in range(1, 201)], 0, 1, 3),
        ],
        ids=["path-1000", "parallel-300", "two-hop-routes-300", "star-200-with-ring"],
    )
    def test_large_shapes(self, edge_list, u, v, expected):
        assert hyperedge_connectivity(hypergraph(edge_list), u, v) == expected

    def test_matches_oracle_on_random_instances(self):
        for trial in range(80):
            h = corpus_hypergraph(trial, max_n=7, max_m=10)
            verts = sorted(h.vertices)
            for i, u in enumerate(verts):
                for v in verts[i + 1 :]:
                    assert hyperedge_connectivity(h, u, v) == oracle_lambda(h, u, v)

    def test_monotone_under_hyperedge_insertion_and_removal(self):
        for trial in range(25):
            h = corpus_hypergraph(trial, max_n=6, max_m=6)
            if len(h.vertices) < 3:
                continue
            verts = sorted(h.vertices)
            base = conn_table_hyper(h)
            bigger_edges = dict(h.hyperedges)
            new_id = max(bigger_edges, default=-1) + 1
            bigger_edges[new_id] = frozenset(verts[:3])
            bigger = conn_table_hyper(type(h)(h.vertices, bigger_edges))
            for u, v, k in base.pairs():
                assert bigger.get(u, v) >= k
            for eid in h.edge_ids():
                smaller_edges = {e: ms for e, ms in h.hyperedges.items() if e != eid}
                smaller = conn_table_hyper(type(h)(h.vertices, smaller_edges))
                for u, v, k in base.pairs():
                    assert smaller.get(u, v) <= k


def max_element_disjoint_paths(inst, u, v, path_cap=400):
    """Independent Menger oracle: enumerate simple paths, pack disjoint ones.

    Paths may share terminals; they must not share non-terminals or edges.
    Returns None when the instance has too many simple paths to enumerate.
    """
    graph = inst.graph
    paths = []

    def walk(node, visited, elems):
        if len(paths) > path_cap:
            return
        if node == v:
            paths.append(frozenset(elems))
            return
        for eid in graph.incident(node):
            a, b = graph.endpoints(eid)
            nxt = b if a == node else a
            if nxt in visited:
                continue
            extra = {("e", eid)}
            if nxt in inst.nonterminals:
                extra.add(("v", nxt))
            walk(nxt, visited | {nxt}, elems | extra)

    walk(u, {u}, frozenset())
    if len(paths) > path_cap:
        return None
    best = 0

    def pack(start, used, count):
        nonlocal best
        best = max(best, count)
        for j in range(start, len(paths)):
            if not paths[j] & used:
                pack(j + 1, used | paths[j], count + 1)

    pack(0, frozenset(), 0)
    return best


class TestMengerEquivalence:
    def test_flow_counts_element_disjoint_paths(self):
        fixed = [
            instance([(0, 2), (2, 1), (1, 3), (3, 0), (2, 3)], terminals=[0, 1]),
            instance([(0, 1)] * 3, terminals=[0, 1]),
            instance([(3, 0), (3, 1), (3, 2)], terminals=[0, 1, 2]),
            instance([(0, 2), (2, 1), (0, 3), (3, 1), (0, 1)], terminals=[0, 1]),
        ]
        for inst in fixed:
            terms = sorted(inst.terminals)
            assert max_element_disjoint_paths(inst, terms[0], terms[1]) == element_connectivity(
                inst, terms[0], terms[1]
            )

    def test_random_tiny_instances(self):
        checked = 0
        for trial in range(60):
            inst = corpus_element_instance(trial)
            if len(inst.graph.vertices) > 5 or len(inst.graph.edges) > 7:
                continue
            terms = sorted(inst.terminals)
            for i, u in enumerate(terms):
                for v in terms[i + 1 :]:
                    packed = max_element_disjoint_paths(inst, u, v)
                    if packed is None:
                        continue
                    assert packed == element_connectivity(inst, u, v)
                    checked += 1
        assert checked >= 20


class TestConnTables:
    def test_triangle_table(self):
        tri = hypergraph([{0, 1}, {1, 2}, {0, 2}])
        table = conn_table_hyper(tri)
        assert len(table) == 3
        assert all(k == 2 for _, _, k in table.pairs())

    def test_two_terminals_one_entry(self):
        inst = instance([(0, 1)], terminals=[0, 1])
        assert len(conn_table_elements(inst)) == 1

    def test_symmetric_lookup(self):
        inst = instance([(0, 1), (1, 2)], terminals=[0, 2])
        table = conn_table_elements(inst)
        assert table.get(0, 2) == table.get(2, 0)

    def test_fewer_than_two_terminals_is_empty(self):
        inst = instance([(0, 1)], terminals=[0])
        assert len(conn_table_elements(inst)) == 0

    def test_lambda_equals_incidence_kappa_tablewise(self):
        from hypersplit import incidence_graph

        for trial in range(30):
            h = corpus_hypergraph(trial, max_n=6, max_m=8)
            if len(h.vertices) < 2:
                continue
            inc = incidence_graph(h)
            node_table = conn_table_elements(inc.instance).remapped(inc.node_vertex)
            assert node_table == conn_table_hyper(h)

    def test_restrict_and_remap(self):
        table = ConnTable({(0, 1): 2, (0, 2): 1, (1, 2): 3})
        assert len(table.restrict({0, 1})) == 1
        swapped = table.remapped({0: 10, 1: 11, 2: 12})
        assert swapped.get(10, 11) == 2

    def test_rejects_degenerate_pairs(self):
        with pytest.raises(ValueError):
            ConnTable({(1, 1): 2})
