"""Core hypergraph model: cuts, incidence view, trim/merge, replay."""

import itertools

import pytest

from hypersplit import (
    Hypergraph,
    InvalidCutError,
    Merge,
    MergeNotAlmostDisjointError,
    MissingEdgeError,
    ReplayError,
    Trim,
    TrimMissingVertexError,
    UnknownVertexError,
    apply_op,
    delta,
    hypergraph_equal,
    incidence_graph,
    replay,
)
from conftest import corpus_hypergraph, hypergraph


class TestDelta:
    def test_single_edge_crosses(self):
        h = hypergraph([{0, 1, 2}])
        assert delta(h, {0}) == {0}

    def test_both_edges_cross(self):
        h = hypergraph([{0, 1}, {1, 2}])
        assert delta(h, {0, 2}) == {0, 1}

    def test_edges_inside_each_side(self):
        h = hypergraph([{0, 1}, {2, 3}])
        assert delta(h, {0, 1}) == frozenset()

    @pytest.mark.parametrize("side", [set(), {0, 1, 2}])
    def test_invalid_cut(self, side):
        h = hypergraph([{0, 1, 2}])
        with pytest.raises(InvalidCutError):
            delta(h, side)

    def test_complement_symmetry(self):
        for trial in range(25):
            h = corpus_hypergraph(trial, max_n=6, max_m=8)
            verts = sorted(h.vertices)
            for k in range(1, len(verts)):
                for side in itertools.combinations(verts, k):
                    side = set(side)
                    assert delta(h, side) == delta(h, h.vertices - side)


class TestIncidence:
    def test_single_hyperedge_is_a_star(self):
        inc = incidence_graph(hypergraph([{0, 1, 2}]))
        center = inc.edge_node[0]
        assert center not in inc.instance.terminals
        assert inc.instance.graph.degree(center) == 3
        assert inc.instance.graph.neighbors(center) == inc.instance.terminals

    def test_no_hyperedges_gives_isolated_terminals(self):
        inc = incidence_graph(hypergraph([], extra_vertices=[0, 1, 2]))
        assert inc.instance.terminals == inc.instance.graph.vertices
        assert not inc.instance.graph.edges

    def test_parallel_hyperedges_stay_distinct(self):
        inc = incidence_graph(hypergraph([{0, 1}, {0, 1}]))
        nodes = [inc.edge_node[0], inc.edge_node[1]]
        assert nodes[0] != nodes[1]
        for node in nodes:
            assert inc.instance.graph.neighbors(node) == inc.instance.terminals

    def test_bipartite_with_membership_degrees(self):
        for trial in range(30):
            h = corpus_hypergraph(trial)
            inc = incidence_graph(h)
            terminals = inc.instance.terminals
            for a, b in inc.instance.graph.edges.values():
                assert (a in terminals) != (b in terminals)
            for eid in h.edge_ids():
                assert inc.instance.graph.degree(inc.edge_node[eid]) == len(h.hyperedges[eid])
            assert terminals == h.vertices

    def test_vertices_are_their_own_nodes(self):
        # Hyperedge nodes follow the largest vertex in id order, whatever the ids.
        h = Hypergraph(
            frozenset({-40, -7, 0, 5, 12}),
            {8: frozenset({-40, 5}), 3: frozenset({-7, 0, 12}), 5: frozenset({0, 5})},
        )
        inc = incidence_graph(h)
        assert inc.instance.terminals == h.vertices
        assert dict(inc.edge_node) == {3: 13, 5: 14, 8: 15}
        for eid, node in inc.edge_node.items():
            assert inc.instance.graph.neighbors(node) == h.hyperedges[eid]
        assert incidence_graph(Hypergraph(frozenset(), {})).instance.graph.vertices == frozenset()

class TestApplyOp:
    def test_trim(self):
        h = hypergraph([{9, 0, 1}])
        out = apply_op(h, 9, Trim(0))
        assert dict(out.hyperedges) == {0: frozenset({0, 1})}

    def test_merge(self):
        h = hypergraph([{9, 0}, {9, 1}])
        out = apply_op(h, 9, Merge(keep=0, absorb=1))
        assert dict(out.hyperedges) == {0: frozenset({9, 0, 1})}

    def test_trim_drops_singleton(self):
        h = hypergraph([{9, 0}])
        out = apply_op(h, 9, Trim(0))
        assert out.num_edges == 0
        assert out.vertices == h.vertices

    def test_merge_requires_almost_disjoint(self):
        h = hypergraph([{9, 0, 1}, {9, 1, 2}])
        with pytest.raises(MergeNotAlmostDisjointError):
            apply_op(h, 9, Merge(keep=0, absorb=1))

    def test_merge_with_itself_rejected(self):
        h = hypergraph([{9, 0}])
        with pytest.raises(MergeNotAlmostDisjointError):
            apply_op(h, 9, Merge(keep=0, absorb=0))

    def test_missing_id(self):
        h = hypergraph([{9, 0}])
        with pytest.raises(MissingEdgeError):
            apply_op(h, 9, Trim(5))

    def test_trim_target_lacks_s(self):
        h = hypergraph([{0, 1}], extra_vertices=[9])
        with pytest.raises(TrimMissingVertexError):
            apply_op(h, 9, Trim(0))

    def test_unknown_split_vertex(self):
        h = hypergraph([{0, 1}])
        with pytest.raises(UnknownVertexError):
            apply_op(h, 7, Trim(0))

    def test_cardinality_and_count_invariants(self):
        for trial in range(40):
            h = corpus_hypergraph(trial, max_n=6, max_m=8)
            for s in sorted(h.vertices):
                for eid in h.incident(s):
                    out = apply_op(h, s, Trim(eid))
                    assert all(len(ms) >= 2 for ms in out.hyperedges.values())
                    assert out.num_edges in (h.num_edges, h.num_edges - 1)
                incident = h.incident(s)
                for e, f in itertools.combinations(incident, 2):
                    if h.hyperedges[e] & h.hyperedges[f] != {s}:
                        continue
                    out = apply_op(h, s, Merge(e, f))
                    assert out.num_edges == h.num_edges - 1
                    assert all(len(ms) >= 2 for ms in out.hyperedges.values())

    def test_singleton_drop_changes_no_cut_membership(self):
        # {9,0} trims to the dropped singleton {0}; every delta stays the same
        # as in the hypergraph where the edge was never present.
        h = hypergraph([{9, 0}, {0, 1}, {1, 2}])
        trimmed = apply_op(h, 9, Trim(0))
        reference = Hypergraph(h.vertices, {1: h.hyperedges[1], 2: h.hyperedges[2]})
        verts = sorted(h.vertices)
        for k in range(1, len(verts)):
            for side in itertools.combinations(verts, k):
                assert delta(trimmed, set(side)) == delta(reference, set(side))


class TestReplay:
    def test_empty_log_is_identity(self):
        h = hypergraph([{9, 0}, {9, 1}])
        assert replay(h, 9, []) is h

    def test_merge_then_trim(self):
        h = hypergraph([{9, 0}, {9, 1}])
        out = replay(h, 9, [Merge(0, 1), Trim(0)])
        assert hypergraph_equal(out, hypergraph([{0, 1}], extra_vertices=[9]))

    def test_error_reports_index_and_leaves_input_alone(self):
        h = hypergraph([{9, 0}, {9, 1}])
        before = dict(h.hyperedges)
        with pytest.raises(ReplayError) as exc:
            replay(h, 9, [Merge(0, 1), Merge(0, 1)])
        assert exc.value.index == 1
        assert dict(h.hyperedges) == before


class TestEquality:
    def test_reflexive(self):
        h = hypergraph([{0, 1}, {1, 2, 3}])
        assert hypergraph_equal(h, h)

    def test_multiplicity_matters(self):
        two = hypergraph([{0, 1}, {0, 1}])
        one = hypergraph([{0, 1}])
        assert not hypergraph_equal(two, one)

    def test_id_agnostic(self):
        a = Hypergraph(frozenset({0, 1}), {3: frozenset({0, 1})})
        b = Hypergraph(frozenset({0, 1}), {8: frozenset({0, 1})})
        assert hypergraph_equal(a, b)

    def test_vertex_sets_must_match(self):
        a = hypergraph([{0, 1}])
        b = hypergraph([{0, 1}], extra_vertices=[2])
        assert not hypergraph_equal(a, b)


class TestValidation:
    def test_singleton_hyperedge_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(frozenset({0}), {0: frozenset({0})})

    def test_member_outside_vertices_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(frozenset({0, 1}), {0: frozenset({0, 2})})

    # The first bad hyperedge in mapping order is reported, and its first
    # failing rule: at least two members, then all of them vertices.
    TWO_BAD = [
        ({0: {0, 1}, 1: {0}, 2: {0, 5}}, "hyperedge 1 has fewer than 2 vertices"),
        ({0: {0, 1}, 1: {0, 5}, 2: {0}}, "hyperedge 1 is not a subset of the vertex set"),
        ({3: {0, 1}, 1: {9}, 0: set()}, "hyperedge 1 has fewer than 2 vertices"),
        ({4: {0, 9}, 2: {1, 8}}, "hyperedge 4 is not a subset of the vertex set"),
        ({7: [1, 1], 2: {1, 8}}, "hyperedge 7 has fewer than 2 vertices"),
    ]

    @pytest.mark.parametrize("edges, message", TWO_BAD)
    def test_first_bad_hyperedge_is_reported(self, edges, message):
        with pytest.raises(ValueError) as info:
            Hypergraph(frozenset({0, 1, 2}), edges)
        assert str(info.value) == message

    def test_members_are_frozen(self):
        h = Hypergraph({0, 1, 2}, {5: [2, 0], 1: (1, 2, 0)})
        assert h.vertices == frozenset({0, 1, 2}) and type(h.vertices) is frozenset
        assert dict(h.hyperedges) == {5: {0, 2}, 1: {0, 1, 2}}
        assert all(type(ms) is frozenset for ms in h.hyperedges.values())
        assert list(h.hyperedges) == [5, 1]
