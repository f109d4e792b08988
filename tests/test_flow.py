"""Flow engine and connectivity queries against the brute-force oracles."""

from collections import deque

import pytest

from hypersplit import (
    ConnTable,
    ElementConnInstance,
    InvalidQueryError,
    NonTerminalEndpointError,
    UnknownVertexError,
    conn_table_elements,
    conn_table_hyper,
    element_connectivity,
    flow,
    hyperedge_connectivity,
    oracle_element_conn,
    oracle_lambda,
)
from conftest import corpus_element_instance, corpus_hypergraph, hypergraph, instance, tree_pairs_hold


def _residual(num_nodes, arcs):
    """Residual arrays (head, cap, out) of a directed arc list.

    Residual arc i runs to head[i] with capacity cap[i]; arc i ^ 1 is its
    reverse, and out[node] lists the arcs leaving node.
    """
    head, cap, out = [], [], [[] for _ in range(num_nodes)]
    for tail, tip, c in arcs:
        out[tail].append(len(head))
        out[tip].append(len(head) + 1)
        head += (tip, tail)
        cap += (c, 0)
    return head, cap, out


def max_flow(num_nodes, arcs, source, sink):
    return flow._max_flow(_residual(num_nodes, arcs), source, sink)[0]


class TestMaxFlow:
    def test_single_arc(self):
        assert max_flow(2, ((0, 1, 3),), 0, 1) == 3

    def test_disconnected(self):
        assert max_flow(3, ((0, 1, 5),), 0, 2) == 0

    def test_two_disjoint_unit_paths(self):
        assert max_flow(4, ((0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)), 0, 3) == 2

    def test_bottleneck_respected(self):
        assert max_flow(3, ((0, 1, 7), (1, 2, 2)), 0, 2) == 2


def _reachable(head, cap, out, start, *, backward=False):
    """Breadth-first distances from ``start`` over arcs of positive capacity
    (into ``start`` instead, with ``backward``)."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for a in out[w]:
            if cap[a ^ 1 if backward else a] > 0 and head[a] not in dist:
                dist[head[a]] = dist[w] + 1
                queue.append(head[a])
    return dist


def _reference_augment(head, cap, out, source, sink):
    """Plain one-ended shortest augmenting path: push its bottleneck, return it."""
    via = {source: None}
    queue = deque([source])
    while queue and sink not in via:
        w = queue.popleft()
        for a in out[w]:
            if cap[a] > 0 and head[a] not in via:
                via[head[a]] = a
                queue.append(head[a])
    if sink not in via:
        return 0
    path, node = [], sink
    while node != source:
        path.append(via[node])
        node = head[via[node] ^ 1]
    push = min(cap[a] for a in path)
    for a in path:
        cap[a] -= push
        cap[a ^ 1] += push
    return push


def _checked_augment(head, cap, out, source, sink):
    """One ``_augment`` on ``cap``, checked against a plain BFS on the capacities
    before it: a shortest residual path traced by the labels from the sink, its
    bottleneck pushed along it and nowhere else, or, with no path, labels on
    exactly the nodes the source reaches. Returns the amount pushed."""
    before = cap.copy()
    dist = _reachable(head, before, out, source)
    push, via = flow._augment(head, cap, out, source, sink)
    if sink not in dist:
        assert push == 0 and cap == before
        assert {node for node, label in enumerate(via) if label != -1} == set(dist)
        assert via[source] == -2
        return 0
    path, node = [], sink
    while node != source:
        a = via[node]
        assert head[a] == node and before[a] > 0
        path.append(a)
        node = head[a ^ 1]
        assert len(path) <= dist[sink]
    assert len(path) == dist[sink]
    assert push == min(before[a] for a in path)
    for a in path:
        before[a] -= push
        before[a ^ 1] += push
    assert cap == before
    return push


class TestAugment:
    """The two-ended search against a plain one-ended BFS."""

    def test_saturated_source(self):
        head, cap, out = _residual(4, ((0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)))
        cap[0] = cap[4] = 0
        cap[1] = cap[5] = 1
        assert _checked_augment(head, cap, out, 0, 3) == 0
        assert flow._augment(head, cap, out, 0, 3)[1] == [-2, -1, -1, -1]

    def test_sink_side_closes_first(self):
        # Only node 9, which the source cannot reach, leads to the sink, so the
        # sink side runs out after labelling it, while the source side, three
        # wide at its first level, must still label all it reaches.
        arcs = [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 4, 1), (2, 5, 1), (5, 6, 1), (6, 7, 2)]
        head, cap, out = _residual(10, arcs + [(9, 8, 1)])
        assert _checked_augment(head, cap, out, 0, 8) == 0
        assert [node for node, label in enumerate(flow._augment(head, cap, out, 0, 8)[1])
                if label != -1] == list(range(8))

    def test_takes_the_shortest_route_left(self):
        # Routes of lengths 1, 3 and 5 (the last of capacity 2) and a dead end at 7.
        arcs = [(0, 9, 1), (0, 1, 1), (1, 2, 1), (2, 9, 1)]
        arcs += [(0, 3, 2), (3, 4, 2), (4, 5, 2), (5, 6, 2), (6, 9, 2), (4, 7, 1)]
        head, cap, out = _residual(10, arcs)
        assert [_checked_augment(head, cap, out, 0, 9) for _ in range(4)] == [1, 1, 2, 0]

    def test_meeting_on_the_sink_side(self):
        # The source's first level is wide, so the sink side grows to meet it.
        arcs = [(0, w, 1) for w in range(1, 6)] + [(w, 6, 1) for w in range(1, 6)]
        head, cap, out = _residual(9, arcs + [(6, 7, 3), (7, 8, 3)])
        assert [_checked_augment(head, cap, out, 0, 8) for _ in range(4)] == [1, 1, 1, 0]

    def test_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        @st.composite
        def residuals(draw):
            n = draw(st.integers(2, 12))
            node = st.integers(0, n - 1)
            arcs = draw(st.lists(
                st.tuples(node, node, st.integers(0, 3), st.integers(0, 2)), max_size=4 * n
            ))
            source, sink = draw(st.lists(node, min_size=2, max_size=2, unique=True))
            return n, arcs, source, sink

        @hypothesis.settings(max_examples=400, deadline=None, database=None, derandomize=True)
        @hypothesis.given(residuals())
        def check(drawn):
            n, arcs, source, sink = drawn
            head, cap, out = _residual(n, [(a, b, c) for a, b, c, _ in arcs])
            for i, (*_, back) in enumerate(arcs):
                cap[2 * i + 1] = back  # a residual that already carries some flow
            reference = cap.copy()
            total = expected = 0
            while push := _checked_augment(head, cap, out, source, sink):
                total += push
            while push := _reference_augment(head, reference, out, source, sink):
                expected += push
            assert total == expected

        check()

    def test_split_residuals_mid_flow(self):
        seen = dict.fromkeys(("saturated_source", "sink_side_closed", "success"), 0)
        for head, initial, out, source, sink in _residual_corpus():
            cap, reference = initial.copy(), initial.copy()
            while True:
                ahead = _reachable(head, cap, out, source)
                behind = _reachable(head, cap, out, sink, backward=True)
                push = _checked_augment(head, cap, out, source, sink)
                assert push == _reference_augment(head, reference, out, source, sink)
                if push:
                    seen["success"] += 1
                    continue
                seen["saturated_source"] += len(ahead) == 1
                # Only the sink reaches the sink and the source's first level is
                # wider, so the sink side ran out first.
                seen["sink_side_closed"] += len(behind) == 1 and sum(
                    d == 1 for d in ahead.values()) >= 2
                break
        assert min(seen.values()) >= 10, seen

    def test_stopping_at_a_dead_end(self):
        """Without ``reach`` a search also stops when the sink side runs out:
        it pushes exactly what the full search pushes, and when it finds no
        path it labels only nodes the source reaches."""
        seen = dict.fromkeys(("same_labels", "fewer_labels", "success"), 0)
        for head, initial, out, source, sink in _residual_corpus():
            cap = initial.copy()
            while True:
                early = cap.copy()
                ahead = set(_reachable(head, cap, out, source))
                push, via = flow._augment(head, early, out, source, sink, False)
                assert push == _checked_augment(head, cap, out, source, sink)
                assert early == cap
                if push:
                    seen["success"] += 1
                    continue
                labelled = {node for node, label in enumerate(via) if label != -1}
                assert labelled <= ahead and via[source] == -2
                seen["same_labels" if labelled == ahead else "fewer_labels"] += 1
                break
        assert min(seen.values()) >= 10, seen


def _residual_corpus():
    """(head, capacities, out, source, sink) of a flow between neighbouring
    terminals of 80 split networks: 40 random element instances and 40
    incidence instances of hypergraphs."""
    from hypersplit import GenParams, incidence_graph, random_element_instance

    instances = [random_element_instance(GenParams(n=12, m=30, r=2, seed=s)) for s in range(40)]
    instances += [
        incidence_graph(corpus_hypergraph(trial, max_n=10, max_m=20, salt=0xA06)).instance
        for trial in range(40)
    ]
    for inst in instances:
        (head, initial, out), index, _ = flow._split_arcs(inst)
        terms = sorted(inst.terminals)
        for u, v in zip(terms, terms[1:] + terms[:1]):
            if u != v:
                yield head, initial, out, 2 * index[u] + 1, 2 * index[v]


def _described_arcs(inst):
    """The arc list the ``_split_arcs`` docstring describes."""
    order = sorted(inst.graph.vertices)
    index = {v: i for i, v in enumerate(order)}
    degree = {v: sum(v in ends for ends in inst.graph.edges.values()) for v in order}
    arcs = [(2 * i, 2 * i + 1, degree[v] if v in inst.terminals else 1) for i, v in enumerate(order)]
    for eid in sorted(inst.graph.edges):
        a, b = inst.graph.edges[eid]
        arcs += [(2 * index[a] + 1, 2 * index[b], 1), (2 * index[b] + 1, 2 * index[a], 1)]
    return 2 * len(order), arcs, index


def _check_hyperedge_layout(h):
    """``_hyperedge_network(h)`` is laid out as its docstring says."""
    graph, index, edge_ids = flow._hyperedge_network(h)
    order = sorted(h.vertices)
    n = len(order)
    base = n + n % 2
    members = list(h.hyperedges.values())
    assert index == {v: i for i, v in enumerate(order)} and edge_ids == ()
    assert graph.vertices == n and len(graph.adj) == base + 2 * len(members)
    for i, v in enumerate(order):
        assert list(graph.adj[i]) == [base + 2 * p for p, ms in enumerate(members) if v in ms]
    assert all(not graph.adj[node] for node in range(n, base))
    for p, ms in enumerate(members):
        entry = base + 2 * p
        assert graph.adj[entry] is graph.adj[entry + 1]
        assert sorted(graph.adj[entry]) == sorted(index[v] for v in ms)


class TestSplitArcsLayout:
    """Arc numbering and out-list order of ``_split_arcs`` are those of the
    described arc list fed through ``_residual``, on element instances and
    on incidence instances; ``_hyperedge_network`` has its described layout."""

    def _check(self, inst):
        num_nodes, arcs, index = _described_arcs(inst)
        residual, got_index, edge_ids = flow._split_arcs(inst)
        assert residual == _residual(num_nodes, arcs)
        assert got_index == index
        assert edge_ids == tuple(sorted(inst.graph.edges))

    def _check_hypergraph(self, h):
        from hypersplit import incidence_graph

        self._check(incidence_graph(h).instance)
        _check_hyperedge_layout(h)

    def test_hypergraph_shapes(self):
        from hypersplit import Hypergraph, Merge, Trim, replay

        sparse = Hypergraph(
            frozenset({3, 17, 40, 1000, -6}),
            {0: frozenset({1000, 3}), 1: frozenset({3, 17, 40}), 2: frozenset({-6, 40, 1000})},
        )
        gaps = Hypergraph(
            frozenset(range(6)),
            {90: frozenset({0, 1, 5}), 7: frozenset({2, 3}), 31: frozenset({1, 4}), 8: frozenset({0, 4})},
        )
        # Trims and merges leave gaps: edge 1 is absorbed into 0, and 3 trimmed away.
        trimmed = replay(hypergraph([{0, 1}, {0, 2, 3}, {1, 3}, {0, 4}]), 0, [Merge(0, 1), Trim(3), Trim(0)])
        assert sorted(trimmed.hyperedges) == [0, 2]
        parallel = hypergraph([{0, 1}, {0, 1}, {1, 2, 3}, {1, 2, 3}, {0, 1}])
        isolated = hypergraph([{2, 5}, {5, 9}], extra_vertices=[0, 7, 11])
        empty = hypergraph([], extra_vertices=[4, 8, 15])
        for h in (sparse, gaps, trimmed, parallel, isolated, empty, hypergraph([])):
            self._check_hypergraph(h)

    def test_sparse_ids_parallel_edges_and_isolated_vertices(self):
        from hypersplit import ElementConnInstance, Multigraph

        graph = Multigraph(
            frozenset({3, 7, 10, 42, 99, 120}),
            {50: (10, 3), 2: (3, 10), 9: (42, 7), 11: (7, 10), 31: (3, 10), 4: (120, 42)},
        )
        for terminals in ({3, 42, 99}, {10}, set(), {3, 7, 10, 42, 99, 120}):
            self._check(ElementConnInstance(graph, frozenset(terminals)))
        self._check(ElementConnInstance(Multigraph(frozenset({5}), {}), frozenset({5})))

    def test_seeded_instances(self):
        from hypersplit import GenParams, random_hypergraph

        for inst in _gusfield_element_corpus(100):
            self._check(inst)
        for trial in range(40):
            self._check_hypergraph(corpus_hypergraph(trial, max_n=10, max_m=20))
        for n in (50, 200):
            self._check_hypergraph(random_hypergraph(GenParams(n, 2 * n, 4, seed=n)))


@pytest.fixture
def multigraphs(monkeypatch):
    """Vertex sets of every ``Multigraph`` constructed."""
    from hypersplit import Multigraph

    built = []
    real = Multigraph.__post_init__

    def counted(self):
        built.append(self.vertices)
        real(self)

    monkeypatch.setattr(Multigraph, "__post_init__", counted)
    return built


class TestNoIntermediateGraph:
    """Hypergraph flows run on Lawler's network, built straight from the
    hyperedges: no incidence ``Multigraph`` is built on the way."""

    def test_queries_and_tables(self, multigraphs):
        from hypersplit import GenParams, random_hypergraph

        h = random_hypergraph(GenParams(40, 80, 4, seed=5))
        assert hyperedge_connectivity(h, 0, 1) == conn_table_hyper(h).get(0, 1)
        assert multigraphs == []

    def test_cli_conn(self, tmp_path, multigraphs, capsys):
        from hypersplit import cli

        path = tmp_path / "h.he"
        path.write_text("a b c\nb c d\nc d e\na e\nb d\n")
        assert cli.main(["conn", str(path), "-u", "a", "-v", "d"]) == 0
        assert cli.main(["conn", str(path), "--all-pairs"]) == 0
        assert cli.main(["verify", str(path), str(path), "--conn"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "lambda(a, d) = 2"
        assert multigraphs == []

    def test_split_off_builds_only_the_pipeline_graphs(self, multigraphs):
        from hypersplit import GenParams, complete_split_off, random_hypergraph, run_pipeline

        for seed in range(5):
            h = random_hypergraph(GenParams(12, 30, 4, seed=seed))
            s = max(sorted(h.vertices), key=h.degree)
            multigraphs.clear()
            run_pipeline(h, s)
            pipeline = len(multigraphs)
            multigraphs.clear()
            complete_split_off(h, s)
            assert len(multigraphs) <= pipeline


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

    def test_flow_starts_at_the_smaller_degree_end(self, max_flows):
        # Terminal 0 has degree 1 and terminal 1 degree 3; ties keep the query's order.
        inst = instance([(0, 2), (2, 1), (1, 3), (3, 1), (2, 3), (2, 4), (4, 5)], terminals=[0, 1, 5])
        assert element_connectivity(inst, 1, 0) == element_connectivity(inst, 0, 1) == 1
        assert element_connectivity(inst, 5, 0) == 1
        assert max_flows == [(1, 2), (1, 2), (11, 0)]

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


class TestOneHop:
    """A fresh flow on an element network pushes its source's free paths of 1
    or 3 arcs before its first search (``flow._one_hop``)."""

    @staticmethod
    def searches(monkeypatch):
        """What each element search pushed, in call order."""
        pushed = []
        real = flow._augment

        def counted(*args):
            push, via = real(*args)
            pushed.append(push)
            return push, via

        monkeypatch.setattr(flow, "_augment", counted)
        return pushed

    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("j", range(4))
    def test_parallel_edges_and_common_neighbours_need_one_search(self, monkeypatch, p, j):
        # Terminals 0 and 1 joined by p parallel edges and by j non-terminals
        # adjacent to both, and nothing else: the one failing search confirms.
        edges = [(0, 1)] * p + [edge for w in range(2, 2 + j) for edge in ((0, w), (w, 1))]
        inst = instance(edges, terminals=[0, 1], extra_vertices=[0, 1])
        pushed = self.searches(monkeypatch)
        for u, v in ((0, 1), (1, 0)):
            pushed.clear()
            assert element_connectivity(inst, u, v) == p + j
            assert pushed == [0]

    def test_against_networkx(self):
        # Seeded multigraphs rich in terminal-terminal edges, parallel edges
        # and terminals between two others, each ordered pair run from its
        # first end: the value is networkx's, and the last search reaches the
        # nodes that a flow started from no flow reaches.
        nx = pytest.importorskip("networkx")
        from hypersplit import SplitMix64

        rng = SplitMix64(0x1407)
        seen = dict.fromkeys(("terminal_edge", "parallel", "terminal_between", "all_one_hop"), 0)
        for _ in range(60):
            n = 3 + rng.below(8)
            terminals = set(rng.sample(n, 2 + rng.below(n - 1)))
            edges = []
            for _ in range(rng.below(3 * n)):
                a, b = rng.sample(n, 2)
                edges += [(a, b)] * (1 + (rng.below(4) == 0))
            inst = instance(edges, terminals, extra_vertices=range(n))
            residual, index, _ = flow._split_arcs(inst)
            neighbours = {w: set() for w in range(n)}
            for a, b in edges:
                neighbours[a].add(b)
                neighbours[b].add(a)
            for u in terminals:
                for v in terminals - {u}:
                    k = _nx_element_conn(nx, inst, u, v)
                    source, sink = 2 * index[u] + 1, 2 * index[v]
                    start, total = flow._one_hop(residual, source, sink)
                    value, _, via = flow._max_flow(residual, source, sink, start, total)
                    cold = flow._max_flow(residual, source, sink)
                    assert value == cold[0] == k
                    assert [node == -1 for node in via] == [node == -1 for node in cold[2]]
                    seen["terminal_edge"] += v in neighbours[u]
                    seen["parallel"] += edges.count((u, v)) + edges.count((v, u)) > 1
                    seen["terminal_between"] += bool(neighbours[u] & neighbours[v] & terminals)
                    seen["all_one_hop"] += 0 < total == k
            table = conn_table_elements(inst)
            for u, v, k in table.pairs():
                assert k == _nx_element_conn(nx, inst, u, v)
        assert min(seen.values()) >= 50, seen


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


def _lawler_residual(graph, end):
    """Successor lists of the residual of Lawler's network under the flow
    state ``end``, written out arc by arc from the module docstring."""
    succ = [[] for _ in graph.adj]
    for entry in range(graph.vertices + graph.vertices % 2, len(graph.adj), 2):
        exit_ = entry + 1
        for v in graph.adj[entry]:
            succ[v].append(entry)  # uncapacitated v -> entry
            succ[exit_].append(v)  # uncapacitated exit -> v
        if end[entry] == -1:
            succ[entry].append(exit_)  # the unused unit arc
        else:  # the reverses of the used unit arc and of the unit's entry and exit arcs
            succ[exit_].append(entry)
            succ[entry].append(end[entry])
            succ[end[exit_]].append(exit_)
    return succ


def _excess(graph, end):
    """Units leaving minus units entering each vertex under ``end``."""
    excess = [0] * graph.vertices
    for entry in range(graph.vertices + graph.vertices % 2, len(graph.adj), 2):
        assert (end[entry] == -1) == (end[entry + 1] == -1)
        if end[entry] != -1:
            # A unit that entered and left at one vertex would be a cycle, cancelled.
            assert end[entry] != end[entry + 1] and {end[entry], end[entry + 1]} <= set(graph.adj[entry])
            excess[end[entry]] += 1
            excess[end[entry + 1]] -= 1
    return excess


def _checked_hyper_augment(graph, end, source, sink):
    """One ``_hyper_augment`` on ``end``, checked against a plain BFS on the
    residual before it: the labels trace a shortest residual path from the
    sink, and the new state is a flow of one more unit, or, with no path,
    the state is kept and the labels are on exactly the nodes the source
    reaches. Returns the amount pushed."""
    succ = _lawler_residual(graph, end)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        w = queue.popleft()
        for x in succ[w]:
            if x not in dist:
                dist[x] = dist[w] + 1
                queue.append(x)
    before, excess = end.copy(), _excess(graph, end)
    push, via = flow._hyper_augment(graph, end, source, sink)
    if sink not in dist:
        assert push == 0 and end == before
        assert {node for node, label in enumerate(via) if label != -1} == set(dist)
        return 0
    steps, node = 0, sink
    while node != source:
        assert node in succ[via[node]]
        node = via[node]
        steps += 1
    assert push == 1 and steps == dist[sink]
    excess[source] += 1
    excess[sink] -= 1
    assert _excess(graph, end) == excess
    return push


class TestHyperedgeNetwork:
    """Flows on Lawler's network: each search against a plain BFS of the
    residual it describes, values against the incidence instance, and the
    reached vertices of every Gusfield flow against the cut they claim."""

    def test_searches_against_a_plain_bfs(self):
        from hypersplit import GenParams, random_hypergraph

        seen = dict.fromkeys(("cancel", "reroute", "failed", "several_hyperedges"), 0)
        # The second path from 0 to 9 must cross edge {1, 2} against the first.
        crossing = hypergraph([{0, 1}, {1, 2}, {2, 9}, {0, 3}, {3, 4}, {4, 2}, {1, 5}, {5, 6}, {6, 9}])
        hypergraphs = [crossing] + [corpus_hypergraph(trial, max_n=9, max_m=16) for trial in range(60)]
        hypergraphs += [random_hypergraph(GenParams(20, 60, 2, seed=seed)) for seed in range(40)]
        hypergraphs += [random_hypergraph(GenParams(n, 2 * n, 4, seed=n)) for n in (30, 60)]
        for h in hypergraphs:
            graph, index, _ = flow._hyperedge_network(h)
            order = sorted(h.vertices)
            for u in order[:4]:
                for v in order[-4:]:
                    if u == v:
                        continue
                    end = [-1] * len(graph.adj)
                    total = 0
                    while True:
                        before = end.copy()
                        push = _checked_hyper_augment(graph, end, index[u], index[v])
                        if not push:
                            break
                        total += push
                        changed = [k for k in range(len(end)) if before[k] != end[k]]
                        seen["cancel"] += any(before[k] != -1 and end[k] == -1 for k in changed)
                        seen["reroute"] += any(-1 not in (before[k], end[k]) for k in changed)
                        seen["several_hyperedges"] += len(changed) > 2
                    seen["failed"] += 1
                    assert total == flow._max_flow(graph, index[u], index[v])[0]
                    assert total == hyperedge_connectivity(h, u, v)
        assert min(seen.values()) >= 10, seen

    def test_shapes_against_the_incidence_instance(self):
        # Shapes the seeded corpora lack: negative and non-contiguous ids, an
        # isolated endpoint, only parallel hyperedges, one vertex in every
        # hyperedge, and the 1,000-vertex path of the conn_large corpus.
        from hypersplit import Hypergraph, incidence_graph

        shapes = {
            "negative_sparse_ids": Hypergraph(
                frozenset({-40, -7, -3, 0, 5, 12, 99}),
                {3: frozenset({-40, -7, 5}), 8: frozenset({-7, -3}), 1: frozenset({-3, 0, 12}),
                 20: frozenset({12, 99, -40}), 6: frozenset({0, 5}), 2: frozenset({-7, 99})},
            ),
            "isolated_endpoint": hypergraph([{0, 1, 2}, {1, 2}, {2, 3}, {0, 3}], extra_vertices=[-5, 9]),
            "all_parallel": hypergraph([{0, 1, 2, 3}] * 7),
            "one_vertex_in_every_hyperedge": hypergraph(
                [{0, i, i + 1} for i in range(1, 8)] + [{0, 1, 8}, {0, 4}, {0, 2, 6}]
            ),
            "path_1000": hypergraph([{i, i + 1} for i in range(999)]),
        }
        for name, h in shapes.items():
            inst = incidence_graph(h).instance
            order = sorted(h.vertices)
            small = len(order) <= 12
            pairs = [(u, v) for u in order for v in order if u != v] if small else [(0, 999), (999, 0), (3, 600)]
            for u, v in pairs:
                k = hyperedge_connectivity(h, u, v)
                assert k == element_connectivity(inst, u, v), (name, u, v)
                if small:
                    assert k == oracle_lambda(h, u, v), (name, u, v)
            if small:
                for u, v, k in conn_table_hyper(h).pairs():
                    assert k == oracle_lambda(h, u, v), (name, u, v)

    def test_relabelled_ids_match_the_node_numbered_original(self):
        # Vertices 0..n-1 are their own nodes; any other ids are renumbered.
        # Both networks must give the same values once the ids are mapped back.
        from hypersplit import GenParams, Hypergraph, random_hypergraph

        relabels = {
            "gaps": lambda v: 3 * v,
            "one_negative": lambda v: v - 1,
            "offset": lambda v: v + 1000,
            "gaps_and_negatives": lambda v: 7 * v - 40,
            "floats": float,
        }
        hypergraphs = [random_hypergraph(GenParams(n, m, r, seed=seed))
                       for seed, (n, m, r) in enumerate([(6, 12, 3), (12, 30, 4), (25, 50, 4), (60, 120, 4)] * 3)]
        for h in hypergraphs:
            order = sorted(h.vertices)
            assert order == list(range(len(order)))
            graph, _, _ = flow._hyperedge_network(h)
            first = len(order) + len(order) % 2
            assert [graph.adj[node] for node in range(first, len(graph.adj), 2)] == list(h.hyperedges.values())
            table = conn_table_hyper(h)
            pairs = [(u, v) for u, v, _ in table.pairs()][:: max(1, len(order) // 4)]
            for name, relabel in relabels.items():
                back = {relabel(v): v for v in order}
                other = Hypergraph(
                    frozenset(back),
                    {eid: frozenset(map(relabel, members)) for eid, members in h.hyperedges.items()},
                )
                mapped = {tuple(sorted((back[a], back[b]))): k for a, b, k in conn_table_hyper(other).pairs()}
                assert mapped == dict(table.values), name
                for u, v in pairs:
                    assert hyperedge_connectivity(other, relabel(v), relabel(u)) == table.get(u, v), (name, u, v)

    def test_gusfield_flows_reach_a_minimum_cut(self, monkeypatch):
        from hypersplit import GenParams, delta, random_hypergraph

        flows = []
        real = flow._max_flow

        def recorded(graph, source, sink):
            result = real(graph, source, sink)
            flows.append((source, sink, result[0], result[2]))
            return result

        monkeypatch.setattr(flow, "_max_flow", recorded)
        hypergraphs = [corpus_hypergraph(trial, max_n=10, max_m=20, salt=0x3C07) for trial in range(80)]
        hypergraphs += [random_hypergraph(GenParams(n, 2 * n, 4, seed=n)) for n in (40, 120)]
        checked = 0
        for h in hypergraphs:
            order = sorted(h.vertices)
            flows.clear()
            conn_table_hyper(h)
            assert len(flows) == len(order) - 1
            for source, sink, k, via in flows:
                reached = {order[i] for i in range(len(order)) if via[i] != -1}
                assert order[source] in reached and order[sink] not in reached
                assert len(delta(h, reached)) == k
                checked += 1
        assert checked >= 500


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
            # Vertex v is node v of the incidence instance, so both tables share their keys.
            assert conn_table_elements(incidence_graph(h).instance) == conn_table_hyper(h)

    def test_restrict(self):
        table = ConnTable({(0, 1): 2, (0, 2): 1, (1, 2): 3})
        assert len(table.restrict({0, 1})) == 1
        assert table.restrict({1, 2}).get(2, 1) == 3

    def test_rejects_degenerate_pairs(self):
        with pytest.raises(ValueError):
            ConnTable({(1, 1): 2})

    def test_rejects_a_pair_given_twice(self):
        # Both orders name one pair; neither value may silently win.
        with pytest.raises(ValueError, match="given twice"):
            ConnTable({(0, 1): 2, (1, 0): 3})
        with pytest.raises(ValueError, match="given twice"):
            ConnTable({(0, 1): 2, (0, 2): 1, (1, 2): 3, (2, 1): 3})

    def test_rejects_a_missing_pair(self):
        # The tree of a table reads every pair of its vertices.
        with pytest.raises(ValueError, match="every pair"):
            ConnTable({(0, 1): 2, (2, 3): 1})
        with pytest.raises(ValueError, match="every pair"):
            ConnTable({(0, 1): 2, (0, 2): 1})


def _path_minimum(tree, u, v):
    """Smallest value on the tree path from u to v."""
    adjacent = {}
    for a, b, k in tree:
        adjacent.setdefault(a, []).append((b, k))
        adjacent.setdefault(b, []).append((a, k))
    best = {u: None}
    stack = [u]
    while stack:
        w = stack.pop()
        for x, k in adjacent[w]:
            if x not in best:
                best[x] = k if best[w] is None else min(best[w], k)
                stack.append(x)
    return best[v]


class TestTableTree:
    def test_empty_table_has_empty_tree(self):
        assert ConnTable({}).tree() == ()
        inst = instance([(0, 1)], terminals=[0])
        assert tree_pairs_hold(inst, conn_table_elements(inst))

    def test_ties_hang_from_the_first_earlier_vertex(self):
        table = ConnTable({(0, 1): 2, (0, 2): 2, (1, 2): 2})
        assert table.tree() == ((0, 1, 2), (0, 2, 2))
        # 2 hangs from 1, its earlier vertex of largest value, not from 0.
        table = ConnTable({(0, 1): 1, (0, 2): 1, (1, 2): 3})
        assert table.tree() == ((0, 1, 1), (1, 2, 3))

    def test_each_vertex_hangs_from_an_earlier_maximum(self):
        # In key order every vertex but the first is a child exactly once, of
        # the first earlier vertex with the largest value.
        tables = [conn_table_elements(corpus_element_instance(trial)) for trial in range(40)]
        tables += [conn_table_hyper(corpus_hypergraph(trial, max_n=7, max_m=10)) for trial in range(30)]
        for table in tables:
            order = sorted({w for pair in table.values for w in pair})
            tree = table.tree()
            assert [child for _, child, _ in tree] == order[1:]
            for i, (parent, child, k) in enumerate(tree, 1):
                earlier = [table.get(u, child) for u in order[:i]]
                assert k == table.get(parent, child) == max(earlier)
                assert order.index(parent) == earlier.index(k)

    def test_tree_flows_start_at_the_smaller_degree_end(self, max_flows):
        from hypersplit import incidence_graph

        instances = [corpus_element_instance(trial) for trial in range(40)]
        instances += [incidence_graph(corpus_hypergraph(trial)).instance for trial in range(40)]
        reversed_pairs = 0
        for inst in instances:
            table = conn_table_elements(inst)
            max_flows.clear()
            flow._checked(flow._split_arcs(inst), table, "the test")
            order = sorted(inst.graph.vertices)
            assert len(max_flows) == len(table.tree())
            for (parent, child, _), (source, sink) in zip(table.tree(), max_flows):
                start, end = order[source // 2], order[sink // 2]
                assert (source % 2, sink % 2) == (1, 0) and {start, end} == {parent, child}
                assert inst.graph.degree(start) <= inst.graph.degree(end)
                reversed_pairs += start == child
        assert reversed_pairs >= 20

    def test_tree_path_minimum_reproduces_table(self):
        checked = 0
        for trial in range(40):
            inst = corpus_element_instance(trial)
            table = conn_table_elements(inst)
            tree = table.tree()
            assert len(tree) == len(inst.terminals) - 1
            assert {w for a, b, _ in tree for w in (a, b)} == inst.terminals
            for u, v, k in table.pairs():
                assert _path_minimum(tree, u, v) == k
                checked += 1
        assert checked >= 100

    def test_hypergraph_tables_too(self):
        for trial in range(30):
            h = corpus_hypergraph(trial, max_n=7, max_m=10)
            table = conn_table_hyper(h)
            tree = table.tree()
            assert len(tree) == len(h.vertices) - 1
            for u, v, k in table.pairs():
                assert _path_minimum(tree, u, v) == k

    def test_detects_a_lowered_pair(self):
        # 0 and 1 joined by two routes; deleting one lowers only kappa(0, 1)
        inst = instance([(0, 2), (2, 1), (0, 3), (3, 1), (1, 4)], terminals=[0, 1, 4])
        table = conn_table_elements(inst)
        assert table.get(0, 1) == 2
        assert tree_pairs_hold(inst, table)
        without = ElementConnInstance(inst.graph.without_edge(0), inst.terminals)
        assert not tree_pairs_hold(without, table)


def _pair_loop_table(inst):
    """Reference table: one fresh max-flow per terminal pair on the shared residual."""
    terms = sorted(inst.terminals)
    residual, index, _ = flow._split_arcs(inst)
    return {
        (u, v): flow._max_flow(residual, 2 * index[u] + 1, 2 * index[v])[0]
        for i, u in enumerate(terms)
        for v in terms[i + 1 :]
    }


def _gusfield_element_corpus(count):
    """Seeded element instances: any terminal subset, parallel and
    terminal-terminal edges, and graphs in several components."""
    from hypersplit import GenParams, SplitMix64, random_element_instance

    for trial in range(count):
        rng = SplitMix64(trial * 0x9E3779B9 + 0x6F5F)
        n = 3 + rng.below(10)
        yield random_element_instance(GenParams(n=n, m=rng.below(3 * n + 1), r=2, seed=trial))


class TestGusfieldTable:
    """conn_table_elements runs the T-1 flows of a flow-equivalent tree and
    must give the same table as one flow per pair."""

    def test_element_instances_match_pair_loop(self):
        seen = dict.fromkeys(("parallel", "terminal_edge", "zero", "all_terminals"), 0)
        for inst in _gusfield_element_corpus(800):
            table = conn_table_elements(inst)
            assert dict(table.values) == _pair_loop_table(inst)
            pairs = [tuple(sorted(uv)) for uv in inst.graph.edges.values()]
            seen["parallel"] += len(set(pairs)) < len(pairs)
            seen["terminal_edge"] += any(set(uv) <= inst.terminals for uv in pairs)
            seen["zero"] += 0 in table.values.values()
            seen["all_terminals"] += inst.terminals == inst.graph.vertices
        assert min(seen.values()) >= 20, seen

    def test_incidence_instances_match_pair_loop(self):
        from hypersplit import incidence_graph

        for trial in range(300):
            h = corpus_hypergraph(trial, max_n=10, max_m=20, salt=0x6F5F)
            inst = incidence_graph(h).instance
            assert dict(conn_table_elements(inst).values) == _pair_loop_table(inst)

    def test_matches_oracles_on_small_cases(self):
        for trial in range(60):
            inst = corpus_element_instance(trial, salt=0x6F5F)
            for u, v, k in conn_table_elements(inst).pairs():
                assert k == oracle_element_conn(inst, u, v)
        for trial in range(40):
            h = corpus_hypergraph(trial, max_n=7, max_m=10, salt=0x6F5F)
            for u, v, k in conn_table_hyper(h).pairs():
                assert k == oracle_lambda(h, u, v)

    def test_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        @st.composite
        def element_instances(draw):
            n = draw(st.integers(2, 9))
            vertex = st.integers(0, n - 1)
            edges = draw(st.lists(
                st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=3 * n
            ))
            terminals = draw(st.sets(st.integers(0, n - 1), min_size=2))
            return instance(edges, terminals, extra_vertices=range(n))

        @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
        @hypothesis.given(element_instances())
        def check(inst):
            assert dict(conn_table_elements(inst).values) == _pair_loop_table(inst)

        check()

    def test_runs_one_flow_per_tree_edge(self, max_flows):
        from hypersplit import GenParams, random_element_instance

        inst = random_element_instance(GenParams(n=12, m=30, r=2, seed=5))
        t = len(inst.terminals)
        assert t >= 6
        conn_table_elements(inst)
        assert len(max_flows) == t - 1


class TestSplitOffCheckProperty:
    """Tree-pair flows on split-off results and on their weakened copies agrees
    with comparing full tables: trims, merges and hyperedge deletions never
    raise connectivity, which is all the tree check assumes."""

    def test_agrees_with_full_table(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        from hypersplit import Hypergraph, complete_split_off, incidence_graph

        @st.composite
        def hypergraph_and_vertex(draw):
            n = draw(st.integers(3, 6))
            edges = draw(st.lists(
                st.sets(st.integers(0, n - 1), min_size=2, max_size=3), min_size=1, max_size=8
            ))
            return hypergraph(edges, extra_vertices=range(n)), draw(st.integers(0, n - 1))

        @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
        @hypothesis.given(hypergraph_and_vertex())
        def check(drawn):
            h, s = drawn
            rest = h.vertices - {s}
            before = conn_table_hyper(h).restrict(rest)
            h_star = complete_split_off(h, s).h_star
            edges = h_star.hyperedges
            weakened = [
                Hypergraph(h_star.vertices, {e: m for e, m in edges.items() if e != drop})
                for drop in edges
            ]
            for result in [h_star, *weakened]:
                holds = tree_pairs_hold(incidence_graph(result).instance, before)
                assert holds == (conn_table_hyper(result).restrict(rest) == before)

        check()


def _nx_element_conn(nx, inst, u, v):
    """kappa(u, v) by networkx max-flow on its own vertex split (terminals uncapped)."""
    net = nx.DiGraph()
    for w in inst.graph.vertices:
        if w in inst.terminals:
            net.add_edge(("in", w), ("out", w))
        else:
            net.add_edge(("in", w), ("out", w), capacity=1)
    for a, b in inst.graph.edges.values():
        for x, y in ((a, b), (b, a)):
            arc = net.get_edge_data(("out", x), ("in", y), {"capacity": 0})
            net.add_edge(("out", x), ("in", y), capacity=arc["capacity"] + 1)
    return nx.maximum_flow_value(net, ("out", u), ("in", v))


def _lawler_network(nx, h):
    """Lawler's hyperedge network: lambda(u, v) is its u-v max-flow value."""
    net = nx.DiGraph()
    net.add_nodes_from(h.vertices)
    for e, members in h.hyperedges.items():
        net.add_edge(("e_in", e), ("e_out", e), capacity=1)
        for w in members:
            net.add_edge(w, ("e_in", e))
            net.add_edge(("e_out", e), w)
    return net


def _nx_lambda(nx, h, u, v):
    """lambda(u, v) by networkx max-flow on Lawler's hyperedge network."""
    return nx.maximum_flow_value(_lawler_network(nx, h), u, v)


class TestNetworkxDifferential:
    """Large seeded instances (200-1,000 vertices) against networkx.

    Every flow of a table or a tree check starts from one shared residual,
    so a flow that left capacity behind would corrupt the pairs after it.
    Sizes and pair counts are fixed so the class runs in seconds.
    """

    SIZES = (200, 500, 1000)

    def test_element_tables(self):
        nx = pytest.importorskip("networkx")
        from hypersplit import GenParams, SplitMix64, random_element_instance

        for n in self.SIZES:
            graph = random_element_instance(GenParams(n=n, m=2 * n, r=2, seed=n)).graph
            terminals = frozenset(SplitMix64(n + 1).sample(n, 5))
            inst = ElementConnInstance(graph, terminals)
            table = conn_table_elements(inst)
            for u, v, k in table.pairs():
                assert k == _nx_element_conn(nx, inst, u, v), (n, u, v)
            assert tree_pairs_hold(inst, table)

    def test_hyperedge_pairs(self):
        # Each pair in both orders (the flow starts at the end of smaller degree
        # whichever order the query gives), plus an isolated endpoint.
        nx = pytest.importorskip("networkx")
        from hypersplit import GenParams, Hypergraph, SplitMix64, random_hypergraph

        orders = set()
        for n in self.SIZES:
            h = random_hypergraph(GenParams(n=n, m=2 * n, r=4, seed=n))
            h = Hypergraph(h.vertices | {n}, h.hyperedges)  # vertex n is isolated
            rng = SplitMix64(n + 2)
            pairs = [tuple(rng.sample(n, 2)) for _ in range(3)] + [(n, rng.below(n))]
            for u, v in pairs:
                expected = _nx_lambda(nx, h, u, v)
                assert expected == 0 or n not in (u, v)
                for a, b in ((u, v), (v, u)):
                    assert hyperedge_connectivity(h, a, b) == expected, (n, a, b)
                    orders.add((h.degree(a) > h.degree(b)) - (h.degree(a) < h.degree(b)))
        assert orders >= {-1, 1}

    def test_split_off_past_the_brute_force_bound(self):
        # The certificate is the table of h over V - s, which h_star must keep:
        # every pair of its tree and 20 other seeded pairs, on both hypergraphs,
        # against networkx on one residual per hypergraph.
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.flow import build_residual_network, edmonds_karp

        from hypersplit import GenParams, SplitMix64, complete_split_off, random_hypergraph

        for n in (100, 150, 200):
            h = random_hypergraph(GenParams(n, 2 * n, 4, seed=n))
            s = max(sorted(h.vertices), key=h.degree)
            res = complete_split_off(h, s)
            rest = sorted(h.vertices - {s})
            rng = SplitMix64(n + 3)
            pairs = [(u, v) for u, v, _ in res.certificate.tree()]
            pairs += [tuple(rest[i] for i in rng.sample(len(rest), 2)) for _ in range(20)]
            assert len(pairs) == n + 18 and res.h_star.degree(s) == 0
            for g in (h, res.h_star):
                net = _lawler_network(nx, g)
                residual = build_residual_network(net, "capacity")
                for u, v in pairs:
                    value = edmonds_karp(net, u, v, residual=residual).graph["flow_value"]
                    assert value == res.certificate.get(u, v), (n, g is h, u, v)

    def test_split_off_on_adversarial_stars(self):
        # deg(s) far above the other degrees: a ring star (s joined to 50
        # leaves by 2-hyperedges, the leaves in a ring) and a star of 60
        # hyperedges at s, mostly parallel copies. h_star must keep every
        # tree pair of the certificate, against networkx.
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.flow import build_residual_network, edmonds_karp

        from hypersplit import complete_split_off

        ring = [{50, i} for i in range(50)] + [{i, (i + 1) % 50} for i in range(50)]
        parallel = [
            e for i in range(12) for e in [{12, i}] * 4 + [{12, i, (i + 1) % 12}, {i, (i + 3) % 12}]
        ]
        for edge_list in (ring, parallel):
            h = hypergraph(edge_list)
            s = max(h.vertices)
            res = complete_split_off(h, s)
            assert h.degree(s) in (50, 60) and res.h_star.degree(s) == 0
            net = _lawler_network(nx, res.h_star)
            residual = build_residual_network(net, "capacity")
            for u, v, k in res.certificate.tree():
                assert edmonds_karp(net, u, v, residual=residual).graph["flow_value"] == k, (s, u, v)

    @pytest.mark.slow
    def test_split_off_on_a_ring_star_of_100(self):
        # The ring star at d = 100 takes about 3 s: its deletion tests reroute
        # the same few units over the clique again and again. Every tree pair
        # of the certificate must hold on h and on h_star, against networkx.
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.flow import build_residual_network, edmonds_karp

        from hypersplit import complete_split_off

        h = hypergraph([{100, i} for i in range(100)] + [{i, (i + 1) % 100} for i in range(100)])
        res = complete_split_off(h, 100)
        assert h.degree(100) == 100 and res.h_star.degree(100) == 0
        for g in (h, res.h_star):
            net = _lawler_network(nx, g)
            residual = build_residual_network(net, "capacity")
            for u, v, k in res.certificate.tree():
                assert edmonds_karp(net, u, v, residual=residual).graph["flow_value"] == k, (u, v)

    @pytest.mark.slow
    def test_split_off_of_160_vertices_at_three_hyperedges_each(self):
        # m = 3n, s of maximum degree: the certificate's every tree pair and
        # 100 other seeded pairs must hold on h and on h_star, against networkx.
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.flow import build_residual_network, edmonds_karp

        from hypersplit import GenParams, SplitMix64, complete_split_off, random_hypergraph

        h = random_hypergraph(GenParams(160, 480, 4, seed=7))
        s = max(sorted(h.vertices), key=h.degree)
        res = complete_split_off(h, s)
        rest = sorted(h.vertices - {s})
        rng = SplitMix64(7)
        pairs = [(u, v) for u, v, _ in res.certificate.tree()]
        pairs += [tuple(rest[i] for i in rng.sample(len(rest), 2)) for _ in range(100)]
        assert len(pairs) == 258 and res.h_star.degree(s) == 0
        for g in (h, res.h_star):
            net = _lawler_network(nx, g)
            residual = build_residual_network(net, "capacity")
            for u, v in pairs:
                value = edmonds_karp(net, u, v, residual=residual).graph["flow_value"]
                assert value == res.certificate.get(u, v), (g is h, u, v)


def _pairs_hold(nx, g, table, pairs):
    """Every pair's value in ``table`` is its lambda in ``g``, by networkx."""
    from networkx.algorithms.flow import build_residual_network, edmonds_karp

    net = _lawler_network(nx, g)
    residual = build_residual_network(net, "capacity")
    for u, v in pairs:
        assert edmonds_karp(net, u, v, residual=residual).graph["flow_value"] == table.get(u, v), (u, v)


class TestMetamorphicAt640:
    """Checks above the brute-force bound that need no oracle, at n = 640 and
    m = 1,920 with s of maximum degree: a second split-off keeps the first
    one's values, and renaming the vertices renames the certificate. Each
    result's tree pairs and 100 seeded pairs hold against networkx."""

    @pytest.fixture(scope="class")
    def first(self):
        from hypersplit import GenParams, complete_split_off, random_hypergraph

        h = random_hypergraph(GenParams(640, 1920, 4, seed=7))
        s = max(sorted(h.vertices), key=h.degree)
        return h, s, complete_split_off(h, s)

    @staticmethod
    def _pairs(table, rest, seed):
        """The tree pairs of ``table`` over ``rest``, then 100 seeded pairs of ``rest``."""
        from hypersplit import SplitMix64

        rest, rng = sorted(rest), SplitMix64(seed)
        pairs = [(u, v) for u, v, _ in table.restrict(rest).tree()]
        return pairs + [tuple(rest[i] for i in rng.sample(len(rest), 2)) for _ in range(100)]

    @pytest.mark.slow
    def test_split_off_s_then_t(self, first):
        nx = pytest.importorskip("networkx")
        from hypersplit import complete_split_off

        h, s, res = first
        t = max(sorted(h.vertices - {s}), key=res.h_star.degree)
        second = complete_split_off(res.h_star, t)
        rest = h.vertices - {s, t}
        assert res.h_star.degree(t) > 0 and second.h_star.degree(s) == second.h_star.degree(t) == 0
        assert second.certificate.restrict(rest) == res.certificate.restrict(rest)
        pairs = self._pairs(second.certificate, rest, 7)
        assert len(pairs) == 737
        for g in (h, second.h_star):
            _pairs_hold(nx, g, res.certificate, pairs)

    @pytest.mark.slow
    def test_renamed_vertices(self, first):
        nx = pytest.importorskip("networkx")
        from hypersplit import Hypergraph, SplitMix64, complete_split_off

        h, s, res = first
        rename = SplitMix64(11).sample(len(h.vertices), len(h.vertices))
        renamed = Hypergraph(frozenset(rename), {e: frozenset(map(rename.__getitem__, members))
                                                 for e, members in h.hyperedges.items()})
        again = complete_split_off(renamed, rename[s])
        values = res.certificate.values.items()
        assert again.certificate == ConnTable({(rename[u], rename[v]): k for (u, v), k in values})
        pairs = self._pairs(again.certificate, renamed.vertices - {rename[s]}, 11)
        _pairs_hold(nx, again.h_star, again.certificate, pairs)
