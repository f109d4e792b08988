"""The split-off construction: gadget, pipeline stages, extraction, certificates."""

import itertools

import pytest

from hypersplit import (
    ConnTable,
    GenParams,
    Hypergraph,
    Merge,
    SplitMix64,
    Trim,
    UnknownVertexError,
    apply_op,
    complete_split_off,
    conn_table_elements,
    conn_table_hyper,
    extract_op_log,
    hypergraph_equal,
    incidence_graph,
    oracle_lambda,
    random_hypergraph,
    replay,
    run_pipeline,
)
from conftest import corpus_hypergraph, hypergraph, named_hypergraphs, rebuilt_g3

# Degree-5 instance whose pipeline both deletes gadget edges (three hyperedges
# end up plainly trimmed) and keeps a merge chain; frozen from the generator.
FIG_SHAPE_EDGES = [
    {0, 1, 3},
    {0, 1, 3},
    {1, 2},
    {0, 2},
    {1, 3},
    {0, 1, 2},
    {1, 3},
    {0, 2, 3},
    {0, 1, 2},
]
FIG_SHAPE_S = 2


@pytest.fixture
def stage_checks(monkeypatch):
    """The ``what`` of every stage check ``run_pipeline`` makes, in order."""
    from hypersplit import splitoff

    checks = []
    real = splitoff._checked

    def counted(network, reference, what):
        checks.append(what)
        return real(network, reference, what)

    monkeypatch.setattr(splitoff, "_checked", counted)
    return checks


def two_star():
    # {{s,a},{s,b}} with s=2, a=0, b=1
    return hypergraph([{2, 0}, {2, 1}])


class TestBuildGadget:
    def test_degree_zero_strips_s_only(self):
        h = hypergraph([{0, 1}], extra_vertices=[9])
        inc = incidence_graph(h)
        gadget = run_pipeline(h, 9).gadget
        assert gadget.clique == ()
        assert gadget.attachments == ()
        assert gadget.instance.graph.vertices == inc.instance.graph.vertices - {9}
        assert dict(gadget.instance.graph.edges) == dict(inc.instance.graph.edges)

    def test_degree_one_has_no_clique_edges(self):
        h = hypergraph([{9, 0, 1}])
        gadget = run_pipeline(h, 9).gadget
        assert len(gadget.clique) == 1
        (leaf,) = gadget.clique
        assert gadget.instance.graph.degree(leaf) == 1

    def test_degree_five_builds_complete_clique(self):
        h = hypergraph(FIG_SHAPE_EDGES)
        gadget = run_pipeline(h, FIG_SHAPE_S).gadget
        assert len(gadget.clique) == 5
        clique = set(gadget.clique)
        # complete graph among the gadget vertices
        internal = [
            (a, b) for a, b in gadget.instance.graph.edges.values() if a in clique and b in clique
        ]
        assert len(internal) == 10
        assert len(set(internal)) == 10
        # every incident hyperedge node hangs off exactly one gadget vertex
        inc = incidence_graph(h)
        for eid, holder in gadget.attachments:
            node = inc.edge_node[eid]
            assert gadget.instance.graph.neighbors(node) & clique == {holder}
        assert sorted(e for e, _ in gadget.attachments) == sorted(h.incident(FIG_SHAPE_S))

    def test_gadget_vertices_are_nonterminals(self):
        h = two_star()
        gadget = run_pipeline(h, 2).gadget
        assert not set(gadget.clique) & gadget.instance.terminals

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            run_pipeline(two_star(), 42)


class TestRunPipeline:
    def test_two_star_hand_run(self):
        h = two_star()
        p = run_pipeline(h, 2)
        # the clique edge cannot be deleted (it carries the only a-b route)
        assert len(p.s2) == 1
        assert p.deleted_edges == ()
        assert p.f0 == ()
        assert list(p.fa.values()) == [(0, 1)]
        g3 = rebuilt_g3(p)
        inc = incidence_graph(h)
        assert g3.graph.neighbors(p.s2[0]) == {inc.edge_node[0], inc.edge_node[1]}
        for stage in (p.gadget.instance, g3):
            assert conn_table_elements(stage) == p.table

    def test_degree_zero_degenerates(self):
        h = hypergraph([{0, 1}], extra_vertices=[9])
        p = run_pipeline(h, 9)
        g0 = incidence_graph(h).instance
        g3 = rebuilt_g3(p)
        assert g3.graph.vertices == g0.graph.vertices - {9}
        assert dict(g3.graph.edges) == dict(g0.graph.edges)
        assert p.s2 == () and p.f0 == () and not p.fa
        for stage in (p.gadget.instance, g3):
            assert conn_table_elements(stage) == p.table

    def test_fig_shape_deletes_and_merges(self):
        p = run_pipeline(hypergraph(FIG_SHAPE_EDGES), FIG_SHAPE_S)
        assert p.deleted_edges != ()
        assert p.f0 == (5, 7, 8)
        assert list(p.fa.values()) == [(2, 3)]

    def test_stage_tables_all_equal(self):
        for trial in range(25):
            h = corpus_hypergraph(trial, max_n=6, max_m=8)
            s = sorted(h.vertices)[trial % len(h.vertices)]
            p = run_pipeline(h, s)
            g0 = incidence_graph(h).instance
            assert p.table == conn_table_elements(g0).restrict(g0.terminals - {s})
            # G1 >= G2 >= G3 pairwise, so G1 and G3 cover G2.
            for stage in (p.gadget.instance, rebuilt_g3(p)):
                assert conn_table_elements(stage) == p.table

    def test_pipeline_checks_only_g1(self, stage_checks):
        # Both reduction stages keep the G1 check's flows, and the end-to-end
        # check of complete_split_off proves G2 and G3, so the pipeline makes
        # one stage check even when both stages changed the instance.
        p = run_pipeline(hypergraph(FIG_SHAPE_EDGES), FIG_SHAPE_S)
        assert p.deleted_edges
        assert stage_checks == ["replacing s with the clique gadget"]

    def test_stage_tables_match_hypergraph_tables(self):
        for trial in range(20):
            h = corpus_hypergraph(trial, max_n=6, max_m=8)
            s = sorted(h.vertices)[trial % len(h.vertices)]
            res = complete_split_off(h, s)
            p = res.pipeline
            rest = h.vertices - {s}
            assert conn_table_elements(incidence_graph(h).instance) == conn_table_hyper(h)
            assert p.table == res.certificate == conn_table_hyper(h).restrict(rest)
            for stage in (p.gadget.instance, rebuilt_g3(p)):
                assert conn_table_elements(stage) == p.table
            assert conn_table_hyper(res.h_star).restrict(rest) == res.certificate


class TestExtraction:
    def test_two_star_extracts_single_edge(self):
        h_star = complete_split_off(two_star(), 2).h_star
        assert hypergraph_equal(h_star, hypergraph([{0, 1}], extra_vertices=[2]))

    def test_untouched_hyperedges_keep_ids(self):
        h = hypergraph([{9, 0}, {0, 1}, {1, 2}])
        h_star = complete_split_off(h, 9).h_star
        assert h_star.hyperedges[1] == h.hyperedges[1]
        assert h_star.hyperedges[2] == h.hyperedges[2]

    def test_empty_nonterminal_side(self):
        h = hypergraph([{9, 0}])
        assert complete_split_off(h, 9).h_star.num_edges == 0

    def test_two_star_log(self):
        p = run_pipeline(two_star(), 2)
        assert extract_op_log(p) == (Merge(keep=0, absorb=1), Trim(edge=0))

    def test_degree_one_log_is_single_trim(self):
        p = run_pipeline(hypergraph([{9, 0, 1}]), 9)
        assert extract_op_log(p) == (Trim(edge=0),)

    def test_fig_shape_log(self):
        p = run_pipeline(hypergraph(FIG_SHAPE_EDGES), FIG_SHAPE_S)
        assert extract_op_log(p) == (
            Trim(5),
            Trim(7),
            Trim(8),
            Merge(keep=2, absorb=3),
            Trim(2),
        )

    def test_fig_shape_result_ids(self):
        # The result is the log replayed on the input, so each hyperedge keeps
        # its id; a merge chain keeps its smallest.
        h_star = complete_split_off(hypergraph(FIG_SHAPE_EDGES), FIG_SHAPE_S).h_star
        assert h_star.vertices == frozenset({0, 1, 2, 3})
        assert dict(h_star.hyperedges) == {
            0: {0, 1, 3},
            1: {0, 1, 3},
            2: {0, 1},
            4: {1, 3},
            5: {0, 1},
            6: {1, 3},
            7: {0, 3},
            8: {0, 1},
        }


class TestCompleteSplitOff:
    def test_two_star(self):
        res = complete_split_off(two_star(), 2)
        assert hypergraph_equal(res.h_star, hypergraph([{0, 1}], extra_vertices=[2]))
        assert res.log == (Merge(keep=0, absorb=1), Trim(edge=0))
        assert len(res.certificate) == 1

    def test_degree_zero_is_identity(self):
        h = hypergraph([{0, 1}], extra_vertices=[9])
        res = complete_split_off(h, 9)
        assert hypergraph_equal(res.h_star, h)
        assert res.log == ()

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            complete_split_off(two_star(), 42)

    def test_random_instances_certify_and_agree_with_oracle(self):
        for trial in range(60):
            h = corpus_hypergraph(trial, max_n=6, max_m=8)
            s = sorted(h.vertices)[trial % len(h.vertices)]
            res = complete_split_off(h, s)
            assert res.h_star.degree(s) == 0
            assert res.h_star.num_edges <= h.num_edges
            assert hypergraph_equal(replay(h, s, res.log), res.h_star)
            rest = sorted(h.vertices - {s})
            for u, v in itertools.combinations(rest, 2):
                want = oracle_lambda(h, u, v)
                assert oracle_lambda(res.h_star, u, v) == want
                assert res.certificate.get(u, v) == want

    def test_every_merge_is_almost_disjoint_when_applied(self):
        for trial in range(60):
            h = corpus_hypergraph(trial, max_n=6, max_m=8)
            s = sorted(h.vertices)[trial % len(h.vertices)]
            res = complete_split_off(h, s)
            cur = h
            for op in res.log:
                if isinstance(op, Merge):
                    assert cur.members(op.keep) & cur.members(op.absorb) == {s}
                cur = apply_op(cur, s, op)
            assert hypergraph_equal(cur, res.h_star)

    def test_hyperedges_away_from_s_survive_unchanged(self):
        for trial in range(40):
            h = corpus_hypergraph(trial, max_n=6, max_m=8)
            s = sorted(h.vertices)[trial % len(h.vertices)]
            res = complete_split_off(h, s)
            for eid in h.edge_ids():
                if s not in h.hyperedges[eid]:
                    assert res.h_star.hyperedges[eid] == h.hyperedges[eid]

    def test_no_op_of_the_log_raises_a_pair_property(self):
        # Every pair of V, s included, after each op against just before it.
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        @hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
        @hypothesis.given(named_hypergraphs(st, max_n=8, max_m=10))
        def check(drawn):
            h, _, s = drawn
            res = complete_split_off(h, s)
            cur, table = h, conn_table_hyper(h)
            for op in res.log:
                cur = apply_op(cur, s, op)
                after = conn_table_hyper(cur)
                assert all(after.get(u, v) <= k for u, v, k in table.pairs()), op
                table = after
            assert hypergraph_equal(cur, res.h_star)
            assert table.restrict(h.vertices - {s}) == res.certificate

        check()


class TestDegenerateShapes:
    """deg(s) in {0,1}, duplicates through s, and singleton-dropping trims."""

    CASES = [
        hypergraph([{0, 1}, {1, 2}], extra_vertices=[9]),     # deg(s)=0
        hypergraph([{9, 0, 1}]),                              # deg(s)=1, trim keeps edge
        hypergraph([{9, 0}]),                                 # deg(s)=1, trim drops singleton
        hypergraph([{9, 0}, {9, 0}]),                         # duplicate {s,v} twice
        hypergraph([{9, 0, 1}, {9, 0, 1}]),                   # duplicate triple through s
        hypergraph([{9, 0}, {0, 1}]),                         # singleton drop beside a real edge
    ]

    @pytest.mark.parametrize("h", CASES, ids=range(len(CASES)))
    def test_certified_splitoff(self, h):
        res = complete_split_off(h, 9)
        assert res.h_star.degree(9) == 0
        assert hypergraph_equal(replay(h, 9, res.log), res.h_star)
        for stage in (res.pipeline.gadget.instance, rebuilt_g3(res.pipeline)):
            assert conn_table_elements(stage) == res.pipeline.table
        rest = sorted(h.vertices - {9})
        for u, v in itertools.combinations(rest, 2):
            assert oracle_lambda(res.h_star, u, v) == oracle_lambda(h, u, v)


def _through_s(n, m, seed):
    """m hyperedges on vertices 0..n-1, each s=0 plus one to three others."""
    rng = SplitMix64(seed)
    edges = []
    for _ in range(m):
        others = rng.sample(n - 1, 1 + rng.below(3))
        edges.append({0, *(v + 1 for v in others)})
    return edges


def _star(d, spokes, rims):
    """s=0 joined to leaves 1..d by ``spokes`` copies of each {0, i}, plus
    ``rims`` copies of each ring hyperedge {i, i+1 mod d}."""
    ring = [{i, i % d + 1} for i in range(1, d + 1)]
    return [{0, i} for i in range(1, d + 1)] * spokes + ring * rims


class TestAdversarialShapes:
    """Shapes that force rejected deletions (so contractions) and flows over
    parallel edges, each checked against the brute-force oracle and replay."""

    CASES = {
        "s_in_every_hyperedge": (hypergraph(_through_s(8, 12, seed=1)), 0),
        "all_parallel": (hypergraph([{0, 1, 2}] * 10), 0),
        "parallel_classes": (hypergraph([{0, 1, 2}] * 6 + [{0, 3}] * 5 + [{1, 3}] * 4), 0),
        "deg_s_far_above_n": (hypergraph(_through_s(6, 40, seed=2)), 0),
        "long_path_middle": (hypergraph([{i, i + 1} for i in range(11)]), 5),
        "long_path_end": (hypergraph([{i, i + 1} for i in range(11)]), 0),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_split_off(self, name):
        h, s = self.CASES[name]
        res = complete_split_off(h, s)
        assert res.h_star.degree(s) == 0
        assert hypergraph_equal(replay(h, s, res.log), res.h_star)
        for u, v in itertools.combinations(sorted(h.vertices - {s}), 2):
            assert oracle_lambda(res.h_star, u, v) == oracle_lambda(h, u, v)

    # High-degree stars: most clique edges are contracted, over parallel edges.
    STARS = {
        "ring_star": (hypergraph(_star(12, 1, 1)), 0),
        "parallel_star": (hypergraph(_star(10, 3, 2) + [{0, i, i % 10 + 1} for i in range(1, 11)]), 0),
    }

    @pytest.mark.parametrize("name", STARS)
    def test_star_split_off(self, name):
        h, s = self.STARS[name]
        res = complete_split_off(h, s)
        assert len(res.pipeline.s2) < len(res.pipeline.gadget.clique) // 2
        assert res.h_star.degree(s) == 0
        assert hypergraph_equal(replay(h, s, res.log), res.h_star)
        for u, v in itertools.combinations(sorted(h.vertices - {s}), 2):
            assert oracle_lambda(res.h_star, u, v) == oracle_lambda(h, u, v)

    def test_high_degree_rejects_deletions(self):
        h, s = self.CASES["deg_s_far_above_n"]
        p = run_pipeline(h, s)
        assert h.degree(s) == 40
        assert len(p.s2) < len(p.gadget.clique)  # some clique edges were contracted


class TestOneCheckerPerInstance:
    """Both reduction stages continue G1's tree flows, and G0's table is the
    only full table."""

    @staticmethod
    def seeded():
        h = random_hypergraph(GenParams(10, 25, 4, seed=3))
        return h, max(sorted(h.vertices), key=h.degree)

    def test_one_checker_per_split(self, monkeypatch):
        from hypersplit import flow

        built = []
        real = flow._TreeFlows.__init__

        def counted(self, network, table):
            (head, cap, out), index, edge_ids = network
            built.append((tuple(head), tuple(cap), tuple(map(tuple, out)), tuple(index.items()), edge_ids))
            real(self, network, table)

        monkeypatch.setattr(flow._TreeFlows, "__init__", counted)
        cases = [self.seeded(), (two_star(), 2), (hypergraph(FIG_SHAPE_EDGES), FIG_SHAPE_S)]
        cases += [(h, 9) for h in TestDegenerateShapes.CASES]
        cases += [TestAdversarialShapes.CASES[name] for name in ("deg_s_far_above_n", "all_parallel")]
        for h, s in cases:
            built.clear()
            complete_split_off(h, s)
            # G1's check only: both reduction stages continue its flows.
            assert len(built) == 1

    def test_check_plan(self, max_flows):
        # The G0 table costs n-1 flows; the G1 check and the end-to-end check
        # cost n-2 each. Reductions run none.
        h, s = self.seeded()
        n = len(h.vertices)
        complete_split_off(h, s)
        assert len(max_flows) == (n - 1) + 2 * (n - 2) == 25

    def test_one_table_per_split(self, monkeypatch):
        from hypersplit import flow

        tables = []
        real = flow._gusfield  # every table runs through it

        def counted(network, terms, *kept):
            tables.append(terms)
            return real(network, terms, *kept)

        monkeypatch.setattr(flow, "_gusfield", counted)
        h, s = self.seeded()
        complete_split_off(h, s)
        assert len(tables) == 1

    def test_stage_two_caught_after_a_final_contraction(self, monkeypatch):
        # Stage 3 trusts the flows stage 2 kept, so a wrong G2 that keeps every
        # attachment edge must be caught by the end-to-end check of h_star.
        from hypersplit import InternalInvariantError, splitoff

        real = splitoff._reduce_to_stable

        def lossy(inst, flows, within):
            _, _, steps = real(inst, flows, within)
            assert steps[-1].action == "contracted"
            # G1 without its clique edges: the a-b route through the gadget is gone.
            edges = {e: uv for e, uv in inst.graph.edges.items() if not set(uv) <= within}
            return edges, {v: frozenset({v}) for v in inst.graph.vertices}, steps

        monkeypatch.setattr(splitoff, "_reduce_to_stable", lossy)
        with pytest.raises(InternalInvariantError, match="splitting off s"):
            complete_split_off(two_star(), 2)

    def test_stage_two_losing_an_attachment_is_caught(self, monkeypatch):
        # Stage 2 reduces clique edges only; a G2 without one attachment edge
        # must stop the pipeline before stage 3 or the bookkeeping reads it.
        from hypersplit import InternalInvariantError, splitoff

        real = splitoff._reduce_to_stable

        def lossy(inst, flows, within):
            edges, vertex_map, steps = real(inst, flows, within)
            del edges[min(e for e, (_, b) in edges.items() if b in within)]
            return edges, vertex_map, steps

        monkeypatch.setattr(splitoff, "_reduce_to_stable", lossy)
        h, s = self.seeded()
        with pytest.raises(InternalInvariantError, match="not attached to exactly one surviving gadget vertex"):
            complete_split_off(h, s)

    def test_end_to_end_check_catches_a_wrong_result(self, monkeypatch):
        # Trimming every hyperedge at s replays and isolates s, but on the two
        # star it cuts a from b: lambda(a, b) drops from 1 to 0 in h_star.
        from hypersplit import InternalInvariantError, splitoff

        def trim_all(p):
            return tuple(Trim(e) for e in p.hypergraph.incident(p.s))

        monkeypatch.setattr(splitoff, "extract_op_log", trim_all)
        h = two_star()
        assert replay(h, 2, trim_all(run_pipeline(h, 2))).degree(2) == 0
        with pytest.raises(InternalInvariantError, match="splitting off s"):
            complete_split_off(h, 2)

    def test_stage_checks_catch_faults(self, monkeypatch):
        # Stage 3 trusting its kept flows, or a broken gadget, must not slip
        # through: a wrong G3 fails the end-to-end check, a wrong G1 its own.
        from hypersplit import InternalInvariantError, Multigraph, splitoff

        def delete_all(edges, candidates, flows):
            return tuple(sorted(set(candidates)))

        h, s = self.seeded()
        with monkeypatch.context() as m:
            m.setattr(splitoff, "_maximal_preserving_deletions", delete_all)
            with pytest.raises(InternalInvariantError, match="splitting off s"):
                complete_split_off(h, s)

        real_gadget = splitoff._build_gadget

        def no_clique(h, s, inc):
            g = real_gadget(h, s, inc)
            graph = g.instance.graph
            edges = {e: uv for e, uv in graph.edges.items() if not set(uv) <= set(g.clique)}
            inst = g.instance.with_graph(Multigraph(graph.vertices, edges))
            return splitoff.GadgetInstance(inst, g.clique, g.attachments)

        monkeypatch.setattr(splitoff, "_build_gadget", no_clique)
        with pytest.raises(InternalInvariantError, match="replacing s with the clique gadget"):
            complete_split_off(h, s)


class TestVertexLayout:
    """Vertex v is node v of G0, so the split must not depend on the vertex ids."""

    @staticmethod
    def relabel(v):
        return 3 * v + 5 - 40 * (v % 2)  # non-contiguous, partly negative, order not kept

    def test_relabelled_vertices_give_the_same_split(self):
        f = self.relabel
        for seed in range(60):
            n = 6 + seed % 5
            h = random_hypergraph(GenParams(n, 2 * n + seed % n, 4, seed=seed))
            s = max(sorted(h.vertices), key=h.degree)
            moved = Hypergraph(
                frozenset(map(f, h.vertices)),
                {e: frozenset(map(f, ms)) for e, ms in h.hyperedges.items()},
            )
            res, again = complete_split_off(h, s), complete_split_off(moved, f(s))
            assert again.log == res.log, seed
            assert dict(again.h_star.hyperedges) == {
                e: frozenset(map(f, ms)) for e, ms in res.h_star.hyperedges.items()
            }, seed
            assert again.certificate == ConnTable({(f(u), f(v)): k for u, v, k in res.certificate.pairs()})


class TestSearchOrder:
    """Outputs do not depend on the order in which searches scan arcs.

    Every decision reads a flow value or the source side of a minimum cut,
    and both are the same for every maximum flow. So reversing, or
    shuffling, each node's ``out`` list of an element network and each
    vertex's ``adj`` list of Lawler's network leaves every split and every
    reduction as it was.
    """

    @staticmethod
    def reorder_networks(monkeypatch, reorder, built):
        """Patch both network builders wherever they are bound; each network
        they build is reordered, and its builder appended to ``built``."""
        from hypersplit import flow, reduction, splitoff

        real_arcs, real_network = flow._split_arcs, flow._hyperedge_network

        def split_arcs(inst):
            built.append("element")
            network = real_arcs(inst)
            for arcs in network[0][2]:
                reorder(arcs)
            return network

        def hyperedge_network(h):
            built.append("hypergraph")
            network = real_network(h)
            graph = network[0]
            for adj in graph.adj[: graph.vertices]:
                reorder(adj)
            return network

        for module in (flow, reduction, splitoff):
            for name, value in list(vars(module).items()):
                if value is real_arcs:
                    monkeypatch.setattr(module, name, split_arcs)
                elif value is real_network:
                    monkeypatch.setattr(module, name, hyperedge_network)

    @staticmethod
    def outputs():
        from hypersplit import ElementConnInstance, random_element_instance, reduce_to_stable

        found = []
        for trial in range(40):
            n = 8 + trial % 25
            h = random_hypergraph(GenParams(n, 2 * n + trial % n, 4, seed=trial))
            res = complete_split_off(h, max(sorted(h.vertices), key=h.degree))
            found.append((res.log, res.h_star))
            n = 12 + trial % 19
            graph = random_element_instance(GenParams(n, 2 * n + 3 * trial % n, 2, seed=trial)).graph
            terminals = frozenset(SplitMix64(trial).sample(n, 2 + trial % 5))
            found.append(reduce_to_stable(ElementConnInstance(graph, terminals)))
        return found

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_outputs_do_not_depend_on_the_search_order(self, monkeypatch, order):
        import random

        expected = self.outputs()
        assert sum(1 for _, trace in expected[1::2] if trace.steps) >= 30
        reorder = list.reverse if order == "reversed" else random.Random(7).shuffle
        built = []
        self.reorder_networks(monkeypatch, reorder, built)
        assert self.outputs() == expected
        assert set(built) == {"element", "hypergraph"}
