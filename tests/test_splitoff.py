"""The split-off construction: gadget, pipeline stages, extraction, certificates."""

import itertools

import pytest

from hypersplit import (
    GenParams,
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
from conftest import corpus_hypergraph, hypergraph, named_hypergraphs

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
        s_node = inc.vertex_node[9]
        assert gadget.clique == ()
        assert gadget.attachments == ()
        assert gadget.instance.graph.vertices == inc.instance.graph.vertices - {s_node}
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
        p = run_pipeline(two_star(), 2)
        # the clique edge cannot be deleted (it carries the only a-b route)
        assert len(p.s2) == 1
        assert p.deleted_edges == ()
        assert p.f0 == ()
        assert list(p.fa.values()) == [(0, 1)]
        g3 = p.stage("G3").instance
        inc = p.incidence
        assert g3.graph.neighbors(p.s2[0]) == {inc.edge_node[0], inc.edge_node[1]}

    def test_degree_zero_degenerates(self):
        h = hypergraph([{0, 1}], extra_vertices=[9])
        p = run_pipeline(h, 9)
        g0 = p.stage("G0").instance
        g3 = p.stage("G3").instance
        s_node = p.incidence.vertex_node[9]
        assert g3.graph.vertices == g0.graph.vertices - {s_node}
        assert dict(g3.graph.edges) == dict(g0.graph.edges)
        assert p.s2 == () and p.f0 == () and not p.fa

    def test_fig_shape_deletes_and_merges(self):
        p = run_pipeline(hypergraph(FIG_SHAPE_EDGES), FIG_SHAPE_S)
        assert p.deleted_edges != ()
        assert p.f0 == (5, 7, 8)
        assert list(p.fa.values()) == [(2, 3)]

    def test_stage_tables_all_equal(self):
        for trial in range(25):
            h = corpus_hypergraph(trial, max_n=6, max_m=8)
            s = sorted(h.vertices)[trial % len(h.vertices)]
            p = run_pipeline(h, s, certify=True)
            assert p.table == conn_table_elements(p.stage("G0").instance)
            reference = p.table.restrict(p.stage("G1").instance.terminals)
            assert [st.name for st in p.stages] == ["G0", "G1", "G2", "G3"]
            for stage in p.stages[1:]:
                assert conn_table_elements(stage.instance) == reference

    def test_certify_off_skips_tables(self, stage_checks):
        # certify=False skips only the fresh G3 check; the G0 table and the
        # G1 check, whose flows stage 2 starts from, still run.
        h = hypergraph(FIG_SHAPE_EDGES)
        for certify in (True, False):
            stage_checks.clear()
            p = run_pipeline(h, FIG_SHAPE_S, certify=certify)
            assert p.deleted_edges
            assert p.table == conn_table_elements(p.stage("G0").instance)
            assert stage_checks[0] == "replacing s with the clique gadget"
            assert ("deleting gadget-incident edges" in stage_checks) == certify

    def test_stage_tables_match_hypergraph_tables(self):
        for trial in range(20):
            h = corpus_hypergraph(trial, max_n=6, max_m=8)
            s = sorted(h.vertices)[trial % len(h.vertices)]
            res = complete_split_off(h, s, certify=True)
            p = res.pipeline
            rest = h.vertices - {s}
            g0_table = p.table.remapped(p.incidence.node_vertex)
            assert g0_table == conn_table_hyper(h)
            assert g0_table.restrict(rest) == res.certificate
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
            res = complete_split_off(h, s, certify=False)
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
            res = complete_split_off(h, s, certify=False)
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
        res = complete_split_off(h, 9, certify=True)
        assert res.h_star.degree(9) == 0
        assert hypergraph_equal(replay(h, 9, res.log), res.h_star)
        reference = res.pipeline.table.restrict(res.pipeline.stage("G1").instance.terminals)
        for stage in res.pipeline.stages[1:]:
            assert conn_table_elements(stage.instance) == reference
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

    @pytest.mark.parametrize("certify", (True, False))
    @pytest.mark.parametrize("name", STARS)
    def test_star_split_off(self, name, certify):
        h, s = self.STARS[name]
        res = complete_split_off(h, s, certify=certify)
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
    """Stage checks and the reductions share their tree flows, and G0's
    table is the only full table, whether or not stages are certified."""

    @staticmethod
    def seeded():
        h = random_hypergraph(GenParams(10, 25, 4, seed=3))
        return h, max(sorted(h.vertices), key=h.degree)

    def test_certified_builds_no_checker_twice(self, monkeypatch):
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
            complete_split_off(h, s, certify=True)
            assert built and len(built) == len(set(built))

    def test_default_checks_stage_three_at_any_size(self, stage_checks):
        # Every check costs T-1 flows, so no instance size turns the G3 check off.
        h = hypergraph(FIG_SHAPE_EDGES + [{v, v + 1} for v in range(3, 70)])
        assert len(h.vertices) - 1 > 64
        res = complete_split_off(h, FIG_SHAPE_S)
        assert res.pipeline.deleted_edges
        assert "deleting gadget-incident edges" in stage_checks

    def test_uncertified_computes_one_table(self, monkeypatch):
        from hypersplit import flow, reduction, splitoff

        tables = []
        real = flow.conn_table_elements

        def counted(inst):
            tables.append(inst)
            return real(inst)

        for module in (flow, reduction, splitoff):
            monkeypatch.setattr(module, "conn_table_elements", counted)
        h, s = self.seeded()
        complete_split_off(h, s, certify=False)
        assert len(tables) == 1

    def test_stage_two_rechecked_after_a_final_contraction(self, monkeypatch):
        # Contractions run inside the kept flows, so G2 gets a fresh check
        # even when a contraction was stage 2's last step.
        from hypersplit import InternalInvariantError, Multigraph, splitoff

        real = splitoff._reduce_to_stable

        def lossy(inst, flows, within):
            out, trace = real(inst, flows, within)
            assert trace.steps[-1].action == "contracted"
            edges = {e: uv for e, uv in out.graph.edges.items() if not set(uv) & within}
            return out.with_graph(Multigraph(out.graph.vertices, edges)), trace

        monkeypatch.setattr(splitoff, "_reduce_to_stable", lossy)
        with pytest.raises(InternalInvariantError, match="reducing the clique edges"):
            complete_split_off(two_star(), 2, certify=False)

    def test_stage_checks_catch_faults(self, monkeypatch):
        # Stage 3 trusting its kept flows, or a broken gadget, must not slip
        # through: G3 is re-checked by a fresh build, and G1 in both modes.
        from hypersplit import InternalInvariantError, Multigraph, splitoff

        def delete_all(inst, candidates, flows):
            gone = set(candidates)
            edges = {e: uv for e, uv in inst.graph.edges.items() if e not in gone}
            return inst.with_graph(Multigraph(inst.graph.vertices, edges)), tuple(sorted(gone))

        h, s = self.seeded()
        with monkeypatch.context() as m:
            m.setattr(splitoff, "_maximal_preserving_deletions", delete_all)
            with pytest.raises(InternalInvariantError, match="deleting gadget-incident edges"):
                complete_split_off(h, s, certify=True)

        real_gadget = splitoff._build_gadget

        def no_clique(h, s, inc):
            g = real_gadget(h, s, inc)
            graph = g.instance.graph
            edges = {e: uv for e, uv in graph.edges.items() if not set(uv) <= set(g.clique)}
            inst = g.instance.with_graph(Multigraph(graph.vertices, edges))
            return splitoff.GadgetInstance(inst, g.clique, g.attachments)

        monkeypatch.setattr(splitoff, "_build_gadget", no_clique)
        for certify in (True, False):
            with pytest.raises(InternalInvariantError, match="replacing s with the clique gadget"):
                complete_split_off(h, s, certify=certify)
