"""Reduction of non-terminal edges: delete when possible, contract otherwise."""

import pytest

from hypersplit import (
    MissingEdgeError,
    TerminalEndpointError,
    conn_table_elements,
    is_deletion_preserving,
    maximal_preserving_deletions,
    reduce_edge,
    reduce_to_stable,
    table_holds,
)
from conftest import corpus_element_instance, instance


def nonterminal_edges(inst):
    nts = inst.nonterminals
    return [e for e, (a, b) in inst.graph.edges.items() if a in nts and b in nts]


class TestReduceEdge:
    def test_path_contracts(self):
        # u=0 - p=2 - q=3 - v=1: deleting pq would zero out kappa(u,v)
        inst = instance([(0, 2), (2, 3), (3, 1)], terminals=[0, 1])
        baseline = conn_table_elements(inst)
        out, step = reduce_edge(inst, 1, baseline)
        assert step.action == "contracted"
        assert step.merged_into == 2
        assert conn_table_elements(out) == baseline

    def test_chord_deletes(self):
        inst = instance([(0, 2), (2, 1), (1, 3), (3, 0), (2, 3)], terminals=[0, 1])
        baseline = conn_table_elements(inst)
        out, step = reduce_edge(inst, 4, baseline)
        assert step.action == "deleted"
        assert conn_table_elements(out) == baseline

    def test_parallel_duplicate_deletes(self):
        inst = instance([(0, 2), (2, 3), (2, 3), (3, 1)], terminals=[0, 1])
        baseline = conn_table_elements(inst)
        out, step = reduce_edge(inst, 2, baseline)
        assert step.action == "deleted"
        assert conn_table_elements(out) == baseline

    def test_rejects_terminal_endpoint(self):
        inst = instance([(0, 2), (2, 1)], terminals=[0, 1])
        baseline = conn_table_elements(inst)
        with pytest.raises(TerminalEndpointError):
            reduce_edge(inst, 0, baseline)

    def test_rejects_missing_edge(self):
        inst = instance([(0, 2), (2, 3), (3, 1)], terminals=[0, 1])
        baseline = conn_table_elements(inst)
        with pytest.raises(MissingEdgeError):
            reduce_edge(inst, 17, baseline)


class TestReduceToStable:
    def test_stable_input_is_identity(self):
        inst = instance([(0, 2), (2, 1)], terminals=[0, 1])
        out, trace = reduce_to_stable(inst)
        assert out.graph.edges == inst.graph.edges
        assert trace.steps == ()

    def test_path_merges_interior(self):
        inst = instance([(0, 2), (2, 3), (3, 1)], terminals=[0, 1])
        out, trace = reduce_to_stable(inst)
        assert not nonterminal_edges(out)
        assert conn_table_elements(out) == conn_table_elements(inst)
        assert trace.vertex_map[2] == {2, 3}

    def test_nonterminal_clique_bridge(self):
        # terminals 0,1 each adjacent to non-terminals 2,3,4 forming a triangle
        edges = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        inst = instance(edges, terminals=[0, 1])
        baseline = conn_table_elements(inst)
        out, _ = reduce_to_stable(inst)
        assert not nonterminal_edges(out)
        assert conn_table_elements(out) == baseline

    def test_within_limits_candidates(self):
        # two separate non-terminal pairs; only the tracked one is reduced
        edges = [(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1)]
        inst = instance(edges, terminals=[0, 1])
        out, trace = reduce_to_stable(inst, within={2, 3})
        touched = {step.edge_id for step in trace.steps}
        assert touched == {1}
        assert 4 in {e for e, _ in out.graph.edges.items()}

    def test_random_instances_end_stable_with_same_table(self):
        for trial in range(40):
            inst = corpus_element_instance(trial)
            baseline = conn_table_elements(inst)
            out, _ = reduce_to_stable(inst)
            assert not nonterminal_edges(out)
            assert conn_table_elements(out) == baseline

    def test_contracted_sets_are_connected_nonterminals(self):
        from conftest import sparse_element_instance

        merged_seen = 0
        for trial in range(40):
            inst = sparse_element_instance(trial)
            _, trace = reduce_to_stable(inst)
            for survivor, originals in trace.vertex_map.items():
                if len(originals) <= 1:
                    continue
                merged_seen += 1
                assert originals <= inst.nonterminals
                members = set(originals)
                start = min(members)
                seen = {start}
                stack = [start]
                while stack:
                    w = stack.pop()
                    for eid in inst.graph.incident(w):
                        a, b = inst.graph.endpoints(eid)
                        other = b if a == w else a
                        if other in members and other not in seen:
                            seen.add(other)
                            stack.append(other)
                assert seen == members
        assert merged_seen > 0


class TestMaximalDeletions:
    def test_redundant_parallels_all_deleted(self):
        # kappa(0,1) = 1 through the hub 2; the parallel copies are redundant
        inst = instance([(0, 2), (2, 1), (2, 1), (2, 1)], terminals=[0, 1])
        out, deleted = maximal_preserving_deletions(inst, [2, 3])
        assert set(deleted) == {2, 3}
        assert conn_table_elements(out) == conn_table_elements(inst)

    def test_cut_edges_never_deleted(self):
        inst = instance([(0, 2), (2, 1)], terminals=[0, 1])
        out, deleted = maximal_preserving_deletions(inst, [0, 1])
        assert deleted == ()
        assert out.graph.edges == inst.graph.edges

    def test_survivors_are_not_deletable(self):
        for trial in range(30):
            inst = corpus_element_instance(trial)
            candidates = nonterminal_edges(inst)
            if not candidates:
                continue
            out, deleted = maximal_preserving_deletions(inst, candidates)
            baseline = conn_table_elements(inst)
            for e in candidates:
                if e in deleted:
                    continue
                assert not is_deletion_preserving(out, e, baseline)

    def test_rejects_unknown_candidate(self):
        inst = instance([(0, 2), (2, 1)], terminals=[0, 1])
        with pytest.raises(MissingEdgeError):
            maximal_preserving_deletions(inst, [44])


class TestDeletionPredicate:
    def test_bridge_between_terminals(self):
        inst = instance([(0, 1)], terminals=[0, 1])
        baseline = conn_table_elements(inst)
        assert not is_deletion_preserving(inst, 0, baseline)

    def test_pendant_nonterminal_edge(self):
        inst = instance([(0, 1), (1, 2)], terminals=[0, 1])
        baseline = conn_table_elements(inst)
        assert is_deletion_preserving(inst, 1, baseline)

    def test_redundant_parallel_terminal_edge(self):
        inst = instance([(0, 1), (0, 1)], terminals=[0, 1])
        baseline = conn_table_elements(inst)
        # removing one copy drops kappa from 2 to 1: not preserving
        assert not is_deletion_preserving(inst, 0, baseline)
        # but a copy beyond a separate two-path bottleneck is redundant
        wide = instance([(0, 2), (2, 1), (0, 1), (0, 1), (0, 1)], terminals=[0, 1])
        wide_base = conn_table_elements(wide)
        assert not is_deletion_preserving(wide, 2, wide_base)


class TestReductionTheorem:
    def test_delete_or_contract_always_preserves(self):
        for trial in range(60):
            inst = corpus_element_instance(trial)
            baseline = conn_table_elements(inst)
            for e in nonterminal_edges(inst):
                deletable = is_deletion_preserving(inst, e, baseline)
                contracted, _, _ = inst.graph.contracted(e)
                contract_ok = conn_table_elements(inst.with_graph(contracted)) == baseline
                assert deletable or contract_ok
                out, step = reduce_edge(inst, e, baseline)
                assert (step.action == "deleted") == deletable
                assert conn_table_elements(out) == baseline

    def test_nondeletable_stays_nondeletable_after_other_reductions(self):
        from hypersplit import SplitMix64

        from conftest import sparse_element_instance

        checked = 0
        trial = 0
        while checked < 40 and trial < 600:
            inst = sparse_element_instance(trial)
            trial += 1
            baseline = conn_table_elements(inst)
            blocked = [
                e for e in nonterminal_edges(inst) if not is_deletion_preserving(inst, e, baseline)
            ]
            if not blocked:
                continue
            rng = SplitMix64(trial * 31 + 5)
            watched = blocked[rng.below(len(blocked))]
            cur = inst
            applied = 0
            for _ in range(1 + rng.below(5)):
                watched_ends = set(cur.graph.endpoints(watched))
                others = [
                    e
                    for e in nonterminal_edges(cur)
                    if e != watched and set(cur.graph.endpoints(e)) != watched_ends
                ]
                if not others:
                    break
                cur, _ = reduce_edge(cur, others[rng.below(len(others))], baseline)
                applied += 1
            if applied == 0:
                continue
            assert watched in cur.graph.edges
            assert not is_deletion_preserving(cur, watched, baseline)
            checked += 1
        assert checked == 40


class TestTreeCheck:
    def test_agrees_with_full_table_on_delete_and_contract(self):
        from hypersplit import GenParams, random_element_instance

        outcomes = {"deleted": set(), "contracted": set()}
        instances = 0
        for trial in range(400):
            inst = random_element_instance(GenParams(n=9, m=14, r=2, seed=trial))
            if not 3 <= len(inst.terminals) <= 6 or not nonterminal_edges(inst):
                continue
            instances += 1
            base = conn_table_elements(inst)
            for e in nonterminal_edges(inst):
                contracted, _, _ = inst.graph.contracted(e)
                for action, graph in (("deleted", inst.graph.without_edge(e)),
                                      ("contracted", contracted)):
                    after = inst.with_graph(graph)
                    full = conn_table_elements(after) == base
                    assert table_holds(after, base) == full, (trial, e, action)
                    outcomes[action].add(full)
            if instances == 60:
                break
        assert instances == 60
        assert outcomes == {"deleted": {True, False}, "contracted": {True, False}}
