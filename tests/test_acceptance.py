"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ACCEPTANCE line (visible with ``pytest -s``); the
connectivity criteria are exact integer comparisons with zero tolerance.
Corpora are seeded and deterministic, so every run sees the same instances.
"""

import functools
import itertools

import pytest

from hypersplit import (
    Merge,
    SplitMix64,
    apply_op,
    complete_split_off,
    conn_table_elements,
    element_connectivity,
    hyperedge_connectivity,
    hypergraph_equal,
    oracle_element_conn,
    oracle_lambda,
    replay,
)
from hypersplit.flow import _table_flows
from hypersplit.formats import write_hypergraph_json, write_oplog
from hypersplit.reduction import reduce_to_stable
from conftest import (
    corpus_element_instance,
    corpus_hypergraph,
    hypergraph,
    names_for,
    rebuilt_g3,
    reference_reduce,
    sparse_element_instance,
)

LAMBDA_TRIALS = 500
ELEMENT_TRIALS = 300
REDUCTION_TRIALS = 300
MONOTONE_TRIALS = 200
SPLIT_TRIALS = 500


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}")
            return result

        return run

    return wrap


def split_vertex_for(trial, h):
    verts = sorted(h.vertices)
    return verts[SplitMix64(trial * 0x51CE + 9).below(len(verts))]


@pytest.fixture(scope="module")
def split_corpus():
    """(trial, H, s, result) for the split-off criteria."""
    out = []
    for trial in range(SPLIT_TRIALS):
        h = corpus_hypergraph(trial)
        s = split_vertex_for(trial, h)
        out.append((trial, h, s, complete_split_off(h, s)))
    return out


@criterion(1, f"flow lambda equals cut-enumeration oracle on {LAMBDA_TRIALS} hypergraphs")
def test_criterion_1_lambda_vs_oracle():
    pairs = 0
    for trial in range(LAMBDA_TRIALS):
        h = corpus_hypergraph(trial)
        for u, v in itertools.combinations(sorted(h.vertices), 2):
            assert hyperedge_connectivity(h, u, v) == oracle_lambda(h, u, v)
            pairs += 1
    assert pairs > LAMBDA_TRIALS


@criterion(2, f"flow kappa equals subset-enumeration oracle on {ELEMENT_TRIALS} element instances")
def test_criterion_2_kappa_vs_oracle():
    pairs = 0
    for trial in range(ELEMENT_TRIALS):
        inst = corpus_element_instance(trial)
        assert len(inst.graph.vertices) <= 10
        assert len(inst.nonterminals) + len(inst.graph.edges) <= 14
        for u, v in itertools.combinations(sorted(inst.terminals), 2):
            assert element_connectivity(inst, u, v) == oracle_element_conn(inst, u, v)
            pairs += 1
    assert pairs > ELEMENT_TRIALS


@criterion(3, f"delete or contract preserves the table on {REDUCTION_TRIALS} instances")
def test_criterion_3_reduction_theorem():
    # Two-thirds mixed-terminal instances, one-third two-terminal ones; the
    # latter carry most of the non-terminal edges this theorem is about.
    instances = [corpus_element_instance(t) for t in range(2 * REDUCTION_TRIALS // 3)]
    instances += [sparse_element_instance(t) for t in range(REDUCTION_TRIALS - len(instances))]
    edges_checked = 0
    for inst in instances:
        baseline = conn_table_elements(inst)
        nts = inst.nonterminals
        for e, (a, b) in sorted(inst.graph.edges.items()):
            if a not in nts or b not in nts:
                continue
            deleted = inst.with_graph(inst.graph.without_edge(e))
            contracted = inst.with_graph(inst.graph.contracted(e)[0])
            deletable = conn_table_elements(deleted) == baseline
            assert deletable or conn_table_elements(contracted) == baseline
            # The step reduce_to_stable takes, in the table's kept flows.
            flows = _table_flows(inst)[1]
            assert flows.delete(e) == deletable
            assert deletable or flows.contract(e)
            edges_checked += 1
    assert edges_checked >= REDUCTION_TRIALS


@criterion(4, f"non-deletable edges stay non-deletable over {MONOTONE_TRIALS} reduction trials")
def test_criterion_4_monotonicity():
    checked = 0
    trial = 0
    while checked < MONOTONE_TRIALS:
        assert trial < 4000, f"only {checked} qualifying trials found"
        inst = sparse_element_instance(trial)
        trial += 1
        nts = inst.nonterminals
        ntnt = [e for e, (a, b) in inst.graph.edges.items() if a in nts and b in nts]
        if not ntnt:
            continue
        baseline = conn_table_elements(inst)
        blocked = [e for e in sorted(ntnt) if reference_reduce(inst, e, baseline)[1] == "contracted"]
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
                for e, (a, b) in sorted(cur.graph.edges.items())
                if e != watched
                and a in cur.nonterminals
                and b in cur.nonterminals
                and {a, b} != watched_ends
            ]
            if not others:
                break
            cur, _ = reference_reduce(cur, others[rng.below(len(others))], baseline)
            applied += 1
        if applied == 0:
            continue
        assert watched in cur.graph.edges
        assert reference_reduce(cur, watched, baseline)[1] == "contracted"
        checked += 1


@criterion(5, f"complete split-off certified against flow and oracle on {SPLIT_TRIALS} hypergraphs")
def test_criterion_5_main_theorem(split_corpus):
    for trial, h, s, res in split_corpus:
        assert res.h_star.degree(s) == 0
        assert hypergraph_equal(replay(h, s, res.log), res.h_star)
        cur = h
        for op in res.log:
            if isinstance(op, Merge):
                assert cur.members(op.keep) & cur.members(op.absorb) == {s}
            cur = apply_op(cur, s, op)
        for u, v in itertools.combinations(sorted(h.vertices - {s}), 2):
            want = oracle_lambda(h, u, v)
            assert oracle_lambda(res.h_star, u, v) == want
            assert res.certificate.get(u, v) == want


@criterion(6, "stage tables G0..G3 agree on every certified pipeline")
def test_criterion_6_stage_invariants(split_corpus):
    # G1 >= G2 >= G3 pairwise, so G1 and G3 (rebuilt from the bookkeeping) cover G2.
    for _, _, _, res in split_corpus:
        pipeline = res.pipeline
        for stage in (pipeline.gadget.instance, rebuilt_g3(pipeline)):
            assert conn_table_elements(stage) == pipeline.table


@criterion(7, "identical seeds reproduce byte-identical logs and outputs")
def test_criterion_7_determinism(split_corpus):
    for trial, h, s, res in split_corpus[::13]:
        again = complete_split_off(h, s)
        table = names_for(len(h.vertices))
        assert write_oplog(h, table, s, again.log) == write_oplog(h, table, s, res.log)
        assert write_hypergraph_json(again.h_star, table) == write_hypergraph_json(
            res.h_star, table
        )
        assert again.certificate == res.certificate
    for trial in range(0, LAMBDA_TRIALS, 11):
        h1 = corpus_hypergraph(trial)
        h2 = corpus_hypergraph(trial)
        table = names_for(len(h1.vertices))
        assert write_hypergraph_json(h1, table) == write_hypergraph_json(h2, table)
        for u, v in itertools.combinations(sorted(h1.vertices), 2):
            assert hyperedge_connectivity(h1, u, v) == hyperedge_connectivity(h2, u, v)
    for trial in range(0, ELEMENT_TRIALS, 17):
        runs = []
        for _ in range(2):
            inst = corpus_element_instance(trial)
            reduced, trace = reduce_to_stable(inst)
            runs.append((dict(reduced.graph.edges), tuple(trace.steps)))
        assert runs[0] == runs[1]


DEGENERATE_CASES = [
    ("deg0", hypergraph([{0, 1}, {1, 2}], extra_vertices=[9])),
    ("deg1-keeps-edge", hypergraph([{9, 0, 1}])),
    ("deg1-drops-singleton", hypergraph([{9, 0}])),
    ("duplicate-pair-through-s", hypergraph([{9, 0}, {9, 0}])),
    ("duplicate-triple-through-s", hypergraph([{9, 0, 1}, {9, 0, 1}])),
    ("singleton-drop-beside-edge", hypergraph([{9, 0}, {0, 1}])),
    ("mixed-degrees", hypergraph([{9, 0}, {9, 0, 1}, {0, 1, 2}, {9, 2}])),
]


@criterion(8, "degenerate shapes pass the main-theorem and stage-invariant checks")
def test_criterion_8_degenerate_suite():
    for name, h in DEGENERATE_CASES:
        res = complete_split_off(h, 9)
        assert res.h_star.degree(9) == 0, name
        assert hypergraph_equal(replay(h, 9, res.log), res.h_star), name
        cur = h
        for op in res.log:
            if isinstance(op, Merge):
                assert cur.members(op.keep) & cur.members(op.absorb) == {9}, name
            cur = apply_op(cur, 9, op)
        pipeline = res.pipeline
        for stage in (pipeline.gadget.instance, rebuilt_g3(pipeline)):
            assert conn_table_elements(stage) == pipeline.table, name
        for u, v in itertools.combinations(sorted(h.vertices - {9}), 2):
            assert oracle_lambda(res.h_star, u, v) == oracle_lambda(h, u, v), name
