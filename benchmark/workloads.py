"""Seeded corpora, CLI argument lists and independent output checks.

Each workload turns a seed into an ordered list of operations. An operation
is one ``hypersplit`` command line on files written here, plus what its
check needs. Generators are the package's SplitMix64 ones, so a seed pins the
corpus down exactly. Every check is independent of the flow engine it
checks: brute-force cut enumeration (``oracle_lambda``), a networkx max-flow
on a flow network built here, and a trim/merge replay written here.

The cost of one operation depends mostly on its size, so sizes are
stratified rather than drawn independently: they cycle through their range
or come one per slice of it, in an order whose every prefix holds an even
mix, and a run's figures depend on the seed far less than on the code.

A split's cost also varies widely between draws of one size, so each split
slot draws ``SPLIT_DRAWS`` instances, ranks them by a cost proxy and keeps
the one in the middle of the slot's ``SPLIT_RANKS``-quantile. Over every
``SPLIT_RANKS`` slots of one size each quantile is kept once, so the corpus
follows the generator's distribution, quantile by quantile, without most of
its draw-to-draw noise.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path


@dataclass
class Op:
    """One CLI invocation: its argv, the files it writes, and check inputs.

    An operation with an ``expected_failure`` exercises a known defect: it
    runs once per run, untimed, after the timed loop, and may raise that
    exception type, as it does with the sources this benchmark was written
    against. Any other failure fails the correctness check.
    """

    key: int
    argv: list[str]
    outputs: tuple[Path, ...]
    data: dict = field(default_factory=dict)
    expected_failure: str | None = None


def _oracle():
    return importlib.import_module("hypersplit.oracle")


def _names(n: int) -> list[str]:
    """Zero-padded, so the order of names is the order of generator ids."""
    width = len(str(n - 1))
    return [f"v{i:0{width}d}" for i in range(n)]


def hypergraph_text(names: list[str], edges: list[list[str]]) -> str:
    return json.dumps({"vertices": names, "hyperedges": edges})


@dataclass
class Corpus:
    """A workload's operations and the input files they read, not yet written."""

    ops: list[Op]
    files: dict[Path, str]

    def write(self) -> None:
        for path, text in self.files.items():
            path.write_text(text, encoding="utf-8")


def _hyperedge_lists(h, names: list[str]) -> list[list[str]]:
    return [[names[x] for x in sorted(h.hyperedges[e])] for e in sorted(h.hyperedges)]


# Fixed low-discrepancy orders over strata: even short prefixes spread over
# the whole range, so a run that stops mid-pass still sees an even mix.
_BIT_REVERSED_8 = (0, 4, 2, 6, 1, 5, 3, 7)
_BIT_REVERSED_16 = (0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15)
_INTERLEAVED_10 = (0, 5, 2, 7, 4, 9, 1, 6, 3, 8)


def _stratified(rng, low: int, high: int, stratum: int, strata: int) -> int:
    """A draw from the ``stratum``-th of ``strata`` equal slices of [low, high]."""
    width = high - low + 1
    return low + (stratum * width + rng.below(width)) // strata


# ---------------------------------------------------------------- split

SPLIT_RANKS = 8
SPLIT_DRAWS = 32
SPLIT_CORPUS = 5 * SPLIT_RANKS  # every n at every quantile


def _split_candidate(oracle, rng, n: int):
    """One random_hypergraph draw with its edges as name lists and its split vertex."""
    m = 2 * n + rng.below(n)
    h = oracle.random_hypergraph(oracle.GenParams(n, m, 4, seed=rng.next_u64()))
    names = _names(n)
    edges = _hyperedge_lists(h, names)
    degree = Counter(v for e in edges for v in e)
    s = min(names, key=lambda v: (-degree[v], v))
    return names, edges, s, degree[s]


def build_split(seed: int, work: Path) -> Corpus:
    """random_hypergraph with n cycling through 6..10, m in [2n, 3n), r = 4.

    s is the vertex of maximum degree, ties to the smallest name. The cost
    proxy is (deg(s), m): the clique gadget has deg(s) vertices, and its
    edges are what the deletion tests walk through. n cycles with period 5
    and the octile, in bit-reversed order, with period 8, so the 40 slots
    hold every (n, octile) pair once and every prefix of the corpus has
    about the same mix.
    """
    oracle = _oracle()
    rng = oracle.SplitMix64(seed)
    ops, files = [], {}
    for i in range(SPLIT_CORPUS):
        n = 6 + i % 5
        draws = [_split_candidate(oracle, rng, n) for _ in range(SPLIT_DRAWS)]
        rank = _BIT_REVERSED_8[i % SPLIT_RANKS]
        pick = (2 * rank + 1) * SPLIT_DRAWS // (2 * SPLIT_RANKS)
        names, edges, s, _ = sorted(draws, key=lambda c: (c[3], len(c[1])))[pick]
        src, out, log = (work / f"split{i}{suffix}.json" for suffix in ("", ".out", ".log"))
        files[src] = hypergraph_text(names, edges)
        argv = ["split", str(src), "-s", s, "-o", str(out), "--log-out", str(log), "--json"]
        ops.append(Op(i, argv, (out, log), {"names": names, "edges": edges, "s": s}))
    return Corpus(ops, files)


def _replay(edges: list[list[str]], s: str, log: dict) -> list[frozenset]:
    """Apply a trim/merge log by its definition; ids are input positions."""
    if log["s"] != s or [sorted(e) for e in log["hyperedges"]] != [sorted(e) for e in edges]:
        raise ValueError("log header does not match the input")
    cur = {i: frozenset(e) for i, e in enumerate(edges)}
    for entry in log["ops"]:
        if entry["op"] == "trim":
            members = cur.pop(entry["edge"])
            if s not in members:
                raise ValueError(f"trim of hyperedge {entry['edge']} without s")
            if len(members) > 2:
                cur[entry["edge"]] = members - {s}
        elif entry["op"] == "merge":
            keep, absorb = cur[entry["keep"]], cur.pop(entry["absorb"])
            if keep & absorb != {s}:
                raise ValueError(f"merge {entry} does not meet exactly in s")
            cur[entry["keep"]] = keep | absorb
        else:
            raise ValueError(f"unknown operation {entry!r}")
    return list(cur.values())


def _lambda_all(names: list[str], edges, pairs) -> dict:
    oracle = _oracle()
    hypergraph = importlib.import_module("hypersplit.hypergraph")
    index = {v: i for i, v in enumerate(names)}
    h = hypergraph.Hypergraph(
        frozenset(range(len(names))),
        {i: frozenset(index[v] for v in e) for i, e in enumerate(edges)},
    )
    return {(a, b): oracle.oracle_lambda(h, index[a], index[b]) for a, b in pairs}


def check_split(op: Op, stdout: str, cache: dict) -> list[str]:
    problems = []
    report = json.loads(stdout)
    if report.get("certificate") != "pass":
        problems.append(f"certificate is {report.get('certificate')!r}")
    out_path, log_path = op.outputs
    result = json.loads(out_path.read_text(encoding="utf-8"))
    log = json.loads(log_path.read_text(encoding="utf-8"))
    names, edges, s = op.data["names"], op.data["edges"], op.data["s"]
    out_edges = [frozenset(e) for e in result["hyperedges"]]
    if sorted(result["vertices"]) != sorted(names):
        problems.append("output vertex set differs from the input")
    if any(s in e for e in out_edges):
        problems.append(f"{s} is not isolated in the output")
    try:
        if Counter(_replay(edges, s, log)) != Counter(out_edges):
            problems.append("replaying the log does not give the written output")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"log does not replay: {exc}")
    pairs = list(combinations(sorted(v for v in names if v != s), 2))
    before = _lambda_all(names, edges, pairs)
    after = _lambda_all(names, out_edges, pairs)
    changed = [p for p in pairs if before[p] != after[p]]
    if changed:
        problems.append(f"lambda changed on {len(changed)} pairs, first {changed[0]}")
    return problems


# ---------------------------------------------------------------- conn_large

CONN_FILES = 16
CONN_SLOTS = 100  # every tenth slot is a path query
CONN_PATHS = CONN_SLOTS // 10


def build_conn_large(seed: int, work: Path) -> Corpus:
    """Single-pair conn on random_hypergraph with n in [500, 1000], m = 2n, r = 4.

    File j has n from the j-th of 16 equal slices of [500, 1000]; queries
    visit the files in bit-reversed order and pick their pair at random.
    Every tenth slot instead queries the two ends of a path hypergraph; the
    ten paths take their lengths from the ten slices of [100, 1000], in an
    interleaved order. Most path queries raise RecursionError, so they run
    once per run, untimed, after the timed loop, which cycles through the 90
    random-pair queries only.
    """
    oracle = _oracle()
    rng = oracle.SplitMix64(seed)
    files, texts = [], {}
    for j in range(CONN_FILES):
        n = _stratified(rng, 500, 1000, j, CONN_FILES)
        h = oracle.random_hypergraph(oracle.GenParams(n, 2 * n, 4, seed=rng.next_u64()))
        path = work / f"conn{j}.json"
        names = _names(n)
        texts[path] = hypergraph_text(names, _hyperedge_lists(h, names))
        files.append((path, names))
    paths = []
    for k in range(CONN_PATHS):
        length = _stratified(rng, 100, 1000, _INTERLEAVED_10[k], CONN_PATHS)
        path = work / f"path{k}.json"
        names = _names(length)
        texts[path] = hypergraph_text(names, [[a, b] for a, b in zip(names, names[1:])])
        paths.append((path, names))
    ops = []
    queries = 0
    for slot in range(CONN_SLOTS):
        if slot % 10 == 9:
            path, names = paths[slot // 10]
            u, v = names[0], names[-1]
            data = {"file": path, "path_length": len(names)}
        else:
            path, names = files[_BIT_REVERSED_16[queries % CONN_FILES]]
            queries += 1
            a, b = rng.sample(len(names), 2)
            u, v = names[a], names[b]
            data = {"file": path}
        data.update(u=u, v=v)
        allowed = "RecursionError" if "path_length" in data else None
        ops.append(Op(slot, ["conn", str(path), "-u", u, "-v", v], (), data, allowed))
    return Corpus(ops, texts)


def _lambda_network(path: Path):
    """Hyperedge cut network: each hyperedge is a unit-capacity arc e_in -> e_out.

    Returns the network and its residual network, reused across queries.
    """
    import networkx as nx
    from networkx.algorithms.flow import build_residual_network

    obj = json.loads(path.read_text(encoding="utf-8"))
    g = nx.DiGraph()
    g.add_nodes_from(obj["vertices"])
    for i, members in enumerate(obj["hyperedges"]):
        g.add_edge(("e", i, 0), ("e", i, 1), capacity=1)
        for v in members:
            g.add_edge(v, ("e", i, 0))
            g.add_edge(("e", i, 1), v)
    return g, build_residual_network(g, "capacity")


def check_conn_large(op: Op, stdout: str, cache: dict) -> list[str]:
    from networkx.algorithms.flow import edmonds_karp

    u, v = op.data["u"], op.data["v"]
    a, b = sorted((u, v))
    prefix = f"lambda({a}, {b}) = "
    line = stdout.strip()
    if not line.startswith(prefix):
        return [f"unexpected report {line!r}"]
    value = int(line[len(prefix):])
    if "path_length" in op.data:
        expected = 1
    else:
        path = op.data["file"]
        if path not in cache:
            cache[path] = _lambda_network(path)
        g, residual = cache[path]
        expected = edmonds_karp(g, u, v, residual=residual).graph["flow_value"]
    return [] if value == expected else [f"lambda({a}, {b}) = {value}, networkx gives {expected}"]


# ---------------------------------------------------------------- reduce

REDUCE_CORPUS = 80  # sixteen cycles of the terminal count


def build_reduce(seed: int, work: Path) -> Corpus:
    """random_element_instance with n in [30, 40], m in [2n, 3n), 2..6 terminals.

    The terminal count cycles through 2..6. The 16 instances of one terminal
    count take n from the 16 slices of [30, 40] in bit-reversed order and
    m - 2n from the 16 slices of [0, n) in another order, so both sizes are
    spread evenly at every terminal count. The terminals themselves are
    drawn by SplitMix64 from the workload seed.
    """
    oracle = _oracle()
    rng = oracle.SplitMix64(seed)
    ops, files = [], {}
    for i in range(REDUCE_CORPUS):
        cycle = i // 5
        n = _stratified(rng, 30, 40, _BIT_REVERSED_16[cycle], 16)
        m = 2 * n + _stratified(rng, 0, n - 1, 7 * cycle % 16, 16)
        inst = oracle.random_element_instance(oracle.GenParams(n, m, 2, seed=rng.next_u64()))
        names = _names(n)
        terminals = sorted(names[x] for x in rng.sample(n, 2 + i % 5))
        edges = [[names[a], names[b]] for a, b in (inst.graph.edges[e] for e in sorted(inst.graph.edges))]
        src, out, trace = (work / f"reduce{i}{suffix}.json" for suffix in ("", ".out", ".trace"))
        files[src] = json.dumps({"vertices": names, "edges": edges, "terminals": terminals})
        argv = ["reduce", str(src), "-o", str(out), "--trace-out", str(trace)]
        ops.append(Op(i, argv, (out, trace), {"names": names, "edges": edges, "terminals": terminals}))
    return Corpus(ops, files)


def _kappa_all(names, edges, terminals) -> dict:
    """Element connectivity by networkx: unit non-terminals and unit edge nodes."""
    import networkx as nx
    from networkx.algorithms.flow import edmonds_karp

    terms = set(terminals)
    g = nx.DiGraph()
    for v in names:
        if v in terms:
            g.add_edge((v, 0), (v, 1))
        else:
            g.add_edge((v, 0), (v, 1), capacity=1)
    for i, (a, b) in enumerate(edges):
        g.add_edge(("e", i, 0), ("e", i, 1), capacity=1)
        for x in (a, b):
            g.add_edge((x, 1), ("e", i, 0))
            g.add_edge(("e", i, 1), (x, 0))
    return {
        (a, b): nx.maximum_flow_value(g, (a, 1), (b, 0), flow_func=edmonds_karp)
        for a, b in combinations(sorted(terminals), 2)
    }


def check_reduce(op: Op, stdout: str, cache: dict) -> list[str]:
    problems = []
    if not stdout.startswith("reduced: "):
        problems.append(f"unexpected report {stdout.strip()!r}")
    result = json.loads(op.outputs[0].read_text(encoding="utf-8"))
    terminals = op.data["terminals"]
    if sorted(result["terminals"]) != terminals:
        problems.append("terminal set changed")
    terms = set(terminals)
    if any(a not in terms and b not in terms for a, b in result["edges"]):
        problems.append("an edge between two non-terminals survived")
    before = _kappa_all(op.data["names"], op.data["edges"], terminals)
    after = _kappa_all(result["vertices"], result["edges"], terminals)
    changed = [p for p in before if before[p] != after[p]]
    if changed:
        problems.append(f"kappa changed on {len(changed)} pairs, first {changed[0]}")
    return problems
