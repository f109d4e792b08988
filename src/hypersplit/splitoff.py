"""Complete splitting-off at a hypergraph vertex via element-connectivity reduction.

The pipeline walks five bipartite-instance stages:

  G0  incidence view of the input, every vertex (including s) a terminal;
  G1  s replaced by a clique gadget of non-terminals, one per incident
      hyperedge, each clique vertex wired to its hyperedge node;
  G2  clique edges reduced away (delete when preserving, else contract);
  G3  as many surviving gadget-incident edges deleted as preservation allows;
  G4  each surviving gadget vertex contracted with all its neighbors.

Reading G4 back as a hypergraph gives the split-off result; the gadget
bookkeeping yields the trim/merge log that replays the same result directly
on the input hypergraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from .errors import InternalInvariantError, ReplayError, UnknownVertexError
from .flow import ConnTable, _TreeFlows, conn_table_elements, table_holds
from .hypergraph import (
    Hypergraph,
    Incidence,
    Merge,
    SplitOffOp,
    Trim,
    hypergraph_equal,
    incidence_graph,
    replay,
)
from .multigraph import ElementConnInstance, Multigraph
from .reduction import _maximal_preserving_deletions, _reduce_to_stable

# Per-stage certification adds T-1 flows for the G3 check and T-1 for each
# contracted gadget star in stage 4; beyond this many terminals it defaults
# off, and only the G0 table (T-1 flows), the G1 and G2 checks and the
# end-to-end certificate remain.
CERTIFY_TERMINAL_LIMIT = 64


@dataclass(frozen=True)
class GadgetInstance:
    """Stage-1 instance: the clique gadget replacing s, plus its wiring.

    ``attachments`` pairs each hyperedge incident to s (ascending id) with
    the clique vertex that took over its slot on s.
    """

    instance: ElementConnInstance
    clique: tuple[int, ...]
    attachments: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Stage:
    """One pipeline snapshot; G0 always has its table, later stages only when certifying."""

    name: str
    instance: ElementConnInstance
    table: Optional[ConnTable]


@dataclass(frozen=True)
class StagePipeline:
    """Everything the construction produced, stage by stage.

    ``s2`` holds the gadget vertices surviving the clique reduction;
    ``fa`` maps each still-attached one to the hyperedge ids hanging off it
    after the deletion stage, and ``f0`` lists hyperedges that lost their
    gadget attachment entirely. ``g4_members`` records which original
    hyperedges each final non-terminal node absorbed.
    """

    hypergraph: Hypergraph
    s: int
    incidence: Incidence
    gadget: GadgetInstance
    stages: tuple[Stage, ...]
    s2: tuple[int, ...]
    fa: Mapping[int, tuple[int, ...]]
    f0: tuple[int, ...]
    deleted_edges: tuple[int, ...]
    g4_members: Mapping[int, tuple[int, ...]]
    certified: bool

    def __post_init__(self):
        object.__setattr__(self, "fa", MappingProxyType(dict(self.fa)))
        object.__setattr__(self, "g4_members", MappingProxyType(dict(self.g4_members)))

    def stage(self, name: str) -> Stage:
        for st in self.stages:
            if st.name == name:
                return st
        raise KeyError(name)


@dataclass(frozen=True)
class Certificate:
    """Pairwise connectivity tables before and after, over the kept vertices.

    ``after`` is the table of the result. It is shown equal to ``before``
    by computing only the pairs of a maximum spanning tree of ``before``
    (see ``flow.table_holds``).
    """

    before: ConnTable
    after: ConnTable

    @property
    def pairs_checked(self) -> int:
        return len(self.before)

    @property
    def ok(self) -> bool:
        return self.before == self.after


@dataclass(frozen=True)
class SplitOffResult:
    """Final hypergraph (s isolated), replayable log, and the certificate."""

    h_star: Hypergraph
    log: tuple[SplitOffOp, ...]
    certificate: Certificate
    pipeline: Optional[StagePipeline]


def _build_gadget(h: Hypergraph, s: int, inc: Incidence) -> GadgetInstance:
    g0 = inc.instance
    s_node = inc.vertex_node[s]
    incident = h.incident(s)
    base = max(g0.graph.vertices) + 1 if g0.graph.vertices else 0
    clique = tuple(base + i for i in range(len(incident)))
    next_eid = (max(g0.graph.edges) + 1) if g0.graph.edges else 0

    edges: dict[int, tuple[int, int]] = {}
    gadget_of = dict(zip((inc.edge_node[e] for e in incident), clique))
    for eid, (a, b) in g0.graph.edges.items():
        if s_node in (a, b):
            other = b if a == s_node else a
            edges[eid] = (gadget_of[other], other)
        else:
            edges[eid] = (a, b)
    for i in range(len(clique)):
        for j in range(i + 1, len(clique)):
            edges[next_eid] = (clique[i], clique[j])
            next_eid += 1

    vertices = (g0.graph.vertices - {s_node}) | frozenset(clique)
    instance = ElementConnInstance(Multigraph(vertices, edges), g0.terminals - {s_node})
    attachments = tuple((e, gadget_of[inc.edge_node[e]]) for e in incident)
    return GadgetInstance(instance=instance, clique=clique, attachments=attachments)


def build_gadget(h: Hypergraph, s: int) -> GadgetInstance:
    """Replace s by a clique of non-terminals, one per hyperedge incident to s.

    Each hyperedge node that was adjacent to s gets exactly one clique
    vertex instead, so the gadget simulates a vertex capacity of deg(s).
    """
    if s not in h.vertices:
        raise UnknownVertexError(f"unknown vertex {s}")
    return _build_gadget(h, s, incidence_graph(h))


def _checked(inst: ElementConnInstance, reference: ConnTable, what: str) -> _TreeFlows:
    """The tree flows of ``reference`` on ``inst``; an internal error if they differ.

    ``inst`` descends from G0 by steps that never raise connectivity, so the
    tree pairs of ``reference`` decide the whole table.
    """
    flows = _TreeFlows(inst, reference)
    if not flows.holds:
        raise InternalInvariantError(f"{what} changed the terminal connectivity table")
    return flows


def run_pipeline(h: Hypergraph, s: int, *, certify: Optional[bool] = None) -> StagePipeline:
    """Run the five-stage construction at s and collect all bookkeeping.

    The terminal table of G0 costs T-1 flows (``conn_table_elements``). G1
    and G2 are always checked against it: those checks are the tree flows
    the next stage's reductions start from. With ``certify`` on (default
    for at most CERTIFY_TERMINAL_LIMIT terminals), G3, the instance after
    each gadget vertex's star is contracted, and G4 are checked too, T-1
    flows each. Any drift is reported as an internal error.
    """
    if s not in h.vertices:
        raise UnknownVertexError(f"unknown vertex {s}")
    if certify is None:
        certify = len(h.vertices) - 1 <= CERTIFY_TERMINAL_LIMIT

    inc = incidence_graph(h)
    g0 = inc.instance
    s_node = inc.vertex_node[s]
    gadget = _build_gadget(h, s, inc)
    g1 = gadget.instance

    # The table every stage must keep is the G0 table without s.
    table0 = conn_table_elements(g0)
    reference = table0.restrict(g1.terminals)
    flows1 = _checked(g1, reference, "replacing s with the clique gadget")

    g2, trace, flows2 = _reduce_to_stable(g1, flows1, set(gadget.clique))
    s2 = tuple(v for v in gadget.clique if v in g2.graph.vertices)
    # Unless a deletion came last, flows2 is G1's or the last contraction's build.
    if trace.steps and trace.steps[-1].action == "deleted":
        flows2 = _checked(g2, reference, "reducing the clique edges")

    # Every hyperedge node keeps exactly one gadget attachment through stage 2:
    # clique reductions never touch the attachment edges themselves.
    attach_nodes = {inc.edge_node[e]: e for e, _ in gadget.attachments}
    s2_set = frozenset(s2)
    for node in attach_nodes:
        if sum(1 for nb in g2.graph.neighbors(node) if nb in s2_set) != 1:
            raise InternalInvariantError(
                f"hyperedge node {node} is not attached to exactly one surviving gadget vertex"
            )

    candidates = [e for e, (a, b) in g2.graph.edges.items() if a in s2_set or b in s2_set]
    g3, deleted = _maximal_preserving_deletions(g2, candidates, flows2)
    if certify and deleted:
        # A fresh build, so the flows kept through the deletions are re-checked.
        _checked(g3, reference, "deleting gadget-incident edges")

    fa: dict[int, tuple[int, ...]] = {}
    f0: list[int] = []
    for node, eid in sorted(attach_nodes.items(), key=lambda kv: kv[1]):
        holders = [nb for nb in g3.graph.neighbors(node) if nb in s2_set]
        if len(holders) > 1:
            raise InternalInvariantError(f"hyperedge node {node} attached to several gadget vertices")
        if holders:
            fa.setdefault(holders[0], ())
            fa[holders[0]] = fa[holders[0]] + (eid,)
        else:
            f0.append(eid)

    # A gadget vertex stripped of every edge cannot be contracted; drop it
    # now (its hyperedges are exactly the f0 ones).
    isolated = [a for a in s2 if g3.graph.degree(a) == 0]
    graph4 = g3.graph.without_vertices(isolated)
    members: dict[int, tuple[int, ...]] = {
        inc.edge_node[e]: (e,) for e in h.edge_ids()
    }
    for a in sorted(fa):
        star = sorted(g3.graph.incident(a), key=lambda e: (g3.graph.endpoints(e), e))
        for fid in star:
            graph4, kept, dropped = graph4.contracted(fid)
            merged = members.pop(dropped, ()) + members.pop(kept, ())
            members[kept] = tuple(sorted(merged))
        if certify:
            # Contraction never raises a value, so the state after the whole
            # star holding the table shows that every state before it did.
            what = f"contracting gadget vertex {a} with its neighbors"
            _checked(g3.with_graph(graph4), reference, what)

    g4 = g3.with_graph(graph4)
    for a, b in g4.graph.edges.values():
        if a not in g4.terminals and b not in g4.terminals:
            raise InternalInvariantError("final stage still has an edge between non-terminals")
    if certify and isolated and not fa:  # else the last star's check was on g4, or g4 is g3
        _checked(g4, reference, "the full pipeline")

    later = reference if certify else None
    stages = (
        Stage("G0", g0, table0),
        Stage("G1", g1, later),
        Stage("G2", g2, later),
        Stage("G3", g3, later),
        Stage("G4", g4, later),
    )
    live_members = {
        node: ids for node, ids in members.items() if node in graph4.vertices
    }
    return StagePipeline(
        hypergraph=h,
        s=s,
        incidence=inc,
        gadget=gadget,
        stages=stages,
        s2=s2,
        fa={a: tuple(sorted(ids)) for a, ids in fa.items()},
        f0=tuple(sorted(f0)),
        deleted_edges=deleted,
        g4_members=live_members,
        certified=certify,
    )


def extract_h_star(p: StagePipeline) -> Hypergraph:
    """Read the final stage back as a hypergraph on the original vertex set.

    Each non-terminal node becomes one hyperedge over its adjacent vertices;
    singleton neighbor sets are dropped (they cross no cut), and s stays in
    the vertex set isolated. A merged node inherits the smallest id among
    the hyperedges it absorbed.
    """
    g4 = p.stage("G4").instance
    hyperedges: dict[int, frozenset[int]] = {}
    for node in sorted(g4.graph.vertices - g4.terminals):
        neighbor_nodes = g4.graph.neighbors(node)
        if neighbor_nodes - g4.terminals:
            raise InternalInvariantError("final stage still has an edge between non-terminals")
        verts = frozenset(p.incidence.node_vertex[t] for t in neighbor_nodes)
        if len(verts) < 2:
            continue
        hyperedges[min(p.g4_members[node])] = verts
    return Hypergraph(p.hypergraph.vertices, hyperedges)


def extract_op_log(p: StagePipeline, h: Hypergraph, s: int) -> tuple[SplitOffOp, ...]:
    """Turn the pipeline bookkeeping into a trim/merge log replayable on h.

    Hyperedges that lost their gadget attachment are trimmed outright. For
    each surviving gadget vertex, its attached hyperedges are merged into
    the one with the smallest id (each merge pair meets exactly in s), and
    the accumulated hyperedge is trimmed last.
    """
    if (
        s != p.s
        or h.vertices != p.hypergraph.vertices
        or dict(h.hyperedges) != dict(p.hypergraph.hyperedges)
    ):
        raise ValueError("pipeline does not belong to this hypergraph and vertex")
    ops: list[SplitOffOp] = [Trim(e) for e in p.f0]
    for a in sorted(p.fa):
        chain = p.fa[a]
        keep = chain[0]
        ops.extend(Merge(keep, absorb) for absorb in chain[1:])
        ops.append(Trim(keep))
    return tuple(ops)


def complete_split_off(
    h: Hypergraph, s: int, *, certify: Optional[bool] = None
) -> SplitOffResult:
    """Split off every hyperedge at s while preserving all other connectivities.

    Runs the pipeline, extracts the result and its operation log, replays
    the log against the input, and certifies that the pairwise connectivity
    table over the remaining vertices is unchanged. Any failure of those
    checks is an internal error: the theorems say they cannot fail.
    """
    pipeline = run_pipeline(h, s, certify=certify)
    h_star = extract_h_star(pipeline)
    log = extract_op_log(pipeline, h, s)

    if h_star.degree(s) != 0:
        raise InternalInvariantError("split vertex is not isolated in the result")
    try:
        replayed = replay(h, s, log)
    except ReplayError as exc:
        raise InternalInvariantError(f"extracted log does not replay: {exc}") from exc
    if not hypergraph_equal(replayed, h_star):
        raise InternalInvariantError("replaying the log does not reproduce the result")

    # h_star is h after the log's trims and merges (the replay above shows
    # it), and these never raise connectivity, so the tree pairs of the
    # table of h decide whether h_star has all of it. That table is the G0
    # table, keyed by incidence node.
    full = pipeline.stage("G0").table.remapped(pipeline.incidence.node_vertex)
    before = full.restrict(h.vertices - {s})
    inc_star = incidence_graph(h_star)
    if not table_holds(inc_star.instance, before.remapped(inc_star.vertex_node)):
        raise InternalInvariantError("connectivity table changed across the split-off")
    return SplitOffResult(
        h_star=h_star,
        log=log,
        certificate=Certificate(before=before, after=before),
        pipeline=pipeline if pipeline.certified else None,
    )
