"""Complete splitting-off at a hypergraph vertex via element-connectivity reduction.

The pipeline walks four bipartite-instance stages:

  G0  incidence view of the input, every vertex (including s) a terminal;
  G1  s replaced by a clique gadget of non-terminals, one per incident
      hyperedge, each clique vertex wired to its hyperedge node;
  G2  clique edges reduced away (delete when preserving, else contract);
  G3  as many surviving gadget-incident edges deleted as preservation allows.

After G3 each hyperedge of s either lost its gadget attachment or hangs off
exactly one surviving gadget vertex. That bookkeeping is the trim/merge
log, and the split-off result is the log replayed on the input hypergraph.
The result's certificate is the G0 table without s; ``flow._checked`` checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .errors import InternalInvariantError, ReplayError, UnknownVertexError
from .flow import ConnTable, _checked, _incidence_arcs, _split_arcs, conn_table_elements
from .hypergraph import (
    Hypergraph,
    Incidence,
    Merge,
    SplitOffOp,
    Trim,
    incidence_graph,
    replay,
)
from .multigraph import ElementConnInstance, Multigraph
from .reduction import _maximal_preserving_deletions, _reduce_to_stable


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
    """One pipeline snapshot."""

    name: str
    instance: ElementConnInstance


@dataclass(frozen=True)
class StagePipeline:
    """Everything the construction produced, stage by stage.

    ``table`` is the terminal table of G0; every later stage keeps it
    restricted to G1's terminals. ``s2`` holds the gadget vertices
    surviving the clique reduction; ``fa`` maps each still-attached one to
    the hyperedge ids hanging off it after the deletion stage, and ``f0``
    lists hyperedges that lost their gadget attachment entirely.
    """

    hypergraph: Hypergraph
    s: int
    incidence: Incidence
    gadget: GadgetInstance
    table: ConnTable
    stages: tuple[Stage, ...]
    s2: tuple[int, ...]
    fa: Mapping[int, tuple[int, ...]]
    f0: tuple[int, ...]
    deleted_edges: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "fa", MappingProxyType(dict(self.fa)))

    def stage(self, name: str) -> Stage:
        for st in self.stages:
            if st.name == name:
                return st
        raise KeyError(name)


@dataclass(frozen=True)
class SplitOffResult:
    """Final hypergraph (s isolated), replayable log, certificate and pipeline;
    the certificate is the input's table over V - s, checked to hold on h_star."""

    h_star: Hypergraph
    log: tuple[SplitOffOp, ...]
    certificate: ConnTable
    pipeline: StagePipeline


def _build_gadget(h: Hypergraph, s: int, inc: Incidence) -> GadgetInstance:
    """Replace s by a clique of non-terminals, one per hyperedge incident to s.

    Each hyperedge node that was adjacent to s gets exactly one clique
    vertex instead, so the gadget simulates a vertex capacity of deg(s).
    """
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


def run_pipeline(h: Hypergraph, s: int, *, certify: bool = True) -> StagePipeline:
    """Run the construction G0..G3 at s and collect all bookkeeping.

    The terminal table of G0 costs T-1 flows (``conn_table_elements``). G1
    and G2 are always checked against it, G2 by fresh flows whenever stage 2
    changed anything: those checks are the tree flows the next stage's
    reductions start from. With ``certify`` on, G3 is checked too, by T-1
    fresh flows rather than the ones its deletions kept. Any drift is
    reported as an internal error.
    """
    if s not in h.vertices:
        raise UnknownVertexError(f"unknown vertex {s}")

    inc = incidence_graph(h)
    g0 = inc.instance
    gadget = _build_gadget(h, s, inc)
    g1 = gadget.instance

    # The table every stage must keep is the G0 table without s.
    table0 = conn_table_elements(g0)
    reference = table0.restrict(g1.terminals)
    flows1 = _checked(_split_arcs(g1), reference, "replacing s with the clique gadget")

    g2, trace = _reduce_to_stable(g1, flows1, set(gadget.clique))
    s2 = tuple(v for v in gadget.clique if v in g2.graph.vertices)
    # Flows kept through the reductions are re-checked by a fresh build, which
    # stage 3 starts from.
    flows2 = _checked(_split_arcs(g2), reference, "reducing the clique edges") if trace.steps else flows1

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
        _checked(_split_arcs(g3), reference, "deleting gadget-incident edges")

    fa: dict[int, tuple[int, ...]] = {}
    f0: list[int] = []
    for node, eid in sorted(attach_nodes.items(), key=lambda kv: kv[1]):
        holders = [nb for nb in g3.graph.neighbors(node) if nb in s2_set]
        if len(holders) > 1:
            raise InternalInvariantError(f"hyperedge node {node} attached to several gadget vertices")
        if holders:  # hyperedges come in ascending id order
            fa[holders[0]] = fa.get(holders[0], ()) + (eid,)
        else:
            f0.append(eid)

    stages = (Stage("G0", g0), Stage("G1", g1), Stage("G2", g2), Stage("G3", g3))
    return StagePipeline(
        hypergraph=h,
        s=s,
        incidence=inc,
        gadget=gadget,
        table=table0,
        stages=stages,
        s2=s2,
        fa=fa,
        f0=tuple(f0),
        deleted_edges=deleted,
    )


def extract_op_log(p: StagePipeline) -> tuple[SplitOffOp, ...]:
    """Turn the pipeline bookkeeping into a trim/merge log replayable on its input.

    Hyperedges that lost their gadget attachment are trimmed outright. For
    each surviving gadget vertex, its attached hyperedges are merged into
    the one with the smallest id (each merge pair meets exactly in s), and
    the accumulated hyperedge is trimmed last.
    """
    ops: list[SplitOffOp] = [Trim(e) for e in p.f0]
    for a in sorted(p.fa):
        chain = p.fa[a]
        keep = chain[0]
        ops.extend(Merge(keep, absorb) for absorb in chain[1:])
        ops.append(Trim(keep))
    return tuple(ops)


def complete_split_off(h: Hypergraph, s: int, *, certify: bool = True) -> SplitOffResult:
    """Split off every hyperedge at s while preserving all other connectivities.

    Runs the pipeline (``certify`` gates only its fresh G3 check), replays
    the pipeline's trim/merge log on the input to get the result, and
    certifies that s ends isolated and that the pairwise connectivity table
    over the remaining vertices is unchanged. Any failure of those checks is
    an internal error: the theorems say they cannot fail.
    """
    pipeline = run_pipeline(h, s, certify=certify)
    log = extract_op_log(pipeline)
    try:
        h_star = replay(h, s, log)
    except ReplayError as exc:
        raise InternalInvariantError(f"extracted log does not replay: {exc}") from exc
    if h_star.degree(s) != 0:
        raise InternalInvariantError("split vertex is not isolated in the result")

    # Trims and merges never raise connectivity, so the tree pairs of the G0
    # table (re-keyed from incidence nodes to vertices) decide all of it.
    full = pipeline.table.remapped(pipeline.incidence.node_vertex)
    table = full.restrict(h.vertices - {s})
    _checked(_incidence_arcs(h_star), table, "splitting off s")
    return SplitOffResult(h_star=h_star, log=log, certificate=table, pipeline=pipeline)
