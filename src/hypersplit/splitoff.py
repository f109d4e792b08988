"""Complete splitting-off at a hypergraph vertex via element-connectivity reduction.

The pipeline walks a chain of four bipartite instances:

  G0  incidence view of the input, every vertex (including s) a terminal;
  G1  s replaced by a clique gadget of non-terminals, one per incident
      hyperedge, each clique vertex wired to its hyperedge node;
  G2  clique edges reduced away (delete when preserving, else contract);
  G3  as many surviving gadget-incident edges deleted as preservation allows.

Only G0 and G1 are built as instances, and only G1 is kept, as the
gadget. G2 and G3 live in the reductions' private edges and in G1's kept
tree flows. After G3 each hyperedge of s either lost its gadget attachment, its
G0 edge to s, or hangs off the surviving gadget vertex at that edge's end.
Each is followed by the edge's id, so no graph is scanned to find this
bookkeeping: it is the trim/merge log, and the result is the log replayed
on the input.

Vertex v of the input is node v of G0, so G0's table without s is keyed by
vertices, and it is the one table both checks compare with, through
``flow._checked``: G1's, by the tree flows that both reduction stages then
keep, and the end-to-end check of the result, on Lawler's network, whose
certificate it is. The reductions, trims and merges never raise a pair's
value, so a G2 or G3 below the table makes the end-to-end check fail too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count
from types import MappingProxyType
from typing import Mapping

from .errors import InternalInvariantError, ReplayError, UnknownVertexError
from .flow import ConnTable, _TreeFlows, _checked, _hyperedge_network, _split_arcs, conn_table_elements
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
class StagePipeline:
    """The gadget and the bookkeeping of the construction; no other stage is kept.

    ``table`` is the terminal table of G0 without s, keyed by vertices, which
    every later stage keeps. ``s2`` holds the gadget vertices
    surviving the clique reduction; ``fa`` maps each still-attached one to
    the hyperedge ids hanging off it after the deletion stage, and ``f0``
    lists hyperedges that lost their gadget attachment entirely.
    """

    hypergraph: Hypergraph
    s: int
    gadget: GadgetInstance
    table: ConnTable
    s2: tuple[int, ...]
    fa: Mapping[int, tuple[int, ...]]
    f0: tuple[int, ...]
    deleted_edges: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "fa", MappingProxyType(dict(self.fa)))


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
    incident = h.incident(s)
    base = max(g0.graph.vertices) + 1
    clique = tuple(range(base, base + len(incident)))
    gadget_of = dict(zip((inc.edge_node[e] for e in incident), clique))
    # Every G0 edge runs from a vertex to a hyperedge node, so s can only be its first end.
    edges = {eid: (gadget_of[b], b) if a == s else (a, b) for eid, (a, b) in g0.graph.edges.items()}
    edges.update(zip(count(len(edges)), combinations(clique, 2)))  # G0's edge ids are 0..m-1

    vertices = (g0.graph.vertices - {s}) | frozenset(clique)
    instance = ElementConnInstance(Multigraph(vertices, edges), g0.terminals - {s})
    attachments = tuple((e, gadget_of[inc.edge_node[e]]) for e in incident)
    return GadgetInstance(instance=instance, clique=clique, attachments=attachments)


def run_pipeline(h: Hypergraph, s: int) -> StagePipeline:
    """Run the construction G0..G3 at s and collect its bookkeeping.

    The terminal table of G0 costs T-1 flows (``conn_table_elements``). G1
    is checked against it, by the tree flows that stage 2's reductions and
    stage 3's deletions keep and update in place. A G1 that drifts is
    reported as an internal error; G2 and G3 are proved by the end-to-end
    check of ``complete_split_off``. G2 and G3 are never built as
    instances: stage 3 and the bookkeeping read stage 2's edges.
    """
    if s not in h.vertices:
        raise UnknownVertexError(f"unknown vertex {s}")

    inc = incidence_graph(h)
    g0 = inc.instance
    gadget = _build_gadget(h, s, inc)
    g1 = gadget.instance
    # (hyperedge, id of its G0 edge to s), which the gadget keeps as its attachment
    to_s = {b: eid for eid, (a, b) in g0.graph.edges.items() if a == s}
    attached = [(e, to_s[inc.edge_node[e]]) for e, _ in gadget.attachments]

    # The table every stage must keep is the G0 table without s.
    table = conn_table_elements(g0).restrict(g1.terminals)
    network = _split_arcs(g1)
    flows = _TreeFlows(network, _checked(network, table, "replacing s with the clique gadget"))

    edges, survivors, _ = _reduce_to_stable(g1, flows, set(gadget.clique))  # no step is output
    s2 = tuple(v for v in gadget.clique if v in survivors)

    # Stage 2 reduces clique edges only: each attachment stays, its gadget end
    # moved to the vertex it was contracted into. They are stage 3's candidates.
    for e, eid in attached:
        if eid not in edges:
            raise InternalInvariantError(
                f"hyperedge node {inc.edge_node[e]} is not attached to exactly one surviving gadget vertex"
            )
    deleted = _maximal_preserving_deletions(edges, [eid for _, eid in attached], flows)

    gone = frozenset(deleted)
    f0 = tuple(e for e, eid in attached if eid in gone)
    fa: dict[int, tuple[int, ...]] = {}
    for e, eid in attached:  # ascending hyperedge ids
        if eid not in gone:  # held by its larger end: clique ids exceed every G0 node
            holder = edges[eid][1]
            fa[holder] = fa.get(holder, ()) + (e,)
    return StagePipeline(
        hypergraph=h,
        s=s,
        gadget=gadget,
        table=table,
        s2=s2,
        fa=fa,
        f0=f0,
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


def complete_split_off(h: Hypergraph, s: int) -> SplitOffResult:
    """Split off every hyperedge at s while preserving all other connectivities.

    Runs the pipeline, replays its trim/merge log on the input to get the
    result, and certifies that s ends isolated and that the pipeline's
    table over the remaining vertices is unchanged. That end-to-end check
    also proves the stages after G1. Any failure of those checks is an
    internal error: the theorems say they cannot fail.
    """
    pipeline = run_pipeline(h, s)
    log = extract_op_log(pipeline)
    try:
        h_star = replay(h, s, log)
    except ReplayError as exc:
        raise InternalInvariantError(f"extracted log does not replay: {exc}") from exc
    if h_star.degree(s) != 0:
        raise InternalInvariantError("split vertex is not isolated in the result")

    # Trims and merges never raise connectivity, so the table's tree pairs decide all of it.
    _checked(_hyperedge_network(h_star), pipeline.table, "splitting off s")
    return SplitOffResult(h_star=h_star, log=log, certificate=pipeline.table, pipeline=pipeline)
