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
Each is followed by the edge's id, which the gadget records as it rewires
s's edges, so no graph is scanned to find this bookkeeping: it is the
trim/merge log, and the result is the log replayed on the input.

Vertex v of the input is node v of G0, so G0's table without s is keyed by
vertices, and it is the one table both checks compare with: G1's, through
``flow._checked``, by the tree flows that both reduction stages then keep,
and the end-to-end check of the result, on Lawler's network, whose
certificate it is. The reductions, trims and merges never raise a pair's
value, so a G2 or G3 below the table makes the end-to-end check fail too.

After G3 the pipeline contracts each surviving attachment edge inside the
kept flows, into its hyperedge node, the smaller end. A gadget vertex then
ends in the node of the smallest hyperedge it holds, the one its merges
keep, and the flows run on the incidence graph of the result. They leave
the pipeline as units on its hyperedges (``StagePipeline.carried``), and
the end-to-end check (``flow._checked_carried``) checks that they are flows
of the result and starts from them instead of from no flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count
from types import MappingProxyType
from typing import Mapping

from .errors import InternalInvariantError, ReplayError, UnknownVertexError
from .flow import ConnTable, _Carried, _TreeFlows, _checked, _checked_carried, _split_arcs, conn_table_elements
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
    the id of its G0 edge to s, which joins its hyperedge node to the clique
    vertex that took over its slot on s: the edge's larger end, as clique ids
    exceed every G0 node.
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
    ``carried`` holds the kept flow of each pair of ``table.tree()``, in
    order, as (source, sink, value, units), each unit a (hyperedge id,
    entry vertex, exit vertex) of the result; the end-to-end check starts
    from them.
    """

    hypergraph: Hypergraph
    s: int
    gadget: GadgetInstance
    table: ConnTable
    s2: tuple[int, ...]
    fa: Mapping[int, tuple[int, ...]]
    f0: tuple[int, ...]
    deleted_edges: tuple[int, ...]
    carried: tuple[_Carried, ...]

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


def _build_gadget(s: int, inc: Incidence) -> GadgetInstance:
    """Replace s by a clique of non-terminals, one per hyperedge incident to s.

    Each hyperedge node that was adjacent to s gets exactly one clique
    vertex instead, so the gadget simulates a vertex capacity of deg(s).
    """
    g0 = inc.instance
    hyperedge_of = dict(zip(inc.edge_node.values(), inc.edge_node))
    base = max(g0.graph.vertices) + 1
    edges, attachments = {}, []
    # G0's edges run from a vertex to a hyperedge node, in hyperedge id order,
    # so s can only be an edge's first end, and its hyperedges come in id order.
    for eid, (a, b) in g0.graph.edges.items():
        if a == s:
            a = base + len(attachments)  # the hyperedge's own clique vertex
            attachments.append((hyperedge_of[b], eid))
        edges[eid] = (a, b)
    clique = tuple(range(base, base + len(attachments)))
    edges.update(zip(count(len(edges)), combinations(clique, 2)))  # G0's edge ids are 0..m-1

    vertices = (g0.graph.vertices - {s}) | frozenset(clique)
    instance = ElementConnInstance(Multigraph(vertices, edges), g0.terminals - {s})
    return GadgetInstance(instance=instance, clique=clique, attachments=tuple(attachments))


def run_pipeline(h: Hypergraph, s: int) -> StagePipeline:
    """Run the construction G0..G3 at s and collect its bookkeeping.

    The terminal table of G0 costs T-1 flows (``conn_table_elements``). G1
    is checked against it, by the tree flows that stage 2's reductions and
    stage 3's deletions keep and update in place, and that the attachment
    contractions then carry onto the result. A G1 that drifts is reported
    as an internal error; G2 and G3 are proved by the end-to-end check of
    ``complete_split_off``. G2 and G3 are never built as instances: stage 3
    and the bookkeeping read stage 2's edges.
    """
    if s not in h.vertices:
        raise UnknownVertexError(f"unknown vertex {s}")

    inc = incidence_graph(h)
    g0 = inc.instance
    gadget = _build_gadget(s, inc)
    g1 = gadget.instance

    # The table every stage must keep is the G0 table without s.
    table = conn_table_elements(g0).restrict(g1.terminals)
    network = _split_arcs(g1)
    flows = _TreeFlows(network, _checked(network, table, "replacing s with the clique gadget"))

    edges, survivors, _ = _reduce_to_stable(g1, flows, gadget.clique)  # no step is output
    s2 = tuple(v for v in gadget.clique if v in survivors)

    # Stage 2 reduces clique edges only: each attachment stays, its gadget end
    # moved to the vertex it was contracted into. They are stage 3's candidates.
    for e, eid in gadget.attachments:
        if eid not in edges:
            raise InternalInvariantError(
                f"hyperedge node {inc.edge_node[e]} is not attached to exactly one surviving gadget vertex"
            )
    deleted = _maximal_preserving_deletions(edges, [eid for _, eid in gadget.attachments], flows)

    gone = frozenset(deleted)
    f0, fa = [], {}
    for e, eid in gadget.attachments:  # ascending hyperedge ids
        if eid in gone:
            f0.append(e)
        else:  # held by its larger end: clique ids exceed every G0 node
            holder = edges[eid][1]
            fa[holder] = fa.get(holder, ()) + (e,)
            # Into its hyperedge node, the smaller end: each holder ends in the
            # node of its smallest hyperedge, which the merges keep.
            if not flows.contract(eid):
                raise InternalInvariantError("splitting off s changed the terminal connectivity table")
    carried = flows.carried(table.tree(), {node: e for e, node in inc.edge_node.items()})
    return StagePipeline(hypergraph=h, s=s, gadget=gadget, table=table, s2=s2, fa=fa, f0=tuple(f0),
                         deleted_edges=deleted, carried=carried)


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
    table over the remaining vertices is unchanged. That end-to-end check,
    started from the pipeline's carried flows, also proves the stages after
    G1. Any failure of those checks is an internal error: the theorems say
    they cannot fail.
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
    _checked_carried(h_star, pipeline.table, pipeline.carried, "splitting off s")
    return SplitOffResult(h_star=h_star, log=log, certificate=pipeline.table, pipeline=pipeline)
