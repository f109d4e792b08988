"""Element-connectivity preserving reductions on non-terminal edges.

For an edge between two non-terminals, at least one of deleting it or
contracting it keeps every pairwise terminal connectivity unchanged. We
prefer deletion whenever it preserves the table; when it does not, the
contraction is guaranteed to, and we verify that instead of trusting it.

Checks look only at the T-1 pairs of a maximum spanning tree of the
baseline, not the T(T-1)/2 of a full table. Neither deleting an edge nor
contracting an edge between non-terminals can raise any terminal pair's
connectivity, and connectivity obeys lambda(u,v) >= min(lambda(u,w),
lambda(w,v)). So if the reduced instance matches the baseline on the tree
pairs, every other pair is squeezed between the minimum along its tree path
and its old value, which are equal. Baselines are full tables; the split-off
pipeline passes in the tree flows of its stage checks instead.

A run keeps one max flow per tree pair (``flow._TreeFlows``). A deletion
test touches only the pairs whose flow crosses the edge: each drops its
unit there and looks for one augmenting path around the edge, which exists
exactly when the pair keeps its value (the argument is in ``flow``). An
accepted deletion keeps the rerouted flows; a rejected one leaves them as
they were, and the contraction that follows builds the flows of the
contracted instance afresh, which re-checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Literal, Mapping, Optional

from .errors import InternalInvariantError, TerminalEndpointError
from .flow import ConnTable, _TreeFlows, conn_table_elements
from .multigraph import ElementConnInstance, Multigraph

Action = Literal["deleted", "contracted"]


@dataclass(frozen=True)
class ReductionStep:
    """One applied reduction: which edge, what happened, who absorbed whom."""

    edge: tuple[int, int]
    edge_id: int
    action: Action
    merged_into: Optional[int] = None


@dataclass(frozen=True)
class MinorTrace:
    """Ordered reduction steps plus the surviving-vertex -> original-vertices map.

    Every surviving non-terminal maps to the connected set of original
    non-terminals contracted into it; untouched vertices map to themselves.
    """

    steps: tuple[ReductionStep, ...]
    vertex_map: Mapping[int, frozenset[int]]

    def __post_init__(self):
        object.__setattr__(
            self,
            "vertex_map",
            MappingProxyType({v: frozenset(s) for v, s in self.vertex_map.items()}),
        )


def is_deletion_preserving(inst: ElementConnInstance, edge_id: int, baseline: ConnTable) -> bool:
    """True iff deleting the edge leaves the whole terminal pair table intact.

    ``baseline`` must be the table of ``inst``, or of an instance that
    ``inst`` was reduced from: only its spanning-tree pairs are computed,
    on ``inst``, and then rerouted around the edge. If ``inst`` does not
    have that table, the answer is False.
    """
    inst.graph.endpoints(edge_id)  # raises MissingEdgeError on unknown ids
    return _TreeFlows(inst, baseline).delete(edge_id)


def reduce_edge(
    inst: ElementConnInstance, edge_id: int, baseline: ConnTable
) -> tuple[ElementConnInstance, ReductionStep]:
    """Delete the edge if that preserves ``baseline``; otherwise contract it.

    Both endpoints must be non-terminals. When deletion does not preserve,
    contraction must (that is the reduction theorem); a contracted table that
    differs from the baseline is reported as an internal error because it can
    only mean a bug on our side. ``baseline`` must be the table of ``inst``,
    or of an instance that ``inst`` was reduced from.
    """
    for w in inst.graph.endpoints(edge_id):
        if w in inst.terminals:
            raise TerminalEndpointError(f"endpoint {w} of edge {edge_id} is a terminal")
    out, step, _ = _reduce(inst, edge_id, _TreeFlows(inst, baseline))
    return out, step


def _reduce(
    inst: ElementConnInstance, edge_id: int, flows: _TreeFlows
) -> tuple[ElementConnInstance, ReductionStep, _TreeFlows]:
    """``reduce_edge`` with the tree flows of ``inst``; also returns those of the result.

    A deletion keeps the flows, rerouted; a contraction builds them afresh,
    which is its re-check.
    """
    edge = inst.graph.endpoints(edge_id)
    if flows.delete(edge_id):
        out = inst.with_graph(inst.graph.without_edge(edge_id))
        return out, ReductionStep(edge=edge, edge_id=edge_id, action="deleted"), flows
    graph, kept, _ = inst.graph.contracted(edge_id)
    out = inst.with_graph(graph)
    flows = _TreeFlows(out, flows.table)
    if not flows.holds:
        raise InternalInvariantError(
            f"neither deleting nor contracting edge {edge_id} preserved the table"
        )
    step = ReductionStep(edge=edge, edge_id=edge_id, action="contracted", merged_into=kept)
    return out, step, flows


def _ordered(inst: ElementConnInstance, edge_ids: Iterable[int]) -> list[int]:
    # (min endpoint, max endpoint, id among parallels): fixed processing order.
    return sorted(edge_ids, key=lambda e: (*inst.graph.endpoints(e), e))


def reduce_to_stable(
    inst: ElementConnInstance, *, within: Optional[Iterable[int]] = None
) -> tuple[ElementConnInstance, MinorTrace]:
    """Reduce non-terminal edges until none remain; the table never changes.

    With ``within``, only edges whose endpoints both descend from that vertex
    set are reduced (contraction keeps candidates inside the set because the
    surviving endpoint is one of the two). Without it, the result has its
    non-terminals as a stable set.
    """
    return _reduce_to_stable(inst, _TreeFlows(inst, conn_table_elements(inst)), within)[:2]


def _reduce_to_stable(
    inst: ElementConnInstance, flows: _TreeFlows, within: Optional[Iterable[int]]
) -> tuple[ElementConnInstance, MinorTrace, _TreeFlows]:
    """``reduce_to_stable`` from the tree flows of ``inst``; also returns those of the result."""
    tracked = None if within is None else set(within)
    vertex_map = {v: frozenset({v}) for v in inst.graph.vertices}
    steps: list[ReductionStep] = []
    cur = inst
    while True:
        nonterminals = cur.nonterminals
        pool = nonterminals if tracked is None else (nonterminals & tracked)
        candidates = [
            e
            for e, (a, b) in cur.graph.edges.items()
            if a in pool and b in pool
        ]
        if not candidates:
            break
        edge_id = _ordered(cur, candidates)[0]
        cur, step, flows = _reduce(cur, edge_id, flows)
        steps.append(step)
        if step.action == "contracted":
            a, b = step.edge
            kept = step.merged_into
            dropped = b if kept == a else a
            vertex_map[kept] = vertex_map[kept] | vertex_map.pop(dropped)
            if tracked is not None:
                tracked.discard(dropped)
    return cur, MinorTrace(steps=tuple(steps), vertex_map=vertex_map), flows


def maximal_preserving_deletions(
    inst: ElementConnInstance, candidates: Iterable[int]
) -> tuple[ElementConnInstance, tuple[int, ...]]:
    """Greedily delete candidates whose removal preserves the entry table.

    Each listed id is tested once and reported at most once. One
    deterministic pass is maximal for non-terminal edges: an edge whose
    deletion breaks the table now cannot become deletable after further
    preserving reductions, so revisiting rejected candidates gains nothing.
    """
    ids = list(candidates)
    for e in ids:
        inst.graph.endpoints(e)  # raises MissingEdgeError on unknown ids
    return _maximal_preserving_deletions(inst, ids, _TreeFlows(inst, conn_table_elements(inst)))


def _maximal_preserving_deletions(
    inst: ElementConnInstance, candidates: Iterable[int], flows: _TreeFlows
) -> tuple[ElementConnInstance, tuple[int, ...]]:
    """``maximal_preserving_deletions`` from the tree flows of ``inst``."""
    deleted = tuple(e for e in _ordered(inst, set(candidates)) if flows.delete(e))
    gone = frozenset(deleted)
    edges = {e: uv for e, uv in inst.graph.edges.items() if e not in gone}
    return inst.with_graph(Multigraph(inst.graph.vertices, edges)), deleted
