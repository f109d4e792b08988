"""Element-connectivity preserving reductions on non-terminal edges.

For an edge between two non-terminals, at least one of deleting it or
contracting it keeps every pairwise terminal connectivity unchanged. We
prefer deletion whenever it preserves the table; when it does not, the
contraction is guaranteed to, and we verify that instead of trusting it.

Checks look only at the T-1 pairs of a tree of the baseline, not the
T(T-1)/2 of a full table. Neither deleting an edge nor contracting an edge
between non-terminals can raise a terminal pair's connectivity, so a
reduced instance that matches the baseline on the tree pairs has all of it
(the argument is in ``flow``). A baseline's own Gusfield flows are such a
tree's (``flow._table_flows``); the split-off pipeline passes in the tree
flows of its G1 check instead, which both of its reduction stages continue.

A run keeps one max flow per tree pair (``flow._TreeFlows``). A deletion
test touches only the pairs whose flow crosses the edge: each drops its
unit there and looks for one augmenting path around the edge, which exists
exactly when the pair keeps its value (the argument is in ``flow``); the
search stops as soon as either of its sides runs out. An
accepted deletion keeps the rerouted flows; a rejected one leaves them as
they were, and the contraction that follows is made inside them: at most
one search per pair whose flow ran through both ends, and no fresh flows.
So ``reduce_to_stable`` ends with one fresh check of its result; the
split-off's end-to-end check of its result covers both of its stages.

The run itself works on a private mutable copy of the edges, with the
candidates in a heap keyed by (min endpoint, max endpoint, id). A
contraction keeps the smaller endpoint, so every key it changes gets
smaller: pushing the new key and skipping stale entries keeps the order
of always taking the smallest candidate. ``reduce_to_stable`` is the only
public entry point: a single step exists only inside a run's kept flows,
and it builds one immutable instance from its private edges at the end.
The split-off pipeline runs ``_reduce_to_stable`` on its clique and
``_maximal_preserving_deletions`` on its attachments, reading the edges
and the kept flows and building no instance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Literal, Mapping, NamedTuple, Optional

from .errors import InternalInvariantError
from .flow import _TreeFlows, _checked, _split_arcs, _table_flows
from .multigraph import ElementConnInstance, Multigraph

Action = Literal["deleted", "contracted"]


class ReductionStep(NamedTuple):
    """One applied reduction: which edge, what happened, who absorbed whom; a tuple, cheap to build."""

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


def reduce_to_stable(inst: ElementConnInstance) -> tuple[ElementConnInstance, MinorTrace]:
    """Reduce non-terminal edges until none remain; the table never changes.

    The result has its non-terminals as a stable set. A result that differs
    from the input is re-checked by fresh flows.
    """
    baseline, flows = _table_flows(inst)
    edges, vertex_map, steps = _reduce_to_stable(inst, flows, inst.nonterminals)
    out = ElementConnInstance(Multigraph(frozenset(vertex_map), edges), inst.terminals)
    if steps:
        _checked(_split_arcs(out), baseline, "reducing non-terminal edges")
    return out, MinorTrace(steps=tuple(steps), vertex_map=vertex_map)


def _reduce_to_stable(
    inst: ElementConnInstance, flows: _TreeFlows, pool: Iterable[int]
) -> tuple[dict[int, tuple[int, int]], dict[int, frozenset[int]], list[ReductionStep]]:
    """Reduce every edge of ``inst`` between two vertices of ``pool``, a set
    of its non-terminals, from its tree flows ``flows``, without a final
    check, applying every step to ``flows`` too: the edges left (id -> (min,
    max) ends), the vertex map and the steps. A contraction keeps the smaller
    end, which is in the pool; if it does not keep the table either, that is
    an internal error."""
    pool = set(pool)
    edges = dict(inst.graph.edges)  # id -> (min, max) ends, updated in place
    incident: dict[int, set[int]] = {v: set() for v in pool}
    heap = []
    for e, (a, b) in edges.items():
        for w in (a, b):
            if w in pool:
                incident[w].add(e)
        if a in pool and b in pool:
            heap.append((a, b, e))
    heapq.heapify(heap)
    vertex_map = {v: frozenset({v}) for v in inst.graph.vertices}
    steps: list[ReductionStep] = []
    while heap:
        x, y, edge_id = heapq.heappop(heap)
        if edges.get(edge_id) != (x, y):
            continue  # gone, or already re-keyed to a smaller key
        del edges[edge_id]
        incident[x].discard(edge_id)
        incident[y].discard(edge_id)
        if flows.delete(edge_id):
            steps.append(ReductionStep((x, y), edge_id, "deleted"))
            continue
        if not flows.contract(edge_id):
            raise InternalInvariantError(
                f"neither deleting nor contracting edge {edge_id} preserved the table"
            )
        steps.append(ReductionStep((x, y), edge_id, "contracted", x))
        # y merges into x: its edges to x become self-loops and go, the rest move to x.
        for e in incident.pop(y):
            a, b = edges[e]
            w = b if a == y else a
            if w == x:
                del edges[e]
                incident[x].discard(e)
                continue
            edges[e] = key = (x, w) if x < w else (w, x)
            incident[x].add(e)
            if w in pool:
                heapq.heappush(heap, (*key, e))
        pool.discard(y)
        vertex_map[x] = vertex_map[x] | vertex_map.pop(y)
    return edges, vertex_map, steps


def _maximal_preserving_deletions(
    edges: Mapping[int, tuple[int, int]], candidates: Iterable[int], flows: _TreeFlows
) -> tuple[int, ...]:
    """Greedily delete candidates whose removal preserves the table of the
    tree flows ``flows`` of the edges ``edges`` (id -> (min, max) ends),
    applying each deletion to ``flows``: the ids deleted, in the order tested.

    Each listed id is tested once and reported at most once. One
    deterministic pass is maximal for non-terminal edges: an edge whose
    deletion breaks the table now cannot become deletable after further
    preserving reductions, so revisiting rejected candidates gains nothing.
    """
    # (min endpoint, max endpoint, id among parallels): the order reduce_to_stable uses.
    order = sorted(set(candidates), key=lambda e: (*edges[e], e))
    return tuple(e for e in order if flows.delete(e))
