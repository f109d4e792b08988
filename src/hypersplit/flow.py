"""Exact integral max-flow with vertex capacities; connectivity queries and tables.

Element-connectivity between terminals u,v is a max-flow after the standard
vertex split: every vertex w becomes w_in -> w_out with capacity 1 for
non-terminals and deg(w) for terminals, and every undirected edge becomes a
unit arc in each direction between the matching out/in nodes. The flow value
counts pairwise element-disjoint u-v paths.

Hyperedge-connectivity runs on Lawler's network of the hypergraph
("Cutsets and partitions of hypergraphs", 1973), built straight from the
hyperedges (``_hyperedge_network``). Each hyperedge e has an entry node and
an exit node joined by a unit arc, and each member v has uncapacitated arcs
v -> entry(e) and exit(e) -> v; a vertex is one node, numbered by its rank
among the vertices. For the ids 0..n-1 of a parsed file that number is the
id itself, so the network reads each hyperedge's member set as it is
instead of renumbering a copy. The paper reads lambda
as element-connectivity of the incidence instance, where every vertex is a
terminal of capacity deg(v). That capacity never binds, as each unit into
or out of v uses a hyperedge of its own, so vertices need no split. A
finite cut then consists of unit arcs, and their hyperedges separate u from
v. Conversely, a vertex set X holding u but not v, together with the entry
nodes of the hyperedges meeting X and the exit nodes of those inside it, is
left only by the unit arcs of delta(X). So the flow value is exactly
lambda(u, v).

A hyperedge carries at most one unit, so a flow is an entry vertex and an
exit vertex for each used hyperedge. A search steps from a vertex to the
entry node of each of its hyperedges and to the exit node of each whose
exit vertex it is; from the entry node of an unused hyperedge to its exit
node, and from that of a used one to its entry vertex; and from an exit
node to every member. An augmenting path changes the state in three ways:
a step v -> entry(e) enters e at v, a step exit(e) -> w leaves e at w, and
if e then enters and leaves at one vertex, its unit runs in a cycle and is
cancelled, which frees e. The residual arc exit(e) -> entry(e) of a used e
is never on a shortest path, since e's exit vertex steps to entry(e)
directly, and searches leave it out. When the last search fails, the
vertices X the source reaches form a minimum cut. A hyperedge with members
inside and outside X has its entry node reached through a member inside;
were it unused, or its exit node reached, every member would be reached.
So each hyperedge of delta(X) is a unit arc from a reached node to an
unreached one. There are k such arcs, the flow value, and |delta(X)| >= k
because X holds the source but not the sink.

Max-flows push the bottleneck of one shortest residual source-sink path per
search (Edmonds-Karp), so a flow of value k costs k+1 searches. A search is
two-ended: it grows labels from the source along residual arcs and from the
sink against them, one full level at a time, always on the side with the
smaller frontier, and stops at the first node both sides label. The path
through that node is a shortest one. Before a level is grown, the nodes
within df arcs of the source and those within db arcs of the sink are all
labelled, and the two sets are disjoint, so every path has at least
df+db+1 arcs; a meeting in the new level closes a path of at most df+1+db.
A failing search must still label exactly the nodes the source reaches,
which Gusfield's method below needs. If the source side runs out first, it
has labelled them all. If the sink side runs out first, no node the source
side labelled can reach the sink, and the source side goes on alone until
it runs out. A flow between two terminals (``_pair_flow``: a single-pair
query, or a tree pair of a check) starts at its end of smaller degree:
connectivity is symmetric, and once the flow saturates that end the last
search ends at once. Gusfield's flows below keep their direction, because
their re-parenting reads the source side. A network is built once for
all the flows of a table or a check: each flow on an element network copies
only the capacities, and a hypergraph's starts from an empty state.

Checking that an instance still has a known table costs T-1 flows, not
T(T-1)/2. ``ConnTable.tree`` hangs each vertex after the first, in key
order, from the earlier vertex of largest value. As connectivity obeys
lambda(u,v) >= min(lambda(u,w), lambda(w,v)), the smallest value on the
tree path between u and v is lambda(u,v), by induction on the order: if i
hangs from p with value m and j is earlier, then lambda(i,j) <= m, as p
was the largest; lambda(p,j) >= min(m, lambda(i,j)) = lambda(i,j); and
lambda(i,j) >= min(m, lambda(p,j)); so lambda(i,j) = min(m, lambda(p,j)),
the minimum on i's path to j through p. The tree comes from the values
alone, so no table stores one. Every checked operation (deleting an edge,
contracting an edge between non-terminals, replacing a terminal by the
clique gadget, trim and merge) can only lower a pair's value. If the
checked instance matches the table on the T-1 tree pairs, each other pair
is at least the minimum along its tree path, which is its old value, and
at most its old value: the whole table holds. Every such check on fresh
flows runs the tree pairs through ``_tree_flows``. On either network
``_checked`` returns their flows or reports a differing pair as an
internal error, and every kept flow (``_TreeFlows``) starts from flows
that had the table's values. Gusfield's tree below has the path minimum
too, so the flows that compute a table can be kept to check it
(``_table_flows``). The deletion and contraction arguments below hold
for a flow in either direction.

A full table also costs T-1 flows, by Gusfield's flow-equivalent tree
("Very simple methods for all pairs network flow analysis", 1990). Every
terminal i = 1..T-1 runs one flow to its current tree parent t; the source
side of that flow's minimum cut re-parents each later terminal j with
parent t to i; and the value between two terminals is the smallest flow
along their tree path. This is exact for any symmetric submodular function
f of terminal sets when each flow's side X is a minimiser of f(X) over the
sets holding i but not t (Cheng and Hu, "Ancestor tree for arbitrary
multi-terminal cut functions", 1991). Element-connectivity has such an f.
Subdivide every edge, so that elements are exactly the non-terminals. Then
f(X) = min |S| over element sets S separating X from T - X. It is
symmetric, and it is submodular: it is the vertex-boundary function of
vertex sets, weighted 1 on non-terminals and infinite on terminals,
minimised over the non-terminal coordinates, and a partial minimum of a
submodular function is submodular. The terminals whose out-node the source
still reaches in a maximum flow's residual form such a minimiser: the arcs
leaving the reachable nodes have total capacity k, the flow value, and
replacing a cut terminal arc by that terminal's edges gives an element set
of size at most k that separates them from the other terminals. The last,
failing search of the flow labels exactly those nodes. For hyperedge
connectivity f(X) = |delta(X)|, symmetric and submodular, and the
reached vertices are a minimiser, as above.

A run of edge deletions keeps each tree pair's flow instead of recomputing
it. Deleting edge e leaves a pair whose flow f of value k uses neither arc
of e with a flow of value k. If f sends its unit over e's arc x->y, drop
that unit: f' now has a surplus at x and a deficit at y. One search for an
x->y residual path with e's arcs removed decides the pair: a path restores
value k, and if G-e had some flow g of value k, then g-f' would split into
an x->y residual path and cycles, so no path means the value dropped. A
flow with a unit on each arc of e runs them in a cycle through both vertex
arcs; cancelling the cycle removes both without changing the value.

The kept flows also follow the contraction of an edge xy between two
non-terminals into x. In the residual, y's arcs move to x's nodes, and
y's vertex arc and the arcs of every x-y edge, self-loops now, are zeroed.
A flow that used neither x nor y, or x alone, is still a flow. A unit
through y alone moves to x's free vertex arc. A unit that ran over an x-y
edge through both drops that edge and y's vertex arc and stays a path, and
a unit each way over x-y edges is a cycle, cancelled as above. If x and y
carried different units, dropping y's vertex unit leaves a surplus at x's
in-node and a deficit at its out-node, and one search for a path between
them decides the pair by the same g-f' argument as for deletion: a path
restores value k, and no path means the contraction lowered the value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple

from .errors import InternalInvariantError, InvalidQueryError, NonTerminalEndpointError, UnknownVertexError
from .hypergraph import Hypergraph
from .multigraph import ElementConnInstance


_Residual = tuple[list[int], list[int], list[list[int]]]


class _Hyperedges(NamedTuple):
    """Lawler's network of a hypergraph with ``vertices`` vertices, by the
    neighbours ``adj`` of its nodes (see ``_hyperedge_network``)."""

    adj: list[Collection[int]]
    vertices: int


_Network = tuple[_Residual | _Hyperedges, dict[int, int], tuple[int, ...]]  # graph, index, edge ids


def _max_flow(
    graph: _Residual | _Hyperedges, source: int, sink: int
) -> tuple[int, list[int], list[int]]:
    """Maximum source->sink flow: its value, the state it leaves (residual
    capacities, or a hypergraph's vertex at each hyperedge node), and the
    labels of its last, failing search (see ``_augment``), which are -1
    exactly on the nodes the source cannot reach in that residual."""
    if isinstance(graph, _Hyperedges):
        state = [-1] * len(graph.adj)
        augment = lambda: _hyper_augment(graph, state, source, sink)
    else:
        head, initial, out = graph
        state = initial.copy()
        augment = lambda: _augment(head, state, out, source, sink)
    total = 0
    while True:
        push, via = augment()
        if not push:
            return total, state, via
        total += push


def _two_ended(grow, network: tuple, size: int, source: int, sink: int) -> tuple[int, list[int], list[int]]:
    """The one search rule: labels over ``size`` nodes grown a level at a
    time by ``grow(network, level, labels, other, flip)`` from the source
    (``flip`` 0) or the sink (``flip`` 1), on the side with the smaller
    frontier, until the sides meet or the source side runs out. Returns the
    meeting node, -1 if none, and both sides' labels, -2 at their own end."""
    via = [-1] * size
    back = [-1] * size  # sink side: how each node leads toward the sink
    via[source] = back[sink] = -2
    front, rear = [source], [sink]
    meet = -1
    while front and meet == -1:
        if rear and len(rear) < len(front):
            rear, meet = grow(network, rear, back, via, 1)
        else:
            front, meet = grow(network, front, via, back, 0)
    return meet, via, back


def _augment(
    head: list[int], cap: list[int], out: list[list[int]], source: int, sink: int
) -> tuple[int, list[int]]:
    """Push the bottleneck of one shortest source->sink residual path.

    Returns the amount pushed, 0 if there is no path, and the search's labels:
    the residual arc that labelled each node, -2 at the source and -1 where
    the search did not reach. After a push the labels trace the path back
    from the sink. A search that finds no path labels every node reachable
    from the source.
    """
    meet, via, back = _two_ended(_grow, (head, cap, out), len(out), source, sink)
    if meet == -1:
        return 0, via
    node = meet
    while node != sink:  # hand the sink-side half over to the labels
        a = back[node]
        node = head[a]
        via[node] = a
    path = []
    while node != source:
        path.append(via[node])
        node = head[via[node] ^ 1]
    push = min(cap[a] for a in path)
    for a in path:
        cap[a] -= push
        cap[a ^ 1] += push
    return push, via


def _grow(
    residual: _Residual, level: list[int], labels: list[int], other: list[int], flip: int
) -> tuple[list[int], int]:
    """Label the next level of one side of a search: the source side with
    ``flip`` 0, along residual arcs, or the sink side with ``flip`` 1, against
    them. Returns that level and -1, or, at the first node the other side
    already labelled, the level so far and that node."""
    head, cap, out = residual
    grown = []
    for w in level:
        for a in out[w]:
            arc = a ^ flip  # the residual arc between w and head[a], in the flow's direction
            node = head[a]
            if cap[arc] > 0 and labels[node] == -1:
                labels[node] = arc
                if other[node] != -1:
                    return grown, node
                grown.append(node)
    return grown, -1


def _hyper_augment(graph: _Hyperedges, end: list[int], source: int, sink: int) -> tuple[int, list[int]]:
    """``_augment`` on a hypergraph's network, whose flow state ``end`` holds
    each used hyperedge's entry and exit vertex at its two nodes and -1 at an
    unused one's. Every path pushes one unit; the labels name the node that
    labelled each node, not an arc."""
    n = graph.vertices
    meet, via, back = _two_ended(_hyper_grow, (graph.adj, n, end), len(end), source, sink)
    if meet == -1:
        return 0, via
    node = meet
    while node != sink:  # hand the sink-side half over to the labels
        via[back[node]] = node
        node = back[node]
    while node != source:  # the path's steps, last first (see the module docstring)
        prev = via[node]
        if prev < n and not node & 1:  # enter at prev
            end[node] = prev
            if end[node ^ 1] == prev:
                end[node] = end[node ^ 1] = -1  # cancel
        elif prev & 1 and node < n:  # leave at node
            end[prev] = node
            if end[prev ^ 1] == node:
                end[prev] = end[prev ^ 1] = -1  # cancel
        node = prev
    return 1, via


def _hyper_grow(
    network: tuple[list[list[int]], int, list[int]], level: list[int], labels: list[int], other: list[int],
    flip: int,
) -> tuple[list[int], int]:
    """``_grow`` on a hypergraph's network (``adj``, vertex count and flow
    state). A hyperedge's near node is its entry node for the source side
    and its exit node for the sink side; its far node is the other one."""
    adj, n, end = network
    grown = []
    for w in level:
        if w >= n:  # from a far node to every member; from a near node through its unused hyperedge, or to its vertex
            for node in adj[w] if (w & 1) != flip else (w ^ 1 if end[w] == -1 else end[w],):
                if labels[node] == -1:
                    labels[node] = w
                    if other[node] != -1:
                        return grown, node
                    grown.append(node)
        else:  # from a vertex to every near node at it, and to each far node whose vertex it is
            for k in adj[w]:
                node = k ^ flip
                if labels[node] == -1:
                    labels[node] = w
                    if other[node] != -1:
                        return grown, node
                    grown.append(node)
                node ^= 1
                if end[node] == w and labels[node] == -1:
                    labels[node] = w
                    if other[node] != -1:
                        return grown, node
                    grown.append(node)
    return grown, -1


@dataclass(frozen=True)
class ConnTable:
    """Symmetric map from unordered terminal pairs to connectivity values.

    Keys are canonical (min, max) tuples, one for every distinct pair of
    the underlying terminal set; a table that misses or repeats one is refused.
    """

    values: Mapping[tuple[int, int], int]

    def __post_init__(self):
        canon = {}
        for (u, v), k in self.values.items():
            if u == v:
                raise ValueError(f"pair key ({u},{v}) is not a pair")
            if k < 0:
                raise ValueError(f"negative connectivity for pair ({u},{v})")
            key = (u, v) if u < v else (v, u)
            if key in canon:
                raise ValueError(f"pair ({u},{v}) is given twice")
            canon[key] = k
        t = len({w for pair in canon for w in pair})
        if len(canon) != t * (t - 1) // 2:
            raise ValueError("a table needs a value for every pair of its vertices")
        object.__setattr__(self, "values", MappingProxyType(canon))

    def get(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        try:
            return self.values[key]
        except KeyError:
            raise UnknownVertexError(f"pair ({u},{v}) not in table") from None

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """(u, v, value) triples in ascending key order."""
        for u, v in sorted(self.values):
            yield u, v, self.values[(u, v)]

    def restrict(self, keep: Iterable[int]) -> "ConnTable":
        ks = frozenset(keep)
        return ConnTable({p: k for p, k in self.values.items() if p[0] in ks and p[1] in ks})

    def tree(self) -> tuple[tuple[int, int, int], ...]:
        """A spanning tree of the table as T-1 (parent, child, value) triples:
        in key order, each vertex after the first hangs from the earlier
        vertex of largest value, the first on ties. On a connectivity table
        the smallest value along the tree path between two vertices is their
        value (see the module docstring)."""
        values = self.values
        order = sorted({w for pair in values for w in pair})
        tree = []
        for i, v in enumerate(order[1:], 1):
            u = max(order[:i], key=lambda w: values[(w, v)])  # max keeps the first of equals
            tree.append((u, v, values[(u, v)]))
        return tuple(tree)

    def __len__(self) -> int:
        return len(self.values)


def _split_arcs(inst: ElementConnInstance) -> _Network:
    """Vertex-split residual shared by every pair query on one instance.

    Returns (residual, index of each vertex, edge ids in arc order). Residual
    arc i runs to head[i] with capacity cap[i]; arc i ^ 1 is its reverse, and
    out[node] lists the arcs leaving node in arc order. Vertex w with index i
    occupies nodes 2*i (in) and 2*i+1 (out), joined by residual arc 2*i,
    which is numbered like its in-node. With n vertices, the p-th edge id,
    between a and b, gives residual arc 2*n + 4*p from out(a) to in(b) and
    the next, 2*n + 4*p + 2, from out(b) to in(a). Terminal capacity is its
    degree, which bounds any flow through it just like an infinite capacity
    would.
    """
    index = {v: i for i, v in enumerate(sorted(inst.graph.vertices))}
    n = len(index)
    head = [node ^ 1 for node in range(2 * n)]
    out = [[node] for node in range(2 * n)]
    edges = inst.graph.edges
    edge_ids = inst.graph.edge_ids()
    for e in edge_ids:
        a, b = edges[e]
        in_a, in_b = 2 * index[a], 2 * index[b]
        arc = len(head)
        head += (in_b, in_a + 1, in_a, in_b + 1)
        out[in_a + 1].append(arc)
        out[in_b].append(arc + 1)
        out[in_b + 1].append(arc + 2)
        out[in_a].append(arc + 3)
    cap = [1, 0] * n + [1, 0, 1, 0] * len(edge_ids)
    for v in inst.terminals:
        cap[2 * index[v]] = len(out[2 * index[v] + 1]) - 1  # its degree: one arc per edge end
    return (head, cap, out), index, edge_ids


def _hyperedge_network(h: Hypergraph) -> _Network:
    """Lawler's network of ``h`` (see the module docstring), with its index
    keyed by the vertices; one pass over the incidences lists the
    hyperedges at each vertex.

    The vertex with index i, in sorted order, is node i. The p-th hyperedge
    has entry node b + 2*p and exit node b + 2*p + 1, for the even b of n or
    n + 1, so ``node ^ 1`` pairs them. ``adj`` lists, at a vertex, the entry
    nodes of its hyperedges in order, and at both nodes of a hyperedge one
    shared collection of its members' indices. The arcs follow from that
    and the flow state: a search builds none.

    When the vertices are the ints 0..n-1, as every parsed file numbers
    them, each vertex is its own index and a hyperedge's member frozenset is
    that collection. Any other vertex set is renumbered, and each hyperedge
    listed through the index in its frozenset's order, so a search visits
    the members in the same order either way.
    """
    n = len(h.vertices)
    ends = list(h.hyperedges.values())
    # A float id can equal an int, but cannot number a node.
    if h.vertices == frozenset(range(n)) and {int}.issuperset(map(type, h.vertices)):
        index = dict(zip(range(n), range(n)))
    else:
        index = dict(zip(sorted(h.vertices), range(n)))
        ends = list(map(list, map(map, repeat(index.__getitem__), ends)))
    adj: list[Collection[int]] = [[] for _ in range(n + n % 2)]
    for members, entry in zip(ends, range(len(adj), len(adj) + 2 * len(ends), 2)):
        for i in members:
            adj[i].append(entry)
    adj += chain.from_iterable(zip(ends, ends))
    return _Hyperedges(adj, n), index, ()


def _check_terminal(inst: ElementConnInstance, v: int) -> None:
    if v not in inst.graph.vertices:
        raise UnknownVertexError(f"unknown vertex {v}")
    if v not in inst.terminals:
        raise NonTerminalEndpointError(f"vertex {v} is not a terminal")


def element_connectivity(inst: ElementConnInstance, u: int, v: int) -> int:
    """Minimum number of elements (non-terminals or edges) separating u and v."""
    if u == v:
        raise InvalidQueryError("endpoints coincide")
    _check_terminal(inst, u)
    _check_terminal(inst, v)
    return _pair_flow(_split_arcs(inst), u, v)[0]


def _terminal(network: _Network, v: int) -> tuple[int, int, int]:
    """The source node, sink node and degree of terminal v in ``network``:
    a vertex's one node, or its out- and in-node and its vertex arc's
    capacity, which is its degree."""
    graph, index, _ = network
    i = index[v]
    if isinstance(graph, _Hyperedges):
        return i, i, len(graph.adj[i])
    return 2 * i + 1, 2 * i, graph[1][2 * i]


def _pair_flow(network: _Network, u: int, v: int) -> tuple[int, list[int], list[int]]:
    """``_max_flow`` between terminals u and v, started at the end of smaller
    degree, u on ties (see the module docstring)."""
    start, end = sorted((_terminal(network, u), _terminal(network, v)), key=lambda t: t[2])
    return _max_flow(network[0], start[0], end[1])


def conn_table_elements(inst: ElementConnInstance) -> ConnTable:
    """Element-connectivity for every unordered terminal pair.

    Fewer than two terminals yields an empty table. The T-1 flows of
    Gusfield's flow-equivalent tree give every value (see the module
    docstring).
    """
    return _gusfield(_split_arcs(inst), sorted(inst.terminals))


def _gusfield(network: _Network, terms: list[int], kept: list[list[int]] | None = None) -> ConnTable:
    """The table of the terminals ``terms``, in ascending order, by Gusfield's
    T-1 flows; with a list ``kept``, the state each flow leaves goes there."""
    ends = [_terminal(network, v) for v in terms]
    parent = [0] * len(terms)  # tree parent of each terminal; always an earlier one
    low = [[0] * len(terms) for _ in terms]  # smallest flow on each tree path
    for i in range(1, len(terms)):
        t = parent[i]
        k, state, via = _max_flow(network[0], ends[i][0], ends[t][1])
        if kept is not None:
            kept.append(state)
        for j in range(i + 1, len(terms)):
            if parent[j] == t and via[ends[j][0]] != -1:
                parent[j] = i
        # Only later terminals hang below i, so i's path to an earlier j runs through t.
        for j in range(i):
            low[i][j] = low[j][i] = k if j == t else min(k, low[t][j])
    return ConnTable(
        {(u, terms[j]): low[i][j] for i, u in enumerate(terms) for j in range(i + 1, len(terms))}
    )


def _tree_flows(network: _Network, table: ConnTable) -> list[list[int]] | None:
    """The state the flow of each pair of ``table.tree()`` leaves on
    ``network``, each run by ``_pair_flow``; None at the first pair whose
    value differs from the table."""
    states = []
    for u, v, k in table.tree():
        value, state, _ = _pair_flow(network, u, v)
        if value != k:
            return None
        states.append(state)
    return states


def _table_flows(inst: ElementConnInstance) -> tuple[ConnTable, "_TreeFlows"]:
    """``conn_table_elements(inst)``, with its Gusfield flows kept as a ``_TreeFlows`` of it."""
    network, kept = _split_arcs(inst), []
    return _gusfield(network, sorted(inst.terminals), kept), _TreeFlows(network, kept)


class _TreeFlows:
    """Maximum flows of a table's tree pairs on one instance, kept across reductions.

    It keeps the states ``caps`` that the T-1 flows of a table's tree left
    on an element network (``_split_arcs``): those of ``table.tree()``'s
    pairs that ``_checked`` found to have the table's values, or Gusfield's
    (``_table_flows``). A flow may run from either end of its pair.
    ``delete`` then tests and applies edge deletions one at a time, each at
    the cost of at most one augmenting search per tree pair whose flow uses
    the edge, and ``contract`` contracts edges between non-terminals at the
    cost of at most one search per pair whose flow ran through both ends on
    different paths (see the module docstring). All pairs share one
    residual graph, which a contraction rewires, and keep their own
    capacities. Terminal capacities stay at their degrees before any
    deletion, which still bounds every flow.
    """

    def __init__(self, network: _Network, caps: list[list[int]]):
        residual, _, edge_ids = network
        self._head, _, self._out = residual
        first = len(self._out)  # edge arcs follow the vertex arcs, numbered like nodes
        self._edge_arc = dict(zip(edge_ids, range(first, first + 4 * len(edge_ids), 4)))
        self._caps = caps  # residual capacities left by each pair's flow

    def delete(self, edge_id: int) -> bool:
        """Delete the edge if every tree pair keeps its value; True iff it did.

        A rejected deletion changes nothing: the capacities each test
        touched are restored from an undo log.
        """
        head, out = self._head, self._out
        first = self._edge_arc[edge_id]
        arcs = (first, first + 2)
        undo: list[tuple[list[int], int, int]] = []  # (capacities, arc, value before)
        for cap in self._caps:
            if not (cap[first + 1] or cap[first + 3]):  # an arc's flow is its reverse's capacity
                continue
            used = [a for a in arcs if cap[a ^ 1]]
            # A unit each way closes a cycle through both vertex arcs (residual
            # arcs head[first + 2] and head[first]); cancelling it keeps the value.
            cycle = (head[first], head[first + 2]) if len(used) == 2 else ()
            for a in (first, first + 2, *cycle):
                undo += ((cap, a, cap[a]), (cap, a ^ 1, cap[a ^ 1]))
            for a in cycle:
                cap[a] += 1
                cap[a ^ 1] -= 1
            for a in arcs:
                cap[a] = cap[a ^ 1] = 0
            if len(used) == 1:
                # Without its unit on arc x->y the flow has a surplus at x and a
                # deficit at y; an x->y path restores the value, and none exists
                # exactly when the value drops.
                x, y = head[used[0] ^ 1], head[used[0]]
                push, via = _augment(head, cap, out, x, y)
                if not push:
                    for touched, a, value in reversed(undo):
                        touched[a] = value
                    return False
                node = y
                while node != x:  # log the path the search pushed along
                    a = via[node]
                    undo += ((cap, a, cap[a] + push), (cap, a ^ 1, cap[a ^ 1] - push))
                    node = head[a ^ 1]
        for a in range(first, first + 4):
            out[head[a ^ 1]].remove(a)  # searches no longer scan the edge
        for cap in self._caps:
            cap[first] = cap[first + 2] = 0
        return True

    def contract(self, edge_id: int) -> bool:
        """Contract the edge, between two non-terminals, into its smaller end x.

        True iff every tree pair keeps its value. Otherwise the flows are
        of no further use.
        """
        head, out = self._head, self._out
        first = self._edge_arc[edge_id]
        x, y = sorted((head[first], head[first + 2]))  # in-nodes, numbered like vertex arcs
        loops = [a for a in out[x + 1] if head[a] == y] + [a for a in out[y + 1] if head[a] == x]
        dead = {y, y + 1, *loops, *(a ^ 1 for a in loops)}
        for node, kept in ((y, x), (y + 1, x + 1)):
            for a in out[node]:
                head[a ^ 1] = kept
            out[kept] = [a for a in out[kept] + out[node] if a not in dead]
            out[node] = []
        for cap in self._caps:
            through_y = cap[y + 1]  # the flow on y's vertex arc
            crossing = sum(cap[a ^ 1] for a in loops)
            for a in dead:
                cap[a] = 0
            if not through_y or crossing == 1:
                continue  # y carried no unit, or one unit ran over an x-y edge through both
            if crossing == 2:  # a unit each way: cancel the cycle through both vertex arcs
                cap[x] += 1
                cap[x + 1] -= 1
            elif cap[x]:  # x was free: y's unit moves to x's vertex arc
                cap[x] -= 1
                cap[x + 1] += 1
            elif not _augment(head, cap, out, x, x + 1)[0]:
                # x and y carried different units: x's in-node now has one unit
                # too many, and only a path to its out-node keeps the value.
                return False
        return True


def _checked(network: _Network, table: ConnTable, what: str) -> list[list[int]]:
    """``_tree_flows`` of ``table`` on an element network or Lawler's, whose
    pairs cannot exceed their values in ``table`` (see the module docstring);
    if they differ, an internal error saying that ``what`` changed the table."""
    states = _tree_flows(network, table)
    if states is None:
        raise InternalInvariantError(f"{what} changed the terminal connectivity table")
    return states


def hyperedge_connectivity(h: Hypergraph, u: int, v: int) -> int:
    """Local edge-connectivity: hyperedges crossing the cheapest u/v-separating cut.

    Computed as a max-flow on Lawler's network of ``h``.
    """
    if u == v:
        raise InvalidQueryError("endpoints coincide")
    for w in (u, v):
        if w not in h.vertices:
            raise UnknownVertexError(f"unknown vertex {w}")
    return _pair_flow(_hyperedge_network(h), u, v)[0]


def conn_table_hyper(h: Hypergraph) -> ConnTable:
    """Local edge-connectivity for every unordered vertex pair of ``h``."""
    return _gusfield(_hyperedge_network(h), sorted(h.vertices))
