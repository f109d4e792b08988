"""File formats: hypergraph JSON and line text, element instances, op logs, DOT.

Vertex names in files are strings; ids are assigned by sorted name order, so
identical files always produce identical instances. Writers are fully
deterministic and every written file re-parses to an equal value.

Parsers check in bulk and walk the items only to word the error: names,
hyperedges and edges are tested and mapped to ids by C-level passes over
whole lists, and only when a test fails does a loop find the first bad
item and report it as the item-by-item check always has.

Every file is read by ``_read_text`` and every JSON text decoded by
``_decode_json``, so a file that cannot be read, is not UTF-8, or holds JSON
nested too deep to decode is a ``ParseError``. Files are laid out by ``_joined``
from the rows of one ``_ranked`` call per output, JSON in ``json.dumps``' ``indent=2``
layout; ``_json_text`` writes the ``--json`` reports and the op-log's op entries.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import compress, count, repeat, starmap
from operator import itemgetter, ne, not_
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Optional, Sequence, Union

from .errors import ParseError, UnknownVertexError
from .hypergraph import Hypergraph, Merge, SplitOffOp, Trim
from .multigraph import ElementConnInstance, Multigraph

if TYPE_CHECKING:
    from .reduction import MinorTrace

VERTICES_HEADER = "#vertices:"
_escape = json.encoder.encode_basestring_ascii  # the C escaper json.dumps uses for every string
_SURROGATE = re.compile(r"[\ud800-\udfff]")  # a lone surrogate has no UTF-8 form: no output could hold it


@dataclass(frozen=True)
class NameTable:
    """Bidirectional map between file-level vertex names and dense integer ids."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = self.names
        joined = " " + " ".join(names) if all(map(str.__instancecheck__, names)) else None
        # Only a name that is empty, blank, starts with '#' or holds a surrogate fails a test here.
        if joined is None or joined.split() != list(names) or " #" in joined or _SURROGATE.search(joined):
            for name in names:
                _check_name(name)
        if len(set(names)) != len(names):
            raise ParseError("duplicate vertex name")
        object.__setattr__(self, "_ids", dict(zip(names, range(len(names)))))

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "NameTable":
        return cls(tuple(sorted(set(names))))

    def id_of(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {name!r}") from None

    def name_of(self, vid: int) -> str:
        try:
            if vid >= 0:  # a negative index would name a vertex from the end
                return self.names[vid]
        except IndexError:
            pass
        raise UnknownVertexError(f"unknown vertex id {vid}")

    def __len__(self) -> int:
        return len(self.names)


def _check_name(name: str) -> None:
    if not isinstance(name, str) or not name:
        raise ParseError(f"vertex name must be a non-empty string, got {name!r}")
    if name.split() != [name]:  # splitting changes exactly the names holding whitespace
        raise ParseError(f"vertex name {name!r} contains whitespace")
    if name.startswith("#"):  # a .he line starting with it is a comment
        raise ParseError(f"vertex name {name!r} starts with '#'")
    if _SURROGATE.search(name):
        raise ParseError(f"vertex name {name!r} holds a lone surrogate")


def _as_name_list(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(map(str.__instancecheck__, value)):
        raise ParseError(f"{what} must be an array of strings")
    return value


def _mapped(entries: list, ids: dict[str, int], kind: type) -> Optional[list]:
    """Every entry's ids as a ``kind``, or None unless each entry is a list of known names."""
    if not {list}.issuperset(map(type, entries)):  # a string or an object iterates names too
        return None
    try:
        return list(map(kind, map(map, repeat(ids.__getitem__), entries)))
    except (KeyError, TypeError):  # an unknown name, or a member that is no name
        return None


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"`` for objects with string keys. With an
    indent, ``json.dumps`` runs its pure-Python encoder; this joins each container
    once and escapes strings with the C escaper ``json.dumps`` uses."""
    return _json_value(obj, "\n") + "\n"


def _json_value(obj, newline: str) -> str:
    if type(obj) is str:
        return _escape(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        return _joined([_escape(key) + ": " + _json_value(value, inner) for key, value in obj.items()],
                       newline, "{}")
    if isinstance(obj, (list, tuple)):
        return _joined([_json_value(item, inner) for item in obj], newline)
    return json.dumps(obj)  # any other value as json.dumps writes it, or a TypeError


def _joined(items: list[str], newline: str, brackets: str = "[]") -> str:
    """Encoded items as a JSON array (``brackets`` "{}": object) laid out as by ``_json_text``."""
    if not items:
        return brackets
    inner = newline + "  "
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _ranked(table: NameTable, ids: Collection[int], encode: Callable[[str], str] = _escape):
    """Each id's rank in name order, the names by rank as ``encode`` writes them (JSON strings,
    ``str`` for bare names, ``_dot_quote`` for DOT ids), and a function listing some ids' encoded
    names in name order. Names come from ``name_of``: an id the table lacks raises."""
    named = sorted(zip(map(table.name_of, ids), ids))
    rank, rows = dict(zip(map(itemgetter(1), named), count())), list(map(encode, map(itemgetter(0), named)))
    return rank, rows, lambda some: [rows[i] for i in sorted(map(rank.__getitem__, some))]


def _hyperedge_array(h: Hypergraph, named) -> str:
    """The "hyperedges" array of hypergraph JSON and of an op-log header, names by ``named``."""
    return _joined([_joined(named(h.hyperedges[e]), "\n    ") for e in h.edge_ids()], "\n  ")


def _decode_json(text: str):
    """``json.loads``, with malformed text, or text nested too deep to decode, a ParseError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def parse_hypergraph_json(text: str) -> tuple[Hypergraph, NameTable]:
    """Parse ``{"vertices": [...], "hyperedges": [[...], ...]}``.

    Hyperedge entries are order-insensitive; repeated entries are distinct
    parallel hyperedges; a repeated name inside one entry is rejected.
    """
    obj = _decode_json(text)
    if not isinstance(obj, dict) or "vertices" not in obj or "hyperedges" not in obj:
        raise ParseError("expected an object with 'vertices' and 'hyperedges'")
    table = NameTable.from_names(_as_name_list(obj["vertices"], "'vertices'"))
    if len(table) != len(obj["vertices"]):
        raise ParseError("duplicate name in 'vertices'")
    raw_edges = obj["hyperedges"]
    if not isinstance(raw_edges, list):
        raise ParseError("'hyperedges' must be an array")
    edges = _mapped(raw_edges, table._ids, frozenset)
    sizes = list(map(len, edges or ()))  # fewer ids than names: a repeat
    if edges is None or sizes != list(map(len, raw_edges)) or min(sizes, default=2) < 2:
        for i, entry in enumerate(raw_edges):
            members = _as_name_list(entry, f"hyperedge {i}")
            if len(set(members)) != len(members):
                raise ParseError(f"duplicate vertex inside hyperedge {i}")
            if len(members) < 2:
                raise ParseError(f"hyperedge {i} has fewer than 2 vertices")
            try:
                list(map(table.id_of, members))
            except UnknownVertexError as exc:
                raise ParseError(f"hyperedge {i}: {exc}") from exc
    return Hypergraph(frozenset(range(len(table))), dict(enumerate(edges))), table


def parse_hypergraph_text(text: str) -> tuple[Hypergraph, NameTable]:
    """Parse the line format: one hyperedge per line, names separated by blanks.

    The vertex set is the union of all members plus any ``#vertices:`` header
    lines; other ``#`` lines are comments.
    """
    rows = list(filter(None, map(str.split, text.splitlines())))  # the names of each non-blank line
    comment = list(map(str.startswith, map(itemgetter(0), rows), repeat("#")))
    headers = [" ".join(row)[len(VERTICES_HEADER) :].split()
               for row in compress(rows, comment) if row[0].startswith(VERTICES_HEADER)]
    edge_rows = list(compress(rows, map(not_, comment)))
    sizes = list(map(len, edge_rows))
    if sizes != list(map(len, map(set, edge_rows))) or min(sizes, default=2) < 2:
        for lineno, members in enumerate(map(str.split, text.splitlines()), start=1):
            if members[:1] and not members[0].startswith("#"):  # blank lines and comments pass
                if len(set(members)) != len(members):
                    raise ParseError(f"line {lineno}: duplicate vertex inside hyperedge")
                if len(members) < 2:
                    raise ParseError(f"line {lineno}: hyperedge has fewer than 2 vertices")
    table = NameTable.from_names(set().union(*headers, *edge_rows))
    edges = _mapped(edge_rows, table._ids, frozenset)
    return Hypergraph(frozenset(range(len(table))), dict(enumerate(edges))), table


def write_hypergraph_json(h: Hypergraph, table: NameTable) -> str:
    _, rows, named = _ranked(table, h.vertices)
    fields = ['"vertices": ' + _joined(rows, "\n  "), '"hyperedges": ' + _hyperedge_array(h, named)]
    return _joined(fields, "\n", "{}") + "\n"


def write_hypergraph_text(h: Hypergraph, table: NameTable) -> str:
    _, rows, named = _ranked(table, h.vertices, str)
    lines = [f"{VERTICES_HEADER} " + " ".join(rows)]
    lines += [" ".join(named(h.hyperedges[e])) for e in h.edge_ids()]
    return "\n".join(lines) + "\n"


def parse_element_json(text: str) -> tuple[ElementConnInstance, NameTable]:
    """Parse ``{"vertices": [...], "edges": [["a","b"], ...], "terminals": [...]}``.

    Repeated pairs are parallel edges; self-loops are rejected.
    """
    obj = _decode_json(text)
    if not isinstance(obj, dict) or not {"vertices", "edges", "terminals"} <= set(obj):
        raise ParseError("expected an object with 'vertices', 'edges' and 'terminals'")
    table = NameTable.from_names(_as_name_list(obj["vertices"], "'vertices'"))
    if len(table) != len(obj["vertices"]):
        raise ParseError("duplicate name in 'vertices'")
    if not isinstance(obj["edges"], list):
        raise ParseError("'edges' must be an array")
    edges = _mapped(obj["edges"], table._ids, tuple)
    if edges is None or not {2}.issuperset(map(len, edges)) or not all(starmap(ne, edges)):
        for i, entry in enumerate(obj["edges"]):
            pair = _as_name_list(entry, f"edge {i}")
            if len(pair) != 2:
                raise ParseError(f"edge {i} must have exactly 2 endpoints")
            if pair[0] == pair[1]:
                raise ParseError(f"edge {i} is a self-loop")
            try:
                list(map(table.id_of, pair))
            except UnknownVertexError as exc:
                raise ParseError(f"edge {i}: {exc}") from exc
    try:
        terminals = frozenset(map(table.id_of, _as_name_list(obj["terminals"], "'terminals'")))
    except UnknownVertexError as exc:
        raise ParseError(f"terminals: {exc}") from exc
    graph = Multigraph(frozenset(range(len(table))), dict(enumerate(edges)))
    return ElementConnInstance(graph, terminals), table


def write_element_json(inst: ElementConnInstance, table: NameTable) -> str:
    """``_json_text`` of the vertices, each edge's ends (edges in id order) and the terminals, names sorted."""
    _, rows, named = _ranked(table, inst.graph.vertices)
    edges = [_joined(named(inst.graph.edges[e]), "\n    ") for e in inst.graph.edge_ids()]
    fields = zip(('"vertices": ', '"edges": ', '"terminals": '), (rows, edges, named(inst.terminals)))
    return _joined([key + _joined(items, "\n  ") for key, items in fields], "\n", "{}") + "\n"


def write_oplog(h: Hypergraph, table: NameTable, s: int, ops: Sequence[SplitOffOp]) -> str:
    """Serialize an operation log against ``h``.

    The header repeats the hyperedges in id order, binding every id used by
    the operations to the input file's hyperedge order.
    """
    entries = []
    for op in ops:
        if isinstance(op, Trim):
            entries.append({"op": "trim", "edge": op.edge})
        elif isinstance(op, Merge):
            entries.append({"op": "merge", "keep": op.keep, "absorb": op.absorb})
        else:
            raise TypeError(f"not a split-off operation: {op!r}")
    _, _, named = _ranked(table, h.vertices)
    fields = ['"s": ' + _escape(table.name_of(s)), '"hyperedges": ' + _hyperedge_array(h, named),
              '"ops": ' + _json_value(entries, "\n  ")]
    return _joined(fields, "\n", "{}") + "\n"


@dataclass(frozen=True)
class OpLog:
    """Parsed operation log: split vertex name, id-order hyperedges, operations."""

    s_name: str
    hyperedges: tuple[tuple[str, ...], ...]
    ops: tuple[SplitOffOp, ...]


def _op_id(entry: dict, key: str) -> int:
    """A hyperedge id of an op entry: a JSON integer, never a coerced 3.7, true or "2"."""
    if type(entry[key]) is not int:  # bool is a subclass of int
        raise TypeError(f"{key!r} must be an integer, not {json.dumps(entry[key])}")
    return entry[key]


def parse_oplog(text: str) -> OpLog:
    obj = _decode_json(text)
    if not isinstance(obj, dict) or not {"s", "hyperedges", "ops"} <= set(obj):
        raise ParseError("expected an object with 's', 'hyperedges' and 'ops'")
    if not isinstance(obj["s"], str):
        raise ParseError("'s' must be a string")
    if not isinstance(obj["hyperedges"], list) or not isinstance(obj["ops"], list):
        raise ParseError("'hyperedges' and 'ops' must be arrays")
    header = tuple(
        tuple(_as_name_list(entry, f"hyperedge {i}")) for i, entry in enumerate(obj["hyperedges"])
    )
    ops: list[SplitOffOp] = []
    for i, entry in enumerate(obj["ops"]):
        if not isinstance(entry, dict) or "op" not in entry:
            raise ParseError(f"op {i} is not an operation object")
        kind = entry["op"]
        try:
            if kind == "trim":
                ops.append(Trim(_op_id(entry, "edge")))
            elif kind == "merge":
                ops.append(Merge(_op_id(entry, "keep"), _op_id(entry, "absorb")))
            else:
                raise ParseError(f"op {i} has unknown kind {kind!r}")
        except (KeyError, TypeError) as exc:
            raise ParseError(f"op {i} is malformed: {exc}") from exc
    return OpLog(s_name=obj["s"], hyperedges=header, ops=tuple(ops))


def check_oplog_header(log: OpLog, h: Hypergraph, table: NameTable) -> None:
    """Reject a log whose header does not match the hypergraph it is replayed on."""
    ids = h.edge_ids()
    if len(log.hyperedges) != len(ids):
        raise ParseError(
            f"log header lists {len(log.hyperedges)} hyperedges, file has {len(ids)}"
        )
    _, _, named = _ranked(table, h.vertices, str)
    for eid, header_members in zip(ids, log.hyperedges):
        if named(h.hyperedges[eid]) != sorted(header_members):
            raise ParseError(f"log header disagrees with hyperedge {eid} of the input")


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def incidence_dot(h: Hypergraph, table: NameTable) -> str:
    """DOT rendering of the incidence graph: vertices boxes, hyperedges circles.
    Hyperedge k's node id is ``#ek``, which no vertex name can be; its label is ``ek``."""
    _, rows, named = _ranked(table, h.vertices, _dot_quote)
    lines = ["graph incidence {", "  node [shape=box];", *(f"  {row};" for row in rows)]
    lines.append("  node [shape=circle];")
    lines += [f'  "#e{e}" [label="e{e}"];' for e in h.edge_ids()]
    lines += [f'  {row} -- "#e{e}";' for e in h.edge_ids() for row in named(h.hyperedges[e])]
    lines.append("}")
    return "\n".join(lines) + "\n"


def trace_to_json(trace: MinorTrace, table: NameTable) -> str:
    """``_json_text`` of the steps and the vertex map, the map and every list of names in name order."""
    steps, vertex_map = trace.steps, trace.vertex_map
    ids = set(vertex_map).union(*vertex_map.values(), *map(itemgetter(0), steps), map(itemgetter(3), steps))
    rank, rows, named = _ranked(table, ids - {None})
    fields = ['"edge": ' + _joined(["%s", "%s"], "\n      "), '"edge_id": %d', '"action": %s']
    entry, merging = (_joined(fields + more, "\n    ", "{}") for more in ([], ['"merged_into": %s']))
    entries = []
    for (x, y), edge_id, action, into in steps:
        i, j = rank[x], rank[y]
        if i > j:
            i, j = j, i
        row = (rows[i], rows[j], edge_id, _escape(action))
        entries.append(entry % row if into is None else merging % (*row, rows[rank[into]]))
    lists = [rows[rank[v]] + ": " + _joined(named(vertex_map[v]), "\n    ")
             for v in sorted(vertex_map, key=rank.__getitem__)]
    fields = ['"steps": ' + _joined(entries, "\n  "), '"vertex_map": ' + _joined(lists, "\n  ", "{}")]
    return _joined(fields, "\n", "{}") + "\n"


HYPERGRAPH_FORMATS = ("json", "he")


def detect_format(path: Union[str, Path], override: Optional[str] = None) -> str:
    """Pick 'json' or 'he' from an explicit override or the file extension."""
    if override and override != "auto":
        if override not in HYPERGRAPH_FORMATS:
            raise ParseError(f"unknown format {override!r}")
        return override
    return "json" if Path(path).suffix.lower() == ".json" else "he"


def _read_text(path: Union[str, Path]) -> str:
    """The UTF-8 text of a file; one that cannot be opened or decoded is a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def load_hypergraph(path: Union[str, Path], fmt: Optional[str] = None) -> tuple[Hypergraph, NameTable, str]:
    """Read a hypergraph file; returns the graph, its names, and the format used."""
    kind = detect_format(path, fmt)
    text = _read_text(path)
    if kind == "json":
        h, table = parse_hypergraph_json(text)
    else:
        h, table = parse_hypergraph_text(text)
    return h, table, kind


def dump_hypergraph(h: Hypergraph, table: NameTable, fmt: str) -> str:
    if fmt == "json":
        return write_hypergraph_json(h, table)
    if fmt == "he":
        return write_hypergraph_text(h, table)
    raise ParseError(f"unknown format {fmt!r}")


def load_element_instance(path: Union[str, Path]) -> tuple[ElementConnInstance, NameTable]:
    return parse_element_json(_read_text(path))


def is_element_file(path: Union[str, Path]) -> bool:
    """True when the file is JSON carrying a 'terminals' key."""
    if Path(path).suffix.lower() != ".json":
        return False
    try:
        obj = _decode_json(_read_text(path))
    except ParseError:  # loading the file as a hypergraph reports it
        return False
    return isinstance(obj, dict) and "terminals" in obj
