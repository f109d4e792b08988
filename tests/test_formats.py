"""File formats: parsing, serialization round-trips, DOT, logs, traces."""

import json

import pytest

from hypersplit import (
    ElementConnInstance,
    Hypergraph,
    Merge,
    Multigraph,
    ParseError,
    Trim,
    UnknownVertexError,
    hypergraph_equal,
)
from hypersplit.formats import (
    NameTable,
    OpLog,
    _json_text,
    check_oplog_header,
    detect_format,
    incidence_dot,
    is_element_file,
    parse_element_json,
    parse_hypergraph_json,
    parse_hypergraph_text,
    parse_oplog,
    trace_to_json,
    write_element_json,
    write_hypergraph_json,
    write_hypergraph_text,
    write_oplog,
)
from hypersplit.reduction import MinorTrace, ReductionStep, reduce_to_stable
from hypersplit.splitoff import complete_split_off

from conftest import corpus_hypergraph, named_hypergraphs, sparse_element_instance

TRIANGLE_JSON = '{"vertices": ["a", "b", "c"], "hyperedges": [["a","b"], ["b","c"], ["a","c"]]}'


class TestNameTable:
    def test_sorted_assignment(self):
        table = NameTable.from_names(["c", "a", "b"])
        assert table.names == ("a", "b", "c")
        assert table.id_of("b") == 1
        assert table.name_of(2) == "c"

    def test_unknown_name(self):
        with pytest.raises(UnknownVertexError):
            NameTable.from_names(["a"]).id_of("zz")

    @pytest.mark.parametrize("vid", [-1, -3, 3])
    def test_unknown_id(self, vid):
        with pytest.raises(UnknownVertexError) as info:
            NameTable.from_names(["a", "b", "c"]).name_of(vid)
        assert str(info.value) == f"unknown vertex id {vid}"

    @pytest.mark.parametrize("bad", ["", "has space", "tab\there", "#hash"])
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ParseError):
            NameTable.from_names(["a", bad])

    # names -> the message; the first bad name in table order is reported,
    # and its first failing rule: a string, no whitespace, no leading '#'.
    BAD_NAMES = {
        ("", "a"): "vertex name must be a non-empty string, got ''",
        ("a", 3): "vertex name must be a non-empty string, got 3",
        ("a", None, "b c"): "vertex name must be a non-empty string, got None",
        ("a", "has space"): "vertex name 'has space' contains whitespace",
        ("a", "tab\there"): "vertex name 'tab\\there' contains whitespace",
        (" a",): "vertex name ' a' contains whitespace",
        ("a", "b\u2028"): "vertex name 'b\\u2028' contains whitespace",
        ("a", "#hash"): "vertex name '#hash' starts with '#'",
        ("#x b",): "vertex name '#x b' contains whitespace",
        ("b c", "#x"): "vertex name 'b c' contains whitespace",
        ("#x", "b c"): "vertex name '#x' starts with '#'",
        ("a", "a", "#x"): "vertex name '#x' starts with '#'",
        ("a", "a"): "duplicate vertex name",
    }

    @pytest.mark.parametrize("names", list(BAD_NAMES))
    def test_bad_name_messages(self, names):
        with pytest.raises(ParseError) as info:
            NameTable(names)
        assert str(info.value) == self.BAD_NAMES[names]

    def test_names_are_sorted_before_the_check(self):
        with pytest.raises(ParseError) as info:
            NameTable.from_names(["z z", "b c", "#y", "a"])
        assert str(info.value) == "vertex name '#y' starts with '#'"

    def test_inner_hash_is_a_name(self):
        table = NameTable.from_names(["a#", "b#c"])
        assert table.id_of("b#c") == 1


class TestHypergraphJson:
    def test_parse_triangle(self):
        h, table = parse_hypergraph_json(TRIANGLE_JSON)
        assert table.names == ("a", "b", "c")
        assert h.num_edges == 3
        assert h.hyperedges[0] == {0, 1}

    def test_duplicate_entries_are_parallel_edges(self):
        h, _ = parse_hypergraph_json('{"vertices": ["a","b"], "hyperedges": [["a","b"],["b","a"]]}')
        assert h.num_edges == 2
        assert h.hyperedges[0] == h.hyperedges[1]

    MALFORMED = {
        "not json at all": "invalid JSON: Expecting value: line 1 column 1 (char 0)",
        '{"vertices": ["a","b"]}': "expected an object with 'vertices' and 'hyperedges'",
        '{"vertices": ["a","a"], "hyperedges": []}': "duplicate name in 'vertices'",
        '{"vertices": ["a","b c"], "hyperedges": []}': "vertex name 'b c' contains whitespace",
        '{"vertices": ["a","b"], "hyperedges": "nope"}': "'hyperedges' must be an array",
        '{"vertices": ["a","b"], "hyperedges": [["a","a","b"]]}': "duplicate vertex inside hyperedge 0",
        '{"vertices": ["a","b"], "hyperedges": [["a","zz","zz"]]}': "duplicate vertex inside hyperedge 0",
        '{"vertices": ["a","b"], "hyperedges": [["a"]]}': "hyperedge 0 has fewer than 2 vertices",
        '{"vertices": ["a","b"], "hyperedges": [[]]}': "hyperedge 0 has fewer than 2 vertices",
        '{"vertices": ["a","b"], "hyperedges": [["a","zz"]]}': "hyperedge 0: unknown vertex 'zz'",
        # Iterating the next two yields known names; neither is an array of strings.
        '{"vertices": ["a","b"], "hyperedges": [["a","b"], "ab"]}': "hyperedge 1 must be an array of strings",
        '{"vertices": ["a","b"], "hyperedges": [{"a": 1, "b": 2}]}': "hyperedge 0 must be an array of strings",
        '{"vertices": ["a","b"], "hyperedges": [3]}': "hyperedge 0 must be an array of strings",
        '{"vertices": ["a","b"], "hyperedges": [["a", 3]]}': "hyperedge 0 must be an array of strings",
        '{"vertices": ["a","b"], "hyperedges": [["a", null]]}': "hyperedge 0 must be an array of strings",
        '{"vertices": ["a","b"], "hyperedges": [["a", ["b"]]]}': "hyperedge 0 must be an array of strings",
    }

    @pytest.mark.parametrize("text", list(MALFORMED))
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError) as info:
            parse_hypergraph_json(text)
        assert str(info.value) == self.MALFORMED[text]

    def test_round_trip(self):
        h, table = parse_hypergraph_json(TRIANGLE_JSON)
        text = write_hypergraph_json(h, table)
        h2, table2 = parse_hypergraph_json(text)
        assert table2.names == table.names
        assert hypergraph_equal(h, h2)
        assert write_hypergraph_json(h2, table2) == text


class TestHypergraphText:
    def test_parse_with_header_and_comments(self):
        text = "# a comment\n#vertices: z\n\ns a\ns b\n"
        h, table = parse_hypergraph_text(text)
        assert table.names == ("a", "b", "s", "z")
        assert h.num_edges == 2
        assert h.degree(table.id_of("z")) == 0

    def test_rejects_duplicate_in_line(self):
        with pytest.raises(ParseError):
            parse_hypergraph_text("a a b\n")

    def test_rejects_short_line(self):
        with pytest.raises(ParseError):
            parse_hypergraph_text("a\n")

    # The first bad line is reported, before any bad name; comments, blank
    # lines and str.splitlines' other line breaks count as lines.
    MALFORMED = {
        "a a b\n": "line 1: duplicate vertex inside hyperedge",
        "a\n": "line 1: hyperedge has fewer than 2 vertices",
        "a a\n": "line 1: duplicate vertex inside hyperedge",
        "a b\n\n# c c\n  c d c\ne\n": "line 4: duplicate vertex inside hyperedge",
        "a b\nx\ny y\n": "line 2: hyperedge has fewer than 2 vertices",
        "#vertices: q\na b\u2028c\n": "line 3: hyperedge has fewer than 2 vertices",
        "a #b\nc\n": "line 2: hyperedge has fewer than 2 vertices",
        "#vertices: #x\na b\n": "vertex name '#x' starts with '#'",
        "#vertices:  \na b\nc #d e\n": "vertex name '#d' starts with '#'",
        "b c\nb\xa0b c\n": "line 2: duplicate vertex inside hyperedge",
    }

    @pytest.mark.parametrize("text", list(MALFORMED))
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError) as info:
            parse_hypergraph_text(text)
        assert str(info.value) == self.MALFORMED[text]

    def test_header_and_comment_lines(self):
        text = "  # x y\n#vertices:z\n#vertices: y w\n\t\na b\n#comment a a\n"
        h, table = parse_hypergraph_text(text)
        assert table.names == ("a", "b", "w", "y", "z")
        assert dict(h.hyperedges) == {0: {0, 1}}

    def test_rejects_name_read_back_as_a_comment(self):
        # Written back, the hyperedge {"#b", "a"} would be the comment line "#b a".
        with pytest.raises(ParseError) as info:
            parse_hypergraph_text("a #b\n")
        assert str(info.value) == "vertex name '#b' starts with '#'"

    def test_round_trip_keeps_isolated_vertices(self):
        h, table = parse_hypergraph_text("#vertices: lonely\na b c\na b\n")
        text = write_hypergraph_text(h, table)
        h2, table2 = parse_hypergraph_text(text)
        assert table2.names == table.names
        assert hypergraph_equal(h, h2)
        assert write_hypergraph_text(h2, table2) == text


class TestElementJson:
    GOOD = '{"vertices": ["u","v","p"], "edges": [["u","p"],["p","v"],["p","v"]], "terminals": ["u","v"]}'

    def test_parse(self):
        inst, table = parse_element_json(self.GOOD)
        assert inst.terminals == {table.id_of("u"), table.id_of("v")}
        assert len(inst.graph.edges) == 3

    # text -> the message: the first bad edge, and its first failing rule.
    MALFORMED = {
        '{"vertices": ["a"], "edges": []}':
            "expected an object with 'vertices', 'edges' and 'terminals'",
        '{"vertices": ["a","b"], "edges": [["a","a"]], "terminals": ["a"]}': "edge 0 is a self-loop",
        '{"vertices": ["a","b"], "edges": [["a"]], "terminals": ["a"]}': "edge 0 must have exactly 2 endpoints",
        '{"vertices": ["a","b"], "edges": [["a","zz"]], "terminals": ["a"]}': "edge 0: unknown vertex 'zz'",
        '{"vertices": ["a","b"], "edges": [], "terminals": ["zz"]}': "terminals: unknown vertex 'zz'",
        '{"vertices": ["a","a"], "edges": [], "terminals": []}': "duplicate name in 'vertices'",
        '{"vertices": ["a","b c"], "edges": [], "terminals": []}': "vertex name 'b c' contains whitespace",
        '{"vertices": ["a",1], "edges": [], "terminals": []}': "'vertices' must be an array of strings",
        '{"vertices": ["a","b"], "edges": {}, "terminals": []}': "'edges' must be an array",
        '{"vertices": ["a","b"], "edges": ["ab"], "terminals": []}': "edge 0 must be an array of strings",
        '{"vertices": ["a","b"], "edges": [["a", 1]], "terminals": []}': "edge 0 must be an array of strings",
        '{"vertices": ["a","b"], "edges": [["a", ["b"]]], "terminals": []}': "edge 0 must be an array of strings",
        '{"vertices": ["a","b"], "edges": [["a","b","a"]], "terminals": []}': "edge 0 must have exactly 2 endpoints",
        '{"vertices": ["a","b"], "edges": [["zz","zz"]], "terminals": []}': "edge 0 is a self-loop",
        '{"vertices": ["a","b"], "edges": [["a","b"], ["b","b"], ["zz","a"]], "terminals": []}':
            "edge 1 is a self-loop",
        '{"vertices": ["a","b"], "edges": [["a","b"], ["a","zz"], ["b"]], "terminals": ["yy"]}':
            "edge 1: unknown vertex 'zz'",
        '{"vertices": ["a","b"], "edges": [["a","b"]], "terminals": "a"}': "'terminals' must be an array of strings",
        '{"vertices": ["a","b"], "edges": [["a","b"]], "terminals": ["a", null]}':
            "'terminals' must be an array of strings",
        '{"vertices": ["a","b"], "edges": [["a","b"]], "terminals": ["a", "zz", "yy"]}':
            "terminals: unknown vertex 'zz'",
    }

    @pytest.mark.parametrize("text", list(MALFORMED))
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError) as info:
            parse_element_json(text)
        assert str(info.value) == self.MALFORMED[text]

    def test_round_trip(self):
        inst, table = parse_element_json(self.GOOD)
        text = write_element_json(inst, table)
        inst2, table2 = parse_element_json(text)
        assert write_element_json(inst2, table2) == text
        assert sorted(inst2.graph.edges.values()) == sorted(inst.graph.edges.values())


class TestOpLog:
    def test_round_trip(self):
        h, table = parse_hypergraph_text("s a\ns b\n")
        s = table.id_of("s")
        ops = (Merge(0, 1), Trim(0))
        text = write_oplog(h, table, s, ops)
        log = parse_oplog(text)
        assert log.s_name == "s"
        assert log.ops == ops
        check_oplog_header(log, h, table)

    def test_header_mismatch_detected(self):
        h, table = parse_hypergraph_text("s a\ns b\n")
        log = parse_oplog(write_oplog(h, table, table.id_of("s"), (Trim(0),)))
        other, other_table = parse_hypergraph_text("s a c\ns b\n")
        with pytest.raises(ParseError):
            check_oplog_header(log, other, other_table)

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"s": "s", "hyperedges": []}',
            '{"s": "s", "hyperedges": [], "ops": [{"op": "frobnicate"}]}',
            '{"s": "s", "hyperedges": [], "ops": [{"op": "trim"}]}',
            '{"s": "s", "hyperedges": [], "ops": [{"op": "merge", "keep": 0}]}',
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_oplog(text)

    # Each id must be a JSON integer: none of these may be coerced into one.
    BAD_IDS = {"3.7": "3.7", "true": "true", "false": "false", '"2"': '"2"', "null": "null",
               "[0]": "[0]", "1e2": "100.0", "2.0": "2.0"}

    @pytest.mark.parametrize("value", list(BAD_IDS))
    @pytest.mark.parametrize("key, fields", [
        ("edge", '"op": "trim", "edge": {}'),
        ("keep", '"op": "merge", "keep": {}, "absorb": 1'),
        ("absorb", '"op": "merge", "keep": 0, "absorb": {}'),
    ])
    def test_ids_must_be_json_integers(self, key, fields, value):
        ops = '{"op": "trim", "edge": 0}, {' + fields.format(value) + "}"
        with pytest.raises(ParseError) as info:
            parse_oplog('{"s": "s", "hyperedges": [], "ops": [' + ops + "]}")
        assert str(info.value) == f"op 1 is malformed: '{key}' must be an integer, not {self.BAD_IDS[value]}"


class TestDot:
    def test_shapes_and_edges(self):
        h, table = parse_hypergraph_json(TRIANGLE_JSON)
        dot = incidence_dot(h, table)
        assert dot.startswith("graph incidence {")
        assert dot.index("shape=box") < dot.index("shape=circle")
        assert dot.count(" -- ") == 6
        assert '"a" -- "#e0";' in dot
        assert '"#e0" [label="e0"];' in dot

    def test_quoting(self):
        h, table = parse_hypergraph_json('{"vertices": ["x\\"y", "b"], "hyperedges": [["x\\"y","b"]]}')
        dot = incidence_dot(h, table)
        assert '"x\\"y"' in dot

    def test_vertex_named_like_a_hyperedge_node(self):
        """A vertex named ``e0`` is its own node, not hyperedge 0's."""
        h, table = parse_hypergraph_text("e0 e1\ne1 x\n")
        assert incidence_dot(h, table).splitlines() == [
            "graph incidence {", "  node [shape=box];", '  "e0";', '  "e1";', '  "x";',
            "  node [shape=circle];", '  "#e0" [label="e0"];', '  "#e1" [label="e1"];',
            '  "e0" -- "#e0";', '  "e1" -- "#e0";', '  "e1" -- "#e1";', '  "x" -- "#e1";', "}"]


class TestTraceJson:
    def test_contains_steps_and_vertex_map(self):
        inst, table = parse_element_json(
            '{"vertices": ["u","v","p","q"], "edges": [["u","p"],["p","q"],["q","v"]],'
            ' "terminals": ["u","v"]}'
        )
        _, trace = reduce_to_stable(inst)
        import json

        payload = json.loads(trace_to_json(trace, table))
        assert payload["steps"][0]["action"] == "contracted"
        assert payload["steps"][0]["edge"] == ["p", "q"]
        assert sorted(payload["vertex_map"]["p"]) == ["p", "q"]


def _names(table, vertices):
    return sorted(map(table.name_of, vertices))


def _element_obj(inst, table):
    """The dict ``write_element_json`` wrote through ``json.dumps(indent=2)``
    before it wrote its text from ids."""
    return {"vertices": _names(table, inst.graph.vertices),
            "edges": [_names(table, inst.graph.endpoints(e)) for e in inst.graph.edge_ids()],
            "terminals": _names(table, inst.terminals)}


def _hypergraph_obj(h, table):
    """The dict ``write_hypergraph_json`` wrote through ``json.dumps(indent=2)``
    before it wrote its text from ids."""
    return {"vertices": _names(table, h.vertices),
            "hyperedges": [_names(table, h.hyperedges[e]) for e in h.edge_ids()]}


def _oplog_obj(h, table, s, ops):
    """The dict ``write_oplog`` wrote through ``json.dumps(indent=2)``."""
    entries = [{"op": "trim", "edge": op.edge} if isinstance(op, Trim)
               else {"op": "merge", "keep": op.keep, "absorb": op.absorb} for op in ops]
    return {"s": table.name_of(s), "hyperedges": _hypergraph_obj(h, table)["hyperedges"], "ops": entries}


def _hypergraph_text(h, table):
    """``write_hypergraph_text`` as written name by name."""
    lines = ["#vertices: " + " ".join(_names(table, h.vertices))]
    lines += [" ".join(_names(table, h.hyperedges[e])) for e in h.edge_ids()]
    return "\n".join(lines) + "\n"


def _dot(h, table):
    """``incidence_dot`` as written name by name."""
    def quote(name):
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph incidence {", "  node [shape=box];"]
    lines += [f"  {quote(name)};" for name in _names(table, h.vertices)]
    lines.append("  node [shape=circle];")
    lines += [f'  "#e{e}" [label="e{e}"];' for e in h.edge_ids()]
    lines += [f'  {quote(name)} -- "#e{e}";' for e in h.edge_ids() for name in _names(table, h.hyperedges[e])]
    return "\n".join(lines + ["}"]) + "\n"


def _header_mismatch(log, h, table):
    """The first hyperedge whose header entry disagrees with ``h``, as checked name by name."""
    for eid, members in zip(h.edge_ids(), log.hyperedges):
        if _names(table, h.hyperedges[eid]) != sorted(members):
            return eid
    return None


def _trace_obj(trace, table):
    """The dict ``trace_to_json`` wrote through ``json.dumps(indent=2)``
    before it wrote its text from ids."""
    name_of = table.name_of
    steps = []
    for step in trace.steps:
        entry = {"edge": sorted(map(name_of, step.edge)), "edge_id": step.edge_id, "action": step.action}
        if step.merged_into is not None:
            entry["merged_into"] = name_of(step.merged_into)
        steps.append(entry)
    vertex_map = {name_of(v): sorted(map(name_of, originals)) for v, originals in trace.vertex_map.items()}
    return {"steps": steps, "vertex_map": dict(sorted(vertex_map.items()))}


def _dumped(obj):
    return json.dumps(obj, indent=2) + "\n"


_MARKS = ('"', "\\", "\u00e9", "\U0001d11e", "\x00")  # U+2028 splits a name: no table holds it


def _tables(n):
    """Names in id order, in reverse id order, and needing escapes in an order
    of their own."""
    plain = tuple(f"v{i:02d}" for i in range(n))
    return [NameTable(plain), NameTable(plain[::-1]),
            NameTable(tuple(f"{_MARKS[i % 5]}{i:02d}{_MARKS[i * 3 % 5]}" for i in range(n)))]


class TestWritersFromIds:
    """Every writer builds its text from ids, not from dicts or per-name calls;
    it must be the bytes ``json.dumps`` gave for the dicts they built before,
    or the text the name-by-name writers gave."""

    @pytest.mark.parametrize("trial", range(40))
    def test_seeded_corpus(self, trial):
        inst = sparse_element_instance(trial)
        reduced, trace = reduce_to_stable(inst)
        for table in _tables(len(inst.graph.vertices)):
            for graph in (inst, reduced):
                assert write_element_json(graph, table) == _dumped(_element_obj(graph, table))
            assert trace_to_json(trace, table) == _dumped(_trace_obj(trace, table))

    def test_contractions_merge_several_names(self):
        traces = [reduce_to_stable(sparse_element_instance(trial))[1] for trial in range(40)]
        assert any(len(originals) > 2 for trace in traces for originals in trace.vertex_map.values())
        assert any(step.merged_into is not None for trace in traces for step in trace.steps)

    def test_no_name_holds_a_line_separator(self):
        with pytest.raises(ParseError, match="whitespace"):
            NameTable(("a", "b\u2028c"))

    @pytest.mark.parametrize("vertex_map", [{}, {0: {0}, 2: {2, 1}}])
    def test_trace_without_steps(self, vertex_map):
        trace = MinorTrace(steps=(), vertex_map=vertex_map)
        for table in _tables(3):
            assert trace_to_json(trace, table) == _dumped(_trace_obj(trace, table))

    @staticmethod
    def _check_hypergraph(h, table):
        assert write_hypergraph_json(h, table) == _dumped(_hypergraph_obj(h, table))
        assert write_hypergraph_text(h, table) == _hypergraph_text(h, table)
        assert incidence_dot(h, table) == _dot(h, table)

    @pytest.mark.parametrize("trial", range(40))
    def test_hypergraph_writers_on_a_seeded_corpus(self, trial):
        h = corpus_hypergraph(trial, max_n=12, max_m=16)
        s = max(sorted(h.vertices), key=h.degree)
        result = complete_split_off(h, s)
        for table in _tables(len(h.vertices)):
            for graph in (h, result.h_star):
                self._check_hypergraph(graph, table)
            text = write_oplog(h, table, s, result.log)
            assert text == _dumped(_oplog_obj(h, table, s, result.log))
            log = parse_oplog(text)
            check_oplog_header(log, h, table)
            header = log.hyperedges
            check_oplog_header(OpLog(log.s_name, tuple(entry[::-1] for entry in header), log.ops), h, table)
            for k in range(len(header) - 1):  # each entry swapped with the next: the first to differ is named
                swapped = OpLog(log.s_name, header[:k] + (header[k + 1], header[k]) + header[k + 2:], log.ops)
                eid = _header_mismatch(swapped, h, table)
                if eid is None:
                    check_oplog_header(swapped, h, table)
                else:
                    with pytest.raises(ParseError, match=f"disagrees with hyperedge {eid} of"):
                        check_oplog_header(swapped, h, table)

    @pytest.mark.parametrize("vertices", [(), (0, 1, 2)])
    def test_hypergraph_without_hyperedges(self, vertices):
        h = Hypergraph(frozenset(vertices), {})
        for table in _tables(3):
            self._check_hypergraph(h, table)
            if vertices:
                assert write_oplog(h, table, 1, ()) == _dumped(_oplog_obj(h, table, 1, ()))
                check_oplog_header(OpLog(table.name_of(1), (), ()), h, table)

    @pytest.mark.parametrize("vertices, terminals", [((), ()), ((0, 1, 2), (0, 2)), ((1,), ())])
    def test_instance_without_edges(self, vertices, terminals):
        inst = ElementConnInstance(Multigraph(frozenset(vertices), {}), frozenset(terminals))
        for table in _tables(3):
            assert write_element_json(inst, table) == _dumped(_element_obj(inst, table))

    @pytest.mark.parametrize("vid", [-1, 3])
    def test_unnamed_id_raises(self, vid):
        """An id the table does not name is an error, never a name read from
        the end of the table or past it."""
        table = NameTable(("a", "b", "c"))
        instances = [ElementConnInstance(Multigraph(frozenset({0, vid}), {}), frozenset()),
                     ElementConnInstance(Multigraph(frozenset({0, 1, vid}), {0: (1, vid)}), frozenset({0}))]
        traces = [MinorTrace(steps=(), vertex_map={vid: {vid}}),
                  MinorTrace(steps=(), vertex_map={0: {0, vid}}),
                  MinorTrace(steps=(ReductionStep((1, vid), 0, "deleted"),), vertex_map={0: {0}}),
                  MinorTrace(steps=(ReductionStep((0, 1), 0, "contracted", vid),), vertex_map={0: {0, 1}})]
        for inst in instances:
            with pytest.raises(UnknownVertexError, match=f"unknown vertex id {vid}$"):
                write_element_json(inst, table)
        for trace in traces:
            with pytest.raises(UnknownVertexError, match=f"unknown vertex id {vid}$"):
                trace_to_json(trace, table)
        writers = (write_hypergraph_json, write_hypergraph_text, incidence_dot,
                   lambda h, table: write_oplog(h, table, 0, ()))
        hypergraphs = [Hypergraph(frozenset({0, vid}), {}),
                       Hypergraph(frozenset({0, 1, vid}), {0: frozenset({1, vid})})]
        for h in hypergraphs:
            for write in writers:
                with pytest.raises(UnknownVertexError, match=f"unknown vertex id {vid}$"):
                    write(h, table)
            if h.hyperedges:
                with pytest.raises(UnknownVertexError, match=f"unknown vertex id {vid}$"):
                    check_oplog_header(OpLog("a", (("b", "c"),), ()), h, table)


class TestJsonText:
    """Every JSON text is written in ``json.dumps``' ``indent=2`` layout,
    ASCII escapes and a final newline included."""

    def test_equals_json_dumps(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        text = st.one_of(st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028\U0001d11e", ""]))
        scalars = st.one_of(text, st.integers(), st.booleans(), st.none())
        values = st.recursive(
            scalars, lambda inner: st.one_of(st.lists(inner), st.dictionaries(text, inner)), max_leaves=30)

        @hypothesis.settings(max_examples=400, deadline=None, database=None, derandomize=True)
        @hypothesis.given(values)
        def check(obj):
            assert _json_text(obj) == json.dumps(obj, indent=2) + "\n"

        check()

    @pytest.mark.parametrize("obj", [[], {}, [[], {}, ""], ["ab", ["cd"]], ["ab", 1, None, True], {"k": ["ab", {}]}])
    def test_empty_and_mixed_containers(self, obj):
        assert _json_text(obj) == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize("trial", range(12))
    def test_public_writers_reencode_to_themselves(self, trial):
        h = corpus_hypergraph(trial)
        inst = sparse_element_instance(trial)  # rich in reduction steps
        n = max(len(h.vertices), len(inst.graph.vertices))
        table = NameTable(tuple(f'v{i:02d}"\\\u00e9\u2603' for i in range(n)))  # sorted as ids
        s = trial % len(h.vertices)
        reduced, trace = reduce_to_stable(inst)
        texts = [write_hypergraph_json(h, table), write_element_json(inst, table),
                 write_element_json(reduced, table), trace_to_json(trace, table),
                 write_oplog(h, table, s, complete_split_off(h, s).log)]
        for text in texts:
            assert text == json.dumps(json.loads(text), indent=2) + "\n"


class TestDispatch:
    def test_detect_format(self):
        assert detect_format("x.json") == "json"
        assert detect_format("x.he") == "he"
        assert detect_format("x.txt") == "he"
        assert detect_format("x.json", "he") == "he"
        with pytest.raises(ParseError):
            detect_format("x.json", "xml")


class TestUnreadableText:
    """JSON nested too deep to decode is a ParseError, and a file holding it,
    or one that is not UTF-8, is no element file."""

    @pytest.mark.parametrize("parse", [parse_hypergraph_json, parse_element_json, parse_oplog])
    def test_deep_json(self, parse):
        with pytest.raises(ParseError, match="^invalid JSON: "):
            parse("[" * 200000)

    @pytest.mark.parametrize("content", [b"a b\xff\n", b"[" * 200000], ids=["non-utf8", "deep"])
    def test_no_element_file(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert is_element_file(path) is False


class TestParseDumpProperty:
    """parse after dump is the identity, and the dumped text a fixpoint, for
    every format; derandomized, with isolated vertices and parallel edges."""

    def run(self, check):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        settings = hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
        settings(hypothesis.given(named_hypergraphs(st), st.data())(check))()

    def test_hypergraph_json_and_text(self):
        def check(drawn, _data):
            h, table, _ = drawn
            for write, parse in ((write_hypergraph_json, parse_hypergraph_json),
                                 (write_hypergraph_text, parse_hypergraph_text)):
                text = write(h, table)
                h2, table2 = parse(text)
                assert table2.names == table.names
                assert hypergraph_equal(h2, h)
                assert write(h2, table2) == text

        self.run(check)

    def test_element_json(self):
        st = pytest.importorskip("hypothesis.strategies")

        def check(drawn, data):
            _, table, _ = drawn
            n = len(table)
            pairs = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
            edges = data.draw(st.lists(pairs, max_size=10)) if n > 1 else []
            edges += data.draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else []
            terminals = data.draw(st.sets(st.integers(0, n - 1)))
            graph = Multigraph(frozenset(range(n)), {i: tuple(e) for i, e in enumerate(edges)})
            inst = ElementConnInstance(graph, frozenset(terminals))
            text = write_element_json(inst, table)
            inst2, table2 = parse_element_json(text)
            assert table2.names == table.names
            assert inst2.graph.vertices == inst.graph.vertices
            assert inst2.graph.edges == inst.graph.edges
            assert inst2.terminals == inst.terminals
            assert write_element_json(inst2, table2) == text

        self.run(check)

    def test_op_log(self):
        st = pytest.importorskip("hypothesis.strategies")

        def check(drawn, data):
            h, table, s = drawn
            ids = st.integers(0, 20)
            ops = tuple(data.draw(st.lists(st.one_of(st.builds(Trim, ids), st.builds(Merge, ids, ids)))))
            text = write_oplog(h, table, s, ops)
            log = parse_oplog(text)
            assert log.s_name == table.name_of(s)
            assert log.ops == ops
            check_oplog_header(log, h, table)
            assert write_oplog(h, table, s, log.ops) == text

        self.run(check)
