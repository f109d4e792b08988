"""Command-line frontend.

Reports go to stdout, diagnostics to stderr. Exit codes are stable:

  0  success
  1  mismatch found by verify / oracle --check
  2  parse or usage error
  3  unknown vertex or invalid query endpoints
  4  internal certification failure (indicates a bug)
  5  invalid operation while replaying a log (index reported)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import formats
from .errors import (
    HypersplitError,
    InstanceTooLargeError,
    InternalInvariantError,
    InvalidQueryError,
    NonTerminalEndpointError,
    ParseError,
    ReplayError,
    UnknownVertexError,
)
from .flow import element_connectivity, hyperedge_connectivity
from .hypergraph import Hypergraph, Merge, hypergraph_equal, replay
from .oracle import oracle_element_conn, oracle_lambda
from .reduction import reduce_to_stable
from .splitoff import complete_split_off

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_VERTEX = 3
EXIT_INTERNAL = 4
EXIT_BAD_OP = 5


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_out(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _pair_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-u", metavar="VERTEX", help="first endpoint")
    parser.add_argument("-v", metavar="VERTEX", help="second endpoint")
    parser.add_argument("--all-pairs", action="store_true", help="every unordered pair")
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def _resolve_pairs(args, table: formats.NameTable, eligible: Sequence[int]) -> list[tuple[int, int]]:
    if args.all_pairs:
        if args.u or args.v:
            raise ParseError("--all-pairs excludes -u/-v")
        ordered = sorted(eligible, key=table.name_of)
        return [(u, v) for i, u in enumerate(ordered) for v in ordered[i + 1 :]]
    if not args.u or not args.v:
        raise ParseError("need -u and -v, or --all-pairs")
    return [(table.id_of(args.u), table.id_of(args.v))]


def _query_pairs(args, element: bool, value_of, flow_of=None) -> int:
    """Answer every requested pair with ``value_of(graph, u, v)`` and print the rows.

    With ``flow_of`` each value is also compared to the flow engine; every
    difference is reported on stderr and makes the exit status a mismatch.
    """
    if element:
        graph, table = formats.load_element_instance(args.file)
        name, eligible = "kappa", graph.terminals
    else:
        graph, table, _ = formats.load_hypergraph(args.file, args.format)
        name, eligible = "lambda", graph.vertices
    rows = []
    mismatches = 0
    for u, v in _resolve_pairs(args, table, sorted(eligible)):
        a, b = sorted((table.name_of(u), table.name_of(v)))
        value = value_of(graph, u, v)
        rows.append((a, b, value))
        if flow_of is not None and flow_of(graph, u, v) != value:
            mismatches += 1
            print(f"mismatch: flow {name}({a}, {b}) != oracle {value}", file=sys.stderr)
    if args.json:
        payload = {"pairs": [{"u": a, "v": b, "value": k} for a, b, k in rows]}
        print(json.dumps(payload, indent=2))
    else:
        for a, b, k in rows:
            print(f"{name}({a}, {b}) = {k}")
    return EXIT_MISMATCH if mismatches else EXIT_OK


def cmd_conn(args) -> int:
    return _query_pairs(args, False, hyperedge_connectivity)


def cmd_econn(args) -> int:
    return _query_pairs(args, True, element_connectivity)


def cmd_oracle(args) -> int:
    """Brute-force connectivity values; with --check also compare to the flow engine."""
    element = formats.is_element_file(args.file)
    if element:
        brute, flow = oracle_element_conn, element_connectivity
    else:
        brute, flow = oracle_lambda, hyperedge_connectivity
    return _query_pairs(args, element, brute, flow if args.check else None)


def cmd_reduce(args) -> int:
    inst, table = formats.load_element_instance(args.file)
    reduced, trace = reduce_to_stable(inst)
    if args.trace_out:
        Path(args.trace_out).write_text(formats.trace_to_json(trace, table), encoding="utf-8")
    deleted = sum(1 for s in trace.steps if s.action == "deleted")
    contracted = len(trace.steps) - deleted
    out_text = formats.write_element_json(reduced, table)
    if args.out:
        _write_out(args.out, out_text)
        print(f"reduced: {len(trace.steps)} steps ({deleted} deleted, {contracted} contracted)")
    else:
        sys.stdout.write(out_text)
    return EXIT_OK


def cmd_split(args) -> int:
    h, table, fmt = formats.load_hypergraph(args.file, args.format)
    s = table.id_of(args.s)
    result = complete_split_off(h, s, certify=args.certify)
    h_out = result.h_star
    if args.drop_s:
        h_out = Hypergraph(h_out.vertices - {s}, dict(h_out.hyperedges))
    if args.out:
        _write_out(args.out, formats.dump_hypergraph(h_out, table, fmt))
    if args.log_out:
        Path(args.log_out).write_text(
            formats.write_oplog(h, table, s, result.log), encoding="utf-8"
        )
    merges = sum(1 for op in result.log if isinstance(op, Merge))
    trims = len(result.log) - merges
    if args.json:
        payload = {
            "s": args.s,
            "hyperedges_before": h.num_edges,
            "hyperedges_after": result.h_star.num_edges,
            "operations": {"merge": merges, "trim": trims},
            "pairs_checked": result.certificate.pairs_checked,
            "certificate": "pass",
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"split vertex: {args.s}")
        print(f"hyperedges: {h.num_edges} -> {result.h_star.num_edges}")
        print(f"operations: {len(result.log)} ({merges} merge, {trims} trim)")
        print(f"pairs checked: {result.certificate.pairs_checked}")
        print("certificate: PASS")
    return EXIT_OK


def cmd_replay(args) -> int:
    h, table, fmt = formats.load_hypergraph(args.file, args.format)
    try:
        log = formats.parse_oplog(Path(args.log).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {args.log}: {exc}") from exc
    if args.s is not None and args.s != log.s_name:
        raise ParseError(f"-s {args.s!r} disagrees with the log header ({log.s_name!r})")
    formats.check_oplog_header(log, h, table)
    s = table.id_of(log.s_name)
    result = replay(h, s, log.ops)
    _write_out(args.out, formats.dump_hypergraph(result, table, fmt))
    return EXIT_OK


def cmd_verify(args) -> int:
    ha, ta, _ = formats.load_hypergraph(args.file_a, args.format)
    hb, tb, _ = formats.load_hypergraph(args.file_b, args.format)
    names_a = {ta.name_of(v) for v in ha.vertices}
    names_b = {tb.name_of(v) for v in hb.vertices}
    structural = False
    if names_a == names_b:
        # Rewrite B through A's name table so ids line up for comparison.
        remapped = Hypergraph(
            frozenset(ta.id_of(tb.name_of(v)) for v in hb.vertices),
            {e: frozenset(ta.id_of(tb.name_of(v)) for v in ms) for e, ms in hb.hyperedges.items()},
        )
        structural = hypergraph_equal(ha, remapped)
    print(f"hypergraphs equal: {'yes' if structural else 'no'}")
    if not args.conn:
        return EXIT_OK if structural else EXIT_MISMATCH
    common = sorted(names_a & names_b)
    ok = True
    for i, a in enumerate(common):
        for b in common[i + 1 :]:
            ka = hyperedge_connectivity(ha, ta.id_of(a), ta.id_of(b))
            kb = hyperedge_connectivity(hb, tb.id_of(a), tb.id_of(b))
            if ka != kb:
                ok = False
                print(f"lambda({a}, {b}): {ka} != {kb}")
    pair_count = len(common) * (len(common) - 1) // 2
    print(f"connectivity over {len(common)} common vertices ({pair_count} pairs): "
          f"{'equal' if ok else 'DIFFERENT'}")
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_export_dot(args) -> int:
    h, table, _ = formats.load_hypergraph(args.file, args.format)
    _write_out(args.out, formats.incidence_dot(h, table))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersplit",
        description="Hypergraph connectivity, element-connectivity, and splitting-off.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, fmt: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if fmt:
            p.add_argument("--format", choices=("auto", "json", "he"), default="auto",
                           help="input format (default: by extension)")
        return p

    p = add("conn", cmd_conn, "local edge-connectivity of a hypergraph")
    p.add_argument("file")
    _pair_args(p)

    p = add("econn", cmd_econn, "element-connectivity of a terminal graph", fmt=False)
    p.add_argument("file")
    _pair_args(p)

    p = add("oracle", cmd_oracle, "brute-force connectivity (small instances)")
    p.add_argument("file")
    _pair_args(p)
    p.add_argument("--check", action="store_true", help="compare against the flow engine")

    p = add("reduce", cmd_reduce, "reduce non-terminal edges to a stable set", fmt=False)
    p.add_argument("file")
    p.add_argument("-o", "--out", help="write the reduced instance here (default stdout)")
    p.add_argument("--trace-out", help="write the reduction trace JSON here")

    p = add("split", cmd_split, "complete splitting-off at a vertex")
    p.add_argument("file")
    p.add_argument("-s", required=True, metavar="VERTEX", help="vertex to split off")
    p.add_argument("-o", "--out", help="write the resulting hypergraph here")
    p.add_argument("--log-out", help="write the operation log JSON here")
    p.add_argument("--certify", action=argparse.BooleanOptionalAction, default=None,
                   help="force per-stage certification on/off")
    p.add_argument("--drop-s", action="store_true", help="omit the isolated vertex from the output")
    p.add_argument("--json", action="store_true", help="machine-readable summary")

    p = add("replay", cmd_replay, "apply a recorded operation log")
    p.add_argument("file")
    p.add_argument("--log", required=True, help="operation log JSON")
    p.add_argument("-s", metavar="VERTEX", help="must match the log header when given")
    p.add_argument("-o", "--out", help="write the replayed hypergraph here (default stdout)")

    p = add("verify", cmd_verify, "compare two hypergraph files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--conn", action="store_true",
                   help="exit status reflects connectivity equality over common vertices")

    p = add("export-dot", cmd_export_dot, "DOT rendering of the incidence graph")
    p.add_argument("file")
    p.add_argument("-o", "--out", help="write the DOT file here (default stdout)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        return _fail(str(exc), EXIT_PARSE)
    except (UnknownVertexError, NonTerminalEndpointError, InvalidQueryError,
            InstanceTooLargeError) as exc:
        return _fail(str(exc), EXIT_VERTEX)
    except InternalInvariantError as exc:
        return _fail(f"internal certification failure: {exc}", EXIT_INTERNAL)
    except ReplayError as exc:
        return _fail(f"invalid operation at index {exc.index}: {exc.cause}", EXIT_BAD_OP)
    except HypersplitError as exc:
        return _fail(str(exc), EXIT_PARSE)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
