"""Command-line frontend.

Reports go to stdout, diagnostics to stderr. Exit codes are stable:

  0  success
  1  mismatch found by verify / oracle --check
  2  parse or usage error, an unreadable input or an unwritable output
     (a stdout closed by its reader too)
  3  unknown vertex or invalid query endpoints
  4  internal certification failure or any other unexpected error (a bug)
  5  invalid operation while replaying a log (index reported)

A message that cannot be written, to a stderr that is missing, closed or
gone, is dropped; the exit code stays the same. Output files are rewritten in
place: with ``O_TRUNC``, ext4 (``auto_da_alloc``) starts writeback on close.

Importing this module loads only the standard library and ``errors``. Each
``cmd_*`` imports the modules it runs when it is called, and looks their
names up then, so a replaced or wrapped function is the one that runs: a
``conn`` never loads ``reduction``, ``splitoff`` or ``oracle``, and a
``split`` never loads ``oracle``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import os
import stat
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

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

if TYPE_CHECKING:
    from .formats import NameTable

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_VERTEX = 3
EXIT_INTERNAL = 4
EXIT_BAD_OP = 5


def _to_null(stream) -> None:
    """Point ``stream``'s file descriptor at the null device, so that what is
    still buffered for a reader that has gone cannot fail to flush at exit."""
    with contextlib.suppress(OSError, ValueError), open(os.devnull, "w") as null:
        os.dup2(null.fileno(), stream.fileno())


def _fail(message: str, code: int) -> int:
    """Report ``message`` on stderr and return ``code``; never raise. A stderr
    that is missing, closed or gone drops the message, and the code alone
    tells what happened."""
    if sys.stderr is not None:  # None in a process started without fd 2
        try:
            print(f"error: {message}", file=sys.stderr, flush=True)
        except (OSError, ValueError):
            _to_null(sys.stderr)
    return code


def _write_out(*outputs: tuple[str | Path | None, str]) -> None:
    """Write each ``(path, text)`` in turn, to stdout where ``path`` is None or
    the string ``-`` (a ``Path`` is always a file). A file that cannot be
    written, or a regular file that two outputs name, is a usage error. Every
    file is opened once before any is written, so such an error leaves each
    existing file as it was (the check's new files are removed). Then each file
    is rewritten in place, a regular one cut at the end of the bytes written."""
    made = []  # the files the check created
    named = {}  # (device, inode) of each file opened -> the path that named it
    files, stats = {}, {}  # index in outputs -> descriptor (until closed), os.fstat of its file
    try:
        for i, path in [(i, p) for i, (p, _) in enumerate(outputs) if p not in (None, "-")]:
            existed = os.path.lexists(path)
            files[i] = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            made += [] if existed else [path]
            st = stats[i] = os.fstat(files[i])
            if stat.S_ISREG(st.st_mode) and (st.st_dev, st.st_ino) in named:
                raise OSError(f"another output writes the same file ({named[st.st_dev, st.st_ino]})")
            named[st.st_dev, st.st_ino] = path
    except OSError as exc:
        for made_path in made:
            os.remove(made_path)
        raise ParseError(f"cannot write {path}: {exc}") from exc
    else:
        for i, (path, text) in enumerate(outputs):
            if i not in files:
                if sys.stdout is not None:  # None in a process started without fd 1; print skips it too
                    sys.stdout.write(text)
                continue
            data, done = text.encode("utf-8"), 0
            try:
                try:
                    while done < len(data):
                        done += os.write(files[i], data[done:])
                finally:  # also after a failed write
                    if stat.S_ISREG(stats[i].st_mode):
                        os.ftruncate(files[i], done)
                os.close(files.pop(i))
            except OSError as exc:
                raise ParseError(f"cannot write {path}: {exc}") from exc
    finally:
        for fd in files.values():  # left open by an error
            with contextlib.suppress(OSError):
                os.close(fd)


def _pair_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-u", metavar="VERTEX", help="first endpoint")
    parser.add_argument("-v", metavar="VERTEX", help="second endpoint")
    parser.add_argument("--all-pairs", action="store_true", help="every unordered pair")
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def _resolve_pairs(args, table: NameTable, eligible: Iterable[int]) -> list[tuple[int, int]]:
    if args.all_pairs:
        if args.u or args.v:
            raise ParseError("--all-pairs excludes -u/-v")
        ordered = sorted(eligible, key=table.name_of)
        return [(u, v) for i, u in enumerate(ordered) for v in ordered[i + 1 :]]
    if not args.u or not args.v:
        raise ParseError("need -u and -v, or --all-pairs")
    return [(table.id_of(args.u), table.id_of(args.v))]


def _query_pairs(args, element: bool, value_of, flow_of=None, table_of=None) -> int:
    """Answer every requested pair with ``value_of(graph, u, v)`` and print the rows.

    With ``flow_of`` each value is also compared to the flow engine; every
    difference is reported on stderr and makes the exit status a mismatch.
    With ``table_of``, ``--all-pairs`` reads every value from the one table
    ``table_of(graph)`` instead.
    """
    from . import formats

    if element:
        graph, table = formats.load_element_instance(args.file)
        name, eligible = "kappa", graph.terminals
    else:
        graph, table, _ = formats.load_hypergraph(args.file, args.format)
        name, eligible = "lambda", graph.vertices
    pairs = _resolve_pairs(args, table, eligible)
    if args.all_pairs and table_of is not None:
        values = table_of(graph)
        value_of = lambda _graph, u, v: values.get(u, v)
    rows = []
    mismatches = 0
    for u, v in pairs:
        a, b = sorted((table.name_of(u), table.name_of(v)))
        value = value_of(graph, u, v)
        rows.append((a, b, value))
        if flow_of is not None and flow_of(graph, u, v) != value:
            mismatches += 1
            print(f"mismatch: flow {name}({a}, {b}) != oracle {value}", file=sys.stderr)
    if args.json:
        payload = {"pairs": [{"u": a, "v": b, "value": k} for a, b, k in rows]}
        print(formats._json_text(payload), end="")
    else:
        for a, b, k in rows:
            print(f"{name}({a}, {b}) = {k}")
    return EXIT_MISMATCH if mismatches else EXIT_OK


def cmd_conn(args) -> int:
    from .flow import conn_table_hyper, hyperedge_connectivity

    return _query_pairs(args, False, hyperedge_connectivity, table_of=conn_table_hyper)


def cmd_econn(args) -> int:
    from .flow import conn_table_elements, element_connectivity

    return _query_pairs(args, True, element_connectivity, table_of=conn_table_elements)


def cmd_oracle(args) -> int:
    """Brute-force connectivity values; with --check also compare to the flow engine."""
    from . import formats
    from .flow import element_connectivity, hyperedge_connectivity
    from .oracle import oracle_element_conn, oracle_lambda

    element = formats.is_element_file(args.file)
    if element:
        brute, flow = oracle_element_conn, element_connectivity
    else:
        brute, flow = oracle_lambda, hyperedge_connectivity
    return _query_pairs(args, element, brute, flow if args.check else None)


def cmd_reduce(args) -> int:
    from . import formats
    from .reduction import reduce_to_stable

    inst, table = formats.load_element_instance(args.file)
    reduced, trace = reduce_to_stable(inst)
    trace_out = [(Path(args.trace_out), formats.trace_to_json(trace, table))] if args.trace_out else []
    _write_out(*trace_out, (args.out, formats.write_element_json(reduced, table)))
    if args.out not in (None, "-"):
        deleted = sum(1 for s in trace.steps if s.action == "deleted")
        contracted = len(trace.steps) - deleted
        print(f"reduced: {len(trace.steps)} steps ({deleted} deleted, {contracted} contracted)")
    return EXIT_OK


def _s_name(args) -> Optional[str]:
    """``-s``, if given; argparse (3.11) turns ``-s--`` into an empty list."""
    if isinstance(args.s, list):
        raise ParseError("-s needs a vertex name, and '--' cannot be one")
    return args.s


def cmd_split(args) -> int:
    from . import formats
    from .hypergraph import Hypergraph, Merge
    from .splitoff import complete_split_off

    h, table, fmt = formats.load_hypergraph(args.file, args.format)
    s = table.id_of(_s_name(args))
    result = complete_split_off(h, s)
    h_out = result.h_star
    if args.drop_s:
        h_out = Hypergraph(h_out.vertices - {s}, dict(h_out.hyperedges))
    outputs = [(args.out, formats.dump_hypergraph(h_out, table, fmt))] if args.out else []
    if args.log_out:
        outputs.append((Path(args.log_out), formats.write_oplog(h, table, s, result.log)))
    _write_out(*outputs)
    merges = sum(1 for op in result.log if isinstance(op, Merge))
    trims = len(result.log) - merges
    if args.json:
        payload = {
            "s": args.s,
            "hyperedges_before": h.num_edges,
            "hyperedges_after": result.h_star.num_edges,
            "operations": {"merge": merges, "trim": trims},
            "pairs_checked": len(result.certificate),
            "certificate": "pass",
        }
        print(formats._json_text(payload), end="")
    else:
        print(f"split vertex: {args.s}")
        print(f"hyperedges: {h.num_edges} -> {result.h_star.num_edges}")
        print(f"operations: {len(result.log)} ({merges} merge, {trims} trim)")
        print(f"pairs checked: {len(result.certificate)}")
        print("certificate: PASS")
    return EXIT_OK


def cmd_replay(args) -> int:
    from . import formats
    from .hypergraph import replay

    h, table, fmt = formats.load_hypergraph(args.file, args.format)
    log = formats.parse_oplog(formats._read_text(args.log))
    if _s_name(args) not in (None, log.s_name):
        raise ParseError(f"-s {args.s!r} disagrees with the log header ({log.s_name!r})")
    formats.check_oplog_header(log, h, table)
    s = table.id_of(log.s_name)
    result = replay(h, s, log.ops)
    _write_out((args.out, formats.dump_hypergraph(result, table, fmt)))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import formats
    from .flow import conn_table_hyper
    from .hypergraph import hypergraph_equal

    ha, ta, _ = formats.load_hypergraph(args.file_a, args.format)
    hb, tb, _ = formats.load_hypergraph(args.file_b, args.format)
    # Both parsers number the vertices by their names in sorted order, so equal
    # name sets give equal ids.
    structural = ta.names == tb.names and hypergraph_equal(ha, hb)
    print(f"hypergraphs equal: {'yes' if structural else 'no'}")
    if not args.conn:
        return EXIT_OK if structural else EXIT_MISMATCH
    common = sorted(set(ta.names) & set(tb.names))
    table_a, table_b = conn_table_hyper(ha), conn_table_hyper(hb)
    ok = True
    for i, a in enumerate(common):
        for b in common[i + 1 :]:
            ka = table_a.get(ta.id_of(a), ta.id_of(b))
            kb = table_b.get(tb.id_of(a), tb.id_of(b))
            if ka != kb:
                ok = False
                print(f"lambda({a}, {b}): {ka} != {kb}")
    pair_count = len(common) * (len(common) - 1) // 2
    print(f"connectivity over {len(common)} common vertices ({pair_count} pairs): "
          f"{'equal' if ok else 'DIFFERENT'}")
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_export_dot(args) -> int:
    from . import formats

    h, table, _ = formats.load_hypergraph(args.file, args.format)
    _write_out((args.out, formats.incidence_dot(h, table)))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and then shared.

    Its defaults are immutable values, so one parse cannot leak into the
    next. A fresh, unshared parser is ``build_parser.__wrapped__()``.
    """
    parser = argparse.ArgumentParser(
        prog="hypersplit",
        description="Hypergraph connectivity, element-connectivity, and splitting-off.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, fmt: bool = True):
        p = sub.add_parser(name, help=help_text)
        if fmt:
            p.add_argument("--format", choices=("auto", "json", "he"), default="auto",
                           help="input format (default: by extension)")
        return p

    p = add("conn", "local edge-connectivity of a hypergraph")
    p.add_argument("file")
    _pair_args(p)

    p = add("econn", "element-connectivity of a terminal graph", fmt=False)
    p.add_argument("file")
    _pair_args(p)

    p = add("oracle", "brute-force connectivity (small instances)")
    p.add_argument("file")
    _pair_args(p)
    p.add_argument("--check", action="store_true", help="compare against the flow engine")

    p = add("reduce", "reduce non-terminal edges to a stable set", fmt=False)
    p.add_argument("file")
    p.add_argument("-o", "--out", help="write the reduced instance here (default stdout)")
    p.add_argument("--trace-out", help="write the reduction trace JSON here")

    p = add("split", "complete splitting-off at a vertex")
    p.add_argument("file")
    p.add_argument("-s", required=True, metavar="VERTEX", help="vertex to split off")
    p.add_argument("-o", "--out", help="write the resulting hypergraph here")
    p.add_argument("--log-out", help="write the operation log JSON here")
    p.add_argument("--certify", action=argparse.BooleanOptionalAction, default=True,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--drop-s", action="store_true", help="omit the isolated vertex from the output")
    p.add_argument("--json", action="store_true", help="machine-readable summary")

    p = add("replay", "apply a recorded operation log")
    p.add_argument("file")
    p.add_argument("--log", required=True, help="operation log JSON")
    p.add_argument("-s", metavar="VERTEX", help="must match the log header when given")
    p.add_argument("-o", "--out", help="write the replayed hypergraph here (default stdout)")

    p = add("verify", "compare two hypergraph files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--conn", action="store_true",
                   help="exit status reflects connectivity equality over common vertices")

    p = add("export-dot", "DOT rendering of the incidence graph")
    p.add_argument("file")
    p.add_argument("-o", "--out", help="write the DOT file here (default stdout)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line and return its exit code.

    The parser is built once per process, on the first call, so a later
    call pays only for parsing and its command. The handler ``cmd_<command>``
    is looked up on this module at each call, so one replaced on the module
    after the parser was built is the one that runs.

    The cyclic garbage collector is paused while the command runs. A
    command's data (names, hypergraphs, networks, flows, tables) holds no
    reference cycles, so reference counting frees it, and a collection
    would walk live objects to free nothing. The collector is on again
    when ``main`` returns if it was on when ``main`` was called.

    A reader that closes stdout early makes stdout an unwritable output
    (exit 2); what is still buffered for it is dropped.
    """
    gc_was_on = gc.isenabled()
    args = build_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    gc.disable()
    try:
        code = handler(args)
        if sys.stdout is not None:  # None in a process started without fd 1; print skips it too
            sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        _to_null(sys.stdout)
        return _fail(f"cannot write stdout: {exc}", EXIT_PARSE)
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
    except Exception as exc:  # a crash is a bug, never a "mismatch" (exit 1)
        detail = " ".join(str(exc).split())
        return _fail(f"internal error: {type(exc).__name__}: {detail}", EXIT_INTERNAL)
    finally:
        if gc_was_on:
            gc.enable()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
