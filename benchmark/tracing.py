"""Outside-in tracing: wrap each layer's public functions, record spans.

Nothing inside ``src/`` is edited. ``Tracer.install`` replaces every public
function of the layer modules by a wrapper, in every layer module whose
namespace binds it, so a name imported with ``from .flow import ...`` is
wrapped where it is looked up and the call is credited to its real caller.
``Multigraph`` methods are wrapped on the class. ``uninstall`` puts the
originals back, so untraced calls run with nothing installed. ``oracle`` is
not a layer: the benchmark uses it only to make inputs and check outputs.

A span is (name index, operation id, parent span, start ns, end ns). Spans
stay in memory until the run ends. Counts defined on the
arguments (max-flows per table, arcs built, bytes written) are taken from
the arguments and results after the span closes, outside its time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "formats", "hypergraph", "multigraph", "flow", "reduction", "splitoff")
MULTIGRAPH_METHODS = (
    "__init__", "degree", "neighbors", "incident", "without_edge", "without_vertices", "contracted",
)
WRITERS = ("dump_hypergraph", "write_element_json", "write_oplog", "trace_to_json")


def _arcs(inst) -> int:
    return len(inst.graph.vertices) + 2 * len(inst.graph.edges)


def _count_table(counts, args, result):
    inst = args[0]
    t = len(inst.terminals)
    counts["flow.tables"] += 1
    counts["flow.maxflows"] += t * (t - 1) // 2
    if t >= 2:
        counts["flow.arcs_built"] += _arcs(inst)


def _count_pair(counts, args, result):
    counts["flow.pair_queries"] += 1
    counts["flow.maxflows"] += 1
    counts["flow.arcs_built"] += _arcs(args[0])


def _count_deletion_test(counts, args, result):
    counts["reduction.deletions_accepted" if result else "reduction.deletions_rejected"] += 1


def _count_reduce_edge(counts, args, result):
    if result[1].action == "contracted":
        counts["reduction.contractions"] += 1


def _count_pipeline(counts, args, result):
    counts["splitoff.pipelines"] += 1
    counts["splitoff.gadget_vertices"] += len(result.gadget.clique)


def _count_bytes(counts, args, result):
    counts["formats.bytes_out"] += len(result.encode("utf-8"))


COUNTERS = {
    "flow.conn_table_elements": _count_table,
    "flow.element_connectivity": _count_pair,
    "reduction.is_deletion_preserving": _count_deletion_test,
    "reduction.reduce_edge": _count_reduce_edge,
    "splitoff.run_pipeline": _count_pipeline,
    **{f"formats.{name}": _count_bytes for name in WRITERS},
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.originals: list = []  # the wrapped function for each name
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list = []
        self._prepare()

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.originals.append(fn)
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (idx, self.op, parent, t0, t1)
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def _prepare(self) -> None:
        """Build every wrapper once; install and uninstall only swap attributes."""
        modules = {layer: importlib.import_module(f"hypersplit.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for consumer in modules.values():
                    for bound, value in list(vars(consumer).items()):
                        if value is fn:
                            self._patches.append((consumer, bound, fn, wrapper))
        graph = modules["multigraph"].Multigraph
        for meth in MULTIGRAPH_METHODS:
            fn = vars(graph)[meth]
            self._patches.append((graph, meth, fn, self._wrap(f"multigraph.{meth}", fn)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Spans as JSON lines after a header line naming the span kinds."""
        with path.open("w", encoding="utf-8") as f:
            f.write(json.dumps({"fields": ["name", "op", "parent", "start_ns", "end_ns"],
                                "names": self.names}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over every span recorded, as name -> (value, unit)."""
        names = self.names
        kind = [names[s[0]] for s in self.spans]
        dur = [(s[4] - s[3]) / 1e6 for s in self.spans]
        parent = [s[2] for s in self.spans]
        child_ms = [0.0] * len(self.spans)
        for sid, p in enumerate(parent):
            if p >= 0:
                child_ms[p] += dur[sid]
        calls = Counter(kind)
        inclusive: Counter = Counter()
        for k, d in zip(kind, dur):
            inclusive[k] += d

        def under(child: set, parent_kind: str) -> tuple[int, float]:
            """Calls and time of ``child`` spans whose direct parent is ``parent_kind``."""
            n, ms = 0, 0.0
            for sid, k in enumerate(kind):
                if k in child and parent[sid] >= 0 and kind[parent[sid]] == parent_kind:
                    n += 1
                    ms += dur[sid]
            return n, ms

        c = self.counts
        maxflows = c["flow.maxflows"]
        ops = len({s[1] for s in self.spans if names[s[0]] == "cli.main"})
        tests = calls["reduction.is_deletion_preserving"]
        _, g2_ms = under({"reduction.reduce_to_stable"}, "splitoff.run_pipeline")
        _, g3_ms = under({"reduction.maximal_preserving_deletions"}, "splitoff.run_pipeline")
        stage_tables, stage_ms = under({"flow.conn_table_elements"}, "splitoff.run_pipeline")
        cert_tables, cert_ms = under({"flow.conn_table_hyper"}, "splitoff.complete_split_off")
        _, replay_ms = under({"hypergraph.replay", "hypergraph.hypergraph_equal"},
                             "splitoff.complete_split_off")
        pipeline_ms = inclusive["splitoff.run_pipeline"]
        flow_ms = inclusive["flow.conn_table_elements"] + inclusive["flow.element_connectivity"]
        cli_self = sum(dur[sid] - child_ms[sid] for sid, k in enumerate(kind) if k.startswith("cli."))
        count, ms, ratio = "count", "ms", "ratio"
        return {
            "flow.tables": (c["flow.tables"], count),
            "flow.pair_queries": (c["flow.pair_queries"], count),
            "flow.maxflows": (maxflows, count),
            "flow.maxflows_per_op": (maxflows / ops if ops else 0.0, count),
            "flow.arcs_built": (c["flow.arcs_built"], count),
            "flow.table_ms": (inclusive["flow.conn_table_elements"], ms),
            "flow.pair_ms": (inclusive["flow.element_connectivity"], ms),
            "flow.us_per_maxflow": (1000 * flow_ms / maxflows if maxflows else 0.0, "us"),
            "multigraph.constructions": (calls["multigraph.__init__"], count),
            "multigraph.construct_ms": (inclusive["multigraph.__init__"], ms),
            "multigraph.without_edge.calls": (calls["multigraph.without_edge"], count),
            "multigraph.contracted.calls": (calls["multigraph.contracted"], count),
            "multigraph.degree.calls": (calls["multigraph.degree"], count),
            "multigraph.scan_ms": (sum(inclusive[f"multigraph.{m}"]
                                       for m in ("degree", "neighbors", "incident")), ms),
            "reduction.deletion_tests": (tests, count),
            "reduction.deletions_accepted": (c["reduction.deletions_accepted"], count),
            "reduction.deletions_rejected": (c["reduction.deletions_rejected"], count),
            "reduction.accept_ratio": (c["reduction.deletions_accepted"] / tests if tests else 0.0, ratio),
            "reduction.contractions": (c["reduction.contractions"], count),
            "reduction.deletion_test_ms": (inclusive["reduction.is_deletion_preserving"], ms),
            "reduction.reduce_to_stable_ms": (inclusive["reduction.reduce_to_stable"], ms),
            "reduction.maximal_preserving_deletions_ms":
                (inclusive["reduction.maximal_preserving_deletions"], ms),
            "splitoff.run_pipeline_ms": (pipeline_ms, ms),
            "splitoff.g2_ms": (g2_ms, ms),
            "splitoff.g3_ms": (g3_ms, ms),
            "splitoff.pipeline_self_ms": (pipeline_ms - g2_ms - g3_ms - stage_ms, ms),
            "splitoff.stage_tables": (stage_tables, count),
            "splitoff.stage_cert_ms": (stage_ms, ms),
            "splitoff.certificate_tables": (cert_tables, count),
            "splitoff.certificate_ms": (cert_ms, ms),
            "splitoff.replay_check_ms": (replay_ms, ms),
            "splitoff.extract_ms": (inclusive["splitoff.extract_h_star"]
                                    + inclusive["splitoff.extract_op_log"], ms),
            "splitoff.gadget_size": (c["splitoff.gadget_vertices"] / c["splitoff.pipelines"]
                                     if c["splitoff.pipelines"] else 0.0, count),
            "hypergraph.incidence_graph.calls": (calls["hypergraph.incidence_graph"], count),
            "hypergraph.incidence_graph_ms": (inclusive["hypergraph.incidence_graph"], ms),
            "hypergraph.replay.calls": (calls["hypergraph.replay"], count),
            "hypergraph.apply_op.calls": (calls["hypergraph.apply_op"], count),
            "hypergraph.replay_ms": (inclusive["hypergraph.replay"], ms),
            "formats.load_ms": (inclusive["formats.load_hypergraph"]
                                + inclusive["formats.load_element_instance"], ms),
            "formats.dump_ms": (sum(inclusive[f"formats.{w}"] for w in WRITERS), ms),
            "formats.bytes_out": (c["formats.bytes_out"], "bytes"),
            "cli.main.self_ms": (cli_self, ms),
        }
