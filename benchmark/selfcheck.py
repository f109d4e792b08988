"""Counter self-check for the tracing wrappers.

    python3 benchmark/selfcheck.py

Splits random_hypergraph(GenParams(15, 40, 4, seed=7)) at its maximum-degree
vertex with ``--no-certify`` through ``hypersplit.cli.main``, traced, twice.
It fails (exit 1) unless

- for every wrapped function, the spans the wrappers recorded equal the calls
  that ``sys.setprofile`` saw enter the original function, so no call was
  missed through a name bound elsewhere; and
- the two traced runs give identical values for every count metric.

It prints the table and max-flow counts. On the seed sources they are 63
tables and 5,761 max-flows: the pipeline's 61 tables of 5,551 flows plus the
two certificate tables of 105 flows each.
"""

from __future__ import annotations

import importlib
import shutil
import sys
from collections import Counter

import run
import workloads
from tracing import Tracer


def traced_split(cli, op) -> tuple[dict, Counter, Counter]:
    tracer = Tracer()
    originals = {fn.__code__: tracer.names[i] for i, fn in enumerate(tracer.originals)}
    entered: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in originals:
            entered[originals[frame.f_code]] += 1

    tracer.op = 0
    tracer.install()
    sys.setprofile(profile)
    try:
        outcome = run.run_op(cli, op)
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    if not outcome.ok:
        raise SystemExit(f"split failed: {outcome.error or outcome.code}")
    recorded = Counter(tracer.names[s[0]] for s in tracer.spans)
    return tracer.layer_metrics(), recorded, entered


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = run._import_cli()
    oracle = importlib.import_module("hypersplit.oracle")
    work = run.OUT / "work-selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        h = oracle.random_hypergraph(oracle.GenParams(15, 40, 4, seed=7))
        names = workloads._names(15)
        edges = workloads._hyperedge_lists(h, names)
        degree = Counter(v for e in edges for v in e)
        s = min(names, key=lambda v: (-degree[v], v))
        src = work / "selfcheck.json"
        src.write_text(workloads.hypergraph_text(names, edges), encoding="utf-8")
        op = workloads.Op(0, ["split", str(src), "-s", s, "--no-certify", "--json"], ())
        runs = [traced_split(cli, op) for _ in range(2)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = []
    for metrics, recorded, entered in runs:
        for name in sorted(set(recorded) | set(entered)):
            if recorded[name] != entered[name]:
                problems.append(f"{name}: wrappers recorded {recorded[name]}, profiler saw {entered[name]}")
    counts = [{k: v for k, (v, unit) in m.items() if unit in ("count", "bytes")} for m, _, _ in runs]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        problems.append(f"count metrics differ between two runs: {diff}")
    first = runs[0][0]
    print(f"split -s {s} --no-certify on random_hypergraph(GenParams(15, 40, 4, seed=7))")
    print(f"  flow.tables = {first['flow.tables'][0]}")
    print(f"  flow.maxflows = {first['flow.maxflows'][0]}")
    print(f"  wrapped call kinds checked against the profiler: {len(set(runs[0][1]) | set(runs[0][2]))}")
    for p in problems:
        print(f"  SELF-CHECK FAILED: {p}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
