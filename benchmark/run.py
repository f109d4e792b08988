"""hypersplit benchmark: seeded corpora driven through ``hypersplit.cli.main``.

Usage, from the repository root:

    python3 benchmark/run.py --workload split --seed 1 --seconds 35 --trace 0

One client runs a closed loop in this process: each CLI call starts when the
previous one returns, on files generated from ``--seed``. With ``--trace 0``
the loop cycles through the corpus until ``--seconds`` have passed and
reports the end-to-end metrics, with times scaled to a reference host speed
by a probe timed after each operation (see ``host_scaled``). With
``--trace 1`` a fixed number of operations (set by ``--seconds``, so two
runs of one seed do the same work) runs once untraced and once with every
layer wrapped, and the per-layer metrics come from the traced pass.
Operations that exercise a known defect (conn_large's path queries, most of
which raise RecursionError) run once each after that, untimed and
untraced; ``attempted`` and ``failed`` count the timed operations only.

After the timed part, every failed operation fails the check unless it is
a path query raising RecursionError, every repeat of an operation
must have the same outcome and bytes, every distinct operation's output is
checked independently, and a small fixed corpus must reproduce the output
digests in ``golden.json``. A failed check sets ``correct`` to false and the
exit status to 1. The last line of stdout is the JSON result; the lines
before it give each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
GOLDEN_SEED = 20260101
SETUP_REPEATS = 9
PROBE_MS = 5.0  # timings are scaled to a host on which reference_loop() takes this long
PROBE_WINDOW = 5  # a time is scaled by the probes up to this many positions away

# name -> (build, check, traced operations per second of --seconds)
WORKLOADS = {
    "split": (workloads.build_split, workloads.check_split, 0.8),
    "conn_large": (workloads.build_conn_large, workloads.check_conn_large, 2.0),
    "reduce": (workloads.build_reduce, workloads.check_reduce, 3.0),
}


@dataclass
class Outcome:
    """What one CLI call did: latency, exit status or exception, output digest."""

    key: int
    ms: float
    code: int | None
    error: str | None
    stdout: str
    digest: str

    @property
    def ok(self) -> bool:
        return self.error is None and self.code == 0


def _import_cli():
    for name in [m for m in sys.modules if m == "hypersplit" or m.startswith("hypersplit.")]:
        del sys.modules[name]
    return importlib.import_module("hypersplit.cli")


def reference_loop() -> float:
    """Wall time in ms of a fixed pure-Python loop, a probe of the host's speed.

    Integer arithmetic only: it keeps no data, so its speed depends on the
    host rather than on what the program left in memory.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(60000):
        s += i * i % 7
    return (time.perf_counter() - t0) * 1000


def host_scaled(times: list[float], probes: list[float]) -> list[float]:
    """Each time scaled to a host on which reference_loop() takes PROBE_MS.

    Time i is multiplied by PROBE_MS over the median of the probes taken
    within PROBE_WINDOW positions of it. The host's speed drifts by more than
    the bounds within seconds to minutes; the probes next to a time drift
    with it, and the program cannot move them.
    """
    k = PROBE_WINDOW
    return [t * PROBE_MS / statistics.median(probes[max(0, i - k): i + k + 1])
            for i, t in enumerate(times)]


def setup(workload: str, seed: int, work: Path):
    """Make the corpus, then import the package and write the corpus files.

    Only the import and the file writing are timed, SETUP_REPEATS times with
    a probe after each, and the median of the scaled times in s is returned
    with the raw median. Generating the corpus is benchmark-side work with
    the package's oracle, so it runs once, before the timer.
    """
    _import_cli()
    corpus = WORKLOADS[workload][0](seed, work)
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        cli = _import_cli()
        corpus.write()
        times.append((time.perf_counter() - t0) * 1000)
        probes.append(reference_loop())
    setup_s = statistics.median(host_scaled(times, probes)) / 1000
    return cli, corpus.ops, (setup_s, statistics.median(times) / 1000)


def run_op(cli, op: workloads.Op) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # every failure is counted by type, never raised
        error = type(exc).__name__
    ms = (time.perf_counter() - t0) * 1000
    h = hashlib.sha256(f"{error}|{code}|".encode())
    h.update(out.getvalue().encode())
    h.update(b"|" + err.getvalue().encode())
    for path in op.outputs:
        h.update(b"|" + (path.read_bytes() if path.exists() else b"<missing>"))
    return Outcome(op.key, ms, code, error, out.getvalue(), h.hexdigest())


def timed_loop(cli, ops, seconds: float) -> tuple[list[Outcome], list[float]]:
    """Closed loop over the corpus, in order and cycling, until time is up.

    The reference loop is timed after each operation; returns the outcomes
    and their latencies scaled by host_scaled.
    """
    results, probes = [], []
    gc.collect()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        results.append(run_op(cli, ops[i % len(ops)]))
        probes.append(reference_loop())
        i += 1
    return results, host_scaled([r.ms for r in results], probes)


def paired_pass(cli, ops, tracer: Tracer) -> tuple[list[Outcome], list[Outcome]]:
    """Each operation once untraced and once traced, alternating which goes first.

    Pairing each operation keeps drift in host speed out of the overhead ratio.
    """
    plain, traced = [], []
    gc.collect()
    for i, op in enumerate(ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.op = i
                tracer.install()
            try:
                (traced if with_trace else plain).append(run_op(cli, op))
            finally:
                tracer.uninstall()
    return plain, traced


def tail(samples: list[float]) -> tuple[float, int, int]:
    """Highest integer percentile with at least ten samples above it (nearest rank).

    Returns the value, the percentile and the number of samples above it.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, 0
    p = (100 * (n - 10)) // n
    rank = -(-p * n // 100)  # ceil(p * n / 100)
    return xs[rank - 1], p, n - rank


def check_one(workload: str, op: workloads.Op, r: Outcome, cache: dict) -> list[str]:
    check = WORKLOADS[workload][1]
    try:
        found = check(op, r.stdout, cache)
    except Exception as exc:  # a malformed output is a failed check
        found = [f"check raised {type(exc).__name__}: {exc}"]
    return [f"op {op.key} ({op.argv[0]}): {p}" for p in found]


def check_outputs(workload: str, ops, groups: list[list[Outcome]]) -> list[str]:
    """Every failure, every repeat that differs, and each distinct operation's output.

    A failed operation fails the check unless it raised the operation's
    ``expected_failure`` (on conn_large, RecursionError on a path). Within
    one group of runs made under the same conditions, every repeat of an
    operation must give the same outcome, byte for byte. The first completed
    run of each distinct operation is checked independently.
    """
    problems = []
    first: dict[int, Outcome] = {}
    for results in groups:
        seen: dict[int, Outcome] = {}
        for r in results:
            op = ops[r.key]
            if not r.ok and (r.error is None or r.error != op.expected_failure):
                problems.append(f"op {r.key} ({op.argv[0]}) failed: {r.error or f'exit {r.code}'}")
            if r.key not in seen:
                seen[r.key] = r
            elif seen[r.key].digest != r.digest:
                problems.append(f"op {r.key}: outcome or output bytes differ between repeats")
            if r.ok:
                first.setdefault(r.key, r)
    cache: dict = {}
    for key, r in sorted(first.items()):
        problems += check_one(workload, ops[key], r, cache)
    return problems


def run_golden(cli, workload: str, work: Path, indices) -> list[tuple[workloads.Op, Outcome]]:
    """Run the given operations of the GOLDEN_SEED corpus."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus = WORKLOADS[workload][0](GOLDEN_SEED, work)
    corpus.write()
    ops = corpus.ops
    return [(ops[i], run_op(cli, ops[i])) for i in indices]


def golden_entry(r: Outcome) -> str:
    return r.digest if r.ok else f"failed:{r.error or r.code}"


def check_golden(cli, workload: str, work: Path) -> list[str]:
    """Byte identity of public outputs on a fixed corpus recorded in golden.json.

    An operation recorded as failed may now succeed; its output is then
    checked independently instead.
    """
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[workload]
    problems = []
    for op, r in run_golden(cli, workload, work, [int(i) for i in expected]):
        want = expected[str(op.key)]
        if want.startswith("failed:") and r.ok:
            problems += check_one(workload, op, r, {})
        elif golden_entry(r) != want:
            problems.append(f"golden op {op.key}: got {golden_entry(r)[:16]}, recorded {want[:16]}")
    return problems


def end_to_end(results, scaled_ms, untimed, setup_s, peak_rss_mb):
    """The end-to-end metrics as name -> (value, unit, samples note).

    Latency percentiles are taken over the distinct operations of the
    corpus, each at the median of its own completed runs. A pass over the
    corpus is one full stratification cycle, so every run describes the
    same mix whatever its speed, and repeated runs of an operation damp the
    host's noise instead of adding samples.

    Times are the host-scaled ones (see host_scaled); each line also gives
    the raw wall-clock figure. ``ops_per_s`` is completed operations over
    the time spent in ``cli.main``, failed calls included. ``ok_ratio`` is
    the share of distinct operations that completed, the untimed ones
    included, so it does not depend on how many runs the loop fitted in.
    """
    raw, scaled = {}, {}
    for r, ms in zip(results, scaled_ms):
        if r.ok:
            raw.setdefault(r.key, []).append(r.ms)
            scaled.setdefault(r.key, []).append(ms)
    completed = sum(len(v) for v in raw.values())
    outcomes = {}
    for r in results + untimed:
        outcomes[r.key] = outcomes.get(r.key, True) and r.ok
    distinct_ok = sum(outcomes.values())
    lat, lat_raw = ([statistics.median(v) for v in d.values()] or [0.0] for d in (scaled, raw))
    tail_ms, pct, above = tail(lat)
    per_op = f"{len(lat)} distinct operations, {completed} completed runs"
    busy_s = sum(scaled_ms) / 1000
    busy_raw_s = sum(r.ms for r in results) / 1000
    return {
        "ops_per_s": (completed / busy_s, "1/s",
                      f"{completed} completed in {busy_s:.2f} scaled s, raw {completed / busy_raw_s:.4f}"),
        "op_p50_ms": (statistics.median(lat), "ms", f"{per_op}, raw {statistics.median(lat_raw):.2f}"),
        "op_tail_ms": (tail_ms, "ms",
                       f"p{pct}, {per_op}, {above} operations above, raw {tail(lat_raw)[0]:.2f}"),
        "ok_ratio": (distinct_ok / len(outcomes), "ratio",
                     f"{distinct_ok}/{len(outcomes)} distinct operations completed, "
                     f"{len(untimed)} of them untimed"),
        "setup_s": (setup_s[0], "s", f"median of {SETUP_REPEATS}, raw {setup_s[1]:.5f}"),
        "peak_rss_mb": (peak_rss_mb, "MB", "1 process"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hypersplit" / "cli.py").is_file():
        print(f"error: no hypersplit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = OUT / f"work-{args.workload}"
    try:
        cli, ops, setup_s = setup(args.workload, args.seed, work)
        timed = [op for op in ops if op.expected_failure is None]
        if args.trace:
            count = max(1, round(args.seconds * WORKLOADS[args.workload][2]))
            tracer = Tracer()
            plain, results = paired_pass(cli, [timed[i % len(timed)] for i in range(count)], tracer)
            groups = [plain, results]
        else:
            results, scaled_ms = timed_loop(cli, timed, args.seconds)
            groups = [results]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        untimed = [run_op(cli, op) for op in ops if op.expected_failure is not None]
        groups.append(untimed)
        problems = check_outputs(args.workload, ops, groups)
        problems += check_golden(cli, args.workload, work / "golden")
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r.ok for r in results)
    calls = results + untimed
    failures = Counter(r.error or f"exit{r.code}" for r in calls if not r.ok)
    print(f"workload {args.workload}, seed {args.seed}, corpus {len(ops)} distinct operations, "
          f"{len(results)} timed attempted, {failed} failed, {len(untimed)} untimed, "
          f"one closed-loop client")
    for kind, n in sorted(failures.items()):
        print(f"  failures.{kind} = {n}")
    print(f"  failed_ratio = {sum(failures.values()) / len(calls):.6f} "
          f"({sum(failures.values())}/{len(calls)} calls, untimed included)")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    if args.trace:
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_ratio"] = (sum(r.ms for r in results) / sum(r.ms for r in plain), "ratio")
        metrics["cli.failed_ratio"] = (sum(failures.values()) / len(calls), "ratio")
        metrics["failures.RecursionError"] = (failures["RecursionError"], "count")
        metrics["failures.other"] = (sum(failures.values()) - failures["RecursionError"], "count")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.jsonl")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value} {unit}")
        print(f"  spans: {len(tracer.spans)} written to {OUT.name}/spans-{args.workload}.jsonl")
    else:
        report = end_to_end(results, scaled_ms, untimed, setup_s, peak_rss_mb)
        metrics = {}
        for name, (value, unit, samples) in report.items():
            print(f"  {name} = {value} {unit} ({samples})")
            metrics[name] = (value, unit)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
