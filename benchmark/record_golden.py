"""Rewrite golden.json: output digests of a few fixed operations per workload.

Run from the repository root only when the public output bytes are meant to
change:

    python3 benchmark/record_golden.py
"""

import json
import shutil
import sys

import run

# Operation indices in the GOLDEN_SEED corpus. conn_large slot 9 is a short
# path query that completes and slot 19 a long one.
INDICES = {"split": [0, 1, 2], "conn_large": [0, 1, 9, 19], "reduce": [0, 1, 2, 3, 4]}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = run._import_cli()
    work = run.OUT / "work-golden"
    try:
        golden = {
            w: {str(op.key): run.golden_entry(r) for op, r in run.run_golden(cli, w, work, idx)}
            for w, idx in INDICES.items()
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(golden, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
