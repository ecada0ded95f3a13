"""Regenerate ``reference.json``, the outputs the correctness gate
compares against: every report verdict, fitted value and residual, and
every acceptance criterion's ``passed`` and ``measured``, at the default
seed.  Run from the repository root, only at a commit whose outputs are
known to be right:

    python3 perfbench/make_reference.py
"""

import json
import sys
from pathlib import Path

from run import HERE, Bench
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    root = Path.cwd()
    work = root / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    reference = {}
    for workload in WORKLOADS:
        record = Bench(workload, DEFAULT_SEED, root / "src", work).run_pass()
        if record is None:
            print(f"error: {workload} pass failed", file=sys.stderr)
            return 1
        reference[workload] = {op["name"]: op["outputs"] for op in record["ops"]}
        print(f"{workload}: {len(record['ops'])} operations, {record['wall_s']:.1f} s")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
