"""Record the exact counters and output digests that every benchmark run
checks against, into perfbench/expected.json.

    python3 perfbench/record.py [--workload NAME ...] [--seeds 0..63]

Run it from the root of a source checkout, and only on code whose outputs
are known to be right: each recorded unit must first pass its own checks.
The holdout seed is always recorded. Existing entries are replaced, others
are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

run.import_package()
from workloads import HOLDOUT_SEED, HOLDOUT_SIZES, SIZES, WORKLOADS  # noqa: E402


def record_one(workload, seed: int, size: dict) -> dict:
    work = Path(tempfile.mkdtemp(dir=run.ROOT, prefix=".perfbench_record_"))
    try:
        state = workload.setup(seed, size, work)
        outcome = workload.check(state, workload.run(state))
        attempted, failed = workload.check_inputs(state)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if outcome.failed or failed:
        raise SystemExit(f"error: {workload.name} seed {seed} fails its checks; not recording")
    return {"digest": outcome.digest, **outcome.totals}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", default="0..63", help="inclusive range LO..HI")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("..")
    seeds = range(int(lo), int(hi or lo) + 1)
    path = run.HERE / "expected.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    expected["holdout_seed"] = HOLDOUT_SEED
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        hold = HOLDOUT_SIZES[name]
        expected["holdout"].setdefault(name, {})[run.size_key(hold)] = record_one(
            workload, HOLDOUT_SEED, hold)
        table = expected["seeds"].setdefault(name, {}).setdefault(run.size_key(SIZES[name]), {})
        for seed in seeds:
            table[str(seed)] = record_one(workload, seed, SIZES[name])
            print(f"recorded {name} seed {seed}", file=sys.stderr)
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
