"""Benchmark self-test.

Makes two traced runs of one workload and seed, each in a fresh process,
and checks that every count-type per-layer metric (unit `count` in
BENCHMARK.json) is the same in both, and that both runs pass their
correctness checks. Run from the repository root:

    python3 perfbench/selftest.py --workload cp-dense --seed 1
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"selftest: traced run exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="cp-dense")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    first, second = traced(args.workload, args.seed), traced(args.workload, args.seed)
    values = [
        {n: m["value"] for n, m in run["metrics"].items()} for run in (first, second)
    ]
    bad = [
        f"{name}: {values[0][name]} != {values[1][name]}"
        for name in counts
        if values[0][name] != values[1][name]
    ]
    for run in (first, second):
        if not run["correct"]:
            bad.append("a traced run failed its correctness check")
    for line in bad:
        print(f"selftest: {line}")
    print(f"selftest: {len(counts)} count metrics compared, {len(bad)} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
