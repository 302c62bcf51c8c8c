"""Benchmark of the CP-evaluation and pseudo-GT pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload cp-dense --seed 1 --seconds 30 --trace 0

With `--trace 0` it times the pipeline untraced and prints the end-to-end
metrics; with `--trace 1` it makes one untraced and one traced pass and
prints the per-layer metrics. Metric names and units come from
BENCHMARK.json. Every line but the last is a human-readable report; the
last line is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. The exit code is non-zero when a correctness
check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# The load is a single-threaded batch job: pin BLAS and OpenMP to one
# thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"perfbench: no {spec_path.name} at the repository root")
    return json.loads(spec_path.read_text())


def _import_vigt() -> None:
    """Put the checkout's own sources first on the path, and refuse to run
    against any other copy of the package."""
    if not (SRC / "vigt" / "__init__.py").is_file():
        raise SystemExit("perfbench: no vigt sources under src/; run from a checkout")
    sys.path.insert(0, str(SRC))
    import vigt

    if Path(vigt.__file__).resolve().parent != (SRC / "vigt").resolve():
        raise SystemExit(f"perfbench: imported vigt from {vigt.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = _parse(argv)
    spec = _load_spec()
    _import_vigt()

    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r};"
            f" options: {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = measure.traced_run(workload, args.seed, OUT_DIR)
        listed = spec["per_layer"]
    else:
        result = measure.timed_run(workload, args.seed, args.seconds)
        listed = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in listed}
    if not args.trace:
        for name, unit in measure.END_TO_END_UNITS.items():
            if units.setdefault(name, unit) != unit:
                raise SystemExit(
                    f"perfbench: BENCHMARK.json gives {name} unit {units[name]!r}"
                )
    missing = [name for name in units if name not in result.metrics]
    if result.metrics and missing:
        raise SystemExit(f"perfbench: metrics not computed: {missing}")
    for name, value in result.metrics.items():
        print(f"{name:<48} {value:>14.6g} {units.get(name, '')}")
    label = "operations attempted / failed"
    print(f"{label:<48} {result.attempted:>7d} / {result.failed}")
    for problem in result.problems:
        print(f"check failed: {problem}")
    metrics = {
        m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
        for m in listed
        if m["name"] in result.metrics
    }
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
