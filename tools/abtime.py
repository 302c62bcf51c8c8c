"""Paired timing of the benchmark pipeline between two versions of `vigt`.

    python3 tools/abtime.py A_SRC B_SRC [--workload NAME ...] [--seed N ...]
        [--realizations K] [--rounds R] [--json OUT]

Starts one long-lived worker process per `src/` directory. Each worker
imports its own `vigt` and this checkout's `perfbench/workloads.py` and
`perfbench/pipeline.py`, read-only, as `tools/parity.py dump --src` does.
Both workers get the same fixed list of runs: every (workload, seed,
realization) with realizations 0 .. K-1, repeated R times. The runs go
one at a time, never both sides at once, in ABBA order: A then B for even
runs, B then A for odd ones, so a drift of the host's speed over the
measurement falls on both sides alike. Before timing, each worker makes
one untimed run of every workload.

A run times each stage with `time.perf_counter` (wall) and
`time.thread_time` (the worker's CPU time): `setup_s` (the workload's
`make_inputs`), `eval_s` and `pseudo_gt_s` (the two stages of
`pipeline.run_pipeline`, read at the same three clock readings it takes)
and `run_s`, their sum. For each workload, stage and clock the tool
prints the median over pairs of the ratio B/A (the exponential of the
median log-ratio), its bootstrap 95 % interval (percentiles of the median
over 2000 resamples of the pairs, seed 0), the share of pairs in which B
was faster, and the pair count. `--json` writes the same numbers. The exit
code is 1 when a run fails `pipeline.check` on either side.

The tool acts only on its own processes: it pins BLAS to one thread in
each worker and changes no machine setting or process priority.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# every worker is a single-threaded batch job, as in perfbench/run.py
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cp-dense", "landmarks")
STAGES = ("setup_s", "eval_s", "pseudo_gt_s", "run_s")
CLOCKS = {"wall": time.perf_counter, "cpu": time.thread_time}
RESAMPLES = 2000


class _Clock:
    """Stands in for the `time` module inside `pipeline`: every
    `perf_counter` reading also records `thread_time`, so the stages
    `run_pipeline` times are known on both clocks."""

    def __init__(self):
        self.readings: list[dict[str, float]] = []

    def perf_counter(self) -> float:
        reading = {name: clock() for name, clock in CLOCKS.items()}
        self.readings.append(reading)
        return reading["wall"]


def _worker(src: Path) -> None:
    """Serve runs: one JSON request per line on stdin, one JSON reply per
    line on stdout."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    replies, sys.stdout = sys.stdout, sys.stderr  # stray prints stay off the channel
    import vigt

    if Path(vigt.__file__).resolve().parent != (src / "vigt").resolve():
        raise SystemExit(f"abtime: imported vigt from {vigt.__file__}, not {src}")
    import pipeline
    from workloads import WORKLOADS as SPECS, make_inputs

    clock = _Clock()
    pipeline.time = clock
    for line in sys.stdin:
        request = json.loads(line)
        spec = SPECS[request["workload"]]
        start = {name: read() for name, read in CLOCKS.items()}
        inputs = make_inputs(spec, request["seed"], request["realization"])
        clock.readings.clear()
        out = pipeline.run_pipeline(inputs, spec.fusion)
        t0, t1, t2 = clock.readings  # run_pipeline reads the clock three times
        times = {}
        for name in CLOCKS:
            times[name] = {
                "setup_s": t0[name] - start[name],
                "eval_s": t1[name] - t0[name],
                "pseudo_gt_s": t2[name] - t1[name],
                "run_s": t2[name] - t0[name],
            }
        reply = {"times": times, "problems": pipeline.check(out, inputs, spec)}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


class _Side:
    def __init__(self, src: Path):
        self.src = src
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(src)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, workload: str, seed: int, realization: int) -> dict:
        request = {"workload": workload, "seed": seed, "realization": realization}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"abtime: the worker for {self.src} exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()  # the worker's loop ends at end of input
        self.proc.wait()
        self.proc.stdout.close()


def _summary(ratios, rng) -> dict:
    """Median ratio, bootstrap 95 % interval and share below 1 of paired
    B/A ratios."""
    logs = np.log(np.asarray(ratios))
    picks = rng.integers(len(logs), size=(RESAMPLES, len(logs)))
    lo, hi = np.percentile(np.median(logs[picks], axis=1), [2.5, 97.5])
    return {
        "median_ratio": float(np.exp(np.median(logs))),
        "ci95": [float(np.exp(lo)), float(np.exp(hi))],
        "b_faster": float(np.mean(logs < 0.0)),
        "pairs": len(logs),
    }


def measure(a_src: Path, b_src: Path, workloads, seeds, realizations: int, rounds: int):
    """Paired times of every run in ABBA order, and per workload, stage
    and clock the summary of B/A. Returns (summary, runs, problems)."""
    plan = [
        (w, s, r)
        for _ in range(rounds)
        for w in workloads
        for s in seeds
        for r in range(realizations)
    ]
    sides = {"A": _Side(a_src), "B": _Side(b_src)}
    runs, problems = [], []
    try:
        for side in sides.values():
            for workload in workloads:
                side.run(workload, seeds[0], 0)  # warm-up
        for k, (workload, seed, realization) in enumerate(plan):
            order = ("A", "B") if k % 2 == 0 else ("B", "A")
            replies = {name: sides[name].run(workload, seed, realization) for name in order}
            label = f"{workload}/{seed}/{realization}"
            for name, reply in replies.items():
                problems += [f"{name} {label}: {p}" for p in reply["problems"]]
            run = {"workload": workload, "seed": seed, "realization": realization}
            runs.append(run | {"first": order[0]} | {n: replies[n]["times"] for n in sides})
    finally:
        for side in sides.values():
            side.close()
    rng = np.random.default_rng(0)
    summary = {
        workload: {
            clock: {
                stage: _summary(
                    [
                        r["B"][clock][stage] / r["A"][clock][stage]
                        for r in runs
                        if r["workload"] == workload
                    ],
                    rng,
                )
                for stage in STAGES
            }
            for clock in CLOCKS
        }
        for workload in workloads
    }
    return summary, runs, problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        _worker(Path(argv[1]).resolve())
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_src", type=Path)
    parser.add_argument("b_src", type=Path)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--realizations", type=int, default=6)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    workloads, seeds = args.workload or list(WORKLOADS), args.seed or [1]
    start = time.perf_counter()
    summary, runs, problems = measure(
        args.a_src.resolve(),
        args.b_src.resolve(),
        workloads,
        seeds,
        args.realizations,
        args.rounds,
    )
    print(f"B/A over {len(runs)} pairs in {time.perf_counter() - start:.0f} s")
    header = f"{'workload':10s} {'clock':5s} {'stage':12s} {'median':>7s}"
    print(header + "  95 % interval     B faster")
    for workload, clocks in summary.items():
        for clock, stages in clocks.items():
            for stage, s in stages.items():
                lo, hi = s["ci95"]
                print(
                    f"{workload:10s} {clock:5s} {stage:12s} {s['median_ratio']:7.3f}"
                    f"  [{lo:.3f}, {hi:.3f}]  {s['b_faster']:5.0%} of {s['pairs']}"
                )
    for problem in problems:
        print(f"check failed: {problem}")
    if args.json:
        args.json.write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
