"""Timed and traced runs of one workload and seed."""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import micro
from layers import layer_metrics
from pipeline import Outputs, check, operations, pgt_errors_mm, run_pipeline
from tracing import Recorder
from workloads import Inputs, Workload, make_inputs

SETUP_REPEATS = 10  # set-ups before each pipeline run; setup_s is their median
# Noise realizations every timed run covers; the accuracy figures and
# scores come from these, so they depend on the seed alone.
MIN_REALIZATIONS = 3


# The end-to-end metrics a timed run computes, with their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "eval_s": "s",
    "pseudo_gt_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "pgt_ate_mm": "mm",
    "cp_score": "0-100",
    "cp_recall_1m": "%",
    "cp_err_med_mm": "mm",
    "op_fail_frac": "ratio",
}


@dataclass
class Result:
    metrics: dict[str, float]
    correct: bool
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


def _same(a: Outputs, b: Outputs) -> bool:
    return a.errors == b.errors and all(
        np.array_equal(ka.pose.translation, kb.pose.translation)
        for ka, kb in zip(a.pgt.keyframes, b.pgt.keyframes)
    )


class _Tally:
    """Operations attempted and failed, and the reasons for failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, operations: int, failed: int, problems: list[str]) -> None:
        self.attempted += operations
        # a run that raises or fails its check counts all its operations
        self.failed += operations if problems else failed
        self.problems += problems

    def result(self, metrics: dict[str, float]) -> Result:
        ok = not self.problems
        return Result(metrics, ok, self.attempted, self.failed, self.problems)

    def reject(self, out: Outputs, problem: str) -> None:
        """Fail every operation of a run already counted as passing."""
        self.failed += out.attempted - out.failed
        self.problems.append(problem)

    def run(self, inputs: Inputs, workload: Workload, label: str) -> Outputs | None:
        try:
            out = run_pipeline(inputs, workload.fusion)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ops = operations(inputs, workload.fusion)
            self.add(ops, 0, [f"{label}: pipeline raised"])
            return None
        problems = [f"{label}: {p}" for p in check(out, inputs, workload)]
        self.add(out.attempted, out.failed, problems)
        return out


def timed_run(workload: Workload, seed: int, seconds: float) -> Result:
    """Run the pipeline on one noise realization after another for
    `seconds`, and on at least `MIN_REALIZATIONS`. Each realization's
    inputs are set up (and timed) `SETUP_REPEATS` times just before its
    run, so set-up samples span the whole measurement. Times are medians
    over realizations, which average the work over inputs and the host's
    speed over the run."""
    tally = _Tally()
    setup_times: list[float] = []
    eval_s: list[float] = []
    pgt_s: list[float] = []
    scored: list[tuple[Outputs, Inputs]] = []
    start = time.perf_counter()
    k = 0
    while True:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = make_inputs(workload, seed, k)
            setup_times.append(time.perf_counter() - t0)
        out = tally.run(inputs, workload, f"realization {k}")
        if out is not None:
            eval_s.append(out.eval_s)
            pgt_s.append(out.pseudo_gt_s)
            if k < MIN_REALIZATIONS:
                scored.append((out, inputs))
        k += 1
        elapsed = time.perf_counter() - start
        if k >= MIN_REALIZATIONS and elapsed * (k + 1) / k > seconds:
            break

    if not scored:
        return tally.result({})
    ate = np.concatenate([pgt_errors_mm(out, inp) for out, inp in scored])
    errors = [e for out, _ in scored for e in out.errors.values()]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "eval_s": statistics.median(eval_s),
        "pseudo_gt_s": statistics.median(pgt_s),
        "run_s": statistics.median(a + b for a, b in zip(eval_s, pgt_s)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pgt_ate_mm": float(np.sqrt(np.mean(ate**2))),
        "cp_score": statistics.fmean(out.cp_score for out, _ in scored),
        "cp_recall_1m": statistics.fmean(out.cp_recall_1m for out, _ in scored),
        "cp_err_med_mm": 1000.0 * float(np.median(errors)),
        "op_fail_frac": tally.failed / max(tally.attempted, 1),
    }
    return tally.result(metrics)


def traced_run(workload: Workload, seed: int, out_dir: Path) -> Result:
    """A traced pass over the first noise realization between two untraced
    ones, then the layer microbenchmarks. The tracing overhead is the
    traced `run_s` minus the mean of the untraced ones, which cancels the
    first pass's warm-up and any steady drift of the host's speed. Set-up
    and pipeline are traced by separate recorders, so the pipeline's layer
    metrics hold no set-up calls (`synth.gen_detections` projects points
    with `try_project`). Spans and aggregates of both are written to
    `out_dir`."""
    tally = _Tally()
    before = tally.run(make_inputs(workload, seed), workload, "untraced")

    setup = Recorder()
    with setup:
        inputs = make_inputs(workload, seed)
    rec = Recorder()
    with rec:
        traced = tally.run(inputs, workload, "traced")
    stem = f"trace-{workload.name}-seed{seed}"
    setup.write(out_dir / f"{stem}-setup.json")
    rec.write(out_dir / f"{stem}.json")
    after = tally.run(make_inputs(workload, seed), workload, "untraced again")
    if before is None or traced is None or after is None:
        return tally.result({})
    if not (_same(before, traced) and _same(after, traced)):
        tally.reject(traced, "tracing changed the pipeline's outputs")

    metrics = {
        **layer_metrics(rec, traced),
        "synth.self_s": setup.layer_self_s("synth"),
        "fusion.pgt_ate_mm": np.sqrt(np.mean(pgt_errors_mm(traced, inputs) ** 2)),
        "alignment.cp_err_med_mm": 1000.0 * np.median(list(traced.errors.values())),
        **micro.all_metrics(),
        "trace.overhead_s": traced.run_s - (before.run_s + after.run_s) / 2,
    }
    return tally.result(metrics)
