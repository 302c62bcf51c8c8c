"""Benchmark metrics: piecewise-linear score, recalls, ATE, scale and
gravity errors, the half-duration failure rule, and run-to-run variability
of group averages."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import Similarity, Trajectory
from .alignment import umeyama_init

# piecewise-linear score anchors (error in metres, score); np.interp clamps
# to the end anchors outside their range
_SCORE_ANCHORS = np.array(
    [(0.05, 100.0), (0.20, 90.0), (0.50, 75.0), (1.0, 60.0), (2.0, 40.0), (5.0, 20.0), (10.0, 0.0)]
)

DEFAULT_ASSOC_TOL_NS = 10_000_000  # 10 ms


def score(error_m: float) -> float:
    """Score one CP alignment error; +inf (a missing CP) scores 0, and a
    negative or NaN error is a ValueError."""
    if not error_m >= 0.0:
        raise ValueError(f"error must be a non-negative number, got {error_m}")
    return float(np.interp(error_m, _SCORE_ANCHORS[:, 0], _SCORE_ANCHORS[:, 1]))


def sequence_score(errors: Iterable[float]) -> float:
    """Mean score over all control points; missing CPs (inf) score 0, and a
    negative or NaN error is a ValueError."""
    errors = list(errors)
    if not errors:
        raise ValueError("sequence has no control points to score")
    return float(np.mean([score(e) for e in errors]))


def cp_recall(errors: Iterable[float], tau_m: float = 1.0) -> float:
    """Percentage of control points with alignment error at most tau; a
    missing CP (inf) is a miss, and a negative or NaN error a ValueError."""
    errors = np.asarray(list(errors), dtype=float)
    if errors.size == 0:
        raise ValueError("sequence has no control points")
    if not np.all(errors >= 0.0):
        raise ValueError(f"errors must be non-negative numbers, got {errors}")
    return float(100.0 * np.mean(errors <= tau_m))


def associate(ts_a: np.ndarray, ts_b: np.ndarray) -> list[tuple[int, int]]:
    """Greedy one-to-one timestamp association within DEFAULT_ASSOC_TOL_NS."""
    ts_a = np.asarray(ts_a, dtype=np.int64)
    ts_b = np.asarray(ts_b, dtype=np.int64)
    if len(ts_a) == 0 or len(ts_b) == 0:
        return []
    candidates = []
    for i, t in enumerate(ts_a):
        j = int(np.searchsorted(ts_b, t))
        for jj in (j - 1, j):
            if 0 <= jj < len(ts_b) and abs(int(ts_b[jj]) - int(t)) <= DEFAULT_ASSOC_TOL_NS:
                candidates.append((abs(int(ts_b[jj]) - int(t)), i, jj))
    candidates.sort()
    used_a: set[int] = set()
    used_b: set[int] = set()
    pairs = []
    for _, i, j in candidates:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        pairs.append((i, j))
    pairs.sort()
    return pairs


def pose_recall(estimate: Trajectory, pseudo_gt: Trajectory, tau_m: float = 5.0) -> float:
    """Percentage of pseudo-GT keyframes with a matched estimate pose
    within tau horizontally; unmatched keyframes count as misses."""
    if len(pseudo_gt) == 0:
        raise ValueError("pseudo ground truth is empty")
    pairs = associate(pseudo_gt.timestamps, estimate.timestamps)
    gt_pos = pseudo_gt.positions()
    est_pos = estimate.positions()
    hits = 0
    for i, j in pairs:
        if np.linalg.norm(gt_pos[i, :2] - est_pos[j, :2]) <= tau_m:
            hits += 1
    return float(100.0 * hits / len(pseudo_gt))


def ate_rmse(estimate: Trajectory, gt: Trajectory, alignment: str = "sim3") -> float:
    """RMSE of 3D positions after closed-form global alignment.

    `alignment` picks Sim(3) (monocular inputs) or SE(3) (metric inputs).
    """
    if alignment not in ("sim3", "se3"):
        raise ValueError(f"alignment must be 'sim3' or 'se3', got {alignment!r}")
    pairs = associate(gt.timestamps, estimate.timestamps)
    if len(pairs) < 3:
        raise ValueError(
            f"need at least 3 associated pose pairs, found {len(pairs)}"
        )
    gt_pos = gt.positions()[[i for i, _ in pairs]]
    est_pos = estimate.positions()[[j for _, j in pairs]]
    fit = umeyama_init(list(zip(est_pos, gt_pos)))
    if alignment == "se3":
        fit = Similarity(1.0, fit.rotation, gt_pos.mean(axis=0) - fit.rotation.apply(est_pos.mean(axis=0)))
    aligned = np.stack([fit.apply(p) for p in est_pos])
    return float(np.sqrt(np.mean(np.sum((aligned - gt_pos) ** 2, axis=1))))


def scale_error(transform: Similarity) -> float:
    """Scale deviation of the sparse alignment, in percent."""
    return 100.0 * abs(transform.scale - 1.0)


def gravity_error(transform: Similarity) -> float:
    """Angle in degrees between the rotated vertical and the world vertical."""
    z = np.array([0.0, 0.0, 1.0])
    rz = transform.rotation.apply(z)
    c = float(np.clip(rz @ z, -1.0, 1.0))
    return float(np.degrees(np.arccos(c)))


def coverage_check(trajectory: Trajectory, sequence_duration_s: float) -> bool:
    """True when the trajectory spans at least half the sequence duration."""
    if len(trajectory) == 0:
        return False
    return trajectory.span_seconds() >= 0.5 * sequence_duration_s


@dataclass
class SequenceResult:
    """Evaluation output of one run over one sequence."""

    sequence_id: str
    errors: dict[str, float]
    score: float
    cp_recall_1m: float
    pose_recall_5m: float | None
    valid: bool
    run_index: int = 0
    scale_error_pct: float | None = None
    gravity_error_deg: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.score <= 100.0):
            raise ValueError(f"score {self.score} outside [0, 100]")


def apply_failure_rule(result: SequenceResult) -> SequenceResult:
    """A failed sequence scores 0 and counts every CP as a recall miss."""
    if result.valid:
        return result
    return SequenceResult(
        sequence_id=result.sequence_id,
        errors={k: np.inf for k in result.errors},
        score=0.0,
        cp_recall_1m=0.0,
        pose_recall_5m=0.0 if result.pose_recall_5m is not None else None,
        valid=False,
        run_index=result.run_index,
        scale_error_pct=result.scale_error_pct,
        gravity_error_deg=result.gravity_error_deg,
    )


def group_stats(runs_per_sequence: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Mean of per-sequence run averages and the variability of that mean.

    Requires the same number of runs k >= 2 for every sequence. The
    variability estimate divides the pooled within-sequence deviations by
    k(k-1) n(n-1); with a single sequence the (n-1) factor is dropped,
    leaving the within-sequence estimate, which holds no spread between
    sequences: a caller that reports it for one sequence should say so.
    """
    if not runs_per_sequence:
        raise ValueError("no sequences given")
    ks = {len(runs) for runs in runs_per_sequence}
    if len(ks) != 1:
        raise ValueError(f"sequences have differing run counts: {sorted(ks)}")
    k = ks.pop()
    if k < 2:
        raise ValueError(f"need at least 2 runs per sequence, got {k}")
    n = len(runs_per_sequence)
    per_seq_mean = [float(np.mean(runs)) for runs in runs_per_sequence]
    mean = float(np.mean(per_seq_mean))
    ss = sum(
        (x - m) ** 2 for runs, m in zip(runs_per_sequence, per_seq_mean) for x in runs
    )
    divisor = k * (k - 1) * n * (n - 1) if n > 1 else k * (k - 1)
    return mean, float(np.sqrt(ss / divisor))
