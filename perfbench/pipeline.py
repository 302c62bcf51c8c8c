"""The two pipeline stages the benchmark times, and the per-run
correctness check of their outputs."""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

# Calls go through the module attributes, so a traced run sees them.
from vigt import alignment, fusion, metrics, triangulation
from vigt.fusion import FusionConfig, FusionProblem, PseudoGT

from workloads import Inputs, Workload


@dataclass
class Outputs:
    eval_s: float
    pseudo_gt_s: float
    errors: dict[str, float]
    cp_score: float
    cp_recall_1m: float
    fp: FusionProblem
    pgt: PseudoGT
    attempted: int
    failed: int

    @property
    def run_s(self) -> float:
        return self.eval_s + self.pseudo_gt_s


def operations(inputs: Inputs, config: FusionConfig) -> int:
    """CP triangulations in eval, plus CPs and tracks attempted by fusion."""
    tracks = len(inputs.detections.tracks) if config.mode == "full" else 0
    return 2 * len(inputs.detections.cp_observations) + tracks


def run_pipeline(inputs: Inputs, config: FusionConfig) -> Outputs:
    """Eval stage (inputs to CP score), then the pseudo-GT stage."""
    # bias_correct warns on every residual evaluation past its range;
    # record the warnings rather than flood standard error
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        poses = inputs.slam.pose_map()
        tris, tri_failures = triangulation.triangulate_all(
            inputs.detections.cp_observations, poses, inputs.rig
        )
        cps = inputs.world.cps
        aligned = alignment.joint_sparse_align(tris, poses, inputs.rig, cps)
        errors = alignment.cp_alignment_errors(aligned.transform, tris, cps)
        score = metrics.sequence_score(errors.values())
        recall = metrics.cp_recall(errors.values(), 1.0)
        t1 = time.perf_counter()
        init = inputs.slam.transformed(aligned.transform)
        fp = fusion.build_fusion_problem(
            init,
            inputs.detections.tracks,
            inputs.detections.cp_observations,
            inputs.world.cps,
            inputs.imu,
            inputs.rig,
            config,
        )
        pgt = fusion.optimize_pseudo_gt(fp)
        t2 = time.perf_counter()

    failed = len(tri_failures) + len(fp.skipped_cps) + len(fp.skipped_tracks)
    return Outputs(
        eval_s=t1 - t0,
        pseudo_gt_s=t2 - t1,
        errors=errors,
        cp_score=score,
        cp_recall_1m=recall,
        fp=fp,
        pgt=pgt,
        attempted=operations(inputs, config),
        failed=failed,
    )


def pgt_errors_mm(out: Outputs, inputs: Inputs) -> np.ndarray:
    """Pseudo-GT keyframe position errors against the true world
    trajectory, with no re-alignment: the pseudo-GT must already sit in
    the world frame."""
    truth = inputs.world.world_trajectory().pose_map()
    return 1000.0 * np.array(
        [
            np.linalg.norm(k.pose.translation - truth[k.timestamp_ns].translation)
            for k in out.pgt.keyframes
        ]
    )


def check(out: Outputs, inputs: Inputs, workload: Workload) -> list[str]:
    """Problems with one pipeline run's outputs; empty when correct."""
    problems = []
    for kf in out.pgt.keyframes:
        pose, bias = kf.pose, kf.bias.as_vector()
        values = (pose.translation, pose.rotation.matrix(), kf.velocity, bias)
        if not all(np.all(np.isfinite(v)) for v in values):
            problems.append(f"keyframe {kf.timestamp_ns}: non-finite state")
    for kf, cov in zip(out.pgt.keyframes, out.pgt.pose_covariances):
        where = f"keyframe {kf.timestamp_ns}: pose covariance"
        if not np.allclose(cov, cov.T, rtol=1e-9, atol=0.0):
            problems.append(f"{where} not symmetric")
        elif not np.linalg.eigvalsh(cov).min() > 0.0:
            problems.append(f"{where} not positive definite")
    ate = float(np.sqrt(np.mean(pgt_errors_mm(out, inputs) ** 2)))
    if not ate <= workload.max_ate_mm:
        problems.append(f"pseudo-GT ATE {ate:.1f} mm above {workload.max_ate_mm} mm")
    err = 1000.0 * float(np.median(list(out.errors.values())))
    if not err <= workload.max_cp_err_mm:
        problems.append(
            f"median CP error {err:.1f} mm above {workload.max_cp_err_mm} mm"
        )
    if not out.cp_recall_1m >= workload.min_cp_recall:
        problems.append(
            f"CP recall {out.cp_recall_1m:.0f}% below {workload.min_cp_recall}%"
        )
    return problems
