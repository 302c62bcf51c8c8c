"""Parity check of the pipeline's outputs between two versions of `vigt`.

    python3 tools/parity.py dump OUT.npz [--src DIR] [--seed N]
    python3 tools/parity.py compare A.npz B.npz
    python3 tools/parity.py gates A.npz B.npz

`dump` runs the benchmark pipeline (`perfbench/pipeline.run_pipeline`) on
realizations 0-2 of both benchmark workloads for one seed (default 1) and
saves, per run: the keyframe positions, rotations, velocities and biases,
the pose covariances, the variance factors of every reweighting round, the
CP errors, the stage (alignment or fusion), iteration count, termination
and cost history of every Levenberg-Marquardt solve, and the skipped CPs
and tracks. From the eval stage's `triangulation.triangulate_all` it
records every CP's position, covariance, mean reprojection error and
inlier (image, camera) ids, and the failures; from fusion, the landmark
ids and their solved positions (the problem's `lm:<id>` blocks), and the
keyframe intervals' preintegrated IMU segments (`fp.segments`): their
lengths, deltas, bias Jacobians and covariances. `--src`
names the `src/` directory of the `vigt` to run (default: this
checkout's); the benchmark code and this tool are always this
checkout's, read-only, so dump both sides of a comparison with it.

`compare` prints the largest deviation of each quantity over all runs:
absolute for positions, rotations, velocities, biases, CP errors, CP and
landmark positions, CP mean errors and the segments' lengths, deltas and
bias Jacobians, relative to each block's largest entry for pose, CP and
segment covariances, relative for variance factors and
cost histories, and equal or not for the iteration counts, terminations,
skipped items, inlier sets, triangulation failures and landmark ids. Equal
entries, infinite or NaN ones included, deviate by 0, and an entry that is
NaN on one side only by inf. The exit code is 1 when a discrete quantity
differs. Cost histories are compared over the accepted steps both solves
made; a solve that accepted one step more or fewer is listed but does not
fail the comparison: a solve's last iteration, whose step the model
promises to lower the cost by at most `solver.stop_tolerance`, ends it as
converged whether that step is accepted or not, and a step that small may
be either by round-off alone.

`gates` checks two dumps whose results differ by design against the
accuracy gates of such a change. Per workload it prints the largest move
of a keyframe position in standard deviations of A's marginal, the
Mahalanobis length sqrt(dp' S^-1 dp) under the position block S of A's
pose covariance (inf for a NaN position), the largest move of a CP error
in mm (a CP missing on both sides moves by 0), `cp_score` and
`cp_recall_1m` recomputed from each side's CP errors (means over the
runs), and the Levenberg-Marquardt iterations of each stage, summed over
the runs. It also prints, for information, the largest move of a pose
covariance relative to its block's largest entry (as `compare` measures
it) and the fusion iterations of each solve in order, each summed over
the runs. The exit code is 1 when a keyframe moves by more than 0.1
standard deviations or a CP error by more than 0.1 mm.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cp-dense", "landmarks")
REALIZATIONS = (0, 1, 2)
STAGES = ("alignment", "fusion")
# the gates: a keyframe position may move by this many standard deviations
# of its marginal, a CP error by this many mm
MAX_SIGMA_MOVE = 0.1
MAX_CP_MOVE_MM = 0.1

# how `compare` measures the deviation of each numeric quantity
ABSOLUTE = (
    "positions",
    "rotations",
    "velocities",
    "biases",
    "cp_errors",
    "tri_positions",
    "tri_mean_errors",
    "landmarks",
    "segment_dt",
    "segment_deltas",
    "segment_bias_jacobians",
)
PER_BLOCK = ("pose_covariances", "tri_covariances", "segment_covariances")
RELATIVE = ("variance_factors", "cost_history")
DISCRETE = (
    "stages",
    "iterations",
    "terminations",
    "skipped_cps",
    "skipped_tracks",
    "tri_inliers",
    "tri_failures",
    "landmark_ids",
)


def _triangulations(tris: dict, failures: dict) -> dict[str, np.ndarray]:
    ids = sorted(tris)
    return {
        "tri_positions": np.array([tris[c].position for c in ids]).reshape(-1, 3),
        "tri_covariances": np.array([tris[c].covariance for c in ids]).reshape(-1, 3, 3),
        "tri_mean_errors": np.array([tris[c].mean_reproj_error_px for c in ids]),
        "tri_inliers": np.array(
            [f"{c}:{o.image_id}:{o.camera_id}" for c in ids for o in tris[c].inliers], dtype=str
        ),
        "tri_failures": np.array([f"{c}: {failures[c]}" for c in sorted(failures)], dtype=str),
    }


def _segments(segs) -> dict[str, np.ndarray]:
    return {
        "segment_dt": segs.dt,
        "segment_deltas": np.hstack([segs.delta_rot, segs.delta_vel, segs.delta_pos]),
        "segment_bias_jacobians": np.stack(
            [segs.d_rot_d_bg, segs.d_vel_d_bg, segs.d_vel_d_ba, segs.d_pos_d_bg, segs.d_pos_d_ba],
            axis=1,
        ),
        "segment_covariances": segs.covariance,
    }


def _padded(rows: list[list[float]]) -> np.ndarray:
    """The rows as one array, NaN past the end of each."""
    out = np.full((len(rows), max(len(r) for r in rows)), np.nan)
    for k, row in enumerate(rows):
        out[k, : len(row)] = row
    return out


def _run(workload: str, seed: int, realization: int) -> dict[str, np.ndarray]:
    from vigt import alignment, fusion, triangulation
    from vigt.fusion import VISUAL_GROUPS

    import pipeline
    from workloads import WORKLOADS as SPECS, make_inputs

    reports, stages = [], []
    solve = fusion.solve

    def recorder(stage: str):
        def recorded(problem, *args, **kwargs):
            report = solve(problem, *args, **kwargs)
            reports.append(report)
            stages.append(stage)
            return report

        return recorded

    # the eval stage calls it through the module; fusion holds its own name
    evaluated = []
    triangulate_all = triangulation.triangulate_all

    def recorded_triangulation(*args, **kwargs):
        result = triangulate_all(*args, **kwargs)
        evaluated.append(result)
        return result

    alignment.solve, fusion.solve = recorder("alignment"), recorder("fusion")
    triangulation.triangulate_all = recorded_triangulation
    try:
        spec = SPECS[workload]
        inputs = make_inputs(spec, seed, realization)
        out = pipeline.run_pipeline(inputs, spec.fusion)
    finally:
        alignment.solve = fusion.solve = solve
        triangulation.triangulate_all = triangulate_all
    keyframes = out.pgt.keyframes
    (tris, failures), = evaluated
    return {
        **_triangulations(tris, failures),
        **_segments(out.fp.segments),
        "landmark_ids": np.array(out.fp.landmark_ids, dtype=str),
        "landmarks": np.array(
            [out.fp.problem.value(f"lm:{t}") for t in out.fp.landmark_ids]
        ).reshape(-1, 3),
        "positions": np.stack([k.pose.translation for k in keyframes]),
        "rotations": np.stack([k.pose.rotation.canonical_quat() for k in keyframes]),
        "velocities": np.stack([k.velocity for k in keyframes]),
        "biases": np.stack([k.bias.as_vector() for k in keyframes]),
        "pose_covariances": np.stack(out.pgt.pose_covariances),
        "variance_factors": np.array(
            [[f.get(g, np.nan) for g in VISUAL_GROUPS] for f in out.pgt.variance_factors]
        ),
        "cp_errors": np.array([out.errors[c] for c in sorted(out.errors)]),
        "stages": np.array(stages, dtype=str),
        "iterations": np.array([r.iterations for r in reports]),
        "terminations": np.array([r.termination for r in reports]),
        "cost_history": _padded([r.cost_history for r in reports]),
        "skipped_cps": np.array(sorted(out.fp.skipped_cps), dtype=str),
        "skipped_tracks": np.array(sorted(out.fp.skipped_tracks), dtype=str),
    }


def dump(path: str, src: Path, seed: int = 1) -> None:
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    arrays = {}
    for workload in WORKLOADS:
        for realization in REALIZATIONS:
            for name, value in _run(workload, seed, realization).items():
                arrays[f"{workload}/{realization}/{name}"] = value
    np.savez(path, **arrays)
    print(f"wrote {len(arrays)} arrays to {path}")


def _deviation(name: str, a: np.ndarray, b: np.ndarray) -> float:
    if name == "cost_history" and len(a) == len(b):  # the steps both solves accepted
        width = min(a.shape[1], b.shape[1])
        a, b = a[:, :width], b[:, :width]
        a, b = np.where(np.isnan(b), np.nan, a), np.where(np.isnan(a), np.nan, b)
    if a.shape != b.shape:
        return np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.abs(a - b)
        if name in PER_BLOCK:
            dev = dev / np.abs(a).max(axis=(-2, -1), keepdims=True)
        elif name in RELATIVE:
            dev = dev / np.abs(a)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    dev = np.where(np.isnan(dev), np.inf, dev)
    return float(np.max(np.where(same, 0.0, dev), initial=0.0))


def compare(path_a: str, path_b: str) -> int:
    a, b = np.load(path_a), np.load(path_b)
    if set(a.files) != set(b.files):
        print("the files hold different quantities or runs")
        return 1
    worst: dict[str, float] = {}
    differs: dict[str, list[str]] = {}
    for key in sorted(a.files):
        name = key.rsplit("/", 1)[1]
        if name in DISCRETE:
            if not np.array_equal(a[key], b[key]):
                differs.setdefault(name, []).append(key)
            continue
        worst[name] = max(worst.get(name, 0.0), _deviation(name, a[key], b[key]))
        if name == "cost_history" and len(a[key]) == len(b[key]):
            steps_a, steps_b = (np.sum(~np.isnan(x), axis=1) - 1 for x in (a[key], b[key]))
            for k in np.flatnonzero(steps_a != steps_b):
                print(f"{key}: solve {k} accepted {steps_a[k]} and {steps_b[k]} steps")
    for name in ABSOLUTE + PER_BLOCK + RELATIVE:
        kind = "absolute" if name in ABSOLUTE else "relative"
        print(f"{name:22s} largest {kind} deviation {worst[name]:.3e}")
    for name in DISCRETE:
        where = differs.get(name)
        print(f"{name:22s} " + ("identical" if not where else "differ: " + ", ".join(where)))
    return 1 if differs else 0


def _runs(data) -> dict[str, list[str]]:
    """The run prefixes ("workload/realization") of a dump, by workload."""
    runs: dict[str, list[str]] = {}
    for run in sorted({key.rsplit("/", 1)[0] for key in data.files}):
        runs.setdefault(run.split("/", 1)[0], []).append(run)
    return runs


def _sigma_moves(positions_a, positions_b, covariances_a) -> np.ndarray:
    """Each keyframe's position move in standard deviations of A's
    marginal: sqrt(dp' S^-1 dp), S the position block of the pose
    covariance (tangent order rotation, translation)."""
    dp = positions_b - positions_a
    cov = covariances_a[:, 3:6, 3:6]
    moves = np.sqrt(np.einsum("ki,ki->k", dp, np.linalg.solve(cov, dp[..., None])[..., 0]))
    return np.where(np.isnan(moves), np.inf, moves)


def _cp_moves_mm(errors_a, errors_b) -> np.ndarray:
    """Each CP error's move in mm; 0 for a CP missing (inf) on both sides."""
    with np.errstate(invalid="ignore"):
        return np.where(errors_a == errors_b, 0.0, np.abs(errors_b - errors_a) * 1e3)


def gates(path_a: str, path_b: str) -> int:
    from vigt.metrics import cp_recall, sequence_score

    a, b = np.load(path_a), np.load(path_b)
    if set(a.files) != set(b.files):
        print("the files hold different quantities or runs")
        return 1
    failed = False
    for workload, runs in _runs(a).items():
        sigma, cp_mm, cov_move = 0.0, 0.0, 0.0
        scores, recalls = np.zeros((2, len(runs))), np.zeros((2, len(runs)))
        iterations = {stage: [0, 0] for stage in STAGES}
        fusion_solves = ([], [])  # each run's fusion iterations, solve by solve
        for k, run in enumerate(runs):
            covariances = a[f"{run}/pose_covariances"], b[f"{run}/pose_covariances"]
            moves = _sigma_moves(a[f"{run}/positions"], b[f"{run}/positions"], covariances[0])
            sigma = max(sigma, float(moves.max(initial=0.0)))
            cov_move = max(cov_move, _deviation("pose_covariances", *covariances))
            errors = a[f"{run}/cp_errors"], b[f"{run}/cp_errors"]
            cp_mm = max(cp_mm, float(_cp_moves_mm(*errors).max(initial=0.0)))
            for side, data in enumerate((a, b)):
                scores[side, k] = sequence_score(errors[side])
                recalls[side, k] = cp_recall(errors[side], 1.0)
                stages, counts = data[f"{run}/stages"], data[f"{run}/iterations"]
                for stage, count in zip(stages, counts):
                    iterations[str(stage)][side] += int(count)
                fusion_solves[side].append(counts[stages == "fusion"])
        bad = sigma > MAX_SIGMA_MOVE or cp_mm > MAX_CP_MOVE_MM
        failed |= bad
        rows = {
            "largest keyframe move": f"{sigma:.4f} sigma (gate {MAX_SIGMA_MOVE})",
            "largest CP error move": f"{cp_mm:.4f} mm (gate {MAX_CP_MOVE_MM})",
            "cp_score": f"{scores[0].mean():.6f} -> {scores[1].mean():.6f}",
            "cp_recall_1m": f"{recalls[0].mean():.6f} -> {recalls[1].mean():.6f}",
        }
        for stage, (before, after) in iterations.items():
            rows[f"{stage} LM iterations"] = f"{before} -> {after}"
        rows["fusion per solve"] = " -> ".join(
            "+".join(str(int(n)) for n in np.nansum(_padded(side), axis=0))
            for side in fusion_solves
        )
        rows["pose covariance move"] = f"{cov_move:.2%} of each block's largest entry"
        print(f"{workload} ({len(runs)} runs)" + (": FAILS" if bad else ""))
        for label, value in rows.items():
            print(f"  {label:24s} {value}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump")
    p_dump.add_argument("out")
    p_dump.add_argument("--src", type=Path, default=ROOT / "src")
    p_dump.add_argument("--seed", type=int, default=1)
    for command in ("compare", "gates"):
        p_check = sub.add_parser(command)
        p_check.add_argument("a")
        p_check.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.out, args.src.resolve(), args.seed)
        return 0
    if args.command == "gates":
        sys.path.insert(0, str(ROOT / "src"))
        return gates(args.a, args.b)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
