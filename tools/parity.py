"""Parity check of the pipeline's outputs between two versions of `vigt`.

    python3 tools/parity.py dump OUT.npz [--src DIR]
    python3 tools/parity.py compare A.npz B.npz

`dump` runs the benchmark pipeline (`perfbench/pipeline.run_pipeline`) on
seed-1 realizations 0-2 of both benchmark workloads and saves, per run: the
keyframe positions, rotations, velocities and biases, the pose
covariances, the variance factors of every reweighting round, the CP
errors, the iteration count, termination and cost history of every
Levenberg-Marquardt solve, and the skipped CPs and tracks. From the eval
stage's `triangulation.triangulate_all` it records every CP's position,
covariance, mean reprojection error and inlier (image, camera) ids, and
the failures; from fusion, the landmark ids and positions. `--src` names the `src/` directory
of the `vigt` to run (default: this checkout's); the benchmark code is
always this checkout's, read-only.

`compare` prints the largest deviation of each quantity over all runs:
absolute for positions, rotations, velocities, biases, CP errors, CP and
landmark positions and CP mean errors, relative to each block's largest
entry for pose and CP covariances, relative for variance factors and
cost histories, and equal or not for the iteration counts, terminations,
skipped items, inlier sets, triangulation failures and landmark ids. Equal
entries, infinite or NaN ones included, deviate by 0, and an entry that is
NaN on one side only by inf. The exit code is 1 when a discrete quantity
differs. Cost histories are compared over the accepted steps both solves
made; a solve that accepted one step more or fewer is listed but does not
fail the comparison: a step at the numerical floor, which lowers the cost
by less than `solver.CONVERGENCE_TOL` of it, may be accepted or not by
round-off alone, and both end as converged after the same number of
iterations.
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
SEED = 1
REALIZATIONS = (0, 1, 2)

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
)
PER_BLOCK = ("pose_covariances", "tri_covariances")
RELATIVE = ("variance_factors", "cost_history")
DISCRETE = (
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


def _padded(rows: list[list[float]]) -> np.ndarray:
    """The rows as one array, NaN past the end of each."""
    out = np.full((len(rows), max(len(r) for r in rows)), np.nan)
    for k, row in enumerate(rows):
        out[k, : len(row)] = row
    return out


def _run(workload: str, realization: int) -> dict[str, np.ndarray]:
    from vigt import alignment, fusion, triangulation
    from vigt.fusion import VISUAL_GROUPS

    import pipeline
    from workloads import WORKLOADS as SPECS, make_inputs

    reports = []
    solve = fusion.solve

    def recorded(problem, *args, **kwargs):
        report = solve(problem, *args, **kwargs)
        reports.append(report)
        return report

    # the eval stage calls it through the module; fusion holds its own name
    evaluated = []
    triangulate_all = triangulation.triangulate_all

    def recorded_triangulation(*args, **kwargs):
        result = triangulate_all(*args, **kwargs)
        evaluated.append(result)
        return result

    alignment.solve = fusion.solve = recorded
    triangulation.triangulate_all = recorded_triangulation
    try:
        spec = SPECS[workload]
        inputs = make_inputs(spec, SEED, realization)
        out = pipeline.run_pipeline(inputs, spec.fusion)
    finally:
        alignment.solve = fusion.solve = solve
        triangulation.triangulate_all = triangulate_all
    keyframes = out.pgt.keyframes
    (tris, failures), = evaluated
    landmarks = {t.track_id: t.landmark for t in inputs.detections.tracks}
    return {
        **_triangulations(tris, failures),
        "landmark_ids": np.array(out.fp.landmark_ids, dtype=str),
        "landmarks": np.array([landmarks[t] for t in out.fp.landmark_ids]).reshape(-1, 3),
        "positions": np.stack([k.pose.translation for k in keyframes]),
        "rotations": np.stack([k.pose.rotation.canonical_quat() for k in keyframes]),
        "velocities": np.stack([k.velocity for k in keyframes]),
        "biases": np.stack([k.bias.as_vector() for k in keyframes]),
        "pose_covariances": np.stack(out.pgt.pose_covariances),
        "variance_factors": np.array(
            [[f.get(g, np.nan) for g in VISUAL_GROUPS] for f in out.pgt.variance_factors]
        ),
        "cp_errors": np.array([out.errors[c] for c in sorted(out.errors)]),
        "iterations": np.array([r.iterations for r in reports]),
        "terminations": np.array([r.termination for r in reports]),
        "cost_history": _padded([r.cost_history for r in reports]),
        "skipped_cps": np.array(sorted(out.fp.skipped_cps), dtype=str),
        "skipped_tracks": np.array(sorted(out.fp.skipped_tracks), dtype=str),
    }


def dump(path: str, src: Path) -> None:
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    arrays = {}
    for workload in WORKLOADS:
        for realization in REALIZATIONS:
            for name, value in _run(workload, realization).items():
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
        print(f"{name:18s} largest {kind} deviation {worst[name]:.3e}")
    for name in DISCRETE:
        where = differs.get(name)
        print(f"{name:18s} " + ("identical" if not where else "differ: " + ", ".join(where)))
    return 1 if differs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump")
    p_dump.add_argument("out")
    p_dump.add_argument("--src", type=Path, default=ROOT / "src")
    p_compare = sub.add_parser("compare")
    p_compare.add_argument("a")
    p_compare.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.out, args.src.resolve())
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
