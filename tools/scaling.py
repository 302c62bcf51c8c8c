"""Session-length sweep of the eval and pseudo-GT stages.

    python3 tools/scaling.py [--src DIR] [--repeat N]

Builds one seeded synthetic scene per case. The eval stage runs on the
initial trajectory: `triangulation.triangulate_all` over every CP's
detections and `alignment.joint_sparse_align` are timed, and the
`ViewSet.refine` calls of the triangulation are counted, as are the
hypotheses of its scoring passes (the pairs handed to
`triangulation._score_pairs`, those a point's stop discards included; "-"
for sources without it). One more, untimed `triangulate_all` call reports
its `tracemalloc` peak. It then times
`fusion.build_fusion_problem`, whose time includes the triangulation of
the CP proxies and landmarks (`fusion.triangulate_all`, or the per-point
`fusion.triangulate_cp` of older sources; also reported on its own), and
`fusion.optimize_pseudo_gt`, whose time includes `marginal_covariances`
(also reported on its own). It also counts the Levenberg-Marquardt
iterations of the optimize's `fusion.solve` calls and reports the optimize
time per iteration, so that a change in the cost of an iteration can be
told apart from a change in their number. Scene:
`SynthConfig(seed=21, cam_rate_hz=10, cp_count=max(4, T/2),
cp_2d_fraction=0.5, detection_sigma_px=0.5, cp_noise_scale=1)` for a
length of T seconds, the true world trajectory with 2 cm white position
noise as the initial trajectory, and `FusionConfig(keyframe_stride=3)`.
Cases: 10, 30 and 90 s without landmarks, and 30 s with 150 landmarks.

With `--repeat N` each case's eval stage runs N times, and it is
optimized N times on fresh builds; the medians are kept. The lines above
the last are a table and the 30/10 and 90/30 ratios of the optimize time
without landmarks; the last line is one JSON object with the same
figures. `--src` names the `src/` directory of the `vigt` to run
(default: this checkout's).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
# (length in seconds, landmarks)
CASES = ((10, 0), (30, 0), (90, 0), (30, 150))


def _scene(length: int, landmarks: int):
    from vigt.synth import (
        SynthConfig,
        default_rig,
        gen_detections,
        gen_imu,
        gen_world,
        perturb_trajectory,
    )

    config = SynthConfig(
        seed=21,
        duration_s=float(length),
        cam_rate_hz=10.0,
        cp_count=max(4, length // 2),
        cp_2d_fraction=0.5,
        landmark_count=landmarks,
        detection_sigma_px=0.5,
        cp_noise_scale=1.0,
    )
    world = gen_world(config)
    rig = default_rig()
    detections = gen_detections(world, rig, seed=3)
    imu = gen_imu(world, seed=4)
    init = perturb_trajectory(world.world_trajectory(), white_sigma_pos=0.02, seed=5)
    return world, rig, detections, imu, init


@contextlib.contextmanager
def _iterations(module, counts: list[int]):
    """Add the iterations of every `module.solve` call to `counts`."""
    fn = module.solve

    def counted(*args, **kwargs):
        report = fn(*args, **kwargs)
        counts[-1] += report.iterations
        return report

    module.solve = counted
    try:
        yield
    finally:
        module.solve = fn


@contextlib.contextmanager
def _timing(module, name: str, seconds: list[float]):
    """Add the time of every call of `module.name` to `seconds`."""
    fn = getattr(module, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[-1] += time.perf_counter() - t0

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, fn)


def _eval_stage(world, rig, detections, init, repeat: int) -> dict:
    """Median times of the eval stage's triangulation and alignment on the
    initial trajectory; the refine calls and scored hypotheses of one
    triangulation, and the `tracemalloc` peak of another."""
    from vigt import alignment, triangulation

    refine = triangulation.ViewSet.refine
    score_pairs = getattr(triangulation, "_score_pairs", None)
    calls, hypotheses = [0], [0]

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return refine(self, *args, **kwargs)

    def scored(*args, **kwargs):
        hypotheses[0] += len(args[3])
        return score_pairs(*args, **kwargs)

    poses = init.pose_map()
    triangulate_s, align_s = [], []
    triangulation.ViewSet.refine = counted
    if score_pairs is not None:
        triangulation._score_pairs = scored
    try:
        for _ in range(repeat):
            calls[0] = hypotheses[0] = 0
            t0 = time.perf_counter()
            tris, _ = triangulation.triangulate_all(detections.cp_observations, poses, rig)
            t1 = time.perf_counter()
            alignment.joint_sparse_align(tris, poses, rig, world.cps)
            t2 = time.perf_counter()
            triangulate_s.append(t1 - t0)
            align_s.append(t2 - t1)
    finally:
        triangulation.ViewSet.refine = refine
        if score_pairs is not None:
            triangulation._score_pairs = score_pairs
    tracemalloc.start()
    try:
        triangulation.triangulate_all(detections.cp_observations, poses, rig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "eval_triangulate_s": statistics.median(triangulate_s),
        "eval_align_s": statistics.median(align_s),
        "eval_refine_calls": calls[0],
        "eval_hypotheses": hypotheses[0] if score_pairs is not None else None,
        "eval_triangulate_peak_mb": peak / 2**20,
    }


def _run_case(length: int, landmarks: int, repeat: int) -> dict:
    from vigt import fusion

    world, rig, detections, imu, init = _scene(length, landmarks)
    evaluated = _eval_stage(world, rig, detections, init, repeat)
    config = fusion.FusionConfig(keyframe_stride=3)
    triangulate = "triangulate_all" if hasattr(fusion, "triangulate_all") else "triangulate_cp"
    builds, optimizes, triangulate_s, marginal_s, iterations = [], [], [], [], []
    with _timing(fusion, triangulate, triangulate_s), _timing(
        fusion, "marginal_covariances", marginal_s
    ), _iterations(fusion, iterations):
        for _ in range(repeat):
            triangulate_s.append(0.0)
            marginal_s.append(0.0)
            iterations.append(0)
            t0 = time.perf_counter()
            fp = fusion.build_fusion_problem(
                init, detections.tracks, detections.cp_observations, world.cps, imu, rig, config
            )
            t1 = time.perf_counter()
            fusion.optimize_pseudo_gt(fp)
            t2 = time.perf_counter()
            builds.append(t1 - t0)
            optimizes.append(t2 - t1)
    unknowns = sum(b.dim for b in fp.problem.params.values())
    return {
        "length_s": length,
        "landmarks": len(fp.landmark_ids),
        "keyframes": len(fp.keyframe_ts),
        "unknowns": unknowns,
        "build_s": statistics.median(builds),
        "triangulate_s": statistics.median(triangulate_s),
        "optimize_s": statistics.median(optimizes),
        "marginals_s": statistics.median(marginal_s),
        "lm_iters": statistics.median(iterations),
        "optimize_ms_per_iter": 1e3 * statistics.median(optimizes) / statistics.median(iterations),
        **evaluated,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    rows = [_run_case(length, landmarks, args.repeat) for length, landmarks in CASES]
    print(
        f"{'length':>6s} {'landmarks':>9s} {'keyframes':>9s} {'unknowns':>8s}"
        f" {'build':>8s} {'triangulate':>11s} {'optimize':>9s} {'marginals':>9s}"
        f" {'LM iters':>8s} {'per iter':>9s} {'eval tri':>9s} {'align':>8s} {'refines':>7s}"
        f" {'hyps':>6s} {'tri peak':>9s}"
    )
    for r in rows:
        hypotheses = "-" if r["eval_hypotheses"] is None else str(r["eval_hypotheses"])
        print(
            f"{r['length_s']:5d}s {r['landmarks']:9d} {r['keyframes']:9d} {r['unknowns']:8d}"
            f" {r['build_s']:7.3f}s {r['triangulate_s']:10.3f}s {r['optimize_s']:8.3f}s"
            f" {r['marginals_s']:8.3f}s {r['lm_iters']:8g} {r['optimize_ms_per_iter']:7.2f}ms"
            f" {r['eval_triangulate_s']:8.3f}s {r['eval_align_s']:7.3f}s"
            f" {r['eval_refine_calls']:7d} {hypotheses:>6s} {r['eval_triangulate_peak_mb']:6.1f} MB"
        )
    optimize = {r["length_s"]: r["optimize_s"] for r in rows if r["landmarks"] == 0}
    ratios = {"30/10": optimize[30] / optimize[10], "90/30": optimize[90] / optimize[30]}
    print("optimize time ratios without landmarks: " + ", ".join(
        f"{k} {v:.2f}x" for k, v in ratios.items()
    ))
    print(json.dumps({"cases": rows, "ratios": ratios}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
