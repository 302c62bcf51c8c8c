"""Layer microbenchmarks on fixed inputs, through public functions only.

Each returns per-layer metrics keyed as in BENCHMARK.json. Inputs come
from a fixed seed, so only the timings vary between runs.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from vigt.geometry import RigidPose, Rotation, projection_jacobian_batch, try_project
from vigt.inertial import Bias, ImuStream, preintegrate
from vigt.solver import Problem, marginal_covariances
from vigt.synth import default_rig
from vigt.triangulation import Observation, TriangulationConfig, triangulate_ransac

_ROUNDS = 5
_BATCH = 20_000
_RANSAC_OBS = 130
# A capped hypothesis budget keeps the microbenchmark short; the rate
# per hypothesis is what it measures.
_RANSAC_CONFIG = TriangulationConfig(max_iters=40)
_CHAIN_BLOCKS = 200  # 1200 unknowns: above the dense-Cholesky size limit


def _seconds_per_call(fn, min_round_s: float = 0.05) -> float:
    """Median over rounds of the time per call, with enough calls per
    round to last at least `min_round_s`."""
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= min_round_s:
            break
        calls *= 2
    rounds = [elapsed / calls]
    for _ in range(_ROUNDS - 1):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        rounds.append((time.perf_counter() - t0) / calls)
    return statistics.median(rounds)


def _points(rng, n: int) -> np.ndarray:
    xy = rng.uniform(-3.0, 3.0, (n, 2))
    return np.column_stack([xy, rng.uniform(2.0, 10.0, n)])


def geometry_metrics() -> dict[str, float]:
    cam = default_rig().cameras["left"]
    rng = np.random.default_rng(0)
    scalar = list(_points(rng, 200))
    batch = _points(rng, _BATCH)

    def scalar_calls():
        for p in scalar:
            try_project(cam, p)

    t_scalar = _seconds_per_call(scalar_calls) / len(scalar)
    t_batch = _seconds_per_call(lambda: try_project(cam, batch))
    t_jac = _seconds_per_call(lambda: projection_jacobian_batch(cam, batch))
    return {
        "geometry.try_project.scalar_us": 1e6 * t_scalar,
        "geometry.try_project.batch_mpts_per_s": _BATCH / t_batch / 1e6,
        "geometry.projection_jacobian_batch.mpts_per_s": _BATCH / t_jac / 1e6,
    }


def inertial_metrics() -> dict[str, float]:
    rate_hz, n = 400.0, 201
    t = np.arange(n) / rate_hz
    gyro = np.column_stack([0.3 * np.sin(2 * t), 0.2 * np.cos(3 * t), 0.5 + 0.1 * t])
    accel = np.column_stack(
        [np.sin(t), 0.5 * np.cos(2 * t), 9.81 + 0.2 * np.sin(5 * t)]
    )
    stream = ImuStream((t * 1e9).round().astype(np.int64), gyro, accel)
    noise = default_rig().imu_noise
    per_call = _seconds_per_call(lambda: preintegrate(stream, Bias.zero(), noise))
    return {"inertial.preintegrate_bench.us_per_sample": 1e6 * per_call / n}


def _ransac_input():
    """One control point seen by the left camera from 130 poses on an arc,
    with 0.5 px noise and one observation in ten displaced as an outlier."""
    rig = default_rig()
    cam = rig.cameras["left"]
    cam_from_device = rig.camera_from_device["left"]
    rng = np.random.default_rng(1)
    cp = np.array([0.0, 0.0, 1.0])
    observations, poses = [], {}
    for k in range(_RANSAC_OBS):
        angle = 2.0 * np.pi * k / _RANSAC_OBS
        center = np.array([6.0 * np.cos(angle), 6.0 * np.sin(angle), 1.5])
        to_cp = cp - center
        yaw = np.arctan2(to_cp[1], to_cp[0]) - np.deg2rad(35.0)
        pose = RigidPose(Rotation.exp([0.0, 0.0, yaw]), center)
        uv, valid = try_project(cam, cam_from_device.apply(pose.inverse().apply(cp)))
        if not valid:
            raise RuntimeError("microbenchmark control point is not visible")
        uv = uv + rng.normal(scale=0.5, size=2)
        if k % 10 == 0:
            uv = uv + 30.0
        poses[k] = pose
        observations.append(Observation(k, "left", uv))
    return observations, poses, rig


def triangulation_metrics() -> dict[str, float]:
    observations, poses, rig = _ransac_input()
    per_call = _seconds_per_call(
        lambda: triangulate_ransac(observations, poses, rig, _RANSAC_CONFIG),
        min_round_s=0.0,
    )
    rate = _RANSAC_CONFIG.max_iters / per_call
    return {"triangulation.ransac_bench.hypotheses_per_s": rate}


def _chain_problem() -> tuple[Problem, list[str]]:
    """A chain of 6-vectors tied by relative and absolute factors."""
    problem = Problem()
    ids = [f"x{k}" for k in range(_CHAIN_BLOCKS)]
    for k, pid in enumerate(ids):
        problem.add_parameter_block(pid, np.full(6, 0.01 * k))
        problem.add_residual_block(
            lambda x, k=k: x - 0.01 * k, [pid], np.eye(6), jac=lambda x: [np.eye(6)]
        )
    for a, b in zip(ids, ids[1:]):
        problem.add_residual_block(
            lambda xa, xb: xb - xa - 0.01,
            [a, b],
            np.eye(6) * 1e-4,
            jac=lambda xa, xb: [-np.eye(6), np.eye(6)],
        )
    return problem, ids


def solver_metrics() -> dict[str, float]:
    problem, ids = _chain_problem()
    per_call = _seconds_per_call(
        lambda: marginal_covariances(problem, ids), min_round_s=0.0
    )
    return {"solver.marginal_covariances_bench.s": per_call}


def all_metrics() -> dict[str, float]:
    return {
        **geometry_metrics(),
        **inertial_metrics(),
        **triangulation_metrics(),
        **solver_metrics(),
    }
