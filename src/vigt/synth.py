"""Synthetic worlds with exact ground truth.

Trajectories are closed-form C2 curves (position and orientation), so
velocity, acceleration, and body angular rate exist analytically and the
generated camera detections and IMU samples are exactly consistent with
the pose stream. The world control-point coordinates are related to the
trajectory frame by a configurable similarity, which emulates the unknown
map between a SLAM frame and the surveyed frame.

Everything is deterministic under the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from .alignment import ControlPoint
from .fusion import FeatureTrack
from .geometry import (
    CameraKind,
    CameraModel,
    RigCalibration,
    RigidPose,
    Rotation,
    Similarity,
    Trajectory,
    quat_from_matrix,
    try_project,
)
from .inertial import GRAVITY_W, Bias, ImuNoise, ImuStream
from .metrics import gravity_error, scale_error
from .triangulation import Observation

DEFAULT_IMU_NOISE = ImuNoise(
    gyro_density=1.5e-4,
    accel_density=1.2e-3,
    gyro_walk=2.0e-6,
    accel_walk=3.0e-5,
)


def euler_zyx_matrix(yaw, pitch, roll) -> np.ndarray:
    """Rotation matrices for ZYX Euler angles, vectorized over inputs."""
    yaw, pitch, roll = np.broadcast_arrays(yaw, pitch, roll)
    cy, sy = np.cos(yaw), np.sin(yaw)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cr, sr = np.cos(roll), np.sin(roll)
    m = np.empty(yaw.shape + (3, 3))
    m[..., 0, 0] = cy * cp
    m[..., 0, 1] = cy * sp * sr - sy * cr
    m[..., 0, 2] = cy * sp * cr + sy * sr
    m[..., 1, 0] = sy * cp
    m[..., 1, 1] = sy * sp * sr + cy * cr
    m[..., 1, 2] = sy * sp * cr - cy * sr
    m[..., 2, 0] = -sp
    m[..., 2, 1] = cp * sr
    m[..., 2, 2] = cp * cr
    return m


def euler_zyx_body_rates(yaw, pitch, roll, dyaw, dpitch, droll) -> np.ndarray:
    """Body angular velocity from ZYX Euler angles and their rates."""
    yaw, pitch, roll, dyaw, dpitch, droll = np.broadcast_arrays(
        yaw, pitch, roll, dyaw, dpitch, droll
    )
    cp, sp = np.cos(pitch), np.sin(pitch)
    cr, sr = np.cos(roll), np.sin(roll)
    wx = droll - dyaw * sp
    wy = dpitch * cr + dyaw * cp * sr
    wz = dyaw * cp * cr - dpitch * sr
    return np.stack([wx, wy, wz], axis=-1)


@dataclass
class _EulerSchedule:
    """Smooth sinusoidal orientation program."""

    yaw_rate: float
    yaw_amp: float
    yaw_freq: float
    pitch_amp: float
    pitch_freq: float
    roll_amp: float
    roll_freq: float
    yaw0: float = 0.0

    def angles(self, t):
        t = np.asarray(t, dtype=float)
        yaw = self.yaw0 + self.yaw_rate * t + self.yaw_amp * np.sin(self.yaw_freq * t)
        pitch = self.pitch_amp * np.sin(self.pitch_freq * t + 0.5)
        roll = self.roll_amp * np.sin(self.roll_freq * t + 1.3)
        return yaw, pitch, roll

    def rates(self, t):
        t = np.asarray(t, dtype=float)
        dyaw = self.yaw_rate + self.yaw_amp * self.yaw_freq * np.cos(self.yaw_freq * t)
        dpitch = self.pitch_amp * self.pitch_freq * np.cos(self.pitch_freq * t + 0.5)
        droll = self.roll_amp * self.roll_freq * np.cos(self.roll_freq * t + 1.3)
        return dyaw, dpitch, droll


class TrajectoryCurve:
    """Closed-form trajectory: position curve plus orientation schedule."""

    def __init__(self, pos_fn, vel_fn, acc_fn, euler: _EulerSchedule):
        self._pos = pos_fn
        self._vel = vel_fn
        self._acc = acc_fn
        self.euler = euler

    def position(self, t):
        return self._pos(np.asarray(t, dtype=float))

    def velocity(self, t):
        return self._vel(np.asarray(t, dtype=float))

    def acceleration(self, t):
        return self._acc(np.asarray(t, dtype=float))

    def rotation_matrices(self, t):
        yaw, pitch, roll = self.euler.angles(t)
        return euler_zyx_matrix(yaw, pitch, roll)

    def rotation(self, t: float) -> Rotation:
        return Rotation.from_matrix(self.rotation_matrices(float(t)))

    def body_rates(self, t):
        yaw, pitch, roll = self.euler.angles(t)
        dyaw, dpitch, droll = self.euler.rates(t)
        return euler_zyx_body_rates(yaw, pitch, roll, dyaw, dpitch, droll)


def figure_eight_curve(duration_s: float, radius: float = 10.0) -> TrajectoryCurve:
    w = 2.0 * np.pi / duration_s
    a, b, h = radius, 0.6 * radius, 0.4

    def pos(t):
        return np.stack(
            [a * np.sin(w * t), b * np.sin(2 * w * t), 1.5 + h * np.sin(3 * w * t)],
            axis=-1,
        )

    def vel(t):
        return np.stack(
            [
                a * w * np.cos(w * t),
                2 * b * w * np.cos(2 * w * t),
                3 * h * w * np.cos(3 * w * t),
            ],
            axis=-1,
        )

    def acc(t):
        return np.stack(
            [
                -a * w**2 * np.sin(w * t),
                -4 * b * w**2 * np.sin(2 * w * t),
                -9 * h * w**2 * np.sin(3 * w * t),
            ],
            axis=-1,
        )

    euler = _EulerSchedule(
        yaw_rate=2.0 * w, yaw_amp=0.3, yaw_freq=2.0 * w,
        pitch_amp=0.12, pitch_freq=3.0 * w,
        roll_amp=0.08, roll_freq=2.0 * w,
    )
    return TrajectoryCurve(pos, vel, acc, euler)


def waypoint_curve(duration_s: float, waypoints: np.ndarray) -> TrajectoryCurve:
    waypoints = np.asarray(waypoints, dtype=float)
    knots = np.linspace(0.0, duration_s, len(waypoints))
    spline = CubicSpline(knots, waypoints, axis=0, bc_type="natural")
    dspline = spline.derivative(1)
    ddspline = spline.derivative(2)
    w = 2.0 * np.pi / duration_s
    euler = _EulerSchedule(
        yaw_rate=1.5 * w, yaw_amp=0.25, yaw_freq=2.0 * w,
        pitch_amp=0.1, pitch_freq=2.5 * w,
        roll_amp=0.06, roll_freq=1.5 * w,
    )
    return TrajectoryCurve(spline, dspline, ddspline, euler)


def platform_curve(duration_s: float) -> TrajectoryCurve:
    """Vehicle-like motion: constant forward velocity with low-frequency
    sway, nearly fixed heading."""
    speed = 7.0  # m/s
    f1, f2 = 2.0 * np.pi * 0.25, 2.0 * np.pi * 0.4
    a1, a2 = 0.3, 0.06

    def pos(t):
        return np.stack(
            [speed * t, a1 * np.sin(f1 * t), 1.2 + a2 * np.sin(f2 * t)], axis=-1
        )

    def vel(t):
        return np.stack(
            [np.full_like(t, speed), a1 * f1 * np.cos(f1 * t), a2 * f2 * np.cos(f2 * t)],
            axis=-1,
        )

    def acc(t):
        return np.stack(
            [np.zeros_like(t), -a1 * f1**2 * np.sin(f1 * t), -a2 * f2**2 * np.sin(f2 * t)],
            axis=-1,
        )

    euler = _EulerSchedule(
        yaw_rate=0.0, yaw_amp=0.08, yaw_freq=f1,
        pitch_amp=0.03, pitch_freq=f2,
        roll_amp=0.04, roll_freq=f1,
    )
    return TrajectoryCurve(pos, vel, acc, euler)


# length scale of the figure-eight and waypoint paths, m
_EXTENT_M = 18.0
# stated survey sigmas of the control points, horizontal and vertical, m
_CP_SIGMA_XY, _CP_SIGMA_Z = 0.015, 0.03

_CURVES: dict[str, Callable[["SynthConfig"], TrajectoryCurve]] = {
    "figure8": lambda cfg: figure_eight_curve(cfg.duration_s, _EXTENT_M * 0.55),
    "waypoints": lambda cfg: waypoint_curve(
        cfg.duration_s,
        np.array(
            [
                [0.0, 0.0, 1.5],
                [0.4 * _EXTENT_M, 0.2 * _EXTENT_M, 1.6],
                [0.7 * _EXTENT_M, -0.3 * _EXTENT_M, 1.4],
                [0.2 * _EXTENT_M, -0.6 * _EXTENT_M, 1.7],
                [-0.3 * _EXTENT_M, -0.1 * _EXTENT_M, 1.5],
                [0.0, 0.0, 1.5],
            ]
        ),
    ),
    "platform": lambda cfg: platform_curve(cfg.duration_s),
}


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 42
    duration_s: float = 60.0
    trajectory: str = "figure8"
    cam_rate_hz: float = 20.0
    cp_count: int = 12
    cp_2d_fraction: float = 0.5
    cp_noise_scale: float = 0.0  # 0 = noiseless survey, 1 = noise at stated sigmas
    landmark_count: int = 0
    detection_sigma_px: float = 0.0
    max_range_m: float = 30.0
    imu_rate_hz: float = 200.0
    imu_noise: ImuNoise = DEFAULT_IMU_NOISE
    gyro_bias: tuple[float, float, float] = (0.0, 0.0, 0.0)
    accel_bias: tuple[float, float, float] = (0.0, 0.0, 0.0)
    world_from_local: Similarity | None = None  # None = identity

    def __post_init__(self):
        if self.duration_s <= 0.0:
            raise ValueError("duration must be positive")
        if self.trajectory not in _CURVES:
            raise ValueError(
                f"unknown trajectory kind {self.trajectory!r};"
                f" options: {sorted(_CURVES)}"
            )
        if self.cam_rate_hz <= 0.0 or self.imu_rate_hz <= 0.0:
            raise ValueError("rates must be positive")


def default_rig(imu_noise: ImuNoise = DEFAULT_IMU_NOISE) -> RigCalibration:
    """Two wide-FOV fisheye cameras yawed apart with little overlap."""
    cam = CameraModel(
        CameraKind.KANNALA_BRANDT4,
        fx=275.0,
        fy=275.0,
        cx=319.5,
        cy=239.5,
        distortion=(0.015, -0.006, 0.002, -0.0005),
        width=640,
        height=480,
    )
    cameras = {}
    extrinsics = {}
    for name, yaw_deg, lateral in (("left", 35.0, 0.065), ("right", -35.0, -0.065)):
        yaw = np.deg2rad(yaw_deg)
        # optical axis in the device frame (x forward, y left, z up)
        z_c = np.array([np.cos(yaw), np.sin(yaw), 0.0])
        x_c = np.array([np.sin(yaw), -np.cos(yaw), 0.0])
        y_c = np.cross(z_c, x_c)
        r_dc = np.stack([x_c, y_c, z_c], axis=1)
        device_from_cam = RigidPose(
            Rotation.from_matrix(r_dc), np.array([0.01, lateral, 0.0])
        )
        cameras[name] = cam
        extrinsics[name] = device_from_cam.inverse()
    return RigCalibration(
        cameras=cameras,
        camera_from_device=extrinsics,
        imu_from_device=RigidPose.identity(),
        imu_noise=imu_noise,
    )


@dataclass
class SynthWorld:
    config: SynthConfig
    curve: TrajectoryCurve
    trajectory: Trajectory  # local frame (the frame the cameras live in)
    velocities: np.ndarray  # (N, 3), local frame
    cps: list[ControlPoint]  # world frame, as surveyed
    cp_local: dict[str, np.ndarray]  # exact local positions
    landmarks_local: dict[str, np.ndarray]
    world_from_local: Similarity

    def world_trajectory(self) -> Trajectory:
        return self.trajectory.transformed(self.world_from_local)


@dataclass
class SynthDetections:
    cp_observations: dict[str, list[Observation]]
    tracks: list[FeatureTrack]


def _time_grid(duration_s: float, rate_hz: float) -> np.ndarray:
    step_ns = int(round(1e9 / rate_hz))
    return np.arange(0, int(round(duration_s * 1e9)) + 1, step_ns, dtype=np.int64)


def gen_world(config: SynthConfig) -> SynthWorld:
    """Trajectory plus scattered control points and landmarks."""
    rng = np.random.default_rng(config.seed)
    curve = _CURVES[config.trajectory](config)
    ts = _time_grid(config.duration_s, config.cam_rate_hz)
    t_s = ts * 1e-9

    positions = curve.position(t_s)
    matrices = curve.rotation_matrices(t_s)
    poses = tuple(
        RigidPose(Rotation(q), p) for q, p in zip(quat_from_matrix(matrices), positions)
    )
    trajectory = Trajectory(ts, poses)
    velocities = curve.velocity(t_s)

    world_from_local = config.world_from_local or Similarity.identity()

    cp_local: dict[str, np.ndarray] = {}
    cps: list[ControlPoint] = []
    n_2d = int(round(config.cp_count * config.cp_2d_fraction))
    for k in range(config.cp_count):
        anchor = curve.position(rng.uniform(0.0, config.duration_s))
        angle = rng.uniform(0.0, 2.0 * np.pi)
        radius = rng.uniform(2.5, 8.0)
        height = rng.uniform(0.0, 2.5)
        p_local = np.array(
            [anchor[0] + radius * np.cos(angle), anchor[1] + radius * np.sin(angle), height]
        )
        cid = f"cp{k:03d}"
        cp_local[cid] = p_local
        p_world = world_from_local.apply(p_local)
        noise = config.cp_noise_scale * rng.normal(size=3) * np.array(
            [_CP_SIGMA_XY, _CP_SIGMA_XY, _CP_SIGMA_Z]
        )
        p_meas = p_world + noise
        if k >= config.cp_count - n_2d:
            cps.append(
                ControlPoint(cid, p_meas[:2], 2, np.eye(2) * _CP_SIGMA_XY**2)
            )
        else:
            cps.append(
                ControlPoint(
                    cid,
                    p_meas,
                    3,
                    np.diag([_CP_SIGMA_XY**2] * 2 + [_CP_SIGMA_Z**2]),
                )
            )

    landmarks: dict[str, np.ndarray] = {}
    for k in range(config.landmark_count):
        anchor = curve.position(rng.uniform(0.0, config.duration_s))
        angle = rng.uniform(0.0, 2.0 * np.pi)
        radius = rng.uniform(3.0, 14.0)
        height = rng.uniform(0.0, 6.0)
        landmarks[f"t{k:04d}"] = np.array(
            [anchor[0] + radius * np.cos(angle), anchor[1] + radius * np.sin(angle), height]
        )

    return SynthWorld(
        config=config,
        curve=curve,
        trajectory=trajectory,
        velocities=velocities,
        cps=cps,
        cp_local=cp_local,
        landmarks_local=landmarks,
        world_from_local=world_from_local,
    )


def gen_detections(
    world: SynthWorld, rig: RigCalibration, seed: int | None = None
) -> SynthDetections:
    """Project control points and landmarks into every camera and frame,
    up to `config.max_range_m` from the camera.

    The world's `config.detection_sigma_px` is the injected Gaussian
    noise. The detection sigma stamped on the observations is that sigma,
    or 1 px for noiseless runs, matching the pipeline default.
    """
    config = world.config
    sigma_px = config.detection_sigma_px
    assumed_sigma_px = sigma_px if sigma_px > 0.0 else 1.0
    rng = np.random.default_rng(config.seed + 1 if seed is None else seed)

    ids = list(world.cp_local) + list(world.landmarks_local)
    pts = np.stack(
        [world.cp_local[c] for c in world.cp_local]
        + [world.landmarks_local[t] for t in world.landmarks_local]
    ) if ids else np.zeros((0, 3))
    n_cp = len(world.cp_local)

    cp_obs: dict[str, list[Observation]] = {cid: [] for cid in world.cp_local}
    track_obs: dict[str, list[Observation]] = {tid: [] for tid in world.landmarks_local}
    pixel_cov = np.eye(2) * assumed_sigma_px**2

    fov_cap = np.cos(1.6)  # ~92 degrees off-axis
    for ts, pose in zip(world.trajectory.timestamps, world.trajectory.poses):
        inv = pose.inverse()
        for cam_id, cam in rig.cameras.items():
            extr = rig.camera_from_device[cam_id]
            a = extr.rotation.matrix() @ inv.rotation.matrix()
            b = extr.rotation.apply(inv.translation) + extr.translation
            p_cam = pts @ a.T + b
            if len(p_cam) == 0:
                continue
            dist = np.linalg.norm(p_cam, axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                cos_theta = p_cam[:, 2] / np.maximum(dist, 1e-12)
            uv, valid = try_project(cam, p_cam)
            ok = (
                valid
                & (dist > 0.3)
                & (dist <= config.max_range_m)
                & (cos_theta > fov_cap)
            )
            in_bounds = np.zeros(len(pts), dtype=bool)
            in_bounds[ok] = (
                (uv[ok, 0] >= 3.0)
                & (uv[ok, 0] <= cam.width - 4.0)
                & (uv[ok, 1] >= 3.0)
                & (uv[ok, 1] <= cam.height - 4.0)
            )
            ok &= in_bounds
            if not ok.any():
                continue
            noise = (
                rng.normal(scale=sigma_px, size=(int(ok.sum()), 2))
                if sigma_px > 0.0
                else 0.0
            )
            uv_noisy = uv[ok] + noise
            for row, idx in enumerate(np.flatnonzero(ok)):
                obs = Observation(int(ts), cam_id, uv_noisy[row], pixel_cov)
                if idx < n_cp:
                    cp_obs[ids[idx]].append(obs)
                else:
                    track_obs[ids[idx]].append(obs)

    tracks = [
        FeatureTrack(tid, obs_list)
        for tid, obs_list in track_obs.items()
        if len(obs_list) >= 2
    ]
    return SynthDetections(cp_observations=cp_obs, tracks=tracks)


def gen_imu(world: SynthWorld, seed: int | None = None, noisy: bool = True) -> ImuStream:
    """Ideal IMU from the analytic curve at the world's
    `config.imu_rate_hz`, plus the constant `config.gyro_bias` and
    `config.accel_bias` and, when `noisy`, white noise at the densities of
    `config.imu_noise`.

    The samples are simulated in the local frame, metric and with gravity
    along its -z. A `world_from_local` that scales or tilts that frame
    would leave them inconsistent with the world trajectory, so it raises
    ValueError."""
    frame = world.world_from_local
    scale_pct, tilt_deg = scale_error(frame), gravity_error(frame)
    if scale_pct > 1e-9 or tilt_deg > 1e-9:
        raise ValueError(
            "IMU simulation needs a metric, gravity-aligned world_from_local;"
            f" got a scale error of {scale_pct:.3g} % and a tilt of {tilt_deg:.3g} deg"
        )
    config = world.config
    rate, noise = config.imu_rate_hz, config.imu_noise
    bias = Bias(np.array(config.gyro_bias), np.array(config.accel_bias))
    rng = np.random.default_rng(config.seed + 2 if seed is None else seed)

    ts = _time_grid(config.duration_s, rate)
    t_s = ts * 1e-9
    omega = world.curve.body_rates(t_s)
    acc_w = world.curve.acceleration(t_s)
    rot = world.curve.rotation_matrices(t_s)
    accel = np.einsum("nij,nj->ni", rot.transpose(0, 2, 1), acc_w - GRAVITY_W)

    gyro = omega + bias.gyro
    accel = accel + bias.accel
    if noisy:
        gyro = gyro + rng.normal(scale=noise.gyro_density * np.sqrt(rate), size=gyro.shape)
        accel = accel + rng.normal(
            scale=noise.accel_density * np.sqrt(rate), size=accel.shape
        )
    return ImuStream(ts, gyro, accel)


def perturb_trajectory(
    traj: Trajectory,
    white_sigma_pos: float = 0.0,
    scale_drift_rate: float = 0.0,
    seed: int = 0,
) -> Trajectory:
    """Inject known error patterns: white position noise and a
    linear-in-time scale factor on positions."""
    rng = np.random.default_rng(seed)
    t0 = int(traj.timestamps[0]) if len(traj) else 0
    poses = []
    for ts, pose in zip(traj.timestamps, traj.poses):
        t_rel = (int(ts) - t0) * 1e-9
        p = pose.translation * (1.0 + scale_drift_rate * t_rel)
        if white_sigma_pos > 0.0:
            p = p + rng.normal(scale=white_sigma_pos, size=3)
        poses.append(RigidPose(pose.rotation, p))
    return Trajectory(traj.timestamps.copy(), tuple(poses))
