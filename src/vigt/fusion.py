"""Dense pseudo-ground-truth generation.

Joint optimization of keyframe poses, velocities, and IMU biases together
with control-point proxies and feature landmarks, over four
covariance-weighted factor families: marker reprojections, world control
points (with deflated survey covariance), feature reprojections, and IMU
preintegration (plus bias random-walk ties). Visual measurement
covariances are re-estimated between rounds from the variance factor of
their residual group.

The input trajectory must already be metrically aligned into the world
frame (see the alignment module); the world frame is gravity-aligned.
Internally all states live in the IMU frame; device poses are converted
at the boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .alignment import ControlPoint
from .errors import ImuDataError, UnobservableError, VigtError
from .geometry import (
    CameraModel,
    RigCalibration,
    RigidPose,
    Rotation,
    Trajectory,
    clamp_depth,
    projection_jacobian,
    skew,
    so3_right_jacobian_inverse,
    try_project,
)
from .inertial import (
    Bias,
    ImuNoise,
    ImuStream,
    PreintegratedSegment,
    bias_walk_covariance,
    bias_walk_residual,
    preintegrate,
    preintegration_residual,
    preintegration_residual_jacobians,
)
from .solver import (
    HuberLoss,
    Problem,
    SolveOptions,
    SolveReport,
    marginal_covariances,
    solve,
    variance_factor,
)
from .triangulation import (
    Observation,
    TriangulationConfig,
    triangulate_cp,
)

GRAVITY_W = np.array([0.0, 0.0, -9.81])

VISUAL_GROUPS = ("feature-reprojection", "marker-reprojection")


@dataclass
class KeyframeState:
    timestamp_ns: int
    pose: RigidPose  # world-from-device
    velocity: np.ndarray  # m/s, world frame
    bias: Bias


@dataclass
class FeatureTrack:
    """Observations of one scene point across images."""

    track_id: str
    observations: list[Observation]
    landmark: np.ndarray | None = None  # world frame, set by fusion


@dataclass(frozen=True)
class FusionConfig:
    reweight_rounds: int = 3
    cp_deflation: float = 0.25  # multiplies the survey covariance
    keyframe_stride: int = 5
    mode: str = "full"  # "full" | "inertial-only"
    huber_delta: float = 2.0
    sigma_detect_px: float = 1.0
    sigma_feature_px: float = 1.0
    min_variance_factor: float = 1e-8
    max_iters: int = 60
    gradient_tol: float = 1e-12
    gravity: tuple[float, float, float] = (0.0, 0.0, -9.81)
    triangulation: TriangulationConfig = field(default_factory=TriangulationConfig)

    def __post_init__(self):
        if self.reweight_rounds < 1:
            raise ValueError("reweighting needs at least 1 round")
        if not 0.0 < self.cp_deflation <= 1.0:
            raise ValueError("cp_deflation must lie in (0, 1]")
        if self.mode not in ("full", "inertial-only"):
            raise ValueError(f"unknown fusion mode {self.mode!r}")


@dataclass
class FusionProblem:
    problem: Problem
    keyframe_ts: list[int]
    config: FusionConfig
    imu_from_device: RigidPose
    cp_ids: list[str]
    landmark_ids: list[str]
    skipped_cps: dict[str, str]
    skipped_tracks: dict[str, str]
    gauge_prior: bool

    def pose_id(self, ts: int) -> str:
        return f"kf:{ts}:pose"


@dataclass
class PseudoGT:
    keyframes: list[KeyframeState]
    pose_covariances: list[np.ndarray]  # 6x6 tangent (rotation, translation)
    whitened_residuals: dict[str, np.ndarray]
    variance_factors: list[dict[str, float]]
    report: SolveReport

    def trajectory(self) -> Trajectory:
        return Trajectory(
            np.array([k.timestamp_ns for k in self.keyframes], dtype=np.int64),
            tuple(k.pose for k in self.keyframes),
        )

    def median_position_uncertainty(self) -> float:
        """Median over keyframes of the largest position-block sigma."""
        sigmas = [
            float(np.sqrt(np.linalg.eigvalsh(c[3:6, 3:6]).max()))
            for c in self.pose_covariances
        ]
        return float(np.median(sigmas))


class _VarPoseFrame:
    """Reprojection of a variable world point seen from a variable pose."""

    def __init__(self, cam: CameraModel, cam_from_body: RigidPose, obs: Observation):
        self.cam = cam
        self.r_cb = cam_from_body.rotation.matrix()
        self.t_cb = cam_from_body.translation
        self.obs = obs

    def _point_in_camera(self, pose: RigidPose, point: np.ndarray) -> np.ndarray:
        p_body = pose.rotation.matrix().T @ (point - pose.translation)
        return self.r_cb @ p_body + self.t_cb

    def residual(self, pose: RigidPose, point: np.ndarray) -> np.ndarray:
        p_cam = clamp_depth(self.cam, self._point_in_camera(pose, point))
        return try_project(self.cam, p_cam)[0] - self.obs.pixel

    def jacobians(self, pose: RigidPose, point: np.ndarray) -> list[np.ndarray]:
        r_wb = pose.rotation.matrix()
        p_body = r_wb.T @ (point - pose.translation)
        p_cam = clamp_depth(self.cam, self.r_cb @ p_body + self.t_cb)
        j_pi = projection_jacobian(self.cam, p_cam) @ self.r_cb
        j_pose = np.zeros((2, 6))
        j_pose[:, 0:3] = j_pi @ skew(p_body)
        j_pose[:, 3:6] = -j_pi @ r_wb.T
        j_point = j_pi @ r_wb.T
        return [j_pose, j_point]


def _pose_prior(prior: RigidPose, sigma_rot: float, sigma_pos: float):
    def fn(pose: RigidPose):
        rot_err = (prior.rotation.inverse() @ pose.rotation).log()
        return np.concatenate([rot_err, pose.translation - prior.translation])

    def jac(pose: RigidPose):
        rot_err = (prior.rotation.inverse() @ pose.rotation).log()
        j = np.zeros((6, 6))
        j[0:3, 0:3] = so3_right_jacobian_inverse(rot_err)
        j[3:6, 3:6] = np.eye(3)
        return [j]

    cov = np.diag([sigma_rot**2] * 3 + [sigma_pos**2] * 3)
    return fn, jac, cov


def _keyframe_timestamps(init_traj: Trajectory, stride: int) -> list[int]:
    ts = [int(t) for t in init_traj.timestamps[::stride]]
    if len(ts) >= 1 and int(init_traj.timestamps[-1]) != ts[-1]:
        ts.append(int(init_traj.timestamps[-1]))
    return ts


def _check_imu_coverage(keyframe_ts: Sequence[int], imu: ImuStream) -> None:
    ts = imu.timestamps
    if keyframe_ts[0] < ts[0] or keyframe_ts[-1] > ts[-1]:
        raise ImuDataError(
            f"IMU stream [{ts[0]}, {ts[-1]}] does not cover keyframes"
            f" [{keyframe_ts[0]}, {keyframe_ts[-1]}]"
        )
    nominal = float(np.median(np.diff(ts))) if len(ts) > 2 else np.inf
    missing = []
    for a, b in zip(keyframe_ts, keyframe_ts[1:]):
        inside = int(np.sum((ts > a) & (ts < b)))
        if inside == 0 and (b - a) > 2.0 * nominal:
            missing.append((a, b))
    if missing:
        intervals = ", ".join(f"[{a}, {b}]" for a, b in missing)
        raise ImuDataError(f"no IMU samples inside keyframe intervals: {intervals}")


def _filter_to_keyframes(
    observations: Sequence[Observation], keyframes: set[int]
) -> list[Observation]:
    return [o for o in observations if o.image_id in keyframes]


def build_fusion_problem(
    init_traj: Trajectory,
    tracks: Sequence[FeatureTrack],
    cp_detections: Mapping[str, Sequence[Observation]],
    cps: Sequence[ControlPoint],
    imu: ImuStream,
    rig: RigCalibration,
    config: FusionConfig = FusionConfig(),
) -> FusionProblem:
    """Assemble the factor graph. `init_traj` carries world-frame device
    poses; intrinsics and extrinsics are held fixed."""
    if len(init_traj) == 0:
        raise VigtError("initial trajectory is empty")
    if rig.imu_noise is None:
        raise VigtError("rig calibration carries no IMU noise parameters")
    keyframe_ts = _keyframe_timestamps(init_traj, config.keyframe_stride)
    if len(keyframe_ts) < 2:
        raise VigtError("need at least 2 keyframes")
    _check_imu_coverage(keyframe_ts, imu)
    kf_set = set(keyframe_ts)
    gravity = np.asarray(config.gravity, dtype=float)

    # work in the IMU frame: body = IMU, cameras re-extrinsic'd accordingly
    t_id = rig.imu_from_device
    device_from_imu = t_id.inverse()
    cam_from_body = {
        cid: rig.camera_from_device[cid] @ device_from_imu for cid in rig.cameras
    }
    pose_map = init_traj.pose_map()
    body_pose = {ts: pose_map[ts] @ device_from_imu for ts in keyframe_ts}

    positions = np.stack([body_pose[ts].translation for ts in keyframe_ts])
    times = np.array(keyframe_ts, dtype=np.float64) * 1e-9
    velocities = np.gradient(positions, times, axis=0)

    problem = Problem()
    for k, ts in enumerate(keyframe_ts):
        problem.add_parameter_block(f"kf:{ts}:pose", body_pose[ts])
        problem.add_parameter_block(f"kf:{ts}:vel", velocities[k])
        problem.add_parameter_block(f"kf:{ts}:bias", np.zeros(6))

    # sensor frames for triangulating initial proxies/landmarks
    body_rig = RigCalibration(
        cameras=dict(rig.cameras),
        camera_from_device=cam_from_body,
        imu_from_device=RigidPose.identity(),
        imu_noise=rig.imu_noise,
    )
    tri_cfg = config.triangulation

    cps_by_id = {cp.cp_id: cp for cp in cps}
    cp_ids: list[str] = []
    skipped_cps: dict[str, str] = {}
    n_marker = 0
    loss = HuberLoss(config.huber_delta)
    for cp_id, obs in cp_detections.items():
        if cp_id not in cps_by_id:
            skipped_cps[cp_id] = "no matching control point"
            continue
        kept = _filter_to_keyframes(obs, kf_set)
        if len(kept) < 2:
            skipped_cps[cp_id] = f"{len(kept)} keyframe observations"
            continue
        try:
            tri = triangulate_cp(cp_id, kept, body_pose, body_rig, tri_cfg)
        except VigtError as exc:
            skipped_cps[cp_id] = f"{type(exc).__name__}: {exc}"
            continue
        pid = f"cp:{cp_id}"
        problem.add_parameter_block(pid, tri.position.copy())
        cp_ids.append(cp_id)
        for k, o in enumerate(tri.inliers):
            frame = _VarPoseFrame(rig.cameras[o.camera_id], cam_from_body[o.camera_id], o)
            problem.add_residual_block(
                frame.residual,
                [f"kf:{o.image_id}:pose", pid],
                np.eye(2) * config.sigma_detect_px**2,
                group="marker-reprojection",
                jac=frame.jacobians,
                loss=loss,
                rid=f"marker:{cp_id}:{k}",
            )
            n_marker += 1
        cp = cps_by_id[cp_id]

        def world_fn(proxy, cp=cp):
            return cp.position - proxy[: cp.dim]

        def world_jac(proxy, cp=cp):
            return [-np.eye(3)[: cp.dim]]

        problem.add_residual_block(
            world_fn,
            [pid],
            cp.covariance * config.cp_deflation,
            group="cp-world",
            jac=world_jac,
            rid=f"world:{cp_id}",
        )

    if n_marker == 0:
        raise UnobservableError(
            "no control-point observations at keyframes; the problem has no"
            " absolute position information"
        )

    landmark_ids: list[str] = []
    skipped_tracks: dict[str, str] = {}
    if config.mode == "full":
        for track in tracks:
            kept = _filter_to_keyframes(track.observations, kf_set)
            if len(kept) < 2:
                skipped_tracks[track.track_id] = f"{len(kept)} keyframe observations"
                continue
            try:
                tri = triangulate_cp(track.track_id, kept, body_pose, body_rig, tri_cfg)
            except VigtError as exc:
                skipped_tracks[track.track_id] = f"{type(exc).__name__}: {exc}"
                continue
            pid = f"lm:{track.track_id}"
            problem.add_parameter_block(pid, tri.position.copy(), eliminate=True)
            track.landmark = tri.position.copy()
            landmark_ids.append(track.track_id)
            for k, o in enumerate(tri.inliers):
                frame = _VarPoseFrame(
                    rig.cameras[o.camera_id], cam_from_body[o.camera_id], o
                )
                problem.add_residual_block(
                    frame.residual,
                    [f"kf:{o.image_id}:pose", pid],
                    np.eye(2) * config.sigma_feature_px**2,
                    group="feature-reprojection",
                    jac=frame.jacobians,
                    loss=loss,
                    rid=f"feat:{track.track_id}:{k}",
                )

    noise = rig.imu_noise
    for a, b in zip(keyframe_ts, keyframe_ts[1:]):
        seg = preintegrate(imu.between(a, b), Bias.zero(), noise)

        def imu_fn(pose_i, vel_i, pose_j, vel_j, bias_i, seg=seg):
            return preintegration_residual(
                seg, pose_i, vel_i, pose_j, vel_j, Bias.from_vector(bias_i), gravity
            )

        def imu_jac(pose_i, vel_i, pose_j, vel_j, bias_i, seg=seg):
            return preintegration_residual_jacobians(
                seg, pose_i, vel_i, pose_j, vel_j, Bias.from_vector(bias_i), gravity
            )

        problem.add_residual_block(
            imu_fn,
            [f"kf:{a}:pose", f"kf:{a}:vel", f"kf:{b}:pose", f"kf:{b}:vel", f"kf:{a}:bias"],
            seg.covariance,
            group="imu-preintegration",
            jac=imu_jac,
            rid=f"imu:{a}",
        )

        def walk_fn(bias_i, bias_j):
            return bias_walk_residual(Bias.from_vector(bias_i), Bias.from_vector(bias_j))

        def walk_jac(bias_i, bias_j):
            return [-np.eye(6), np.eye(6)]

        problem.add_residual_block(
            walk_fn,
            [f"kf:{a}:bias", f"kf:{b}:bias"],
            bias_walk_covariance(noise, seg.dt),
            group="bias-walk",
            jac=walk_jac,
            rid=f"walk:{a}",
        )

    has_3d_cp = any(cps_by_id[cid].dim == 3 for cid in cp_ids)
    gauge_prior = not has_3d_cp
    if gauge_prior:
        # 2D control points leave height and (without features) some yaw
        # freedom; anchor the first keyframe pose
        fn, jac, cov = _pose_prior(body_pose[keyframe_ts[0]], 1e-4, 1e-4)
        problem.add_residual_block(
            fn,
            [f"kf:{keyframe_ts[0]}:pose"],
            cov,
            group="generic",
            jac=jac,
            rid="gauge-prior",
            gauge=True,
        )

    return FusionProblem(
        problem=problem,
        keyframe_ts=keyframe_ts,
        config=config,
        imu_from_device=t_id,
        cp_ids=cp_ids,
        landmark_ids=landmark_ids,
        skipped_cps=skipped_cps,
        skipped_tracks=skipped_tracks,
        gauge_prior=gauge_prior,
    )


def optimize_pseudo_gt(fp: FusionProblem) -> PseudoGT:
    """Alternate solving with variance-factor reweighting of the visual
    groups, then extract pose covariances and whitened residuals.

    Control-point and IMU covariances are never reweighted.
    """
    config = fp.config
    options = SolveOptions(
        max_iters=config.max_iters, gradient_tol=config.gradient_tol
    )
    factors_history: list[dict[str, float]] = []
    report = solve(fp.problem, options)
    for _ in range(config.reweight_rounds):
        factors: dict[str, float] = {}
        for group in VISUAL_GROUPS:
            if group not in report.group_residuals:
                continue
            if report.group_redundancy[group] <= 0:
                continue
            vf = max(variance_factor(report, group), config.min_variance_factor)
            factors[group] = vf
            fp.problem.scale_group_covariance(group, vf)
        factors_history.append(factors)
        report = solve(fp.problem, options)

    pose_ids = [fp.pose_id(ts) for ts in fp.keyframe_ts]
    covs = marginal_covariances(fp.problem, pose_ids)

    keyframes = []
    for ts in fp.keyframe_ts:
        body = fp.problem.value(f"kf:{ts}:pose")
        keyframes.append(
            KeyframeState(
                timestamp_ns=ts,
                pose=body @ fp.imu_from_device,
                velocity=fp.problem.value(f"kf:{ts}:vel").copy(),
                bias=Bias.from_vector(fp.problem.value(f"kf:{ts}:bias")),
            )
        )
    return PseudoGT(
        keyframes=keyframes,
        pose_covariances=[covs[pid] for pid in pose_ids],
        whitened_residuals=dict(report.group_residuals),
        variance_factors=factors_history,
        report=report,
    )


def inertial_only_optimize(
    init_traj: Trajectory,
    cp_detections: Mapping[str, Sequence[Observation]],
    cps: Sequence[ControlPoint],
    imu: ImuStream,
    rig: RigCalibration,
    config: FusionConfig = FusionConfig(),
) -> PseudoGT:
    """Pseudo-GT from inertial and control-point information alone, for
    sections where visual features mislead (moving platforms)."""
    config = replace(config, mode="inertial-only")
    fp = build_fusion_problem(init_traj, [], cp_detections, cps, imu, rig, config)
    return optimize_pseudo_gt(fp)


def whitened_residuals(report: SolveReport) -> dict[str, np.ndarray]:
    """Per-family whitened residual samples of a solved problem."""
    return dict(report.group_residuals)


def pose_covariances(fp: FusionProblem) -> list[np.ndarray]:
    """6x6 tangent-space marginals for every keyframe pose."""
    pose_ids = [fp.pose_id(ts) for ts in fp.keyframe_ts]
    covs = marginal_covariances(fp.problem, pose_ids)
    return [covs[pid] for pid in pose_ids]
