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

import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .alignment import ControlPoint
from .errors import ImuDataError, UnobservableError, VigtError
from .geometry import RigCalibration, RigidPose, Trajectory, so3_right_jacobian_inverse
from .inertial import (
    BIAS_CORRECTION_WARN_NORM,
    Bias,
    ImuNoise,
    ImuStream,
    PreintegratedSegment,
    bias_walk_covariance,
    preintegrate,
    preintegration_residual,
    preintegration_residual_jacobians,
)
from .solver import (
    HuberLoss,
    Problem,
    SolveReport,
    marginal_covariances,
    solve,
    variance_factor,
)
from .triangulation import (
    Observation,
    TriangulationConfig,
    ViewSet,
    triangulate_cp,
)

VISUAL_GROUPS = ("feature-reprojection", "marker-reprojection")
# floor of a visual group's variance factor when reweighting its covariance
_MIN_VARIANCE_FACTOR = 1e-8

_log = logging.getLogger(__name__)


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
    sigma_detect_px: float = 1.0
    sigma_feature_px: float = 1.0
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
    segments: list[PreintegratedSegment]  # IMU between consecutive keyframes

    def pose_id(self, ts: int) -> str:
        return f"kf:{ts}:pose"


@dataclass
class PseudoGT:
    keyframes: list[KeyframeState]
    pose_covariances: list[np.ndarray]  # 6x6 tangent (rotation, translation)
    whitened_residuals: dict[str, np.ndarray]
    variance_factors: list[dict[str, float]]
    report: SolveReport
    # keyframe intervals whose final bias lies farther than
    # BIAS_CORRECTION_WARN_NORM from the preintegration's linearization bias
    bias_excursions: int

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


def _reprojection_factor(views: ViewSet):
    """Callbacks of stacked reprojection rows over (body pose, world
    point) slots; `views` maps body-frame points into each row's camera."""

    def body_points(poses, points):
        r_wb = np.stack([p.rotation.matrix() for p in poses])
        t_wb = np.stack([p.translation for p in poses])
        return r_wb, np.einsum("nji,nj->ni", r_wb, np.stack(points) - t_wb)

    def fn(poses, points):
        return views.residuals(body_points(poses, points)[1])

    def jac(poses, points):
        r_wb, p_body = body_points(poses, points)
        j_body = views.jacobians(p_body)
        j_point = j_body @ np.swapaxes(r_wb, 1, 2)
        # a right rotation perturbation moves p_body by skew(p_body) dphi,
        # and a row vector times skew(p) is its cross product with p
        j_rot = np.cross(j_body, p_body[:, None, :])
        return [np.concatenate([j_rot, -j_point], axis=2), j_point]

    return fn, jac


def _add_reprojections(
    problem: Problem,
    rows: list[tuple[Observation, str]],
    body_rig: RigCalibration,
    sigma_px: float,
    loss: HuberLoss,
    group: str,
) -> None:
    """One stacked block of the pixel residuals of (observation, point
    block) rows, each seen from its keyframe pose."""
    observations = [o for o, _ in rows]
    # identity device poses in the body rig: the views map body-frame points
    identity = {o.image_id: RigidPose.identity() for o in observations}
    fn, jac = _reprojection_factor(ViewSet.build(observations, identity, body_rig))
    problem.add_stacked_block(
        fn,
        [[f"kf:{o.image_id}:pose" for o in observations], [pid for _, pid in rows]],
        np.eye(2) * sigma_px**2,
        group=group,
        jac=jac,
        loss=loss,
        rid=group,
    )


def _add_cp_world(
    problem: Problem, cps: list[ControlPoint], deflation: float
) -> None:
    """Survey factors on the CP proxies, one stacked block per CP
    dimension."""
    for dim in dict.fromkeys(cp.dim for cp in cps):
        same = [cp for cp in cps if cp.dim == dim]
        targets = np.stack([cp.position for cp in same])
        j_proxy = -np.eye(3)[:dim]

        def fn(proxies, targets=targets, dim=dim):
            return targets - np.stack(proxies)[:, :dim]

        def jac(proxies, j_proxy=j_proxy):
            return [np.broadcast_to(j_proxy, (len(proxies),) + j_proxy.shape)]

        problem.add_stacked_block(
            fn,
            [[f"cp:{cp.cp_id}" for cp in same]],
            np.stack([cp.covariance for cp in same]) * deflation,
            group="cp-world",
            jac=jac,
            rid=f"world:{dim}d",
        )


def _add_inertial(
    problem: Problem, keyframe_ts: list[int], imu: ImuStream, noise: ImuNoise
) -> list[PreintegratedSegment]:
    """Preintegration rows between consecutive keyframes, and the bias
    random walk between their bias states: one stacked block each. Returns
    the preintegrated segments."""
    pairs = list(zip(keyframe_ts, keyframe_ts[1:]))
    segs = [preintegrate(imu.between(a, b), Bias.zero(), noise) for a, b in pairs]

    def rows(poses_i, vels_i, poses_j, vels_j, biases_i):
        return zip(segs, poses_i, vels_i, poses_j, vels_j, map(Bias.from_vector, biases_i))

    def imu_fn(*slots):
        return np.stack([preintegration_residual(*row) for row in rows(*slots)])

    def imu_jac(*slots):
        per_row = [preintegration_residual_jacobians(*row) for row in rows(*slots)]
        return [np.stack(j) for j in zip(*per_row)]

    problem.add_stacked_block(
        imu_fn,
        [
            [f"kf:{a}:pose" for a, _ in pairs],
            [f"kf:{a}:vel" for a, _ in pairs],
            [f"kf:{b}:pose" for _, b in pairs],
            [f"kf:{b}:vel" for _, b in pairs],
            [f"kf:{a}:bias" for a, _ in pairs],
        ],
        np.stack([seg.covariance for seg in segs]),
        group="imu-preintegration",
        jac=imu_jac,
        rid="imu",
    )

    def walk_fn(biases_i, biases_j):
        return np.stack(biases_j) - np.stack(biases_i)

    def walk_jac(biases_i, biases_j):
        eye = np.broadcast_to(np.eye(6), (len(biases_i), 6, 6))
        return [-eye, eye]

    problem.add_stacked_block(
        walk_fn,
        [[f"kf:{a}:bias" for a, _ in pairs], [f"kf:{b}:bias" for _, b in pairs]],
        np.stack([bias_walk_covariance(noise, seg.dt) for seg in segs]),
        group="bias-walk",
        jac=walk_jac,
        rid="walk",
    )
    return segs


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
    marker_rows: list[tuple[Observation, str]] = []
    loss = HuberLoss()
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
        marker_rows += [(o, pid) for o in tri.inliers]

    if not marker_rows:
        raise UnobservableError(
            "no control-point observations at keyframes; the problem has no"
            " absolute position information"
        )
    _add_reprojections(
        problem, marker_rows, body_rig, config.sigma_detect_px, loss, "marker-reprojection"
    )
    _add_cp_world(problem, [cps_by_id[cid] for cid in cp_ids], config.cp_deflation)

    landmark_ids: list[str] = []
    skipped_tracks: dict[str, str] = {}
    feature_rows: list[tuple[Observation, str]] = []
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
            feature_rows += [(o, pid) for o in tri.inliers]
    if feature_rows:
        _add_reprojections(
            problem, feature_rows, body_rig, config.sigma_feature_px, loss,
            "feature-reprojection",
        )

    segments = _add_inertial(problem, keyframe_ts, imu, rig.imu_noise)

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
        segments=segments,
    )


def optimize_pseudo_gt(fp: FusionProblem) -> PseudoGT:
    """Alternate solving with variance-factor reweighting of the visual
    groups, then extract pose covariances and whitened residuals, and count
    the bias excursions (logged once when there are any).

    Control-point and IMU covariances are never reweighted.
    """
    factors_history: list[dict[str, float]] = []
    report = solve(fp.problem)
    for _ in range(fp.config.reweight_rounds):
        factors: dict[str, float] = {}
        for group in VISUAL_GROUPS:
            if group not in report.group_residuals:
                continue
            if report.group_redundancy[group] <= 0:
                continue
            vf = max(variance_factor(report, group), _MIN_VARIANCE_FACTOR)
            factors[group] = vf
            fp.problem.scale_group_covariance(group, vf)
        factors_history.append(factors)
        report = solve(fp.problem)

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
    excursions = sum(
        np.linalg.norm(kf.bias.as_vector() - seg.lin_bias.as_vector())
        > BIAS_CORRECTION_WARN_NORM
        for kf, seg in zip(keyframes, fp.segments)
    )
    if excursions:
        _log.warning(
            "%d of %d keyframe intervals end with an IMU bias more than %g"
            " from the bias their preintegration is linearized at; the"
            " first-order bias correction is outside its range there",
            excursions,
            len(fp.segments),
            BIAS_CORRECTION_WARN_NORM,
        )
    return PseudoGT(
        keyframes=keyframes,
        pose_covariances=[covs[pid] for pid in pose_ids],
        whitened_residuals=dict(report.group_residuals),
        variance_factors=factors_history,
        report=report,
        bias_excursions=int(excursions),
    )

