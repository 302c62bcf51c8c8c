"""Dense pseudo-ground-truth generation.

Joint optimization of keyframe poses, velocities, and IMU biases together
with control-point proxies and feature landmarks, over four
covariance-weighted factor families: marker reprojections, world control
points (survey covariance deflated by `_CP_DEFLATION`), feature
reprojections, and IMU preintegration (plus bias random-walk ties). Both
reprojection families start at each detection's `pixel_cov`, and the
proxies and landmarks are triangulated with the default
`TriangulationConfig`. Visual measurement covariances are re-estimated
in `_REWEIGHT_ROUNDS` rounds from the variance factor of their residual
group. A solve whose estimate only feeds the next round's variance
factors stops at a step of `_ROUND_STEP` a-posteriori standard
deviations, which moves a factor by at most about _ROUND_STEP^2 / sqrt(2)
of its own sampling spread (see the solver module docstring); the last
solve, whose estimate is returned, stops at `solver.NEGLIGIBLE_STEP`.

The input trajectory must already be metrically aligned into the world
frame (see the alignment module); the world frame is gravity-aligned.
Internally all states live in the IMU frame; device poses are converted
at the boundaries.

Each factor family is one stacked residual block, and its one callback
reads the solver's value rows: keyframe poses as (N, 7) rows
[qw qx qy qz | t] (world-from-IMU), velocities (N, 3), biases (N, 6) as
(gyro, accel) and points (N, 3). The IMU family is one `inertial.SegmentStack` of the S
keyframe intervals, segment s between keyframes s and s + 1, cut, checked
and preintegrated at zero bias by one `preintegrate_stack` call before
any triangulation; its residuals (S, 9) come from one call with the
builder of their Jacobians (S, 9, k), and the bias random walk ties the
same S pairs of bias states.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .alignment import ControlPoint
from .errors import UnobservableError, VigtError
from .geometry import (
    RigCalibration,
    RigidPose,
    Trajectory,
    quat_log,
    quat_multiply,
    quat_to_matrix,
    skew,
    so3_right_jacobian_inverse,
)
from .inertial import (
    BIAS_CORRECTION_WARN_NORM,
    Bias,
    ImuNoise,
    ImuStream,
    SegmentStack,
    bias_correct_stack,
    bias_walk_covariance,
    preintegrate_stack,
    preintegration_residual_stack,
)
from .solver import (
    NEGLIGIBLE_STEP,
    HuberLoss,
    Problem,
    SolveReport,
    marginal_covariances,
    solve,
    variance_factor,
)
from .triangulation import Observation, ViewSet, triangulate_all

VISUAL_GROUPS = ("feature-reprojection", "marker-reprojection")
# floor of a visual group's variance factor when reweighting its covariance
_MIN_VARIANCE_FACTOR = 1e-8
# solves after the first, each after reweighting the visual groups
_REWEIGHT_ROUNDS = 3
# step, in a-posteriori standard deviations, at which every solve but the
# last stops
_ROUND_STEP = 0.25
# multiplies the survey covariance of every control point
_CP_DEFLATION = 0.25

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


@dataclass(frozen=True)
class FusionConfig:
    keyframe_stride: int = 5
    mode: str = "full"  # "full" | "inertial-only"

    def __post_init__(self):
        if self.keyframe_stride < 1:
            raise ValueError(f"keyframe_stride must be at least 1, got {self.keyframe_stride}")
        if self.mode not in ("full", "inertial-only"):
            raise ValueError(f"unknown fusion mode {self.mode!r}")


@dataclass
class FusionProblem:
    problem: Problem
    keyframe_ts: list[int]
    imu_from_device: RigidPose
    cp_ids: list[str]
    landmark_ids: list[str]
    skipped_cps: dict[str, str]
    skipped_tracks: dict[str, str]
    gauge_prior: bool
    segments: SegmentStack  # IMU between consecutive keyframes


@dataclass
class PseudoGT:
    """`pose_covariances[k]` is the 6x6 marginal covariance of the device
    pose `keyframes[k].pose` (world-from-device) on its tangent (rotation
    perturbed on the right, R Exp(dphi), translation added in the world)."""

    keyframes: list[KeyframeState]
    pose_covariances: list[np.ndarray]
    variance_factors: list[dict[str, float]]
    report: SolveReport
    # keyframe intervals whose final gyro bias lies farther than
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
    """The callback of stacked reprojection rows over (body pose, world
    point) slots; `views` maps body-frame points into each row's camera."""

    def fn(poses, points):
        r_wb = quat_to_matrix(poses[:, :4])
        p_body = np.einsum("nji,nj->ni", r_wb, points - poses[:, 4:])
        residuals, body_jacobians = views.evaluate(p_body)

        def jacobians():
            (j_body,) = body_jacobians()
            j_point = j_body @ np.swapaxes(r_wb, 1, 2)
            # a right rotation perturbation moves p_body by skew(p_body) dphi,
            # and a row vector times skew(p) is its cross product with p
            j_rot = np.cross(j_body, p_body[:, None, :])
            return [np.concatenate([j_rot, -j_point], axis=2), j_point]

        return residuals, jacobians

    return fn


def _add_reprojections(
    problem: Problem,
    rows: list[tuple[Observation, str]],
    body_rig: RigCalibration,
    loss: HuberLoss,
    group: str,
) -> None:
    """One stacked block of the pixel residuals of (observation, point
    block) rows, each seen from its keyframe pose and whitened by its
    `pixel_cov`."""
    observations = [o for o, _ in rows]
    # identity device poses in the body rig: the views map body-frame points
    identity = {o.image_id: RigidPose.identity() for o in observations}
    problem.add_stacked_block(
        _reprojection_factor(ViewSet.build(observations, identity, body_rig)),
        [[f"kf:{o.image_id}:pose" for o in observations], [pid for _, pid in rows]],
        np.stack([o.pixel_cov for o in observations]),
        group=group,
        loss=loss,
        rid=group,
    )


def _add_cp_world(problem: Problem, cps: list[ControlPoint]) -> None:
    """Survey factors on the CP proxies, one stacked block per CP
    dimension."""
    for dim in dict.fromkeys(cp.dim for cp in cps):
        same = [cp for cp in cps if cp.dim == dim]
        targets = np.stack([cp.position for cp in same])
        jacs = [np.broadcast_to(-np.eye(3)[:dim], (len(same), dim, 3))]

        problem.add_stacked_block(
            lambda proxies, t=targets, dim=dim, j=jacs: (t - proxies[:, :dim], lambda: j),
            [[f"cp:{cp.cp_id}" for cp in same]],
            np.stack([cp.covariance for cp in same]) * _CP_DEFLATION,
            group="cp-world",
            rid=f"world:{dim}d",
        )


def _add_inertial(
    problem: Problem, keyframe_ts: list[int], segs: SegmentStack, noise: ImuNoise
) -> None:
    """Preintegration rows of the segments between consecutive keyframes,
    and the bias random walk between their bias states: one stacked block
    each."""
    pairs = list(zip(keyframe_ts, keyframe_ts[1:]))
    problem.add_stacked_block(
        partial(preintegration_residual_stack, segs),
        [
            [f"kf:{a}:pose" for a, _ in pairs],
            [f"kf:{a}:vel" for a, _ in pairs],
            [f"kf:{b}:pose" for _, b in pairs],
            [f"kf:{b}:vel" for _, b in pairs],
            [f"kf:{a}:bias" for a, _ in pairs],
        ],
        segs.covariance,
        group="imu-preintegration",
        rid="imu",
    )

    eye = np.broadcast_to(np.eye(6), (len(pairs), 6, 6))
    jacs = [-eye, eye]
    problem.add_stacked_block(
        lambda biases_i, biases_j: (biases_j - biases_i, lambda: jacs),
        [[f"kf:{a}:bias" for a, _ in pairs], [f"kf:{b}:bias" for _, b in pairs]],
        bias_walk_covariance(noise, segs.dt),
        group="bias-walk",
        rid="walk",
    )


def _add_gauge_prior(problem: Problem, pid: str, prior: RigidPose, sigma: float) -> None:
    """Anchor a pose block at `prior`: one row of the rotation error
    Log(R_prior^T R) and the translation difference, each component with
    standard deviation `sigma`."""
    q_prior_inv = prior.rotation.inverse().quat

    def fn(poses):
        rot_err = quat_log(quat_multiply(q_prior_inv, poses[:, :4]))

        def jacobians():
            j = np.zeros((len(poses), 6, 6))
            j[:, 0:3, 0:3] = so3_right_jacobian_inverse(rot_err)
            j[:, 3:6, 3:6] = np.eye(3)
            return [j]

        return np.concatenate([rot_err, poses[:, 4:] - prior.translation], axis=1), jacobians

    problem.add_stacked_block(
        fn, [[pid]], np.eye(6) * sigma**2, group="generic", rid="gauge-prior"
    )


def _keyframe_timestamps(init_traj: Trajectory, stride: int) -> list[int]:
    ts = [int(t) for t in init_traj.timestamps[::stride]]
    if len(ts) >= 1 and int(init_traj.timestamps[-1]) != ts[-1]:
        ts.append(int(init_traj.timestamps[-1]))
    return ts


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
    # bad IMU input fails here, before any triangulation
    kf = np.asarray(keyframe_ts, dtype=np.int64)
    segments = preintegrate_stack(imu, kf[:-1], kf[1:], np.zeros((len(kf) - 1, 6)), rig.imu_noise)
    kf_set = set(keyframe_ts)
    if config.mode == "inertial-only":
        tracks = ()  # the full problem without feature tracks

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

    cps_by_id = {cp.cp_id: cp for cp in cps}
    # CP proxies and landmarks, by parameter block id, triangulate in one
    # lockstep batch
    kept = {
        f"cp:{cp_id}": [o for o in obs if o.image_id in kf_set]
        for cp_id, obs in cp_detections.items()
        if cp_id in cps_by_id
    }
    for track in tracks:
        kept[f"lm:{track.track_id}"] = [o for o in track.observations if o.image_id in kf_set]
    tris, tri_failures = triangulate_all(
        {pid: obs for pid, obs in kept.items() if len(obs) >= 2}, body_pose, body_rig
    )

    def skip_reason(pid: str) -> str:
        return tri_failures.get(pid, f"{len(kept[pid])} keyframe observations")

    cp_ids: list[str] = []
    skipped_cps: dict[str, str] = {}
    marker_rows: list[tuple[Observation, str]] = []
    loss = HuberLoss()
    for cp_id in cp_detections:
        pid = f"cp:{cp_id}"
        if cp_id not in cps_by_id:
            skipped_cps[cp_id] = "no matching control point"
        elif pid not in tris:
            skipped_cps[cp_id] = skip_reason(pid)
        else:
            problem.add_parameter_block(pid, tris[pid].position.copy())
            cp_ids.append(cp_id)
            marker_rows += [(o, pid) for o in tris[pid].inliers]

    if not marker_rows:
        raise UnobservableError(
            "no control-point observations at keyframes; the problem has no"
            " absolute position information"
        )
    _add_reprojections(problem, marker_rows, body_rig, loss, "marker-reprojection")
    _add_cp_world(problem, [cps_by_id[cid] for cid in cp_ids])

    landmark_ids: list[str] = []
    skipped_tracks: dict[str, str] = {}
    feature_rows: list[tuple[Observation, str]] = []
    for track in tracks:
        pid = f"lm:{track.track_id}"
        if pid not in tris:
            skipped_tracks[track.track_id] = skip_reason(pid)
            continue
        tri = tris[pid]
        problem.add_parameter_block(pid, tri.position.copy(), eliminate=True)
        landmark_ids.append(track.track_id)
        feature_rows += [(o, pid) for o in tri.inliers]
    if feature_rows:
        _add_reprojections(problem, feature_rows, body_rig, loss, "feature-reprojection")

    _add_inertial(problem, keyframe_ts, segments, rig.imu_noise)

    has_3d_cp = any(cps_by_id[cid].dim == 3 for cid in cp_ids)
    gauge_prior = not has_3d_cp
    if gauge_prior:
        # 2D control points leave height and (without features) some yaw
        # freedom; anchor the first keyframe pose
        ts0 = keyframe_ts[0]
        _add_gauge_prior(problem, f"kf:{ts0}:pose", body_pose[ts0], 1e-4)

    return FusionProblem(
        problem=problem,
        keyframe_ts=keyframe_ts,
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
    groups, then extract the device pose covariances, and count the bias
    excursions (logged once when there are any). Every solve but the last
    stops at `_ROUND_STEP`, the last at `NEGLIGIBLE_STEP`.

    Control-point and IMU covariances are never reweighted.
    """
    factors_history: list[dict[str, float]] = []
    steps = [_ROUND_STEP] * _REWEIGHT_ROUNDS + [NEGLIGIBLE_STEP]
    report = solve(fp.problem, step=steps[0])
    for step in steps[1:]:
        factors: dict[str, float] = {}
        for group in VISUAL_GROUPS:
            # a group that is absent or has no redundancy keeps its weights
            if report.group_redundancy.get(group, 0) <= 0:
                continue
            vf = max(variance_factor(report, group), _MIN_VARIANCE_FACTOR)
            factors[group] = vf
            fp.problem.scale_group_covariance(group, vf)
        factors_history.append(factors)
        report = solve(fp.problem, step=step)

    pose_ids = [f"kf:{ts}:pose" for ts in fp.keyframe_ts]
    covs = marginal_covariances(fp.problem, pose_ids)

    # J cov J^T, J the Jacobian of (body + delta) @ imu_from_device in the
    # body pose tangent delta: I for the identity extrinsic
    jac = np.eye(6)
    jac[0:3, 0:3] = fp.imu_from_device.rotation.matrix().T
    keyframes, pose_covariances = [], []
    for ts, pid in zip(fp.keyframe_ts, pose_ids):
        body = fp.problem.value(pid)
        jac[3:6, 0:3] = -body.rotation.matrix() @ skew(fp.imu_from_device.translation)
        pose_covariances.append(jac @ covs[pid] @ jac.T)
        keyframes.append(
            KeyframeState(
                timestamp_ns=ts,
                pose=body @ fp.imu_from_device,
                velocity=fp.problem.value(f"kf:{ts}:vel").copy(),
                bias=Bias.from_vector(fp.problem.value(f"kf:{ts}:bias")),
            )
        )
    start_biases = [kf.bias.as_vector() for kf in keyframes[:-1]]
    excursions = int(bias_correct_stack(fp.segments, start_biases)[3].sum())
    if excursions:
        _log.warning(
            "%d of %d keyframe intervals end with a gyro bias more than %g"
            " from the bias their preintegration is linearized at; the"
            " first-order bias correction is outside its range there",
            excursions,
            len(fp.segments),
            BIAS_CORRECTION_WARN_NORM,
        )
    return PseudoGT(
        keyframes=keyframes,
        pose_covariances=pose_covariances,
        variance_factors=factors_history,
        report=report,
        bias_excursions=excursions,
    )

