"""Tests for pseudo-ground-truth fusion on short synthetic scenes."""

import dataclasses
import logging

import numpy as np
import pytest

from vigt import alignment, fusion, inertial, solver
from vigt.errors import ImuDataError, UnobservableError
from vigt.fusion import (
    FeatureTrack,
    FusionConfig,
    KeyframeState,
    PseudoGT,
    build_fusion_problem,
    optimize_pseudo_gt,
)
from vigt.geometry import RigCalibration, RigidPose, Rotation, Trajectory
from vigt.inertial import BIAS_CORRECTION_WARN_NORM, Bias, ImuStream, preintegrate_stack
from vigt.solver import Manifold, _retract
from vigt.synth import (
    SynthConfig,
    default_rig,
    gen_detections,
    gen_imu,
    gen_world,
    perturb_trajectory,
)
from vigt.triangulation import triangulate_all

# Mixed 2D/3D control points (three 3D, one 2D) and a few landmarks, in a
# scene short enough that a full build-and-solve takes 1-2 s.
SCENE = SynthConfig(
    seed=21,
    duration_s=2.0,
    cam_rate_hz=10.0,
    cp_count=4,
    cp_2d_fraction=0.25,
    landmark_count=10,
    detection_sigma_px=0.5,
)
STRIDE = 2
# The 5 cm init noise (about 85 mm RMS) drops to about 20 mm RMS on this
# scene; the bounds leave room for other noise draws.
BOUND_RMS_MM = 50.0
BOUND_MAX_MM = 100.0


def make_scene(config):
    world = gen_world(config)
    rig = default_rig()
    detections = gen_detections(world, rig, seed=3)
    imu = gen_imu(world, seed=4)
    truth = world.world_trajectory()
    init = perturb_trajectory(truth, white_sigma_pos=0.05, seed=5)
    return world, rig, detections, imu, truth, init


@pytest.fixture(scope="module")
def scene():
    return make_scene(SCENE)


@pytest.fixture(scope="module")
def scene_2d():
    """The scene with every control point 2D: the first keyframe pose is
    anchored by the gauge prior."""
    return make_scene(dataclasses.replace(SCENE, cp_2d_fraction=1.0))


def errors_mm(poses: dict, truth, keyframe_ts) -> np.ndarray:
    """Position errors at the keyframes against the true world trajectory."""
    true_poses = truth.pose_map()
    return 1000.0 * np.array(
        [np.linalg.norm(poses[ts].translation - true_poses[ts].translation) for ts in keyframe_ts]
    )


def fusion_problem(scene, mode="full"):
    world, rig, detections, imu, truth, init = scene
    return build_fusion_problem(
        init, detections.tracks, detections.cp_observations, world.cps, imu, rig,
        FusionConfig(mode=mode, keyframe_stride=STRIDE),
    )


@pytest.mark.parametrize("mode", ["full", "inertial-only"])
def test_recovers_truth_from_perturbed_init(scene, mode):
    world, rig, detections, imu, truth, init = scene
    config = FusionConfig(mode=mode, keyframe_stride=STRIDE)
    fp = build_fusion_problem(
        init, detections.tracks, detections.cp_observations, world.cps, imu, rig, config
    )
    assert len(fp.cp_ids) == SCENE.cp_count
    assert bool(fp.landmark_ids) == (mode == "full")
    pgt = optimize_pseudo_gt(fp)
    init_err = errors_mm(init.pose_map(), truth, fp.keyframe_ts)
    err = errors_mm({k.timestamp_ns: k.pose for k in pgt.keyframes}, truth, fp.keyframe_ts)
    rms = np.sqrt(np.mean(err**2))
    assert rms < BOUND_RMS_MM
    assert err.max() < BOUND_MAX_MM
    assert rms < 0.5 * np.sqrt(np.mean(init_err**2))
    for cov in pgt.pose_covariances:
        assert np.linalg.eigvalsh(cov).min() > 0.0


@pytest.mark.parametrize("mode", ["full", "inertial-only"])
def test_first_round_variance_factors_near_one(scene, mode):
    # each reprojection row starts at its detection's pixel_cov, the 0.5 px
    # of the scene's detection noise
    world, rig, detections, imu, truth, init = scene
    fp = build_fusion_problem(
        init, detections.tracks, detections.cp_observations, world.cps, imu, rig,
        FusionConfig(mode=mode, keyframe_stride=STRIDE),
    )
    first = optimize_pseudo_gt(fp).variance_factors[0]
    assert first and all(0.5 <= f <= 2.0 for f in first.values()), first


def test_bias_excursions_counted_and_logged_once(scene, caplog):
    world, rig, detections, imu, truth, init = scene
    config = FusionConfig(keyframe_stride=STRIDE)
    fp = build_fusion_problem(
        init, detections.tracks, detections.cp_observations, world.cps, imu, rig, config
    )
    with caplog.at_level(logging.WARNING, logger="vigt.fusion"):
        pgt = optimize_pseudo_gt(fp)
    # every interval is preintegrated at zero bias, from its first keyframe;
    # only the gyro bias counts, as the correction is exact in the accel bias
    expected = sum(
        np.linalg.norm(kf.bias.gyro) > BIAS_CORRECTION_WARN_NORM
        for kf in pgt.keyframes[:-1]
    )
    assert pgt.bias_excursions == expected
    records = [r for r in caplog.records if r.name == "vigt.fusion"]
    assert len(records) == (1 if expected > 0 else 0)


def test_gyro_bias_excursions_past_a_lowered_threshold_logged_once(
    scene, caplog, monkeypatch
):
    # the scene's estimated gyro biases reach about 1e-3 rad/s
    threshold = 1e-4
    monkeypatch.setattr("vigt.inertial.BIAS_CORRECTION_WARN_NORM", threshold)
    world, rig, detections, imu, truth, init = scene
    fp = build_fusion_problem(
        init, detections.tracks, detections.cp_observations, world.cps, imu, rig,
        FusionConfig(keyframe_stride=STRIDE),
    )
    with caplog.at_level(logging.WARNING, logger="vigt.fusion"):
        pgt = optimize_pseudo_gt(fp)
    expected = sum(np.linalg.norm(kf.bias.gyro) > threshold for kf in pgt.keyframes[:-1])
    assert 0 < expected == pgt.bias_excursions
    assert len([r for r in caplog.records if r.name == "vigt.fusion"]) == 1


def test_optimize_builds_one_workspace(scene, monkeypatch):
    # the reweighting solves and the marginal covariances share the
    # problem's workspace
    world, rig, detections, imu, truth, init = scene
    fp = build_fusion_problem(
        init, detections.tracks, detections.cp_observations, world.cps, imu, rig,
        FusionConfig(mode="inertial-only", keyframe_stride=STRIDE),
    )
    built, calls = [], []

    class Counting(solver._Workspace):
        def __init__(self, problem):
            built.append(problem)
            super().__init__(problem)

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(solver, "_Workspace", Counting)
    monkeypatch.setattr(fusion, "solve", counted(fusion.solve))
    monkeypatch.setattr(fusion, "marginal_covariances", counted(fusion.marginal_covariances))
    optimize_pseudo_gt(fp)
    assert calls == ["solve"] * (fusion._REWEIGHT_ROUNDS + 1) + ["marginal_covariances"]
    assert built == [fp.problem]


def test_imu_terms_computed_once_per_evaluation(scene, monkeypatch):
    # the IMU block builds its Jacobians from the terms of its residuals;
    # an evaluation that the solver takes from the last solve's end state
    # calls no callback and computes no terms
    counts = {"terms": 0, "evaluations": 0}
    terms = inertial._residual_terms
    fp = fusion_problem(scene)
    imu = fp.problem.residuals["imu"]
    callback = imu.fn

    def counted_terms(*args):
        counts["terms"] += 1
        return terms(*args)

    def counted_callback(*slots):
        counts["evaluations"] += 1
        return callback(*slots)

    monkeypatch.setattr(inertial, "_residual_terms", counted_terms)
    imu.fn = counted_callback
    optimize_pseudo_gt(fp)
    assert counts["evaluations"] > 0
    assert counts["terms"] == counts["evaluations"]


def test_only_the_last_solve_runs_to_a_negligible_step(scene, monkeypatch):
    # the solves before it only feed a variance factor
    world, rig, detections, imu, truth, init = scene
    fp = build_fusion_problem(
        init, detections.tracks, detections.cp_observations, world.cps, imu, rig,
        FusionConfig(keyframe_stride=STRIDE),
    )
    steps, solve = [], fusion.solve

    def recorded(problem, **kwargs):
        steps.append(kwargs.get("step"))
        return solve(problem, **kwargs)

    monkeypatch.setattr(fusion, "solve", recorded)
    pgt = optimize_pseudo_gt(fp)
    assert steps == [fusion._ROUND_STEP] * fusion._REWEIGHT_ROUNDS + [solver.NEGLIGIBLE_STEP]
    assert pgt.report.termination == "converged"


def test_round_step_moves_no_keyframe_past_a_tenth_sigma(scene, monkeypatch):
    # against reweighting rounds that each run to a negligible step, in
    # the Mahalanobis norm of each body pose's tangent (rotation,
    # translation) difference under its marginal covariance
    world, rig, detections, imu, truth, init = scene

    def optimized():
        fp = build_fusion_problem(
            init, detections.tracks, detections.cp_observations, world.cps, imu, rig,
            FusionConfig(keyframe_stride=STRIDE),
        )
        pgt = optimize_pseudo_gt(fp)
        return [fp.problem.value(f"kf:{ts}:pose") for ts in fp.keyframe_ts], pgt

    poses, _ = optimized()
    with monkeypatch.context() as patch:
        patch.setattr(fusion, "_ROUND_STEP", solver.NEGLIGIBLE_STEP)
        full_poses, full = optimized()
    for a, b, cov in zip(full_poses, poses, full.pose_covariances):
        rotation = (a.rotation.inverse() @ b.rotation).log()
        d = np.concatenate([rotation, b.translation - a.translation])
        assert np.sqrt(d @ np.linalg.solve(cov, d)) <= 0.1


def test_last_solve_resumes_in_half_the_iterations_of_a_restart(scene, monkeypatch):
    # against the same solves each started again at INITIAL_LAMBDA, in the
    # Mahalanobis norm of each body pose's tangent (rotation, translation)
    # difference under its marginal covariance
    def optimized(restart: bool):
        fp = fusion_problem(scene)
        reports, solve = [], fusion.solve

        def recorded(problem, **kwargs):
            if restart and problem._workspace is not None:
                problem._workspace.damping = solver.INITIAL_LAMBDA
            reports.append(solve(problem, **kwargs))
            return reports[-1]

        with monkeypatch.context() as patch:
            patch.setattr(fusion, "solve", recorded)
            pgt = optimize_pseudo_gt(fp)
        poses = [fp.problem.value(f"kf:{ts}:pose") for ts in fp.keyframe_ts]
        return poses, pgt, reports[-1]

    poses, _, last = optimized(restart=False)
    restart_poses, restart, restart_last = optimized(restart=True)
    assert last.termination == restart_last.termination == "converged"
    assert 2 * last.iterations <= restart_last.iterations
    for a, b, cov in zip(restart_poses, poses, restart.pose_covariances):
        rotation = (a.rotation.inverse() @ b.rotation).log()
        d = np.concatenate([rotation, b.translation - a.translation])
        assert np.sqrt(d @ np.linalg.solve(cov, d)) <= 0.1


@pytest.mark.parametrize("stride", [0, -1])
def test_non_positive_keyframe_stride_rejected(stride):
    with pytest.raises(ValueError, match="keyframe_stride"):
        FusionConfig(keyframe_stride=stride)


def test_median_position_uncertainty_reads_the_position_blocks():
    # largest position sigmas 0.05, 0.01 and 0.03 m; the rotation block and
    # the rotation-position cross terms must not count
    wide = np.eye(6) * 1e-4
    wide[3:6, 3:6] = np.diag([1e-4, 25e-4, 4e-4])
    wide[0:3, 3:6] = wide[3:6, 0:3] = 1e-3
    tight = np.eye(6) * 1e-4
    # correlated x and y: eigenvalues 9e-4, 1e-4 and 1e-4, diagonal 5e-4
    correlated = np.eye(6) * 100.0
    correlated[3:6, 3:6] = [[5e-4, 4e-4, 0.0], [4e-4, 5e-4, 0.0], [0.0, 0.0, 1e-4]]
    pgt = PseudoGT(
        keyframes=[],
        pose_covariances=[wide, tight, correlated],
        variance_factors=[],
        report=None,
        bias_excursions=0,
    )
    assert pgt.median_position_uncertainty() == pytest.approx(0.03, rel=1e-12)


def test_keyframes_end_on_the_last_frame():
    ts = np.arange(7, dtype=np.int64) * 100
    traj = Trajectory(ts, [RigidPose.identity()] * 7)
    assert fusion._keyframe_timestamps(traj, 3) == [0, 300, 600]
    assert fusion._keyframe_timestamps(traj, 4) == [0, 400, 600]


def test_unmatched_cp_and_short_track_are_skipped(scene):
    world, rig, detections, imu, truth, init = scene
    kf_set = set(int(t) for t in truth.timestamps[::STRIDE])
    cp_id, obs = next(iter(detections.cp_observations.items()))
    track = detections.tracks[0]
    lone = [next(o for o in track.observations if o.image_id in kf_set)]
    fp = build_fusion_problem(
        init,
        list(detections.tracks) + [FeatureTrack("lone", lone)],
        {**detections.cp_observations, "unsurveyed": obs},
        world.cps, imu, rig, FusionConfig(keyframe_stride=STRIDE),
    )
    assert fp.skipped_cps == {"unsurveyed": "no matching control point"}
    assert fp.skipped_tracks["lone"] == "1 keyframe observations"
    assert "lone" not in fp.landmark_ids and cp_id in fp.cp_ids


def test_pseudo_gt_trajectory_lists_the_keyframes():
    poses = [RigidPose(Rotation.exp([0.0, 0.0, 0.1 * k]), [k, 0.0, 0.0]) for k in range(3)]
    pgt = PseudoGT(
        keyframes=[
            KeyframeState(100 * k, pose, np.zeros(3), Bias.zero()) for k, pose in enumerate(poses)
        ],
        pose_covariances=[],
        variance_factors=[],
        report=None,
        bias_excursions=0,
    )
    traj = pgt.trajectory()
    np.testing.assert_array_equal(traj.timestamps, [0, 100, 200])
    assert traj.poses == tuple(poses)


def test_imu_gap_raises(scene):
    world, rig, detections, imu, truth, init = scene
    ts = imu.timestamps
    # drop every sample strictly inside the second keyframe interval
    kf = truth.timestamps[::STRIDE]
    keep = ~((ts > kf[1]) & (ts < kf[2]))
    gapped = ImuStream(ts[keep], imu.gyro[keep], imu.accel[keep])
    with pytest.raises(ImuDataError):
        build_fusion_problem(
            init, [], detections.cp_observations, world.cps, gapped, rig,
            FusionConfig(keyframe_stride=STRIDE),
        )


def bad_streams(imu, truth) -> dict[str, ImuStream]:
    """The scene's IMU stream emptied, with a gap inside the second keyframe
    interval, and ending before the last keyframe."""
    ts = imu.timestamps
    kf = truth.timestamps[::STRIDE]
    keep = {
        "empty": np.zeros(len(ts), dtype=bool),
        "gap": ~((ts > kf[1]) & (ts < kf[2])),
        "short": ts < kf[-2],
    }
    return {name: ImuStream(ts[k], imu.gyro[k], imu.accel[k]) for name, k in keep.items()}


@pytest.mark.parametrize("case", ["empty", "gap", "short"])
def test_bad_imu_raises_before_triangulation(scene, monkeypatch, case):
    # typed, where an empty stream once raised an IndexError
    world, rig, detections, imu, truth, init = scene
    calls = []
    monkeypatch.setattr(fusion, "triangulate_all", lambda *args: calls.append(args))
    with pytest.raises(ImuDataError):
        build_fusion_problem(
            init, detections.tracks, detections.cp_observations, world.cps,
            bad_streams(imu, truth)[case], rig, FusionConfig(keyframe_stride=STRIDE),
        )
    assert calls == []


def test_pose_covariances_are_of_the_device_poses(scene):
    # the scene re-expressed in a device frame apart from the IMU frame is
    # the same problem in the IMU frame; each device pose covariance is
    # J S J^T, with S the identity-extrinsic run's and J the Jacobian of
    # (body + delta) @ imu_from_device, by central differences
    world, rig, detections, imu, truth, init = scene
    assert np.array_equal(rig.imu_from_device.rotation.matrix(), np.eye(3))
    assert not rig.imu_from_device.translation.any()
    imu_from_device = RigidPose(Rotation.exp([0.1, -0.2, 0.3]), [0.05, -0.02, 0.01])
    reframed_rig = RigCalibration(
        cameras=rig.cameras,
        camera_from_device={c: p @ imu_from_device for c, p in rig.camera_from_device.items()},
        imu_from_device=imu_from_device,
        imu_noise=rig.imu_noise,
    )
    reframed_init = Trajectory(init.timestamps, tuple(p @ imu_from_device for p in init.poses))

    def optimized(traj, r):
        return optimize_pseudo_gt(build_fusion_problem(
            traj, detections.tracks, detections.cp_observations, world.cps, imu, r,
            FusionConfig(mode="inertial-only", keyframe_stride=STRIDE),
        ))

    base, reframed = optimized(init, rig), optimized(reframed_init, reframed_rig)

    def tangent(pose, origin):
        return np.concatenate([
            (origin.rotation.inverse() @ pose.rotation).log(),
            pose.translation - origin.translation,
        ])

    step = 1e-6
    for kf, kf_base, cov, cov_base in zip(
        reframed.keyframes, base.keyframes, reframed.pose_covariances, base.pose_covariances,
        strict=True,
    ):
        device = kf_base.pose @ imu_from_device
        assert np.abs(tangent(kf.pose, device)).max() < 1e-9
        body = np.concatenate([kf_base.pose.rotation.quat, kf_base.pose.translation])[None]
        jac = np.zeros((6, 6))
        for d in range(6):
            moved = [
                _retract(Manifold.RIGID_POSE, body, sign * step * np.eye(6)[d][None])[0]
                for sign in (1.0, -1.0)
            ]
            plus, minus = (
                tangent(RigidPose(Rotation(m[:4]), m[4:]) @ imu_from_device, device)
                for m in moved
            )
            jac[:, d] = (plus - minus) / (2 * step)
        expected = jac @ cov_base @ jac.T
        np.testing.assert_allclose(cov, expected, rtol=0.0, atol=1e-6 * np.abs(expected).max())


def test_no_cp_detection_on_keyframes_is_unobservable(scene):
    world, rig, detections, imu, truth, init = scene
    keyframes = set(int(t) for t in truth.timestamps[::STRIDE]) | {int(truth.timestamps[-1])}
    off_keyframe = {
        cid: [o for o in obs if o.image_id not in keyframes]
        for cid, obs in detections.cp_observations.items()
    }
    assert any(off_keyframe.values())
    with pytest.raises(UnobservableError):
        build_fusion_problem(
            init, detections.tracks, off_keyframe, world.cps, imu, rig,
            FusionConfig(keyframe_stride=STRIDE),
        )


@pytest.mark.parametrize("mode", ["full", "inertial-only"])
def test_all_2d_control_points_recover_truth(scene_2d, mode):
    world, rig, detections, imu, truth, init = scene_2d
    assert all(cp.dim == 2 for cp in world.cps)
    fp = build_fusion_problem(
        init, detections.tracks, detections.cp_observations, world.cps, imu, rig,
        FusionConfig(mode=mode, keyframe_stride=STRIDE),
    )
    assert fp.gauge_prior
    assert fp.problem.residuals["gauge-prior"].group == "generic"
    pgt = optimize_pseudo_gt(fp)
    assert pgt.report.termination == "converged"
    err = errors_mm({k.timestamp_ns: k.pose for k in pgt.keyframes}, truth, fp.keyframe_ts)
    # about 40 mm RMS on this scene: the prior holds keyframe 0 at its init
    assert np.sqrt(np.mean(err**2)) < 100.0
    for cov in pgt.pose_covariances:
        assert np.linalg.eigvalsh(cov).min() > 0.0


def alignment_problem(scene, monkeypatch):
    """The solved problem of `joint_sparse_align` on the scene's control
    points, triangulated from the initial trajectory."""
    world, rig, detections, imu, truth, init = scene
    poses = init.pose_map()
    tris, _ = triangulate_all(detections.cp_observations, poses, rig)
    problems = []

    def recorded(problem, *args):
        problems.append(problem)
        return solver.solve(problem, *args)

    monkeypatch.setattr(alignment, "solve", recorded)
    alignment.joint_sparse_align(tris, poses, rig, world.cps)
    (problem,) = problems
    return problem


# per problem: the blocks it holds, and the scale of the random tangent step
# that moves its values away from where they were built or solved
FACTOR_BLOCKS = {
    "fusion": (
        {"marker-reprojection", "world:3d", "world:2d", "feature-reprojection", "imu", "walk"},
        0.01,
    ),
    # the first keyframe pose anchored by the gauge prior, whose rotation
    # error the step makes large
    "fusion-2d": (
        {"marker-reprojection", "world:2d", "feature-reprojection", "imu", "walk",
         "gauge-prior"},
        0.3,
    ),
    "alignment": ({"marker-reprojection", "world:3d", "world:2d"}, 0.01),
}


@pytest.mark.parametrize("case", sorted(FACTOR_BLOCKS))
def test_block_jacobians_match_central_differences(scene, scene_2d, monkeypatch, case):
    # every block of the problem, slot by slot, over the manifold retraction
    if case == "alignment":
        problem = alignment_problem(scene, monkeypatch)
    else:
        problem = fusion_problem(scene_2d if case == "fusion-2d" else scene).problem
    blocks, scale = FACTOR_BLOCKS[case]
    assert set(problem.residuals) == blocks
    if "gauge-prior" in blocks:
        gauge = problem.residuals["gauge-prior"]
        assert gauge.rows == 1 and gauge.dim == 6
        assert np.all(np.diag(gauge.covariance) == 1e-8)
        prior = problem.params[gauge.params[0][0]].value[None]
        np.testing.assert_allclose(gauge.fn(prior)[0], 0.0, atol=1e-15)
    ws = solver._Workspace(problem)
    rng = np.random.default_rng(7)
    x = ws.apply_step(ws.values(), rng.normal(scale=scale, size=ws.n_tangent))
    # keeps the round-off of residuals of a few hundred pixels below the
    # tolerance
    step = 1e-5
    for r in problem.residuals.values():
        slots = ws.slots(r, x)
        _, jacobians = r.fn(*slots)
        for s, jac in enumerate(jacobians()):
            kind = problem.params[r.params[s][0]].manifold
            num = np.zeros(jac.shape)
            for d in range(jac.shape[2]):
                delta = np.zeros((r.rows, jac.shape[2]))
                delta[:, d] = step
                plus, minus = list(slots), list(slots)
                plus[s] = _retract(kind, slots[s], delta)
                minus[s] = _retract(kind, slots[s], -delta)
                num[..., d] = (r.fn(*plus)[0] - r.fn(*minus)[0]) / (2 * step)
            np.testing.assert_allclose(
                jac, num, rtol=1e-6, atol=1e-8, err_msg=f"block {r.id}, slot {s}"
            )


def test_imu_coverage_check_matches_mask_count():
    # 200 Hz with two holes; keyframes on random instants and on samples
    rng = np.random.default_rng(8)
    ts = np.arange(0, 2_000_000_000, 5_000_000, dtype=np.int64)
    holes = ((ts > 300_000_000) & (ts < 360_000_000)) | (
        (ts > 1_000_000_000) & (ts < 1_500_000_000)
    )
    ts = ts[~holes]
    imu = ImuStream(ts, np.zeros((len(ts), 3)), np.zeros((len(ts), 3)))
    nominal = float(np.median(np.diff(ts)))

    def has_empty_interval(kf):
        return any(
            not np.any((ts > a) & (ts < b)) and (b - a) > 2.0 * nominal
            for a, b in zip(kf, kf[1:])
        )

    # keyframes on the two samples that bound a hole have none between them
    bounding = np.array([ts[0], ts[ts <= 300_000_000][-1], ts[ts >= 360_000_000][0], ts[-1]])
    assert has_empty_interval(bounding)
    random_sets = [
        np.unique(
            np.concatenate([rng.integers(ts[0], ts[-1], 6), rng.choice(ts, 6), [ts[0], ts[-1]]])
        )
        for _ in range(30)
    ]
    noise = default_rig().imu_noise

    def preintegrate_intervals(kf):
        preintegrate_stack(imu, kf[:-1], kf[1:], np.zeros((len(kf) - 1, 6)), noise)

    for kf in [bounding] + random_sets:
        if has_empty_interval(kf):
            with pytest.raises(ImuDataError):
                preintegrate_intervals(kf)
        else:
            preintegrate_intervals(kf)
