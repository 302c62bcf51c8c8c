"""Tests for robust triangulation and its covariance."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vigt.errors import (
    BehindCameraError,
    DegenerateGeometryError,
    InsufficientObservationsError,
    NoConsensusError,
    VigtError,
)
from vigt.geometry import (
    MIN_DEPTH,
    CameraKind,
    CameraModel,
    RigCalibration,
    RigidPose,
    Rotation,
    Similarity,
    camera_maps,
    try_project,
)
from vigt import triangulation
from vigt.solver import CONVERGENCE_TOL, NEGLIGIBLE_STEP
from vigt.synth import (
    SynthConfig,
    default_rig,
    gen_detections,
    gen_world,
    perturb_trajectory,
)
from vigt.triangulation import (
    _ETA,
    _FIRST_PASS,
    _MIN_PAIR_ANGLE_DEG,
    _SEED,
    _THRESHOLD_PX,
    Observation,
    TriangulationConfig,
    ViewSet,
    _covariances,
    _local_optimization,
    _lo_ransac,
    _midpoints,
    _refine_points,
    _sample_pairs,
    triangulate_all,
    triangulate_ransac,
)

CAM = CameraModel(
    CameraKind.PINHOLE, 100.0, 100.0, 0.0, 0.0, width=2000, height=2000
)


def single_camera_rig(cam=CAM):
    return RigCalibration(
        cameras={"cam": cam}, camera_from_device={"cam": RigidPose.identity()}
    )


def look_at(center, target, up=(0.0, 0.0, 1.0)):
    """Device pose whose camera (+z optical axis) looks at target."""
    z = np.asarray(target, dtype=float) - center
    z = z / np.linalg.norm(z)
    x = np.cross(z, up)
    if np.linalg.norm(x) < 1e-9:
        x = np.cross(z, (0.0, 1.0, 0.0))
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    r = Rotation.from_matrix(np.stack([x, y, z], axis=1))
    return RigidPose(r, np.asarray(center, dtype=float))


def observe(point, pose, rig, image_id, noise=0.0, rng=None, sigma=1.0):
    cam = rig.cameras["cam"]
    extr = rig.camera_from_device["cam"]
    p_cam = extr.apply(pose.inverse().apply(point))
    uv = try_project(cam, p_cam)[0]
    if noise > 0.0:
        uv = uv + rng.normal(scale=noise, size=2)
    return Observation(image_id, "cam", uv, np.eye(2) * sigma**2)


def frame_map(device_pose, cam_from_device):
    """(A, b) with p_cam = A p_frame + b of one frame: `camera_maps` of a
    stack of one."""
    scale = device_pose.scale if isinstance(device_pose, Similarity) else 1.0
    a, b = camera_maps(
        device_pose.rotation.quat[None],
        device_pose.translation[None],
        np.array([scale]),
        cam_from_device.rotation.matrix()[None],
        cam_from_device.translation[None],
    )
    return a[0], b[0]


def refine_alone(point, obs, poses, rig):
    """Refinement of one point from `point` on its views: position, mean
    inlier error, covariance and the failure, None if it succeeds."""
    positions, errors, covariances, failures = _refine_points(
        ViewSet.build(obs, poses, rig), np.reshape(point, (1, 3))
    )
    return positions[0], errors[0], covariances[0], failures.get(0)


def covariance_at(point, obs, poses, rig):
    """Covariance of one point's reprojection problem at `point`."""
    views = ViewSet.build(obs, poses, rig)
    covariances, failures = _covariances(views, views.project(None, np.asarray(point)))
    assert not failures
    return covariances[0]


def triangulate_one(obs, poses, rig):
    """One point triangulated alone by `triangulate_all`, which must not fail."""
    results, failures = triangulate_all({"x": obs}, poses, rig)
    assert not failures, failures
    return results["x"]


class TestRansac:
    def test_two_noiseless_orthogonal_views(self):
        rig = single_camera_rig()
        point = np.array([0.0, 0.0, 5.0])
        poses = {
            0: look_at([0.0, 0.0, 0.0], point),
            1: look_at([5.0, 0.0, 5.0], point),
        }
        obs = [observe(point, poses[i], rig, i) for i in (0, 1)]
        est, inliers = triangulate_ransac(obs, poses, rig)
        np.testing.assert_allclose(est, point, atol=1e-9)
        assert inliers == (0, 1)

    def test_outlier_excluded(self):
        rig = single_camera_rig()
        point = np.array([0.0, 0.0, 5.0])
        centers = [(0, 0, 0), (5, 0, 5), (-4, 2, 1), (2, -4, 7)]
        poses = {i: look_at(c, point) for i, c in enumerate(centers)}
        obs = [observe(point, poses[i], rig, i) for i in range(4)]
        bad = Observation(3, "cam", obs[3].pixel + np.array([50.0, 0.0]))
        obs[3] = bad
        est, inliers = triangulate_ransac(obs, poses, rig)
        assert 3 not in inliers
        np.testing.assert_allclose(est, point, atol=1e-6)

    def test_identical_poses_degenerate(self):
        rig = single_camera_rig()
        point = np.array([0.0, 0.0, 5.0])
        pose = look_at([0.0, 0.0, 0.0], point)
        poses = {0: pose, 1: pose}
        obs = [observe(point, poses[i], rig, i) for i in (0, 1)]
        with pytest.raises(DegenerateGeometryError):
            triangulate_ransac(obs, poses, rig)

    def test_near_parallel_rays_degenerate(self):
        rig = single_camera_rig()
        point = np.array([0.0, 0.0, 1000.0])
        # two cameras 0.5 m apart looking at a 1 km point: ~0.03 deg apart
        poses = {0: look_at([0.0, 0.0, 0.0], point), 1: look_at([0.5, 0.0, 0.0], point)}
        obs = [observe(point, poses[i], rig, i) for i in (0, 1)]
        with pytest.raises(DegenerateGeometryError):
            triangulate_ransac(obs, poses, rig)

    def test_single_observation_insufficient(self):
        rig = single_camera_rig()
        poses = {0: look_at([0.0, 0.0, 0.0], [0.0, 0.0, 5.0])}
        obs = [observe(np.array([0.0, 0.0, 5.0]), poses[0], rig, 0)]
        with pytest.raises(InsufficientObservationsError):
            triangulate_ransac(obs, poses, rig)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(3)
        rig = single_camera_rig()
        point = np.array([1.0, -2.0, 6.0])
        centers = rng.normal(scale=4.0, size=(40, 3))
        poses = {i: look_at(c, point) for i, c in enumerate(centers)}
        obs = [
            observe(point, poses[i], rig, i, noise=1.0, rng=rng)
            for i in range(len(centers))
        ]
        cfg = TriangulationConfig(max_iters=100)
        est1, in1 = triangulate_ransac(obs, poses, rig, cfg)
        est2, in2 = triangulate_ransac(obs, poses, rig, cfg)
        np.testing.assert_array_equal(est1, est2)
        assert in1 == in2


class TestPairSampling:
    def test_matches_enumerated_sampling(self):
        n, max_iters, seed = 40, 100, 7
        # oracle: the enumerate-then-choose sampler this one replaces
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(all_pairs), size=max_iters, replace=False)
        expected = [all_pairs[int(k)] for k in idx]
        assert [tuple(p) for p in _sample_pairs(n, max_iters, seed).tolist()] == expected

    def test_every_pair_once_in_an_order_fixed_by_n_and_seed(self):
        for n, max_iters in ((2, 1), (5, 10), (14, 91), (6, 500)):
            all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            pairs = [tuple(p) for p in _sample_pairs(n, max_iters, seed=7).tolist()]
            assert sorted(pairs) == all_pairs
            # oracle: all the enumerated pairs, chosen in a seeded order
            rng = np.random.default_rng(7)
            order = rng.choice(len(all_pairs), size=len(all_pairs), replace=False)
            assert pairs == [all_pairs[int(k)] for k in order]
        # not in lexicographic order, and another seed gives another order
        pairs = _sample_pairs(14, 91, seed=7).tolist()
        assert pairs != sorted(pairs)
        assert _sample_pairs(14, 91, seed=8).tolist() != pairs


class TestLocalOptimization:
    def test_failed_refinement_keeps_hypothesis_score(self):
        # View 0 sees the point from 2 m with a loose 100 px sigma, view 1
        # from 10 m with a tight 0.01 px sigma. A 6 px error across the
        # epipolar plane in view 0 makes the rays skew: their midpoint has
        # both views within 4 px, but the weighted refinement moves onto
        # ray 1 and leaves view 0 about 6 px off, a single inlier.
        rig = single_camera_rig()
        point = np.array([0.0, 0.0, 5.0])
        poses = {0: look_at([0.0, 0.0, 3.0], point), 1: look_at([10.0, 0.0, 5.0], point)}
        near = observe(point, poses[0], rig, 0, sigma=100.0)
        obs = [
            Observation(0, "cam", near.pixel + np.array([0.0, 6.0]), near.pixel_cov),
            observe(point, poses[1], rig, 1, sigma=0.01),
        ]
        views = ViewSet.build(obs, poses, rig)
        centers, rays, _ = views.centers_and_rays()
        hypothesis = _midpoints(centers, rays, np.array([[0, 1]]))[0][0]
        errors = views.errors(hypothesis)
        assert np.all(errors <= 4.0)
        assert (views.errors(views.refine(hypothesis)[0]) <= 4.0).sum() == 1

        score = (2, -float(errors.mean()))
        kept, inliers, count, mean = _local_optimization(
            views, hypothesis[None], errors <= 4.0, np.array([2]), np.array([-score[1]]), 4.0
        )
        np.testing.assert_array_equal(kept[0], hypothesis)
        assert inliers.all()
        assert (int(count[0]), -float(mean[0])) == score


    def test_each_inlier_set_refined_once(self):
        # View 0 sees the point from 2 m with a loose 100 px sigma and a 5 px
        # offset, views 1-7 from 6 m with a tight 0.01 px sigma. Every
        # hypothesis of a pair with view 0 keeps all 8 views as inliers;
        # refining them moves onto the tight rays and drops view 0. Each of
        # those hypotheses beats the 7-inlier best, and the estimate keeps
        # the 7 tight views.
        rig = single_camera_rig()
        point = np.array([0.0, 0.0, 5.0])
        rng = np.random.default_rng(5)
        poses = {0: look_at([0.0, 0.0, 3.0], point)}
        for k in range(1, 8):
            d = rng.normal(size=3)
            poses[k] = look_at(point + 6.0 * d / np.linalg.norm(d), point)
        near = observe(point, poses[0], rig, 0, sigma=100.0)
        obs = [Observation(0, "cam", near.pixel + np.array([3.0, 4.0]), near.pixel_cov)]
        obs += [observe(point, poses[k], rig, k, sigma=0.01) for k in range(1, 8)]

        views = ViewSet.build(obs, poses, rig)
        centers, rays, _ = views.centers_and_rays()
        config = TriangulationConfig()
        pairs = _sample_pairs(len(obs), config.max_iters, _SEED)
        masks = views.errors(_midpoints(centers, rays, pairs)[0]) <= 4.0
        assert np.count_nonzero(masks.all(axis=1)) == 7
        assert (views.errors(views.refine(point)[0]) <= 4.0).sum() == 7

        est, inliers = triangulate_ransac(obs, poses, rig, config)
        assert inliers == tuple(range(1, 8))
        np.testing.assert_allclose(est, point, atol=1e-9)


class TestRefine:
    def make_views(self, rng, point, n=10, noise=0.0):
        rig = single_camera_rig()
        centers = []
        while len(centers) < n:
            c = rng.normal(scale=5.0, size=3)
            if np.linalg.norm(c - point) > 2.0:
                centers.append(c)
        poses = {i: look_at(c, point) for i, c in enumerate(centers)}
        obs = [
            observe(point, poses[i], rig, i, noise=noise, rng=rng)
            for i in range(n)
        ]
        return rig, poses, obs

    def test_noiseless_input_unchanged(self):
        rng = np.random.default_rng(4)
        point = np.array([0.5, 0.5, 4.0])
        rig, poses, obs = self.make_views(rng, point, n=6)
        position, mean_error, _, failure = refine_alone(point, obs, poses, rig)
        assert failure is None
        np.testing.assert_allclose(position, point, atol=1e-9)
        assert mean_error < 1e-9

    def test_single_inlier_insufficient(self):
        rng = np.random.default_rng(5)
        point = np.array([0.0, 0.0, 4.0])
        rig, poses, obs = self.make_views(rng, point, n=2)
        _, failures = triangulate_all({"x": obs[:1]}, poses, rig)
        assert failures["x"].startswith(InsufficientObservationsError.__name__)

    def test_monte_carlo_error_within_predicted_bound(self):
        # 1-px noise in 10 views: the estimate should stay within 3 predicted
        # sigmas of the truth in ~95 percent of trials (we require 93 percent
        # of 1000 to absorb simulation noise)
        rng = np.random.default_rng(6)
        point = np.array([0.0, 1.0, 3.0])
        rig, poses, _ = self.make_views(rng, point, n=10)
        trials = 1000
        obs = [
            observe(point, poses[i], rig, i, noise=1.0, rng=rng)
            for _ in range(trials)
            for i in range(10)
        ]
        # every trial is one point of a single lockstep refinement
        views = ViewSet.build(obs, poses, rig, np.repeat(np.arange(trials), 10))
        positions, _, covariances, failures = _refine_points(views, np.tile(point, (trials, 1)))
        assert not failures
        err = np.linalg.norm(positions - point, axis=1)
        bound = 3.0 * np.sqrt(np.linalg.eigvalsh(covariances).max(axis=1))
        hits = np.count_nonzero(err <= bound)
        assert hits / trials >= 0.93

    def test_refinement_does_not_increase_error(self):
        rng = np.random.default_rng(7)
        point = np.array([0.0, 0.0, 5.0])
        rig, poses, obs = self.make_views(rng, point, n=8, noise=1.5)
        init, inlier_idx = triangulate_ransac(obs, poses, rig)
        inliers = [obs[k] for k in inlier_idx]

        def total_error(p):
            return float(np.sum(ViewSet.build(inliers, poses, rig).errors(p) ** 2))

        position, _, _, failure = refine_alone(init, inliers, poses, rig)
        assert failure is None
        assert total_error(position) <= total_error(init) + 1e-12


class TestSyntheticScene:
    def test_refine_restarted_at_its_result_evaluates_at_most_two_trials(self, monkeypatch):
        # every CP of a seeded scene, refined again from its triangulated
        # position, sits within a negligible step of its minimum: the model
        # promises at most `solver.stop_tolerance` of its cost, so the first
        # trial ends the loop, and a rejected one does not raise the damping
        # to LAMBDA_MAX
        config = SynthConfig(
            seed=2, duration_s=3.0, cp_count=6, detection_sigma_px=0.5, cp_noise_scale=1.0
        )
        world, rig = gen_world(config), default_rig()
        detections = gen_detections(world, rig, seed=1)
        poses = perturb_trajectory(world.trajectory, white_sigma_pos=0.02, seed=3).pose_map()
        results, failures = triangulate_all(detections.cp_observations, poses, rig)
        assert not failures and len(results) == 6
        costs, calls = ViewSet._costs, [0]

        def counted(self, *args):
            calls[0] += 1
            return costs(self, *args)

        monkeypatch.setattr(ViewSet, "_costs", counted)
        trials = []
        for cp_id, tri in sorted(results.items()):
            calls[0] = 0
            ViewSet.build(list(tri.inliers), poses, rig).refine(tri.position)
            trials.append(calls[0] - 1)  # the first call costs the start
        assert max(trials) <= 2, trials

    def test_nan_pixel_fails_its_point(self):
        # one NaN pixel among a CP's 43 views; another CP in the same call
        # keeps its result
        rig = default_rig()
        world = gen_world(
            SynthConfig(seed=3, duration_s=3.0, cp_count=6, detection_sigma_px=0.5)
        )
        detections = gen_detections(world, rig, seed=3)
        poses = world.trajectory.pose_map()
        obs = list(detections.cp_observations["cp000"])
        assert len(obs) == 43
        bad = obs[10]
        obs[10] = Observation(
            bad.image_id, bad.camera_id, (np.nan, bad.pixel[1]), bad.pixel_cov
        )
        other = {"cp001": detections.cp_observations["cp001"]}
        results, failures = triangulate_all({"cp000": obs, **other}, poses, rig)
        assert list(failures) == ["cp000"]
        assert failures["cp000"].startswith("UnprojectionError: ")
        assert failures["cp000"].endswith("is not finite")
        alone, _ = triangulate_all(other, poses, rig)
        np.testing.assert_array_equal(results["cp001"].position, alone["cp001"].position)


class TestCovariance:
    def test_two_orthogonal_views_closed_form(self):
        rig = single_camera_rig()
        d, f, sigma = 5.0, 100.0, 1.0
        point = np.array([0.0, 0.0, 5.0])
        poses = {
            0: look_at([0.0, 0.0, 0.0], point),
            1: look_at([d, 0.0, 5.0], point),
        }
        obs = [observe(point, poses[i], rig, i, sigma=sigma) for i in (0, 1)]
        cov = covariance_at(point, obs, poses, rig)
        # closed-form two-ray oracle: each ray constrains its two transverse
        # axes at sigma*d/f; the shared axis gets both constraints
        s = (sigma * d / f) ** 2
        w, _ = np.linalg.eigh(cov)
        np.testing.assert_allclose(sorted(w), sorted([s, s / 2.0, s]), rtol=0.01)

    def test_doubling_pixel_sigma_quadruples_covariance(self):
        rig = single_camera_rig()
        point = np.array([0.0, 0.0, 5.0])
        poses = {
            0: look_at([0.0, 0.0, 0.0], point),
            1: look_at([5.0, 0.0, 5.0], point),
        }
        obs1 = [observe(point, poses[i], rig, i, sigma=1.0) for i in (0, 1)]
        obs2 = [observe(point, poses[i], rig, i, sigma=2.0) for i in (0, 1)]
        c1 = covariance_at(point, obs1, poses, rig)
        c2 = covariance_at(point, obs2, poses, rig)
        np.testing.assert_allclose(c2, 4.0 * c1, rtol=1e-12)

    def test_near_parallel_rays_elongated(self):
        rig = single_camera_rig()
        point = np.array([0.0, 0.0, 50.0])
        # 0.6 degrees of separation seen from the point
        base = 50.0 * np.tan(np.deg2rad(0.6))
        poses = {
            0: look_at([0.0, 0.0, 0.0], point),
            1: look_at([base, 0.0, 0.0], point),
        }
        obs = [observe(point, poses[i], rig, i) for i in (0, 1)]
        cov = covariance_at(point, obs, poses, rig)
        w, v = np.linalg.eigh(cov)
        assert w[-1] / w[0] > 1e3
        # the long axis points along the mean ray direction (~ +z)
        assert abs(v[:, -1] @ np.array([0.0, 0.0, 1.0])) > 0.99


class TestEquivariance:
    def test_rigid_transform_equivariance(self):
        rng = np.random.default_rng(8)
        point = np.array([1.0, 0.0, 4.0])
        rig = single_camera_rig()
        centers = [(0, 0, 0), (5, 0, 5), (-3, 3, 1), (0, -5, 6)]
        poses = {i: look_at(c, point) for i, c in enumerate(centers)}
        obs = [observe(point, poses[i], rig, i, noise=0.5, rng=rng) for i in range(4)]

        cp = triangulate_one(obs, poses, rig)

        g = RigidPose(Rotation.exp(rng.normal(size=3)), rng.normal(scale=3.0, size=3))
        moved = {i: g @ p for i, p in poses.items()}
        cp_g = triangulate_one(obs, moved, rig)

        np.testing.assert_allclose(cp_g.position, g.apply(cp.position), atol=1e-9)
        r = g.rotation.matrix()
        np.testing.assert_allclose(cp_g.covariance, r @ cp.covariance @ r.T, atol=1e-12)

    def test_scaled_frame_equivariance(self):
        # poses expressed in a scaled SLAM frame still triangulate exactly
        rng = np.random.default_rng(9)
        point = np.array([1.0, 0.0, 4.0])
        rig = single_camera_rig()
        centers = [(0, 0, 0), (5, 0, 5), (-3, 3, 1)]
        poses = {i: look_at(c, point) for i, c in enumerate(centers)}
        obs = [observe(point, poses[i], rig, i) for i in range(3)]

        g = Similarity(2.5, Rotation.exp(rng.normal(size=3)), rng.normal(size=3))
        scaled = {
            i: Similarity(g.scale, g.rotation @ p.rotation, g.apply(p.translation))
            for i, p in poses.items()
        }
        cp = triangulate_one(obs, scaled, rig)
        np.testing.assert_allclose(cp.position, g.apply(point), atol=1e-8)


MODELS = {
    "pinhole": CameraModel(CameraKind.PINHOLE, 400.0, 400.0, 319.5, 239.5),
    "radtan": CameraModel(
        CameraKind.RADTAN4, 450.0, 455.0, 319.0, 241.0, (-0.08, 0.02, 0.0005, -0.0004)
    ),
    "fisheye": CameraModel(
        CameraKind.KANNALA_BRANDT4,
        275.0,
        278.0,
        319.5,
        239.5,
        (0.015, -0.006, 0.002, -0.0005),
    ),
}
MIXED_RIG = RigCalibration(
    cameras=MODELS,
    camera_from_device={
        "pinhole": RigidPose(Rotation.exp([0.05, 0.0, 0.0]), [0.1, 0.0, 0.0]),
        "radtan": RigidPose(Rotation.exp([0.0, -0.04, 0.02]), [-0.1, 0.02, 0.0]),
        "fisheye": RigidPose(Rotation.exp([0.0, 0.0, 0.3]), [0.0, -0.05, 0.03]),
    },
)


@st.composite
def mixed_views(draw):
    """Observations of one point by 2-12 views of mixed camera models, and
    an evaluation point near it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    target = rng.normal(size=3)
    n = draw(st.integers(2, 12))
    cams = draw(st.lists(st.sampled_from(sorted(MODELS)), min_size=n, max_size=n))
    poses, obs = {}, []
    for k, cid in enumerate(cams):
        offset = rng.normal(size=3)
        center = target + rng.uniform(2.0, 8.0) * offset / np.linalg.norm(offset)
        poses[k] = look_at(center, target)
        obs.append(Observation(k, cid, rng.normal([320.0, 240.0], 40.0)))
    return ViewSet.build(obs, poses, MIXED_RIG), poses, target + rng.normal(scale=0.3, size=3)


def view_residuals(views, p):
    return views.evaluate(p)[0]


def view_jacobians(views, p):
    (jac,) = views.evaluate(p)[1]()
    return jac


def view_geometry(obs, poses):
    a, b = frame_map(poses[obs.image_id], MIXED_RIG.camera_from_device[obs.camera_id])
    return MODELS[obs.camera_id], a, b


class TestViewSet:
    @settings(max_examples=60, deadline=None)
    @given(mixed_views())
    def test_batched_matches_per_view(self, scene):
        views, poses, p = scene
        errors, residuals = views.errors(p), view_residuals(views, p)
        jacs = view_jacobians(views, p)
        for k, obs in enumerate(views.observations):
            cam, a, b = view_geometry(obs, poses)
            uv, valid = try_project(cam, a @ p + b)
            expected = np.linalg.norm(uv - obs.pixel) if valid else np.inf
            np.testing.assert_allclose(errors[k], expected, rtol=1e-12)
            np.testing.assert_allclose(np.linalg.norm(residuals[k]), errors[k], rtol=1e-9)
            # each view alone, in a set of one camera model
            np.testing.assert_allclose(
                view_jacobians(views.take([k]), p)[0], jacs[k], rtol=1e-12
            )
        per_view = np.tile(p, (len(views.observations), 1))
        np.testing.assert_array_equal(view_residuals(views, per_view), residuals)
        np.testing.assert_array_equal(view_jacobians(views, per_view), jacs)
        stacked = np.stack([p, 2.0 * p, p + 1.0])
        np.testing.assert_allclose(
            views.errors(stacked), np.stack([views.errors(q) for q in stacked]), rtol=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(mixed_views())
    def test_jacobians_match_central_differences(self, scene):
        views, poses, p = scene
        step = 1e-6
        jacs = view_jacobians(views, p)
        for k, obs in enumerate(views.observations):
            cam, a, b = view_geometry(obs, poses)
            num = np.zeros((2, 3))
            for i in range(3):
                dp = np.zeros(3)
                dp[i] = step
                plus = try_project(cam, a @ (p + dp) + b)[0]
                minus = try_project(cam, a @ (p - dp) + b)[0]
                num[:, i] = (plus - minus) / (2 * step)
            np.testing.assert_allclose(jacs[k], num, rtol=1e-5, atol=1e-4)


class TestProjection:
    def test_clamped_point_does_not_project(self):
        # a pinhole and a fisheye camera, both at the origin, see the origin
        # at their principal points; within MIN_DEPTH of them the clamp
        # moves the point, so neither view projects it and the pinhole one
        # counts it as behind
        fisheye = MODELS["fisheye"]
        rig = RigCalibration(
            cameras={"cam": CAM, "fish": fisheye},
            camera_from_device={"cam": RigidPose.identity(), "fish": RigidPose.identity()},
        )
        obs = [Observation(0, "cam", (0.0, 0.0)), Observation(0, "fish", (fisheye.cx, fisheye.cy))]
        views = ViewSet.build(obs, {0: RigidPose.identity()}, rig)
        near = views.project(None, np.array([0.0, 0.0, 0.5 * MIN_DEPTH]))
        np.testing.assert_array_equal(near.errors, [np.inf, np.inf])
        np.testing.assert_array_equal(views.in_front(near), [False, True])
        np.testing.assert_array_equal(views.errors([0.0, 0.0, 0.5 * MIN_DEPTH]), near.errors)
        # beyond MIN_DEPTH both project their principal points
        far = views.project(None, np.array([0.0, 0.0, 2.0 * MIN_DEPTH]))
        np.testing.assert_array_equal(far.errors, [0.0, 0.0])
        np.testing.assert_array_equal(views.in_front(far), [True, True])
        # a fisheye view of a point off its axis, within MIN_DEPTH of it
        off_axis = views.project(np.array([1]), np.array([0.6 * MIN_DEPTH, 0.0, -0.3 * MIN_DEPTH]))
        np.testing.assert_array_equal(off_axis.errors, [np.inf])

    def test_each_point_state_mapped_once(self, monkeypatch):
        # refinement, its mean errors, its behind-camera check and its
        # covariance read the projection refine returns, and each scoring
        # pass maps its entries once
        rng = np.random.default_rng(23)
        poses = {}
        obs, _ = corrupt(ring_views(rng, poses, np.zeros(3), 30, 0), 0.3, rng)
        views = ViewSet.build(obs, poses, PINHOLE_RIG)
        maps, in_refine, per_pass = [0], [0], []
        project, refine, score_pairs = ViewSet.project, ViewSet.refine, triangulation._score_pairs

        def counted_project(self, *args):
            maps[0] += 1
            return project(self, *args)

        def counted_refine(self, *args):
            before = maps[0]
            out = refine(self, *args)
            in_refine[0] += maps[0] - before
            return out

        def counted_pass(*args):
            before = maps[0]
            out = score_pairs(*args)
            per_pass.append(maps[0] - before)
            return out

        monkeypatch.setattr(ViewSet, "project", counted_project)
        monkeypatch.setattr(ViewSet, "refine", counted_refine)
        monkeypatch.setattr(triangulation, "_score_pairs", counted_pass)
        points, inliers, failures, _ = _lo_ransac(views, TriangulationConfig())
        assert not failures and len(per_pass) > 1
        assert per_pass == [1] * len(per_pass)
        maps[0] = in_refine[0] = 0
        *_, failures = _refine_points(views.take(np.flatnonzero(inliers)), points)
        assert not failures
        assert maps[0] == in_refine[0] > 0


# Reference oracles: LO-RANSAC and Levenberg-Marquardt refinement one point
# at a time (every drawn pair scored at once, the stopping rule applied to
# the point's pairs in their drawn order, then LO on each improving
# hypothesis before the stop, in order, einsum sums). The lockstep batch
# must equal them.


def oracle_refine(views, point):
    p = np.asarray(point, dtype=float)
    res = view_residuals(views, p)
    cost = np.einsum("ni,nij,nj->", res, views.weights, res)
    redundancy = 2 * len(views.observations) - 3

    def negligible(promised, cost):
        # a step of at most NEGLIGIBLE_STEP a-posteriori standard deviations;
        # without redundancy, a decrease of at most CONVERGENCE_TOL of the cost
        if redundancy > 0:
            return promised <= NEGLIGIBLE_STEP**2 * cost / redundancy
        return promised <= CONVERGENCE_TOL * cost

    lam = 1e-4
    for _ in range(50):
        jac = view_jacobians(views, p)
        jt_w = np.einsum("nji,njk->nik", jac, views.weights)
        grad = np.einsum("nij,nj->i", jt_w, res)
        hess = np.einsum("nij,njk->ik", jt_w, jac)
        damping = np.diag(np.maximum(np.diag(hess), 1e-12))
        promised = np.inf  # model decrease along the first finite step
        while True:
            try:
                step = np.linalg.solve(hess + lam * damping, -grad)
            except np.linalg.LinAlgError:
                step = np.full(3, np.nan)
            if promised == np.inf and np.isfinite(step).all():
                # the cost's slope 2 g'd and curvature 2 d'Hd along the step
                slope = 2.0 * (grad * step).sum()
                curvature = 2.0 * (step * (hess * step).sum(axis=1)).sum()
                promised = slope * slope / (2.0 * curvature) if curvature > 0.0 else 0.0
            trial = p + step
            trial_res = view_residuals(views, trial)
            trial_cost = np.einsum("ni,nij,nj->", trial_res, views.weights, trial_res)
            if trial_cost < cost:
                break
            lam *= 10.0
            if negligible(promised, cost) or lam > 1e10:
                return p
        converged = negligible(promised, cost)
        p, res, cost = trial, trial_res, trial_cost
        lam = max(lam * 0.1, 1e-15)
        if converged:
            break
    return p


def oracle_in_front(views, pts, rig):
    front = (np.einsum("nij,...j->...ni", views.a, pts) + views.b)[..., 2] > 0.0
    kinds = [rig.cameras[o.camera_id].kind for o in views.observations]
    fisheye = np.array([kind is CameraKind.KANNALA_BRANDT4 for kind in kinds])
    return front | fisheye


def oracle_stop(raw_counts, n):
    """Hypotheses a point of n views draws, given the raw inlier count of
    each drawn pair's hypothesis in order (0 if it is no candidate): the
    first k with (1 - eps_k^2)^k <= eta, eps_k the best of the first k
    counts over n, or all of them."""
    best = 0
    for k, count in enumerate(raw_counts, start=1):
        best = max(best, int(count))
        if (1.0 - (best / n) * (best / n)) ** k <= _ETA:
            return k
    return len(raw_counts)


def oracle_ransac(observations, poses, rig, config, stopping=True):
    if len(observations) < 2:
        raise InsufficientObservationsError(
            f"triangulation needs at least 2 observations, got {len(observations)}"
        )
    views = ViewSet.build(observations, poses, rig)
    pairs = _sample_pairs(len(observations), config.max_iters, _SEED)
    centers, rays, failures = views.centers_and_rays()
    if failures:
        raise failures[0]
    i, j = pairs[:, 0], pairs[:, 1]
    min_sin = np.sin(np.deg2rad(_MIN_PAIR_ANGLE_DEG))
    usable = (np.linalg.norm(centers[j] - centers[i], axis=1) >= 1e-12) & (
        np.linalg.norm(np.cross(rays[i], rays[j]), axis=1) >= min_sin
    )
    if not usable.any():
        raise DegenerateGeometryError(
            "all observation pairs are near-parallel or have zero baseline"
        )
    points, defined = _midpoints(centers, rays, pairs)
    hypotheses = np.flatnonzero(usable & defined)
    pts = points[hypotheses]
    visible = np.take_along_axis(
        oracle_in_front(views, pts, rig), pairs[hypotheses], axis=1
    ).all(axis=1)
    errors = views.errors(pts)
    inliers = errors <= _THRESHOLD_PX
    counts = inliers.sum(axis=1)
    means = np.where(inliers, errors, 0.0).sum(axis=1) / np.maximum(counts, 1)
    candidate = visible & (counts >= 2)
    raw = np.zeros(len(pairs), dtype=int)
    raw[hypotheses[candidate]] = counts[candidate]
    drawn = oracle_stop(raw, len(observations)) if stopping else len(pairs)
    best_point, best_inliers, best_score = None, None, (-1, -np.inf)
    for k in np.flatnonzero(candidate & (hypotheses < drawn)):
        score = (int(counts[k]), -float(means[k]))
        if score <= best_score:
            continue
        point, inl = pts[k], inliers[k]
        refined = oracle_refine(views.take(np.flatnonzero(inl)), point)
        refined_errors = views.errors(refined)
        new_inliers = refined_errors <= _THRESHOLD_PX
        if new_inliers.sum() >= 2:
            point, inl = refined, new_inliers
            score = (int(new_inliers.sum()), -float(refined_errors[new_inliers].mean()))
        if score > best_score:
            best_point, best_inliers, best_score = point, inl, score
    if best_point is None:
        raise NoConsensusError("no triangulation hypothesis had 2 or more inliers")
    return best_point, tuple(int(k) for k in np.flatnonzero(best_inliers)), drawn


def oracle_triangulate(observations, poses, rig, config, stopping=True):
    """(position, covariance, inlier indices, mean error) of one point, or
    the exception the per-point path raised; without `stopping`, LO-RANSAC
    scores every drawn pair."""
    try:
        point, idx, _ = oracle_ransac(observations, poses, rig, config, stopping)
        views = ViewSet.build([observations[k] for k in idx], poses, rig)
        point = oracle_refine(views, point)
        behind = np.flatnonzero(~oracle_in_front(views, point, rig))
        if behind.size:
            obs = views.observations[behind[0]]
            raise BehindCameraError(
                f"refined point is behind camera '{obs.camera_id}'"
                f" at image {obs.image_id}"
            )
        mean_err = float(np.mean(views.errors(point)))
        jac = view_jacobians(views, point)
        h = np.einsum("nji,njk,nkl->il", jac, views.weights, jac)
        try:
            cov = np.linalg.inv(h)
        except np.linalg.LinAlgError:
            raise DegenerateGeometryError(
                "triangulation Hessian is singular; observation geometry is degenerate"
            ) from None
        if np.linalg.cond(h) > 1e14:
            raise DegenerateGeometryError("triangulation Hessian is numerically singular")
        return point, 0.5 * (cov + cov.T), idx, mean_err
    except VigtError as exc:
        return exc


SCENE_POSES = 12


@st.composite
def point_batches(draw, rig=MIXED_RIG):
    """Several points near the origin, each seen by 1-40 views of the mixed
    camera models of `rig` from a shared set of images, with outlier
    pixels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    poses = {}
    for k in range(SCENE_POSES):
        offset = rng.normal(size=3)
        center = rng.uniform(3.0, 9.0) * offset / np.linalg.norm(offset)
        poses[k] = look_at(center, rng.normal(scale=0.3, size=3))
    outlier_rate = draw(st.sampled_from([0.0, 0.1, 0.3]))
    detections = {}
    for p in range(draw(st.integers(1, 6))):
        target = rng.normal(scale=0.5, size=3)
        n = draw(st.integers(1, 40))
        obs = []
        for _ in range(n):
            image = int(rng.integers(SCENE_POSES))
            cid = sorted(rig.cameras)[rng.integers(len(rig.cameras))]
            a, b = frame_map(poses[image], rig.camera_from_device[cid])
            uv, valid = try_project(rig.cameras[cid], a @ target + b)
            if not valid or rng.uniform() < outlier_rate:
                uv = rng.normal([320.0, 240.0], 150.0)
            sigma = rng.uniform(0.3, 2.0)
            pixel = uv + rng.normal(scale=0.5, size=2)
            obs.append(Observation(image, cid, pixel, np.eye(2) * sigma**2))
        detections[f"p{p}"] = obs
    max_iters = draw(st.sampled_from([20, 500]))
    return detections, poses, TriangulationConfig(max_iters=max_iters)


class TestLockstep:
    @settings(max_examples=80, deadline=None)
    @given(point_batches())
    def test_batch_matches_per_point_oracle(self, scene):
        detections, poses, config = scene
        results, failures = triangulate_all(detections, poses, MIXED_RIG, config)
        for cp_id, obs in detections.items():
            expected = oracle_triangulate(obs, poses, MIXED_RIG, config)
            if isinstance(expected, VigtError):
                assert failures[cp_id] == f"{type(expected).__name__}: {expected}"
                continue
            point, cov, idx, mean_err = expected
            tri = results[cp_id]
            assert tri.inliers == tuple(obs[k] for k in idx)
            np.testing.assert_array_equal(tri.position, point)
            np.testing.assert_allclose(tri.covariance, cov, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(tri.mean_reproj_error_px, mean_err, rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(point_batches())
    def test_point_alone_or_in_batch_is_identical(self, scene):
        detections, poses, config = scene
        results, failures = triangulate_all(detections, poses, MIXED_RIG, config)
        for cp_id, obs in detections.items():
            alone, alone_failures = triangulate_all({cp_id: obs}, poses, MIXED_RIG, config)
            if cp_id in failures:
                assert alone_failures == {cp_id: failures[cp_id]}
                continue
            tri, ref = results[cp_id], alone[cp_id]
            np.testing.assert_array_equal(tri.position, ref.position)
            np.testing.assert_array_equal(tri.covariance, ref.covariance)
            assert tri.mean_reproj_error_px == ref.mean_reproj_error_px
            assert tri.inliers == ref.inliers

    @settings(max_examples=40, deadline=None)
    @given(point_batches())
    def test_stops_match_per_point_oracle(self, scene):
        detections, poses, config = scene
        batch = {cp_id: obs for cp_id, obs in detections.items() if len(obs) >= 2}
        if not batch:
            return
        numbers = np.repeat(np.arange(len(batch)), [len(obs) for obs in batch.values()])
        views = ViewSet.build(sum(batch.values(), []), poses, MIXED_RIG, numbers)
        *_, drawn = _lo_ransac(views, config)
        for k, obs in enumerate(batch.values()):
            try:
                _, _, expected = oracle_ransac(obs, poses, MIXED_RIG, config)
            except VigtError:
                continue
            assert drawn[k] == expected

    def test_failures_stay_with_their_point(self):
        rng = np.random.default_rng(11)
        poses = {}
        for k in range(8):
            offset = rng.normal(size=3)
            center = rng.uniform(4.0, 8.0) * offset / np.linalg.norm(offset)
            poses[k] = look_at(center, np.zeros(3))
        poses[8] = poses[9] = look_at(np.array([0.0, -6.0, 0.5]), np.zeros(3))

        def seen(target, images, cid="pinhole", cov=np.eye(2)):
            obs = []
            for k in images:
                a, b = frame_map(poses[k], MIXED_RIG.camera_from_device[cid])
                uv = try_project(MODELS[cid], a @ target + b)[0]
                obs.append(Observation(k, cid, uv, cov))
            return obs

        good = {f"good{k}": seen(rng.normal(scale=0.4, size=3), range(k, k + 5)) for k in range(3)}
        far_off = seen(np.zeros(3), [0, 1])
        far_off[1] = Observation(1, "pinhole", far_off[1].pixel + np.array([0.0, 150.0]))
        detections = {
            "good0": good["good0"],
            "one view": seen(np.zeros(3), [0]),
            "no pose": seen(np.zeros(3), [0, 1]) + [Observation(42, "pinhole", [320.0, 240.0])],
            "good1": good["good1"],
            "parallel": seen(np.zeros(3), [8, 9]),
            "no consensus": far_off,
            "unprojection": seen(np.zeros(3), [2, 3])
            + [Observation(4, "radtan", [5000.0, 4000.0])],
            "fisheye unprojection": [Observation(5, "fisheye", [1e5, 1e5])]
            + seen(np.zeros(3), [6, 7]),
            # each view constrains its u axis only: a rank-2 Hessian
            "singular": seen(np.zeros(3), [4, 5], cov=np.diag([1.0, 1e20])),
            "good2": good["good2"],
        }
        expected = {
            "one view": "InsufficientObservationsError: triangulation needs at least 2"
            " observations, got 1",
            "no pose": "VigtError: no pose for image id 42",
            "parallel": "DegenerateGeometryError: all observation pairs are near-parallel"
            " or have zero baseline",
            "no consensus": "NoConsensusError: no triangulation hypothesis had 2 or more"
            " inliers",
            "unprojection": "UnprojectionError: radial-tangential inversion did not"
            " converge within 20 iterations (step 1.33e+01)",
            "fisheye unprojection": "UnprojectionError: fisheye angle inversion did not"
            " converge within 20 iterations (residual 7.25e+11)",
            "singular": "DegenerateGeometryError: triangulation Hessian is numerically"
            " singular",
        }
        config = TriangulationConfig()
        results, failures = triangulate_all(detections, poses, MIXED_RIG, config)
        assert failures == expected
        assert list(results) == ["good0", "good1", "good2"]
        for cp_id, obs in good.items():
            alone, _ = triangulate_all({cp_id: obs}, poses, MIXED_RIG, config)
            np.testing.assert_array_equal(results[cp_id].position, alone[cp_id].position)
            np.testing.assert_array_equal(results[cp_id].covariance, alone[cp_id].covariance)
        for cp_id, message in expected.items():
            exc = oracle_triangulate(detections[cp_id], poses, MIXED_RIG, config)
            assert f"{type(exc).__name__}: {exc}" == message

    def test_refinement_failures_stay_with_their_point(self):
        # camera 0 sits at the origin looking along +z and sees its
        # principal point; a point on its axis behind it has zero residual
        # there, so refinement keeps it behind the camera
        rig = single_camera_rig()
        behind = np.array([0.0, 0.0, -5.0])
        poses = {0: RigidPose.identity(), 1: look_at([5.0, 0.0, -5.0], behind)}
        rng = np.random.default_rng(12)
        good = np.array([0.3, -0.2, 4.0])
        for k in range(2, 7):
            poses[k] = look_at(good + rng.normal(scale=3.0, size=3), good)
        points = {
            "good": (good, [observe(good, poses[k], rig, k) for k in range(2, 7)]),
            "behind": (
                behind,
                [Observation(0, "cam", [0.0, 0.0]), observe(behind, poses[1], rig, 1)],
            ),
            "singular": (good, [
                Observation(o.image_id, "cam", o.pixel, np.diag([1.0, 1e20]))
                for o in [observe(good, poses[k], rig, k) for k in (2, 3)]
            ]),
        }
        points["unweighted"] = (good, points["good"][1][:3])
        observations = [o for _, obs in points.values() for o in obs]
        numbers = np.repeat(np.arange(4), [len(obs) for _, obs in points.values()])
        views = ViewSet.build(observations, poses, rig, numbers)
        # a zero Hessian, which np.linalg.inv rejects
        views.weights[numbers == 3] = 0.0
        init = np.stack([p for p, _ in points.values()])
        positions, errors, covariances, failures = _refine_points(views, init)
        assert {k: f"{type(e).__name__}: {e}" for k, e in failures.items()} == {
            1: "BehindCameraError: refined point is behind camera 'cam' at image 0",
            2: "DegenerateGeometryError: triangulation Hessian is numerically singular",
            3: "DegenerateGeometryError: triangulation Hessian is singular; observation"
            " geometry is degenerate",
        }
        position, mean_error, covariance, failure = refine_alone(
            good, points["good"][1], poses, rig
        )
        assert failure is None
        np.testing.assert_array_equal(positions[0], position)
        np.testing.assert_array_equal(covariances[0], covariance)
        assert errors[0] == mean_error
        *_, failure = refine_alone(behind, points["behind"][1], poses, rig)
        assert isinstance(failure, BehindCameraError)


PINHOLE_RIG = RigCalibration(
    cameras={"pinhole": MODELS["pinhole"]},
    camera_from_device={"pinhole": RigidPose.identity()},
)


def ring_views(rng, poses, target, n, first_image):
    """n detections of `target` with 0.5 px noise, by pinhole cameras 4-10 m
    away on its +z side that look near it, at new images from `first_image`
    on (added to `poses`)."""
    cam = MODELS["pinhole"]
    obs = []
    for k in range(first_image, first_image + n):
        offset = np.append(rng.normal(scale=0.6, size=2), 1.0)
        center = target + rng.uniform(4.0, 10.0) * offset / np.linalg.norm(offset)
        poses[k] = look_at(center, target + rng.normal(scale=0.3, size=3))
        uv = try_project(cam, poses[k].inverse().apply(target))[0]
        uv = uv + rng.normal(scale=0.5, size=2)
        obs.append(Observation(k, "pinhole", uv, np.eye(2) * 0.25))
    return obs


def corrupt(obs, fraction, rng):
    """The detections with round(fraction * n) of them, chosen at random,
    moved to uniform random pixels of the image (gross outliers), and the
    indices of those."""
    cam = MODELS["pinhole"]
    bad = rng.choice(len(obs), size=round(fraction * len(obs)), replace=False)
    out = list(obs)
    for k in bad:
        pixel = rng.uniform((0.0, 0.0), (cam.width, cam.height))
        out[k] = Observation(obs[k].image_id, obs[k].camera_id, pixel, obs[k].pixel_cov)
    return out, {int(k) for k in bad}


def rule_k(eps):
    """The hypotheses the stopping rule asks for at raw inlier fraction eps."""
    return int(np.ceil(np.log(_ETA) / np.log(1.0 - eps * eps)))


class TestStopping:
    def test_clean_point_stops_far_below_the_cap(self, monkeypatch):
        rng = np.random.default_rng(21)
        poses = {}
        obs = ring_views(rng, poses, np.zeros(3), 40, 0)
        views = ViewSet.build(obs, poses, PINHOLE_RIG)
        # from the first drawn pair whose midpoint has 90 % or more of the
        # views as inliers on, the rule asks for at most rule_k(0.9) = 3
        # hypotheses
        centers, rays, _ = views.centers_and_rays()
        pairs = _sample_pairs(40, 500, _SEED)
        fractions = (views.errors(_midpoints(centers, rays, pairs)[0]) <= _THRESHOLD_PX).mean(1)
        first = int(np.argmax(fractions >= 0.9)) + 1
        assert first == 1 and rule_k(0.9) == 3

        scored = []
        score_pairs = triangulation._score_pairs

        def recorded(views, centers, rays, pairs, owner):
            scored.append(len(pairs))
            return score_pairs(views, centers, rays, pairs, owner)

        monkeypatch.setattr(triangulation, "_score_pairs", recorded)
        _, inliers, failures, drawn = _lo_ransac(views, TriangulationConfig())
        assert not failures and inliers.all()
        assert drawn[0] <= max(first, rule_k(0.9))
        # one pass of _FIRST_PASS hypotheses, where all 500 were scored before
        assert scored == [_FIRST_PASS]

    def test_stop_and_result_alone_equal_in_batch(self):
        # the point between a 90-view point, whose 4005 pairs are capped at
        # 500, and a point with 60 % outliers, which needs more passes
        rng = np.random.default_rng(22)
        poses = {}
        many = ring_views(rng, poses, rng.normal(size=3), 90, 0)
        point, _ = corrupt(ring_views(rng, poses, rng.normal(size=3), 20, 100), 0.1, rng)
        heavy, _ = corrupt(ring_views(rng, poses, rng.normal(size=3), 40, 200), 0.6, rng)
        config = TriangulationConfig()
        batch = ViewSet.build(
            many + point + heavy, poses, PINHOLE_RIG, np.repeat(np.arange(3), [90, 20, 40])
        )
        points, inliers, failures, drawn = _lo_ransac(batch, config)
        alone, alone_inliers, alone_failures, alone_drawn = _lo_ransac(
            ViewSet.build(point, poses, PINHOLE_RIG), config
        )
        assert not failures and not alone_failures
        assert drawn[1] == alone_drawn[0]
        np.testing.assert_array_equal(points[1], alone[0])
        np.testing.assert_array_equal(inliers[90:110], alone_inliers)
        # the point left the passes before its outlier-heavy neighbour
        assert drawn[1] <= _FIRST_PASS < 3 * _FIRST_PASS < drawn[2]


class TestOutlierRobustness:
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5])
    def test_stopping_matches_scoring_every_pair(self, fraction):
        # 6 seeds of 4 points with 40 views each, a fraction of them gross
        # outliers, against the oracle that scores all 500 drawn pairs:
        # the same failures, no outlier it drops kept, the recall of true
        # inliers within 2 points of its and the median 3D error within
        # 0.5 mm of its
        config = TriangulationConfig()
        recall, full_recall, error, full_error = [], [], [], []
        for seed in range(6):
            rng = np.random.default_rng(seed)
            poses, detections, truth, outliers = {}, {}, {}, {}
            for k in range(4):
                p = f"p{k}"
                truth[p] = rng.normal(scale=2.0, size=3)
                obs = ring_views(rng, poses, truth[p], 40, 100 * k)
                detections[p], outliers[p] = corrupt(obs, fraction, rng)
            results, failures = triangulate_all(detections, poses, PINHOLE_RIG, config)
            for p, obs in detections.items():
                full = oracle_triangulate(obs, poses, PINHOLE_RIG, config, stopping=False)
                if isinstance(full, VigtError):
                    assert failures[p] == f"{type(full).__name__}: {full}"
                    continue
                assert p not in failures
                point, _, idx, _ = full
                kept = {k for k, o in enumerate(obs) if any(o is i for i in results[p].inliers)}
                assert kept & outliers[p] <= set(idx) & outliers[p]
                true_inliers = set(range(len(obs))) - outliers[p]
                recall.append(len(kept & true_inliers) / len(true_inliers))
                full_recall.append(len(set(idx) & true_inliers) / len(true_inliers))
                error.append(np.linalg.norm(results[p].position - truth[p]))
                full_error.append(np.linalg.norm(point - truth[p]))
        assert len(recall) == 24
        assert np.mean(recall) >= np.mean(full_recall) - 0.02
        assert abs(np.median(error) - np.median(full_error)) <= 0.5e-3


# a second fisheye with its own calibration, beside one camera of each kind
TWIN_RIG = RigCalibration(
    cameras={
        **MODELS,
        "fisheye2": CameraModel(
            CameraKind.KANNALA_BRANDT4,
            290.0,
            286.0,
            322.0,
            236.5,
            (0.021, -0.004, 0.001, -0.0002),
        ),
    },
    camera_from_device={
        **MIXED_RIG.camera_from_device,
        "fisheye2": RigidPose(Rotation.exp([0.0, 0.02, -0.25]), [0.0, 0.05, 0.03]),
    },
)


class PerCameraViews(ViewSet):
    """The per-camera oracle of a `ViewSet`: every camera call takes the
    rows of one camera through its own `CameraModel` of `TWIN_RIG`, found by
    each observation's camera id, never the per-row intrinsics."""

    def _by_kind(self, rows):
        ids = np.array([o.camera_id for o in self.observations], dtype=object)[rows]
        return [
            (TWIN_RIG.cameras[cid], np.flatnonzero(ids == cid)) for cid in sorted(set(ids))
        ]


def assert_same_failures(got, want):
    assert {k: str(exc) for k, exc in got.items()} == {k: str(exc) for k, exc in want.items()}


class TestTwoCalibrationsOfOneKind:
    @settings(max_examples=30, deadline=None)
    @given(point_batches(TWIN_RIG))
    def test_views_match_per_camera_oracle(self, scene):
        detections, poses, _ = scene
        observations = [o for obs in detections.values() for o in obs]
        numbers = np.repeat(np.arange(len(detections)), [len(o) for o in detections.values()])
        views = ViewSet.build(observations, poses, TWIN_RIG, numbers)
        oracle = PerCameraViews.build(observations, poses, TWIN_RIG, numbers)
        points = np.random.default_rng(len(observations)).normal(size=(views.n_points, 3))
        at = points[views.point]
        (res, jacobians), (oracle_res, oracle_jacobians) = views.evaluate(at), oracle.evaluate(at)
        np.testing.assert_array_equal(res, oracle_res)
        np.testing.assert_array_equal(jacobians()[0], oracle_jacobians()[0])
        np.testing.assert_array_equal(views.errors(points), oracle.errors(points))
        *lines, failures = views.centers_and_rays()
        *oracle_lines, oracle_failures = oracle.centers_and_rays()
        for got, want in zip(lines, oracle_lines):
            np.testing.assert_array_equal(got, want)
        assert_same_failures(failures, oracle_failures)
        np.testing.assert_array_equal(views.refine(points)[0], oracle.refine(points)[0])

    @settings(max_examples=30, deadline=None)
    @given(point_batches(TWIN_RIG))
    def test_triangulation_matches_per_camera_oracle(self, scene):
        detections, poses, config = scene
        results, failures = triangulate_all(detections, poses, TWIN_RIG, config)
        with mock.patch.object(triangulation, "ViewSet", PerCameraViews):
            expected, expected_failures = triangulate_all(detections, poses, TWIN_RIG, config)
        assert failures == expected_failures
        assert list(results) == list(expected)
        for cp_id, tri in results.items():
            np.testing.assert_array_equal(tri.position, expected[cp_id].position)
            np.testing.assert_array_equal(tri.covariance, expected[cp_id].covariance)
            assert tri.mean_reproj_error_px == expected[cp_id].mean_reproj_error_px
            assert tri.inliers == expected[cp_id].inliers


class TestBuild:
    @settings(max_examples=30, deadline=None)
    @given(point_batches())
    def test_camera_maps_match_per_observation_maps(self, scene):
        detections, poses, _ = scene
        observations = [o for obs in detections.values() for o in obs]
        views = ViewSet.build(observations, poses, MIXED_RIG)
        for k, obs in enumerate(observations):
            extrinsics = MIXED_RIG.camera_from_device[obs.camera_id]
            a, b = frame_map(poses[obs.image_id], extrinsics)
            np.testing.assert_array_equal(views.a[k], a)
            np.testing.assert_array_equal(views.b[k], b)
