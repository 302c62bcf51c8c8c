"""Tests for robust triangulation and its covariance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vigt.errors import DegenerateGeometryError, InsufficientObservationsError
from vigt.geometry import (
    CameraKind,
    CameraModel,
    RigCalibration,
    RigidPose,
    Rotation,
    Similarity,
    camera_from_frame,
    project,
    try_project,
)
from vigt.triangulation import (
    Observation,
    TriangulationConfig,
    ViewSet,
    _local_optimization,
    _midpoints,
    _sample_pairs,
    refine_triangulation,
    triangulate_cp,
    triangulate_ransac,
    triangulation_covariance,
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
    uv = project(cam, p_cam)
    if noise > 0.0:
        uv = uv + rng.normal(scale=noise, size=2)
    return Observation(image_id, "cam", uv, np.eye(2) * sigma**2)


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
        cfg = TriangulationConfig(max_iters=100, seed=7)
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

    def test_exhaustive_in_lexicographic_order(self):
        for n, max_iters in ((2, 1), (5, 10), (14, 91), (6, 500)):
            expected = [(i, j) for i in range(n) for j in range(i + 1, n)]
            pairs = _sample_pairs(n, max_iters, seed=7)
            assert [tuple(p) for p in pairs.tolist()] == expected


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
        centers, rays = views.centers_and_rays()
        hypothesis = _midpoints(centers, rays, np.array([[0, 1]]))[0][0]
        errors = views.errors(hypothesis)
        assert np.all(errors <= 4.0)
        assert (views.errors(views.refine(hypothesis)) <= 4.0).sum() == 1

        score = (2, -float(errors.mean()))
        kept, inliers, kept_score = _local_optimization(
            views, hypothesis, errors <= 4.0, score, 4.0
        )
        np.testing.assert_array_equal(kept, hypothesis)
        assert inliers.all()
        assert kept_score == score


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
        cp = refine_triangulation(point, obs, poses, rig, cp_id="x")
        np.testing.assert_allclose(cp.position, point, atol=1e-9)
        assert cp.mean_reproj_error_px < 1e-9

    def test_single_inlier_insufficient(self):
        rng = np.random.default_rng(5)
        point = np.array([0.0, 0.0, 4.0])
        rig, poses, obs = self.make_views(rng, point, n=2)
        with pytest.raises(InsufficientObservationsError):
            refine_triangulation(point, obs[:1], poses, rig)

    def test_monte_carlo_error_within_predicted_bound(self):
        # 1-px noise in 10 views: the estimate should stay within 3 predicted
        # sigmas of the truth in ~95 percent of trials (we require 93 percent
        # of 1000 to absorb simulation noise)
        rng = np.random.default_rng(6)
        point = np.array([0.0, 1.0, 3.0])
        rig, poses, _ = self.make_views(rng, point, n=10)
        hits = 0
        trials = 1000
        for _ in range(trials):
            obs = [
                observe(point, poses[i], rig, i, noise=1.0, rng=rng)
                for i in range(10)
            ]
            cp = refine_triangulation(point, obs, poses, rig)
            err = np.linalg.norm(cp.position - point)
            bound = 3.0 * np.sqrt(np.linalg.eigvalsh(cp.covariance).max())
            hits += err <= bound
        assert hits / trials >= 0.93

    def test_refinement_does_not_increase_error(self):
        rng = np.random.default_rng(7)
        point = np.array([0.0, 0.0, 5.0])
        rig, poses, obs = self.make_views(rng, point, n=8, noise=1.5)
        init, inlier_idx = triangulate_ransac(obs, poses, rig)
        inliers = [obs[k] for k in inlier_idx]

        def total_error(p):
            return float(np.sum(ViewSet.build(inliers, poses, rig).errors(p) ** 2))

        cp = refine_triangulation(init, inliers, poses, rig)
        assert total_error(cp.position) <= total_error(init) + 1e-12


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
        cov = triangulation_covariance(point, obs, poses, rig)
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
        c1 = triangulation_covariance(point, obs1, poses, rig)
        c2 = triangulation_covariance(point, obs2, poses, rig)
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
        cov = triangulation_covariance(point, obs, poses, rig)
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

        cp = triangulate_cp("x", obs, poses, rig)

        g = RigidPose(Rotation.exp(rng.normal(size=3)), rng.normal(scale=3.0, size=3))
        moved = {i: g @ p for i, p in poses.items()}
        cp_g = triangulate_cp("x", obs, moved, rig)

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
        cp = triangulate_cp("x", obs, scaled, rig)
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


def view_geometry(obs, poses):
    a, b = camera_from_frame(poses[obs.image_id], MIXED_RIG.camera_from_device[obs.camera_id])
    return MODELS[obs.camera_id], a, b


class TestViewSet:
    @settings(max_examples=60, deadline=None)
    @given(mixed_views())
    def test_batched_matches_per_view(self, scene):
        views, poses, p = scene
        errors, jacs, residuals = views.errors(p), views.jacobians(p), views.residuals(p)
        for k, obs in enumerate(views.observations):
            cam, a, b = view_geometry(obs, poses)
            uv, valid = try_project(cam, a @ p + b)
            expected = np.linalg.norm(uv - obs.pixel) if valid else np.inf
            np.testing.assert_allclose(errors[k], expected, rtol=1e-12)
            np.testing.assert_allclose(np.linalg.norm(residuals[k]), errors[k], rtol=1e-9)
            # each view alone, in a set of one camera model
            np.testing.assert_allclose(views.take([k]).jacobians(p)[0], jacs[k], rtol=1e-12)
        per_view = np.tile(p, (len(views.observations), 1))
        np.testing.assert_array_equal(views.residuals(per_view), residuals)
        np.testing.assert_array_equal(views.jacobians(per_view), jacs)
        stacked = np.stack([p, 2.0 * p, p + 1.0])
        np.testing.assert_allclose(
            views.errors(stacked), np.stack([views.errors(q) for q in stacked]), rtol=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(mixed_views())
    def test_jacobians_match_central_differences(self, scene):
        views, poses, p = scene
        step = 1e-6
        jacs = views.jacobians(p)
        for k, obs in enumerate(views.observations):
            cam, a, b = view_geometry(obs, poses)
            num = np.zeros((2, 3))
            for i in range(3):
                dp = np.zeros(3)
                dp[i] = step
                num[:, i] = (
                    project(cam, a @ (p + dp) + b) - project(cam, a @ (p - dp) + b)
                ) / (2 * step)
            np.testing.assert_allclose(jacs[k], num, rtol=1e-5, atol=1e-4)
