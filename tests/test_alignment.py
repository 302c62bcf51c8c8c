"""Tests for closed-form and joint covariance-weighted sparse alignment."""

import numpy as np
import pytest

from vigt.alignment import (
    ControlPoint,
    cp_alignment_errors,
    initialize_alignment,
    joint_sparse_align,
    propagate_covariance,
    umeyama_init,
)
from vigt.errors import DegenerateConfigurationError
from vigt.geometry import (
    CameraKind,
    CameraModel,
    RigCalibration,
    RigidPose,
    Rotation,
    Similarity,
    project,
)
from vigt.triangulation import (
    Observation,
    TriangulatedCP,
    TriangulationConfig,
    triangulate_all,
)

CAM = CameraModel(
    CameraKind.PINHOLE, 400.0, 400.0, 500.0, 500.0, width=1000, height=1000
)
RIG = RigCalibration(
    cameras={"cam": CAM}, camera_from_device={"cam": RigidPose.identity()}
)


def random_similarity(rng, scale_spread=0.4) -> Similarity:
    return Similarity(
        float(np.exp(rng.normal(scale=scale_spread))),
        Rotation.exp(rng.normal(size=3)),
        rng.normal(scale=5.0, size=3),
    )


def look_at(center, target):
    z = np.asarray(target, dtype=float) - center
    z = z / np.linalg.norm(z)
    x = np.cross(z, (0.0, 0.0, 1.0))
    if np.linalg.norm(x) < 1e-9:
        x = np.cross(z, (0.0, 1.0, 0.0))
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return RigidPose(Rotation.from_matrix(np.stack([x, y, z], axis=1)), center)


def make_scene(rng, n_cp=8, n_poses=14, noise_px=0.0, n_3d=None, world_from_local=None):
    """Local-frame scene + world control points relatable by a known G."""
    if world_from_local is None:
        world_from_local = Similarity(
            1.3, Rotation.exp([0.0, 0.0, 0.8]), np.array([6.0, -3.0, 1.0])
        )
    if n_3d is None:
        n_3d = n_cp
    local_pts = rng.uniform([-4.0, -4.0, 0.0], [4.0, 4.0, 3.0], size=(n_cp, 3))
    centers = [
        np.array([10.0 * np.cos(a), 10.0 * np.sin(a), 1.5])
        for a in np.linspace(0.0, 2 * np.pi, n_poses, endpoint=False)
    ]
    poses = {
        int(1_000_000 * i): look_at(c, [0.0, 0.0, 1.0]) for i, c in enumerate(centers)
    }

    detections = {}
    for k, p_local in enumerate(local_pts):
        obs = []
        for ts, pose in poses.items():
            p_cam = pose.inverse().apply(p_local)
            if p_cam[2] <= 0.2:
                continue
            uv = project(CAM, p_cam)
            if not CAM.contains(uv)[0]:
                continue
            if noise_px > 0.0:
                uv = uv + rng.normal(scale=noise_px, size=2)
            obs.append(Observation(ts, "cam", uv))
        detections[f"cp{k}"] = obs

    cps = []
    for k, p_local in enumerate(local_pts):
        p_world = world_from_local.apply(p_local)
        if k < n_3d:
            cps.append(
                ControlPoint(f"cp{k}", p_world, 3, np.diag([1.5e-2, 1.5e-2, 3e-2]) ** 2)
            )
        else:
            cps.append(
                ControlPoint(f"cp{k}", p_world[:2], 2, np.eye(2) * 1.5e-2**2)
            )
    return poses, detections, cps, world_from_local, local_pts


def transform_distance(t1, t2, points):
    return max(np.linalg.norm(t1.apply(p) - t2.apply(p)) for p in points)


class TestUmeyama:
    def test_identity_on_equal_clouds(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(6, 3))
        t = umeyama_init([(p, p) for p in pts])
        assert t.scale == pytest.approx(1.0, abs=1e-12)
        assert t.rotation.angle_to(Rotation.identity()) < 1e-12
        np.testing.assert_allclose(t.translation, 0.0, atol=1e-12)

    def test_random_roundtrip_recovery(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_similarity(rng)
            pts = rng.normal(scale=3.0, size=(10, 3))
            est = umeyama_init([(p, g.apply(p)) for p in pts])
            assert abs(est.scale - g.scale) < 1e-9
            assert est.rotation.angle_to(g.rotation) < 1e-9
            np.testing.assert_allclose(est.translation, g.translation, atol=1e-9)

    def test_collinear_points_degenerate(self):
        pts = [np.array([0.0, 0.0, float(i)]) for i in range(3)]
        with pytest.raises(DegenerateConfigurationError):
            umeyama_init([(p, p) for p in pts])

    def test_too_few_pairs(self):
        with pytest.raises(DegenerateConfigurationError):
            umeyama_init([(np.zeros(3), np.zeros(3))] * 2)

    def test_reflection_never_returned(self):
        # mirrored target cloud must still produce a proper rotation
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(5, 3))
        mirrored = pts * np.array([1.0, 1.0, -1.0])
        t = umeyama_init(list(zip(pts, mirrored)))
        assert np.linalg.det(t.rotation.matrix()) == pytest.approx(1.0, abs=1e-9)


class TestJointAlign:
    def triangulate(self, detections, poses, seed=42):
        tris, failures = triangulate_all(
            detections, poses, RIG, TriangulationConfig(seed=seed)
        )
        assert not failures, failures
        return tris

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(3)
        poses, detections, cps, g, local_pts = make_scene(rng)
        tris = self.triangulate(detections, poses)
        result = joint_sparse_align(tris, poses, RIG, cps)
        for rec in result.records:
            assert rec.error_2d < 1e-6
            assert rec.error_3d < 1e-6
        assert transform_distance(result.transform, g, local_pts) < 1e-6
        assert not result.init_fallback_4dof

    def test_fixed_point_at_exact_solution(self):
        rng = np.random.default_rng(4)
        poses, detections, cps, g, _ = make_scene(rng)
        tris = self.triangulate(detections, poses)
        result = joint_sparse_align(tris, poses, RIG, cps, init=g)
        assert result.report.final_cost <= result.report.initial_cost
        assert result.report.initial_cost - result.report.final_cost < 1e-12

    def test_downweighted_cp_approaches_deletion(self):
        rng = np.random.default_rng(5)
        poses, detections, cps, g, local_pts = make_scene(rng, noise_px=1.0)
        tris = self.triangulate(detections, poses)

        baseline = joint_sparse_align(tris, poses, RIG, cps)

        victim = "cp0"
        inflated = dict(tris)
        tri = tris[victim]
        fat_obs = tuple(
            Observation(o.image_id, o.camera_id, o.pixel, o.pixel_cov * 100.0)
            for o in tri.inliers
        )
        inflated[victim] = TriangulatedCP(
            tri.cp_id, tri.position, tri.covariance * 100.0, fat_obs,
            tri.mean_reproj_error_px,
        )
        t_inflated = joint_sparse_align(inflated, poses, RIG, cps).transform

        deleted = {cid: t for cid, t in tris.items() if cid != victim}
        t_deleted = joint_sparse_align(
            deleted, poses, RIG, [cp for cp in cps if cp.cp_id != victim]
        ).transform

        d_inflated = transform_distance(t_inflated, t_deleted, local_pts)
        d_baseline = transform_distance(baseline.transform, t_deleted, local_pts)
        assert d_inflated < d_baseline

    def test_mixed_2d_3d_constraints(self):
        rng = np.random.default_rng(6)
        poses, detections, cps, g, local_pts = make_scene(rng, n_cp=10, n_3d=4)
        tris = self.triangulate(detections, poses)
        result = joint_sparse_align(tris, poses, RIG, cps)
        assert transform_distance(result.transform, g, local_pts) < 1e-6
        for rec in result.records:
            if rec.dim == 2:
                assert np.isnan(rec.error_3d)

    def test_2d_error_never_exceeds_3d(self):
        rng = np.random.default_rng(7)
        poses, detections, cps, _, _ = make_scene(rng, noise_px=2.0)
        tris = self.triangulate(detections, poses)
        result = joint_sparse_align(tris, poses, RIG, cps)
        for rec in result.records:
            if rec.dim == 3:
                assert rec.error_2d <= rec.error_3d + 1e-12

    def test_gauge_consistency_under_sim3_prechange(self):
        rng = np.random.default_rng(8)
        poses, detections, cps, _, _ = make_scene(rng, noise_px=0.05)
        tris = self.triangulate(detections, poses)
        base = joint_sparse_align(tris, poses, RIG, cps)

        g = random_similarity(rng, scale_spread=0.3)
        moved_poses = {
            ts: Similarity(g.scale, g.rotation @ p.rotation, g.apply(p.translation))
            for ts, p in poses.items()
        }
        moved_tris = {
            cid: TriangulatedCP(
                t.cp_id,
                g.apply(t.position),
                propagate_covariance(t.covariance, g),
                t.inliers,
                t.mean_reproj_error_px,
            )
            for cid, t in tris.items()
        }
        moved = joint_sparse_align(moved_tris, moved_poses, RIG, cps)

        expected = base.transform @ g.inverse()
        pts = [g.apply(t.position) for t in tris.values()]
        assert transform_distance(moved.transform, expected, pts) < 1e-9
        for r0, r1 in zip(base.records, moved.records):
            assert abs(r0.error_2d - r1.error_2d) < 1e-9

    def test_too_few_constraints_degenerate(self):
        rng = np.random.default_rng(9)
        poses, detections, cps, _, _ = make_scene(rng, n_cp=2)
        tris = self.triangulate(detections, poses)
        with pytest.raises(DegenerateConfigurationError):
            joint_sparse_align(tris, poses, RIG, cps)


class TestInitialization:
    def test_4dof_fallback_flagged(self):
        rng = np.random.default_rng(10)
        yaw_only = Similarity(
            1.2, Rotation.exp([0.0, 0.0, 0.6]), np.array([3.0, -1.0, 0.5])
        )
        poses, detections, cps, g, local_pts = make_scene(
            rng, n_cp=8, n_3d=2, world_from_local=yaw_only
        )
        tris, failures = triangulate_all(detections, poses, RIG)
        assert not failures
        init, fallback = initialize_alignment(tris, cps)
        assert fallback
        assert transform_distance(init, g, local_pts) < 1e-6

        result = joint_sparse_align(tris, poses, RIG, cps)
        assert result.init_fallback_4dof


class TestErrors:
    def make_tri(self, cid, pos):
        obs = (
            Observation(0, "cam", np.zeros(2)),
            Observation(1, "cam", np.zeros(2)),
        )
        return TriangulatedCP(cid, np.asarray(pos, dtype=float), np.eye(3) * 1e-4, obs, 0.0)

    def test_exact_match_zero_error(self):
        cp = ControlPoint("a", np.array([1.0, 2.0, 3.0]), 3, np.eye(3) * 1e-4)
        tris = {"a": self.make_tri("a", [1.0, 2.0, 3.0])}
        errs = cp_alignment_errors(Similarity.identity(), tris, [cp], "2d")
        assert errs["a"] == 0.0

    def test_vertical_offset_invisible_to_2d_cp(self):
        cp = ControlPoint("a", np.array([1.0, 2.0]), 2, np.eye(2) * 1e-4)
        tris = {"a": self.make_tri("a", [1.0, 2.0, 5.0])}
        errs = cp_alignment_errors(Similarity.identity(), tris, [cp], "2d")
        assert errs["a"] == 0.0

    def test_3_4_5_triangle(self):
        cp = ControlPoint("a", np.array([0.0, 0.0, 0.0]), 3, np.eye(3) * 1e-4)
        tris = {"a": self.make_tri("a", [3.0, 4.0, 0.0])}
        errs = cp_alignment_errors(Similarity.identity(), tris, [cp], "2d")
        assert errs["a"] == pytest.approx(5.0)

    def test_missing_triangulation_is_inf(self):
        cp = ControlPoint("a", np.array([0.0, 0.0, 0.0]), 3, np.eye(3) * 1e-4)
        errs = cp_alignment_errors(Similarity.identity(), {}, [cp], "2d")
        assert np.isinf(errs["a"])

    def test_3d_mode_excludes_2d_cps(self):
        cps = [
            ControlPoint("a", np.array([0.0, 0.0, 0.0]), 3, np.eye(3) * 1e-4),
            ControlPoint("b", np.array([0.0, 0.0]), 2, np.eye(2) * 1e-4),
        ]
        tris = {"a": self.make_tri("a", [0, 0, 0]), "b": self.make_tri("b", [0, 0, 0])}
        errs = cp_alignment_errors(Similarity.identity(), tris, cps, "3d")
        assert set(errs) == {"a"}


class TestPropagateCovariance:
    def test_identity(self):
        cov = np.diag([1.0, 2.0, 3.0])
        np.testing.assert_allclose(
            propagate_covariance(cov, Similarity.identity()), cov
        )

    def test_pure_scale_quadruples(self):
        cov = np.diag([1.0, 2.0, 3.0])
        t = Similarity(2.0, Rotation.identity(), np.zeros(3))
        np.testing.assert_allclose(propagate_covariance(cov, t), 4.0 * cov)

    def test_spectrum_preserved_under_rotation(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + np.eye(3)
        t = Similarity(1.7, Rotation.exp(rng.normal(size=3)), rng.normal(size=3))
        out = propagate_covariance(cov, t)
        # independent matrix-product oracle
        m = t.scale * t.rotation.matrix()
        np.testing.assert_allclose(out, m @ cov @ m.T, atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out), t.scale**2 * np.linalg.eigvalsh(cov), rtol=1e-9
        )
