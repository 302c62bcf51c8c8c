"""Tests for closed-form and joint covariance-weighted sparse alignment."""

import numpy as np
import pytest

from vigt import alignment
from vigt.alignment import (
    ControlPoint,
    cp_alignment_errors,
    initialize_alignment,
    joint_sparse_align,
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
    try_project,
)
from vigt.solver import HuberLoss, Problem, solve
from vigt.triangulation import (
    Observation,
    TriangulatedCP,
    ViewSet,
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
            uv = try_project(CAM, p_cam)[0]
            if not (0.0 <= uv[0] <= CAM.width - 1 and 0.0 <= uv[1] <= CAM.height - 1):
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
    def triangulate(self, detections, poses):
        tris, failures = triangulate_all(detections, poses, RIG)
        assert not failures, failures
        return tris

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(3)
        poses, detections, cps, g, local_pts = make_scene(rng)
        tris = self.triangulate(detections, poses)
        result = joint_sparse_align(tris, poses, RIG, cps)
        for mode in ("2d", "3d"):
            errors = cp_alignment_errors(result.transform, tris, cps, mode)
            assert len(errors) == len(cps)
            assert max(errors.values()) < 1e-6
        assert transform_distance(result.transform, g, local_pts) < 1e-6
        assert not result.init_fallback_4dof

    def test_fixed_point_at_exact_solution(self):
        rng = np.random.default_rng(4)
        poses, detections, cps, _, _ = make_scene(rng)
        tris = self.triangulate(detections, poses)
        # on noiseless data the closed-form init is already the optimum
        result = joint_sparse_align(tris, poses, RIG, cps)
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
        errors = cp_alignment_errors(result.transform, tris, cps, "3d")
        assert set(errors) == {cp.cp_id for cp in cps if cp.dim == 3}

    def test_2d_error_never_exceeds_3d(self):
        rng = np.random.default_rng(7)
        poses, detections, cps, _, _ = make_scene(rng, noise_px=2.0)
        tris = self.triangulate(detections, poses)
        result = joint_sparse_align(tris, poses, RIG, cps)
        errors_2d = cp_alignment_errors(result.transform, tris, cps, "2d")
        errors_3d = cp_alignment_errors(result.transform, tris, cps, "3d")
        assert errors_3d
        for cid, error_3d in errors_3d.items():
            assert errors_2d[cid] <= error_3d + 1e-12

    def test_gauge_consistency_under_sim3_prechange(self):
        rng = np.random.default_rng(8)
        poses, detections, cps, _, _ = make_scene(rng, noise_px=0.05)
        tris = self.triangulate(detections, poses)
        base = joint_sparse_align(tris, poses, RIG, cps)

        g = random_similarity(rng, scale_spread=0.3)
        sr = g.scale * g.rotation.matrix()
        moved_poses = {
            ts: Similarity(g.scale, g.rotation @ p.rotation, g.apply(p.translation))
            for ts, p in poses.items()
        }
        moved_tris = {
            cid: TriangulatedCP(
                t.cp_id,
                g.apply(t.position),
                sr @ t.covariance @ sr.T,
                t.inliers,
                t.mean_reproj_error_px,
            )
            for cid, t in tris.items()
        }
        moved = joint_sparse_align(moved_tris, moved_poses, RIG, cps)

        expected = base.transform @ g.inverse()
        pts = [g.apply(t.position) for t in tris.values()]
        assert transform_distance(moved.transform, expected, pts) < 1e-9
        errors_0 = cp_alignment_errors(base.transform, tris, cps, "2d")
        errors_1 = cp_alignment_errors(moved.transform, moved_tris, cps, "2d")
        assert errors_1.keys() == errors_0.keys()
        for cid, error in errors_0.items():
            assert abs(errors_1[cid] - error) < 1e-9

    @staticmethod
    def per_cp_problem(tris, poses, cps, init) -> Problem:
        """The alignment problem with one reprojection block per CP."""
        by_id = {cp.cp_id: cp for cp in cps}
        problem = Problem()
        problem.add_parameter_block("T", init)
        for cid, tri in tris.items():
            problem.add_parameter_block(f"proxy:{cid}", tri.position.copy())
            views = ViewSet.build(tri.inliers, poses, RIG)
            problem.add_stacked_block(
                views.evaluate,
                [[f"proxy:{cid}"] * len(tri.inliers)],
                np.stack([o.pixel_cov for o in tri.inliers]),
                group="marker-reprojection",
                loss=HuberLoss(),
                rid=f"reproj:{cid}",
            )
        for dim in (3, 2):
            same = [cid for cid in tris if by_id[cid].dim == dim]
            if same:
                problem.add_stacked_block(
                    alignment._world_factor(np.stack([by_id[cid].position for cid in same]), dim),
                    [["T"] * len(same), [f"proxy:{cid}" for cid in same]],
                    np.stack([by_id[cid].covariance for cid in same]),
                    group="cp-world",
                    rid=f"world:{dim}d",
                )
        return problem

    @pytest.mark.parametrize("n_cp, n_3d", [(3, 3), (6, 2), (10, 4)])
    def test_one_reprojection_block_matches_one_per_cp(self, monkeypatch, n_cp, n_3d):
        rng = np.random.default_rng(12)
        poses, detections, cps, _, local_pts = make_scene(rng, n_cp=n_cp, n_3d=n_3d, noise_px=1.0)
        tris = self.triangulate(detections, poses)
        problems = []

        def recorded(problem, *args):
            problems.append(problem)
            return solve(problem, *args)

        monkeypatch.setattr(alignment, "solve", recorded)
        result = joint_sparse_align(tris, poses, RIG, cps)
        (problem,) = problems
        blocks = [r for r in problem.residuals.values() if r.group == "marker-reprojection"]
        assert [r.id for r in blocks] == ["marker-reprojection"]
        assert blocks[0].rows == sum(len(t.inliers) for t in tris.values())

        init, _ = initialize_alignment(tris, cps)
        reference = self.per_cp_problem(tris, poses, cps, init)
        report = solve(reference)
        assert result.report.iterations == report.iterations
        assert transform_distance(result.transform, reference.value("T"), local_pts) < 1e-9
        for cid, proxy in result.proxies.items():
            np.testing.assert_allclose(proxy, reference.value(f"proxy:{cid}"), atol=1e-9, rtol=0)

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


    def test_collinear_3d_points_fall_back_to_4dof(self):
        yaw_only = Similarity(
            1.2, Rotation.exp([0.0, 0.0, 0.6]), np.array([3.0, -1.0, 0.5])
        )
        local = np.array([[0.0, 0.0, 1.0], [2.0, 1.0, 1.5], [4.0, 2.0, 2.0]])
        obs = (Observation(0, "cam", np.zeros(2)), Observation(1, "cam", np.zeros(2)))
        tris = {
            f"c{i}": TriangulatedCP(f"c{i}", p, np.eye(3) * 1e-4, obs, 0.0)
            for i, p in enumerate(local)
        }
        cps = [
            ControlPoint(f"c{i}", yaw_only.apply(p), 3, np.eye(3) * 1e-4)
            for i, p in enumerate(local)
        ]
        init, fallback = initialize_alignment(tris, cps)
        assert fallback
        np.testing.assert_allclose(init.apply(local), yaw_only.apply(local), atol=1e-12)


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
