"""Tests for rotations, similarity transforms, and camera models."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation

from vigt.errors import ProjectionError
from vigt.geometry import (
    MIN_DEPTH,
    CameraKind,
    CameraModel,
    RigidPose,
    Rotation,
    Similarity,
    camera_from_frame,
    clamp_depth,
    project,
    projection_jacobian_batch,
    quat_exp,
    quat_log,
    quat_multiply,
    quat_to_matrix,
    skew,
    so3_exp_matrix,
    so3_right_jacobian,
    so3_right_jacobian_inverse,
    try_project,
    unproject,
)


def random_rotation(rng) -> Rotation:
    return Rotation.exp(rng.normal(size=3))


def random_similarity(rng) -> Similarity:
    return Similarity(
        float(np.exp(rng.normal(scale=0.4))),
        random_rotation(rng),
        rng.normal(scale=2.0, size=3),
    )


KB4_CAM = CameraModel(
    CameraKind.KANNALA_BRANDT4,
    fx=275.0,
    fy=278.0,
    cx=319.5,
    cy=239.5,
    distortion=(0.015, -0.006, 0.002, -0.0005),
    width=640,
    height=480,
)

RADTAN_CAM = CameraModel(
    CameraKind.RADTAN4,
    fx=450.0,
    fy=455.0,
    cx=319.0,
    cy=241.0,
    distortion=(-0.08, 0.02, 0.0005, -0.0004),
    width=640,
    height=480,
)

PINHOLE_CAM = CameraModel(
    CameraKind.PINHOLE, fx=400.0, fy=400.0, cx=319.5, cy=239.5, width=640, height=480
)


class TestRotation:
    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(0)
        r = Rotation.identity()
        for _ in range(10_000):
            r = r @ Rotation.exp(rng.normal(scale=0.3, size=3))
        assert abs(np.linalg.norm(r.quat) - 1.0) < 1e-9

    def test_exp_log_roundtrip(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            v = rng.normal(size=3)
            v = v / np.linalg.norm(v) * rng.uniform(1e-10, 3.1)
            np.testing.assert_allclose(Rotation.exp(v).log(), v, atol=1e-9)

    def test_matrix_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            r = random_rotation(rng)
            r2 = Rotation.from_matrix(r.matrix())
            assert r.angle_to(r2) < 1e-9

    def test_canonical_quat_nonnegative_w(self):
        r = Rotation(np.array([-0.5, 0.5, 0.5, 0.5]))
        assert r.canonical_quat()[0] >= 0.0
        np.testing.assert_allclose(
            Rotation(r.canonical_quat()).matrix(), r.matrix(), atol=1e-12
        )

    def test_inverse(self):
        rng = np.random.default_rng(3)
        r = random_rotation(rng)
        assert (r @ r.inverse()).angle_to(Rotation.identity()) < 1e-12


class TestRigidPose:
    def test_inverse_compose_identity(self):
        rng = np.random.default_rng(4)
        p = RigidPose(random_rotation(rng), rng.normal(size=3))
        ident = p @ p.inverse()
        assert ident.rotation.angle_to(Rotation.identity()) < 1e-9
        np.testing.assert_allclose(ident.translation, 0.0, atol=1e-9)

    def test_apply_matches_compose(self):
        rng = np.random.default_rng(5)
        a = RigidPose(random_rotation(rng), rng.normal(size=3))
        b = RigidPose(random_rotation(rng), rng.normal(size=3))
        x = rng.normal(size=3)
        np.testing.assert_allclose(
            (a @ b).apply(x), a.apply(b.apply(x)), atol=1e-12
        )


class TestSimilarity:
    def test_identity_apply(self):
        p = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(Similarity.identity().apply(p), p)

    def test_pure_scaling(self):
        t = Similarity(2.0, Rotation.identity(), np.zeros(3))
        np.testing.assert_allclose(t.apply([1.0, 0.0, 0.0]), [2.0, 0.0, 0.0])

    def test_rotation_action_hand_computed(self):
        # 90 degrees about z maps x to y; shifted one unit up
        t = Similarity(
            1.0, Rotation.exp([0.0, 0.0, np.pi / 2]), np.array([0.0, 0.0, 1.0])
        )
        np.testing.assert_allclose(t.apply([1.0, 0.0, 0.0]), [0.0, 1.0, 1.0], atol=1e-12)
        # cross-check against the matrix form
        m = t.scale * t.rotation.matrix()
        np.testing.assert_allclose(
            t.apply([1.0, 0.0, 0.0]), m @ [1.0, 0.0, 0.0] + t.translation, atol=1e-12
        )

    def test_compose_identity(self):
        rng = np.random.default_rng(6)
        t = random_similarity(rng)
        c = Similarity.identity() @ t
        assert c.rotation.angle_to(t.rotation) < 1e-12
        np.testing.assert_allclose(c.translation, t.translation)
        assert c.scale == pytest.approx(t.scale)

    def test_inverse_hand_computed(self):
        t = Similarity(2.0, Rotation.identity(), np.array([1.0, 0.0, 0.0]))
        inv = t.inverse()
        assert inv.scale == pytest.approx(0.5)
        np.testing.assert_allclose(inv.translation, [-0.5, 0.0, 0.0])
        # verified via apply round-trip
        rng = np.random.default_rng(7)
        p = rng.normal(size=3)
        np.testing.assert_allclose(inv.apply(t.apply(p)), p, atol=1e-12)

    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(8)
        t = random_similarity(rng)
        ident = t @ t.inverse()
        assert abs(ident.scale - 1.0) < 1e-12
        assert ident.rotation.angle_to(Rotation.identity()) < 1e-12
        np.testing.assert_allclose(ident.translation, 0.0, atol=1e-12)

    def test_apply_roundtrip_tolerance(self):
        rng = np.random.default_rng(9)
        t = random_similarity(rng)
        p = rng.normal(scale=10.0, size=3)
        err = np.linalg.norm(t.inverse().apply(t.apply(p)) - p)
        assert err <= 1e-9 * max(np.linalg.norm(p), 1.0)

    def test_group_associativity_on_points(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a, b, c = (random_similarity(rng) for _ in range(3))
            p = rng.normal(size=3)
            left = ((a @ b) @ c).apply(p)
            right = (a @ (b @ c)).apply(p)
            np.testing.assert_allclose(left, right, atol=1e-9)

    def test_unit_scale_matches_rigid(self):
        rng = np.random.default_rng(11)
        r = random_rotation(rng)
        t = rng.normal(size=3)
        p = rng.normal(size=3)
        np.testing.assert_allclose(
            Similarity(1.0, r, t).apply(p), RigidPose(r, t).apply(p), atol=1e-12
        )

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            Similarity(-1.0, Rotation.identity(), np.zeros(3))


class TestProjection:
    def test_pinhole_optical_axis(self):
        cam = CameraModel(CameraKind.PINHOLE, 100.0, 100.0, 0.0, 0.0)
        np.testing.assert_allclose(project(cam, [0.0, 0.0, 1.0]), [0.0, 0.0])

    def test_pinhole_similar_triangles(self):
        cam = CameraModel(CameraKind.PINHOLE, 100.0, 100.0, 0.0, 0.0)
        np.testing.assert_allclose(project(cam, [1.0, 0.0, 2.0]), [50.0, 0.0])

    def test_pinhole_behind_camera_raises(self):
        cam = CameraModel(CameraKind.PINHOLE, 100.0, 100.0, 0.0, 0.0)
        with pytest.raises(ProjectionError):
            project(cam, [0.0, 0.0, -1.0])

    def test_principal_point_at_unit_depth(self):
        for cam in (PINHOLE_CAM, RADTAN_CAM, KB4_CAM):
            np.testing.assert_allclose(
                project(cam, [0.0, 0.0, 1.0]), [cam.cx, cam.cy], atol=1e-9
            )

    def test_pinhole_unproject_center(self):
        cam = CameraModel(CameraKind.PINHOLE, 100.0, 100.0, 0.0, 0.0)
        np.testing.assert_allclose(unproject(cam, [0.0, 0.0]), [0.0, 0.0, 1.0])

    def test_pinhole_unproject_45deg(self):
        cam = CameraModel(CameraKind.PINHOLE, 100.0, 100.0, 0.0, 0.0)
        expected = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(unproject(cam, [100.0, 0.0]), expected, atol=1e-12)

    def test_roundtrip_grid_all_models(self):
        # 10x10 pixel grid, round trip through unproject/project per model
        for cam in (PINHOLE_CAM, RADTAN_CAM, KB4_CAM):
            u = np.linspace(5.0, cam.width - 5.0, 10)
            v = np.linspace(5.0, cam.height - 5.0, 10)
            grid = np.stack(np.meshgrid(u, v), axis=-1).reshape(-1, 2)
            rays = unproject(cam, grid)
            for depth in (1.0, 7.3):
                back = project(cam, rays * depth)
                err = np.linalg.norm(back - grid, axis=1)
                assert err.max() < 1e-6, cam.kind

    def test_kb4_sees_behind_plane(self):
        # equidistant fisheye handles incidence beyond 90 degrees
        uv, valid = try_project(KB4_CAM, np.array([1.0, 0.0, -0.1]))
        assert valid

    def test_projection_jacobians_match_central_differences(self):
        rng = np.random.default_rng(12)
        step = 1e-6
        for cam in (PINHOLE_CAM, RADTAN_CAM, KB4_CAM):
            for _ in range(25):
                p = rng.normal(scale=0.5, size=3) + np.array([0.0, 0.0, 3.0])
                jac = projection_jacobian_batch(cam, p[None])[0]
                num = np.zeros((2, 3))
                for i in range(3):
                    dp = np.zeros(3)
                    dp[i] = step
                    num[:, i] = (project(cam, p + dp) - project(cam, p - dp)) / (
                        2 * step
                    )
                np.testing.assert_allclose(jac, num, rtol=1e-5, atol=1e-4)

    def test_kb4_on_axis_jacobian(self):
        jac = projection_jacobian_batch(KB4_CAM, np.array([[0.0, 0.0, 2.0]]))[0]
        np.testing.assert_allclose(
            jac, [[KB4_CAM.fx / 2.0, 0, 0], [0, KB4_CAM.fy / 2.0, 0]], atol=1e-9
        )


# coordinates on both sides of the clamp depth, down to points within it
_COORD = st.one_of(
    st.floats(-5.0, 5.0),
    st.sampled_from([0.0, MIN_DEPTH, -MIN_DEPTH, 0.5 * MIN_DEPTH, -1e-9, 2.0 * MIN_DEPTH]),
)


class TestClampDepth:
    @settings(max_examples=200, deadline=None)
    @given(
        cam=st.sampled_from([PINHOLE_CAM, RADTAN_CAM, KB4_CAM]),
        pts=st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=1, max_size=8),
    )
    def test_single_point_matches_batch(self, cam, pts):
        batch = np.array(pts, dtype=float)
        before = batch.copy()
        out = clamp_depth(cam, batch)
        np.testing.assert_array_equal(batch, before)
        for p, row in zip(batch, out):
            np.testing.assert_array_equal(clamp_depth(cam, p.copy()), row)
        if cam.kind is CameraKind.KANNALA_BRANDT4:
            near = np.linalg.norm(batch, axis=1) < MIN_DEPTH
            expected = np.where(near[:, None], [0.0, 0.0, MIN_DEPTH], batch)
        else:
            expected = batch.copy()
            expected[:, 2] = np.maximum(batch[:, 2], MIN_DEPTH)
        np.testing.assert_array_equal(out, expected)


class TestCameraFromFrame:
    def test_rigid_matches_manual_chain(self):
        rng = np.random.default_rng(13)
        device = RigidPose(random_rotation(rng), rng.normal(size=3))
        extr = RigidPose(random_rotation(rng), rng.normal(scale=0.1, size=3))
        a, b = camera_from_frame(device, extr)
        p = rng.normal(size=3)
        expected = extr.apply(device.inverse().apply(p))
        np.testing.assert_allclose(a @ p + b, expected, atol=1e-12)

    def test_scaled_frame_cancels_exactly(self):
        # scaling the frame and the point together leaves camera coords unchanged
        rng = np.random.default_rng(14)
        device = RigidPose(random_rotation(rng), rng.normal(size=3))
        extr = RigidPose(random_rotation(rng), rng.normal(scale=0.1, size=3))
        g = random_similarity(rng)
        p = rng.normal(size=3)

        a0, b0 = camera_from_frame(device, extr)
        scaled_pose = Similarity(
            g.scale, g.rotation @ device.rotation, g.apply(device.translation)
        )
        a1, b1 = camera_from_frame(scaled_pose, extr)
        np.testing.assert_allclose(a1 @ g.apply(p) + b1, a0 @ p + b0, atol=1e-9)


class TestSo3Jacobians:
    def test_right_jacobian_definition(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            v = rng.normal(size=3)
            dv = rng.normal(scale=1e-6, size=3)
            lhs = Rotation.exp(v + dv)
            rhs = Rotation.exp(v) @ Rotation.exp(so3_right_jacobian(v) @ dv)
            assert lhs.angle_to(rhs) < 1e-10

    def test_inverse_consistency(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            v = rng.normal(size=3)
            prod = so3_right_jacobian(v) @ so3_right_jacobian_inverse(v)
            np.testing.assert_allclose(prod, np.eye(3), atol=1e-9)


# On both sides of every small-angle branch: 1e-12 (quaternion exp and
# log), 1e-8 (exp) and 1e-6 (right Jacobian and its inverse), up to pi.
BRANCH_ANGLES = (0.0, 1e-9, 1e-7, 1e-5, 1.0, np.pi - 1e-6)


@st.composite
def rotation_vectors(draw):
    """(N, 3) rotation vectors with angles drawn from BRANCH_ANGLES."""
    angles = draw(st.lists(st.sampled_from(BRANCH_ANGLES), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axes = rng.normal(size=(len(angles), 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return axes * np.array(angles)[:, None]


def wxyz(scipy_rotation) -> np.ndarray:
    q = scipy_rotation.as_quat()
    return np.concatenate([q[..., 3:], q[..., :3]], axis=-1)


def assert_same_rotation(q, ref, atol):
    """Quaternions equal up to their sign, row by row."""
    sign = np.where(np.sum(q * ref, axis=-1) < 0.0, -1.0, 1.0)[..., None]
    np.testing.assert_allclose(sign * q, ref, rtol=0.0, atol=atol)


class TestBatchedSo3:
    """Batched helpers against closed forms computed another way: matrix
    exponentials for SO(3), SciPy's rotations for quaternions."""

    @settings(max_examples=40, deadline=None)
    @given(rotation_vectors())
    def test_matrices_match_closed_forms(self, v):
        k, exp, jr, jr_inv = (
            f(v) for f in (skew, so3_exp_matrix, so3_right_jacobian, so3_right_jacobian_inverse)
        )
        for n, vec in enumerate(v):
            cross = np.cross(vec, np.eye(3)).T
            np.testing.assert_array_equal(k[n], cross)
            np.testing.assert_allclose(exp[n], scipy.linalg.expm(cross), rtol=0.0, atol=1e-12)
            # Jr(v) is the sum of (-K)^k / (k + 1)!: the upper-right block of
            # the exponential of [[-K, I], [0, 0]]
            aug = np.zeros((6, 6))
            aug[:3, :3] = -cross
            aug[:3, 3:] = np.eye(3)
            jr_ref = scipy.linalg.expm(aug)[:3, 3:]
            np.testing.assert_allclose(jr[n], jr_ref, rtol=0.0, atol=1e-10)
            np.testing.assert_allclose(jr_inv[n], np.linalg.inv(jr_ref), rtol=0.0, atol=1e-9)
            # one (3,) vector is the N = 1 case
            np.testing.assert_allclose(so3_exp_matrix(vec), exp[n], rtol=0.0, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(rotation_vectors(), rotation_vectors())
    def test_quaternions_match_scipy(self, v, w):
        n = min(len(v), len(w))
        v, w = v[:n], w[:n]
        ref_v, ref_w = ScipyRotation.from_rotvec(v), ScipyRotation.from_rotvec(w)
        q_v, q_w = quat_exp(v), quat_exp(w)
        assert_same_rotation(q_v, wxyz(ref_v), 1e-15)
        np.testing.assert_allclose(np.linalg.norm(q_v, axis=1), 1.0, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(quat_to_matrix(q_v), ref_v.as_matrix(), rtol=0.0, atol=1e-12)
        assert_same_rotation(quat_multiply(q_v, q_w), wxyz(ref_v * ref_w), 1e-12)
        np.testing.assert_allclose(quat_log(q_v), v, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(quat_log(-q_v), v, rtol=0.0, atol=1e-12)
        # the scalar Rotation type agrees on a single (4,) quaternion
        np.testing.assert_allclose(quat_to_matrix(q_v[0]), Rotation(q_v[0]).matrix(), atol=1e-15)
