"""Tests for rotations, similarity transforms, and camera models."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation

from vigt.errors import UnprojectionError
from vigt.geometry import (
    MIN_DEPTH,
    CameraKind,
    CameraModel,
    CameraStack,
    RigidPose,
    Rotation,
    Similarity,
    camera_maps,
    clamp_depth,
    projection_jacobian_batch,
    quat_exp,
    quat_from_matrix,
    quat_log,
    quat_multiply,
    quat_to_matrix,
    skew,
    so3_right_jacobian,
    so3_right_jacobian_inverse,
    try_project,
    unproject,
)
from vigt.synth import default_rig


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


def unproject_one(cam, px) -> np.ndarray:
    """The unit camera-frame ray of one pixel."""
    rays, failures = unproject(cam, np.array([px], dtype=float))
    assert not failures
    return rays[0]


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
        np.testing.assert_allclose(try_project(cam, [0.0, 0.0, 1.0])[0], [0.0, 0.0])

    def test_pinhole_similar_triangles(self):
        cam = CameraModel(CameraKind.PINHOLE, 100.0, 100.0, 0.0, 0.0)
        np.testing.assert_allclose(try_project(cam, [1.0, 0.0, 2.0])[0], [50.0, 0.0])

    def test_pinhole_behind_camera_raises(self):
        cam = CameraModel(CameraKind.PINHOLE, 100.0, 100.0, 0.0, 0.0)
        uv, valid = try_project(cam, [0.0, 0.0, -1.0])
        assert not valid
        assert np.isnan(uv).all()

    def test_principal_point_at_unit_depth(self):
        for cam in (PINHOLE_CAM, RADTAN_CAM, KB4_CAM):
            np.testing.assert_allclose(
                try_project(cam, [0.0, 0.0, 1.0])[0], [cam.cx, cam.cy], atol=1e-9
            )

    def test_pinhole_unproject_center(self):
        cam = CameraModel(CameraKind.PINHOLE, 100.0, 100.0, 0.0, 0.0)
        np.testing.assert_allclose(unproject_one(cam, [0.0, 0.0]), [0.0, 0.0, 1.0])

    def test_pinhole_unproject_45deg(self):
        cam = CameraModel(CameraKind.PINHOLE, 100.0, 100.0, 0.0, 0.0)
        expected = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(unproject_one(cam, [100.0, 0.0]), expected, atol=1e-12)

    def test_roundtrip_grid_all_models(self):
        # 10x10 pixel grid, round trip through unproject/project per model
        for cam in (PINHOLE_CAM, RADTAN_CAM, KB4_CAM):
            u = np.linspace(5.0, cam.width - 5.0, 10)
            v = np.linspace(5.0, cam.height - 5.0, 10)
            grid = np.stack(np.meshgrid(u, v), axis=-1).reshape(-1, 2)
            rays, failures = unproject(cam, grid)
            assert not failures, cam.kind
            for depth in (1.0, 7.3):
                back = try_project(cam, rays * depth)[0]
                err = np.linalg.norm(back - grid, axis=1)
                assert err.max() < 1e-6, cam.kind

    def test_pinhole_is_zero_distortion_radtan(self):
        zero = CameraModel(
            CameraKind.RADTAN4, fx=400.0, fy=400.0, cx=319.5, cy=239.5, distortion=(0.0,) * 4
        )
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(200, 3)) + np.array([0.0, 0.0, 0.5])  # some behind
        for got, want in zip(try_project(PINHOLE_CAM, pts), try_project(zero, pts)):
            np.testing.assert_array_equal(got, want)
        front = pts[pts[:, 2] > 0.0]
        np.testing.assert_array_equal(
            projection_jacobian_batch(PINHOLE_CAM, front), projection_jacobian_batch(zero, front)
        )
        px = rng.uniform((0.0, 0.0), (640.0, 480.0), size=(200, 2))
        rays, failures = unproject(PINHOLE_CAM, px)
        zero_rays, zero_failures = unproject(zero, px)
        assert not failures and not zero_failures
        np.testing.assert_array_equal(rays, zero_rays)

    def test_radtan_failure_stays_with_its_pixel(self):
        # pixels from the centre to the corners need different iteration
        # counts; each stops on its own update, as if alone
        rng = np.random.default_rng(22)
        px = rng.uniform((5.0, 5.0), (635.0, 475.0), size=(8, 2))
        px[3] = (5000.0, 4000.0)  # far outside the image: the inversion diverges
        rays, failures = unproject(RADTAN_CAM, px)
        assert list(failures) == [3]
        assert isinstance(failures[3], UnprojectionError)
        assert np.isnan(rays[3]).all()
        alone, alone_failures = unproject(RADTAN_CAM, px[3:4])
        assert str(alone_failures[0]) == str(failures[3])
        for i in (0, 1, 2, 4, 5, 6, 7):
            alone, alone_failures = unproject(RADTAN_CAM, px[i : i + 1])
            assert not alone_failures
            assert np.isfinite(rays[i]).all()
            np.testing.assert_array_equal(rays[i], alone[0])

    @pytest.mark.parametrize("cam", [RADTAN_CAM, KB4_CAM], ids=["radtan", "kb4"])
    def test_non_finite_pixel_fails_alone(self, cam):
        rng = np.random.default_rng(23)
        px = rng.uniform((5.0, 5.0), (635.0, 475.0), size=(6, 2))
        px[1, 0], px[3, 1], px[4] = np.nan, np.inf, -np.inf
        rays, failures = unproject(cam, px)
        assert sorted(failures) == [1, 3, 4]
        assert all(isinstance(exc, UnprojectionError) for exc in failures.values())
        assert all(str(exc).endswith("is not finite") for exc in failures.values())
        assert np.isnan(rays[[1, 3, 4]]).all()
        for i in (0, 2, 5):
            np.testing.assert_array_equal(rays[i], unproject_one(cam, px[i]))

    def test_diverging_inversion_fails_without_overflow(self):
        # far pixels whose inversions overflow before they stop: each fails
        # with its own UnprojectionError, and the pixel beside it inverts
        radtan = CameraModel(
            CameraKind.RADTAN4, 150.0, 150.0, 319.5, 239.5, (0.0, 0.0, 0.0, 0.03125)
        )
        fisheye = default_rig().cameras["left"]
        for cam, far in ((radtan, (5000.0, 4000.0)), (fisheye, (1e150, 1e150))):
            rays, failures = unproject(cam, np.array([[320.0, 240.0], far]))
            assert list(failures) == [1]
            assert isinstance(failures[1], UnprojectionError)
            assert np.isnan(rays[1]).all()
            np.testing.assert_array_equal(rays[0], unproject_one(cam, (320.0, 240.0)))

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
                    plus, minus = try_project(cam, p + dp)[0], try_project(cam, p - dp)[0]
                    num[:, i] = (plus - minus) / (2 * step)
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
        out = clamp_depth(cam, batch)[0]
        np.testing.assert_array_equal(batch, before)
        for p, row in zip(batch, out):
            np.testing.assert_array_equal(clamp_depth(cam, p.copy())[0], row)
        if cam.kind is CameraKind.KANNALA_BRANDT4:
            near = np.linalg.norm(batch, axis=1) < MIN_DEPTH
            expected = np.where(near[:, None], [0.0, 0.0, MIN_DEPTH], batch)
        else:
            expected = batch.copy()
            expected[:, 2] = np.maximum(batch[:, 2], MIN_DEPTH)
        np.testing.assert_array_equal(out, expected)


# coordinates on a 1 mm grid, so no division by a subnormal overflows
_GRID = st.integers(-5000, 5000).map(lambda i: i / 1000.0)
# pixels in the image, where every drawn calibration inverts, or not finite
_PIXEL = st.one_of(
    st.tuples(st.floats(0.0, 640.0), st.floats(0.0, 480.0)),
    st.sampled_from([(np.nan, 240.0), (320.0, np.inf), (-np.inf, np.nan)]),
)
# the first rows of every example: on-axis points in front of and behind
# the camera, a point behind it off the axis, the centre, and pixels that
# are not finite
_SPECIAL_POINTS = [(0.0, 0.0, 2.0), (0.0, 0.0, -1.0), (0.3, -0.2, -1.5), (0.0, 0.0, 0.0)]
_SPECIAL_PIXELS = [(np.nan, 240.0), (320.0, np.inf), (310.0, 250.0), (-np.inf, -np.inf)]


@st.composite
def camera_rows(draw):
    """One projection kind, and per row a camera of that kind with its own
    calibration (pinholes among the radial-tangential ones), a camera-frame
    point and a pixel."""
    fisheye = draw(st.booleans())
    n = draw(st.integers(len(_SPECIAL_POINTS), 12))
    coefficient = st.floats(-0.02, 0.02)
    cams = []
    for _ in range(n):
        fx, fy = draw(st.floats(250.0, 600.0)), draw(st.floats(250.0, 600.0))
        cx, cy = draw(st.floats(300.0, 340.0)), draw(st.floats(220.0, 260.0))
        if fisheye:
            kind = CameraKind.KANNALA_BRANDT4
        else:
            kind = draw(st.sampled_from([CameraKind.PINHOLE, CameraKind.RADTAN4]))
        k = () if kind is CameraKind.PINHOLE else tuple(draw(coefficient) for _ in range(4))
        cams.append(CameraModel(kind, fx, fy, cx, cy, k))
    rest = n - len(_SPECIAL_POINTS)
    points = _SPECIAL_POINTS + draw(
        st.lists(st.tuples(_GRID, _GRID, _GRID), min_size=rest, max_size=rest)
    )
    pixels = _SPECIAL_PIXELS + draw(st.lists(_PIXEL, min_size=rest, max_size=rest))
    return cams, np.array(points), np.array(pixels)


class TestCameraStack:
    @settings(max_examples=200, deadline=None)
    @given(camera_rows())
    def test_rows_equal_their_own_camera(self, scene):
        cams, pts, px = scene
        kind = cams[0].kind if cams[0].kind is CameraKind.KANNALA_BRANDT4 else CameraKind.RADTAN4
        stack = CameraStack.of(kind, np.array([cam.intrinsics for cam in cams]))
        uv, valid = try_project(stack, pts)
        clamped = clamp_depth(stack, pts)[0]
        jac = projection_jacobian_batch(stack, clamped)
        rays, failures = unproject(stack, px)
        for k, cam in enumerate(cams):
            uv_k, valid_k = try_project(cam, pts[k : k + 1])
            np.testing.assert_array_equal(uv[k], uv_k[0])
            assert valid[k] == valid_k[0]
            np.testing.assert_array_equal(clamped[k], clamp_depth(cam, pts[k : k + 1])[0][0])
            jac_k = projection_jacobian_batch(cam, clamped[k : k + 1])[0]
            np.testing.assert_array_equal(jac[k], jac_k)
            rays_k, failures_k = unproject(cam, px[k : k + 1])
            np.testing.assert_array_equal(rays[k], rays_k[0])
            assert str(failures.get(k)) == str(failures_k.get(0))
        assert sorted(failures)[:2] == [0, 1]


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


class TestCameraFromFrame:
    def test_rigid_matches_manual_chain(self):
        rng = np.random.default_rng(13)
        device = RigidPose(random_rotation(rng), rng.normal(size=3))
        extr = RigidPose(random_rotation(rng), rng.normal(scale=0.1, size=3))
        a, b = frame_map(device, extr)
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

        a0, b0 = frame_map(device, extr)
        scaled_pose = Similarity(
            g.scale, g.rotation @ device.rotation, g.apply(device.translation)
        )
        a1, b1 = frame_map(scaled_pose, extr)
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
# log) and 1e-6 (right Jacobian and its inverse), up to pi.
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
        k, jr, jr_inv = (f(v) for f in (skew, so3_right_jacobian, so3_right_jacobian_inverse))
        # the one exponential, as a matrix
        exp = quat_to_matrix(quat_exp(v))
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
            np.testing.assert_allclose(
                quat_to_matrix(quat_exp(vec)), exp[n], rtol=0.0, atol=1e-15
            )

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


def hurwitz_units() -> np.ndarray:
    """The 24 unit Hurwitz quaternions: +-1, +-i, +-j, +-k and
    (+-1 +-i +-j +-k) / 2. Their products are exact and of exact unit norm."""
    axes = np.concatenate([np.eye(4), -np.eye(4)])
    signs = np.array(np.meshgrid(*[[-0.5, 0.5]] * 4)).reshape(4, -1).T
    return np.concatenate([axes, signs])


def branch_quaternions(rng) -> list[np.ndarray]:
    """Unit quaternions for each branch of Shepperd's method: small angles
    (positive trace), then half turns about axes nearest x, y and z, whose
    matrix diagonal peaks at that axis."""
    out = [quat_exp(rng.normal(scale=0.5, size=(50, 3)))]
    for axis in range(3):
        a = rng.normal(scale=0.3, size=(50, 3))
        a[:, axis] = 1.0 + rng.uniform(size=50)
        out.append(quat_exp(np.pi * a / np.linalg.norm(a, axis=1, keepdims=True)))
    return out


class TestRotationMaps:
    """The stacked maps and the `Rotation` methods compute one formula each."""

    def test_product_rows_match_compose(self):
        units = hurwitz_units()
        q1, q2 = np.repeat(units, 24, axis=0), np.tile(units, (24, 1))
        composed = [(Rotation(a) @ Rotation(b)).quat for a, b in zip(q1, q2)]
        np.testing.assert_array_equal(quat_multiply(q1, q2), composed)
        # a Rotation and a stack divide by one norm, summed over the same
        # components in the same order, so any product agrees bit for bit
        rng = np.random.default_rng(31)
        a = [Rotation(q) for q in rng.normal(size=(50_000, 4))]
        b = [Rotation(q) for q in rng.normal(size=(50_000, 4))]
        rows = quat_multiply(np.stack([r.quat for r in a]), np.stack([r.quat for r in b]))
        np.testing.assert_array_equal(rows, [(x @ y).quat for x, y in zip(a, b)])

    def test_matrix_rows_match_matrix(self):
        rng = np.random.default_rng(32)
        rots = [Rotation(q) for q in rng.normal(size=(2000, 4))]
        rows = quat_to_matrix(np.stack([r.quat for r in rots]))
        np.testing.assert_array_equal(rows, [r.matrix() for r in rots])

    def test_from_matrix_rows_match_one_row_calls(self):
        rng = np.random.default_rng(33)
        m = quat_to_matrix(np.concatenate(branch_quaternions(rng)))
        rows = quat_from_matrix(m)
        np.testing.assert_array_equal(rows, [quat_from_matrix(x) for x in m])

    def test_from_matrix_recovers_each_branch(self):
        rng = np.random.default_rng(34)
        q_random = rng.normal(size=(5000, 4))
        q_random /= np.linalg.norm(q_random, axis=1, keepdims=True)
        # exact half turns about x, y and z
        cases = branch_quaternions(rng) + [np.eye(4)[1:], q_random]
        for branch, q in enumerate(cases):
            m = quat_to_matrix(q)
            diagonal = np.diagonal(m, axis1=1, axis2=2)
            if branch == 0:
                assert (np.trace(m, axis1=1, axis2=2) > 0.0).all()
            elif branch <= 3:
                assert (np.trace(m, axis1=1, axis2=2) <= 0.0).all()
                assert (np.argmax(diagonal, axis=1) == branch - 1).all()
            assert_same_rotation(quat_from_matrix(m), q, 4e-15)
