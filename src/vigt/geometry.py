"""Rotations, rigid poses, similarity transforms, and camera models.

All types are immutable values and all operations are pure functions, so
everything here is safe to share across threads. Rotations are stored as
unit quaternions in (w, x, y, z) order and renormalized after every
composition so long chains cannot drift.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ProjectionError, UnprojectionError

if TYPE_CHECKING:
    from .inertial import ImuNoise

_QUAT_NORM_TOL = 1e-9


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices: skew(v) @ u == np.cross(v, u). Takes one
    (3,) vector or a (..., 3) stack and returns (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def _angle_terms(rotvec, small_angle: float):
    """Cross-product matrices K of (..., 3) rotation vectors, the (..., 1, 1)
    mask of angles below `small_angle`, and the angles with those replaced
    by 1, so the closed forms never divide by zero."""
    rotvec = np.asarray(rotvec, dtype=float)
    theta = np.linalg.norm(rotvec, axis=-1)[..., None, None]
    small = theta < small_angle
    return skew(rotvec), small, np.where(small, 1.0, theta)


def so3_exp_matrix(rotvec: np.ndarray) -> np.ndarray:
    """Rodrigues formula, series-expanded near zero; (..., 3) rotation
    vectors to (..., 3, 3) matrices."""
    k, small, t = _angle_terms(rotvec, 1e-8)
    a = np.where(small, 1.0, np.sin(t) / t)
    b = np.where(small, 0.5, (1.0 - np.cos(t)) / t**2)
    return np.eye(3) + a * k + b * (k @ k)


def so3_right_jacobian(rotvec: np.ndarray) -> np.ndarray:
    """Right Jacobian of SO(3): Exp(v + dv) ~= Exp(v) Exp(Jr(v) dv); takes
    (..., 3) and returns (..., 3, 3)."""
    k, small, t = _angle_terms(rotvec, 1e-6)
    a = np.where(small, 0.5, (1.0 - np.cos(t)) / t**2)
    b = np.where(small, 1.0 / 6.0, (t - np.sin(t)) / t**3)
    return np.eye(3) - a * k + b * (k @ k)


def so3_right_jacobian_inverse(rotvec: np.ndarray) -> np.ndarray:
    """Inverse of the right Jacobian of SO(3); (..., 3) to (..., 3, 3)."""
    k, small, t = _angle_terms(rotvec, 1e-6)
    b = np.where(
        small, 1.0 / 12.0, 1.0 / t**2 - (1.0 + np.cos(t)) / (2.0 * t * np.sin(t))
    )
    return np.eye(3) + 0.5 * k + b * (k @ k)


def quat_multiply(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton products of (..., 4) quaternions (w, x, y, z), renormalized."""
    w1, x1, y1, z1 = np.moveaxis(np.asarray(q1, dtype=float), -1, 0)
    w2, x2, y2, z2 = np.moveaxis(np.asarray(q2, dtype=float), -1, 0)
    q = np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_exp(rotvec: np.ndarray) -> np.ndarray:
    """Unit quaternions of (..., 3) rotation vectors (axis * angle)."""
    v = np.asarray(rotvec, dtype=float)
    theta = np.linalg.norm(v, axis=-1, keepdims=True)
    small = theta < 1e-12
    t = np.where(small, 1.0, theta)
    w = np.where(small, 1.0, np.cos(0.5 * t))
    xyz = np.where(small, 0.5 * v, np.sin(0.5 * t) * (v / t))
    q = np.concatenate([w, xyz], axis=-1)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_log(q: np.ndarray) -> np.ndarray:
    """Rotation vectors (axis * angle, angle in [0, pi]) of (..., 4) unit
    quaternions."""
    q = np.asarray(q, dtype=float)
    q = np.where(q[..., :1] < 0.0, -q, q)
    w, xyz = q[..., :1], q[..., 1:]
    n = np.linalg.norm(xyz, axis=-1, keepdims=True)
    small = n < 1e-12
    angle_over_n = 2.0 * np.arctan2(n, w) / np.where(small, 1.0, n)
    return np.where(small, 2.0 / np.where(small, w, 1.0), angle_over_n) * xyz


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of (..., 4) unit quaternions."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = np.moveaxis(q, -1, 0)
    m = np.stack(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ],
        axis=-1,
    )
    return m.reshape(q.shape[:-1] + (3, 3))


@dataclass(frozen=True, eq=False)
class Rotation:
    """3D rotation stored as a unit quaternion (w, x, y, z)."""

    quat: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.quat, dtype=float).reshape(4)
        n = float(np.linalg.norm(q))
        if n < 1e-12:
            raise ValueError("zero quaternion does not define a rotation")
        object.__setattr__(self, "quat", q / n)
        self.quat.setflags(write=False)

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.array([1.0, 0.0, 0.0, 0.0]))

    @staticmethod
    def exp(rotvec) -> "Rotation":
        """Exponential map from a 3-vector tangent (axis * angle)."""
        v = np.asarray(rotvec, dtype=float).reshape(3)
        theta = float(np.linalg.norm(v))
        if theta < 1e-12:
            return Rotation(np.concatenate(([1.0], 0.5 * v)))
        axis = v / theta
        half = 0.5 * theta
        return Rotation(np.concatenate(([np.cos(half)], np.sin(half) * axis)))

    @staticmethod
    def from_matrix(m: np.ndarray) -> "Rotation":
        """Shepperd's method, numerically stable for all rotation matrices."""
        m = np.asarray(m, dtype=float)
        t = np.trace(m)
        if t > 0.0:
            s = np.sqrt(t + 1.0) * 2.0
            w = 0.25 * s
            x = (m[2, 1] - m[1, 2]) / s
            y = (m[0, 2] - m[2, 0]) / s
            z = (m[1, 0] - m[0, 1]) / s
        elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
            s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
            w = (m[2, 1] - m[1, 2]) / s
            x = 0.25 * s
            y = (m[0, 1] + m[1, 0]) / s
            z = (m[0, 2] + m[2, 0]) / s
        elif m[1, 1] >= m[2, 2]:
            s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
            w = (m[0, 2] - m[2, 0]) / s
            x = (m[0, 1] + m[1, 0]) / s
            y = 0.25 * s
            z = (m[1, 2] + m[2, 1]) / s
        else:
            s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
            w = (m[1, 0] - m[0, 1]) / s
            x = (m[0, 2] + m[2, 0]) / s
            y = (m[1, 2] + m[2, 1]) / s
            z = 0.25 * s
        return Rotation(np.array([w, x, y, z]))

    def log(self) -> np.ndarray:
        """Tangent 3-vector (axis * angle), angle in [0, pi]."""
        return quat_log(self.quat)

    def matrix(self) -> np.ndarray:
        w, x, y, z = self.quat
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )

    def apply(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return p @ self.matrix().T

    def compose(self, other: "Rotation") -> "Rotation":
        w1, x1, y1, z1 = self.quat
        w2, x2, y2, z2 = other.quat
        return Rotation(
            np.array(
                [
                    w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                    w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                    w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                    w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
                ]
            )
        )

    def inverse(self) -> "Rotation":
        w, x, y, z = self.quat
        return Rotation(np.array([w, -x, -y, -z]))

    def canonical_quat(self) -> np.ndarray:
        """Quaternion with w >= 0, used wherever rotations are serialized."""
        return -self.quat if self.quat[0] < 0.0 else self.quat.copy()

    def angle_to(self, other: "Rotation") -> float:
        """Geodesic distance in radians."""
        return float(np.linalg.norm(self.inverse().compose(other).log()))

    def __matmul__(self, other: "Rotation") -> "Rotation":
        return self.compose(other)

    def __repr__(self):
        w, x, y, z = self.quat
        return f"Rotation(w={w:.6f}, x={x:.6f}, y={y:.6f}, z={z:.6f})"


@dataclass(frozen=True, eq=False)
class RigidPose:
    """Rigid transform: p_out = R p + t."""

    rotation: Rotation
    translation: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "translation", t)
        self.translation.setflags(write=False)

    @staticmethod
    def identity() -> "RigidPose":
        return RigidPose(Rotation.identity(), np.zeros(3))

    def apply(self, p: np.ndarray) -> np.ndarray:
        return self.rotation.apply(p) + self.translation

    def compose(self, other: "RigidPose") -> "RigidPose":
        return RigidPose(
            self.rotation @ other.rotation,
            self.rotation.apply(other.translation) + self.translation,
        )

    def inverse(self) -> "RigidPose":
        rinv = self.rotation.inverse()
        return RigidPose(rinv, -rinv.apply(self.translation))

    def __matmul__(self, other: "RigidPose") -> "RigidPose":
        return self.compose(other)


@dataclass(frozen=True, eq=False)
class Similarity:
    """Similarity transform: p_out = s R p + t, with s > 0."""

    scale: float
    rotation: Rotation
    translation: np.ndarray

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValueError(f"similarity scale must be positive, got {self.scale}")
        t = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "translation", t)
        self.translation.setflags(write=False)

    @staticmethod
    def identity() -> "Similarity":
        return Similarity(1.0, Rotation.identity(), np.zeros(3))

    @staticmethod
    def from_rigid(pose: RigidPose) -> "Similarity":
        return Similarity(1.0, pose.rotation, pose.translation)

    def apply(self, p: np.ndarray) -> np.ndarray:
        return self.scale * self.rotation.apply(p) + self.translation

    def compose(self, other: "Similarity") -> "Similarity":
        return Similarity(
            self.scale * other.scale,
            self.rotation @ other.rotation,
            self.scale * self.rotation.apply(other.translation) + self.translation,
        )

    def inverse(self) -> "Similarity":
        rinv = self.rotation.inverse()
        sinv = 1.0 / self.scale
        return Similarity(sinv, rinv, -sinv * rinv.apply(self.translation))

    def __matmul__(self, other: "Similarity") -> "Similarity":
        return self.compose(other)


class CameraKind(enum.Enum):
    PINHOLE = "pinhole"
    RADTAN4 = "pinhole-radtan4"
    KANNALA_BRANDT4 = "kannala-brandt4"


_DIST_COUNT = {
    CameraKind.PINHOLE: 0,
    CameraKind.RADTAN4: 4,
    CameraKind.KANNALA_BRANDT4: 4,
}

_INVERSION_ITERS = 20
_INVERSION_TOL = 1e-8

MIN_DEPTH = 1e-6  # see clamp_depth


@dataclass(frozen=True)
class CameraModel:
    """Intrinsic camera model.

    Distortion coefficients are (k1, k2, p1, p2) for the radial-tangential
    model and (k1, k2, k3, k4) for the equidistant fisheye model.
    """

    kind: CameraKind
    fx: float
    fy: float
    cx: float
    cy: float
    distortion: tuple[float, ...] = ()
    width: int = 640
    height: int = 480

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        expected = _DIST_COUNT[self.kind]
        if len(self.distortion) != expected:
            raise ValueError(
                f"{self.kind.value} expects {expected} distortion coefficients,"
                f" got {len(self.distortion)}"
            )

    def contains(self, px: np.ndarray) -> np.ndarray:
        px = np.atleast_2d(np.asarray(px, dtype=float))
        return (
            (px[:, 0] >= 0.0)
            & (px[:, 0] <= self.width - 1)
            & (px[:, 1] >= 0.0)
            & (px[:, 1] <= self.height - 1)
        )


def _kb4_theta_d(theta, k):
    t2 = theta * theta
    return theta * (1.0 + t2 * (k[0] + t2 * (k[1] + t2 * (k[2] + t2 * k[3]))))


def _kb4_theta_d_prime(theta, k):
    t2 = theta * theta
    return 1.0 + t2 * (3 * k[0] + t2 * (5 * k[1] + t2 * (7 * k[2] + t2 * 9 * k[3])))


def try_project(cam: CameraModel, p_cam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project points, returning (pixels, valid mask) instead of raising.

    Accepts a single (3,) point or an (N, 3) batch; pixels for invalid
    entries are NaN.
    """
    pts = np.atleast_2d(np.asarray(p_cam, dtype=float))
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    uv = np.full((len(pts), 2), np.nan)

    if cam.kind is CameraKind.PINHOLE:
        valid = z > 0.0
        zq = np.where(valid, z, 1.0)
        uv[:, 0] = cam.fx * x / zq + cam.cx
        uv[:, 1] = cam.fy * y / zq + cam.cy
    elif cam.kind is CameraKind.RADTAN4:
        k1, k2, p1, p2 = cam.distortion
        valid = z > 0.0
        zq = np.where(valid, z, 1.0)
        xn, yn = x / zq, y / zq
        r2 = xn * xn + yn * yn
        radial = 1.0 + k1 * r2 + k2 * r2 * r2
        xd = xn * radial + 2.0 * p1 * xn * yn + p2 * (r2 + 2.0 * xn * xn)
        yd = yn * radial + p1 * (r2 + 2.0 * yn * yn) + 2.0 * p2 * xn * yn
        uv[:, 0] = cam.fx * xd + cam.cx
        uv[:, 1] = cam.fy * yd + cam.cy
    else:
        k = cam.distortion
        rho = np.hypot(x, y)
        norm = np.sqrt(rho * rho + z * z)
        # valid everywhere except the origin and points exactly behind on-axis
        valid = (norm > 1e-12) & ~((rho < 1e-12 * np.maximum(norm, 1.0)) & (z <= 0.0))
        theta = np.arctan2(rho, z)
        theta_d = _kb4_theta_d(theta, k)
        on_axis = rho < 1e-12 * np.maximum(norm, 1.0)
        scale = np.where(on_axis, 0.0, theta_d / np.where(rho == 0.0, 1.0, rho))
        uv[:, 0] = cam.fx * scale * x + cam.cx
        uv[:, 1] = cam.fy * scale * y + cam.cy

    uv[~valid] = np.nan
    if np.asarray(p_cam).ndim == 1:
        return uv[0], bool(valid[0])
    return uv, valid


def project(cam: CameraModel, p_cam: np.ndarray) -> np.ndarray:
    """Project camera-frame points to pixels; raises on invalid input."""
    uv, valid = try_project(cam, p_cam)
    if not np.all(valid):
        raise ProjectionError(
            f"point not projectable with {cam.kind.value} model"
            " (behind camera or outside model domain)"
        )
    return uv


def unproject(cam: CameraModel, px: np.ndarray) -> np.ndarray:
    """Back-project pixels to unit ray directions in the camera frame."""
    pix = np.atleast_2d(np.asarray(px, dtype=float))
    dirs, failures = unproject_segments(cam, pix, np.zeros(len(pix), dtype=int))
    if failures:
        raise failures[0]
    if np.asarray(px).ndim == 1:
        return dirs[0]
    return dirs


def unproject_segments(
    cam: CameraModel, px: np.ndarray, segment: np.ndarray
) -> tuple[np.ndarray, dict[int, UnprojectionError]]:
    """Back-project (N, 2) pixels to (N, 3) unit camera-frame rays, each
    segment of pixels exactly as `unproject` would alone: segment[k] labels
    pixel k, and the radial-tangential inversion stops per segment once its
    largest update is below tolerance. Also returns the UnprojectionError
    of every segment that does not invert, keyed by its label; the rays of
    such a segment are NaN."""
    labels, seg = np.unique(np.asarray(segment), return_inverse=True)
    mx = (px[:, 0] - cam.cx) / cam.fx
    my = (px[:, 1] - cam.cy) / cam.fy
    failures: dict[int, UnprojectionError] = {}

    if cam.kind is CameraKind.PINHOLE:
        dirs = np.stack([mx, my, np.ones_like(mx)], axis=1)
    elif cam.kind is CameraKind.RADTAN4:
        k1, k2, p1, p2 = cam.distortion
        xn, yn = mx.copy(), my.copy()
        running = np.ones(len(labels), dtype=bool)
        step = np.zeros(len(labels))
        for _ in range(_INVERSION_ITERS):
            r2 = xn * xn + yn * yn
            radial = 1.0 + k1 * r2 + k2 * r2 * r2
            dx = 2.0 * p1 * xn * yn + p2 * (r2 + 2.0 * xn * xn)
            dy = p1 * (r2 + 2.0 * yn * yn) + 2.0 * p2 * xn * yn
            xn_new = (mx - dx) / radial
            yn_new = (my - dy) / radial
            moving = running[seg]
            seg_step = np.zeros(len(labels))
            np.maximum.at(seg_step, seg[moving], np.hypot(xn_new - xn, yn_new - yn)[moving])
            step[running] = seg_step[running]
            xn, yn = np.where(moving, xn_new, xn), np.where(moving, yn_new, yn)
            running &= ~(step < _INVERSION_TOL)
            if not running.any():
                break
        for s in np.flatnonzero(running & (step >= _INVERSION_TOL)):
            failures[int(labels[s])] = UnprojectionError(
                f"radial-tangential inversion did not converge"
                f" within {_INVERSION_ITERS} iterations (step {step[s]:.2e})"
            )
        dirs = np.stack([xn, yn, np.ones_like(xn)], axis=1)
    else:
        k = cam.distortion
        theta_d = np.hypot(mx, my)
        theta = theta_d.copy()
        for _ in range(_INVERSION_ITERS):
            f = _kb4_theta_d(theta, k) - theta_d
            theta = theta - f / _kb4_theta_d_prime(theta, k)
        residual = np.abs(_kb4_theta_d(theta, k) - theta_d)
        worst = np.zeros(len(labels))
        np.maximum.at(worst, seg, residual)
        for s in np.unique(seg[residual > 1e-9]):
            failures[int(labels[s])] = UnprojectionError(
                f"fisheye angle inversion did not converge"
                f" within {_INVERSION_ITERS} iterations (residual {worst[s]:.2e})"
            )
        small = theta_d < 1e-12
        inv = np.where(small, 1.0, theta_d)
        sin_t = np.sin(theta)
        dirs = np.stack(
            [
                np.where(small, mx, sin_t * mx / inv),
                np.where(small, my, sin_t * my / inv),
                np.cos(theta),
            ],
            axis=1,
        )

    dirs[np.isin(labels[seg], list(failures))] = np.nan
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs, failures


def clamp_depth(cam: CameraModel, p_cam: np.ndarray) -> np.ndarray:
    """Move camera-frame points into the domain where projections and
    Jacobians are finite, so an optimizer can reject a wandering trial step
    by its cost: z >= MIN_DEPTH for the pinhole-based models, the optical
    axis for fisheye points within MIN_DEPTH of the centre. Takes a (3,)
    point or an (N, 3) batch and returns a clamped copy."""
    out = np.array(p_cam, dtype=float)
    if cam.kind is CameraKind.KANNALA_BRANDT4:
        out[np.linalg.norm(out, axis=-1) < MIN_DEPTH] = (0.0, 0.0, MIN_DEPTH)
    else:
        out[..., 2] = np.maximum(out[..., 2], MIN_DEPTH)
    return out


def projection_jacobian_batch(cam: CameraModel, pts: np.ndarray) -> np.ndarray:
    """Vectorized d(pixel)/d(point): (N, 3) points to (N, 2, 3) Jacobians.

    Callers must pass points inside the model domain (z > 0 for the
    pinhole-based kinds); on-axis fisheye points fall back to the pinhole
    limit.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    n = len(pts)
    jac = np.zeros((n, 2, 3))

    if cam.kind is CameraKind.PINHOLE:
        jac[:, 0, 0] = cam.fx / z
        jac[:, 0, 2] = -cam.fx * x / z**2
        jac[:, 1, 1] = cam.fy / z
        jac[:, 1, 2] = -cam.fy * y / z**2
        return jac

    if cam.kind is CameraKind.RADTAN4:
        k1, k2, p1, p2 = cam.distortion
        xn, yn = x / z, y / z
        r2 = xn * xn + yn * yn
        radial = 1.0 + k1 * r2 + k2 * r2 * r2
        dr = k1 + 2.0 * k2 * r2
        d00 = radial + 2.0 * xn * xn * dr + 2.0 * p1 * yn + 6.0 * p2 * xn
        d01 = 2.0 * xn * yn * dr + 2.0 * p1 * xn + 2.0 * p2 * yn
        d11 = radial + 2.0 * yn * yn * dr + 6.0 * p1 * yn + 2.0 * p2 * xn
        jn = np.zeros((n, 2, 3))
        jn[:, 0, 0] = 1.0 / z
        jn[:, 0, 2] = -x / z**2
        jn[:, 1, 1] = 1.0 / z
        jn[:, 1, 2] = -y / z**2
        jd = np.stack(
            [np.stack([d00, d01], axis=-1), np.stack([d01, d11], axis=-1)], axis=1
        )
        out = np.einsum("nij,njk->nik", jd, jn)
        out[:, 0, :] *= cam.fx
        out[:, 1, :] *= cam.fy
        return out

    k = cam.distortion
    rho = np.hypot(x, y)
    on_axis = rho < 1e-9 * np.maximum(np.abs(z), 1.0)
    safe_rho = np.where(on_axis, 1.0, rho)
    norm2 = rho * rho + z * z
    theta = np.arctan2(rho, z)
    theta_d = _kb4_theta_d(theta, k)
    dtd = _kb4_theta_d_prime(theta, k)
    dtheta = np.stack([z * x / safe_rho, z * y / safe_rho, -rho], axis=1) / norm2[:, None]
    drho = np.stack([x / safe_rho, y / safe_rho, np.zeros(n)], axis=1)
    ex = np.zeros((n, 3))
    ex[:, 0] = 1.0
    ey = np.zeros((n, 3))
    ey[:, 1] = 1.0
    du = cam.fx * (
        (dtd * x / safe_rho)[:, None] * dtheta
        + theta_d[:, None] * (ex / safe_rho[:, None] - (x / safe_rho**2)[:, None] * drho)
    )
    dv = cam.fy * (
        (dtd * y / safe_rho)[:, None] * dtheta
        + theta_d[:, None] * (ey / safe_rho[:, None] - (y / safe_rho**2)[:, None] * drho)
    )
    jac[:, 0, :] = du
    jac[:, 1, :] = dv
    if on_axis.any():
        idx = np.flatnonzero(on_axis)
        jac[idx] = 0.0
        jac[idx, 0, 0] = cam.fx / z[idx]
        jac[idx, 1, 1] = cam.fy / z[idx]
    return jac


@dataclass(frozen=True)
class RigCalibration:
    """Sensor rig: camera models with extrinsics plus the IMU mounting.

    Extrinsics map device-frame points into the sensor frame
    (``p_cam = cam_from_device * p_device``).
    """

    cameras: dict[str, CameraModel]
    camera_from_device: dict[str, RigidPose]
    imu_from_device: RigidPose = field(default_factory=RigidPose.identity)
    imu_noise: "ImuNoise | None" = None

    def __post_init__(self):
        if set(self.cameras) != set(self.camera_from_device):
            raise ValueError("camera ids of models and extrinsics differ")


def camera_from_frame(
    device_pose: Similarity | RigidPose, cam_from_device: RigidPose
) -> tuple[np.ndarray, np.ndarray]:
    """Affine map (A, b) with p_cam = A p_frame + b.

    ``device_pose`` maps device coordinates into the working frame; it may
    carry a scale when the frame is a monocular SLAM frame, in which case
    the map de-scales before applying the metric rig extrinsics.
    """
    if isinstance(device_pose, RigidPose):
        device_pose = Similarity.from_rigid(device_pose)
    r_dev = device_pose.rotation.matrix()
    a = (cam_from_device.rotation.matrix() @ r_dev.T) / device_pose.scale
    b = cam_from_device.translation - a @ device_pose.translation
    return a, b


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Timestamped device poses, ordered by strictly increasing time."""

    timestamps: np.ndarray  # int64 nanoseconds, (N,)
    poses: tuple[RigidPose, ...]

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64).reshape(-1)
        if len(ts) != len(self.poses):
            raise ValueError("timestamp count and pose count differ")
        if len(ts) > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("trajectory timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "poses", tuple(self.poses))
        self.timestamps.setflags(write=False)

    def __len__(self):
        return len(self.timestamps)

    def positions(self) -> np.ndarray:
        if not self.poses:
            return np.zeros((0, 3))
        return np.stack([p.translation for p in self.poses])

    def pose_map(self) -> dict[int, RigidPose]:
        return {int(t): p for t, p in zip(self.timestamps, self.poses)}

    def span_seconds(self) -> float:
        if len(self) < 2:
            return 0.0
        return float(self.timestamps[-1] - self.timestamps[0]) * 1e-9

    def transformed(self, transform: Similarity) -> "Trajectory":
        """Map the trajectory into a new frame: positions get the full
        similarity action, orientations only the rotation."""
        poses = tuple(
            RigidPose(transform.rotation @ p.rotation, transform.apply(p.translation))
            for p in self.poses
        )
        return Trajectory(self.timestamps.copy(), poses)
