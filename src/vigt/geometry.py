"""Rotations, rigid poses, similarity transforms, and camera models.

All types are immutable values and all operations are pure functions, so
everything here is safe to share across threads. Rotations are stored as
unit quaternions in (w, x, y, z) order and renormalized after every
composition so long chains cannot drift.

Each rotation map is written once and serves both a single `Rotation` and
a stack of (..., 4) quaternions or (..., 3, 3) matrices: the Hamilton
product (`_product`), the quaternion-to-matrix map (`_matrix_entries`)
and the norm that every normalization divides by (`_norm`) take
quaternion components, the scalars of one rotation or the last-axis
slices of a stack; the exponential (`quat_exp`), the logarithm
(`quat_log`) and the matrix-to-quaternion map (`quat_from_matrix`) take
stacks, one rotation being the stack of one. `quat_exp` is the one
exponential: the matrix of Exp(v) is `quat_to_matrix(quat_exp(v))`, for
`Rotation.exp` and the stacked IMU steps of `inertial` alike.

The camera functions (`try_project`, `projection_jacobian_batch`,
`clamp_depth`, `unproject`) are written once in the same way: they take
a `CameraModel`, whose scalar intrinsics apply to every point, or a
`CameraStack` of one camera's intrinsics per point, all of one projection
kind, and run the same per-row formulas on both. The affine maps of many
camera frames come from one stacked call (`camera_maps`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import UnprojectionError

if TYPE_CHECKING:
    from .inertial import ImuNoise

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


def _angle_terms(rotvec):
    """Cross-product matrices K of (..., 3) rotation vectors, the (..., 1, 1)
    mask of angles below 1e-6, and the angles with those replaced by 1, so
    the closed forms never divide by zero."""
    rotvec = np.asarray(rotvec, dtype=float)
    theta = np.linalg.norm(rotvec, axis=-1)[..., None, None]
    small = theta < 1e-6
    return skew(rotvec), small, np.where(small, 1.0, theta)


def so3_right_jacobian(rotvec: np.ndarray) -> np.ndarray:
    """Right Jacobian of SO(3): Exp(v + dv) ~= Exp(v) Exp(Jr(v) dv); takes
    (..., 3) and returns (..., 3, 3)."""
    k, small, t = _angle_terms(rotvec)
    a = np.where(small, 0.5, (1.0 - np.cos(t)) / t**2)
    b = np.where(small, 1.0 / 6.0, (t - np.sin(t)) / t**3)
    return np.eye(3) - a * k + b * (k @ k)


def so3_right_jacobian_inverse(rotvec: np.ndarray) -> np.ndarray:
    """Inverse of the right Jacobian of SO(3); (..., 3) to (..., 3, 3)."""
    k, small, t = _angle_terms(rotvec)
    b = np.where(
        small, 1.0 / 12.0, 1.0 / t**2 - (1.0 + np.cos(t)) / (2.0 * t * np.sin(t))
    )
    return np.eye(3) + 0.5 * k + b * (k @ k)


def _product(w1, x1, y1, z1, w2, x2, y2, z2):
    """Components (w, x, y, z) of the Hamilton product of two quaternions,
    given as scalars or as arrays of each component."""
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _matrix_entries(w, x, y, z):
    """The nine entries, row by row, of the rotation matrix of a unit
    quaternion, given as scalars or as arrays of each component."""
    return (
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )


def _norm(w, x, y, z):
    """Norm of a quaternion, given as scalars or as arrays of each
    component: the one normalization of every quaternion, so that a
    `Rotation` and a row of a stack with the same components round alike."""
    return np.sqrt(w * w + x * x + y * y + z * z)


def _components(q: np.ndarray) -> list[np.ndarray]:
    return [q[..., i] for i in range(4)]


def _unit(q: np.ndarray) -> np.ndarray:
    """(..., 4) quaternions divided by their norms."""
    return q / _norm(*_components(q))[..., None]


def quat_multiply(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton products of (..., 4) quaternions (w, x, y, z), renormalized."""
    q1, q2 = np.asarray(q1, dtype=float), np.asarray(q2, dtype=float)
    return _unit(np.stack(_product(*_components(q1), *_components(q2)), axis=-1))


def quat_exp(rotvec: np.ndarray) -> np.ndarray:
    """Unit quaternions of (..., 3) rotation vectors (axis * angle)."""
    v = np.asarray(rotvec, dtype=float)
    theta = np.linalg.norm(v, axis=-1, keepdims=True)
    small = theta < 1e-12
    t = np.where(small, 1.0, theta)
    w = np.where(small, 1.0, np.cos(0.5 * t))
    xyz = np.where(small, 0.5 * v, np.sin(0.5 * t) * (v / t))
    return _unit(np.concatenate([w, xyz], axis=-1))


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
    m = np.stack(_matrix_entries(*_components(q)), axis=-1)
    return m.reshape(q.shape[:-1] + (3, 3))


def quat_from_matrix(m: np.ndarray) -> np.ndarray:
    """Quaternions (..., 4) of (..., 3, 3) rotation matrices, by Shepperd's
    method (J. Guidance and Control, 1978): each matrix takes the branch of
    the trace if it is positive, else of its largest diagonal entry, so the
    square root it divides by is never small. Not normalized."""
    m = np.asarray(m, dtype=float)
    m00, m11, m22 = m[..., 0, 0], m[..., 1, 1], m[..., 2, 2]
    t = m00 + m11 + m22
    largest = np.where((m00 >= m11) & (m00 >= m22), 1, np.where(m11 >= m22, 2, 3))
    branch = np.where(t > 0.0, 0, largest)
    radicands = (t + 1.0, 1.0 + m00 - m11 - m22, 1.0 + m11 - m00 - m22, 1.0 + m22 - m00 - m11)
    s = np.sqrt(np.choose(branch, radicands)) * 2.0
    quarter = 0.25 * s
    dx, sxy = (m[..., 2, 1] - m[..., 1, 2]) / s, (m[..., 0, 1] + m[..., 1, 0]) / s
    dy, sxz = (m[..., 0, 2] - m[..., 2, 0]) / s, (m[..., 0, 2] + m[..., 2, 0]) / s
    dz, syz = (m[..., 1, 0] - m[..., 0, 1]) / s, (m[..., 1, 2] + m[..., 2, 1]) / s
    # component i (w, x, y, z) of branch b is entry (i, b) of this symmetric table
    table = (
        (quarter, dx, dy, dz),
        (dx, quarter, sxy, sxz),
        (dy, sxy, quarter, syz),
        (dz, sxz, syz, quarter),
    )
    return np.stack([np.choose(branch, row) for row in table], axis=-1)


@dataclass(frozen=True, eq=False)
class Rotation:
    """3D rotation stored as a unit quaternion (w, x, y, z)."""

    quat: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.quat, dtype=float).reshape(4)
        n = float(_norm(*q.tolist()))
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
        return Rotation(quat_exp(np.reshape(rotvec, 3)))

    @staticmethod
    def from_matrix(m: np.ndarray) -> "Rotation":
        """Shepperd's method, numerically stable for all rotation matrices."""
        return Rotation(quat_from_matrix(m))

    def log(self) -> np.ndarray:
        """Tangent 3-vector (axis * angle), angle in [0, pi]."""
        return quat_log(self.quat)

    def matrix(self) -> np.ndarray:
        return np.array(_matrix_entries(*self.quat)).reshape(3, 3)

    def apply(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return p @ self.matrix().T

    def compose(self, other: "Rotation") -> "Rotation":
        return Rotation(np.array(_product(*self.quat, *other.quat)))

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
    model and (k1, k2, k3, k4) for the equidistant fisheye model. A pinhole
    has none: it is the radial-tangential model with zero coefficients, and
    every camera function computes it as such.
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

    @property
    def intrinsics(self) -> tuple[float, ...]:
        """fx, fy, cx, cy and the four distortion coefficients (zero for a
        pinhole): this camera's row of a `CameraStack`."""
        return (self.fx, self.fy, self.cx, self.cy, *_coefficients(self))


class CameraStack(NamedTuple):
    """One camera's intrinsics per point for n points of one projection
    kind, `KANNALA_BRANDT4` or `RADTAN4` (a pinhole's row has zero
    coefficients): the fields of a `CameraModel`, each an (n,) array. The
    camera functions take it wherever they take a `CameraModel` and compute
    row k by the same formulas, in the same order, as a call on row k's own
    model, so the two agree bit for bit."""

    kind: CameraKind
    fx: np.ndarray
    fy: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    distortion: tuple[np.ndarray, ...]

    @classmethod
    def of(cls, kind: CameraKind, intrinsics: np.ndarray) -> "CameraStack":
        """The stack of (n, 8) rows of `CameraModel.intrinsics`."""
        fx, fy, cx, cy, *k = intrinsics.T
        return cls(kind, fx, fy, cx, cy, tuple(k))


def _coefficients(cam: CameraModel | CameraStack) -> tuple:
    """The four distortion coefficients of a camera; zero for a pinhole."""
    return cam.distortion or (0.0,) * 4


def _kb4_theta_d(theta, k):
    t2 = theta * theta
    return theta * (1.0 + t2 * (k[0] + t2 * (k[1] + t2 * (k[2] + t2 * k[3]))))


def _kb4_theta_d_prime(theta, k):
    t2 = theta * theta
    return 1.0 + t2 * (3 * k[0] + t2 * (5 * k[1] + t2 * (7 * k[2] + t2 * 9 * k[3])))


def try_project(
    cam: CameraModel | CameraStack, p_cam: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Project points, returning (pixels, valid mask) instead of raising.

    Accepts a single (3,) point or an (N, 3) batch, and a `CameraStack` of
    one camera per point; pixels for invalid entries are NaN. A pinhole
    projects as the radial-tangential model with zero coefficients.
    """
    pts = np.atleast_2d(np.asarray(p_cam, dtype=float))
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    uv = np.full((len(pts), 2), np.nan)

    if cam.kind is CameraKind.KANNALA_BRANDT4:
        k = cam.distortion
        rho = np.hypot(x, y)
        norm = np.sqrt(rho * rho + z * z)
        on_axis = rho < 1e-12 * np.maximum(norm, 1.0)
        # valid everywhere except the origin and points exactly behind on-axis
        valid = (norm > 1e-12) & ~(on_axis & (z <= 0.0))
        theta = np.arctan2(rho, z)
        theta_d = _kb4_theta_d(theta, k)
        scale = np.where(on_axis, 0.0, theta_d / np.where(rho == 0.0, 1.0, rho))
        uv[:, 0] = cam.fx * scale * x + cam.cx
        uv[:, 1] = cam.fy * scale * y + cam.cy
    else:
        k1, k2, p1, p2 = _coefficients(cam)
        valid = z > 0.0
        zq = np.where(valid, z, 1.0)
        xn, yn = x / zq, y / zq
        r2 = xn * xn + yn * yn
        radial = 1.0 + k1 * r2 + k2 * r2 * r2
        xd = xn * radial + 2.0 * p1 * xn * yn + p2 * (r2 + 2.0 * xn * xn)
        yd = yn * radial + p1 * (r2 + 2.0 * yn * yn) + 2.0 * p2 * xn * yn
        uv[:, 0] = cam.fx * xd + cam.cx
        uv[:, 1] = cam.fy * yd + cam.cy

    uv[~valid] = np.nan
    if np.asarray(p_cam).ndim == 1:
        return uv[0], bool(valid[0])
    return uv, valid


# a diverging inversion may overflow or divide by zero; its row then fails
# its convergence test, which inf and NaN fail too
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def unproject(
    cam: CameraModel | CameraStack, px: np.ndarray
) -> tuple[np.ndarray, dict[int, UnprojectionError]]:
    """Back-project (N, 2) pixels to (N, 3) unit camera-frame rays, through
    one camera or a `CameraStack` of one per pixel, each pixel exactly as it
    would be alone: a radial-tangential pixel (a pinhole one included) stops
    its inversion once its own update is below tolerance. Also returns the
    UnprojectionError of every pixel that is not finite or does not invert,
    keyed by its row; the rays of those pixels are NaN."""
    px = np.asarray(px, dtype=float)
    finite = np.isfinite(px).all(axis=1)
    failures = {
        int(i): UnprojectionError(f"pixel ({px[i, 0]}, {px[i, 1]}) is not finite")
        for i in np.flatnonzero(~finite)
    }
    px = np.where(finite[:, None], px, np.nan)  # NaN runs without warnings
    mx = (px[:, 0] - cam.cx) / cam.fx
    my = (px[:, 1] - cam.cy) / cam.fy

    if cam.kind is CameraKind.KANNALA_BRANDT4:
        k = cam.distortion
        theta_d = np.hypot(mx, my)
        theta = theta_d.copy()
        for _ in range(_INVERSION_ITERS):
            f = _kb4_theta_d(theta, k) - theta_d
            theta = theta - f / _kb4_theta_d_prime(theta, k)
        residual = np.abs(_kb4_theta_d(theta, k) - theta_d)
        for i in np.flatnonzero(finite & ~(residual <= 1e-9)):  # NaN fails too
            failures[int(i)] = UnprojectionError(
                f"fisheye angle inversion did not converge"
                f" within {_INVERSION_ITERS} iterations (residual {residual[i]:.2e})"
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
    else:
        k1, k2, p1, p2 = _coefficients(cam)
        xn, yn = mx.copy(), my.copy()
        step = np.where(finite, np.inf, 0.0)  # a non-finite pixel never runs
        for _ in range(_INVERSION_ITERS):
            running = ~(step < _INVERSION_TOL)
            if not running.any():
                break
            r2 = xn * xn + yn * yn
            radial = 1.0 + k1 * r2 + k2 * r2 * r2
            dx = 2.0 * p1 * xn * yn + p2 * (r2 + 2.0 * xn * xn)
            dy = p1 * (r2 + 2.0 * yn * yn) + 2.0 * p2 * xn * yn
            xn_new = (mx - dx) / radial
            yn_new = (my - dy) / radial
            step = np.where(running, np.hypot(xn_new - xn, yn_new - yn), step)
            xn, yn = np.where(running, xn_new, xn), np.where(running, yn_new, yn)
        for i in np.flatnonzero(~(step < _INVERSION_TOL)):  # NaN fails too
            failures[int(i)] = UnprojectionError(
                f"radial-tangential inversion did not converge"
                f" within {_INVERSION_ITERS} iterations (step {step[i]:.2e})"
            )
        dirs = np.stack([xn, yn, np.ones_like(xn)], axis=1)

    dirs[list(failures)] = np.nan
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs, failures


def clamp_depth(
    cam: CameraModel | CameraStack, p_cam: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Move camera-frame points into the domain where projections and
    Jacobians are finite, so an optimizer can reject a wandering trial step
    by its cost: z >= MIN_DEPTH for the pinhole-based models, the optical
    axis for fisheye points within MIN_DEPTH of the centre. Takes a (3,)
    point or an (N, 3) batch and returns a clamped copy and whether the
    clamp moved each point."""
    out = np.array(p_cam, dtype=float)
    if cam.kind is CameraKind.KANNALA_BRANDT4:
        moved = np.linalg.norm(out, axis=-1) < MIN_DEPTH
        out[moved] = (0.0, 0.0, MIN_DEPTH)
    else:
        moved = out[..., 2] < MIN_DEPTH
        out[..., 2] = np.maximum(out[..., 2], MIN_DEPTH)
    return out, moved


def projection_jacobian_batch(cam: CameraModel | CameraStack, pts: np.ndarray) -> np.ndarray:
    """Vectorized d(pixel)/d(point): (N, 3) points to (N, 2, 3) Jacobians,
    through one camera or a `CameraStack` of one per point.

    Callers must pass points inside the model domain (z > 0 for the
    pinhole-based kinds); on-axis fisheye points fall back to the pinhole
    limit.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    n = len(pts)
    jac = np.zeros((n, 2, 3))
    # the focal lengths as a column: one per row, or one for all
    fx, fy = np.reshape(cam.fx, (-1, 1)), np.reshape(cam.fy, (-1, 1))

    if cam.kind is not CameraKind.KANNALA_BRANDT4:
        k1, k2, p1, p2 = _coefficients(cam)
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
        out[:, 0, :] *= fx
        out[:, 1, :] *= fy
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
    du = fx * (
        (dtd * x / safe_rho)[:, None] * dtheta
        + theta_d[:, None] * (ex / safe_rho[:, None] - (x / safe_rho**2)[:, None] * drho)
    )
    dv = fy * (
        (dtd * y / safe_rho)[:, None] * dtheta
        + theta_d[:, None] * (ey / safe_rho[:, None] - (y / safe_rho**2)[:, None] * drho)
    )
    jac[:, 0, :] = du
    jac[:, 1, :] = dv
    if on_axis.any():
        idx = np.flatnonzero(on_axis)
        jac[idx] = 0.0
        jac[idx, 0, 0] = np.broadcast_to(fx, (n, 1))[idx, 0] / z[idx]
        jac[idx, 1, 1] = np.broadcast_to(fy, (n, 1))[idx, 0] / z[idx]
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


def camera_maps(
    device_quats: np.ndarray,
    device_translations: np.ndarray,
    device_scales: np.ndarray,
    cam_rotations: np.ndarray,
    cam_translations: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Affine maps (A, b), (F, 3, 3) and (F, 3), with p_cam = A p_frame + b
    of F frames. Frame f has the camera-from-device extrinsics
    (cam_rotations[f], cam_translations[f]) and the device pose, which maps
    device coordinates into the working frame, (device_quats[f],
    device_translations[f], device_scales[f]); a scale other than 1 (a
    monocular SLAM frame) is removed before the metric extrinsics apply."""
    r_dev = quat_to_matrix(device_quats)
    a = (cam_rotations @ np.swapaxes(r_dev, 1, 2)) / device_scales[:, None, None]
    b = cam_translations - (a @ device_translations[:, :, None])[:, :, 0]
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
