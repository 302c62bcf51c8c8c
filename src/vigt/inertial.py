"""IMU preintegration between keyframes.

Summarizes gyroscope/accelerometer samples over an interval into relative
rotation/velocity/position deltas with a 9x9 covariance (rotation,
velocity, position tangent order) and first-order bias Jacobians, plus the
residuals the fusion factor graph is built from.

Integration uses the midpoint rule per sample interval; sample streams are
timestamped in integer nanoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImuDataError
from .geometry import (
    RigidPose,
    Rotation,
    skew,
    so3_exp_matrix,
    so3_right_jacobian,
    so3_right_jacobian_inverse,
)

GRAVITY_W = np.array([0.0, 0.0, -9.81])

BIAS_CORRECTION_WARN_NORM = 0.1


@dataclass(frozen=True)
class ImuNoise:
    """Continuous-time noise densities, as found in datasheets."""

    gyro_density: float  # rad/s/sqrt(Hz)
    accel_density: float  # m/s^2/sqrt(Hz)
    gyro_walk: float  # rad/s^2/sqrt(Hz)
    accel_walk: float  # m/s^3/sqrt(Hz)

    def __post_init__(self):
        if min(self.gyro_density, self.accel_density, self.gyro_walk, self.accel_walk) <= 0:
            raise ValueError("all noise densities must be positive")


@dataclass(frozen=True)
class Bias:
    gyro: np.ndarray
    accel: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gyro", np.asarray(self.gyro, dtype=float).reshape(3))
        object.__setattr__(self, "accel", np.asarray(self.accel, dtype=float).reshape(3))

    @staticmethod
    def zero() -> "Bias":
        return Bias(np.zeros(3), np.zeros(3))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.gyro, self.accel])

    @staticmethod
    def from_vector(v) -> "Bias":
        v = np.asarray(v, dtype=float).reshape(6)
        return Bias(v[:3], v[3:])


@dataclass(frozen=True, eq=False)
class ImuStream:
    """Column-stored IMU samples with strictly increasing timestamps."""

    timestamps: np.ndarray  # int64 ns, (N,)
    gyro: np.ndarray  # (N, 3)
    accel: np.ndarray  # (N, 3)

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64).reshape(-1)
        gyro = np.asarray(self.gyro, dtype=float).reshape(-1, 3)
        accel = np.asarray(self.accel, dtype=float).reshape(-1, 3)
        if not (len(ts) == len(gyro) == len(accel)):
            raise ValueError("stream arrays have mismatched lengths")
        if len(ts) > 1 and not np.all(np.diff(ts) > 0):
            raise ImuDataError("IMU timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "gyro", gyro)
        object.__setattr__(self, "accel", accel)

    def __len__(self):
        return len(self.timestamps)

    def between(self, t_start_ns: int, t_end_ns: int) -> "ImuStream":
        """Samples covering [t_start, t_end], with measurements linearly
        interpolated onto the exact boundary instants."""
        ts = self.timestamps
        if t_end_ns <= t_start_ns:
            raise ImuDataError("interval end must be after start")
        if t_start_ns < ts[0] or t_end_ns > ts[-1]:
            raise ImuDataError(
                f"IMU stream [{ts[0]}, {ts[-1]}] does not cover"
                f" [{t_start_ns}, {t_end_ns}]"
            )
        inner = (ts > t_start_ns) & (ts < t_end_ns)
        parts_t = [np.array([t_start_ns], dtype=np.int64), ts[inner], np.array([t_end_ns], dtype=np.int64)]
        parts_g = [self._interp(t_start_ns, self.gyro), self.gyro[inner], self._interp(t_end_ns, self.gyro)]
        parts_a = [self._interp(t_start_ns, self.accel), self.accel[inner], self._interp(t_end_ns, self.accel)]
        return ImuStream(
            np.concatenate(parts_t), np.vstack(parts_g), np.vstack(parts_a)
        )

    def _interp(self, t_ns: int, values: np.ndarray) -> np.ndarray:
        ts = self.timestamps
        idx = np.searchsorted(ts, t_ns)
        if idx < len(ts) and ts[idx] == t_ns:
            return values[idx : idx + 1]
        lo, hi = idx - 1, idx
        w = (t_ns - ts[lo]) / (ts[hi] - ts[lo])
        return (1.0 - w) * values[lo : lo + 1] + w * values[hi : hi + 1]


@dataclass
class PreintegratedSegment:
    """Relative motion accumulated between two instants.

    Covariance and bias Jacobians live on the (rotation, velocity,
    position) tangent, in that order.
    """

    t_start_ns: int
    t_end_ns: int
    dt: float  # seconds
    delta_rot: Rotation
    delta_vel: np.ndarray
    delta_pos: np.ndarray
    covariance: np.ndarray  # (9, 9)
    d_rot_d_bg: np.ndarray  # (3, 3)
    d_vel_d_bg: np.ndarray
    d_vel_d_ba: np.ndarray
    d_pos_d_bg: np.ndarray
    d_pos_d_ba: np.ndarray
    lin_bias: Bias
    gap_warning: bool = False


def preintegrate(stream: ImuStream, bias: Bias, noise: ImuNoise) -> PreintegratedSegment:
    """Integrate a sample stream into relative motion deltas.

    The stream must contain at least two samples; its first and last
    timestamps define the integration interval.
    """
    if len(stream) < 2:
        raise ImuDataError("preintegration needs at least one sample interval")
    ts = (stream.timestamps - stream.timestamps[0]) * 1e-9
    dts = np.diff(ts)
    gap_warning = bool(len(dts) > 2 and dts.max() > 5.0 * np.median(dts))

    gyro = stream.gyro - bias.gyro
    accel = stream.accel - bias.accel
    # midpoint rule: average consecutive samples over each interval
    w_mid = 0.5 * (gyro[:-1] + gyro[1:])
    a_mid = 0.5 * (accel[:-1] + accel[1:])

    d_rot = np.eye(3)
    d_vel = np.zeros(3)
    d_pos = np.zeros(3)
    cov = np.zeros((9, 9))
    j_r_bg = np.zeros((3, 3))
    j_v_bg = np.zeros((3, 3))
    j_v_ba = np.zeros((3, 3))
    j_p_bg = np.zeros((3, 3))
    j_p_ba = np.zeros((3, 3))

    sg2 = noise.gyro_density**2
    sa2 = noise.accel_density**2

    for k in range(len(dts)):
        dt = float(dts[k])
        if dt <= 0.0:
            continue
        w, a = w_mid[k], a_mid[k]
        rotvec = w * dt
        step = so3_exp_matrix(rotvec)
        jr = so3_right_jacobian(rotvec)
        r_half = d_rot @ so3_exp_matrix(0.5 * w * dt)
        a_skew = skew(a)

        # covariance propagation (rotation, velocity, position)
        f = np.eye(9)
        f[0:3, 0:3] = step.T
        f[3:6, 0:3] = -r_half @ a_skew * dt
        f[6:9, 0:3] = -0.5 * r_half @ a_skew * dt**2
        f[6:9, 3:6] = np.eye(3) * dt

        q = np.zeros((9, 9))
        q[0:3, 0:3] = jr @ jr.T * (sg2 * dt)
        q[3:6, 3:6] = r_half @ r_half.T * (sa2 * dt)
        q[6:9, 6:9] = r_half @ r_half.T * (0.25 * sa2 * dt**3)
        q[3:6, 6:9] = r_half @ r_half.T * (0.5 * sa2 * dt**2)
        q[6:9, 3:6] = q[3:6, 6:9].T
        cov = f @ cov @ f.T + q

        # first-order sensitivities to the linearization bias
        j_p_bg += j_v_bg * dt - 0.5 * r_half @ a_skew @ j_r_bg * dt**2
        j_p_ba += j_v_ba * dt - 0.5 * r_half * dt**2
        j_v_bg += -r_half @ a_skew @ j_r_bg * dt
        j_v_ba += -r_half * dt
        j_r_bg = step.T @ j_r_bg - jr * dt

        # state integration
        d_pos = d_pos + d_vel * dt + 0.5 * (r_half @ a) * dt**2
        d_vel = d_vel + (r_half @ a) * dt
        d_rot = d_rot @ step

    return PreintegratedSegment(
        t_start_ns=int(stream.timestamps[0]),
        t_end_ns=int(stream.timestamps[-1]),
        dt=float(ts[-1]),
        delta_rot=Rotation.from_matrix(d_rot),
        delta_vel=d_vel,
        delta_pos=d_pos,
        covariance=0.5 * (cov + cov.T),
        d_rot_d_bg=j_r_bg,
        d_vel_d_bg=j_v_bg,
        d_vel_d_ba=j_v_ba,
        d_pos_d_bg=j_p_bg,
        d_pos_d_ba=j_p_ba,
        lin_bias=bias,
        gap_warning=gap_warning,
    )


def bias_correct(
    seg: PreintegratedSegment, bias: Bias
) -> tuple[Rotation, np.ndarray, np.ndarray, bool]:
    """First-order update of the deltas to a new bias, without
    re-integration. Returns (rotation, velocity, position, warned); `warned`
    is set when the correction's norm exceeds BIAS_CORRECTION_WARN_NORM,
    past the first-order linearization range."""
    d_bg = bias.gyro - seg.lin_bias.gyro
    d_ba = bias.accel - seg.lin_bias.accel
    norm = float(np.linalg.norm(np.concatenate([d_bg, d_ba])))
    rot = seg.delta_rot @ Rotation.exp(seg.d_rot_d_bg @ d_bg)
    vel = seg.delta_vel + seg.d_vel_d_bg @ d_bg + seg.d_vel_d_ba @ d_ba
    pos = seg.delta_pos + seg.d_pos_d_bg @ d_bg + seg.d_pos_d_ba @ d_ba
    return rot, vel, pos, norm > BIAS_CORRECTION_WARN_NORM


def preintegration_residual(
    seg: PreintegratedSegment,
    pose_i: RigidPose,
    vel_i: np.ndarray,
    pose_j: RigidPose,
    vel_j: np.ndarray,
    bias_i: Bias,
) -> np.ndarray:
    """9-vector (rotation, velocity, position) preintegration residual."""
    d_rot, d_vel, d_pos, _ = bias_correct(seg, bias_i)
    r_i = pose_i.rotation.matrix()
    dt = seg.dt
    rot_err = (d_rot.inverse() @ (pose_i.rotation.inverse() @ pose_j.rotation)).log()
    vel_err = r_i.T @ (vel_j - vel_i - GRAVITY_W * dt) - d_vel
    pos_err = (
        r_i.T
        @ (pose_j.translation - pose_i.translation - vel_i * dt - 0.5 * GRAVITY_W * dt**2)
        - d_pos
    )
    return np.concatenate([rot_err, vel_err, pos_err])


def preintegration_residual_jacobians(
    seg: PreintegratedSegment,
    pose_i: RigidPose,
    vel_i: np.ndarray,
    pose_j: RigidPose,
    vel_j: np.ndarray,
    bias_i: Bias,
) -> list[np.ndarray]:
    """Tangent Jacobians for (pose_i, vel_i, pose_j, vel_j, bias_i).

    Pose tangents are (rotation, translation); rotations perturb on the
    right, translations additively in the world frame.
    """
    d_bg = bias_i.gyro - seg.lin_bias.gyro
    d_rot, _, _, _ = bias_correct(seg, bias_i)
    r_i = pose_i.rotation.matrix()
    r_j = pose_j.rotation.matrix()
    dt = seg.dt

    rot_err = (d_rot.inverse() @ (pose_i.rotation.inverse() @ pose_j.rotation)).log()
    jr_inv = so3_right_jacobian_inverse(rot_err)
    exp_err = so3_exp_matrix(rot_err)

    v_term = r_i.T @ (vel_j - vel_i - GRAVITY_W * dt)
    p_term = r_i.T @ (
        pose_j.translation - pose_i.translation - vel_i * dt - 0.5 * GRAVITY_W * dt**2
    )

    j_pose_i = np.zeros((9, 6))
    j_pose_i[0:3, 0:3] = -jr_inv @ r_j.T @ r_i
    j_pose_i[3:6, 0:3] = skew(v_term)
    j_pose_i[6:9, 0:3] = skew(p_term)
    j_pose_i[6:9, 3:6] = -r_i.T

    j_vel_i = np.zeros((9, 3))
    j_vel_i[3:6] = -r_i.T
    j_vel_i[6:9] = -r_i.T * dt

    j_pose_j = np.zeros((9, 6))
    j_pose_j[0:3, 0:3] = jr_inv
    j_pose_j[6:9, 3:6] = r_i.T

    j_vel_j = np.zeros((9, 3))
    j_vel_j[3:6] = r_i.T

    j_bias = np.zeros((9, 6))
    j_bias[0:3, 0:3] = (
        -jr_inv @ exp_err.T @ so3_right_jacobian(seg.d_rot_d_bg @ d_bg) @ seg.d_rot_d_bg
    )
    j_bias[3:6, 0:3] = -seg.d_vel_d_bg
    j_bias[3:6, 3:6] = -seg.d_vel_d_ba
    j_bias[6:9, 0:3] = -seg.d_pos_d_bg
    j_bias[6:9, 3:6] = -seg.d_pos_d_ba

    return [j_pose_i, j_vel_i, j_pose_j, j_vel_j, j_bias]


def bias_walk_covariance(noise: ImuNoise, dt: float) -> np.ndarray:
    """Covariance of the bias increment over dt seconds."""
    return np.diag(
        [noise.gyro_walk**2 * dt] * 3 + [noise.accel_walk**2 * dt] * 3
    )
