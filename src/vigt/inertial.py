"""IMU preintegration between keyframes.

Summarizes gyroscope/accelerometer samples over an interval into relative
rotation/velocity/position deltas with a 9x9 covariance (rotation,
velocity, position tangent order) and first-order bias Jacobians, plus the
residuals the fusion factor graph is built from.

Integration uses the midpoint rule per sample interval; sample streams are
timestamped in integer nanoseconds.

Segments are integrated and evaluated stacked. A `SegmentStack` holds S
segments as arrays over a leading segment axis: interval bounds and
lengths (S,), rotation deltas as (S, 4) unit quaternions (w, x, y, z),
velocity and position deltas (S, 3), covariances (S, 9, 9), bias
Jacobians (S, 3, 3) and linearization biases (S, 6) as (gyro, accel).
`preintegrate_stack` integrates all segments in lockstep, one sample index
at a time over (S, L, ...) arrays, shorter streams padded with zero-length
steps; the per-sample rotation maps are computed for all samples before
the recurrence. The residual and its Jacobians are evaluated for all
segments in one call each, (S, 9) and (S, 9, k), from keyframe poses
given as (S, 7) rows [qw qx qy qz | t], the solver's pose rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import ImuDataError
from .geometry import (
    Rotation,
    quat_exp,
    quat_log,
    quat_multiply,
    quat_to_matrix,
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
        # the samples strictly inside the interval
        inner = slice(np.searchsorted(ts, t_start_ns, "right"), np.searchsorted(ts, t_end_ns, "left"))
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


@dataclass(frozen=True, eq=False)
class SegmentStack:
    """S preintegrated segments, the relative motion accumulated between
    two instants, as arrays over a leading segment axis; a one-segment
    interval is the S = 1 stack.

    Covariances and bias Jacobians live on the (rotation, velocity,
    position) tangent, in that order. `gap_warning` flags a segment whose
    longest sample interval exceeds five times its median one.
    """

    t_start_ns: np.ndarray  # (S,) int64, first sample
    t_end_ns: np.ndarray  # (S,) int64, last sample
    dt: np.ndarray  # (S,) seconds
    delta_rot: np.ndarray  # (S, 4) unit quaternions (w, x, y, z)
    delta_vel: np.ndarray  # (S, 3)
    delta_pos: np.ndarray  # (S, 3)
    covariance: np.ndarray  # (S, 9, 9)
    d_rot_d_bg: np.ndarray  # (S, 3, 3)
    d_vel_d_bg: np.ndarray  # (S, 3, 3) each
    d_vel_d_ba: np.ndarray
    d_pos_d_bg: np.ndarray
    d_pos_d_ba: np.ndarray
    lin_bias: np.ndarray  # (S, 6) linearization biases (gyro, accel)
    gap_warning: np.ndarray  # (S,) bool

    def __len__(self):
        return len(self.dt)


# segments integrated at once; the per-sample maps take 45 doubles per
# sample of every segment in the chunk
_SEGMENT_CHUNK = 128


def _transpose(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector products over the leading axes: (..., i, j), (..., j)."""
    return (m @ v[..., None])[..., 0]


def preintegrate_stack(
    streams: Sequence[ImuStream], biases: np.ndarray, noise: ImuNoise
) -> SegmentStack:
    """Integrate S sample streams in lockstep, stream s at the
    linearization bias `biases[s]` ((S, 6) rows (gyro, accel)).

    Every stream needs at least two samples; its first and last timestamps
    define its interval. Shorter streams are padded with zero-length
    steps, which leave every recurrence unchanged, so the loop runs once
    per sample index of the longest stream. The segments are integrated
    `_SEGMENT_CHUNK` at a time, each chunk padded to the longest stream of
    the call, so the per-sample maps held at once are bounded and every
    segment's arithmetic is that of one unchunked call.
    """
    n_seg = len(streams)
    biases = np.asarray(biases, dtype=float).reshape(n_seg, 6)
    if n_seg == 0 or min(len(s) for s in streams) < 2:
        raise ImuDataError("preintegration needs at least one sample interval")
    n = max(len(s) for s in streams)
    chunks = [
        _integrate(streams[c : c + _SEGMENT_CHUNK], biases[c : c + _SEGMENT_CHUNK], noise, n)
        for c in range(0, n_seg, _SEGMENT_CHUNK)
    ]
    return SegmentStack(
        **{
            f.name: np.concatenate([getattr(c, f.name) for c in chunks])
            for f in fields(SegmentStack)
        }
    )


def _integrate(
    streams: Sequence[ImuStream], biases: np.ndarray, noise: ImuNoise, n: int
) -> SegmentStack:
    """`preintegrate_stack` of the given streams, padded to n samples."""
    n_seg = len(streams)
    ts = np.zeros((n_seg, n))  # seconds from each stream's start
    gyro = np.zeros((n_seg, n, 3))
    accel = np.zeros((n_seg, n, 3))
    gap_warning = np.zeros(n_seg, dtype=bool)
    for s, stream in enumerate(streams):
        m = len(stream)
        ts[s, :m] = (stream.timestamps - stream.timestamps[0]) * 1e-9
        ts[s, m:] = ts[s, m - 1]
        gyro[s, :m] = stream.gyro - biases[s, :3]
        accel[s, :m] = stream.accel - biases[s, 3:]
        dts = np.diff(ts[s, :m])
        gap_warning[s] = len(dts) > 2 and dts.max() > 5.0 * np.median(dts)

    dts = np.diff(ts, axis=1)  # (S, K); 0 on padding
    # midpoint rule: average consecutive samples over each interval
    w_mid = 0.5 * (gyro[:, :-1] + gyro[:, 1:])
    a_mid = 0.5 * (accel[:, :-1] + accel[:, 1:])
    # per-sample maps, independent of the running state
    rotvecs = w_mid * dts[..., None]
    steps = so3_exp_matrix(rotvecs)
    halves = so3_exp_matrix(0.5 * w_mid * dts[..., None])
    jrs = so3_right_jacobian(rotvecs)
    a_skews = skew(a_mid)
    q_rots = jrs @ _transpose(jrs) * (noise.gyro_density**2 * dts[..., None, None])
    sa2 = noise.accel_density**2

    d_rot = np.broadcast_to(np.eye(3), (n_seg, 3, 3))
    d_vel = np.zeros((n_seg, 3))
    d_pos = np.zeros((n_seg, 3))
    cov = np.zeros((n_seg, 9, 9))
    j_r_bg = np.zeros((n_seg, 3, 3))
    j_v_bg = np.zeros((n_seg, 3, 3))
    j_v_ba = np.zeros((n_seg, 3, 3))
    j_p_bg = np.zeros((n_seg, 3, 3))
    j_p_ba = np.zeros((n_seg, 3, 3))
    f = np.zeros((n_seg, 9, 9))
    q = np.zeros((n_seg, 9, 9))

    for k in range(dts.shape[1]):
        dt = dts[:, k, None, None]  # (S, 1, 1)
        dt_v = dt[..., 0]  # (S, 1), for vectors
        step, jr = steps[:, k], jrs[:, k]
        r_half = d_rot @ halves[:, k]
        ra = r_half @ a_skews[:, k]
        acc = _apply(r_half, a_mid[:, k])

        # covariance propagation (rotation, velocity, position)
        f[:] = np.eye(9)
        f[:, 0:3, 0:3] = _transpose(step)
        f[:, 3:6, 0:3] = -ra * dt
        f[:, 6:9, 0:3] = -0.5 * ra * dt**2
        f[:, 6:9, 3:6] = np.eye(3) * dt

        rr = r_half @ _transpose(r_half)
        q[:, 0:3, 0:3] = q_rots[:, k]
        q[:, 3:6, 3:6] = rr * (sa2 * dt)
        q[:, 6:9, 6:9] = rr * (0.25 * sa2 * dt**3)
        q[:, 3:6, 6:9] = rr * (0.5 * sa2 * dt**2)
        q[:, 6:9, 3:6] = _transpose(q[:, 3:6, 6:9])
        cov = f @ cov @ _transpose(f) + q

        # first-order sensitivities to the linearization bias
        j_p_bg = j_p_bg + j_v_bg * dt - 0.5 * ra @ j_r_bg * dt**2
        j_p_ba = j_p_ba + j_v_ba * dt - 0.5 * r_half * dt**2
        j_v_bg = j_v_bg - ra @ j_r_bg * dt
        j_v_ba = j_v_ba - r_half * dt
        j_r_bg = _transpose(step) @ j_r_bg - jr * dt

        # state integration
        d_pos = d_pos + d_vel * dt_v + 0.5 * acc * dt_v**2
        d_vel = d_vel + acc * dt_v
        d_rot = d_rot @ step

    return SegmentStack(
        t_start_ns=np.array([s.timestamps[0] for s in streams], dtype=np.int64),
        t_end_ns=np.array([s.timestamps[-1] for s in streams], dtype=np.int64),
        dt=ts[:, -1].copy(),
        delta_rot=np.stack([Rotation.from_matrix(m).quat for m in d_rot]),
        delta_vel=d_vel,
        delta_pos=d_pos,
        covariance=0.5 * (cov + _transpose(cov)),
        d_rot_d_bg=j_r_bg,
        d_vel_d_bg=j_v_bg,
        d_vel_d_ba=j_v_ba,
        d_pos_d_bg=j_p_bg,
        d_pos_d_ba=j_p_ba,
        lin_bias=biases.copy(),
        gap_warning=gap_warning,
    )


def preintegrate(stream: ImuStream, bias: Bias, noise: ImuNoise) -> SegmentStack:
    """Integrate one sample stream into the one-segment stack of its
    relative motion deltas; see :func:`preintegrate_stack`. `perfbench`
    calls it in its per-sample preintegration microbenchmark."""
    return preintegrate_stack([stream], bias.as_vector()[None], noise)


def bias_correct_stack(
    stack: SegmentStack, biases: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """First-order update of every segment's deltas to the bias in the
    matching (S, 6) row, without re-integration. Returns rotations (S, 4),
    velocities (S, 3), positions (S, 3) and (S,) `warned` flags.

    The update is exact in the accel bias, which enters the deltas
    linearly, so a segment is `warned` only when its gyro-bias change
    exceeds BIAS_CORRECTION_WARN_NORM, past the first-order range."""
    biases = np.asarray(biases, dtype=float).reshape(len(stack), 6)
    d_bg = biases[:, :3] - stack.lin_bias[:, :3]
    d_ba = biases[:, 3:] - stack.lin_bias[:, 3:]
    rot = quat_multiply(stack.delta_rot, quat_exp(_apply(stack.d_rot_d_bg, d_bg)))
    vel = stack.delta_vel + _apply(stack.d_vel_d_bg, d_bg) + _apply(stack.d_vel_d_ba, d_ba)
    pos = stack.delta_pos + _apply(stack.d_pos_d_bg, d_bg) + _apply(stack.d_pos_d_ba, d_ba)
    warned = np.linalg.norm(d_bg, axis=1) > BIAS_CORRECTION_WARN_NORM
    return rot, vel, pos, warned


def bias_correct(
    seg: SegmentStack, bias: Bias
) -> tuple[Rotation, np.ndarray, np.ndarray, bool]:
    """First-order update of a one-segment stack's deltas to a new bias,
    without re-integration. Returns (rotation, velocity, position, warned);
    see :func:`bias_correct_stack`. `perfbench` traces it and counts the
    `warned` results."""
    rot, vel, pos, warned = bias_correct_stack(seg, bias.as_vector())
    return Rotation(rot[0]), vel[0], pos[0], bool(warned[0])


_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])


def _residual_terms(stack: SegmentStack, poses_i, vels_i, poses_j, vels_j, biases_i):
    """Rotations of both keyframes, the rotation error, the velocity and
    position terms in keyframe i's frame, the bias-corrected deltas and the
    gyro-bias change, all stacked over segments."""
    q_i, t_i = poses_i[:, :4], poses_i[:, 4:7]
    q_j, t_j = poses_j[:, :4], poses_j[:, 4:7]
    v_i = np.reshape(vels_i, (-1, 3))
    v_j = np.reshape(vels_j, (-1, 3))
    biases_i = np.reshape(biases_i, (-1, 6))
    d_rot, d_vel, d_pos, _ = bias_correct_stack(stack, biases_i)
    rot_err = quat_log(
        quat_multiply(d_rot * _CONJUGATE, quat_multiply(q_i * _CONJUGATE, q_j))
    )
    r_i_t = _transpose(quat_to_matrix(q_i))
    dt = stack.dt[:, None]
    v_term = _apply(r_i_t, v_j - v_i - GRAVITY_W * dt)
    p_term = _apply(r_i_t, t_j - t_i - v_i * dt - 0.5 * GRAVITY_W * dt**2)
    d_bg = biases_i[:, :3] - stack.lin_bias[:, :3]
    return q_j, r_i_t, rot_err, v_term, p_term, d_vel, d_pos, d_bg


def preintegration_residual_stack(
    stack: SegmentStack, poses_i, vels_i, poses_j, vels_j, biases_i
) -> np.ndarray:
    """(S, 9) preintegration residuals (rotation, velocity, position), one
    row per segment: segment s ties keyframe states i and j, given as
    (S, 7) pose rows [qw qx qy qz | t] and (S, 3) velocities, at the (S, 6)
    biases of keyframe i."""
    _, _, rot_err, v_term, p_term, d_vel, d_pos, _ = _residual_terms(
        stack, poses_i, vels_i, poses_j, vels_j, biases_i
    )
    return np.concatenate([rot_err, v_term - d_vel, p_term - d_pos], axis=1)


def preintegration_residual_jacobians_stack(
    stack: SegmentStack, poses_i, vels_i, poses_j, vels_j, biases_i
) -> list[np.ndarray]:
    """Tangent Jacobians (S, 9, k) of :func:`preintegration_residual_stack`
    for (pose_i, vel_i, pose_j, vel_j, bias_i), poses given as (S, 7) rows.

    Pose tangents are (rotation, translation); rotations perturb on the
    right, translations additively in the world frame.
    """
    q_j, r_i_t, rot_err, v_term, p_term, _, _, d_bg = _residual_terms(
        stack, poses_i, vels_i, poses_j, vels_j, biases_i
    )
    n_seg = len(stack)
    jr_inv = so3_right_jacobian_inverse(rot_err)
    r_j_t = _transpose(quat_to_matrix(q_j))
    dt = stack.dt[:, None, None]

    j_pose_i = np.zeros((n_seg, 9, 6))
    j_pose_i[:, 0:3, 0:3] = -jr_inv @ r_j_t @ _transpose(r_i_t)
    j_pose_i[:, 3:6, 0:3] = skew(v_term)
    j_pose_i[:, 6:9, 0:3] = skew(p_term)
    j_pose_i[:, 6:9, 3:6] = -r_i_t

    j_vel_i = np.zeros((n_seg, 9, 3))
    j_vel_i[:, 3:6] = -r_i_t
    j_vel_i[:, 6:9] = -r_i_t * dt

    j_pose_j = np.zeros((n_seg, 9, 6))
    j_pose_j[:, 0:3, 0:3] = jr_inv
    j_pose_j[:, 6:9, 3:6] = r_i_t

    j_vel_j = np.zeros((n_seg, 9, 3))
    j_vel_j[:, 3:6] = r_i_t

    j_bias = np.zeros((n_seg, 9, 6))
    j_bias[:, 0:3, 0:3] = (
        -jr_inv
        @ _transpose(so3_exp_matrix(rot_err))
        @ so3_right_jacobian(_apply(stack.d_rot_d_bg, d_bg))
        @ stack.d_rot_d_bg
    )
    j_bias[:, 3:6, 0:3] = -stack.d_vel_d_bg
    j_bias[:, 3:6, 3:6] = -stack.d_vel_d_ba
    j_bias[:, 6:9, 0:3] = -stack.d_pos_d_bg
    j_bias[:, 6:9, 3:6] = -stack.d_pos_d_ba

    return [j_pose_i, j_vel_i, j_pose_j, j_vel_j, j_bias]


def bias_walk_covariance(noise: ImuNoise, dt) -> np.ndarray:
    """Covariance of the bias increment over dt seconds: (6, 6) for one
    interval, (S, 6, 6) for an (S,) array of them."""
    rates = np.diag([noise.gyro_walk**2] * 3 + [noise.accel_walk**2] * 3)
    return rates * np.asarray(dt, dtype=float)[..., None, None]
