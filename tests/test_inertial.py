"""Tests for IMU preintegration, covariance, and residuals."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from vigt import inertial
from vigt.errors import ImuDataError
from vigt.geometry import (
    RigidPose,
    Rotation,
    skew,
    so3_right_jacobian,
)
from vigt.inertial import (
    GRAVITY_W,
    Bias,
    ImuNoise,
    ImuStream,
    SegmentStack,
    bias_correct,
    bias_walk_covariance,
    preintegrate,
    preintegrate_stack,
    preintegration_residual_stack,
)
from vigt.solver import Manifold, _retract

NOISE = ImuNoise(
    gyro_density=1.5e-4,
    accel_density=1.2e-3,
    gyro_walk=1.0e-5,
    accel_walk=8.0e-5,
)

def constant_stream(n, rate_hz, gyro, accel):
    ts = (np.arange(n) * (1e9 / rate_hz)).astype(np.int64)
    return ImuStream(ts, np.tile(gyro, (n, 1)), np.tile(accel, (n, 1)))


def sinusoid_signals(t):
    """Smooth wiggly body rates/forces for integration oracles."""
    gyro = np.stack(
        [0.4 * np.sin(2.1 * t), 0.3 * np.cos(1.7 * t), 0.5 * np.sin(0.9 * t + 0.4)],
        axis=-1,
    )
    accel = np.stack(
        [1.2 * np.cos(1.3 * t), 0.8 * np.sin(2.3 * t + 1.0), 9.81 + 0.5 * np.sin(1.1 * t)],
        axis=-1,
    )
    return gyro, accel


def sampled_stream(rate_hz, duration_s, signals):
    t = np.arange(0.0, duration_s + 0.5 / rate_hz, 1.0 / rate_hz)
    gyro, accel = signals(t)
    return ImuStream((t * 1e9).astype(np.int64), gyro, accel)


def exp_matrix(rotvec):
    """Exp of a rotation vector by the general matrix exponential, apart
    from geometry's quaternion exponential."""
    return scipy.linalg.expm(skew(rotvec))


def integrate_states(stream, r0, v0, p0, gravity):
    """Mirror of the midpoint discretization, run in the world frame."""
    ts = (stream.timestamps - stream.timestamps[0]) * 1e-9
    r, v, p = r0.matrix().copy(), v0.copy(), p0.copy()
    for k in range(len(ts) - 1):
        dt = float(ts[k + 1] - ts[k])
        w = 0.5 * (stream.gyro[k] + stream.gyro[k + 1])
        a = 0.5 * (stream.accel[k] + stream.accel[k + 1])
        r_half = r @ exp_matrix(0.5 * w * dt)
        a_w = r_half @ a + gravity
        p = p + v * dt + 0.5 * a_w * dt**2
        v = v + a_w * dt
        r = r @ exp_matrix(w * dt)
    return Rotation.from_matrix(r), v, p


def reference_preintegrate(stream, bias, noise):
    """One segment integrated sample by sample, with per-sample maps
    computed inside the loop, as a one-segment stack: the reference for
    the lockstep integration."""
    ts = (stream.timestamps - stream.timestamps[0]) * 1e-9
    dts = np.diff(ts)
    gyro = stream.gyro - bias.gyro
    accel = stream.accel - bias.accel
    w_mid = 0.5 * (gyro[:-1] + gyro[1:])
    a_mid = 0.5 * (accel[:-1] + accel[1:])
    d_rot, d_vel, d_pos = np.eye(3), np.zeros(3), np.zeros(3)
    cov = np.zeros((9, 9))
    j_r_bg, j_v_bg, j_v_ba, j_p_bg, j_p_ba = (np.zeros((3, 3)) for _ in range(5))
    sg2, sa2 = noise.gyro_density**2, noise.accel_density**2
    for k in range(len(dts)):
        dt = float(dts[k])
        w, a = w_mid[k], a_mid[k]
        step = exp_matrix(w * dt)
        jr = so3_right_jacobian(w * dt)
        r_half = d_rot @ exp_matrix(0.5 * w * dt)
        a_skew = skew(a)
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
        j_p_bg = j_p_bg + j_v_bg * dt - 0.5 * r_half @ a_skew @ j_r_bg * dt**2
        j_p_ba = j_p_ba + j_v_ba * dt - 0.5 * r_half * dt**2
        j_v_bg = j_v_bg - r_half @ a_skew @ j_r_bg * dt
        j_v_ba = j_v_ba - r_half * dt
        j_r_bg = step.T @ j_r_bg - jr * dt
        d_pos = d_pos + d_vel * dt + 0.5 * (r_half @ a) * dt**2
        d_vel = d_vel + (r_half @ a) * dt
        d_rot = d_rot @ step
    row = dict(
        dt=ts[-1],
        delta_rot=Rotation.from_matrix(d_rot).quat,
        delta_vel=d_vel,
        delta_pos=d_pos,
        covariance=0.5 * (cov + cov.T),
        d_rot_d_bg=j_r_bg,
        d_vel_d_bg=j_v_bg,
        d_vel_d_ba=j_v_ba,
        d_pos_d_bg=j_p_bg,
        d_pos_d_ba=j_p_ba,
        lin_bias=bias.as_vector(),
    )
    return SegmentStack(**{name: np.array([value]) for name, value in row.items()})


ARRAY_FIELDS = (
    "delta_vel",
    "delta_pos",
    "covariance",
    "d_rot_d_bg",
    "d_vel_d_bg",
    "d_vel_d_ba",
    "d_pos_d_bg",
    "d_pos_d_ba",
)


def assert_segments_close(seg, ref, rtol):
    """Stacks of equal length with equal metadata; rotations and arrays
    within `rtol` of each array's largest entry."""
    for name in ("dt", "lin_bias"):
        np.testing.assert_array_equal(getattr(seg, name), getattr(ref, name), err_msg=name)
    for q, q_ref in zip(seg.delta_rot, ref.delta_rot, strict=True):
        assert Rotation(q).angle_to(Rotation(q_ref)) <= rtol
    for name in ARRAY_FIELDS:
        want = getattr(ref, name)
        np.testing.assert_allclose(
            getattr(seg, name), want, rtol=0.0, atol=rtol * np.abs(want).max(), err_msg=name
        )


def rot(stack, s=0):
    """Rotation delta of segment s."""
    return Rotation(stack.delta_rot[s])


def take(stack, s):
    """Segment s of a stack as a one-segment stack."""
    return SegmentStack(
        **{f.name: getattr(stack, f.name)[s : s + 1] for f in dataclasses.fields(stack)}
    )


# sample slices of the three unequal segments: 41, 97 and 150 samples
UNEQUAL = ((0, 41), (30, 127), (200, 350))


def unequal_streams():
    """One 400 Hz stream and the (starts, ends) of its `UNEQUAL` segments,
    each from its first to its last sample instant."""
    base = sampled_stream(400.0, 1.0, sinusoid_signals)
    ts = base.timestamps
    return base, ts[[a for a, _ in UNEQUAL]], ts[[b - 1 for _, b in UNEQUAL]]


def random_segments(rng, base, count):
    """(starts, ends) of `count` segments of the stream, each from a sample
    instant to another, over 2 to 24 samples."""
    first = rng.integers(0, len(base) - 25, size=count)
    return base.timestamps[first], base.timestamps[first + rng.integers(2, 25, size=count) - 1]


def pose_row(pose):
    """Value row [qw qx qy qz | t] of a rigid pose."""
    return np.concatenate([pose.rotation.quat, pose.translation])


def one_row(pose_i, vel_i, pose_j, vel_j, bias_i):
    """The S = 1 value rows (pose_i, vel_i, pose_j, vel_j, bias_i) of one
    segment's states."""
    return [
        pose_row(pose_i)[None], np.reshape(vel_i, (1, 3)), pose_row(pose_j)[None],
        np.reshape(vel_j, (1, 3)), bias_i.as_vector()[None],
    ]


def moved(manifold, rows, s, delta):
    """Copy of (S, size) value rows with row s moved by a tangent step."""
    out = np.array(rows, dtype=float)
    out[s] = _retract(manifold, out[s : s + 1], delta[None])[0]
    return out


def segment_biases(rng, n):
    return np.hstack([rng.normal(scale=1e-3, size=(n, 3)), rng.normal(scale=1e-2, size=(n, 3))])


class TestLockstep:
    def test_matches_sample_by_sample_reference(self):
        rng = np.random.default_rng(17)
        stream = sampled_stream(400.0, 1.0, sinusoid_signals)
        bias = Bias.from_vector(segment_biases(rng, 1)[0])
        assert_segments_close(
            preintegrate(stream, bias, NOISE), reference_preintegrate(stream, bias, NOISE), 1e-12
        )

    def test_unequal_streams_match_one_at_a_time(self):
        rng = np.random.default_rng(18)
        base, starts, ends = unequal_streams()
        biases = segment_biases(rng, len(starts))
        stack = preintegrate_stack(base, starts, ends, biases, NOISE)
        assert len(stack) == len(starts)
        for s, (a, b) in enumerate(UNEQUAL):
            stream = ImuStream(base.timestamps[a:b], base.gyro[a:b], base.accel[a:b])
            alone = preintegrate(stream, Bias.from_vector(biases[s]), NOISE)
            assert_segments_close(take(stack, s), alone, 1e-12)

    def test_rotation_deltas_normalize_as_rotation_does(self, monkeypatch):
        # the stack is normalized at once; each row equals the Rotation of
        # its unnormalized quaternion bit for bit
        unnormalized = []
        from_matrix = inertial.quat_from_matrix

        def recorded(m):
            unnormalized.append(from_matrix(m))
            return unnormalized[-1]

        monkeypatch.setattr(inertial, "quat_from_matrix", recorded)
        stack = preintegrate_stack(
            *unequal_streams(), segment_biases(np.random.default_rng(20), 3), NOISE
        )
        (raw,) = unnormalized
        for q, q_raw in zip(stack.delta_rot, raw, strict=True):
            np.testing.assert_array_equal(q, Rotation(q_raw).quat)

    def test_chunks_match_one_unchunked_call(self, monkeypatch):
        rng = np.random.default_rng(19)
        base = sampled_stream(200.0, 3.0, sinusoid_signals)
        starts, ends = random_segments(rng, base, 300)
        biases = segment_biases(rng, len(starts))
        assert len(starts) > 2 * inertial._SEGMENT_CHUNK
        chunked = preintegrate_stack(base, starts, ends, biases, NOISE)
        monkeypatch.setattr(inertial, "_SEGMENT_CHUNK", len(starts))
        whole = preintegrate_stack(base, starts, ends, biases, NOISE)
        for f in dataclasses.fields(SegmentStack):
            np.testing.assert_array_equal(getattr(chunked, f.name), getattr(whole, f.name))

    def test_subset_matches_rows_of_the_full_stack(self):
        # re-integrating some segments, as at a new bias, reproduces their
        # rows of the stack of all segments bit for bit
        rng = np.random.default_rng(22)
        base = sampled_stream(200.0, 3.0, sinusoid_signals)
        starts, ends = random_segments(rng, base, 300)
        biases = segment_biases(rng, len(starts))
        full = preintegrate_stack(base, starts, ends, biases, NOISE)
        subset = np.sort(rng.choice(len(starts), size=40, replace=False))
        part = preintegrate_stack(base, starts[subset], ends[subset], biases[subset], NOISE)
        for f in dataclasses.fields(SegmentStack):
            np.testing.assert_array_equal(getattr(part, f.name), getattr(full, f.name)[subset])

    def test_memory_bounded_on_ten_minute_stream(self):
        # 2400 keyframe intervals of 0.25 s over 10 min of 200 Hz samples;
        # holding every sample's rotation maps at once took 71 MB
        stream = sampled_stream(200.0, 600.0, sinusoid_signals)
        # segment k spans samples 50 k to 50 k + 50
        first = np.arange(0, len(stream) - 50, 50)
        starts, ends = stream.timestamps[first], stream.timestamps[first + 50]
        biases = np.zeros((len(starts), 6))
        tracemalloc.start()
        try:
            preintegrate_stack(stream, starts, ends, biases, NOISE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(starts) == 2400
        assert peak < 16e6


class TestPreintegrate:
    def test_zero_measurements(self):
        stream = constant_stream(101, 100.0, np.zeros(3), np.zeros(3))
        seg = preintegrate(stream, Bias.zero(), NOISE)
        assert rot(seg).angle_to(Rotation.identity()) < 1e-12
        np.testing.assert_allclose(seg.delta_vel[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(seg.delta_pos[0], 0.0, atol=1e-12)
        assert seg.dt[0] == pytest.approx(1.0)

    def test_constant_force_double_integral(self):
        stream = constant_stream(1001, 1000.0, np.zeros(3), np.array([1.0, 0.0, 0.0]))
        seg = preintegrate(stream, Bias.zero(), NOISE)
        np.testing.assert_allclose(seg.delta_vel[0], [1.0, 0.0, 0.0], atol=1e-6)
        np.testing.assert_allclose(seg.delta_pos[0], [0.5, 0.0, 0.0], atol=1e-6)

    def test_constant_gyro_matches_euler_oracle(self):
        gyro = np.array([0.0, 0.0, 1.0])
        stream = constant_stream(1001, 1000.0, gyro, np.zeros(3))
        seg = preintegrate(stream, Bias.zero(), NOISE)
        assert rot(seg).angle_to(Rotation.exp([0.0, 0.0, 1.0])) < 1e-6

        # brute-force 10 kHz Euler integration of the same constant signal
        r = np.eye(3)
        dt = 1e-4
        for _ in range(10_000):
            r = r @ exp_matrix(gyro * dt)
        assert rot(seg).angle_to(Rotation.from_matrix(r)) < 1e-5

    def test_wiggly_motion_matches_fine_step_oracle(self):
        stream = sampled_stream(1000.0, 1.0, sinusoid_signals)
        seg = preintegrate(stream, Bias.zero(), NOISE)
        fine = sampled_stream(10_000.0, 1.0, sinusoid_signals)
        rot_f, vel, pos = integrate_states(
            fine, Rotation.identity(), np.zeros(3), np.zeros(3), np.zeros(3)
        )
        assert rot(seg).angle_to(rot_f) < 1e-5
        np.testing.assert_allclose(seg.delta_vel[0], vel, atol=1e-5)
        np.testing.assert_allclose(seg.delta_pos[0], pos, atol=1e-5)

    def test_non_increasing_timestamps_rejected(self):
        ts = np.array([0, 10, 10], dtype=np.int64)
        with pytest.raises(ImuDataError):
            ImuStream(ts, np.zeros((3, 3)), np.zeros((3, 3)))

    def test_mismatched_lengths_rejected(self):
        ts = np.array([0, 10, 20], dtype=np.int64)
        with pytest.raises(ImuDataError, match="3 timestamps, 2 gyro and 3 accel"):
            ImuStream(ts, np.zeros((2, 3)), np.zeros((3, 3)))

    @pytest.mark.parametrize("field", ["gyro", "accel"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected_by_index(self, monkeypatch, field, bad):
        ts = np.arange(10, dtype=np.int64) * 5_000_000
        arrays = {"gyro": np.zeros((10, 3)), "accel": np.zeros((10, 3))}
        arrays[field][7, 1] = bad
        arrays[field][9, 0] = bad
        checks = []  # np.isfinite calls of one construction
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda *a: checks.append(a) or isfinite(*a))
        with pytest.raises(ImuDataError, match="IMU sample 7 .* is not finite"):
            ImuStream(ts, arrays["gyro"], arrays["accel"])
        assert len(checks) == 1

    def test_single_sample_rejected(self):
        stream = constant_stream(1, 100.0, np.zeros(3), np.zeros(3))
        with pytest.raises(ImuDataError):
            preintegrate(stream, Bias.zero(), NOISE)

    def test_concatenation_consistency(self):
        stream = sampled_stream(500.0, 2.0, sinusoid_signals)
        mid = len(stream) // 2
        seg_full = preintegrate(stream, Bias.zero(), NOISE)
        a = ImuStream(stream.timestamps[: mid + 1], stream.gyro[: mid + 1], stream.accel[: mid + 1])
        b = ImuStream(stream.timestamps[mid:], stream.gyro[mid:], stream.accel[mid:])
        seg_a = preintegrate(a, Bias.zero(), NOISE)
        seg_b = preintegrate(b, Bias.zero(), NOISE)

        rot_ab = rot(seg_a) @ rot(seg_b)
        vel = seg_a.delta_vel[0] + rot(seg_a).apply(seg_b.delta_vel[0])
        pos = (
            seg_a.delta_pos[0]
            + seg_a.delta_vel[0] * seg_b.dt[0]
            + rot(seg_a).apply(seg_b.delta_pos[0])
        )
        assert rot(seg_full).angle_to(rot_ab) < 1e-6
        np.testing.assert_allclose(seg_full.delta_vel[0], vel, atol=1e-6)
        np.testing.assert_allclose(seg_full.delta_pos[0], pos, atol=1e-6)

    def test_covariance_trace_grows_with_samples(self):
        stream = sampled_stream(500.0, 2.0, sinusoid_signals)
        traces = []
        for n in (100, 300, 600, 1001):
            sub = ImuStream(stream.timestamps[:n], stream.gyro[:n], stream.accel[:n])
            traces.append(np.trace(preintegrate(sub, Bias.zero(), NOISE).covariance[0]))
        assert all(b > a for a, b in zip(traces, traces[1:]))

    def test_covariance_calibrated_against_monte_carlo(self):
        # whitened deviation of noisy segments from the noiseless one
        rng = np.random.default_rng(7)
        rate, dur = 200.0, 0.5
        clean = sampled_stream(rate, dur, sinusoid_signals)
        seg0 = preintegrate(clean, Bias.zero(), NOISE)
        w = np.linalg.cholesky(np.linalg.inv(seg0.covariance[0]))
        sg = NOISE.gyro_density * np.sqrt(rate)
        sa = NOISE.accel_density * np.sqrt(rate)
        samples = []
        for _ in range(400):
            noisy = ImuStream(
                clean.timestamps,
                clean.gyro + rng.normal(scale=sg, size=clean.gyro.shape),
                clean.accel + rng.normal(scale=sa, size=clean.accel.shape),
            )
            seg = preintegrate(noisy, Bias.zero(), NOISE)
            err = np.concatenate(
                [
                    (rot(seg0).inverse() @ rot(seg)).log(),
                    seg.delta_vel[0] - seg0.delta_vel[0],
                    seg.delta_pos[0] - seg0.delta_pos[0],
                ]
            )
            samples.append(w.T @ err)
        std = np.std(np.concatenate(samples))
        assert 0.9 < std < 1.1


class TestBiasCorrect:
    def test_zero_correction_is_identity(self):
        stream = sampled_stream(500.0, 1.0, sinusoid_signals)
        seg = preintegrate(stream, Bias.zero(), NOISE)
        r, vel, pos, warned = bias_correct(seg, Bias.zero())
        assert not warned
        assert r.angle_to(rot(seg)) < 1e-12
        np.testing.assert_array_equal(vel, seg.delta_vel[0])
        np.testing.assert_array_equal(pos, seg.delta_pos[0])

    def test_small_gyro_bias_matches_reintegration(self):
        gyro = np.array([0.0, 0.0, 1.0])
        stream = constant_stream(1001, 1000.0, gyro, np.zeros(3))
        seg = preintegrate(stream, Bias.zero(), NOISE)
        delta = Bias(np.array([0.0, 0.0, 1e-3]), np.zeros(3))
        r, _, _, warned = bias_correct(seg, delta)
        assert not warned
        seg_re = preintegrate(stream, delta, NOISE)
        assert r.angle_to(rot(seg_re)) < 1e-6

    def test_general_small_bias_first_order(self):
        stream = sampled_stream(1000.0, 1.0, sinusoid_signals)
        seg = preintegrate(stream, Bias.zero(), NOISE)
        delta = Bias(np.array([4e-4, -3e-4, 5e-4]), np.array([1e-3, -2e-3, 1.5e-3]))
        r, vel, pos, _ = bias_correct(seg, delta)
        seg_re = preintegrate(stream, delta, NOISE)
        assert r.angle_to(rot(seg_re)) < 1e-6
        np.testing.assert_allclose(vel, seg_re.delta_vel[0], atol=1e-5)
        np.testing.assert_allclose(pos, seg_re.delta_pos[0], atol=1e-5)

    def test_large_correction_warns(self):
        stream = constant_stream(101, 100.0, np.zeros(3), np.zeros(3))
        seg = preintegrate(stream, Bias.zero(), NOISE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, _, warned = bias_correct(seg, Bias(np.array([1.0, 0.0, 0.0]), np.zeros(3)))
        assert warned


    def test_large_accel_correction_does_not_warn(self):
        # the correction is exact in the accel bias, which enters linearly
        stream = constant_stream(101, 100.0, np.zeros(3), np.zeros(3))
        seg = preintegrate(stream, Bias.zero(), NOISE)
        _, _, _, warned = bias_correct(seg, Bias(np.zeros(3), np.array([0.0, 1.0, 0.0])))
        assert not warned


class TestResidual:
    def make_consistent(self, rng):
        stream = sampled_stream(400.0, 1.0, sinusoid_signals)
        r0 = Rotation.exp(rng.normal(size=3))
        v0 = rng.normal(size=3)
        p0 = rng.normal(scale=2.0, size=3)
        r1, v1, p1 = integrate_states(stream, r0, v0, p0, GRAVITY_W)
        seg = preintegrate(stream, Bias.zero(), NOISE)
        state_i = (RigidPose(r0, p0), v0)
        state_j = (RigidPose(r1, p1), v1)
        return seg, state_i, state_j

    def test_consistent_states_zero_residual(self):
        rng = np.random.default_rng(11)
        seg, (pose_i, v_i), (pose_j, v_j) = self.make_consistent(rng)
        res, _ = preintegration_residual_stack(
            seg, *one_row(pose_i, v_i, pose_j, v_j, Bias.zero())
        )
        assert np.abs(res[0]).max() < 1e-8

    def test_free_fall_zero_residual(self):
        # zero specific force, states in free fall under gravity
        stream = constant_stream(201, 200.0, np.zeros(3), np.zeros(3))
        seg = preintegrate(stream, Bias.zero(), NOISE)
        pose_i = RigidPose(Rotation.identity(), np.zeros(3))
        v0 = np.array([1.0, 0.0, 0.0])
        t = seg.dt[0]
        pose_j = RigidPose(Rotation.identity(), v0 * t + 0.5 * GRAVITY_W * t**2)
        v1 = v0 + GRAVITY_W * t
        res, _ = preintegration_residual_stack(seg, *one_row(pose_i, v0, pose_j, v1, Bias.zero()))
        assert np.abs(res[0]).max() < 1e-10

    def test_velocity_perturbation_maps_to_velocity_rows(self):
        rng = np.random.default_rng(12)
        seg, (pose_i, v_i), (pose_j, v_j) = self.make_consistent(rng)
        (res,), _ = preintegration_residual_stack(
            seg, *one_row(pose_i, v_i, pose_j, v_j + pose_i.rotation.apply([0.1, 0.0, 0.0]),
            Bias.zero()),
        )
        np.testing.assert_allclose(res[3:6], [0.1, 0.0, 0.0], atol=1e-8)
        assert np.abs(res[[0, 1, 2, 6, 7, 8]]).max() < 1e-8

    def test_jacobians_match_central_differences(self):
        rng = np.random.default_rng(13)
        stream = sampled_stream(400.0, 0.7, sinusoid_signals)
        seg = preintegrate(stream, Bias(rng.normal(scale=1e-3, size=3), rng.normal(scale=1e-2, size=3)), NOISE)
        pose_i = RigidPose(Rotation.exp(rng.normal(size=3)), rng.normal(size=3))
        pose_j = RigidPose(Rotation.exp(rng.normal(size=3)), rng.normal(size=3))
        v_i, v_j = rng.normal(size=3), rng.normal(size=3)
        bias_i = Bias(rng.normal(scale=2e-3, size=3), rng.normal(scale=2e-2, size=3))

        # the S = 1 rows of each argument and their kinds
        rows = one_row(pose_i, v_i, pose_j, v_j, bias_i)
        kinds = [
            Manifold.RIGID_POSE, Manifold.EUCLIDEAN, Manifold.RIGID_POSE,
            Manifold.EUCLIDEAN, Manifold.EUCLIDEAN,
        ]
        jacs = [j[0] for j in preintegration_residual_stack(seg, *rows)[1]()]

        def evaluate(vals):
            return preintegration_residual_stack(seg, *vals)[0][0]

        step = 1e-6
        for bi, (manifold, jac) in enumerate(zip(kinds, jacs)):
            dim = jac.shape[1]
            num = np.zeros((9, dim))
            for d in range(dim):
                delta = np.zeros(dim)
                delta[d] = step
                plus = list(rows)
                plus[bi] = moved(manifold, rows[bi], 0, delta)
                minus = list(rows)
                minus[bi] = moved(manifold, rows[bi], 0, -delta)
                num[:, d] = (evaluate(plus) - evaluate(minus)) / (2 * step)
            scale = np.maximum(np.abs(num), 1.0)
            assert np.max(np.abs(jacs[bi] - num) / scale) < 1e-5, f"block {bi}"


class TestStackedResidual:
    SLOTS = (
        (Manifold.RIGID_POSE, 6),
        (Manifold.EUCLIDEAN, 3),
        (Manifold.RIGID_POSE, 6),
        (Manifold.EUCLIDEAN, 3),
        (Manifold.EUCLIDEAN, 6),
    )

    def make_rows(self, rng, n):
        """Segments and the (pose_i, vel_i, pose_j, vel_j, bias_i) value
        rows, (S, size) each, of an S = n stack."""
        base, starts, ends = unequal_streams()
        stack = preintegrate_stack(base, starts[:n], ends[:n], segment_biases(rng, n), NOISE)

        def poses():
            return np.stack(
                [
                    pose_row(RigidPose(Rotation.exp(rng.normal(size=3)), rng.normal(size=3)))
                    for _ in range(n)
                ]
            )

        def vectors(dim, scale=1.0):
            return rng.normal(scale=scale, size=(n, dim))

        return stack, [poses(), vectors(3), poses(), vectors(3), vectors(6, 2e-3)]

    def test_rows_match_single_segment_calls(self):
        rng = np.random.default_rng(19)
        stack, slots = self.make_rows(rng, 3)
        res, jacobians = preintegration_residual_stack(stack, *slots)
        jacs = jacobians()
        assert res.shape == (3, 9)
        assert [j.shape for j in jacs] == [(3, 9, dim) for _, dim in self.SLOTS]
        for s in range(3):
            seg = take(stack, s)
            row = [slot[s : s + 1] for slot in slots]
            res_one, jacobians_one = preintegration_residual_stack(seg, *row)
            np.testing.assert_allclose(res[s], res_one[0], rtol=1e-12, atol=1e-14)
            for j_stack, j_one in zip(jacs, jacobians_one()):
                np.testing.assert_allclose(j_stack[s], j_one[0], rtol=1e-12, atol=1e-14)

    def test_jacobians_match_central_differences_row_by_row(self):
        rng = np.random.default_rng(20)
        stack, slots = self.make_rows(rng, 3)
        jacs = preintegration_residual_stack(stack, *slots)[1]()
        step = 1e-6
        for k, (manifold, dim) in enumerate(self.SLOTS):
            for s in range(3):
                num = np.zeros((3, 9, dim))
                for d in range(dim):
                    delta = np.zeros(dim)
                    delta[d] = step
                    plus, minus = list(slots), list(slots)
                    plus[k] = moved(manifold, slots[k], s, delta)
                    minus[k] = moved(manifold, slots[k], s, -delta)
                    num[..., d] = (
                        preintegration_residual_stack(stack, *plus)[0]
                        - preintegration_residual_stack(stack, *minus)[0]
                    ) / (2 * step)
                # moving row s's states leaves every other row unchanged
                others = [r for r in range(3) if r != s]
                np.testing.assert_array_equal(num[others], 0.0)
                scale = np.maximum(np.abs(num[s]), 1.0)
                assert np.max(np.abs(jacs[k][s] - num[s]) / scale) < 1e-5, f"slot {k} row {s}"


class TestBiasWalk:
    def test_covariance_scales_with_dt(self):
        c1 = bias_walk_covariance(NOISE, 1.0)
        c2 = bias_walk_covariance(NOISE, 4.0)
        np.testing.assert_allclose(c2, 4.0 * c1)


def cut(stream, a, b):
    """Segment [a, b] of a stream as `preintegrate_stack` cuts it, without
    padding: its instants and its gyro and accel samples there."""
    n = int(np.sum((stream.timestamps > a) & (stream.timestamps < b))) + 2
    t, gyro, accel = inertial._cut(stream, np.array([a]), np.array([b]), n)
    return t[0], gyro[0], accel[0]


class TestStreamSlicing:
    def test_between_interpolates_boundaries(self):
        stream = sampled_stream(100.0, 1.0, sinusoid_signals)
        t, gyro_cut, _ = cut(stream, 105_000_000, 341_000_000)
        assert t[0] == 105_000_000
        assert t[-1] == 341_000_000
        # boundary value linearly interpolated between the 100 ms and 110 ms samples
        t = np.array([0.10, 0.105, 0.11])
        gyro, _ = sinusoid_signals(t)
        expected = 0.5 * (gyro[0] + gyro[2])
        np.testing.assert_allclose(gyro_cut[0], expected, atol=1e-4)

    def test_between_matches_mask_reference(self):
        # 200 Hz with jittered instants; bounds on random instants and on
        # sample instants, the interval ends included
        rng = np.random.default_rng(21)
        ts = np.cumsum(rng.integers(4_000_000, 6_000_000, size=400)).astype(np.int64)
        stream = ImuStream(ts, rng.normal(size=(400, 3)), rng.normal(size=(400, 3)))
        on_samples = rng.choice(ts[1:-1], size=(40, 2))
        anywhere = rng.integers(ts[0], ts[-1], size=(40, 2))
        ends = np.array([[ts[0], ts[-1]], [ts[0], ts[1]], [ts[-2], ts[-1]]])
        mixed = np.column_stack([on_samples[:, 0], anywhere[:, 1]])
        for a, b in np.concatenate([on_samples, anywhere, mixed, ends]):
            a, b = int(min(a, b)), int(max(a, b))
            if a == b:
                continue
            t, gyro, accel = cut(stream, a, b)
            inner = (ts > a) & (ts < b)
            np.testing.assert_array_equal(t[1:-1], ts[inner])
            np.testing.assert_array_equal(gyro[1:-1], stream.gyro[inner])
            np.testing.assert_array_equal(accel[1:-1], stream.accel[inner])
            assert (t[0], t[-1]) == (a, b)

    def test_between_outside_coverage_raises(self):
        stream = sampled_stream(100.0, 1.0, sinusoid_signals)
        with pytest.raises(ImuDataError):
            preintegrate_stack(stream, [-10], [500_000_000], np.zeros((1, 6)), NOISE)

    @pytest.mark.parametrize(
        "n, start, end, refused",
        [
            (0, 0, 10_000_000, "from 0 samples"),
            (101, 30_000_000, 30_000_000, "do not end after they start"),
            (101, 50_000_000, 1_010_000_000, "outside the IMU stream"),
        ],
        ids=["empty-stream", "empty-segment", "past-the-end"],
    )
    def test_refused_segments_raise(self, n, start, end, refused):
        stream = constant_stream(n, 100.0, np.zeros(3), np.zeros(3))
        with pytest.raises(ImuDataError, match=refused):
            preintegrate_stack(stream, [0, start], [10_000_000, end], np.zeros((2, 6)), NOISE)

    def test_unpaired_bounds_raise(self):
        stream = constant_stream(101, 100.0, np.zeros(3), np.zeros(3))
        with pytest.raises(ImuDataError, match="2 starts, 1 ends"):
            preintegrate_stack(stream, [0, 10_000_000], [20_000_000], np.zeros((2, 6)), NOISE)

    def test_gap_raises_naming_the_segment(self):
        # 100 Hz without the samples at 300-390 ms: none inside [290, 400]
        # ms, which is longer than two sample spacings
        stream = constant_stream(101, 100.0, np.zeros(3), np.zeros(3))
        keep = (np.arange(101) < 30) | (np.arange(101) >= 40)
        gapped = ImuStream(stream.timestamps[keep], stream.gyro[keep], stream.accel[keep])
        refused = r"no IMU samples inside segments: \[290000000, 400000000\]$"
        with pytest.raises(ImuDataError, match=refused):
            preintegrate_stack(
                gapped, [0, 290_000_000], [290_000_000, 400_000_000], np.zeros((2, 6)), NOISE
            )
