"""Tests for IMU preintegration, covariance, and residuals."""

import warnings

import numpy as np
import pytest

from vigt.errors import ImuDataError
from vigt.geometry import RigidPose, Rotation, so3_exp_matrix
from vigt.inertial import (
    GRAVITY_W,
    Bias,
    ImuNoise,
    ImuStream,
    bias_correct,
    bias_walk_covariance,
    preintegrate,
    preintegration_residual,
    preintegration_residual_jacobians,
)

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


def integrate_states(stream, r0, v0, p0, gravity):
    """Mirror of the midpoint discretization, run in the world frame."""
    ts = (stream.timestamps - stream.timestamps[0]) * 1e-9
    r, v, p = r0.matrix().copy(), v0.copy(), p0.copy()
    for k in range(len(ts) - 1):
        dt = float(ts[k + 1] - ts[k])
        w = 0.5 * (stream.gyro[k] + stream.gyro[k + 1])
        a = 0.5 * (stream.accel[k] + stream.accel[k + 1])
        r_half = r @ so3_exp_matrix(0.5 * w * dt)
        a_w = r_half @ a + gravity
        p = p + v * dt + 0.5 * a_w * dt**2
        v = v + a_w * dt
        r = r @ so3_exp_matrix(w * dt)
    return Rotation.from_matrix(r), v, p


class TestPreintegrate:
    def test_zero_measurements(self):
        stream = constant_stream(101, 100.0, np.zeros(3), np.zeros(3))
        seg = preintegrate(stream, Bias.zero(), NOISE)
        assert seg.delta_rot.angle_to(Rotation.identity()) < 1e-12
        np.testing.assert_allclose(seg.delta_vel, 0.0, atol=1e-12)
        np.testing.assert_allclose(seg.delta_pos, 0.0, atol=1e-12)
        assert seg.dt == pytest.approx(1.0)

    def test_constant_force_double_integral(self):
        stream = constant_stream(1001, 1000.0, np.zeros(3), np.array([1.0, 0.0, 0.0]))
        seg = preintegrate(stream, Bias.zero(), NOISE)
        np.testing.assert_allclose(seg.delta_vel, [1.0, 0.0, 0.0], atol=1e-6)
        np.testing.assert_allclose(seg.delta_pos, [0.5, 0.0, 0.0], atol=1e-6)

    def test_constant_gyro_matches_euler_oracle(self):
        gyro = np.array([0.0, 0.0, 1.0])
        stream = constant_stream(1001, 1000.0, gyro, np.zeros(3))
        seg = preintegrate(stream, Bias.zero(), NOISE)
        assert seg.delta_rot.angle_to(Rotation.exp([0.0, 0.0, 1.0])) < 1e-6

        # brute-force 10 kHz Euler integration of the same constant signal
        r = np.eye(3)
        dt = 1e-4
        for _ in range(10_000):
            r = r @ so3_exp_matrix(gyro * dt)
        assert seg.delta_rot.angle_to(Rotation.from_matrix(r)) < 1e-5

    def test_wiggly_motion_matches_fine_step_oracle(self):
        stream = sampled_stream(1000.0, 1.0, sinusoid_signals)
        seg = preintegrate(stream, Bias.zero(), NOISE)
        fine = sampled_stream(10_000.0, 1.0, sinusoid_signals)
        rot, vel, pos = integrate_states(
            fine, Rotation.identity(), np.zeros(3), np.zeros(3), np.zeros(3)
        )
        assert seg.delta_rot.angle_to(rot) < 1e-5
        np.testing.assert_allclose(seg.delta_vel, vel, atol=1e-5)
        np.testing.assert_allclose(seg.delta_pos, pos, atol=1e-5)

    def test_non_increasing_timestamps_rejected(self):
        ts = np.array([0, 10, 10], dtype=np.int64)
        with pytest.raises(ImuDataError):
            ImuStream(ts, np.zeros((3, 3)), np.zeros((3, 3)))

    def test_single_sample_rejected(self):
        stream = constant_stream(1, 100.0, np.zeros(3), np.zeros(3))
        with pytest.raises(ImuDataError):
            preintegrate(stream, Bias.zero(), NOISE)

    def test_gap_warning_flag(self):
        ts = np.concatenate(
            [np.arange(50), np.arange(50) + 500]
        ) * 10_000_000  # 10 ms nominal, 4.5 s hole
        stream = ImuStream(ts.astype(np.int64), np.zeros((100, 3)), np.zeros((100, 3)))
        seg = preintegrate(stream, Bias.zero(), NOISE)
        assert seg.gap_warning

    def test_concatenation_consistency(self):
        stream = sampled_stream(500.0, 2.0, sinusoid_signals)
        mid = len(stream) // 2
        seg_full = preintegrate(stream, Bias.zero(), NOISE)
        a = ImuStream(stream.timestamps[: mid + 1], stream.gyro[: mid + 1], stream.accel[: mid + 1])
        b = ImuStream(stream.timestamps[mid:], stream.gyro[mid:], stream.accel[mid:])
        seg_a = preintegrate(a, Bias.zero(), NOISE)
        seg_b = preintegrate(b, Bias.zero(), NOISE)

        rot = seg_a.delta_rot @ seg_b.delta_rot
        vel = seg_a.delta_vel + seg_a.delta_rot.apply(seg_b.delta_vel)
        pos = (
            seg_a.delta_pos
            + seg_a.delta_vel * seg_b.dt
            + seg_a.delta_rot.apply(seg_b.delta_pos)
        )
        assert seg_full.delta_rot.angle_to(rot) < 1e-6
        np.testing.assert_allclose(seg_full.delta_vel, vel, atol=1e-6)
        np.testing.assert_allclose(seg_full.delta_pos, pos, atol=1e-6)

    def test_covariance_trace_grows_with_samples(self):
        stream = sampled_stream(500.0, 2.0, sinusoid_signals)
        traces = []
        for n in (100, 300, 600, 1001):
            sub = ImuStream(stream.timestamps[:n], stream.gyro[:n], stream.accel[:n])
            traces.append(np.trace(preintegrate(sub, Bias.zero(), NOISE).covariance))
        assert all(b > a for a, b in zip(traces, traces[1:]))

    def test_covariance_calibrated_against_monte_carlo(self):
        # whitened deviation of noisy segments from the noiseless one
        rng = np.random.default_rng(7)
        rate, dur = 200.0, 0.5
        clean = sampled_stream(rate, dur, sinusoid_signals)
        seg0 = preintegrate(clean, Bias.zero(), NOISE)
        w = np.linalg.cholesky(np.linalg.inv(seg0.covariance))
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
                    (seg0.delta_rot.inverse() @ seg.delta_rot).log(),
                    seg.delta_vel - seg0.delta_vel,
                    seg.delta_pos - seg0.delta_pos,
                ]
            )
            samples.append(w.T @ err)
        std = np.std(np.concatenate(samples))
        assert 0.9 < std < 1.1


class TestBiasCorrect:
    def test_zero_correction_is_identity(self):
        stream = sampled_stream(500.0, 1.0, sinusoid_signals)
        seg = preintegrate(stream, Bias.zero(), NOISE)
        rot, vel, pos, warned = bias_correct(seg, Bias.zero())
        assert not warned
        assert rot.angle_to(seg.delta_rot) < 1e-12
        np.testing.assert_array_equal(vel, seg.delta_vel)
        np.testing.assert_array_equal(pos, seg.delta_pos)

    def test_small_gyro_bias_matches_reintegration(self):
        gyro = np.array([0.0, 0.0, 1.0])
        stream = constant_stream(1001, 1000.0, gyro, np.zeros(3))
        seg = preintegrate(stream, Bias.zero(), NOISE)
        delta = Bias(np.array([0.0, 0.0, 1e-3]), np.zeros(3))
        rot, _, _, warned = bias_correct(seg, delta)
        assert not warned
        seg_re = preintegrate(stream, delta, NOISE)
        assert rot.angle_to(seg_re.delta_rot) < 1e-6

    def test_general_small_bias_first_order(self):
        stream = sampled_stream(1000.0, 1.0, sinusoid_signals)
        seg = preintegrate(stream, Bias.zero(), NOISE)
        delta = Bias(np.array([4e-4, -3e-4, 5e-4]), np.array([1e-3, -2e-3, 1.5e-3]))
        rot, vel, pos, _ = bias_correct(seg, delta)
        seg_re = preintegrate(stream, delta, NOISE)
        assert rot.angle_to(seg_re.delta_rot) < 1e-6
        np.testing.assert_allclose(vel, seg_re.delta_vel, atol=1e-5)
        np.testing.assert_allclose(pos, seg_re.delta_pos, atol=1e-5)

    def test_large_correction_warns(self):
        stream = constant_stream(101, 100.0, np.zeros(3), np.zeros(3))
        seg = preintegrate(stream, Bias.zero(), NOISE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, _, warned = bias_correct(seg, Bias(np.array([1.0, 0.0, 0.0]), np.zeros(3)))
        assert warned


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
        res = preintegration_residual(seg, pose_i, v_i, pose_j, v_j, Bias.zero())
        assert np.abs(res).max() < 1e-8

    def test_free_fall_zero_residual(self):
        # zero specific force, states in free fall under gravity
        stream = constant_stream(201, 200.0, np.zeros(3), np.zeros(3))
        seg = preintegrate(stream, Bias.zero(), NOISE)
        pose_i = RigidPose(Rotation.identity(), np.zeros(3))
        v0 = np.array([1.0, 0.0, 0.0])
        t = seg.dt
        pose_j = RigidPose(Rotation.identity(), v0 * t + 0.5 * GRAVITY_W * t**2)
        v1 = v0 + GRAVITY_W * t
        res = preintegration_residual(seg, pose_i, v0, pose_j, v1, Bias.zero())
        assert np.abs(res).max() < 1e-10

    def test_velocity_perturbation_maps_to_velocity_rows(self):
        rng = np.random.default_rng(12)
        seg, (pose_i, v_i), (pose_j, v_j) = self.make_consistent(rng)
        res = preintegration_residual(
            seg, pose_i, v_i, pose_j, v_j + pose_i.rotation.apply([0.1, 0.0, 0.0]),
            Bias.zero(),
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

        jacs = preintegration_residual_jacobians(seg, pose_i, v_i, pose_j, v_j, bias_i)

        from vigt.solver import Manifold, retract

        blocks = [
            (pose_i, Manifold.RIGID_POSE, 6),
            (v_i, Manifold.EUCLIDEAN, 3),
            (pose_j, Manifold.RIGID_POSE, 6),
            (v_j, Manifold.EUCLIDEAN, 3),
            (bias_i.as_vector(), Manifold.EUCLIDEAN, 6),
        ]

        def evaluate(vals):
            return preintegration_residual(
                seg, vals[0], vals[1], vals[2], vals[3], Bias.from_vector(vals[4])
            )

        base_vals = [pose_i, v_i, pose_j, v_j, bias_i.as_vector()]
        step = 1e-6
        for bi, (val, manifold, dim) in enumerate(blocks):
            num = np.zeros((9, dim))
            for d in range(dim):
                delta = np.zeros(dim)
                delta[d] = step
                plus = list(base_vals)
                plus[bi] = retract(manifold, val, delta)
                minus = list(base_vals)
                minus[bi] = retract(manifold, val, -delta)
                num[:, d] = (evaluate(plus) - evaluate(minus)) / (2 * step)
            scale = np.maximum(np.abs(num), 1.0)
            assert np.max(np.abs(jacs[bi] - num) / scale) < 1e-5, f"block {bi}"


class TestBiasWalk:
    def test_covariance_scales_with_dt(self):
        c1 = bias_walk_covariance(NOISE, 1.0)
        c2 = bias_walk_covariance(NOISE, 4.0)
        np.testing.assert_allclose(c2, 4.0 * c1)


class TestStreamSlicing:
    def test_between_interpolates_boundaries(self):
        stream = sampled_stream(100.0, 1.0, sinusoid_signals)
        chunk = stream.between(105_000_000, 341_000_000)
        assert chunk.timestamps[0] == 105_000_000
        assert chunk.timestamps[-1] == 341_000_000
        # boundary value linearly interpolated between the 100 ms and 110 ms samples
        t = np.array([0.10, 0.105, 0.11])
        gyro, _ = sinusoid_signals(t)
        expected = 0.5 * (gyro[0] + gyro[2])
        np.testing.assert_allclose(chunk.gyro[0], expected, atol=1e-4)

    def test_between_outside_coverage_raises(self):
        stream = sampled_stream(100.0, 1.0, sinusoid_signals)
        with pytest.raises(ImuDataError):
            stream.between(-10, 500_000_000)
