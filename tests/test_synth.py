"""Tests for the synthetic-world generator."""

import numpy as np
import pytest

from vigt.geometry import Rotation, Similarity
from vigt.inertial import GRAVITY_W, Bias, preintegrate
from vigt.metrics import coverage_check
from vigt.synth import (
    SynthConfig,
    default_rig,
    euler_zyx_body_rates,
    euler_zyx_matrix,
    gen_detections,
    gen_imu,
    gen_world,
    perturb_trajectory,
)

EVAL_CFG = SynthConfig(seed=42, duration_s=30.0, cp_count=10, landmark_count=20)


class TestOrientationMath:
    def test_body_rates_match_numerical_derivative(self):
        sched_args = dict(yaw=0.3, pitch=-0.2, roll=0.15)

        def angles(t):
            return 0.3 + 0.7 * t, -0.2 + 0.4 * t, 0.15 - 0.9 * t

        h = 1e-6
        for t in (0.0, 0.4, 1.1):
            y0, p0, r0 = angles(t - h)
            y1, p1, r1 = angles(t + h)
            y, p, r = angles(t)
            m0 = euler_zyx_matrix(y0, p0, r0)
            m1 = euler_zyx_matrix(y1, p1, r1)
            # omega from finite rotation: Log(R0^T R1) / (2h)
            rel = Rotation.from_matrix(m0.T @ m1).log() / (2 * h)
            w = euler_zyx_body_rates(y, p, r, 0.7, 0.4, -0.9)
            np.testing.assert_allclose(w, rel, atol=1e-6)


class TestGenWorld:
    def test_figure_eight_closes(self):
        world = gen_world(SynthConfig(seed=1, duration_s=60.0))
        start = world.trajectory.poses[0].translation
        end = world.trajectory.poses[-1].translation
        assert np.linalg.norm(start - end) < 1e-6

    def test_waypoints_interpolated(self):
        cfg = SynthConfig(seed=2, trajectory="waypoints", duration_s=50.0)
        world = gen_world(cfg)
        # the spline hits its first waypoint at t=0
        np.testing.assert_allclose(
            world.curve.position(0.0), [0.0, 0.0, 1.5], atol=1e-9
        )

    def test_deterministic_under_seed(self):
        w1 = gen_world(EVAL_CFG)
        w2 = gen_world(EVAL_CFG)
        np.testing.assert_array_equal(w1.trajectory.timestamps, w2.trajectory.timestamps)
        for p1, p2 in zip(w1.trajectory.poses, w2.trajectory.poses):
            np.testing.assert_array_equal(p1.translation, p2.translation)
            np.testing.assert_array_equal(p1.rotation.quat, p2.rotation.quat)
        for c1, c2 in zip(w1.cps, w2.cps):
            np.testing.assert_array_equal(c1.position, c2.position)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(duration_s=0.0)

    def test_world_frame_mapping(self):
        g = Similarity(1.4, Rotation.exp([0, 0, 0.6]), np.array([5.0, 1.0, 0.0]))
        cfg = SynthConfig(seed=3, duration_s=20.0, cp_count=6, cp_2d_fraction=0.0,
                          world_from_local=g)
        world = gen_world(cfg)
        for cp in world.cps:
            expected = g.apply(world.cp_local[cp.cp_id])
            np.testing.assert_allclose(cp.position, expected, atol=1e-12)

    def test_velocity_matches_position_derivative(self):
        world = gen_world(EVAL_CFG)
        t = world.trajectory.timestamps * 1e-9
        h = 1e-5
        for k in (3, 50, 200):
            num = (world.curve.position(t[k] + h) - world.curve.position(t[k] - h)) / (2 * h)
            np.testing.assert_allclose(world.velocities[k], num, atol=1e-6)


class TestGenDetections:
    def test_noiseless_reprojection_exact(self):
        world = gen_world(EVAL_CFG)
        rig = default_rig()
        det = gen_detections(world, rig, sigma_px=0.0)
        poses = world.trajectory.pose_map()
        checked = 0
        for cid, obs_list in det.cp_observations.items():
            p = world.cp_local[cid]
            for obs in obs_list[:5]:
                pose = poses[obs.image_id]
                extr = rig.camera_from_device[obs.camera_id]
                p_cam = extr.apply(pose.inverse().apply(p))
                from vigt.geometry import project

                uv = project(rig.cameras[obs.camera_id], p_cam)
                np.testing.assert_allclose(uv, obs.pixel, atol=1e-9)
                checked += 1
        assert checked > 10

    def test_every_cp_observed_in_default_scene(self):
        world = gen_world(EVAL_CFG)
        det = gen_detections(world, default_rig(), sigma_px=0.0)
        for cid, obs in det.cp_observations.items():
            assert len(obs) >= 5, f"{cid} has only {len(obs)} observations"

    def test_noise_magnitude_calibrated(self):
        world = gen_world(EVAL_CFG)
        rig = default_rig()
        clean = gen_detections(world, rig, sigma_px=0.0)
        noisy = gen_detections(world, rig, sigma_px=1.0)
        diffs = []
        for cid in clean.cp_observations:
            for a, b in zip(clean.cp_observations[cid], noisy.cp_observations[cid]):
                diffs.append(b.pixel - a.pixel)
        for track_a, track_b in zip(clean.tracks, noisy.tracks):
            for a, b in zip(track_a.observations, track_b.observations):
                diffs.append(b.pixel - a.pixel)
        diffs = np.concatenate(diffs)
        assert len(diffs) >= 10_000
        assert 0.97 <= np.std(diffs) <= 1.03

    def test_unseen_point_reported_empty(self):
        cfg = SynthConfig(seed=4, duration_s=10.0, cp_count=2, max_range_m=0.5)
        world = gen_world(cfg)
        det = gen_detections(world, default_rig())
        assert all(len(v) == 0 for v in det.cp_observations.values())


class TestGenImu:
    def test_specific_force_matches_analytic_expectation(self):
        world = gen_world(SynthConfig(seed=5, duration_s=60.0))
        imu = gen_imu(world, noisy=False)
        t = imu.timestamps * 1e-9
        rot = world.curve.rotation_matrices(t)
        acc_w = world.curve.acceleration(t)
        expected = np.einsum(
            "nij,nj->ni", rot.transpose(0, 2, 1), acc_w - GRAVITY_W
        )
        np.testing.assert_allclose(imu.accel, expected, atol=1e-12)
        # slow motion: the gravity reaction (+9.81 on body z) dominates
        assert abs(np.mean(np.linalg.norm(imu.accel, axis=1)) - 9.81) < 0.5
        assert np.mean(imu.accel[:, 2]) > 9.0

    def test_preintegration_consistency_with_trajectory(self):
        world = gen_world(SynthConfig(seed=6, duration_s=8.0, imu_rate_hz=1000.0))
        imu = gen_imu(world, noisy=False)
        t0, t1 = 2_000_000_000, 3_000_000_000
        seg = preintegrate(imu.between(t0, t1), Bias.zero(), world.config.imu_noise)

        r0 = world.curve.rotation(t0 * 1e-9)
        r1 = world.curve.rotation(t1 * 1e-9)
        p0, p1 = world.curve.position(t0 * 1e-9), world.curve.position(t1 * 1e-9)
        v0, v1 = world.curve.velocity(t0 * 1e-9), world.curve.velocity(t1 * 1e-9)
        dt = (t1 - t0) * 1e-9
        g = GRAVITY_W

        rot_expected = r0.inverse() @ r1
        vel_expected = r0.matrix().T @ (v1 - v0 - g * dt)
        pos_expected = r0.matrix().T @ (p1 - p0 - v0 * dt - 0.5 * g * dt**2)

        assert Rotation(seg.delta_rot[0]).angle_to(rot_expected) < 1e-4
        np.testing.assert_allclose(seg.delta_vel[0], vel_expected, atol=1e-4)
        np.testing.assert_allclose(seg.delta_pos[0], pos_expected, atol=1e-4)

    def test_gyro_bias_drifts_preintegrated_rotation(self):
        # small-angle prediction needs small body rotation over the span;
        # the platform curve barely rotates
        world = gen_world(SynthConfig(
            seed=7, duration_s=5.0, trajectory="platform",
            gyro_bias=(0.01, 0.0, 0.0), imu_rate_hz=500.0,
        ))
        imu_biased = gen_imu(world, noisy=False)
        imu_clean = gen_imu(world, bias=Bias.zero(), noisy=False)
        span = 1.0
        seg_b = preintegrate(
            imu_biased.between(0, int(span * 1e9)), Bias.zero(), world.config.imu_noise
        )
        seg_c = preintegrate(
            imu_clean.between(0, int(span * 1e9)), Bias.zero(), world.config.imu_noise
        )
        drift = Rotation(seg_c.delta_rot[0]).angle_to(Rotation(seg_b.delta_rot[0]))
        assert drift == pytest.approx(0.01 * span, rel=0.05)

    @pytest.mark.parametrize(
        "world_from_local",
        [
            Similarity(1.0, Rotation.exp([0.02, 0.0, 0.7]), np.zeros(3)),
            Similarity(1.4, Rotation.identity(), np.zeros(3)),
        ],
        ids=["tilted", "scaled"],
    )
    def test_non_metric_or_tilted_world_frame_rejected(self, world_from_local):
        world = gen_world(SynthConfig(seed=13, duration_s=2.0, world_from_local=world_from_local))
        with pytest.raises(ValueError, match="gravity-aligned"):
            gen_imu(world)

    def test_yaw_only_world_frame_accepted(self):
        # a yaw and a translation, scale 1, as in the benchmark workloads
        frame = Similarity(1.0, Rotation.exp([0.0, 0.0, 0.7]), [120.0, -45.0, 3.0])
        world = gen_world(SynthConfig(seed=13, duration_s=2.0, world_from_local=frame))
        assert len(gen_imu(world)) > 0

    def test_imu_noise_std_calibrated(self):
        world = gen_world(SynthConfig(seed=8, duration_s=20.0, imu_rate_hz=200.0))
        clean = gen_imu(world, noisy=False)
        noisy = gen_imu(world, noisy=True)
        resid = noisy.gyro - clean.gyro
        expected = world.config.imu_noise.gyro_density * np.sqrt(200.0)
        assert np.std(resid) == pytest.approx(expected, rel=0.05)


class TestPerturb:
    def test_zero_model_identity(self):
        world = gen_world(SynthConfig(seed=9, duration_s=10.0))
        out = perturb_trajectory(world.trajectory)
        np.testing.assert_array_equal(out.timestamps, world.trajectory.timestamps)
        for a, b in zip(out.poses, world.trajectory.poses):
            np.testing.assert_array_equal(a.translation, b.translation)

    def test_dropout_triggers_coverage_failure(self):
        world = gen_world(SynthConfig(seed=10, duration_s=10.0))
        out = perturb_trajectory(world.trajectory, dropout=(4.0, 10.1))
        assert not coverage_check(out, 10.0)
        assert coverage_check(world.trajectory, 10.0)

    def test_scale_drift_applied(self):
        world = gen_world(SynthConfig(seed=11, duration_s=10.0))
        rate = 0.01
        out = perturb_trajectory(world.trajectory, scale_drift_rate=rate)
        t_rel = (world.trajectory.timestamps - world.trajectory.timestamps[0]) * 1e-9
        for k in (0, 50, 150):
            np.testing.assert_allclose(
                out.poses[k].translation,
                world.trajectory.poses[k].translation * (1 + rate * t_rel[k]),
                atol=1e-12,
            )

    def test_white_noise_deterministic_per_seed(self):
        world = gen_world(SynthConfig(seed=12, duration_s=5.0))
        a = perturb_trajectory(world.trajectory, white_sigma_pos=0.1, seed=3)
        b = perturb_trajectory(world.trajectory, white_sigma_pos=0.1, seed=3)
        for pa, pb in zip(a.poses, b.poses):
            np.testing.assert_array_equal(pa.translation, pb.translation)
