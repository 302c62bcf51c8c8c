"""Tests for pseudo-ground-truth fusion on short synthetic scenes."""

import logging

import numpy as np
import pytest

from vigt.errors import ImuDataError, UnobservableError
from vigt.fusion import FusionConfig, build_fusion_problem, optimize_pseudo_gt
from vigt.inertial import BIAS_CORRECTION_WARN_NORM, ImuStream
from vigt.synth import (
    SynthConfig,
    default_rig,
    gen_detections,
    gen_imu,
    gen_world,
    perturb_trajectory,
)

# Mixed 2D/3D control points (three 3D, one 2D) and a few landmarks, in a
# scene short enough that a full build-and-solve takes 1-2 s.
SCENE = SynthConfig(
    seed=21,
    duration_s=2.0,
    cam_rate_hz=10.0,
    cp_count=4,
    cp_2d_fraction=0.25,
    landmark_count=10,
    detection_sigma_px=0.5,
)
STRIDE = 2
# The 5 cm init noise (about 85 mm RMS) drops to about 20 mm RMS on this
# scene; the bounds leave room for other noise draws.
BOUND_RMS_MM = 50.0
BOUND_MAX_MM = 100.0


@pytest.fixture(scope="module")
def scene():
    world = gen_world(SCENE)
    rig = default_rig()
    detections = gen_detections(world, rig, seed=3)
    imu = gen_imu(world, seed=4)
    truth = world.world_trajectory()
    init = perturb_trajectory(truth, white_sigma_pos=0.05, seed=5)
    return world, rig, detections, imu, truth, init


def errors_mm(poses: dict, truth, keyframe_ts) -> np.ndarray:
    """Position errors at the keyframes against the true world trajectory."""
    true_poses = truth.pose_map()
    return 1000.0 * np.array(
        [np.linalg.norm(poses[ts].translation - true_poses[ts].translation) for ts in keyframe_ts]
    )


@pytest.mark.parametrize("mode", ["full", "inertial-only"])
def test_recovers_truth_from_perturbed_init(scene, mode):
    world, rig, detections, imu, truth, init = scene
    config = FusionConfig(mode=mode, keyframe_stride=STRIDE)
    fp = build_fusion_problem(
        init, detections.tracks, detections.cp_observations, world.cps, imu, rig, config
    )
    assert len(fp.cp_ids) == SCENE.cp_count
    assert bool(fp.landmark_ids) == (mode == "full")
    pgt = optimize_pseudo_gt(fp)
    init_err = errors_mm(init.pose_map(), truth, fp.keyframe_ts)
    err = errors_mm({k.timestamp_ns: k.pose for k in pgt.keyframes}, truth, fp.keyframe_ts)
    rms = np.sqrt(np.mean(err**2))
    assert rms < BOUND_RMS_MM
    assert err.max() < BOUND_MAX_MM
    assert rms < 0.5 * np.sqrt(np.mean(init_err**2))
    for cov in pgt.pose_covariances:
        assert np.linalg.eigvalsh(cov).min() > 0.0


def test_bias_excursions_counted_and_logged_once(scene, caplog):
    world, rig, detections, imu, truth, init = scene
    config = FusionConfig(keyframe_stride=STRIDE)
    fp = build_fusion_problem(
        init, detections.tracks, detections.cp_observations, world.cps, imu, rig, config
    )
    with caplog.at_level(logging.WARNING, logger="vigt.fusion"):
        pgt = optimize_pseudo_gt(fp)
    # every interval is preintegrated at zero bias, from its first keyframe;
    # only the gyro bias counts, as the correction is exact in the accel bias
    expected = sum(
        np.linalg.norm(kf.bias.gyro) > BIAS_CORRECTION_WARN_NORM
        for kf in pgt.keyframes[:-1]
    )
    assert pgt.bias_excursions == expected
    records = [r for r in caplog.records if r.name == "vigt.fusion"]
    assert len(records) == (1 if expected > 0 else 0)


def test_gyro_bias_excursions_past_a_lowered_threshold_logged_once(
    scene, caplog, monkeypatch
):
    # the scene's estimated gyro biases reach about 1e-3 rad/s
    threshold = 1e-4
    monkeypatch.setattr("vigt.inertial.BIAS_CORRECTION_WARN_NORM", threshold)
    world, rig, detections, imu, truth, init = scene
    fp = build_fusion_problem(
        init, detections.tracks, detections.cp_observations, world.cps, imu, rig,
        FusionConfig(keyframe_stride=STRIDE),
    )
    with caplog.at_level(logging.WARNING, logger="vigt.fusion"):
        pgt = optimize_pseudo_gt(fp)
    expected = sum(np.linalg.norm(kf.bias.gyro) > threshold for kf in pgt.keyframes[:-1])
    assert 0 < expected == pgt.bias_excursions
    assert len([r for r in caplog.records if r.name == "vigt.fusion"]) == 1


def test_imu_gap_raises(scene):
    world, rig, detections, imu, truth, init = scene
    ts = imu.timestamps
    # drop every sample strictly inside the second keyframe interval
    kf = truth.timestamps[::STRIDE]
    keep = ~((ts > kf[1]) & (ts < kf[2]))
    gapped = ImuStream(ts[keep], imu.gyro[keep], imu.accel[keep])
    with pytest.raises(ImuDataError):
        build_fusion_problem(
            init, [], detections.cp_observations, world.cps, gapped, rig,
            FusionConfig(keyframe_stride=STRIDE),
        )


def test_no_cp_detection_on_keyframes_is_unobservable(scene):
    world, rig, detections, imu, truth, init = scene
    keyframes = set(int(t) for t in truth.timestamps[::STRIDE]) | {int(truth.timestamps[-1])}
    off_keyframe = {
        cid: [o for o in obs if o.image_id not in keyframes]
        for cid, obs in detections.cp_observations.items()
    }
    assert any(off_keyframe.values())
    with pytest.raises(UnobservableError):
        build_fusion_problem(
            init, detections.tracks, off_keyframe, world.cps, imu, rig,
            FusionConfig(keyframe_stride=STRIDE),
        )
