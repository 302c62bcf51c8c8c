"""Tests of `tools/parity.py compare` on tiny hand-written dumps; no
pipeline runs."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import parity  # noqa: E402


def write_dump(path, **changed) -> str:
    """One run's quantities, every one `compare` reads, with `changed`
    replacing the defaults."""
    arrays = {name: np.ones((2, 3)) for name in parity.ABSOLUTE + parity.RELATIVE}
    arrays.update({name: np.eye(3)[None] for name in parity.PER_BLOCK})
    arrays.update({name: np.array(["a", "b"]) for name in parity.DISCRETE})
    arrays["cost_history"] = np.array([[4.0, 2.0, 1.0], [3.0, 1.5, np.nan]])
    arrays.update(changed)
    np.savez(path, **{f"cp-dense/0/{name}": value for name, value in arrays.items()})
    return str(path)


def deviations(out: str) -> dict[str, float]:
    """The printed largest deviation of each numeric quantity."""
    return {
        line.split()[0]: float(line.split()[-1])
        for line in out.splitlines()
        if "largest" in line
    }


def test_identical_dumps_pass(tmp_path, capsys):
    a, b = write_dump(tmp_path / "a.npz"), write_dump(tmp_path / "b.npz")
    assert parity.compare(a, b) == 0
    out = capsys.readouterr().out
    assert deviations(out) == {
        name: 0.0 for name in parity.ABSOLUTE + parity.PER_BLOCK + parity.RELATIVE
    }
    assert "differ" not in out


def test_differing_termination_fails(tmp_path, capsys):
    a = write_dump(tmp_path / "a.npz")
    b = write_dump(tmp_path / "b.npz", terminations=np.array(["a", "c"]))
    assert parity.compare(a, b) == 1
    assert "differ: cp-dense/0/terminations" in capsys.readouterr().out


def test_one_step_fewer_is_listed_but_passes(tmp_path, capsys):
    # solve 0 stops one step early; its first step differs by 2^-10 relative
    a = write_dump(tmp_path / "a.npz")
    b = write_dump(
        tmp_path / "b.npz",
        cost_history=np.array([[4.0, 2.0 * (1.0 + 2.0**-10), np.nan], [3.0, 1.5, np.nan]]),
    )
    assert parity.compare(a, b) == 0
    out = capsys.readouterr().out
    assert "cp-dense/0/cost_history: solve 0 accepted 2 and 1 steps" in out
    assert deviations(out)["cost_history"] == pytest.approx(2.0**-10, rel=1e-3)


def test_pose_covariances_relative_to_each_blocks_largest_entry(tmp_path, capsys):
    # block 0 (largest entry 64) moves by 2^-4 and block 1 (largest entry 1)
    # by 2^-7 at an entry of 0.25: 2^-10 and 2^-7 of their largest entries.
    # Against one largest entry over all blocks the result would be 2^-10,
    # and against the moved entry 2^-5.
    blocks = np.stack([np.diag([64.0, 1.0, 1.0]), np.diag([1.0, 0.25, 1.0])])
    moved = blocks.copy()
    moved[0, 1, 1] += 2.0**-4
    moved[1, 1, 1] += 2.0**-7
    a = write_dump(tmp_path / "a.npz", pose_covariances=blocks)
    b = write_dump(tmp_path / "b.npz", pose_covariances=moved)
    assert parity.compare(a, b) == 0
    assert deviations(capsys.readouterr().out)["pose_covariances"] == pytest.approx(
        2.0**-7, rel=1e-3
    )


def test_nan_on_one_side_reads_inf_and_equal_infinities_zero(tmp_path, capsys):
    # an infinite CP error is a CP without triangulation, here on both sides
    positions = np.ones((2, 3))
    positions[0, 0] = np.nan
    cp_errors = np.array([0.1, np.inf, 0.2])
    a = write_dump(tmp_path / "a.npz", cp_errors=cp_errors)
    b = write_dump(tmp_path / "b.npz", cp_errors=cp_errors, positions=positions)
    assert parity.compare(a, b) == 0
    found = deviations(capsys.readouterr().out)
    assert found["positions"] == np.inf
    assert found["cp_errors"] == 0.0


# `gates` on two keyframes whose position marginal has standard deviations
# 2, 1 and 3 cm; the rotation block and its coupling to the position would
# change the moves if they were read
COVARIANCE = np.block(
    [[np.eye(3), 0.5 * np.eye(3)], [0.5 * np.eye(3), np.diag([4e-4, 1e-4, 9e-4])]]
)


def write_runs(path, runs: dict) -> str:
    """A dump of the quantities `gates` reads, one entry per run name
    ("workload/realization"), each a dict overriding the defaults."""
    arrays = {}
    for run, changed in runs.items():
        quantities = {
            "positions": np.zeros((2, 3)),
            "pose_covariances": np.stack([COVARIANCE, COVARIANCE]),
            "cp_errors": np.array([0.01, np.inf, 0.2]),
            "stages": np.array(["alignment", "fusion", "fusion"]),
            "iterations": np.array([20, 10, 12]),
        }
        quantities.update(changed)
        arrays.update({f"{run}/{name}": value for name, value in quantities.items()})
    np.savez(path, **arrays)
    return str(path)


def gate_lines(out: str) -> dict[str, dict[str, str]]:
    """The printed lines of each workload, by their label."""
    found, workload = {}, None
    for line in out.splitlines():
        if not line.startswith(" "):
            workload = line.split()[0]
            found[workload] = {"header": line}
        else:
            label, _, value = line.strip().partition("  ")
            found[workload][label] = value.strip()
    return found


def test_gates_report_moves_scores_and_iterations(tmp_path, capsys):
    moved = np.zeros((2, 3))
    moved[1] = (0.0, 0.0005, 0.0015)  # 0.05 sigma in y and in z
    a = write_runs(tmp_path / "a.npz", {"cp-dense/0": {}, "cp-dense/1": {}, "landmarks/0": {}})
    b = write_runs(
        tmp_path / "b.npz",
        {
            "cp-dense/0": {"positions": moved, "iterations": np.array([9, 5, 6])},
            "cp-dense/1": {"cp_errors": np.array([0.01 + 4e-5, np.inf, 0.2])},
            # 1 % of the largest entry of each block
            "landmarks/0": {"pose_covariances": np.stack([COVARIANCE, COVARIANCE]) * 1.01},
        },
    )
    assert parity.gates(a, b) == 0
    lines = gate_lines(capsys.readouterr().out)
    dense = lines["cp-dense"]
    assert dense["header"] == "cp-dense (2 runs)"
    sigma = float(dense["largest keyframe move"].split()[0])
    assert sigma == pytest.approx(0.05 * np.sqrt(2), abs=1e-4)
    assert float(dense["largest CP error move"].split()[0]) == pytest.approx(0.04, abs=1e-4)
    # (100 + 0 + 90) / 3 on either side; 2 of 3 CPs within 1 m
    assert dense["cp_score"] == "63.333333 -> 63.333333"
    assert dense["cp_recall_1m"] == "66.666667 -> 66.666667"
    assert dense["alignment LM iterations"] == "40 -> 29"
    assert dense["fusion LM iterations"] == "44 -> 33"
    # the first fusion solve of each run, then the second, summed over the runs
    assert dense["fusion per solve"] == "20+24 -> 15+18"
    assert dense["pose covariance move"] == "0.00% of each block's largest entry"
    assert lines["landmarks"]["largest keyframe move"].startswith("0.0000 sigma")
    assert lines["landmarks"]["pose covariance move"] == "1.00% of each block's largest entry"


@pytest.mark.parametrize(
    "changed",
    [
        {"positions": np.array([[0.0, 0.0, 0.0], [0.0021, 0.0, 0.0]])},  # 0.105 sigma
        {"cp_errors": np.array([0.01, np.inf, 0.2 - 1.1e-4])},  # 0.11 mm
        {"positions": np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])},
    ],
    ids=["keyframe", "cp-error", "nan-keyframe"],
)
def test_gates_fail_past_a_tenth_sigma_or_mm(tmp_path, capsys, changed):
    a = write_runs(tmp_path / "a.npz", {"cp-dense/0": {}})
    b = write_runs(tmp_path / "b.npz", {"cp-dense/0": changed})
    assert parity.gates(a, b) == 1
    assert gate_lines(capsys.readouterr().out)["cp-dense"]["header"].endswith("FAILS")


def test_gates_refuse_dumps_of_different_runs(tmp_path, capsys):
    a = write_runs(tmp_path / "a.npz", {"cp-dense/0": {}})
    b = write_runs(tmp_path / "b.npz", {"cp-dense/1": {}})
    assert parity.gates(a, b) == 1
