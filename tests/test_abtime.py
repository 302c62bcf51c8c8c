"""Smoke test of `tools/abtime.py`: one realization of this tree timed
against itself."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import abtime  # noqa: E402


def test_one_realization_against_itself(tmp_path, capsys):
    out = tmp_path / "ab.json"
    src = str(ROOT / "src")
    args = [src, src, "--workload", "cp-dense", "--realizations", "1", "--rounds", "2"]
    assert abtime.main(args + ["--json", str(out)]) == 0
    assert "B/A over 2 pairs" in capsys.readouterr().out
    result = json.loads(out.read_text())
    assert [run["first"] for run in result["runs"]] == ["A", "B"]
    for run in result["runs"]:
        assert (run["workload"], run["seed"], run["realization"]) == ("cp-dense", 1, 0)
        for side in "AB":
            for clock in abtime.CLOCKS:
                t = run[side][clock]
                assert set(t) == set(abtime.STAGES)
                assert all(v > 0.0 for v in t.values())
                assert t["run_s"] == pytest.approx(t["eval_s"] + t["pseudo_gt_s"])
    for clock in abtime.CLOCKS:
        for stage in abtime.STAGES:
            s = result["summary"]["cp-dense"][clock][stage]
            lo, hi = s["ci95"]
            assert s["pairs"] == 2
            assert 0.0 < lo <= s["median_ratio"] <= hi
