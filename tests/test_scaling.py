"""Smoke test of `tools/scaling.py`: its shortest case, once. The tool
wraps private triangulation names by string, so a rename that breaks it
fails here."""

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import scaling  # noqa: E402


def test_two_second_case():
    row = scaling._run_case(2, 0, 1)
    for stage in (
        "build_s",
        "triangulate_s",
        "optimize_s",
        "marginals_s",
        "eval_triangulate_s",
        "eval_align_s",
    ):
        assert math.isfinite(row[stage]) and row[stage] > 0.0, stage
    assert row["eval_refine_calls"] > 0
    assert row["eval_refine_rounds"] > 0
    assert row["eval_hypotheses"] > 0
