"""The benchmark's entry points into `vigt` (perfbench/), checked here so
that an API change that would break a benchmark run fails these tests."""

import importlib
import inspect
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import measure  # noqa: E402  (pulls in micro, layers, pipeline, tracing, workloads)
import micro  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(tracing.COUNTERS))
def test_traced_counters_name_vigt_functions(name):
    layer, attr = name.split(".")
    assert layer in tracing.LAYERS
    fn = getattr(importlib.import_module(f"vigt.{layer}"), attr, None)
    assert inspect.isfunction(fn), f"no public function vigt.{name}"


def test_inertial_microbenchmark_runs():
    (value,) = micro.inertial_metrics().values()
    assert value > 0.0


def test_traced_run_computes_every_per_layer_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = measure.traced_run(WORKLOADS["cp-dense"], 1, tmp_path)
    assert result.correct, result.problems
    assert result.failed == 0
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in result.metrics]
    assert not missing
    assert all(math.isfinite(v) for v in result.metrics.values())
