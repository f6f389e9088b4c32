"""Tests of the benchmark itself, on tiny scene counts.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tinydet import pyramid, training  # noqa: E402
from tinydet.anchors import Box  # noqa: E402
from tinydet.evaluation import Detection  # noqa: E402

# `tinydet.tensor` as an attribute is the tensor() function; import the module by name.
tensor = importlib.import_module("tinydet.tensor")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ORIGINAL_STEP = training.SGDMomentum.step


@pytest.fixture(scope="module")
def smoke_runs():
    return {(name, trace): bench.run_workload(name, seed=0, seconds=0.0, trace=trace, smoke=True)
            for name in workloads.WORKLOADS for trace in (False, True)}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_reported_with_its_unit(smoke_runs, name, trace):
    result = smoke_runs[(name, trace)]["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workloads_in_benchmark_json_match_the_code():
    # train256 stays runnable by name but is not gated (see README.md).
    assert [w["name"] for w in SPEC["workloads"]] == ["train128", "infer128"]
    assert all(w["why"] == workloads.WORKLOADS[w["name"]].why for w in SPEC["workloads"])


def test_traced_run_passes_coverage_and_restores_bindings(smoke_runs):
    layers = smoke_runs[("train128", True)]["result"]["metrics"]
    assert layers["tensor.conv2d.calls_per_img"]["value"] == tracer.CONV2D_PER_IMAGE
    assert layers["tensor.backward.calls_per_img"]["value"] == 1
    infer = smoke_runs[("infer128", True)]["result"]["metrics"]
    assert infer["tensor.backward.calls_per_img"]["value"] == 0
    assert infer["detector.predict.candidates_per_img"]["value"] > 0
    assert pyramid.conv2d is tensor.conv2d
    assert training.SGDMomentum.step is ORIGINAL_STEP
    assert not hasattr(tensor.Tensor.backward, "__wrapped__")
    assert not any(hasattr(value, "__wrapped__") for module in tracer._package_modules()
                   for value in vars(module).values())


def test_coverage_check_catches_a_missed_binding():
    w = workloads.WORKLOADS["infer128"].smoke()
    data, model = workloads.setup(w, seed=0)
    with tracer.Tracer() as t:
        pyramid.conv2d = tensor.conv2d.__wrapped__  # as if pyramid's binding were missed
        model.predict(tensor.Tensor(data[0].image))
    errors = tracer.coverage_errors(t.spans, "infer", images=1)
    assert len(errors) == 1 and "tensor.conv2d" in errors[0]
    assert pyramid.conv2d is tensor.conv2d


@pytest.mark.parametrize("name", ["train128", "infer128"])
def test_digest_repeats_for_the_same_seed(smoke_runs, name):
    again = bench.run_workload(name, seed=0, seconds=0.0, trace=False, smoke=True)
    assert again["record"]["digest"] == smoke_runs[(name, False)]["record"]["digest"]
    other = bench.run_workload(name, seed=1, seconds=0.0, trace=False, smoke=True)
    assert other["record"]["digest"] != again["record"]["digest"]


def test_output_checks_flag_bad_outputs():
    dets = [Detection(Box(0, 0, 4, 4), 0, 0.2), Detection(Box(120, 0, 130, 4), 0, 0.9)]
    problems = workloads.check_detections(dets, (128, 128), max_detections=1)
    assert len(problems) == 3  # too many, unsorted, box outside the image
    rising = [{"cls": 1.0, "reg": 0.0, "total": 1.0}, {"cls": 2.0, "reg": 0.0, "total": 2.0}]
    assert workloads.check_loss_curve(rising)
    assert workloads.check_loss_curve([{"cls": math.nan, "reg": 0.0, "total": 1.0}] * 2)


def test_divergence_counts_as_a_failed_operation(monkeypatch):
    def diverge(*args, **kwargs):
        raise training.DivergenceError("non-finite loss", None)

    monkeypatch.setattr(training, "train", diverge)
    tally = workloads.Tally()
    w = workloads.WORKLOADS["train128"].smoke()
    workloads.run_train(w, [], seconds=0.0, tally=tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_traced_run_reports_a_real_divergence_as_failed(monkeypatch):
    # A huge learning rate makes every train() call diverge, so the traced pass
    # finishes no image; the run must still give its result line.
    base = workloads.train_config
    monkeypatch.setattr(workloads, "train_config",
                        lambda w: dataclasses.replace(base(w), learning_rate=1e6))
    with np.errstate(all="ignore"):
        run = bench.run_workload("train128", seed=0, seconds=0.0, trace=True, smoke=True)
    result = run["result"]
    assert not result["correct"] and result["failed"] >= 2
    assert any("DivergenceError" in m for m in run["record"]["failures"])
    wanted = {m["name"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == wanted
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "train128",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60,
                         env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
