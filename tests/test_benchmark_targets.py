"""The benchmark's tracer (perfbench/tracer.py) wraps tinydet functions by
module and name, and checks how often the traced run calls them.  The suite
does not run the benchmark, so these tests read the tracer's own tables and
fail when a rename or a changed call count would break it."""

import importlib
import importlib.util
import os
import sys

import numpy as np
import pytest

from tinydet.detector import DetectorConfig, DetectorModel
from tinydet.scenes import SceneSpec, generate_scene
from tinydet.tensor import Tensor
from tinydet.training import TrainConfig, train

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _perfbench_module(stem):
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}",
                                                  os.path.join(PERFBENCH, f"{stem}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def tracer():
    yield from _perfbench_module("tracer")


@pytest.fixture(scope="module")
def workloads():
    yield from _perfbench_module("workloads")


def test_every_tracer_target_resolves(tracer):
    for module, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(f"tinydet.{module}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"tracer target tinydet.{module}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"tinydet.{module}.{attr}"


def test_a_traced_training_step_and_predict_meet_the_tracer_coverage(tracer):
    scene = generate_scene(SceneSpec(seed=0), 0)
    with tracer.Tracer() as t:
        train([scene], DetectorConfig(), TrainConfig(epochs=1, batch_size=1, reg_loss="dcloss",
                                                     dc_learnable=True))
    assert tracer.coverage_errors(t.spans, "train", 1) == []
    with tracer.Tracer() as t:
        DetectorModel(DetectorConfig(), seed=0).predict(Tensor(scene.image))
    assert tracer.coverage_errors(t.spans, "infer", 1) == []
    assert t.spans["detector.head_forward"].calls == 1
    # The tracer counts nms's first positional argument as the candidates: on
    # the untrained model every one of the 1364 anchors x 3 classes clears the floor.
    assert t.spans["evaluation.nms"].items == 4092
    # nms takes IoUs a block of ranked candidates at a time, not one row per kept
    # box: a per-box loop would call iou_matrix 100 times here.
    assert t.spans["anchors.iou_matrix"].calls <= 3


def test_a_diverged_predict_counts_as_one_failed_benchmark_operation(workloads):
    model = DetectorModel(DetectorConfig(), seed=0)
    model.store["head.cls.b"].data[...] = np.nan
    tally = workloads.Tally()
    assert workloads._predict(model, generate_scene(SceneSpec(seed=0), 0), tally) == (None, 0.0)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "DivergenceError" in tally.messages[0]
