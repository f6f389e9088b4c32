"""The benchmark's workloads: inputs from a seed, closed-loop timing, and output checks.

Every call into tinydet goes through a module attribute (``training.train``,
``evaluation.evaluate_ap``, ...) so that the tracer in ``tracer.py`` can swap
those attributes for timed wrappers.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from tinydet import detector, evaluation, scenes, training
from tinydet.tensor import Tensor

# Operations a workload may report as failed instead of crashing the run.
EXPECTED_ERRORS = (training.DivergenceError, ValueError)

# Timings use the process's CPU time. The benchmark runs one thread (one BLAS
# thread, no I/O while timing), so on an idle host CPU time equals wall time.
# On a shared virtual machine it leaves out the time the hypervisor takes the
# vCPU away ("steal" in /proc/stat), which while it lasted lengthened train()
# calls by up to 25% of their CPU time. Slower phases of the host itself still
# show. Run length is wall time, and wall-clock throughput is printed alongside.
cpu_clock = time.process_time


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str        # "train" or "infer"
    side: int        # image height and width
    scenes: int      # scenes per train() call, or validation images in the pool
    epochs: int      # epochs per train() call; 0 for inference
    batch: int       # images per optimizer step, or per evaluate_ap() call
    why: str

    def scene_spec(self, seed: int) -> scenes.SceneSpec:
        # Object count scales with image area, so object density stays that of 128x128.
        area = (self.side // 128) ** 2
        return scenes.SceneSpec(height=self.side, width=self.side,
                                objects_min=area, objects_max=5 * area, seed=seed)

    def smoke(self) -> "Workload":
        """The same workload with tiny sizes, for the benchmark's own tests."""
        if self.kind == "infer":
            return Workload(self.name, self.kind, self.side, 2, 0, 2, self.why)
        return Workload(self.name, self.kind, self.side, 8, min(self.epochs, 2), self.batch, self.why)


WORKLOADS = {
    "train128": Workload(
        "train128", "train", 128, scenes=16, epochs=3, batch=4,
        why="train() at 128x128: 35 small conv2d calls per image forward and backward, "
            "so per-call Python overhead dominates; never calls predict, nms or evaluate_ap"),
    "train256": Workload(
        "train256", "train", 256, scenes=16, epochs=3, batch=4,
        why="the same training loop at 256x256 with 4x the objects: GEMMs and im2col "
            "buffers are 4x larger, so GEMM time and working set outweigh per-call overhead"),
    "infer128": Workload(
        "infer128", "infer", 128, scenes=32, epochs=0, batch=8,
        why="predict per image on the untrained model, then evaluate_ap: every anchor x class "
            "clears the score floor, so Detection building, nms and AP matching dominate"),
}

DEFAULT_SEED = 0
HELD_OUT_SEED = 1009   # kept for confirming claims on a seed not used while tuning
# The seed draws the scenes only. The model's init and the training order stay
# fixed, so that a run's cost depends on its inputs, not on which random model
# happened to be drawn (an untrained model's box spread sets the nms work).
MODEL_SEED = 0
SETUP_REPEATS = 11
P90_MIN_SAMPLES = 100  # a p90 needs at least 10 samples beyond it


def train_config(w: Workload) -> training.TrainConfig:
    return training.TrainConfig(epochs=w.epochs, batch_size=w.batch, reg_loss="dcloss",
                                dc_learnable=True, seed=MODEL_SEED)


def setup(w: Workload, seed: int):
    """Scene generation plus model init; the model is only used by inference
    (train() builds its own from the same config and seed)."""
    spec = w.scene_spec(seed)
    data = [scenes.generate_scene(spec, i) for i in range(w.scenes)]
    model = detector.DetectorModel(detector.DetectorConfig(), seed=MODEL_SEED)
    return data, model


def timed_setup(w: Workload, seed: int):
    """Run setup SETUP_REPEATS times; return the last result and the median CPU seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = cpu_clock()
        data, model = setup(w, seed)
        times.append(cpu_clock() - t0)
    return data, model, statistics.median(times)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def digest(rows) -> str:
    return hashlib.sha256(np.asarray(rows, dtype=np.float64).tobytes()).hexdigest()[:16]


@contextmanager
def step_clock():
    """CPU timestamp at the end of every optimizer step; yields the list."""
    ends = []
    original = training.SGDMomentum.step

    def step(self, lr):
        original(self, lr)
        ends.append(cpu_clock())

    training.SGDMomentum.step = step
    try:
        yield ends
    finally:
        training.SGDMomentum.step = original


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.extend(problems)


# -- checks -----------------------------------------------------------------


def check_loss_curve(curve) -> list[str]:
    totals = [row["total"] for row in curve]
    if not all(np.isfinite([v for row in curve for v in (row["cls"], row["reg"], row["total"])])):
        return [f"non-finite loss curve {totals}"]
    if not totals[-1] < totals[0]:
        return [f"last-epoch loss {totals[-1]} not below first {totals[0]}"]
    return []


def check_detections(dets, image_hw, max_detections: int) -> list[str]:
    h, w = image_hw
    problems = []
    if len(dets) > max_detections:
        problems.append(f"{len(dets)} detections > max_detections {max_detections}")
    scores = [d.score for d in dets]
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("detections not sorted by score")
    if any(not 0.0 <= s <= 1.0 for s in scores):
        problems.append("score outside [0,1]")
    if any(b.x1 < 0 or b.y1 < 0 or b.x2 > w or b.y2 > h for b in (d.box for d in dets)):
        problems.append("box outside the image")
    return problems


def check_ap_oracle(data, num_classes: int) -> list[str]:
    """Ground truths fed back as score-1 detections must score AP = 1 on every
    bucket that has ground truths."""
    gts = [s.gts for s in data]
    dets = [[evaluation.Detection(box, cls, 1.0) for box, cls in g] for g in gts]
    result = evaluation.evaluate_ap(dets, gts, num_classes=num_classes).as_dict()
    scales = [np.sqrt(box.area) for g in gts for box, _ in g]
    expect = ["ap", "ap50", "ap75"]
    for key, (lo, hi) in (("ap_vt", evaluation.SIZE_BUCKETS["vt"]),
                          ("ap_t", evaluation.SIZE_BUCKETS["t"])):
        if any(lo < s <= hi for s in scales):
            expect.append(key)
    return [f"AP oracle: {k} = {result[k]}, expected 1" for k in expect
            if abs(result[k] - 1.0) > 1e-9]


# -- closed loops ---------------------------------------------------------------


def run_train(w: Workload, data, seconds: float, tally: Tally) -> dict:
    """Call train() back to back until `seconds` have passed (at least once)."""
    det_cfg = detector.DetectorConfig()
    cfg = train_config(w)
    call_s, wall_s, step_ms, images = [], [], [], 0
    curve_digest, final_loss = None, None
    deadline = time.perf_counter() + seconds
    with step_clock() as ends:
        while True:
            ends.clear()
            t0, c0 = time.perf_counter(), cpu_clock()
            try:
                result = training.train(data, det_cfg, cfg)
            except EXPECTED_ERRORS as exc:
                tally.record([f"train(): {type(exc).__name__}: {exc}"])
                result = None
            cpu, wall = cpu_clock() - c0, time.perf_counter() - t0
            if result is not None:
                problems = check_loss_curve(result.loss_curve)
                rows = [[r["cls"], r["reg"], r["total"]] for r in result.loss_curve]
                d = digest(rows + [[result.dc_params.k, result.dc_params.delta, 0.0]])
                if curve_digest is None:
                    curve_digest = d
                elif d != curve_digest:
                    problems.append(f"loss curve digest {d} differs from first call's {curve_digest}")
                tally.record(problems)
                call_s.append(cpu)
                wall_s.append(wall)
                images += w.scenes * w.epochs
                # The first step of a call has no earlier boundary within the call.
                step_ms.extend(np.diff(ends) * 1e3)
                final_loss = result.loss_curve[-1]["total"]
            if time.perf_counter() >= deadline:
                break
    # Throughput is total images over total time, not a median over calls: the
    # host's speed shifts in phases of 10-20 s, and a median snaps to whichever
    # phase held most calls, while the total averages over them.
    return {"images": images, "call_s": call_s, "step_ms": step_ms,
            "final_loss": final_loss, "digest": curve_digest,
            "img_per_s": images / sum(call_s) if call_s else 0.0,
            "wall_img_per_s": images / sum(wall_s) if wall_s else 0.0}


def _predict(model, scene, tally: Tally):
    t0 = cpu_clock()
    try:
        dets = model.predict(Tensor(scene.image))
    except EXPECTED_ERRORS as exc:
        tally.record([f"predict(): {type(exc).__name__}: {exc}"])
        return None, 0.0
    dt = cpu_clock() - t0
    tally.record(check_detections(dets, scene.image.shape[1:], model.cfg.max_detections))
    return dets, dt


def _detection_rows(dets):
    return [[*d.box.as_array(), d.class_id, d.score] for d in dets] + [[-1.0] * 6]


def run_infer(w: Workload, data, model, seconds: float, tally: Tally) -> dict:
    """Rounds of predict() on `w.batch` pool images, each followed by one
    evaluate_ap() over the round's results, until `seconds` have passed (at
    least one round). The rounds take the pool's slices in turn, so a run
    covers the whole pool over and over; every repeat of a slice must give
    the detections of its first round bitwise."""
    slices = [data[i:i + w.batch] for i in range(0, len(data), w.batch)]
    first_digests = {}
    predict_ms, eval_s = [], []
    wall_s = 0.0
    rounds = 0
    deadline = time.perf_counter() + seconds
    while True:
        index = rounds % len(slices)
        chunk = slices[index]
        round_dets, rows, round_start = [], [], time.perf_counter()
        for scene in chunk:
            dets, dt = _predict(model, scene, tally)
            if dets is None:
                dets = []
            else:
                predict_ms.append(dt * 1e3)
            round_dets.append(dets)
            rows.extend(_detection_rows(dets))
        d = digest(rows)
        first = first_digests.setdefault(index, d)
        if d != first:
            tally.record([f"detections of pool slice {index} ({d}) differ from "
                          f"its first round's ({first})"])
        t0 = cpu_clock()
        try:
            ap = evaluation.evaluate_ap(round_dets, [s.gts for s in chunk],
                                        num_classes=model.cfg.num_classes)
        except EXPECTED_ERRORS as exc:
            tally.record([f"evaluate_ap(): {type(exc).__name__}: {exc}"])
        else:
            eval_s.append(cpu_clock() - t0)
            values = list(ap.as_dict().values())
            tally.record([] if all(0.0 <= v <= 1.0 for v in values)
                         else [f"AP outside [0,1]: {values}"])
        wall_s += time.perf_counter() - round_start
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    predict_s = sum(predict_ms) / 1e3
    busy_s = predict_s + sum(eval_s)
    return {"images": len(predict_ms), "predict_ms": predict_ms, "eval_s": eval_s,
            "digest": first_digests[0],
            "predict_img_per_s": len(predict_ms) / predict_s if predict_s else 0.0,
            "img_per_s": len(predict_ms) / busy_s if busy_s else 0.0,
            "wall_img_per_s": len(predict_ms) / wall_s if wall_s else 0.0}
