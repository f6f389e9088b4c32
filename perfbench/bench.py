"""Orchestration and reporting for the tinydet benchmark (entry point: run.py)."""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

import numpy as np

from tracer import Tracer, coverage_errors
from workloads import (DEFAULT_SEED, HELD_OUT_SEED, P90_MIN_SAMPLES, SETUP_REPEATS, WORKLOADS,
                       Tally, check_ap_oracle, cpu_clock, percentile, run_infer, run_train,
                       setup, timed_setup)

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

E2E_UNITS = {"setup_s": "s", "img_per_cpu_s": "img/s", "op_cpu_ms_mean": "ms", "peak_rss_mb": "MB"}

# Every workload reports every per-layer metric. Layers that every workload
# calls report ms per image. Layers that only some workloads call report their
# share of the traced loop instead (0 where not called), so that no time
# metric is a constant zero on a workload that never calls it.
PER_IMAGE_MS = ["tensor.conv2d", "tensor.bilinear_upsample", "pyramid.backbone_forward",
                "pyramid.build_fpn", "pyramid.efpn_bs_forward", "context.cem_forward",
                "gating.fbsm_forward", "detector.head_forward", "anchors.iou_matrix"]
PER_IMAGE_CALLS = ["tensor.conv2d", "tensor.bilinear_upsample", "tensor.backward",
                   "anchors.gen_anchors", "anchors.iou_matrix", "evaluation.nms"]
BUSY_PCT = ["tensor.backward", "detector.loss", "detector.assign_image",
            "anchors.assign_maxiou", "balanced_loss.dcloss_term", "training.sgd_step",
            "evaluation.nms", "evaluation.evaluate_ap"]
LAYER_UNITS = {
    **{f"{label}.ms_per_img": "ms" for label in PER_IMAGE_MS},
    "scenes.generate_scene.ms_per_img": "ms",
    **{f"{label}.calls_per_img": "count" for label in PER_IMAGE_CALLS},
    "evaluation.average_precision.calls_per_eval": "count",
    "detector.predict.candidates_per_img": "count",
    "detector.predict.kept_ratio": "ratio",
    **{f"{label}.busy_pct": "%" for label in BUSY_PCT},
    "detector.predict.self_busy_pct": "%",
    "trace.overhead_ratio": "ratio",
}


# -- allocator ---------------------------------------------------------------------

# glibc's malloc raises its mmap threshold each time it frees a large mapped
# block, so whether a large array comes from the heap or from a fresh mapping
# depends on the allocation history. infer128's peak RSS then read either
# 192.7 or 214.0 MB for the same seed, flipped by changes as small as an idle
# extra thread in the process. Fixed thresholds at the top of glibc's range
# keep large temporaries in the heap, as the adaptive threshold does once it
# has risen, and make the peak repeat (193.1-193.7 MB); run times stayed
# within their noise.
MALLOC_MMAP_THRESHOLD = 32 << 20
MALLOC_TRIM_THRESHOLD = 256 << 20


def pin_malloc_thresholds():
    """Fix glibc's mmap and trim thresholds; returns them, or None without glibc."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    m_trim_threshold, m_mmap_threshold = -1, -3
    if mallopt(m_mmap_threshold, MALLOC_MMAP_THRESHOLD) != 1 or \
            mallopt(m_trim_threshold, MALLOC_TRIM_THRESHOLD) != 1:
        return None
    return {"mmap_threshold": MALLOC_MMAP_THRESHOLD, "trim_threshold": MALLOC_TRIM_THRESHOLD}


# -- machine record -----------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads_in_effect():
    """Ask the loaded OpenBLAS for its thread count; None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(malloc_thresholds) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads_set": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
            "blas_threads_in_effect": _blas_threads_in_effect(),
            "malloc_thresholds": malloc_thresholds or "default"}


# -- one workload ----------------------------------------------------------------


def _line(name, value, unit, note=""):
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"{name:<34} {shown:>14} {unit:<12} {note}".rstrip()


def _tail(samples, name, unit, what):
    """p90 is reported only when at least 10 samples lie beyond it."""
    if len(samples) >= P90_MIN_SAMPLES:
        return _line(name, percentile(samples, 90), unit, f"(n={len(samples)} {what})")
    return _line(name, "not reported", unit,
                 f"(n={len(samples)} {what} < {P90_MIN_SAMPLES})")


def end_to_end(w, loop, setup_s, peak_rss_mb, tally):
    """JSON metrics and printed lines of the untraced pass (times are CPU time)."""
    # The gated figures are totals and means over the run, not medians. The
    # host's speed shifts in phases of seconds to minutes; a median snaps to
    # whichever phase held more of the run, and a low percentile to whether a
    # run had quiet moments at all, while a mean averages over the phases.
    samples = loop["step_ms"] if w.kind == "train" else loop["predict_ms"]
    metrics = {"setup_s": setup_s, "img_per_cpu_s": loop["img_per_s"],
               "op_cpu_ms_mean": statistics.fmean(samples) if samples else 0.0,
               "peak_rss_mb": peak_rss_mb}
    lines = [_line("setup_s", setup_s, "s", f"(median of {SETUP_REPEATS} set-ups)")]
    if w.kind == "train":
        lines += [
            _line("train_img_per_s", loop["img_per_s"], "images/s",
                  f"(n={len(loop['call_s'])} train() calls, "
                  f"{w.scenes} scenes x {w.epochs} epochs each; "
                  f"wall clock {loop['wall_img_per_s']:.6g})"),
            _line("train_step_ms_mean", metrics["op_cpu_ms_mean"], "ms", f"(n={len(samples)} steps)"),
            _line("train_step_ms_p50", percentile(samples, 50) if samples else 0.0, "ms",
                  f"(n={len(samples)} steps)"),
            _tail(samples, "train_step_ms_p90", "ms", "steps"),
            _line("train_loss_final", loop["final_loss"], "loss", "(last epoch, last call)"),
            _line("loss_curve_digest", loop["digest"], "sha256/16"),
        ]
    else:
        eval_s = loop["eval_s"]
        lines += [
            _line("predict_img_per_s", loop["predict_img_per_s"], "images/s",
                  f"(n={len(samples)} predict calls)"),
            _line("predict_ms_mean", metrics["op_cpu_ms_mean"], "ms", f"(n={len(samples)} images)"),
            _line("predict_ms_p50", percentile(samples, 50) if samples else 0.0, "ms",
                  f"(n={len(samples)} images)"),
            _tail(samples, "predict_ms_p90", "ms", "images"),
            _line("eval_ap_s", statistics.median(eval_s) if eval_s else 0.0, "s",
                  f"(median of n={len(eval_s)} evaluate_ap calls over {w.batch} images)"),
            _line("eval_img_per_s", loop["img_per_s"], "images/s",
                  f"(predict plus evaluate_ap, n={len(eval_s)} rounds; "
                  f"wall clock {loop['wall_img_per_s']:.6g})"),
            _line("detections_digest", loop["digest"], "sha256/16"),
        ]
    lines += [_line("peak_rss_mb", peak_rss_mb, "MB", "(this process)"),
              _line("error_rate", tally.failed / max(tally.attempted, 1), "failed/attempted",
                    f"({tally.failed} of {tally.attempted})")]
    return metrics, lines


def per_layer(tracer, w, traced, loop_s, overhead):
    """JSON per-layer metrics and the printed table of every traced layer."""
    spans = tracer.spans
    # A traced pass whose every call failed has no image; the run is already
    # marked failed, and the per-image figures then read as totals.
    images = max(traced["images"], 1)
    predict, nms = spans["detector.predict"], spans["evaluation.nms"]
    evals = spans["evaluation.evaluate_ap"].calls
    gen = spans["scenes.generate_scene"]
    predict_self_s = predict.total_s - tracer.within.get(("detector.predict", "detector.forward"), 0.0)
    metrics = {
        **{f"{k}.ms_per_img": spans[k].total_s * 1e3 / images for k in PER_IMAGE_MS},
        "scenes.generate_scene.ms_per_img": gen.total_s * 1e3 / max(gen.calls, 1),
        **{f"{k}.calls_per_img": spans[k].calls / images for k in PER_IMAGE_CALLS},
        "evaluation.average_precision.calls_per_eval":
            spans["evaluation.average_precision"].calls / evals if evals else 0.0,
        "detector.predict.candidates_per_img": nms.items / predict.calls if predict.calls else 0.0,
        "detector.predict.kept_ratio": predict.items / nms.items if nms.items else 0.0,
        **{f"{k}.busy_pct": 100.0 * spans[k].total_s / loop_s for k in BUSY_PCT},
        "detector.predict.self_busy_pct": 100.0 * predict_self_s / loop_s,
        "trace.overhead_ratio": overhead["ratio"],
    }
    unit = "image-step" if w.kind == "train" else "image"
    lines = [f"{'layer':<34} {'calls':>8} {'calls/img':>10} {'ms/img':>9} "
             f"{'self ms/img':>11} {'busy %':>7}   (per {unit}; {traced['images']} {unit}s traced)"]
    for label, s in sorted(spans.items()):
        if s.calls:
            lines.append(f"{label:<34} {s.calls:>8} {s.calls / images:>10.4g} "
                         f"{s.total_s * 1e3 / images:>9.4g} {s.self_s * 1e3 / images:>11.4g} "
                         f"{100 * s.total_s / loop_s:>7.3g}")
    steps = spans["training.sgd_step"]
    if steps.calls:
        lines.append(_line("training.sgd_step.ms_per_step", steps.total_s * 1e3 / steps.calls, "ms"))
    if predict.calls:
        lines.append(_line("detector.predict.self_ms_per_img",
                           predict_self_s * 1e3 / predict.calls, "ms", "(predict minus forward)"))
    if evals:
        lines.append(_line("evaluation.evaluate_ap.s", spans["evaluation.evaluate_ap"].total_s / evals,
                           "s", f"(per call over {w.batch} images)"))
    lines.append(_line("trace.overhead_ratio", overhead["ratio"], "ratio",
                       f"(traced {overhead['metric']} {overhead['traced']:.6g} over "
                       f"untraced {overhead['untraced']:.6g})"))
    return metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Set up and run one workload; returns the result line plus the run record."""
    w = WORKLOADS[name].smoke() if smoke else WORKLOADS[name]
    tally = Tally()
    data, model, setup_s = timed_setup(w, seed)
    if w.kind == "infer":
        tally.record(check_ap_oracle(data, model.cfg.num_classes))

    def loop(data, model, budget):
        if w.kind == "train":
            return run_train(w, data, budget, tally)
        return run_infer(w, data, model, budget, tally)

    budget = seconds / 2 if trace else seconds
    # One untimed train() call or inference round first touches the heap and
    # fills caches; its output must match the timed loop's bitwise.
    warm = loop(data, model, 0.0)
    plain = loop(data, model, budget)
    if warm["digest"] != plain["digest"]:
        tally.record([f"warm-up digest {warm['digest']} differs from the timed loop's "
                      f"{plain['digest']}"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e, lines = end_to_end(w, plain, setup_s, peak_rss_mb, tally)
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}

    if trace:
        with Tracer() as tracer:
            data, model = setup(w, seed)
            t0 = cpu_clock()
            traced = loop(data, model, budget)
            loop_s = cpu_clock() - t0
        tally.record(coverage_errors(tracer.spans, w.kind, traced["images"]))
        key = "img_per_s" if w.kind == "train" else "predict_img_per_s"
        overhead = {"metric": "train_img_per_s" if w.kind == "train" else key,
                    "traced": traced[key], "untraced": plain[key],
                    "ratio": traced[key] / plain[key] if plain[key] else 0.0}
        layers, layer_lines = per_layer(tracer, w, traced, loop_s, overhead)
        lines += ["", *layer_lines]
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = {
        "workload": {"name": w.name, "kind": w.kind, "image_side": w.side,
                     "scene_count": w.scenes, "epochs": w.epochs, "batch": w.batch,
                     "why": w.why, "smoke": smoke},
        "seed": seed, "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds, "trace": trace, "closed_loop_callers": 1,
        "failures": tally.messages, "digest": plain["digest"], "result": result,
        "report": lines,
    }
    return {"result": result, "record": record, "lines": lines}


# -- command line -----------------------------------------------------------------


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own child process; prints a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(child.stdout, end="", flush=True)
        status = max(status, child.returncode)
        out = child.stdout.strip().splitlines()
        if child.returncode not in (0, 1) or not out:
            return max(status, 2)
        last = json.loads(out[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = _args(argv)
    if args.workload == "all":
        return _run_all(args)
    malloc_thresholds = pin_malloc_thresholds()
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    run["record"]["machine"] = machine = machine_record(malloc_thresholds)
    print(f"[{args.workload}] seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"blas={machine['blas']} {machine['blas_version']} "
          f"threads={machine['blas_threads_in_effect']} nproc={machine['nproc']} "
          f"malloc={'pinned' if malloc_thresholds else 'default'} "
          f"(times are process CPU time)")
    print("\n".join(run["lines"]))
    for message in run["record"]["failures"]:
        print(f"FAILED: {message}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"), "w") as f:
        json.dump(run["record"], f, indent=2)
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1

