"""Experiment suite: anchor-starvation audit, level-subset ablation, and the
loss-threshold sweep.  Every experiment emits CSV plus a JSON mirror under
<out>/reports/, all through ``write_report``, and is bitwise-reproducible for
a fixed seed.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, replace

import numpy as np

from .anchors import level_stats
from .detector import DetectorConfig
from .training import TrainConfig, evaluate_model, train

__all__ = [
    "reports_dir",
    "write_report",
    "audit_positive_samples",
    "run_training",
    "level_subset_ablation",
    "delta_sweep",
]


def reports_dir(out_dir: str) -> str:
    path = os.path.join(out_dir, "reports")
    os.makedirs(path, exist_ok=True)
    return path


def write_report(out_dir: str, stem: str, payload, columns=None, rows=None):
    """Write ``payload`` to <out>/reports/<stem>.json.  With ``columns``, also
    write one CSV line per record of ``rows`` (default: the payload, a list of
    dicts) to <stem>.csv; floats are written with repr, so they reload exactly."""
    rep = reports_dir(out_dir)
    with open(os.path.join(rep, f"{stem}.json"), "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    if columns is not None:
        with open(os.path.join(rep, f"{stem}.csv"), "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(columns)
            w.writerows([r[c] for c in columns] for r in (payload if rows is None else rows))


def audit_positive_samples(scenes, image_hw, out_dir: str, base_anchor: float = 2.0,
                           pos_thr: float = 0.5, neg_thr: float = 0.4):
    """Per-level positive/negative anchor counts over a dataset (CSV + JSON)."""
    annotations = [[b for b, _ in s.gts] for s in scenes]
    stats = level_stats(annotations, image_hw, base_anchor, pos_thr, neg_thr)
    write_report(out_dir, "level_stats", [asdict(s) for s in stats],
                 columns=["level", "positives", "negatives", "ignored"])
    return stats


def run_training(train_scenes, val_scenes, det_cfg: DetectorConfig,
                 train_cfg: TrainConfig, out_dir: str, tag: str = "train"):
    """Train, evaluate, and persist checkpoint + loss curve + metrics."""
    result = train(train_scenes, det_cfg, train_cfg)
    result.model.save(os.path.join(out_dir, f"checkpoint_{tag}"))
    write_report(out_dir, f"loss_curve_{tag}", result.loss_curve,
                 columns=["epoch", "lr", "cls", "reg", "total"])
    metrics = None
    if val_scenes:
        metrics = evaluate_model(result.model, val_scenes).as_dict()
        write_report(out_dir, f"metrics_{tag}", metrics)
    return result, metrics


def level_subset_ablation(train_scenes, val_scenes, det_cfg: DetectorConfig,
                          train_cfg: TrainConfig, out_dir: str,
                          subsets=(("P2", "P3"), ("P2", "P3", "P4", "P5", "P6")),
                          n_seeds: int = 3):
    """Train one detector per (subset, seed) with shared seeds and report
    EvalResults side by side with mean/std and a normal-approximation 95% CI."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    det_cfgs = [replace(det_cfg, levels=tuple(subset)) for subset in subsets]
    rows = []
    for subset, det_s in zip(subsets, det_cfgs):
        name = "+".join(subset)
        for s in range(n_seeds):
            seed = train_cfg.seed + s
            cfg_s = replace(train_cfg, seed=seed)
            result = train(train_scenes, det_s, cfg_s)
            metrics = evaluate_model(result.model, val_scenes).as_dict()
            rows.append({"subset": name, "seed": seed, **metrics})
    summary = []
    for subset in subsets:
        name = "+".join(subset)
        vals = {k: np.array([r[k] for r in rows if r["subset"] == name])
                for k in ("ap", "ap50", "ap75", "ap_vt", "ap_t")}
        entry = {"subset": name, "n_seeds": n_seeds}
        for k, v in vals.items():
            mean = float(v.mean())
            std = float(v.std(ddof=1)) if len(v) > 1 else 0.0
            half = 1.96 * std / np.sqrt(len(v))
            entry[k] = {"mean": mean, "std": std,
                        "ci95": [mean - half, mean + half]}
        summary.append(entry)
    write_report(out_dir, "ablation", {"runs": rows, "summary": summary},
                 columns=["subset", "seed", "ap", "ap50", "ap75", "ap_vt", "ap_t"], rows=rows)
    return rows, summary


def delta_sweep(train_scenes, val_scenes, det_cfg: DetectorConfig,
                train_cfg: TrainConfig, out_dir: str,
                deltas=(0.05, 0.1, 0.15, 0.3, 0.5)):
    """One training run per transition threshold (fixed slope ``train_cfg.dc_k``,
    shared seed)."""
    if not deltas:
        raise ValueError("deltas must be non-empty")
    k = train_cfg.dc_k
    rows = []
    for delta in deltas:
        cfg_d = replace(train_cfg, reg_loss="dcloss", dc_delta=float(delta),
                        dc_learnable=False)
        result = train(train_scenes, det_cfg, cfg_d)
        metrics = evaluate_model(result.model, val_scenes).as_dict()
        rows.append({"delta": float(delta), "k": float(k), **metrics})
    write_report(out_dir, "delta_sweep", rows,
                 columns=["delta", "k", "ap", "ap50", "ap75", "ap_vt", "ap_t"])
    return rows
