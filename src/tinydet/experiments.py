"""Experiment suite: the anchor-starvation audit, single training runs, and
``run_variants``, which trains and evaluates a list of config variants over
seeds.  Its default list, ``DEFAULT_VARIANTS``, is the paper's component
ablation; a level subset or a loss threshold is one more variant.  Every
experiment emits CSV plus a JSON mirror under <out>/reports/, all through
``write_report``, and is bitwise-reproducible for a fixed seed.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, fields, replace

import numpy as np

from .anchors import IGNORED, NEGATIVE, pyramid_anchors
from .detector import DetectorConfig, DetectorModel, assign_image
from .evaluation import EvalResult
from .training import DivergenceError, TrainConfig, evaluate_model, train

__all__ = [
    "reports_dir",
    "write_report",
    "audit_positive_samples",
    "run_training",
    "DEFAULT_VARIANTS",
    "run_variants",
]

METRICS = tuple(f.name for f in fields(EvalResult))

# The paper's component ablation, in the shape of the ``variants`` config key:
# the FPN baseline, +E-FPN-BS (context and gating on P2), then +DCLoss with a
# fixed transition.
DEFAULT_VARIANTS = [
    {"name": "fpn", "detector": {"enhance_levels": []}, "train": {"reg_loss": "smooth_l1"}},
    {"name": "efpn_bs", "detector": {"enhance_levels": ["P2"]}, "train": {"reg_loss": "smooth_l1"}},
    {"name": "efpn_bs+dcloss", "detector": {"enhance_levels": ["P2"]},
     "train": {"reg_loss": "dcloss", "dc_learnable": False}},
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


def audit_positive_samples(scenes, det_cfg: DetectorConfig, out_dir: str):
    """Positive, negative and ignored anchor counts over a dataset, per level
    of ``det_cfg.levels``, under the assignment that training runs
    (``assign_image``), each scene at its own image size.  Returns one
    ``{level, positives, negatives, ignored}`` record per level, also written
    as the ``level_stats`` report (CSV + JSON)."""
    rows = [{"level": name, "positives": 0, "negatives": 0, "ignored": 0}
            for name in det_cfg.levels]
    for s in scenes:
        image_hw = s.image.shape[1:]
        labels = assign_image(s.gts, image_hw, det_cfg).labels
        _, slices = pyramid_anchors(image_hw, det_cfg.base_anchor, det_cfg.levels)
        for row in rows:
            sub = labels[slices[row["level"]]]
            row["positives"] += int((sub >= 0).sum())
            row["negatives"] += int((sub == NEGATIVE).sum())
            row["ignored"] += int((sub == IGNORED).sum())
    write_report(out_dir, "level_stats", rows, columns=list(rows[0]))
    return rows


def run_training(train_scenes, val_scenes, det_cfg: DetectorConfig,
                 train_cfg: TrainConfig, out_dir: str, tag: str = "train"):
    """Train, evaluate, and persist checkpoint + loss curve + metrics.

    On divergence the last good parameters are saved, with their config, as
    ``checkpoint_<tag>_last_good`` before the ``DivergenceError`` propagates."""
    try:
        result = train(train_scenes, det_cfg, train_cfg)
    except DivergenceError as e:
        model = DetectorModel(det_cfg, seed=train_cfg.seed, saved=dict(e.last_good_state))
        model.save(os.path.join(out_dir, f"checkpoint_{tag}_last_good"))
        raise
    result.model.save(os.path.join(out_dir, f"checkpoint_{tag}"))
    write_report(out_dir, f"loss_curve_{tag}", result.loss_curve,
                 columns=["epoch", "lr", "cls", "reg", "total"])
    metrics = None
    if val_scenes:
        metrics = evaluate_model(result.model, val_scenes).as_dict()
        write_report(out_dir, f"metrics_{tag}", metrics)
    return result, metrics


def run_variants(train_scenes, val_scenes, variants, out_dir: str, n_seeds: int):
    """Train and evaluate each variant, a ``(name, DetectorConfig, TrainConfig)``,
    once per seed ``train_cfg.seed + s`` for ``s < n_seeds``; report the runs and,
    per variant, its configs with the mean and std of each metric."""
    names = [name for name, _, _ in variants]
    if not names:
        raise ValueError("variants must hold at least one config")
    if len(set(names)) != len(names):
        raise ValueError(f"variant names repeat: {names}")
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    rows, summary = [], []
    for name, det_cfg, train_cfg in variants:
        runs = []
        for s in range(n_seeds):
            cfg_s = replace(train_cfg, seed=train_cfg.seed + s)
            metrics = evaluate_model(train(train_scenes, det_cfg, cfg_s).model, val_scenes)
            runs.append({"variant": name, "seed": cfg_s.seed, **metrics.as_dict()})
        entry = {"variant": name, "n_seeds": n_seeds,
                 "detector": asdict(det_cfg), "train": asdict(train_cfg)}
        for k in METRICS:
            v = np.array([r[k] for r in runs])
            entry[k] = {"mean": float(v.mean()),
                        "std": float(v.std(ddof=1)) if len(v) > 1 else 0.0}
        rows += runs
        summary.append(entry)
    write_report(out_dir, "ablation", {"runs": rows, "summary": summary},
                 columns=["variant", "seed", *METRICS], rows=rows)
    return rows, summary
