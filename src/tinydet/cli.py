"""Command-line entry points.

Subcommands: gen, audit, verify-loss, train, eval, ablate, sweep-delta.
Global flags: --seed, --config <json>, --out <dir>.  Exit codes: 0 success,
1 validation error, 2 numeric failure (non-finite loss).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .balanced_loss import DCLossParams, verify_theorem1
from .detector import DetectorConfig, DetectorModel
from .experiments import (
    audit_positive_samples,
    delta_sweep,
    level_subset_ablation,
    reports_dir,
    run_training,
    write_report,
)
from .pyramid import BackboneConfig
from .scenes import SceneSpec, read_dataset, write_dataset
from .tensor import ParamStore
from .training import DivergenceError, TrainConfig, evaluate_model


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError(f"--config {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise ValueError(f"--config {path}: top level must be an object")
    return cfg


def _build(dc_cls, overrides: dict, **extra):
    fields = {f.name for f in dataclasses.fields(dc_cls)}
    kwargs = {k: v for k, v in overrides.items() if k in fields}
    kwargs.update(extra)
    return dc_cls(**kwargs)


def _detector_config(cfg: dict) -> DetectorConfig:
    backbone = _build(BackboneConfig, cfg.get("backbone", {}))
    det = {k: v for k, v in cfg.items() if k != "backbone"}
    dc = _build(DetectorConfig, det, backbone=backbone)
    if "levels" in det:
        dc = dataclasses.replace(dc, levels=tuple(det["levels"]))
    if "enhance_levels" in det:
        dc = dataclasses.replace(dc, enhance_levels=tuple(det["enhance_levels"]))
    return dc


def _read_scenes(path: str):
    if not path or not os.path.isdir(path):
        raise ValueError(f"dataset directory not found: {path!r}")
    scenes, manifest = read_dataset(path)
    return scenes, manifest


def cmd_gen(args, cfg):
    spec = _build(SceneSpec, cfg.get("scene", cfg), seed=args.seed)
    manifest = write_dataset(spec, args.count, args.out)
    print(f"wrote {manifest['count']} scenes to {args.out}")
    return 0


def cmd_audit(args, cfg):
    scenes, manifest = _read_scenes(args.data)
    spec = manifest.get("spec", {})
    hw = (spec.get("height", 128), spec.get("width", 128))
    stats = audit_positive_samples(
        scenes, hw, args.out,
        base_anchor=cfg.get("base_anchor", 2.0),
        pos_thr=cfg.get("pos_thr", 0.5), neg_thr=cfg.get("neg_thr", 0.4))
    for s in stats:
        print(f"{s.level}: positives={s.positives} negatives={s.negatives} "
              f"ignored={s.ignored}")
    return 0


def cmd_verify_loss(args, cfg):
    params = DCLossParams(k=cfg.get("k", 10.0), delta=cfg.get("delta", 0.15),
                          swap_weights=cfg.get("swap_weights", False))
    report = verify_theorem1(params)
    write_report(args.out, "theorem_report", report.as_dict())
    print(report.to_json())
    return 0


def _train_cfgs(args, cfg):
    det_cfg = _detector_config(cfg.get("detector", {}))
    train_cfg = _build(TrainConfig, cfg.get("train", {}), seed=args.seed)
    return det_cfg, train_cfg


def cmd_train(args, cfg):
    scenes, _ = _read_scenes(args.data)
    val_scenes = _read_scenes(args.val_data)[0] if args.val_data else []
    det_cfg, train_cfg = _train_cfgs(args, cfg)
    _, metrics = run_training(scenes, val_scenes, det_cfg, train_cfg, args.out)
    print(f"training finished; reports under {reports_dir(args.out)}")
    if metrics:
        print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def cmd_eval(args, cfg):
    scenes, _ = _read_scenes(args.data)
    det_cfg = _detector_config(cfg.get("detector", {}))
    store = ParamStore.load(args.checkpoint)
    model = DetectorModel(det_cfg, store=store)
    metrics = evaluate_model(model, scenes).as_dict()
    write_report(args.out, "metrics_eval", metrics)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def cmd_ablate(args, cfg):
    scenes, _ = _read_scenes(args.data)
    val_scenes, _ = _read_scenes(args.val_data)
    det_cfg, train_cfg = _train_cfgs(args, cfg)
    subsets = cfg.get("subsets", [["P2", "P3"], ["P2", "P3", "P4", "P5", "P6"]])
    _, summary = level_subset_ablation(
        scenes, val_scenes, det_cfg, train_cfg, args.out,
        subsets=[tuple(s) for s in subsets], n_seeds=cfg.get("n_seeds", 3))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_sweep_delta(args, cfg):
    scenes, _ = _read_scenes(args.data)
    val_scenes, _ = _read_scenes(args.val_data)
    det_cfg, train_cfg = _train_cfgs(args, cfg)
    rows = delta_sweep(scenes, val_scenes, det_cfg, train_cfg, args.out,
                       deltas=tuple(cfg.get("deltas", (0.05, 0.1, 0.15, 0.3, 0.5))),
                       k=cfg.get("k", 10.0))
    print(json.dumps(rows, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tinydet",
                                description="tiny-object detection lab")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--out", default="out", help="output directory")

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    common(g)
    g.add_argument("--count", type=int, default=100)
    g.set_defaults(fn=cmd_gen)

    a = sub.add_parser("audit", help="per-level positive-anchor statistics")
    common(a)
    a.add_argument("--data", required=True)
    a.set_defaults(fn=cmd_audit)

    v = sub.add_parser("verify-loss", help="numeric audit of the adaptive loss")
    common(v)
    v.set_defaults(fn=cmd_verify_loss)

    t = sub.add_parser("train", help="train a detector")
    common(t)
    t.add_argument("--data", required=True)
    t.add_argument("--val-data", default=None)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    common(e)
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoint", required=True)
    e.set_defaults(fn=cmd_eval)

    ab = sub.add_parser("ablate", help="level-subset ablation")
    common(ab)
    ab.add_argument("--data", required=True)
    ab.add_argument("--val-data", required=True)
    ab.set_defaults(fn=cmd_ablate)

    sw = sub.add_parser("sweep-delta", help="loss-threshold sweep")
    common(sw)
    sw.add_argument("--data", required=True)
    sw.add_argument("--val-data", required=True)
    sw.set_defaults(fn=cmd_sweep_delta)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        return args.fn(args, cfg)
    except DivergenceError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
