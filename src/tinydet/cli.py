"""Command-line entry points.

Subcommands: gen, audit, verify-loss, train, eval, ablate.  ``ablate`` trains
and evaluates each config variant of the ``variants`` key (by default the
paper's component ablation, ``experiments.DEFAULT_VARIANTS``) over ``n_seeds``
seeds.  Global flags: --seed, --config <json>, --out <dir>.  Exit codes: 0 success,
1 validation error, 2 numeric failure (non-finite loss or model output).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

from .anchors import LEVEL_STRIDES
from .balanced_loss import verify_theorem1
from .config import from_dict, read_json
from .detector import DetectorConfig, DetectorModel
from .experiments import (
    DEFAULT_VARIANTS,
    audit_positive_samples,
    reports_dir,
    run_training,
    run_variants,
    write_report,
)
from .scenes import _IMAGE_FILE, SceneSpec, read_dataset, write_dataset
from .training import DivergenceError, TrainConfig, evaluate_model

SECTIONS = {"scene": SceneSpec, "detector": DetectorConfig, "train": TrainConfig}


@dataclass
class Variant:
    """One entry of the ``variants`` key: partial sections over the base ones."""

    name: str
    detector: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)


@dataclass
class ConfigFile:
    """The --config file; its sections are read on their own by ``_section``,
    and its own keys are checked here, before any dataset is read."""

    scene: dict = field(default_factory=dict)
    detector: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    variants: tuple[Variant, ...] = field(
        default_factory=lambda: tuple(Variant(**v) for v in DEFAULT_VARIANTS))
    n_seeds: int = 3

    def __post_init__(self):
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {self.n_seeds}")
        names = [v.name for v in self.variants]
        if not names:
            raise ValueError("variants must hold at least one config")
        if len(set(names)) != len(names):
            raise ValueError(f"variant names repeat: {names}")


def _section(cls, payload, where: str, seed: int):
    return from_dict(cls, payload, where, **({} if cls is DetectorConfig else {"seed": seed}))


def _read_config(path: str | None, seed: int) -> dict:
    """Every section of the --config file, parsed; absent sections take the
    defaults and ``seed`` comes from --seed.  ``variants`` becomes a list of
    (name, DetectorConfig, TrainConfig): each variant's partial ``detector``
    and ``train`` objects are merged key by key over the file's base sections,
    then read strictly.  Every error names the file."""
    file = read_json(ConfigFile, path) if path else ConfigFile()
    at = f"{path}: " if path else ""
    cfg = {name: _section(cls, getattr(file, name), at + name, seed)
           for name, cls in SECTIONS.items()}
    cfg["n_seeds"] = file.n_seeds
    cfg["variants"] = [
        (v.name, *(_section(SECTIONS[k], {**getattr(file, k), **getattr(v, k)},
                            f"{at}variants[{i}].{k}", seed) for k in ("detector", "train")))
        for i, v in enumerate(file.variants)]
    return cfg


def _read_scenes(path: str, det_cfgs, sides: bool = True):
    """The scenes of the dataset at ``path``, checked against each of the
    ``det_cfgs`` before any work: every category below its ``num_classes``
    and, with ``sides``, every image side a multiple of the coarsest level's
    stride, as the backbone needs.  Every error names the file."""
    if not path or not os.path.isdir(path):
        raise ValueError(f"dataset directory not found: {path!r}")
    scenes = read_dataset(path)[0]
    if not scenes:
        raise ValueError(f"dataset {path} holds no images")
    num_classes = min(c.num_classes for c in det_cfgs)
    stride = max(LEVEL_STRIDES.values())
    for i, scene in enumerate(scenes):
        _, h, w = scene.image.shape
        if sides and (h % stride or w % stride):
            raise ValueError(f"{os.path.join(path, _IMAGE_FILE.format(i))}: the detector needs "
                             f"image sides that are multiples of {stride}, got {w}x{h}")
        for _, c in scene.gts:
            if c >= num_classes:
                raise ValueError(f"{os.path.join(path, 'annotations.json')}: image {i}: class {c} "
                                 f"outside [0, {num_classes}) for a {num_classes}-class detector")
    return scenes


def cmd_gen(args, cfg):
    manifest = write_dataset(cfg["scene"], args.count, args.out)
    print(f"wrote {manifest.count} scenes to {args.out}")
    return 0


def cmd_audit(args, cfg):
    scenes = _read_scenes(args.data, [cfg["detector"]], sides=False)
    for row in audit_positive_samples(scenes, cfg["detector"], args.out):
        print(f"{row['level']}: positives={row['positives']} negatives={row['negatives']} "
              f"ignored={row['ignored']}")
    return 0


def cmd_verify_loss(args, cfg):
    report = verify_theorem1(cfg["train"].dcloss_params())
    write_report(args.out, "theorem_report", report.as_dict())
    print(report.to_json())
    return 0


def cmd_train(args, cfg):
    scenes = _read_scenes(args.data, [cfg["detector"]])
    val_scenes = _read_scenes(args.val_data, [cfg["detector"]]) if args.val_data else []
    _, metrics = run_training(scenes, val_scenes, cfg["detector"], cfg["train"], args.out)
    print(f"training finished; reports under {reports_dir(args.out)}")
    if metrics:
        print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def cmd_eval(args, cfg):
    model = DetectorModel.load(args.checkpoint)
    if args.config and cfg["detector"] != model.cfg:
        raise ValueError(f"--config {args.config}: detector section differs from the "
                         f"config of checkpoint {args.checkpoint}")
    scenes = _read_scenes(args.data, [model.cfg])
    metrics = evaluate_model(model, scenes).as_dict()
    write_report(args.out, "metrics_eval", metrics)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def cmd_ablate(args, cfg):
    det_cfgs = [det_cfg for _, det_cfg, _ in cfg["variants"]]
    scenes = _read_scenes(args.data, det_cfgs)
    val_scenes = _read_scenes(args.val_data, det_cfgs)
    _, summary = run_variants(scenes, val_scenes, cfg["variants"], args.out, cfg["n_seeds"])
    print(json.dumps(summary, indent=2, sort_keys=True))
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

    ab = sub.add_parser("ablate", help="train and evaluate a list of config variants")
    common(ab)
    ab.add_argument("--data", required=True)
    ab.add_argument("--val-data", required=True)
    ab.set_defaults(fn=cmd_ablate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _read_config(args.config, args.seed)
        os.makedirs(args.out, exist_ok=True)
        return args.fn(args, cfg)
    except DivergenceError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError) as e:  # bad input, or a count no host holds
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
