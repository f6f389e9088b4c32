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

from .balanced_loss import DCLossParams, verify_theorem1
from .config import coerce, from_dict
from .detector import DetectorConfig, DetectorModel
from .experiments import (
    DEFAULT_VARIANTS,
    audit_positive_samples,
    reports_dir,
    run_training,
    run_variants,
    write_report,
)
from .scenes import SceneSpec, read_dataset, write_dataset
from .training import DivergenceError, TrainConfig, evaluate_model

SECTIONS = {"scene": SceneSpec, "detector": DetectorConfig, "train": TrainConfig}


def _section(cls, payload, where: str, seed: int):
    return from_dict(cls, payload, where, **({} if cls is DetectorConfig else {"seed": seed}))


def _read_config(path: str | None, seed: int) -> dict:
    """Every section of the --config file, parsed; absent sections take the
    defaults and ``seed`` comes from --seed.  ``variants`` (default
    ``DEFAULT_VARIANTS``) becomes a list of (name, DetectorConfig, TrainConfig):
    each variant's partial ``detector`` and ``train`` objects are merged key by
    key over the file's base sections, then read strictly.  ``n_seeds``
    appears only when the file sets it."""
    raw = {}
    if path:
        try:
            with open(path) as f:
                raw = json.load(f)
        except (OSError, ValueError) as e:
            raise ValueError(f"--config {path}: {e}") from e
        if not isinstance(raw, dict):
            raise ValueError(f"--config {path}: top level must be an object")
    unknown = raw.keys() - {*SECTIONS, "variants", "n_seeds"}
    if unknown:
        raise ValueError(f"--config {path}: unknown keys {sorted(unknown)}; known keys: "
                         f"{', '.join([*SECTIONS, 'variants', 'n_seeds'])}")
    cfg = {name: _section(cls, raw.get(name, {}), name, seed) for name, cls in SECTIONS.items()}
    if "n_seeds" in raw:
        cfg["n_seeds"] = coerce(raw["n_seeds"], int, "n_seeds")
    variants = raw.get("variants", DEFAULT_VARIANTS)
    if not isinstance(variants, list):
        raise ValueError(f"variants: expected an array, got {variants!r}")
    cfg["variants"] = [_read_variant(v, f"variants[{i}]", raw, seed)
                       for i, v in enumerate(variants)]
    return cfg


def _read_variant(variant, where: str, raw: dict, seed: int):
    if not (isinstance(variant, dict) and isinstance(variant.get("name"), str)
            and variant.keys() <= {"name", "detector", "train"}
            and all(isinstance(variant.get(k, {}), dict) for k in ("detector", "train"))):
        raise ValueError(f"{where}: expected an object of a string 'name' and optional "
                         f"'detector' and 'train' objects, got {variant!r}")
    return (variant["name"], *(_section(SECTIONS[k], {**raw.get(k, {}), **variant.get(k, {})},
                                        f"{where}.{k}", seed) for k in ("detector", "train")))


def _read_scenes(path: str):
    if not path or not os.path.isdir(path):
        raise ValueError(f"dataset directory not found: {path!r}")
    return read_dataset(path)[0]


def cmd_gen(args, cfg):
    manifest = write_dataset(cfg["scene"], args.count, args.out)
    print(f"wrote {manifest['count']} scenes to {args.out}")
    return 0


def cmd_audit(args, cfg):
    scenes = _read_scenes(args.data)
    for row in audit_positive_samples(scenes, cfg["detector"], args.out):
        print(f"{row['level']}: positives={row['positives']} negatives={row['negatives']} "
              f"ignored={row['ignored']}")
    return 0


def cmd_verify_loss(args, cfg):
    t = cfg["train"]
    params = DCLossParams(k=t.dc_k, delta=t.dc_delta,
                          swap_weights=t.reg_loss == "dcloss_swapped")
    report = verify_theorem1(params)
    write_report(args.out, "theorem_report", report.as_dict())
    print(report.to_json())
    return 0


def cmd_train(args, cfg):
    scenes = _read_scenes(args.data)
    val_scenes = _read_scenes(args.val_data) if args.val_data else []
    _, metrics = run_training(scenes, val_scenes, cfg["detector"], cfg["train"], args.out)
    print(f"training finished; reports under {reports_dir(args.out)}")
    if metrics:
        print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def cmd_eval(args, cfg):
    scenes = _read_scenes(args.data)
    model = DetectorModel.load(args.checkpoint)
    if args.config and cfg["detector"] != model.cfg:
        raise ValueError(f"--config {args.config}: detector section differs from the "
                         f"config of checkpoint {args.checkpoint}")
    metrics = evaluate_model(model, scenes).as_dict()
    write_report(args.out, "metrics_eval", metrics)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def cmd_ablate(args, cfg):
    scenes = _read_scenes(args.data)
    val_scenes = _read_scenes(args.val_data)
    _, summary = run_variants(scenes, val_scenes, cfg["variants"], args.out,
                              **{k: cfg[k] for k in ("n_seeds",) if k in cfg})
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
    except (DivergenceError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError) as e:  # bad input, or a count no host holds
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
