import csv
import dataclasses
import json
import os
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from tinydet.cli import SECTIONS, ConfigFile, _read_config, build_parser, main
from tinydet.config import from_dict
from tinydet.detector import DetectorConfig, DetectorModel
from tinydet.experiments import (
    DEFAULT_VARIANTS,
    audit_positive_samples,
    run_training,
    run_variants,
)
from tinydet.scenes import SceneSpec, generate_scene, write_dataset
from tinydet.tensor import read_tensor_file, write_tensor_file
from tinydet.training import TrainConfig

FAST_TRAIN = {"epochs": 1, "batch_size": 4}
METRICS = ("ap", "ap50", "ap75", "ap_vt", "ap_t")


def crowded(seed):
    """Crowded scenes, so that AP after one epoch is above 0 and tells models apart."""
    return SceneSpec(seed=seed, objects_min=12, objects_max=20, side_min=8.0)


def small_scenes(n=6, seed=0):
    spec = crowded(seed)
    return [generate_scene(spec, i) for i in range(n)]


def assert_not_all_zero(records):
    assert any(r[m] != 0 for r in records for m in METRICS), records


def read_file(path):
    with open(path) as f:
        return f.read()


# ---------------------------------------------------------------------------
# experiment helpers


def test_audit_writes_reports(tmp_path):
    scenes = small_scenes()
    stats = audit_positive_samples(scenes, DetectorConfig(), str(tmp_path))
    assert [s["level"] for s in stats] == ["P2", "P3", "P4", "P5", "P6"]
    payload = json.load(open(tmp_path / "reports" / "level_stats.json"))
    rows = list(csv.DictReader(open(tmp_path / "reports" / "level_stats.csv")))
    assert payload == stats
    for s, row in zip(stats, rows):
        assert row == {k: str(v) for k, v in s.items()}


def test_audit_counts_the_configured_levels(tmp_path):
    scenes = small_scenes()
    two = audit_positive_samples(scenes, DetectorConfig(levels=("P2", "P3")), str(tmp_path))
    assert [s["level"] for s in two] == ["P2", "P3"]
    assert [s["positives"] + s["negatives"] + s["ignored"] for s in two] == \
        [len(scenes) * 32 * 32, len(scenes) * 16 * 16]
    # without P2 the forced best matches land on P3, as they do in training
    p3 = audit_positive_samples(scenes, DetectorConfig(levels=("P3",)), str(tmp_path))
    assert p3[0]["positives"] > two[1]["positives"]


def test_run_training_artifacts(tmp_path):
    scenes = small_scenes(4)
    result, metrics = run_training(
        scenes, scenes[:2], DetectorConfig(), TrainConfig(epochs=1),
        str(tmp_path), tag="demo")
    assert os.path.isdir(tmp_path / "checkpoint_demo")
    curve = json.load(open(tmp_path / "reports" / "loss_curve_demo.json"))
    assert curve == result.loss_curve
    saved_metrics = json.load(open(tmp_path / "reports" / "metrics_demo.json"))
    assert saved_metrics == metrics
    rows = list(csv.DictReader(open(tmp_path / "reports" / "loss_curve_demo.csv")))
    # repr-formatted floats reload exactly
    assert float(rows[0]["total"]) == curve[0]["total"]


def test_ablation_summary_and_determinism(tmp_path):
    scenes = small_scenes(4)
    variants = [("P2+P3", DetectorConfig(levels=("P2", "P3")), TrainConfig(epochs=1)),
                ("P2-P6", DetectorConfig(), TrainConfig(epochs=1))]
    rows, summary = run_variants(scenes, scenes[:2], variants, str(tmp_path / "a"), n_seeds=2)
    assert [(r["variant"], r["seed"]) for r in rows] == \
        [("P2+P3", 0), ("P2+P3", 1), ("P2-P6", 0), ("P2-P6", 1)]
    assert_not_all_zero(rows)
    report = json.load(open(tmp_path / "a" / "reports" / "ablation.json"))
    for entry, saved, (name, det_cfg, train_cfg) in zip(summary, report["summary"], variants):
        assert entry["variant"] == name and entry["n_seeds"] == 2
        # the report says which configs it ran
        assert from_dict(DetectorConfig, saved["detector"], "detector") == det_cfg
        assert from_dict(TrainConfig, saved["train"], "train") == train_cfg
        for metric in METRICS:
            values = [r[metric] for r in rows if r["variant"] == name]
            assert entry[metric] == {"mean": float(np.mean(values)),
                                     "std": float(np.std(values, ddof=1))}
    # a rerun reproduces the report files bitwise
    run_variants(scenes, scenes[:2], variants, str(tmp_path / "b"), n_seeds=2)
    for name in ("ablation.json", "ablation.csv"):
        assert read_file(tmp_path / "a" / "reports" / name) == \
            read_file(tmp_path / "b" / "reports" / name)
    with pytest.raises(ValueError, match="repeat"):
        run_variants(scenes, scenes[:2], variants[:1] * 2, str(tmp_path / "c"), n_seeds=2)
    with pytest.raises(ValueError, match="n_seeds"):
        run_variants(scenes, scenes[:2], variants, str(tmp_path / "c"), n_seeds=0)
    assert not os.path.exists(tmp_path / "c")


def test_delta_sweep_rows_and_determinism(tmp_path):
    scenes = small_scenes(4)
    # P2+P3 and 12 steps: one step on the default five levels leaves AP at 0
    base = TrainConfig(epochs=3, batch_size=1, learning_rate=0.32)
    variants = [(f"d{d}", DetectorConfig(levels=("P2", "P3")),
                 replace(base, reg_loss="dcloss", dc_delta=d, dc_learnable=False))
                for d in (0.1, 0.3)]
    rows, summary = run_variants(scenes, scenes[:2], variants, str(tmp_path / "a"), n_seeds=1)
    assert [r["variant"] for r in rows] == ["d0.1", "d0.3"]
    assert [e["train"]["dc_delta"] for e in summary] == [0.1, 0.3]
    assert all(e["train"]["dc_k"] == 10.0 for e in summary)
    assert_not_all_zero(rows)
    assert rows[0]["ap50"] != rows[1]["ap50"]
    run_variants(scenes, scenes[:2], variants, str(tmp_path / "b"), n_seeds=1)
    for name in ("ablation.json", "ablation.csv"):
        assert read_file(tmp_path / "a" / "reports" / name) == \
            read_file(tmp_path / "b" / "reports" / name)
    with pytest.raises(ValueError, match="variants"):
        run_variants(scenes, scenes[:2], [], str(tmp_path), n_seeds=1)


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "data"
    write_dataset(crowded(3), 6, str(path))
    return str(path)


def cli_config(tmp_path, extra=None):
    cfg = {"train": dict(FAST_TRAIN)}
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_gen_and_audit(tmp_path, capsys):
    out = str(tmp_path / "gen")
    assert main(["gen", "--count", "5", "--seed", "3", "--out", out]) == 0
    assert "wrote 5 scenes" in capsys.readouterr().out
    assert main(["audit", "--data", out, "--out", str(tmp_path / "audit")]) == 0
    stdout = capsys.readouterr().out
    assert "P2:" in stdout and "P6:" in stdout
    assert os.path.exists(tmp_path / "audit" / "reports" / "level_stats.csv")


def test_cli_audit_reads_no_manifest_spec(tmp_path, dataset, capsys):
    # like train, eval and ablate, audit takes each image's size from the image
    path = os.path.join(dataset, "manifest.json")
    manifest = json.loads(read_file(path))
    del manifest["spec"]
    with open(path, "w") as f:
        json.dump(manifest, f)
    assert main(["audit", "--data", dataset, "--out", str(tmp_path / "audit")]) == 0
    assert "P2: positives=" in capsys.readouterr().out


def test_cli_audit_rejects_a_manifest_that_disagrees_with_the_images(tmp_path, dataset, capsys):
    path = os.path.join(dataset, "manifest.json")
    manifest = json.loads(read_file(path))
    for edit, file, match in (
            ({"count": 7}, os.path.join(dataset, "images", "00006.efbt"), "No such file"),
            ({"count": 5}, os.path.join(dataset, "annotations.json"), "image_id 5 outside [0, 5)"),
            ({"format": "tinydet-dataset-v1"}, path,
             "format must be 'tinydet-dataset-v2', got 'tinydet-dataset-v1'")):
        with open(path, "w") as f:
            json.dump({**manifest, **edit}, f)
        assert main(["audit", "--data", dataset, "--out", str(tmp_path / "audit")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {file}: ") and match in err, err


def test_cli_gen_matches_library(tmp_path):
    out = str(tmp_path / "gen")
    main(["gen", "--count", "2", "--seed", "3", "--out", out])
    from tinydet.scenes import read_dataset
    scenes, manifest = read_dataset(out)
    fresh = generate_scene(SceneSpec(seed=3), 1)
    assert scenes[1].image.tobytes() == fresh.image.tobytes()


def test_cli_verify_loss(tmp_path, capsys):
    out = str(tmp_path / "v")
    assert main(["verify-loss", "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "lipschitz_bound" in stdout
    report = json.load(open(os.path.join(out, "reports", "theorem_report.json")))
    assert report["lipschitz_bound"] == pytest.approx(9.32378, abs=1e-4)
    assert any("10.8" in n for n in report["discrepancy_notes"])


def test_cli_train_eval_roundtrip(tmp_path, dataset, capsys):
    out = str(tmp_path / "run")
    cfg = cli_config(tmp_path)
    assert main(["train", "--data", dataset, "--val-data", dataset,
                 "--config", cfg, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "training finished" in stdout and '"ap50"' in stdout
    ckpt = os.path.join(out, "checkpoint_train")
    assert main(["eval", "--data", dataset, "--checkpoint", ckpt,
                 "--out", str(tmp_path / "ev")]) == 0
    eval_metrics = json.load(open(tmp_path / "ev" / "reports" / "metrics_eval.json"))
    train_metrics = json.load(open(os.path.join(out, "reports", "metrics_train.json")))
    assert_not_all_zero([train_metrics])
    assert eval_metrics == train_metrics


def test_cli_ablate_and_sweep(tmp_path, dataset, capsys):
    # a level subset and a loss threshold, each as one variant over the base sections
    variants = [{"name": "P2+P3", "detector": {"levels": ["P2", "P3"]}},
                {"name": "d0.15", "train": {"reg_loss": "dcloss", "dc_delta": 0.15,
                                            "dc_learnable": False}}]
    cfg = cli_config(tmp_path, {"variants": variants, "n_seeds": 1,
                                "train": {**FAST_TRAIN, "dc_k": 8.0}})
    assert main(["ablate", "--data", dataset, "--val-data", dataset,
                 "--config", cfg, "--out", str(tmp_path / "ab")]) == 0
    assert '"variant"' in capsys.readouterr().out
    assert os.path.exists(tmp_path / "ab" / "reports" / "ablation.csv")
    report = json.load(open(tmp_path / "ab" / "reports" / "ablation.json"))
    assert [r["variant"] for r in report["runs"]] == ["P2+P3", "d0.15"]
    assert [e["train"]["dc_k"] for e in report["summary"]] == [8.0, 8.0]
    assert [e["train"]["epochs"] for e in report["summary"]] == [1, 1]
    assert [e["detector"]["levels"] for e in report["summary"]] == \
        [["P2", "P3"], list(DetectorConfig().levels)]
    assert [e["train"]["reg_loss"] for e in report["summary"]] == ["smooth_l1", "dcloss"]
    assert_not_all_zero(report["runs"])


def test_cli_ablate_runs_the_default_paper_variants(tmp_path, dataset, capsys):
    cfg = cli_config(tmp_path, {"n_seeds": 1})
    for out in ("a", "b"):
        assert main(["ablate", "--data", dataset, "--val-data", dataset, "--seed", "5",
                     "--config", cfg, "--out", str(tmp_path / out)]) == 0
    for name in ("ablation.json", "ablation.csv"):
        assert read_file(tmp_path / "a" / "reports" / name) == \
            read_file(tmp_path / "b" / "reports" / name)
    summary = json.load(open(tmp_path / "a" / "reports" / "ablation.json"))["summary"]
    assert [e["variant"] for e in summary] == [v["name"] for v in DEFAULT_VARIANTS] == \
        ["fpn", "efpn_bs", "efpn_bs+dcloss"]
    assert [(e["detector"]["enhance_levels"], e["train"]["reg_loss"], e["train"]["dc_learnable"])
            for e in summary] == [([], "smooth_l1", False), (["P2"], "smooth_l1", False),
                                  (["P2"], "dcloss", False)]
    assert {e["train"]["seed"] for e in summary} == {5}


def test_read_config_merges_variants_over_the_base(tmp_path):
    cfg = cli_config(tmp_path, {
        "detector": {"num_classes": 4, "stem_channels": 4, "pyramid_channels": 8},
        "variants": [{"name": "wide", "detector": {"pyramid_channels": 16},
                      "train": {"epochs": 2}}]})
    [(name, det_cfg, train_cfg)] = _read_config(cfg, seed=7)["variants"]
    assert name == "wide"
    # key by key over the base: the variant keeps the base's stem_channels
    assert det_cfg == DetectorConfig(num_classes=4, stem_channels=4, pyramid_channels=16)
    assert train_cfg == TrainConfig(epochs=2, batch_size=FAST_TRAIN["batch_size"], seed=7)


@pytest.mark.parametrize("extra", [
    {"subsets": [["P2", "P3"]]},                # removed keys
    {"deltas": [0.1]},
    {"variants": []},
    {"variants": {"name": "a"}},                # not an array
    {"variants": [{"name": "a"}, {"name": "a"}]},
    {"variants": [{"detector": {}}]},           # no name
    {"variants": [{"name": "a", "levels": ["P2"]}]},
    {"variants": [{"name": "a", "train": [1]}]},
    {"variants": [{"name": "a", "train": {"seed": 1}}]},
    {"variants": [{"name": "a", "detector": {"levels": ["P7"]}}]},
    {"variants": [{"name": "a", "train": {"epoch": 1}}]},
    {"variants": [{"name": "a"}], "n_seeds": 0},
])
def test_cli_ablate_variant_faults_exit_1(tmp_path, dataset, capsys, extra):
    cfg = cli_config(tmp_path, extra)
    assert main(["ablate", "--data", dataset, "--val-data", dataset,
                 "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o" / "reports")


def test_readme_cli_matches_the_parser(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    readme = read_file(os.path.join(root, "README.md"))
    cli = readme[readme.index("## CLI"):]
    block = re.search(r"```sh\n(.*?)```", cli, re.S).group(1)
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("tinydet ")}
    [subparsers] = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
    assert documented == set(subparsers.choices)
    configs = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert configs
    for i, text in enumerate(configs):
        path = tmp_path / f"readme{i}.json"
        path.write_text(text)
        _read_config(str(path), seed=0)


def test_readme_counts_the_settable_values():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    readme = " ".join(read_file(os.path.join(root, "README.md")).split())

    def settable(cls):  # seed is --seed's
        return sum(f.name != "seed" for f in dataclasses.fields(cls))

    scene, detector, train = (settable(SECTIONS[k]) for k in ("scene", "detector", "train"))
    total = scene + detector + train + len(dataclasses.fields(ConfigFile)) - len(SECTIONS)
    assert f"The file sets {total} values: {scene} scene fields, {detector} detector fields " \
           f"and {train} train fields" in readme


def test_readme_lists_the_default_variants():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    readme = read_file(os.path.join(root, "README.md"))
    table = readme[readme.index("| variant | `detector` | `train` |"):].split("\n\n")[0]

    def cell(section):
        return ", ".join(f"`{k}: {json.dumps(v)}`" for k, v in section.items())

    assert table.splitlines()[2:] == [
        f"| `{v['name']}` | {cell(v['detector'])} | {cell(v['train'])} |" for v in DEFAULT_VARIANTS]


def test_cli_gen_rejects_a_negative_count(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["gen", "--count", "-3", "--out", str(out)]) == 1
    assert "scene count must be >= 0, got -3" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("argv, match", [
    (["gen", "--seed", "-1"], r"scene: seed must lie in \[0, 2\*\*64\), got -1"),
    (["gen", "--seed", str(2 ** 64)], r"scene: seed must lie in \[0, 2\*\*64\)"),
    (["train", "--seed", "-1", "--data", "{data}"],
     r"scene: seed must lie in \[0, 2\*\*64\), got -1"),
])
def test_cli_rejects_a_seed_outside_the_64_bit_range(tmp_path, dataset, capsys, argv, match):
    # a seed of -1 once wrote seed 0's scenes, and 2**63 + 1 those of 2**63
    out = tmp_path / "o"
    argv = [a.format(data=dataset) for a in argv]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.search(f"^error: {match}", err), err
    assert not (out / "manifest.json").exists() and not (out / "checkpoint_train").exists()


# fault -> (scene section of a dataset the default detector cannot take, error)
UNREADABLE = {
    "side": ({"height": 96, "width": 96},
             r"images/00000\.efbt: the detector needs image sides that are multiples of 64, "
             r"got 96x96"),
    "class": ({"num_classes": 5},
              r"annotations\.json: image \d+: class [34] outside \[0, 3\) for a 3-class detector"),
}


def _dataset_the_detector_cannot_read(tmp_path, fault):
    scene, match = UNREADABLE[fault]
    path = str(tmp_path / f"bad_{fault}")
    assert main(["gen", "--count", "6", "--config", cli_config(tmp_path, {"scene": scene}),
                 "--out", path]) == 0
    return path, match


@pytest.mark.parametrize("fault", sorted(UNREADABLE))
@pytest.mark.parametrize("command", ["train", "ablate", "eval"])
def test_cli_checks_a_dataset_against_the_detector_before_training(tmp_path, dataset, capsys,
                                                                    command, fault):
    bad, match = _dataset_the_detector_cannot_read(tmp_path, fault)
    ckpt = str(tmp_path / "ckpt")
    DetectorModel(DetectorConfig(), seed=0).save(ckpt)
    argv = {"train": ["--data", dataset, "--val-data", bad],
            "ablate": ["--data", dataset, "--val-data", bad],
            "eval": ["--data", bad, "--checkpoint", ckpt]}[command]
    out = tmp_path / "o"
    capsys.readouterr()
    assert main([command, *argv, "--config", cli_config(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.search(f"^error: {re.escape(bad)}/{match}", err), err
    assert not (out / "checkpoint_train").exists() and not (out / "reports").exists()


def test_cli_checks_every_variant_against_the_dataset(tmp_path, dataset, capsys):
    # the base detector reads 5 classes; the second variant, 3
    bad, match = _dataset_the_detector_cannot_read(tmp_path, "class")
    config = cli_config(tmp_path, {"detector": {"num_classes": 5},
                                   "variants": [{"name": "five"},
                                                {"name": "three", "detector": {"num_classes": 3}}]})
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(["ablate", "--data", dataset, "--val-data", bad, "--config", config,
                 "--out", str(out)]) == 1
    assert re.search(f"^error: {re.escape(bad)}/{match}", capsys.readouterr().err)
    assert not (out / "reports").exists()


def test_cli_audit_checks_categories_only(tmp_path, capsys):
    for fault, code in (("side", 0), ("class", 1)):
        bad, match = _dataset_the_detector_cannot_read(tmp_path, fault)
        capsys.readouterr()
        assert main(["audit", "--data", bad, "--out", str(tmp_path / fault)]) == code
        if code:
            assert re.search(f"^error: {re.escape(bad)}/{match}", capsys.readouterr().err)


def test_cli_error_exit_codes(tmp_path, capsys):
    # missing dataset -> validation error (1)
    assert main(["audit", "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err
    # bad config file -> validation error (1)
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["verify-loss", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("payload", [
    {"train": {"epoch": 1}},                    # unknown key
    {"train": {"epochs": "4"}},                 # wrong type
    {"train": {"seed": 1}},                     # set by --seed
    {"scene": {"seed": 1}},
    {"train": [1]},                             # section not an object
    {"detector": {"levels": "P2"}},             # not an array
    {"detector": {"levels": ["P7"]}},           # no such level
    {"detector": {"stage_channels": [8, 16]}},
    {"height": 256},                            # flat scene keys
    {"k": 8.0}, {"base_anchor": 4.0},           # former top-level spellings
    {"n_seeds": "2"},
    {"detector": {"num_classes": 0}},           # out of range
    {"detector": {"pyramid_channels": 0}},
    {"detector": {"max_detections": -1}},
    {"detector": {"head_channels": 0}},
    {"detector": {"gate_width": 4}},            # derived from pyramid_channels now
    {"detector": {"score_floor": 1.5}},
    {"detector": {"nms_iou": -0.5}},
    {"detector": {"neg_thr": 0.6, "pos_thr": 0.5}},
    {"detector": {"levels": ["P3", "P3"]}},
    {"detector": {"enhance": False}},           # spelled "enhance_levels": [] now
    {"train": {"batch_size": 0}},
    {"detector": {"num_classes": 10 ** 400}},   # no float64 holds it
    {"train": {"reg_loss": "dcloss_swapped"}},  # removed loss form
    {"train": {"learning_rate": float("nan"), "epochs": 1}},
    {"train": {"momentum": float("nan"), "epochs": 1}},
    {"train": {"dc_k": -1}},
    {"detector": {"enhance_levels": ["P6"]}},   # coarser than the P5 it upsamples
    {"detector": {"base_anchor": 0}},
    {"detector": {"base_anchor": float("nan")}},
    {"detector": {"input_offset": float("nan")}},
    {"detector": {"input_offset": float("inf")}},
    {"scene": {"noise_sigma": -0.1}},           # no longer reaches numpy's scale check
    {"scene": {"noise_sigma": float("nan")}},
    {"scene": {"contrast": float("inf")}},
    {"scene": {"side_scale": -1.0}},
    {"scene": {"height": 0}},
    {"scene": {"width": 8}},                    # below side_max: no object fits
    {"detector": {"backbone": {"pyramid_channels": 8}}},  # its fields are flat now
    {"scene": {"objects_min": 0, "objects_max": 0, "side_max": float("inf")}},  # not JSON
])
def test_cli_config_faults_exit_1(tmp_path, dataset, capsys, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    for argv in (["gen", "--count", "1"], ["train", "--data", dataset]):
        assert main([*argv, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not os.path.exists(tmp_path / "o" / "images")


@pytest.mark.parametrize("payload, where", [
    ({"train": {"epochs": "4"}}, "train.epochs: expected int, got '4'"),
    ({"variants": [{"name": "a", "train": {"epoch": 1}}]}, "variants[0].train: unknown key 'epoch'"),
    ({"scene": {"tiny_only": True}}, "scene: unknown key 'tiny_only'"),  # side_max bounds sides
])
def test_cli_config_section_errors_name_the_file(tmp_path, capsys, payload, where):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload))
    assert main(["verify-loss", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {where}")


def test_cli_config_count_no_host_holds_exits_1(tmp_path, dataset, capsys):
    # head.cls.w would need 2**40 * 32 float64 draws (256 TiB): numpy refuses at once
    path = cli_config(tmp_path, {"detector": {"num_classes": 2 ** 40}})
    assert main(["train", "--data", dataset, "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert "error: Unable to allocate" in capsys.readouterr().err


def test_cli_audit_and_verify_loss_read_the_sections(tmp_path, dataset, capsys):
    from tinydet.balanced_loss import DCLossParams, verify_theorem1
    from tinydet.scenes import read_dataset

    cfg = cli_config(tmp_path, {"detector": {"base_anchor": 4.0, "pos_thr": 0.45},
                                "train": {"dc_k": 8.0, "dc_delta": 0.2,
                                          "reg_loss": "dcloss"}})
    assert main(["audit", "--data", dataset, "--config", cfg, "--out", str(tmp_path)]) == 0
    scenes = read_dataset(dataset)[0]
    expected = audit_positive_samples(scenes, DetectorConfig(base_anchor=4.0, pos_thr=0.45),
                                      str(tmp_path / "lib"))
    default = audit_positive_samples(scenes, DetectorConfig(), str(tmp_path / "default"))
    assert expected != default
    assert read_file(tmp_path / "reports" / "level_stats.json") == \
        read_file(tmp_path / "lib" / "reports" / "level_stats.json")
    assert main(["verify-loss", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.load(open(tmp_path / "reports" / "theorem_report.json"))
    params = DCLossParams(k=8.0, delta=0.2)
    assert report == json.loads(verify_theorem1(params).to_json())


def test_cli_eval_rebuilds_the_checkpoint_config(tmp_path, capsys):
    dataset = str(tmp_path / "data")
    write_dataset(crowded(3), 6, dataset)
    detector = {"levels": ["P2", "P3"], "enhance_levels": [], "num_classes": 4}
    cfg = cli_config(tmp_path, {"detector": detector})
    out = str(tmp_path / "run")
    assert main(["train", "--data", dataset, "--val-data", dataset,
                 "--config", cfg, "--out", out]) == 0
    ckpt = os.path.join(out, "checkpoint_train")
    train_metrics = read_file(os.path.join(out, "reports", "metrics_train.json"))
    assert json.loads(train_metrics)["ap50"] > 0
    for argv in ([], ["--config", cfg]):
        ev = str(tmp_path / f"ev{len(argv)}")
        assert main(["eval", "--data", dataset, "--checkpoint", ckpt, "--out", ev, *argv]) == 0
        assert read_file(os.path.join(ev, "reports", "metrics_eval.json")) == train_metrics
    capsys.readouterr()
    for other in ({**detector, "enhance_levels": ["P2"]}, {"levels": ["P2", "P3"]}):
        conflicting = cli_config(tmp_path, {"detector": other})
        assert main(["eval", "--data", dataset, "--checkpoint", ckpt, "--config",
                     conflicting, "--out", str(tmp_path / "ev")]) == 1
        assert "differs from the config of checkpoint" in capsys.readouterr().err


def _set(path, value):
    # returns an edit of annotations.json that sets the entry at ``path``
    def edit(payload, directory):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


def _image(shape):
    # returns an edit that replaces the first image file with one of ``shape``
    def edit(payload, directory):
        write_tensor_file(os.path.join(directory, "images", "00000.efbt"), np.zeros(shape))
    return edit


@pytest.mark.parametrize("edit, match", [
    (_set(["annotations", 0, "bbox"], 5), r"annotations\[0\]\.bbox: expected an array"),
    (_set(["annotations", 0, "bbox"], [0, 0, "a", 4]),
     r"annotations\[0\]\.bbox\[2\]: expected float"),
    (_set(["annotations", 0, "bbox"], [0, 0, float("inf"), 4]), "not finite"),
    (_set(["annotations", 0, "category"], 7), r"class 7 outside \[0, 3\)"),
    pytest.param(_set(["annotations", 0, "category"], -1),
                 r"annotations\[0\]: category must be >= 0",
                 id=r"edit-annotations\[0\]\.category must be >= 0"),
    pytest.param(_set(["annotations", 0, "category"], True),
                 r"annotations\[0\]\.category: expected int", id="edit-must be an integer"),
    (_set(["annotations", 0, "bbox"], [0, 0, 10 ** 400, 4]),
     r"annotations\[0\]\.bbox\[2\]: the integer does not fit a float64"),
    # a box outside its image; test_scenes.py checks the whole message
    (_set(["annotations", 0, "bbox"], [200, 200, 210, 210]), "outside"),
    (_set(["annotations", 0, "bbox"], [-1, 0, 4, 4]), "outside"),
    (_set(["annotations", 0, "image_id"], 6), r"annotations\[0\]: image_id 6 outside \[0, 6\)"),
    (_image((5,)), r"images/00000\.efbt: expected a \[3, H, W\] image, got shape \[5\]"),
])
def test_cli_train_rejects_bad_annotations(tmp_path, dataset, capsys, edit, match):
    ann = os.path.join(dataset, "annotations.json")
    payload = json.load(open(ann))
    edit(payload, dataset)
    with open(ann, "w") as f:
        json.dump(payload, f)
    assert main(["train", "--data", dataset, "--config", cli_config(tmp_path),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and re.search(match, err), err


def test_cli_eval_rejects_bad_checkpoints(tmp_path, dataset, capsys):
    ckpt = tmp_path / "ckpt"
    assert main(["eval", "--data", dataset, "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "ev")]) == 1
    assert "manifest.json" in capsys.readouterr().err
    ckpt.mkdir()
    (ckpt / "manifest.json").write_text(json.dumps({"format": "tinydet-checkpoint-v2"}))
    assert main(["eval", "--data", dataset, "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "ev")]) == 1
    assert "manifest.json: top level: missing key 'seed'" in capsys.readouterr().err


def test_cli_eval_rejects_checkpoint_with_crafted_header(tmp_path, dataset, capsys):
    ckpt = tmp_path / "ckpt"
    DetectorModel(DetectorConfig(), seed=0).save(str(ckpt))
    # dims 2^31 x 2^31 x 3: 4 * count overflows int64 and far exceeds the file
    (ckpt / "params" / "p0000.efbt").write_bytes(
        b"EFBT" + struct.pack("<BBB3I", 1, 0, 3, 2 ** 31, 2 ** 31, 3) + bytes(16))
    assert main(["eval", "--data", dataset, "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "ev")]) == 1
    assert "truncated payload" in capsys.readouterr().err


def test_cli_eval_rejects_checkpoint_faults_naming_the_file(tmp_path, dataset, capsys):
    ckpt = tmp_path / "ckpt"
    model = DetectorModel(DetectorConfig(), seed=0)
    model.save(str(ckpt))
    manifest = json.loads((ckpt / "manifest.json").read_text())
    names = manifest["params"]
    v1 = {**manifest, "format": "tinydet-checkpoint-v1",
          "params": [{"name": n, "shape": list(model.store[n].data.shape),
                      "file": f"params/p{i:04d}.efbt"} for i, n in enumerate(names)]}
    repeated = {**manifest, "params": [names[0], names[3], *names[2:]]}
    argv = ["eval", "--data", dataset, "--checkpoint", str(ckpt), "--out", str(tmp_path / "ev")]
    for payload, match in [(v1, r"manifest\.json: format must be 'tinydet-checkpoint-v2', "
                                r"got 'tinydet-checkpoint-v1'"),
                           ({**manifest, "seed": -1},
                            r"manifest\.json: top level: seed must be >= 0, got -1"),
                           (repeated, r"manifest\.json: top level: params\[3\]: "
                                       r"'backbone\.stem1\.b' is listed twice")]:
        (ckpt / "manifest.json").write_text(json.dumps(payload))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and re.search(match, err), err
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    with open(ckpt / "params" / "p0000.efbt", "ab") as f:
        f.write(bytes(8))
    assert main(argv) == 1
    assert "p0000.efbt: trailing bytes" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval", "audit"])
def test_cli_rejects_a_non_finite_image(tmp_path, dataset, capsys, command):
    # a fault of the input, not of the arithmetic: exit 1, not 2
    image = os.path.join(dataset, "images", "00001.efbt")
    pixels = read_tensor_file(image)
    pixels[0, 5, 7] = np.nan
    write_tensor_file(image, pixels)
    ckpt = str(tmp_path / "ckpt")
    DetectorModel(DetectorConfig(), seed=0).save(ckpt)
    out = tmp_path / "o"
    extra = ["--checkpoint", ckpt] if command == "eval" else []
    assert main([command, "--data", dataset, *extra, "--config", cli_config(tmp_path),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.search(r"^error: .*images/00001\.efbt: the image holds a non-finite value",
                     err), err
    assert not (out / "checkpoint_train_last_good").exists()


@pytest.mark.parametrize("argv", [
    ["eval", "--data", "{empty}", "--checkpoint", "{ckpt}"],
    ["train", "--data", "{data}", "--val-data", "{empty}"],
    ["ablate", "--data", "{data}", "--val-data", "{empty}"],
])
def test_cli_rejects_a_dataset_with_no_images(tmp_path, dataset, capsys, argv):
    empty, ckpt = str(tmp_path / "empty"), str(tmp_path / "ckpt")
    assert main(["gen", "--count", "0", "--out", empty]) == 0
    DetectorModel(DetectorConfig(), seed=0).save(ckpt)
    out = tmp_path / "o"
    argv = [a.format(empty=empty, ckpt=ckpt, data=dataset) for a in argv]
    assert main([*argv, "--config", cli_config(tmp_path), "--out", str(out)]) == 1
    assert f"error: dataset {empty} holds no images" in capsys.readouterr().err
    assert not (out / "reports").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_divergence_exit_code(tmp_path, dataset, capsys):
    cfg = cli_config(tmp_path, {"train": {"epochs": 4, "learning_rate": 1e12}})
    assert main(["train", "--data", dataset, "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 2
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_divergence_keeps_the_last_good_checkpoint(tmp_path, dataset, capsys):
    out = tmp_path / "run"
    cfg = cli_config(tmp_path, {"train": {"learning_rate": 1.6e13}})
    assert main(["train", "--data", dataset, "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "checkpoint_train").exists()
    ckpt = str(out / "checkpoint_train_last_good")
    model = DetectorModel.load(ckpt)
    assert model.cfg == DetectorConfig()
    assert all(np.isfinite(t.data).all() for _, t in model.store.items())
    assert main(["eval", "--data", dataset, "--checkpoint", ckpt,
                 "--out", str(tmp_path / "ev")]) == 0
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_divergence_in_the_last_step_keeps_the_last_good_checkpoint(tmp_path, capsys):
    dataset = str(tmp_path / "data")
    write_dataset(SceneSpec(), 4, dataset)
    out = tmp_path / "run"
    cfg = cli_config(tmp_path, {"train": {"learning_rate": 1e200, "epochs": 1}})
    assert main(["train", "--data", dataset, "--config", cfg, "--out", str(out)]) == 2
    assert "non-finite parameters after epoch 1" in capsys.readouterr().err
    assert not (out / "checkpoint_train").exists()
    model = DetectorModel.load(str(out / "checkpoint_train_last_good"))
    assert all(np.isfinite(t.data).all() for _, t in model.store.items())


def test_cli_eval_of_a_diverged_checkpoint_exits_2(tmp_path, dataset, capsys):
    model = DetectorModel(DetectorConfig(), seed=0)
    model.store["head.cls.b"].data[...] = np.nan
    model.save(str(tmp_path / "ckpt"))
    assert main(["eval", "--data", dataset, "--checkpoint", str(tmp_path / "ckpt"),
                 "--out", str(tmp_path / "ev")]) == 2
    assert "numeric failure" in capsys.readouterr().err


def test_cli_eval_rejects_a_checkpoint_with_the_nested_backbone_config(tmp_path, dataset, capsys):
    # checkpoints once nested the backbone widths and carried a gate_width
    ckpt = tmp_path / "ckpt"
    DetectorModel(DetectorConfig(), seed=0).save(str(ckpt))
    manifest = json.loads((ckpt / "manifest.json").read_text())
    config = manifest["config"]
    config["backbone"] = {k: config.pop(k) for k in
                          ("stem_channels", "stage_channels", "pyramid_channels", "input_offset")}
    config["gate_width"] = None
    (ckpt / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))
    assert main(["eval", "--data", dataset, "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "ev")]) == 1
    assert "unknown key 'backbone'" in capsys.readouterr().err


def test_cli_eval_rejects_categories_the_checkpoint_lacks(tmp_path, capsys):
    data = str(tmp_path / "data")
    assert main(["gen", "--count", "6", "--config", cli_config(tmp_path, {"scene": {"num_classes": 5}}),
                 "--out", data]) == 0
    DetectorModel(DetectorConfig(), seed=0).save(str(tmp_path / "ckpt"))
    capsys.readouterr()
    assert main(["eval", "--data", data, "--checkpoint", str(tmp_path / "ckpt"),
                 "--out", str(tmp_path / "ev")]) == 1
    assert re.search(r"^error: \S+/data/annotations\.json: image \d+: class [34] outside \[0, 3\)",
                     capsys.readouterr().err)
    assert not os.path.exists(tmp_path / "ev" / "reports" / "metrics_eval.json")


def test_console_script_registered(tmp_path):
    # The interpreter's installed distributions say nothing about this
    # checkout, so build its metadata with the declared build backend.
    import importlib.metadata as md
    import subprocess
    import sys

    pytest.importorskip("setuptools")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "-q", "egg_info", "--egg-base", str(tmp_path)],
        cwd=root, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

    dist = md.PathDistribution(tmp_path / "tinydet.egg-info")
    eps = dist.entry_points.select(group="console_scripts")
    assert "tinydet" in eps.names
    assert eps["tinydet"].load() is main
