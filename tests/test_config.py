import inspect
import json
import math
from dataclasses import asdict, dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinydet import anchors, balanced_loss, detector, evaluation, experiments, gating, pyramid, training
from tinydet.config import from_dict
from tinydet.detector import DetectorConfig
from tinydet.pyramid import LEVEL_STRIDES, BackboneConfig
from tinydet.scenes import SceneSpec
from tinydet.training import TrainConfig

floats = st.floats(allow_nan=False, allow_infinity=False)
sizes = st.integers(1, 512)
level_names = st.sampled_from(list(LEVEL_STRIDES))


@st.composite
def scene_specs(draw):
    tiny_only = draw(st.booleans())
    side_min = draw(st.floats(0.5, 16.0))
    side_max = draw(st.floats(side_min, 16.0 if tiny_only else 1e6))
    objects_min = draw(st.integers(0, 20))
    return SceneSpec(height=draw(sizes), width=draw(sizes), objects_min=objects_min,
                     objects_max=draw(st.integers(objects_min, 40)), side_min=side_min,
                     side_max=side_max, side_scale=draw(floats),
                     num_classes=draw(st.integers(1, 10)), contrast=draw(floats),
                     noise_sigma=draw(floats), tiny_only=tiny_only,
                     seed=draw(st.integers(0, 2 ** 64 - 1)))


backbones = st.builds(BackboneConfig, stem_channels=sizes,
                      stage_channels=st.tuples(sizes, sizes, sizes, sizes),
                      pyramid_channels=sizes, input_offset=floats)

unit = st.floats(0.0, 1.0)


@st.composite
def detector_configs(draw):
    neg_thr, pos_thr = sorted(draw(st.tuples(unit, unit)))
    return DetectorConfig(
        backbone=draw(backbones), num_classes=draw(sizes),
        levels=tuple(draw(st.lists(level_names, min_size=1, unique=True))),
        enhance_levels=tuple(draw(st.lists(level_names, unique=True))), gate_width=draw(st.none() | sizes),
        head_channels=draw(sizes), base_anchor=draw(floats), pos_thr=pos_thr, neg_thr=neg_thr,
        score_floor=draw(unit), nms_iou=draw(unit), max_detections=draw(sizes))

positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
train_configs = st.builds(
    TrainConfig, learning_rate=positive, momentum=st.floats(0.0, 1.0, exclude_max=True),
    weight_decay=st.floats(0.0, allow_infinity=False), epochs=st.integers(1, 100),
    decay_epochs=st.lists(st.integers(0, 100)).map(tuple),
    decay_factor=st.floats(0.0, 1.0, exclude_min=True), batch_size=sizes,
    reg_loss=st.sampled_from(["smooth_l1", "dcloss"]),
    dc_k=positive, dc_delta=positive, dc_learnable=st.booleans(),
    seed=st.integers(0, 2 ** 32))


@settings(max_examples=50, deadline=None)
@given(st.one_of(scene_specs(), backbones, detector_configs(), train_configs))
def test_asdict_then_from_dict_roundtrips_through_json(config):
    payload = json.loads(json.dumps(asdict(config)))
    assert from_dict(type(config), payload, "config") == config


@pytest.mark.parametrize("cls, payload, fixed, match", [
    (TrainConfig, [1], {}, "expected an object"),
    (TrainConfig, {"epoch": 1}, {}, "unknown key 'epoch'"),
    (TrainConfig, {"seed": 1}, {"seed": 0}, "set on the command line"),
    (TrainConfig, {"decay_epochs": 8}, {}, r"section\.decay_epochs: expected an array"),
    (TrainConfig, {"epochs": "4"}, {}, r"section\.epochs: expected int"),
    (TrainConfig, {"epochs": 4.0}, {}, "expected int"),
    (TrainConfig, {"dc_learnable": 1}, {}, "expected bool"),
    (TrainConfig, {"epochs": True}, {}, "expected int"),
    (TrainConfig, {"epochs": 0}, {}, "epochs must be >= 1"),
    (DetectorConfig, {"levels": "P2"}, {}, "expected an array"),
    (DetectorConfig, {"levels": ["P7"]}, {}, "unknown pyramid level 'P7'"),
    (DetectorConfig, {"levels": [2]}, {}, r"levels\[0\]: expected str"),
    (DetectorConfig, {"gate_width": "4"}, {}, r"expected int \| None"),
    (DetectorConfig, {"backbone": {"stages": 4}}, {}, r"section\.backbone: unknown key"),
    (DetectorConfig, {"backbone": []}, {}, "expected an object"),
    (TrainConfig, {"batch_size": 0}, {}, "batch_size must be >= 1"),
    (DetectorConfig, {"num_classes": 0}, {}, "num_classes must be >= 1"),
    (DetectorConfig, {"enhance": False}, {}, "unknown key 'enhance'"),
    (TrainConfig, {"reg_loss": "dcloss_swapped"}, {}, "unknown regression loss"),
    (TrainConfig, {"learning_rate": math.nan}, {}, "learning_rate must be finite and > 0"),
    (TrainConfig, {"learning_rate": math.inf}, {}, "learning_rate must be finite and > 0"),
    (TrainConfig, {"learning_rate": 0.0}, {}, "learning_rate must be finite and > 0"),
    (TrainConfig, {"momentum": math.nan}, {}, r"momentum must lie in \[0, 1\)"),
    (TrainConfig, {"momentum": 1.0}, {}, r"momentum must lie in \[0, 1\)"),
    (TrainConfig, {"momentum": -0.1}, {}, r"momentum must lie in \[0, 1\)"),
    (TrainConfig, {"weight_decay": -1e-6}, {}, "weight_decay must be finite and >= 0"),
    (TrainConfig, {"weight_decay": math.inf}, {}, "weight_decay must be finite and >= 0"),
    (TrainConfig, {"decay_factor": 0.0}, {}, r"decay_factor must lie in \(0, 1\]"),
    (TrainConfig, {"decay_factor": 1.5}, {}, r"decay_factor must lie in \(0, 1\]"),
    (TrainConfig, {"decay_factor": math.nan}, {}, r"decay_factor must lie in \(0, 1\]"),
    (TrainConfig, {"dc_k": -1.0}, {}, r"^section: k and delta must be finite and positive"),
    (TrainConfig, {"dc_delta": math.nan}, {}, "k and delta must be finite and positive"),
    (TrainConfig, {"dc_k": math.inf, "reg_loss": "smooth_l1"}, {}, "must be finite and positive"),
])
def test_from_dict_rejects(cls, payload, fixed, match):
    with pytest.raises(ValueError, match=match):
        from_dict(cls, payload, "section", **fixed)


def test_from_dict_converts_arrays_and_fills_fixed_fields():
    cfg = from_dict(TrainConfig, {"decay_epochs": [2, 3], "learning_rate": 1}, "train",
                    seed=7)
    assert cfg == TrainConfig(decay_epochs=(2, 3), learning_rate=1, seed=7)
    det = from_dict(DetectorConfig, {"backbone": {"stage_channels": [4, 4, 4, 4]},
                                     "gate_width": None}, "detector")
    assert det.backbone == BackboneConfig(stage_channels=(4, 4, 4, 4))


@dataclass
class _Pair:
    first: int
    second: int = 0


@dataclass
class _Pairs:
    pairs: tuple[_Pair, ...]


def test_from_dict_names_a_missing_key():
    with pytest.raises(ValueError, match=r"^top level: missing key 'pairs'$"):
        from_dict(_Pairs, {}, "")
    with pytest.raises(ValueError, match=r"^section\.pairs\[1\]: missing key 'first'$"):
        from_dict(_Pairs, {"pairs": [{"first": 1}, {"second": 2}]}, "section")
    assert from_dict(_Pairs, {"pairs": [{"first": 1}]}, "") == _Pairs((_Pair(1),))


# Parameters whose values live in a config record (DetectorConfig, TrainConfig,
# the ``n_seeds`` key) or that every caller passes: a default here would be a
# second copy of the record's default, free to drift from it.
STRICT_PARAMETERS = [
    (anchors.gen_anchors, ("base_size",)),
    (anchors.pyramid_anchors, ("base_size", "levels")),
    (anchors.assign_maxiou, ("pos_thr", "neg_thr")),
    (evaluation.nms, ("iou_thr", "max_keep")),
    (pyramid.efpn_bs_forward, ("levels",)),
    (detector.build_head_params, ("trunk_channels",)),
    (detector.decode_deltas, ("image_hw",)),
    (detector.DetectorModel.loss, ("dc_params",)),
    (gating.build_fbsm_params, ("gate_width",)),
    (balanced_loss.DCLossParams, ("k", "delta")),
    (balanced_loss.DCLossParams.step, ("lr", "momentum")),
    (training.SGDMomentum, ("momentum", "weight_decay")),
    (experiments.run_variants, ("n_seeds",)),
]


def test_values_the_config_records_own_have_no_second_default():
    defaulted = [f"{fn.__module__}.{fn.__qualname__}({name})"
                 for fn, names in STRICT_PARAMETERS for name in names
                 if inspect.signature(fn).parameters[name].default is not inspect.Parameter.empty]
    assert not defaulted, f"defaults below the config records: {defaulted}"
