import inspect
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Literal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinydet import anchors, balanced_loss, detector, evaluation, experiments, pyramid, training
from tinydet.anchors import LEVEL_STRIDES
from tinydet.config import from_dict
from tinydet.detector import DetectorConfig
from tinydet.scenes import SceneSpec
from tinydet.training import TrainConfig

floats = st.floats(allow_nan=False, allow_infinity=False)
sizes = st.integers(1, 512)
level_names = st.sampled_from(list(LEVEL_STRIDES))
# the enhancement upsamples P5 to each level it names, so none is coarser than P5
enhance_names = st.sampled_from([n for n, s in LEVEL_STRIDES.items() if s <= LEVEL_STRIDES["P5"]])


unit = st.floats(0.0, 1.0)
positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(0.0, allow_infinity=False)


def fitting_side(v):  # at least side_max, so that an object fits
    return st.integers(math.ceil(v["side_max"]), math.ceil(v["side_max"]) + 511)


# One strategy per field of each config record, so that a new field cannot
# silently keep its default in the round trip.  A callable entry takes the
# values drawn so far and returns the strategy: the draws a record's checks
# tie together come after the fields they depend on.
SCENE_FIELDS = {
    "side_min": st.floats(0.5, 16.0),
    "side_max": lambda v: st.floats(v["side_min"], 1e6),
    "height": fitting_side,
    "width": fitting_side,
    "objects_min": st.integers(0, 20),
    "objects_max": lambda v: st.integers(v["objects_min"], 40),
    "side_scale": non_negative,
    "num_classes": st.integers(1, 10),
    "contrast": floats,
    "noise_sigma": non_negative,
    "seed": st.integers(0, 2 ** 64 - 1),
}
DETECTOR_FIELDS = {
    "stem_channels": sizes,
    "stage_channels": st.tuples(sizes, sizes, sizes, sizes),
    "pyramid_channels": sizes,
    "input_offset": floats,
    "num_classes": sizes,
    "levels": st.lists(level_names, min_size=1, unique=True).map(tuple),
    "enhance_levels": st.lists(enhance_names, unique=True).map(tuple),
    "head_channels": sizes,
    "base_anchor": positive,
    "neg_thr": unit,
    "pos_thr": lambda v: st.floats(v["neg_thr"], 1.0),
    "score_floor": unit,
    "nms_iou": unit,
    "max_detections": sizes,
}
TRAIN_FIELDS = {
    "learning_rate": positive,
    "momentum": st.floats(0.0, 1.0, exclude_max=True),
    "weight_decay": non_negative,
    "epochs": st.integers(1, 100),
    "decay_epochs": st.lists(st.integers(0, 100)).map(tuple),
    "decay_factor": st.floats(0.0, 1.0, exclude_min=True),
    "batch_size": sizes,
    "reg_loss": st.sampled_from(["smooth_l1", "dcloss"]),
    "dc_k": positive,
    "dc_delta": positive,
    "dc_learnable": st.booleans(),
    "seed": st.integers(0, 2 ** 32),
}
FIELD_TABLES = {SceneSpec: SCENE_FIELDS, DetectorConfig: DETECTOR_FIELDS, TrainConfig: TRAIN_FIELDS}


@st.composite
def configs(draw, cls):
    values = {}
    for name, strategy in FIELD_TABLES[cls].items():
        values[name] = draw(strategy if isinstance(strategy, st.SearchStrategy)
                            else strategy(values))
    return cls(**values)


def test_every_config_field_has_a_strategy():
    for cls, table in FIELD_TABLES.items():
        assert sorted(table) == sorted(f.name for f in fields(cls)), cls.__name__


@settings(max_examples=50, deadline=None)
@given(st.one_of(*(configs(cls) for cls in FIELD_TABLES)))
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
    (DetectorConfig, {"gate_width": 4}, {}, "unknown key 'gate_width'"),  # follows from the width
    (DetectorConfig, {"backbone": {"stages": 4}}, {}, "unknown key 'backbone'"),  # its fields are flat
    (DetectorConfig, [], {}, "expected an object"),
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
    (DetectorConfig, {"enhance_levels": ["P2", "P6"]}, {}, "enhance_levels names P6, which is coarser than the P5"),
])
def test_from_dict_rejects(cls, payload, fixed, match):
    with pytest.raises(ValueError, match=match):
        from_dict(cls, payload, "section", **fixed)


def test_from_dict_converts_arrays_and_fills_fixed_fields():
    cfg = from_dict(TrainConfig, {"decay_epochs": [2, 3], "learning_rate": 1}, "train",
                    seed=7)
    assert cfg == TrainConfig(decay_epochs=(2, 3), learning_rate=1, seed=7)
    det = from_dict(DetectorConfig, {"stage_channels": [4, 4, 4, 4], "input_offset": 0},
                    "detector")
    assert det == DetectorConfig(stage_channels=(4, 4, 4, 4), input_offset=0.0)


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


@dataclass
class _Versioned:
    format: Literal["v2"]
    pairs: tuple[_Pair, ...]


def test_from_dict_checks_fields_in_declared_order():
    assert from_dict(_Versioned, {"pairs": [], "format": "v2"}, "") == _Versioned("v2", ())
    # the format is reported before the fields it governs, whatever the key order
    for payload in ({"pairs": [{"name": "a"}], "format": "v1"}, {"format": "v1"},
                    {"extra": 1, "format": "v1"}, {"pairs": 5, "format": 2}):
        with pytest.raises(ValueError, match=r"^format must be 'v2', got (2|'v1')$"):
            from_dict(_Versioned, payload, "")
    with pytest.raises(ValueError, match=r"^section\.format must be 'v2', got None$"):
        from_dict(_Versioned, {"format": None, "pairs": []}, "section")


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
