import copy
import hashlib
import json
import os
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsonfuzz import edited

from tinydet import context, gating, pyramid
from tinydet import detector as detector_module
from tinydet.anchors import IGNORED, LEVEL_STRIDES, NEGATIVE, Box, pyramid_anchors
from tinydet.balanced_loss import DCLossParams, dcloss_term, smooth_l1_term
from tinydet.detector import (
    DetectorConfig,
    DetectorModel,
    DivergenceError,
    ImageAssignment,
    assign_image,
    build_head_params,
    decode_deltas,
    encode_deltas,
    head_forward,
)
from tinydet.evaluation import Detection
from tinydet.scenes import SceneSpec, generate_scene
from tinydet.tensor import ParamStore, Tensor, read_tensor_file

rng = np.random.default_rng(31)

CFG = DetectorConfig()


def random_anchors_gts(n, r):
    x1 = r.uniform(0, 90, n)
    y1 = r.uniform(0, 90, n)
    anchors = np.stack([x1, y1, x1 + r.uniform(4, 20, n), y1 + r.uniform(4, 20, n)], axis=1)
    gx1 = r.uniform(0, 90, n)
    gy1 = r.uniform(0, 90, n)
    gts = np.stack([gx1, gy1, gx1 + r.uniform(4, 20, n), gy1 + r.uniform(4, 20, n)], axis=1)
    return anchors, gts


# ---------------------------------------------------------------------------
# delta coding


def test_encode_identity_is_zero():
    a = np.array([[10.0, 10.0, 18.0, 18.0]])
    d = encode_deltas(a, a.copy())
    np.testing.assert_allclose(d, 0.0, atol=1e-12)


def test_encode_decode_roundtrip():
    for trial in range(10):
        r = np.random.default_rng(trial)
        anchors, gts = random_anchors_gts(20, r)
        d = encode_deltas(anchors, gts)
        back = decode_deltas(anchors, d, (128, 128))  # every box lies inside: no clipping
        np.testing.assert_allclose(back, gts, atol=1e-9)


def test_decode_clamps_to_image():
    a = np.array([[0.0, 0.0, 8.0, 8.0]])
    d = np.array([[5.0], [5.0], [0.0], [0.0]])  # pushed far outside
    boxes = decode_deltas(a, d, image_hw=(32, 32))
    assert boxes[0, 2] <= 32 and boxes[0, 3] <= 32
    assert boxes[0, 0] >= 0 and boxes[0, 1] >= 0


def test_decode_caps_log_scale():
    a = np.array([[2000.0, 2000.0, 2008.0, 2008.0]])  # the capped box fits the image
    d = np.array([[0.0], [0.0], [100.0], [100.0]])
    boxes = decode_deltas(a, d, (4096, 4096))
    assert boxes[0, 2] - boxes[0, 0] == pytest.approx(8 * np.exp(6))


# ---------------------------------------------------------------------------
# assignment


def test_assign_image_shapes_and_counts():
    gts = [(Box(16.0, 16.0, 24.0, 24.0), 1), (Box(60.0, 60.0, 70.0, 70.0), 2)]
    asn = assign_image(gts, (128, 128), CFG)
    anchors, _ = pyramid_anchors((128, 128), CFG.base_anchor, CFG.levels)
    n = len(anchors)
    assert asn.labels.shape == (n,)
    assert asn.cls_targets.shape == (CFG.num_classes, n)
    np.testing.assert_array_equal(asn.reg_idx, np.nonzero(asn.labels >= 0)[0])
    assert asn.reg_targets.shape == (4, len(asn.reg_idx))
    # one-hot targets agree with the labels, and only positives carry one
    for i in asn.reg_idx:
        cls = gts[asn.labels[i]][1]
        assert asn.cls_targets[cls, i] == 1.0
    assert asn.cls_targets.sum() == len(asn.reg_idx)
    assert len(asn.reg_idx) >= len(gts)  # forced best match covers every gt


def test_assign_image_no_gts():
    asn = assign_image([], (128, 128), CFG)
    assert len(asn.reg_idx) == 0 and asn.reg_targets.shape == (4, 0)
    assert np.all(asn.labels == NEGATIVE)


def test_assign_image_rejects_classes_the_detector_lacks():
    for cls in (-1, CFG.num_classes):
        with pytest.raises(ValueError, match=f"class {cls} outside"):
            assign_image([(Box(16.0, 16.0, 24.0, 24.0), cls)], (128, 128), CFG)


def test_assign_regression_targets_recover_gt():
    gts = [(Box(16.0, 16.0, 24.0, 24.0), 0)]
    asn = assign_image(gts, (128, 128), CFG)
    anchors, _ = pyramid_anchors((128, 128), CFG.base_anchor, CFG.levels)
    assert len(asn.reg_idx) >= 1
    back = decode_deltas(anchors[asn.reg_idx], asn.reg_targets, (128, 128))
    np.testing.assert_allclose(back, np.tile(gts[0][0].as_array(), (len(asn.reg_idx), 1)),
                               atol=1e-9)


# ---------------------------------------------------------------------------
# model


def scene_and_assignment(seed=0):
    scene = generate_scene(SceneSpec(seed=seed), 0)
    return scene, assign_image(scene.gts, scene.image.shape[1:], CFG)


def test_forward_output_shapes():
    model = DetectorModel(CFG, seed=0)
    scene, _ = scene_and_assignment()
    cls_out, reg_out = model.forward(Tensor(scene.image))
    n = 32 ** 2 + 16 ** 2 + 8 ** 2 + 4 ** 2 + 2 ** 2  # P2..P6 cells at 128x128
    assert cls_out.data.shape == (CFG.num_classes, n)
    assert reg_out.data.shape == (4, n)


def test_head_column_j_is_anchor_j_of_pyramid_anchors():
    # Centre-tap identity weights make the head copy its input: trunk, cls and
    # reg pass channels 0..3 through.  Each level's map holds, per cell, the
    # anchor index that pyramid_anchors gives that cell and the anchor's
    # centre and side, so column j must read back anchor j.
    levels = ("P2", "P4", "P3", "P6")  # out of stride order on purpose
    store = ParamStore(seed=0)
    build_head_params(store, 4, 1, 4)
    for t in store.tensors():
        t.data[...] = 0.0
    for c in range(4):
        store["head.trunk.w"].data[c, c, 1, 1] = 1.0
        store["head.reg.w"].data[c, c, 0, 0] = 1.0
    store["head.cls.w"].data[0, 0, 0, 0] = 1.0
    anchors, slices = pyramid_anchors((128, 64), 2.0, levels)
    pyr = {}
    for name in levels:
        s = LEVEL_STRIDES[name]
        h, w = 128 // s, 64 // s
        ys, xs = np.mgrid[0:h, 0:w]
        pyr[name] = Tensor(np.stack([slices[name].start + ys * w + xs, (xs + 0.5) * s,
                                     (ys + 0.5) * s, np.full((h, w), 2.0 * s)]))
    cls_out, reg_out = head_forward(pyr, store, levels)
    np.testing.assert_array_equal(cls_out.data[0], np.arange(len(anchors)))
    np.testing.assert_array_equal(reg_out.data[0], np.arange(len(anchors)))
    centre_side = np.stack([(anchors[:, 0] + anchors[:, 2]) / 2,
                            (anchors[:, 1] + anchors[:, 3]) / 2, anchors[:, 2] - anchors[:, 0]])
    np.testing.assert_array_equal(reg_out.data[1:], centre_side)


def test_loss_finite_and_components():
    model = DetectorModel(CFG, seed=0)
    scene, asn = scene_and_assignment()
    outputs = model.forward(Tensor(scene.image))
    total, cls_v, reg_v = model.loss(outputs, asn, dc_params=None)
    assert np.isfinite(total.data) and total.data.shape == ()
    assert float(total.data) == pytest.approx(cls_v + reg_v, rel=1e-5)
    assert cls_v > 0 and reg_v >= 0


def test_loss_backward_touches_all_parameters():
    model = DetectorModel(CFG, seed=0)
    scene, asn = scene_and_assignment()
    total, _, _ = model.loss(model.forward(Tensor(scene.image)), asn, dc_params=None)
    total.backward()
    for name, t in model.store.items():
        assert t.grad is not None, name
        assert np.isfinite(t.grad).all(), name
        # biases of untouched levels may legitimately be zero; weights not
        if name.endswith(".w"):
            assert np.abs(t.grad).sum() > 0, name


def test_loss_variants_agree_at_zero_error():
    # the regression loss (smooth L1 without dc_params, the adaptive loss with
    # them) must not change the classification term; each regression value is
    # its term over the positives' columns
    model = DetectorModel(CFG, seed=0)
    scene, asn = scene_and_assignment()
    cls_out, reg_out = model.forward(Tensor(scene.image))
    _, cls_a, reg_a = model.loss((cls_out, reg_out), asn, dc_params=None)
    dc = DCLossParams(k=10.0, delta=0.15)
    _, cls_b, reg_b = model.loss((cls_out, reg_out), asn, dc)
    assert cls_a == cls_b
    pred = Tensor(reg_out.data[:, asn.reg_idx])
    assert reg_a == float(smooth_l1_term(pred, asn.reg_targets).data)
    assert reg_b == float(dcloss_term(pred, asn.reg_targets, dc).data)
    assert reg_a != reg_b
    # at zero error both regression terms vanish
    zero = Tensor(reg_out.data.copy())
    zero.data[:, asn.reg_idx] = asn.reg_targets
    for params in (None, dc):
        assert model.loss((cls_out, zero), asn, params)[2] == pytest.approx(0.0, abs=1e-6)


def test_ignored_anchors_carry_no_loss_weight():
    model = DetectorModel(CFG, seed=0)
    scene, asn = scene_and_assignment()
    outputs = model.forward(Tensor(scene.image))
    base_total, _, _ = model.loss(outputs, asn, dc_params=None)
    # perturbing the assignment so everything is ignored zeroes the cls loss
    empty = ImageAssignment(
        labels=np.full_like(asn.labels, IGNORED),
        cls_targets=np.zeros_like(asn.cls_targets),
        reg_idx=np.zeros(0, dtype=np.int64), reg_targets=np.zeros((4, 0)))
    outputs = model.forward(Tensor(scene.image))
    total, cls_v, reg_v = model.loss(outputs, empty, dc_params=None)
    assert cls_v == 0.0 and reg_v == 0.0
    assert float(base_total.data) > 0


def test_predict_contract():
    model = DetectorModel(CFG, seed=0)
    scene, _ = scene_and_assignment()
    dets = model.predict(Tensor(scene.image))
    assert len(dets) <= CFG.max_detections
    assert all(isinstance(d, Detection) for d in dets)
    scores = [d.score for d in dets]
    assert scores == sorted(scores, reverse=True)
    for d in dets:
        assert d.score >= CFG.score_floor
        assert 0 <= d.class_id < CFG.num_classes
        assert 0 <= d.box.x1 < d.box.x2 <= 128
        assert 0 <= d.box.y1 < d.box.y2 <= 128


def test_predict_output_is_pinned_bitwise():
    # scene 0 of SceneSpec(seed=0) on the seed-0 default model: every anchor x
    # class clears the floor, so nms fills the 100 detections
    scene, _ = scene_and_assignment()
    dets = DetectorModel(CFG, seed=0).predict(Tensor(scene.image))
    rows = np.array([(d.box.x1, d.box.y1, d.box.x2, d.box.y2, d.class_id, d.score)
                     for d in dets], dtype=np.float64)
    assert len(dets) == 100
    assert hashlib.sha256(rows.tobytes()).hexdigest().startswith("acca22251a8b492f")


def test_predict_records_no_graph_and_leaves_every_grad_none():
    model = DetectorModel(CFG, seed=0)
    outputs = []
    forward = model.forward
    model.forward = lambda image: outputs.append(forward(image)) or outputs[-1]
    scene, _ = scene_and_assignment()
    model.predict(Tensor(scene.image))
    for out in outputs[0]:
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
    assert all(t.grad is None for t in model.store.tensors())


def test_predict_restores_recording_after_an_error():
    model = DetectorModel(CFG, seed=0)
    with pytest.raises(ValueError, match="divisible by 64"):
        model.predict(Tensor(np.zeros((3, 96, 96), np.float32)))
    scene, asn = scene_and_assignment()
    total, _, _ = model.loss(model.forward(Tensor(scene.image)), asn, dc_params=None)
    total.backward()
    assert all(t.grad is not None for t in model.store.tensors())


@pytest.mark.parametrize("param", ["head.cls.b", "head.reg.b", "backbone.stem0.w"])
def test_predict_raises_on_a_diverged_head(param):
    # NaN scores used to fall below the floor and give no detections; NaN box
    # deltas used to raise "degenerate box"; a NaN backbone weight used to be
    # zeroed by relu, giving finite detections
    model = DetectorModel(CFG, seed=0)
    model.store[param].data[...] = np.nan
    scene, _ = scene_and_assignment()
    with pytest.raises(DivergenceError, match="non-finite"):
        model.predict(Tensor(scene.image))


def test_predict_scores_very_negative_logits_without_overflow():
    # exp(800) overflows float64; a finite logit of -800 must still score 0
    model = DetectorModel(CFG, seed=0)
    model.store["head.cls.b"].data[...] = -800
    scene, _ = scene_and_assignment()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model.predict(Tensor(scene.image)) == []


def test_model_deterministic_across_instances():
    scene, asn = scene_and_assignment()

    def run():
        model = DetectorModel(CFG, seed=9)
        total, _, _ = model.loss(model.forward(Tensor(scene.image)), asn, dc_params=None)
        return total.data.tobytes()

    assert run() == run()


def test_default_parameter_names_and_shapes_in_registration_order():
    # the order fixes the seeded initialization and the checkpoint layout
    conv = lambda name, c_out, c_in, k: [(f"{name}.w", (c_out, c_in, k, k)),
                                         (f"{name}.b", (c_out,))]
    expected = [
        *conv("backbone.stem0", 8, 3, 3), *conv("backbone.stem1", 8, 8, 3),
        *conv("backbone.stage1", 16, 8, 3), *conv("backbone.stage2", 16, 16, 3),
        *conv("backbone.stage3", 16, 16, 3),
        *conv("fpn.lateral2", 8, 8, 1), *conv("fpn.smooth2", 8, 8, 3),
        *conv("fpn.lateral3", 8, 16, 1), *conv("fpn.smooth3", 8, 8, 3),
        *conv("fpn.lateral4", 8, 16, 1), *conv("fpn.smooth4", 8, 8, 3),
        *conv("fpn.lateral5", 8, 16, 1), *conv("fpn.smooth5", 8, 8, 3),
        *conv("cem.proj", 8, 8, 1),
        *conv("fbsm.psi_h1", 4, 8, 3), *conv("fbsm.psi_h2", 1, 4, 1),
        *conv("fbsm.psi_l1", 4, 8, 3), *conv("fbsm.psi_l2", 1, 4, 1),
        *conv("fbsm.phi_f", 1, 1, 3), *conv("fbsm.phi_r", 8, 8, 3),
        *conv("head.trunk", 32, 8, 3), *conv("head.cls", 3, 32, 1), *conv("head.reg", 4, 32, 1),
    ]
    model = DetectorModel(DetectorConfig())
    assert [(n, t.data.shape) for n, t in model.store.items()] == expected


def test_enhancement_flag_changes_p2_path_only():
    scene, _ = scene_and_assignment()
    plain_cfg = DetectorConfig(enhance_levels=())
    model_on = DetectorModel(CFG, seed=5)
    model_off = DetectorModel(plain_cfg, seed=5)
    pyr_on = model_on.pyramid(Tensor(scene.image))
    pyr_off = model_off.pyramid(Tensor(scene.image))
    assert not np.array_equal(pyr_on["P2"].data, pyr_off["P2"].data)
    for name in ("P3", "P4", "P5", "P6"):
        assert pyr_on[name].data.tobytes() == pyr_off[name].data.tobytes()


def test_an_enhanced_level_the_head_does_not_read_is_not_built(monkeypatch):
    calls = []
    for module in (pyramid, context, gating, detector_module):
        original = module.conv2d
        monkeypatch.setattr(module, "conv2d", lambda *a, _f=original, **k: calls.append(1) or _f(*a, **k))
    scene, _ = scene_and_assignment()
    outputs = []
    for enhance in (("P2",), ()):
        calls.clear()
        model = DetectorModel(DetectorConfig(levels=("P3",), enhance_levels=enhance), seed=0)
        outputs.append([t.data.tobytes() for t in model.forward(Tensor(scene.image))])
        assert len(calls) == 16  # 5 backbone + 8 FPN + 3 head: no CEM or FBSM
    assert outputs[0] == outputs[1]


def test_checkpoint_roundtrip_preserves_predictions(tmp_path):
    scene, _ = scene_and_assignment()
    for i, cfg in enumerate([CFG, DetectorConfig(levels=("P2", "P3"), enhance_levels=(),
                                                 stem_channels=4, pyramid_channels=16,
                                                 base_anchor=2.5)]):
        model = DetectorModel(cfg, seed=11 + i)
        before = model.predict(Tensor(scene.image))
        ckpt = tmp_path / f"ckpt{i}"
        model.save(str(ckpt))
        # the manifest lists the names in registration order, parameter j in params/pNNNN.efbt
        names = list(model.store.params)
        assert json.loads((ckpt / "manifest.json").read_text())["params"] == names
        assert sorted(os.listdir(ckpt / "params")) == [f"p{j:04d}.efbt" for j in range(len(names))]
        restored = DetectorModel.load(str(ckpt))
        assert restored.cfg == cfg and restored.store.seed == 11 + i
        assert list(restored.store.params) == names
        for name, t in model.store.items():
            assert restored.store[name].data.dtype == np.float32
            assert restored.store[name].data.tobytes() == t.data.tobytes()
        assert restored.predict(Tensor(scene.image)) == before


def test_checkpoint_load_rejects_bad_manifests(tmp_path):
    with pytest.raises(ValueError, match="manifest.json"):
        DetectorModel.load(str(tmp_path / "missing"))
    ckpt = tmp_path / "ckpt"
    model = DetectorModel(CFG, seed=0)
    model.save(str(ckpt))
    manifest = json.loads((ckpt / "manifest.json").read_text())
    names = manifest["params"]
    v1 = {**manifest, "format": "tinydet-checkpoint-v1",
          "params": [{"name": n, "shape": list(model.store[n].data.shape),
                      "file": f"params/p{i:04d}.efbt"} for i, n in enumerate(names)]}
    bad = [
        ({"format": "tinydet-checkpoint-v2"}, "top level: missing key 'seed'"),
        # the format is checked before the fields it governs
        ({"format": "x"}, r"manifest\.json: format must be 'tinydet-checkpoint-v2', got 'x'"),
        (v1, r"manifest\.json: format must be 'tinydet-checkpoint-v2', got 'tinydet-checkpoint-v1'"),
        ({**manifest, "seed": 1.0}, "seed: expected int"),
        ({**manifest, "seed": -1}, r"manifest\.json: top level: seed must be >= 0, got -1"),
        ({**manifest, "params": None}, "params: expected an array"),
        ({k: v for k, v in manifest.items() if k != "config"}, "top level: missing key 'config'"),
        ({**manifest, "config": []}, "config: expected an object"),
        ({**manifest, "extra": 1}, "unknown key 'extra'"),
        ({**manifest, "params": [5]}, r"params\[0\]: expected str"),
        # stem1.b listed again in place of stem0.b, so it would take stem0.b's file
        ({**manifest, "params": [names[0], names[3], *names[2:]]},
         r"params\[3\]: 'backbone.stem1.b' is listed twice"),
        ({**manifest, "params": [*names, "extra.w"]}, "p0046.efbt"),
    ]
    for payload, match in bad:
        (ckpt / "manifest.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=match):
            DetectorModel.load(str(ckpt))


def test_checkpoint_load_rejects_parameters_that_do_not_fit_its_config(tmp_path):
    ckpt = tmp_path / "ckpt"
    DetectorModel(CFG, seed=0).save(str(ckpt))
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["config"]["num_classes"] = 5  # head.cls would need 5 output channels
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="head.cls"):
        DetectorModel.load(str(ckpt))
    del manifest["config"]["num_classes"]
    manifest["params"] = [n for n in manifest["params"] if not n.startswith("head.")]
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="head.trunk.w"):
        DetectorModel.load(str(ckpt))


def test_checkpoint_with_an_enhance_key_no_longer_loads(tmp_path):
    import json

    ckpt = tmp_path / "ckpt"
    DetectorModel(CFG, seed=0).save(str(ckpt))
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["config"]["enhance"] = False
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="unknown key 'enhance'"):
        DetectorModel.load(str(ckpt))


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "ckpt")
    DetectorModel(CFG, seed=0).save(path)
    with open(os.path.join(path, "manifest.json")) as f:
        return path, json.load(f)


def _load_edited(path, manifest):
    with tempfile.TemporaryDirectory() as d:
        ckpt = shutil.copytree(path, os.path.join(d, "ckpt"))
        with open(os.path.join(ckpt, "manifest.json"), "w") as f:
            json.dump(manifest, f)
        return DetectorModel.load(ckpt)


@pytest.mark.parametrize("num_classes, match", [
    (10 ** 400, "does not fit a float64"),
    (2 ** 40, "head.cls.w"),  # checked against the saved shape before any allocation
])
def test_checkpoint_config_count_too_large_raises_value_error(fuzz_checkpoint,
                                                             num_classes, match):
    path, manifest = fuzz_checkpoint
    manifest = copy.deepcopy(manifest)
    manifest["config"]["num_classes"] = num_classes
    with pytest.raises(ValueError, match=match):
        _load_edited(path, manifest)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checkpoint_load_fuzz_loads_or_raises_value_error(fuzz_checkpoint, data):
    path, manifest = fuzz_checkpoint
    manifest = data.draw(edited(manifest))
    try:
        model = _load_edited(path, manifest)
    except ValueError:
        return
    # what loads holds exactly the parameters the manifest lists, each in its file's shape
    assert {n: t.data.shape for n, t in model.store.items()} == \
        {n: read_tensor_file(os.path.join(path, "params", f"p{i:04d}.efbt")).shape
         for i, n in enumerate(manifest["params"])}


@pytest.mark.parametrize("cls, kw, match", [
    (DetectorConfig, {"num_classes": 0}, "num_classes must be >= 1"),
    (DetectorConfig, {"head_channels": 0}, "head_channels must be >= 1"),
    (DetectorConfig, {"stage_channels": (8, 16, 16)}, "exactly 4 stages"),
    (DetectorConfig, {"max_detections": -1}, "max_detections must be >= 1"),
    (DetectorConfig, {"max_detections": 0}, "max_detections must be >= 1"),
    (DetectorConfig, {"score_floor": -0.1}, r"score_floor must lie in \[0, 1\]"),
    (DetectorConfig, {"score_floor": 1.5}, r"score_floor must lie in \[0, 1\]"),
    (DetectorConfig, {"nms_iou": 2.0}, r"nms_iou must lie in \[0, 1\]"),
    (DetectorConfig, {"neg_thr": 0.6}, "need 0 <= neg_thr <= pos_thr <= 1"),
    (DetectorConfig, {"neg_thr": -0.1}, "need 0 <= neg_thr <= pos_thr <= 1"),
    (DetectorConfig, {"pos_thr": 1.1}, "need 0 <= neg_thr <= pos_thr <= 1"),
    (DetectorConfig, {"levels": ("P3", "P3")}, "levels names a level twice"),
    (DetectorConfig, {"enhance_levels": ("P2", "P3", "P2")}, "enhance_levels names a level twice"),
    (DetectorConfig, {"pyramid_channels": 0}, "pyramid_channels must be >= 1"),
    (DetectorConfig, {"stem_channels": 0}, "stem_channels must be >= 1"),
    (DetectorConfig, {"stage_channels": (8, 0, 16, 16)}, r"stage_channels\[1\] must be >= 1"),
    (DetectorConfig, {"input_offset": float("nan")}, "input_offset must be finite"),
    (DetectorConfig, {"input_offset": float("inf")}, "input_offset must be finite"),
    (DetectorConfig, {"input_offset": -float("inf")}, "input_offset must be finite"),
    (DetectorConfig, {"base_anchor": 0.0}, "base_anchor must be finite and > 0"),
    (DetectorConfig, {"base_anchor": -1.0}, "base_anchor must be finite and > 0"),
    (DetectorConfig, {"base_anchor": float("nan")}, "base_anchor must be finite and > 0"),
    (DetectorConfig, {"base_anchor": float("inf")}, "base_anchor must be finite and > 0"),
])
def test_config_rejects_out_of_range_values(cls, kw, match):
    with pytest.raises(ValueError, match=match):
        cls(**kw)


def test_detector_config_accepts_the_range_edges():
    DetectorConfig(num_classes=1, head_channels=1, max_detections=1,
                   score_floor=0.0, nms_iou=1.0, neg_thr=0.5, pos_thr=0.5)
    DetectorConfig(score_floor=1.0, nms_iou=0.0, neg_thr=0.0, pos_thr=1.0,
                   stem_channels=1, stage_channels=(1, 1, 1, 1), pyramid_channels=1)


def test_detector_config_rejects_unknown_levels():
    for kw in ({"levels": ("P7",)}, {"levels": "P2"}, {"levels": ()},
               {"enhance_levels": ("P1",)}):
        with pytest.raises(ValueError, match="level"):
            DetectorConfig(**kw)
