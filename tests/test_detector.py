import numpy as np
import pytest

from tinydet.anchors import IGNORED, NEGATIVE, Box, gen_anchors
from tinydet.balanced_loss import DCLossParams
from tinydet.detector import (
    DetectorConfig,
    DetectorModel,
    ImageAssignment,
    assign_image,
    decode_deltas,
    encode_deltas,
)
from tinydet.evaluation import Detection
from tinydet.scenes import SceneSpec, generate_scene
from tinydet.tensor import Tensor

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
        back = decode_deltas(anchors, d)
        np.testing.assert_allclose(back, gts, atol=1e-9)


def test_decode_clamps_to_image():
    a = np.array([[0.0, 0.0, 8.0, 8.0]])
    d = np.array([[5.0], [5.0], [0.0], [0.0]])  # pushed far outside
    boxes = decode_deltas(a, d, image_hw=(32, 32))
    assert boxes[0, 2] <= 32 and boxes[0, 3] <= 32
    assert boxes[0, 0] >= 0 and boxes[0, 1] >= 0


def test_decode_caps_log_scale():
    a = np.array([[0.0, 0.0, 8.0, 8.0]])
    d = np.array([[0.0], [0.0], [100.0], [100.0]])
    boxes = decode_deltas(a, d)
    assert boxes[0, 2] - boxes[0, 0] == pytest.approx(8 * np.exp(6))


# ---------------------------------------------------------------------------
# assignment


def test_assign_image_shapes_and_counts():
    gts = [(Box(16.0, 16.0, 24.0, 24.0), 1), (Box(60.0, 60.0, 70.0, 70.0), 2)]
    asn = assign_image(gts, (128, 128), CFG)
    assert set(asn.anchors) == set(CFG.levels)
    total_pos = 0
    for name in CFG.levels:
        n = len(asn.anchors[name])
        assert asn.labels[name].shape == (n,)
        assert asn.cls_targets[name].shape == (CFG.num_classes, n)
        pos = asn.reg_idx[name]
        assert asn.reg_targets[name].shape == (4, len(pos))
        total_pos += len(pos)
        # one-hot targets agree with the labels
        for i in pos:
            gt_idx = asn.labels[name][i]
            cls = gts[gt_idx][1]
            assert asn.cls_targets[name][cls, i] == 1.0
    assert asn.n_pos == total_pos >= len(gts)  # forced best match covers every gt
    assert asn.n_pos + asn.n_neg <= sum(len(a) for a in asn.anchors.values())


def test_assign_image_no_gts():
    asn = assign_image([], (128, 128), CFG)
    assert asn.n_pos == 0
    for name in CFG.levels:
        assert np.all(asn.labels[name] == NEGATIVE)


def test_assign_regression_targets_recover_gt():
    gts = [(Box(16.0, 16.0, 24.0, 24.0), 0)]
    asn = assign_image(gts, (128, 128), CFG)
    for name in CFG.levels:
        pos = asn.reg_idx[name]
        if not len(pos):
            continue
        back = decode_deltas(asn.anchors[name][pos], asn.reg_targets[name])
        np.testing.assert_allclose(back, np.tile(gts[0][0].as_array(), (len(pos), 1)),
                                   atol=1e-9)


# ---------------------------------------------------------------------------
# model


def scene_and_assignment(seed=0):
    scene = generate_scene(SceneSpec(seed=seed), 0)
    return scene, assign_image(scene.gts, scene.image.shape[1:], CFG)


def test_forward_output_shapes():
    model = DetectorModel(CFG, seed=0)
    scene, _ = scene_and_assignment()
    outputs = model.forward(Tensor(scene.image))
    sides = {"P2": 32, "P3": 16, "P4": 8, "P5": 4, "P6": 2}
    for name, side in sides.items():
        cls_map, reg_map = outputs[name]
        assert cls_map.data.shape == (CFG.num_classes, side, side)
        assert reg_map.data.shape == (4, side, side)


def test_loss_finite_and_components():
    model = DetectorModel(CFG, seed=0)
    scene, asn = scene_and_assignment()
    outputs = model.forward(Tensor(scene.image))
    total, cls_v, reg_v = model.loss(outputs, asn)
    assert np.isfinite(total.data) and total.data.shape == ()
    assert float(total.data) == pytest.approx(cls_v + reg_v, rel=1e-5)
    assert cls_v > 0 and reg_v >= 0


def test_loss_backward_touches_all_parameters():
    model = DetectorModel(CFG, seed=0)
    scene, asn = scene_and_assignment()
    total, _, _ = model.loss(model.forward(Tensor(scene.image)), asn)
    total.backward()
    for name, t in model.store.items():
        assert t.grad is not None, name
        assert np.isfinite(t.grad).all(), name
        # biases of untouched levels may legitimately be zero; weights not
        if name.endswith(".w"):
            assert np.abs(t.grad).sum() > 0, name


def test_loss_variants_agree_at_zero_error():
    # when predictions equal targets both regression losses are ~0; loss
    # selection must not change the classification term
    model = DetectorModel(CFG, seed=0)
    scene, asn = scene_and_assignment()
    outputs = model.forward(Tensor(scene.image))
    _, cls_a, _ = model.loss(outputs, asn, reg_loss="smooth_l1")
    outputs = model.forward(Tensor(scene.image))
    _, cls_b, _ = model.loss(outputs, asn, reg_loss="dcloss",
                             dc_params=DCLossParams())
    assert cls_a == pytest.approx(cls_b, rel=1e-6)
    with pytest.raises(ValueError, match="unknown regression loss"):
        model.loss(model.forward(Tensor(scene.image)), asn, reg_loss="l2")


def test_ignored_anchors_carry_no_loss_weight():
    model = DetectorModel(CFG, seed=0)
    scene, asn = scene_and_assignment()
    outputs = model.forward(Tensor(scene.image))
    base_total, _, _ = model.loss(outputs, asn)
    # perturbing the assignment so everything is ignored zeroes the cls loss
    empty = ImageAssignment(
        anchors=asn.anchors,
        labels={n: np.full_like(asn.labels[n], IGNORED) for n in asn.labels},
        reg_idx={n: np.zeros(0, dtype=np.int64) for n in asn.reg_idx},
        reg_targets={n: np.zeros((4, 0)) for n in asn.reg_targets},
        cls_targets={n: np.zeros_like(asn.cls_targets[n]) for n in asn.cls_targets},
        n_pos=0, n_neg=0)
    outputs = model.forward(Tensor(scene.image))
    total, cls_v, reg_v = model.loss(outputs, empty)
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


def test_model_deterministic_across_instances():
    scene, asn = scene_and_assignment()

    def run():
        model = DetectorModel(CFG, seed=9)
        total, _, _ = model.loss(model.forward(Tensor(scene.image)), asn)
        return total.data.tobytes()

    assert run() == run()


def test_enhancement_flag_changes_p2_path_only():
    scene, _ = scene_and_assignment()
    plain_cfg = DetectorConfig(enhance=False)
    model_on = DetectorModel(CFG, seed=5)
    model_off = DetectorModel(plain_cfg, seed=5)
    pyr_on = model_on.pyramid(Tensor(scene.image))
    pyr_off = model_off.pyramid(Tensor(scene.image))
    assert not np.array_equal(pyr_on["P2"].data, pyr_off["P2"].data)
    for name in ("P3", "P4", "P5", "P6"):
        assert pyr_on[name].data.tobytes() == pyr_off[name].data.tobytes()


def test_checkpoint_roundtrip_preserves_predictions(tmp_path):
    scene, _ = scene_and_assignment()
    for i, cfg in enumerate([CFG, DetectorConfig(levels=("P2", "P3"), enhance=False,
                                                 gate_width=6, base_anchor=2.5)]):
        model = DetectorModel(cfg, seed=i)
        before = model.predict(Tensor(scene.image))
        model.save(str(tmp_path / f"ckpt{i}"))
        restored = DetectorModel.load(str(tmp_path / f"ckpt{i}"))
        assert restored.cfg == cfg
        assert restored.predict(Tensor(scene.image)) == before


def test_checkpoint_load_rejects_parameters_that_do_not_fit_its_config(tmp_path):
    import json

    ckpt = tmp_path / "ckpt"
    DetectorModel(CFG, seed=0).save(str(ckpt))
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["config"]["num_classes"] = 5  # head.cls would need 5 output channels
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="head.cls"):
        DetectorModel.load(str(ckpt))
    del manifest["config"]["num_classes"]
    manifest["params"] = [e for e in manifest["params"] if not e["name"].startswith("head.")]
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="head.trunk.w"):
        DetectorModel.load(str(ckpt))


def test_detector_config_rejects_unknown_levels():
    for kw in ({"levels": ("P7",)}, {"levels": "P2"}, {"levels": ()},
               {"enhance_levels": ("P1",)}):
        with pytest.raises(ValueError, match="level"):
            DetectorConfig(**kw)
