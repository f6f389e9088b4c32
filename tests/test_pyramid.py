import numpy as np
import pytest

from gradcheck import tensor_sum

from tinydet.anchors import LEVEL_STRIDES
from tinydet.context import build_cem_params
from tinydet.detector import DetectorConfig
from tinydet.gating import build_fbsm_params
from tinydet.pyramid import (
    backbone_forward,
    build_backbone_params,
    build_fpn,
    build_fpn_params,
    efpn_bs_forward,
)
from tinydet.tensor import ParamStore, Tensor

rng = np.random.default_rng(23)

CFG = DetectorConfig()


def make_store(seed=0):
    store = ParamStore(seed=seed)
    build_backbone_params(store, CFG)
    build_fpn_params(store, CFG)
    c = CFG.pyramid_channels
    build_cem_params(store, c, c)
    build_fbsm_params(store, c, c)
    return store


def image(h=128, w=128):
    return Tensor(rng.standard_normal((3, h, w)).astype(np.float32))


def test_level_strides_table():
    assert LEVEL_STRIDES == {"P2": 4, "P3": 8, "P4": 16, "P5": 32, "P6": 64}


def test_backbone_feature_shapes():
    store = make_store()
    feats = backbone_forward(image(128, 192), store, CFG)
    assert [f.data.shape for f in feats] == [
        (8, 32, 48), (16, 16, 24), (16, 8, 12), (16, 4, 6)]


def test_backbone_rejects_bad_input():
    store = make_store()
    with pytest.raises(ValueError, match="divisible"):
        backbone_forward(image(100, 128), store, CFG)
    with pytest.raises(ValueError, match="3,H,W"):
        backbone_forward(Tensor(np.zeros((1, 128, 128), dtype=np.float32)), store, CFG)


def test_build_fpn_rejects_bad_features():
    store = make_store()
    feats = backbone_forward(image(), store, CFG)
    with pytest.raises(ValueError, match="4 backbone features"):
        build_fpn(feats[:3], store)
    # a lateral's conv2d checks the channel count
    c3 = feats[1].data
    feats[1] = Tensor(np.zeros((c3.shape[0] + 1, *c3.shape[1:]), dtype=np.float32))
    with pytest.raises(ValueError, match="channels"):
        build_fpn(feats, store)


def test_pyramid_shapes_and_strides():
    store = make_store()
    pyr = build_fpn(backbone_forward(image(), store, CFG), store)
    assert list(pyr) == ["P2", "P3", "P4", "P5", "P6"]
    for name, side in [("P2", 32), ("P3", 16), ("P4", 8), ("P5", 4), ("P6", 2)]:
        f = pyr[name]
        assert f.data.shape == (CFG.pyramid_channels, side, side)
        assert LEVEL_STRIDES[name] == 128 // side


def test_p6_is_max_pool_of_p5():
    store = make_store()
    pyr = build_fpn(backbone_forward(image(), store, CFG), store)
    p5, p6 = pyr["P5"].data, pyr["P6"].data
    for c in range(p5.shape[0]):
        for i in range(p6.shape[1]):
            for j in range(p6.shape[2]):
                assert p6[c, i, j] == p5[c, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max()


def test_enhancement_replaces_only_p2():
    store = make_store()
    pyr = build_fpn(backbone_forward(image(), store, CFG), store)
    out = efpn_bs_forward(pyr, store, ("P2",))
    assert not np.array_equal(out["P2"].data, pyr["P2"].data)
    assert out["P2"].data.shape == pyr["P2"].data.shape
    for name in ("P3", "P4", "P5", "P6"):
        assert out[name].data.tobytes() == pyr[name].data.tobytes()


def test_enhancement_disabled_is_identity():
    store = make_store()
    pyr = build_fpn(backbone_forward(image(), store, CFG), store)
    out = efpn_bs_forward(pyr, store, ())
    assert list(out) == list(pyr)
    assert all(out[name] is pyr[name] for name in pyr)


def test_enhancement_configurable_levels():
    store = make_store()
    pyr = build_fpn(backbone_forward(image(), store, CFG), store)
    out = efpn_bs_forward(pyr, store, ("P2", "P3"))
    for name in ("P2", "P3"):
        assert not np.array_equal(out[name].data, pyr[name].data)
    for name in ("P4", "P5", "P6"):
        assert out[name].data.tobytes() == pyr[name].data.tobytes()


def test_gradient_reaches_p5_through_enhanced_p2():
    # the enhanced P2 depends on P5, so a loss on P2 alone must push gradient
    # into every backbone and pyramid parameter, including P5's lateral conv
    store = make_store()
    pyr = build_fpn(backbone_forward(image(), store, CFG), store)
    out = efpn_bs_forward(pyr, store, ("P2",))
    tensor_sum(out["P2"]).backward()
    lat5 = store["fpn.lateral5.w"]
    assert lat5.grad is not None and np.abs(lat5.grad).max() > 0
    assert np.abs(store["backbone.stem0.w"].grad).max() > 0
    assert np.abs(store["cem.proj.w"].grad).max() > 0


def test_full_pipeline_deterministic():
    def run():
        store = make_store(seed=4)
        img = Tensor(np.random.default_rng(1).standard_normal((3, 128, 128)).astype(np.float32))
        pyr = efpn_bs_forward(build_fpn(backbone_forward(img, store, CFG), store), store,
                              ("P2",))
        return pyr["P2"].data.tobytes()

    assert run() == run()


def test_backbone_config_validation():
    with pytest.raises(ValueError, match="4 stages"):
        DetectorConfig(stage_channels=(8, 16, 16))
