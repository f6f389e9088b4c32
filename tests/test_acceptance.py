"""End-to-end acceptance gate: one test per release criterion.

Each test prints a single ``CRITERION n: PASS`` line (visible with ``-s``);
the per-test PASSED/FAILED status in ``pytest -v`` output is the official
pass/fail record.  Tolerances are stated inline next to each assertion.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from gradcheck import check_gradients, max_rel_err
from oracles import ap_scalar, assign_scalar

from tinydet.anchors import pyramid_anchors
from tinydet.balanced_loss import (
    DCLossParams,
    alpha,
    convexity_region,
    dcloss_grad,
    dcloss_value,
    verify_theorem1,
)
from tinydet.context import build_cem_params, cem_forward
from tinydet.detector import (
    DetectorConfig,
    DetectorModel,
    assign_image,
    build_head_params,
    head_forward,
)
from tinydet.evaluation import SIZE_BUCKETS, average_precision
from tinydet.experiments import audit_positive_samples, run_variants
from tinydet.gating import build_fbsm_params, fbsm_forward, fuse_gates, gate
from tinydet.pyramid import (
    BackboneConfig,
    backbone_forward,
    build_backbone_params,
    build_fpn,
    build_fpn_params,
    efpn_bs_forward,
)
from tinydet.scenes import SceneSpec, generate_scene
from tinydet.tensor import (
    ParamStore,
    Tensor,
    adaptive_max_pool_1x1,
    bilinear_upsample,
    conv2d,
    max_pool_2x2,
    relu,
    sigmoid,
    tensor_sum,
)
from tinydet.training import TrainConfig, evaluate_model, train

from test_evaluation import random_case

rng = np.random.default_rng(2026)


def f64(*shape, grad=True, margin=0.0):
    """Random float64 tensor; margin pushes entries away from relu/pool kinks."""
    x = rng.standard_normal(shape)
    if margin:
        x = np.sign(x) * (np.abs(x) + margin)
    return Tensor(x, requires_grad=grad)


# ---------------------------------------------------------------------------
# 1. randomized gradient suite over every differentiable operation


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    cases = 0

    for _ in range(20):  # conv2d: stride 1 and 2, with bias
        x = f64(2, 6, 6)
        w = f64(3, 2, 3, 3)
        b = f64(3)
        s = int(rng.integers(1, 3))
        check_gradients(lambda: tensor_sum(conv2d(x, w, b, stride=s)), [x, w, b])
        cases += 1

    for _ in range(10):  # relu (inputs kept away from the kink) and sigmoid
        x = f64(3, 5, 5, margin=0.05)
        check_gradients(lambda: tensor_sum(relu(x)), [x])
        y = f64(3, 5, 5)
        check_gradients(lambda: tensor_sum(sigmoid(y)), [y])
        cases += 2

    for _ in range(10):  # pooling (continuous inputs: max is locally smooth)
        x = f64(2, 6, 6)
        check_gradients(lambda: tensor_sum(max_pool_2x2(x)), [x])
        y = f64(2, 5, 5)
        check_gradients(lambda: tensor_sum(adaptive_max_pool_1x1(y)), [y])
        cases += 2

    for _ in range(10):  # bilinear upsample
        x = f64(2, 3, 4)
        check_gradients(lambda: tensor_sum(bilinear_upsample(x, (6, 8))), [x])
        cases += 1

    for _ in range(10):  # context module
        ph, pl = f64(3, 4, 4), f64(2, 4, 4)
        store = ParamStore(saved={"cem.proj.w": f64(2, 3, 1, 1).data, "cem.proj.b": f64(2).data})
        build_cem_params(store, 3, 2)
        check_gradients(lambda: tensor_sum(cem_forward(ph, pl, store)),
                        [ph, pl] + store.tensors())
        cases += 1

    for _ in range(10):  # gating module (full dual-gate + fusion + refine)
        store = ParamStore(seed=int(rng.integers(1 << 30)))
        build_fbsm_params(store, 3, 2)
        for t in store.tensors():
            t.data = rng.standard_normal(t.data.shape) * 0.5
        ph, ce = f64(3, 4, 4), f64(2, 4, 4)
        check_gradients(lambda: tensor_sum(fbsm_forward(ph, ce, store)),
                        [ph, ce] + list(store.tensors()))
        cases += 1

    for _ in range(5):  # detection head (trunk + cls + reg convs)
        store = ParamStore(seed=int(rng.integers(1 << 30)))
        build_head_params(store, 3, 2, trunk_channels=4)
        for t in store.tensors():
            t.data = rng.standard_normal(t.data.shape) * 0.5

        feat = f64(3, 5, 5)

        from tinydet.tensor import add

        def build():
            cls_out, reg_out = head_forward({"P2": feat}, store, ("P2",))
            return add(tensor_sum(cls_out), tensor_sum(reg_out))

        check_gradients(build, [feat] + list(store.tensors()))
        cases += 1

    # scalar loss derivatives d/deps, d/dk, d/ddelta: closed form vs central
    # differences of the loss value, rel err < 1e-6
    worst = 0.0
    for _ in range(100):
        k = float(rng.uniform(2.0, 20.0))
        delta = float(rng.uniform(0.05, 0.5))
        eps = float(10.0 ** rng.uniform(-3, 1))
        params = DCLossParams(k=k, delta=delta)
        g_eps, g_k, g_delta = dcloss_grad(eps, params)
        h = 1e-5
        fd_eps = (dcloss_value(eps + h, 0.0, params)
                  - dcloss_value(eps - h, 0.0, params)) / (2 * h)
        fd_k = (dcloss_value(eps, 0.0, DCLossParams(k=k + h, delta=delta))
                - dcloss_value(eps, 0.0, DCLossParams(k=k - h, delta=delta))) / (2 * h)
        fd_d = (dcloss_value(eps, 0.0, DCLossParams(k=k, delta=delta + h))
                - dcloss_value(eps, 0.0, DCLossParams(k=k, delta=delta - h))) / (2 * h)
        worst = max(worst,
                    max_rel_err(g_eps, fd_eps, floor=1e-3),
                    max_rel_err(g_k, fd_k, floor=1e-3),
                    max_rel_err(g_delta, fd_d, floor=1e-3))
        cases += 1
    assert worst < 1e-6, f"scalar loss derivative mismatch: {worst}"

    elapsed = time.perf_counter() - t0
    assert cases >= 100
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s (limit 120s)"
    print(f"\nCRITERION 1: PASS — {cases} randomized gradient cases in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. analytic loss values


def test_criterion_2_loss_analytic_values():
    params = DCLossParams(k=10.0, delta=0.15)
    assert alpha(params.delta, params) == pytest.approx(0.5, abs=1e-12)
    assert dcloss_value(0.0, 0.0, params) == pytest.approx(0.0, abs=1e-12)
    assert dcloss_value(0.15, 0.0, params) == pytest.approx(0.086250, abs=1e-9)
    g_small, _, _ = dcloss_grad(1e-6, params)
    sigma_15 = 1.0 / (1.0 + np.exp(-1.5))
    assert g_small == pytest.approx(sigma_15, abs=1e-4)  # 0.817574...
    g_large, _, _ = dcloss_grad(100.0, params)
    assert g_large == pytest.approx(200.0, rel=1e-3)
    print("\nCRITERION 2: PASS — analytic loss values match to stated tolerances")


# ---------------------------------------------------------------------------
# 3. gradient-phase verifier


def test_criterion_3_verifier():
    t0 = time.perf_counter()
    params = DCLossParams(k=10.0, delta=0.15)
    report = verify_theorem1(params)
    assert report.lipschitz_bound == pytest.approx(9.3238, abs=1e-3)
    assert any("10.8" in n for n in report.discrepancy_notes), \
        "the quoted slope-limit claim must be flagged"
    intervals = convexity_region(params)
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert lo == pytest.approx(0.356155, abs=1e-5)
    assert hi == np.inf

    # second-derivative sign scan vs an independent double-finite-difference
    # oracle: identical sign-change counts over the same scan range
    hi_scan = params.delta + 2.0 / params.k
    grid = np.linspace(1e-4, hi_scan, 801)
    h = 1e-5
    d2 = np.array([
        (dcloss_value(e + h, 0.0, params) - 2 * dcloss_value(e, 0.0, params)
         + dcloss_value(e - h, 0.0, params)) / h**2 for e in grid])
    oracle_changes = int(np.sum(np.sign(d2[1:]) != np.sign(d2[:-1])))
    assert len(report.inflection_locations) == oracle_changes
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nCRITERION 3: PASS — verifier values, flags, and {oracle_changes} "
          f"inflections confirmed in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. module contracts


def test_criterion_4_module_contracts():
    r = np.random.default_rng(7)
    # context module with zero projection is a bitwise identity on P_l
    ph = Tensor(r.standard_normal((4, 8, 8)))
    pl = Tensor(r.standard_normal((3, 8, 8)))
    zero = ParamStore(saved={"cem.proj.w": np.zeros((3, 4, 1, 1)), "cem.proj.b": np.zeros(3)})
    build_cem_params(zero, 4, 3)
    out = cem_forward(ph, pl, zero)
    assert out.data.tobytes() == pl.data.tobytes()

    # gating mask entries strictly inside (0, 1) for random parameters
    store = ParamStore(seed=11)
    build_fbsm_params(store, 4, 3)
    for t in store.tensors():
        t.data = r.standard_normal(t.data.shape).astype(np.float32)
    ph4 = Tensor(r.standard_normal((4, 8, 8)).astype(np.float32))
    ce = Tensor(r.standard_normal((3, 8, 8)).astype(np.float32))
    m_high = gate(ph4, store, "psi_h")
    m_low = gate(ce, store, "psi_l")
    mask = fuse_gates(m_high, m_low, store)
    assert np.all(mask.data > 0.0) and np.all(mask.data < 1.0)

    # gating module with all-zero parameters outputs exactly zero
    store0 = ParamStore(seed=12)
    build_fbsm_params(store0, 4, 3)
    for t in store0.tensors():
        t.data = np.zeros_like(t.data)
    out0 = fbsm_forward(ph4, ce, store0)
    assert not out0.data.any()

    # full pyramid: P3..P6 untouched, and a loss on the enhanced P2 sends
    # gradient through the P5 lateral conv (the top-down context path)
    cfg = BackboneConfig()
    store, img = ParamStore(seed=3), Tensor(r.standard_normal((3, 128, 128)).astype(np.float32))
    build_backbone_params(store, cfg)
    build_fpn_params(store, cfg)
    c = cfg.pyramid_channels
    build_cem_params(store, c, c)
    build_fbsm_params(store, c, c)
    pyr = build_fpn(backbone_forward(img, store, cfg), store, cfg)
    enhanced = efpn_bs_forward(pyr, store)
    for name in ("P3", "P4", "P5", "P6"):
        assert enhanced[name].data.tobytes() == pyr[name].data.tobytes()
    tensor_sum(enhanced["P2"]).backward()
    lat5 = store["fpn.lateral5.w"]
    assert lat5.grad is not None and np.abs(lat5.grad).max() > 0
    print("\nCRITERION 4: PASS — module contracts hold")


# ---------------------------------------------------------------------------
# 5. anchor-starvation audit on a tiny-only dataset


def test_criterion_5_level_stats_audit(tmp_path):
    t0 = time.perf_counter()
    spec = SceneSpec(seed=5, side_min=4.0, side_max=16.0, side_scale=2.5)
    scenes = [generate_scene(spec, i) for i in range(500)]
    det_cfg = DetectorConfig()
    stats = audit_positive_samples(scenes, det_cfg, str(tmp_path))
    by_level = {s["level"]: s["positives"] for s in stats}
    total = sum(by_level.values())
    assert by_level["P5"] == 0 and by_level["P6"] == 0
    assert by_level["P2"] / total >= 0.90

    # the brute-force assignment oracle agrees, scene by scene, on a sampled subset
    anchors, _ = pyramid_anchors((128, 128), det_cfg.base_anchor)
    for s in scenes[:25]:
        want = assign_scalar(anchors, [b.as_array() for b, _ in s.gts], 0.5, 0.4)
        np.testing.assert_array_equal(assign_image(s.gts, (128, 128), det_cfg).labels, want)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"audit took {elapsed:.1f}s (limit 60s)"
    print(f"\nCRITERION 5: PASS — P2 share {by_level['P2'] / total:.3f}, "
          f"P5/P6 positives 0, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. AP oracle equivalence


def test_criterion_6_ap_oracle():
    checked = 0
    for seed in range(100, 115):
        dets, gts = random_case(seed)
        for cls in (0, 1):
            for thr in (0.5, 0.75):
                for bucket in (None, SIZE_BUCKETS["vt"], SIZE_BUCKETS["t"]):
                    want = ap_scalar(dets, gts, cls, thr, bucket)
                    got = average_precision(dets, gts, cls, thr, bucket)
                    if want is None:
                        assert got is None
                    else:
                        assert got == pytest.approx(want, abs=1e-9)
                    checked += 1
    assert checked >= 50
    print(f"\nCRITERION 6: PASS — {checked} randomized AP instances agree to 1e-9")


# ---------------------------------------------------------------------------
# 7. desk-scale training gate


def _store_bytes(store):
    return b"".join(t.data.tobytes() for t in store.tensors())


def test_criterion_7_training_gate():
    t0 = time.perf_counter()
    train_scenes = [generate_scene(SceneSpec(seed=0), i) for i in range(200)]
    val_scenes = [generate_scene(SceneSpec(seed=1), i) for i in range(50)]

    results = {}
    for loss_name in ("smooth_l1", "dcloss"):
        res = train(train_scenes, DetectorConfig(),
                    TrainConfig(seed=0, reg_loss=loss_name))
        metrics = evaluate_model(res.model, val_scenes)
        e1 = res.loss_curve[0]["total"]
        e12 = res.loss_curve[-1]["total"]
        assert e12 < 0.5 * e1, f"{loss_name}: epoch-12 loss {e12} >= half of {e1}"
        assert metrics.ap50 >= 0.5, f"{loss_name}: val AP@0.5 {metrics.ap50} < 0.5"
        results[loss_name] = (res, metrics)

    # fixed-seed rerun is bitwise identical (loss curve and every parameter)
    rerun = train(train_scenes, DetectorConfig(), TrainConfig(seed=0))
    first = results["smooth_l1"][0]
    assert rerun.loss_curve == first.loss_curve
    assert _store_bytes(rerun.model.store) == _store_bytes(first.model.store)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0, f"training gate took {elapsed:.0f}s (limit 1800s)"
    ap_s = results["smooth_l1"][1].ap50
    ap_d = results["dcloss"][1].ap50
    print(f"\nCRITERION 7: PASS — AP@0.5 smooth_l1 {ap_s:.3f}, dcloss {ap_d:.3f}, "
          f"loss halving and bitwise rerun OK, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. experiment determinism


def _read(path):
    with open(path) as f:
        return f.read()


def test_criterion_8_experiment_determinism(tmp_path):
    # Crowded scenes and 12 steps at a higher rate, so that every run scores
    # AP50 > 0 and the reports can tell models apart.
    spec = SceneSpec(seed=9, objects_min=12, objects_max=20, side_min=8.0)
    scenes = [generate_scene(spec, i) for i in range(6)]
    p2p3 = DetectorConfig(levels=("P2", "P3"))
    train_cfg = TrainConfig(epochs=2, batch_size=2, learning_rate=0.02)
    variants = [("P2+P3", p2p3, train_cfg), ("P2-P6", DetectorConfig(), train_cfg)] + [
        (f"d{d}", p2p3, replace(train_cfg, reg_loss="dcloss", dc_delta=d, dc_learnable=False))
        for d in (0.1, 0.3)]

    rows, summary = run_variants(scenes, scenes[:2], variants, str(tmp_path / "r1"), n_seeds=2)
    assert [(r["variant"], r["seed"]) for r in rows] == \
        [(name, seed) for name, _, _ in variants for seed in (0, 1)]
    metrics = ("ap", "ap50", "ap75", "ap_vt", "ap_t")
    assert all(r["ap50"] > 0 for r in rows), rows
    ap50 = {(r["variant"], r["seed"]): r["ap50"] for r in rows}
    assert all(ap50["d0.1", seed] != ap50["d0.3", seed] for seed in (0, 1)), ap50
    for entry in summary:
        assert entry["n_seeds"] == 2
        for metric in metrics:
            m = entry[metric]
            assert m["ci95"][0] <= m["mean"] <= m["ci95"][1]
    run_variants(scenes, scenes[:2], variants, str(tmp_path / "r2"), n_seeds=2)
    for name in ("ablation.json", "ablation.csv"):
        assert _read(tmp_path / "r1" / "reports" / name) == \
            _read(tmp_path / "r2" / "reports" / name)
    print("\nCRITERION 8: PASS — level and loss-threshold variants score AP > 0, "
          "differ, and rerun bitwise identical")
