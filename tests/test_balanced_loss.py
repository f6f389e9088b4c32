import math

import numpy as np
import pytest

from tinydet.balanced_loss import (
    DCLossParams,
    alpha,
    convexity_region,
    dcloss_grad,
    dcloss_term,
    dcloss_value,
    lipschitz_bound,
    smooth_l1,
    smooth_l1_term,
    verify_theorem1,
)
from tinydet.tensor import Tensor

rng = np.random.default_rng(0)

P = DCLossParams(k=10.0, delta=0.15)


def sigma(x):
    return 1.0 / (1.0 + math.exp(-x))


def loss_at(eps, params=P):
    return dcloss_value(np.asarray(eps, dtype=float), 0.0 * np.asarray(eps, dtype=float), params)


# ---------------------------------------------------------------------------
# mixing weight and loss value


def test_alpha_at_threshold_is_half():
    assert alpha(np.array([0.15]), P)[0] == pytest.approx(0.5, abs=1e-15)


def test_alpha_at_zero_matches_logistic():
    assert alpha(np.array([0.0]), P)[0] == pytest.approx(sigma(-1.5), abs=1e-12)


def test_loss_value_at_threshold_frozen():
    # 0.5*0.15^2 + 0.5*0.15 = 0.08625 exactly
    assert loss_at(np.array([0.15])) == pytest.approx(0.086250, abs=1e-9)


def test_loss_uses_absolute_error():
    assert dcloss_value(np.array([0.3]), np.array([0.7]), P) == pytest.approx(
        loss_at(np.array([0.4])), rel=1e-15
    )


def test_loss_limits():
    # tiny errors: blend of eps^2 and eps at a ~ sigma(-k*delta)
    e = np.array([1e-6])
    a = alpha(e, P)[0]
    assert loss_at(e) == pytest.approx(a * e[0] ** 2 + (1 - a) * e[0], rel=1e-12)
    # huge errors: alpha ~ 1, loss ~ eps^2
    assert loss_at(np.array([100.0])) == pytest.approx(1e4, rel=1e-6)


def test_loss_is_mean_over_entries():
    errs = rng.uniform(0, 2, 64)
    per = np.array([loss_at(np.array([e])) for e in errs])
    assert loss_at(errs) == pytest.approx(per.mean(), rel=1e-12)


# ---------------------------------------------------------------------------
# closed-form gradient


def test_gradient_small_error_limit_frozen():
    g, _, _ = dcloss_grad(1e-9, P)
    assert g == pytest.approx(sigma(1.5), abs=1e-4)  # 0.817574...


def test_gradient_large_error_limit_frozen():
    g, _, _ = dcloss_grad(100.0, P)
    assert g == pytest.approx(200.0, rel=1e-3)


def test_gradient_matches_finite_differences_randomized():
    h = 1e-6
    for trial in range(100):
        r = np.random.default_rng(trial)
        k = r.uniform(1.0, 30.0)
        d = r.uniform(0.02, 0.8)
        p = DCLossParams(k=k, delta=d)
        eps = r.uniform(4 * h, 2.0)
        g_e, g_k, g_d = dcloss_grad(eps, p)
        fd_e = (loss_at(np.array([eps + h]), p) - loss_at(np.array([eps - h]), p)) / (2 * h)
        fd_k = (
            loss_at(np.array([eps]), DCLossParams(k=k + h, delta=d))
            - loss_at(np.array([eps]), DCLossParams(k=k - h, delta=d))
        ) / (2 * h)
        fd_d = (
            loss_at(np.array([eps]), DCLossParams(k=k, delta=d + h))
            - loss_at(np.array([eps]), DCLossParams(k=k, delta=d - h))
        ) / (2 * h)
        assert g_e == pytest.approx(fd_e, rel=1e-6, abs=1e-6)
        assert g_k == pytest.approx(fd_k, rel=1e-4, abs=1e-7)
        assert g_d == pytest.approx(fd_d, rel=1e-4, abs=1e-7)


def test_delta_gradient_is_positive_below_unit_error():
    # dL/ddelta = k a (1-a) eps (1-eps) > 0 on 0 < eps < 1, so gradient
    # descent lowers delta at every step: a learnable delta collapses to the
    # clamp by construction
    eps = np.linspace(0.0, 1.0, 1001)[1:-1]
    for k, d in [(1.0, 0.02), (5.0, 0.3), (10.0, 0.15), (20.0, 0.1), (30.0, 0.8)]:
        _, _, g_d = dcloss_grad(eps, DCLossParams(k=k, delta=d))
        assert (g_d > 0).all(), (k, d)


# ---------------------------------------------------------------------------
# analysis helpers


def test_lipschitz_bound_frozen():
    assert lipschitz_bound(0.15) == pytest.approx(9.32378, abs=1e-4)
    for d in (0.05, 0.1, 0.3, 0.5):
        assert lipschitz_bound(d) == pytest.approx((1 / d) * math.sqrt(2 / (d * d + 1)), rel=1e-12)
    with pytest.raises(ValueError):
        lipschitz_bound(0.0)


def test_convexity_region_frozen():
    intervals = convexity_region(P)
    assert len(intervals) == 1  # (0, delta - r) is empty since r > delta
    lo, hi = intervals[0]
    assert lo == pytest.approx(0.15 + math.sqrt(0.15**2 + 2 / 100), abs=1e-7)
    assert lo == pytest.approx(0.3561553, abs=1e-6)
    assert math.isinf(hi)


def test_verify_theorem1_report():
    rep = verify_theorem1(P)
    assert rep.small_eps_gradient == pytest.approx(sigma(1.5), abs=1e-4)
    assert rep.large_eps_gradient_ratio == pytest.approx(1.0, rel=1e-3)
    assert rep.lipschitz_bound == pytest.approx(9.32378, abs=1e-4)
    lo, hi = rep.convexity_intervals[0]
    assert lo == pytest.approx(0.3561553, abs=1e-6) and math.isinf(hi)
    # the quoted slope cap of 10.8 disagrees with the bound formula; k=10
    # also exceeds the true bound 9.3238 -- both must be flagged
    assert any("10.8" in note for note in rep.discrepancy_notes)
    assert any("exceeds" in note for note in rep.discrepancy_notes)
    # the stated phase narrative (quadratic small, linear large) is reversed
    assert any("small-error phase" in note for note in rep.discrepancy_notes)
    assert any("large-error phase" in note for note in rep.discrepancy_notes)
    # the numerically observed convex region contains the closed-form interval
    olo, ohi = rep.observed_convexity_intervals[-1]
    assert olo <= lo + 1e-6 and math.isinf(ohi)
    assert not any("not confirmed" in n for n in rep.discrepancy_notes)
    j = rep.to_json()
    assert '"lipschitz_bound"' in j and "Infinity" not in j


def test_verify_theorem1_scans_the_second_derivative_once(monkeypatch):
    import tinydet.balanced_loss as bl
    calls = []
    scan = bl._second_derivative
    monkeypatch.setattr(bl, "_second_derivative", lambda eps, p: calls.append(eps) or scan(eps, p))
    verify_theorem1(P)
    assert len(calls) == 1 and calls[0].shape == (4000,)


def test_verify_theorem1_default_scan_is_pinned():
    # the 4000-point grid over (0, 3 lo] at k = 10, delta = 0.15: the observed
    # convex region starts one grid step after the one inflection
    rep = verify_theorem1(P)
    assert rep.observed_convexity_intervals == [(0.21663144983909713, math.inf)]
    assert rep.inflection_locations == [pytest.approx(0.2164978916, abs=1e-9)]


def test_verify_theorem1_inflection_count_matches_fd_scan():
    for k, d in [(10.0, 0.15), (5.0, 0.3), (20.0, 0.1)]:
        p = DCLossParams(k=k, delta=d)
        rep = verify_theorem1(p)
        xs = np.linspace(1e-4, d + 2 / k, 20001)
        g = dcloss_grad(xs, p)[0]
        g2 = np.gradient(g, xs)
        flips = int(np.sum(np.sign(g2[1:-1])[1:] * np.sign(g2[1:-1])[:-1] < 0))
        assert len(rep.inflection_locations) == flips
        # every inflection sits where the closed-form second derivative is ~0
        for x in rep.inflection_locations:
            i = int(np.searchsorted(xs, x))
            assert abs(g2[min(i, len(g2) - 1)]) < 0.05 * np.abs(g2).max()


def test_degenerate_small_k_is_half_blend():
    # as k -> 0 the gate saturates to 1/2 everywhere
    p = DCLossParams(k=1e-8, delta=0.15)
    assert loss_at(np.array([0.7]), p) == pytest.approx(0.5 * 0.49 + 0.5 * 0.7, rel=1e-6)


def test_params_validation_and_projection():
    for k, delta in [(-1.0, 0.15), (10.0, 0.0), (math.nan, 0.15), (10.0, math.inf),
                     (math.inf, 0.15), (10.0, math.nan)]:
        with pytest.raises(ValueError, match="k and delta must be finite and positive"):
            DCLossParams(k=k, delta=delta)
    # a step that would take k and delta below zero stops at the floor
    p = DCLossParams(k=10.0, delta=0.15, learnable=True)
    p.grad_k, p.grad_delta = 1e4, 1e4
    p.step(lr=1.0, momentum=0.9)
    assert p.k == p.delta == DCLossParams.MIN_VALUE


def _former_optimizer_update(p, velocity, lr, momentum):
    """The k/delta update that the weight optimizer used to apply: a float64
    velocity array, then a clamp at MIN_VALUE."""
    velocity = momentum * velocity + np.array([p["grad_k"], p["grad_delta"]])
    k = p["k"] - lr * velocity[0]
    delta = p["delta"] - lr * velocity[1]
    return max(k, DCLossParams.MIN_VALUE), max(delta, DCLossParams.MIN_VALUE), velocity


def test_step_matches_the_former_optimizer_update():
    r = np.random.default_rng(5)
    p = DCLossParams(k=10.0, delta=0.15, learnable=True)
    ref = {"k": 10.0, "delta": 0.15}
    velocity = np.zeros(2)
    clamped = False
    for i in range(12):
        lr = 0.08 if i < 8 else 0.008
        grads = r.normal(0.0, 0.05, 2) + [0.0, 0.1 * i]  # d/ddelta grows until the clamp
        ref["grad_k"], ref["grad_delta"] = float(grads[0]), float(grads[1])
        p.grad_k, p.grad_delta = ref["grad_k"], ref["grad_delta"]
        ref["k"], ref["delta"], velocity = _former_optimizer_update(ref, velocity, lr, 0.9)
        p.step(lr, 0.9)
        assert float(p.k).hex() == float(ref["k"]).hex()
        assert float(p.delta).hex() == float(ref["delta"]).hex()
        assert p.grad_k == p.grad_delta == 0.0
        clamped |= p.delta == DCLossParams.MIN_VALUE
    assert clamped and p.k > DCLossParams.MIN_VALUE


def test_step_not_learnable_only_resets_the_gradients():
    p = DCLossParams(k=10.0, delta=0.15)
    p.grad_k, p.grad_delta = 3.0, -4.0
    p.step(lr=0.1, momentum=0.9)
    assert (p.k, p.delta, p.velocity) == (10.0, 0.15, (0.0, 0.0))
    assert p.grad_k == p.grad_delta == 0.0


# ---------------------------------------------------------------------------
# smooth L1 and autodiff bridges


def test_smooth_l1_values():
    assert smooth_l1(np.array([0.5]), np.array([0.0])) == pytest.approx(0.125)
    assert smooth_l1(np.array([2.0]), np.array([0.0])) == pytest.approx(1.5)
    assert smooth_l1(np.array([-2.0]), np.array([0.0])) == pytest.approx(1.5)
    assert smooth_l1(np.array([0.5, 2.0]), np.zeros(2)) == pytest.approx((0.125 + 1.5) / 2)


def test_dcloss_term_gradient_matches_closed_form():
    p = DCLossParams(k=10.0, delta=0.15, learnable=True)
    pred = Tensor(np.array([0.3, 0.9, 0.05]), requires_grad=True)
    target = np.array([0.1, 0.2, 0.0])
    loss = dcloss_term(pred, target, p)
    assert float(loss.data) == pytest.approx(dcloss_value(pred.data, target, p), rel=1e-12)
    loss.backward()
    eps = np.abs(pred.data - target)
    g_e, g_k, g_d = dcloss_grad(eps, p)
    expected = g_e / eps.size * np.sign(pred.data - target)
    np.testing.assert_allclose(pred.grad, expected, rtol=1e-12)
    assert p.grad_k == pytest.approx(g_k.mean(), rel=1e-12)
    assert p.grad_delta == pytest.approx(g_d.mean(), rel=1e-12)


def test_dcloss_term_not_learnable_leaves_param_grads():
    p = DCLossParams(k=10.0, delta=0.15)
    pred = Tensor(np.array([0.3, 0.9]), requires_grad=True)
    dcloss_term(pred, np.zeros(2), p).backward()
    assert p.grad_k == 0.0 and p.grad_delta == 0.0


def test_smooth_l1_term_gradient():
    pred = Tensor(np.array([0.5, -2.0, 0.0]), requires_grad=True)
    target = np.zeros(3)
    loss = smooth_l1_term(pred, target)
    assert float(loss.data) == pytest.approx(smooth_l1(pred.data, target), rel=1e-6)
    loss.backward()
    np.testing.assert_allclose(pred.grad, np.array([0.5, -1.0, 0.0]) / 3, atol=1e-12)
