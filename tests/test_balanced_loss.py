import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinydet.balanced_loss import (
    DCLossParams,
    _curvature_factor,
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

from oracles import second_derivative_fd

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
    # the sign factor B of the second derivative is evaluated once on the
    # whole grid; every later call bisects the one bracket
    import tinydet.balanced_loss as bl
    calls = []
    scan = bl._curvature_factor
    monkeypatch.setattr(bl, "_curvature_factor", lambda eps, p: calls.append(eps) or scan(eps, p))
    verify_theorem1(P)
    grid = calls[0]
    assert grid[0] == 0.0 and grid.size >= 4000 and (np.diff(grid) > 0).all()
    assert all(c.shape == (1,) for c in calls[1:])


def test_verify_theorem1_default_scan_is_pinned():
    # B's one root at k = 10, delta = 0.15, bisected to the last float before
    # its sign change: the one inflection, and where the convex region starts
    rep = verify_theorem1(P)
    assert rep.observed_convexity_intervals == [(0.21655744588338433, math.inf)]
    assert rep.inflection_locations == [0.21655744588338433]
    assert ("the loss is convex on (0.216557, inf), the closed form says (0.356155, inf)"
            in rep.discrepancy_notes)


@pytest.mark.parametrize("k, d, inflections, observed", [
    (40.0, 1.5, [0.951248, 1.506823], [(0.951248, 1.506823), (1.666886, math.inf)]),
    (100.0, 3.0, [0.980200, 3.000335], [(0.980200, 3.000335), (3.103774, math.inf)]),
    (10.0, 3.0, [0.819615, 3.034749], [(0.819615, 3.034749), (3.599800, math.inf)]),
    (1e-8, 0.15, [], [(0.0, math.inf)]),  # convex on all of (0, inf)
    # the two roots above delta lie 0.027 apart, inside one step of the even grid
    (1000.0, 1000.0, [0.998002, 1000.0], [(0.998002, 1000.0), (1000.026937, math.inf)]),
])
def test_verify_theorem1_exact_where_the_fd_scan_failed(k, d, inflections, observed):
    # the finite-difference scan reported six inflections at (40, 1.5), two
    # of them bounding zero-width intervals, missed 0.980 at (100, 3), and
    # started the k = 1e-8 convex region at its first grid point
    rep = verify_theorem1(DCLossParams(k=k, delta=d))
    assert rep.inflection_locations == pytest.approx(inflections, abs=1e-6)
    assert len(rep.observed_convexity_intervals) == len(observed)
    for (a, b), (ea, eb) in zip(rep.observed_convexity_intervals, observed):
        assert a < b and a == pytest.approx(ea, abs=1e-6) and b == pytest.approx(eb, abs=1e-6)


@pytest.mark.parametrize("k, d", [(40.0, 1.5), (100.0, 3.0), (10.0, 3.0)])
def test_verify_theorem1_root_below_delta_solves_the_quadratic(k, d):
    # where k delta >= 20, a = sigma(k (eps - delta)) is tiny below delta, and B
    # is the quadratic Q = k^2 eps^2 + (4k - k^2) eps + 2 - 2k plus a dB/da;
    # that term moves the root by about a |dB/da| / Q' (3e-11 relative at
    # (40, 1.5), 1.3e-10 at (10, 3)), and not at all where a underflows
    rep = verify_theorem1(DCLossParams(k=k, delta=d))
    [root] = [r for r in rep.inflection_locations if r < d]
    b, c = 4 * k - k * k, 2 - 2 * k
    q = (-b + math.sqrt(b * b - 4 * k * k * c)) / (2 * k * k)
    shift = sigma(k * (q - d)) * (abs(k * (4 * q - 2)) + 3 * k * k * abs(q * q - q)) \
        / (2 * k * k * q + b)
    assert abs(root - q) <= 1e-12 * q + 2 * shift
    if (k, d) == (100.0, 3.0):
        assert shift < 1e-80


@pytest.mark.parametrize("k, d", [(10.0, 0.15), (5.0, 0.3), (20.0, 0.1), (40.0, 1.5),
                                  (100.0, 3.0), (10.0, 3.0)])
def test_curvature_factor_matches_the_fd_oracle(k, d):
    # L'' = a B against central differences of the gradient; where |L''| is
    # well above the difference's roundoff, B has its sign
    p = DCLossParams(k=k, delta=d)
    eps = np.linspace(1e-3, d + 2 / k + 1.0, 4001)
    fd = second_derivative_fd(eps, p)
    b = _curvature_factor(eps, p)
    np.testing.assert_allclose(alpha(eps, p) * b, fd, rtol=1e-5, atol=1e-6)
    sure = np.abs(fd) > 1e-6
    assert (np.sign(b[sure]) == np.sign(fd[sure])).all()
    # and every reported root is a sign change of B
    for r in verify_theorem1(p).inflection_locations:
        assert _curvature_factor(r, p) * _curvature_factor(np.nextafter(r, math.inf), p) <= 0


@settings(max_examples=200, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_verify_theorem1_report_is_consistent(log_k, log_delta):
    p = DCLossParams(k=10.0 ** log_k, delta=10.0 ** log_delta)
    rep = verify_theorem1(p)

    def curvature(x):
        return _curvature_factor(x, p)

    scalars = [rep.small_eps_gradient, rep.large_eps_gradient_ratio, rep.lipschitz_bound]
    assert all(math.isfinite(v) for v in scalars + rep.inflection_locations)
    for intervals in (rep.convexity_intervals, rep.observed_convexity_intervals):
        ends = [x for interval in intervals for x in interval]
        assert all(math.isfinite(x) for x in ends[:-1]) and math.isinf(ends[-1])
        assert ends == sorted(ends) and len(set(ends)) == len(ends)  # disjoint, rising
    # each observed interval runs between consecutive roots of B: B changes
    # sign at either end and is positive just inside it.  The inflections are
    # those roots up to delta + 2/k
    for a, b in rep.observed_convexity_intervals:
        assert a == 0.0 or curvature(a) <= 0 < curvature(np.nextafter(a, math.inf))
        assert b == math.inf or curvature(np.nextafter(b, math.inf)) <= 0 < curvature(b)
    ends = [x for interval in rep.observed_convexity_intervals for x in interval]
    assert rep.inflection_locations == [x for x in ends if 0 < x <= p.delta + 2 / p.k]


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
    # each of these made the verifier raise OverflowError or ZeroDivisionError;
    # the error names the field out of [1e-9, 1e9]
    for k, delta, field in [(1e300, 0.15, "k"), (1e-300, 0.15, "k"), (10.0, 1e300, "delta"),
                            (1e200, 1e-200, "k"), (10.0, 1e-200, "delta")]:
        with pytest.raises(ValueError, match=rf"in \[1e-9, 1e9\]; {field}="):
            DCLossParams(k=k, delta=delta)
    for k, delta in [(1e-9, 1e9), (1e9, 1e-9), (1e-8, 0.15)]:
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
