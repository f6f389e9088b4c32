"""Adaptive L1/L2 regression loss with a logistic transition.

The loss on an absolute error eps is

    L(eps) = a(eps) * eps^2 + (1 - a(eps)) * eps,
    a(eps) = sigma(k * (eps - delta)),

with slope k > 0 and threshold delta > 0.  When ``DCLossParams.learnable`` is
set, the loss node accumulates dL/dk and dL/ddelta into the params, and
``DCLossParams.step`` applies one momentum step to k and delta per batch.

All scalar math here is float64.  Besides the loss itself the module provides
closed-form gradients in eps, k and delta, the slope bound implied by a
2-Lipschitz gradient, the closed-form convexity intervals, and a verifier
that finds the inflections exactly, from the closed-form sign of the second
derivative, and records any mismatch with the stated phase behavior.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .tensor import Tensor, _make, sigmoid_array

__all__ = [
    "DCLossParams",
    "TheoremReport",
    "alpha",
    "dcloss_value",
    "dcloss_grad",
    "lipschitz_bound",
    "convexity_region",
    "verify_theorem1",
    "smooth_l1",
    "dcloss_term",
    "smooth_l1_term",
]


@dataclass
class DCLossParams:
    """Transition slope k and threshold delta, optionally learnable: the loss
    accumulates into ``grad_k``/``grad_delta`` and ``step`` applies them."""

    k: float
    delta: float
    learnable: bool = False
    grad_k: float = 0.0
    grad_delta: float = 0.0
    velocity: tuple[float, float] = (0.0, 0.0)

    MIN_VALUE = 1e-3

    def __post_init__(self):
        # the bounds keep k^2, 2/k^2, delta^2 and the verifier's other terms finite
        for name in ("k", "delta"):
            value = getattr(self, name)
            if not 1e-9 <= value <= 1e9:
                raise ValueError(f"k and delta must be finite and positive, in [1e-9, 1e9]; "
                                 f"{name}={value} is not")

    def step(self, lr: float, momentum: float):
        """When learnable, one momentum step on (k, delta): v = m*v + g and
        p = max(p - lr*v, MIN_VALUE).  Then the accumulated gradients reset."""
        if self.learnable:
            self.velocity = (momentum * self.velocity[0] + self.grad_k,
                             momentum * self.velocity[1] + self.grad_delta)
            self.k = max(self.k - lr * self.velocity[0], self.MIN_VALUE)
            self.delta = max(self.delta - lr * self.velocity[1], self.MIN_VALUE)
        self.grad_k = self.grad_delta = 0.0


def _sigma(x):
    out = sigmoid_array(np.asarray(x, dtype=np.float64))
    return float(out) if out.ndim == 0 else out


def alpha(eps, params: DCLossParams):
    """Logistic transition weight a(eps) = sigma(k (eps - delta)), in (0,1)."""
    return _sigma(params.k * (np.asarray(eps, dtype=np.float64) - params.delta))


def dcloss_value(pred, target, params: DCLossParams):
    """Loss for a prediction/target pair (or arrays; mean over all entries)."""
    eps = np.abs(np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64))
    a = alpha(eps, params)
    return float(np.mean(a * (eps * eps) + (1.0 - a) * eps))


def dcloss_grad(eps, params: DCLossParams):
    """Closed-form (dL/deps, dL/dk, dL/ddelta) at error eps (scalar or array).

    With a' = k a (1-a) and D = eps^2 - eps:
      dL/deps  = 2 eps a + (1-a) + a' D
      dL/dk    = (eps - delta) a (1-a) D
      dL/ddelta= -k a (1-a) D
    """
    eps = np.asarray(eps, dtype=np.float64)
    a = alpha(eps, params)
    a1 = a * (1.0 - a)
    diff = eps * eps - eps
    d_eps = a * (2.0 * eps) + (1.0 - a) + params.k * a1 * diff
    d_k = (eps - params.delta) * a1 * diff
    d_delta = -params.k * a1 * diff
    if eps.ndim == 0:
        return float(d_eps), float(d_k), float(d_delta)
    return d_eps, d_k, d_delta


def _curvature_factor(eps, params: DCLossParams):
    """B(eps), where d2L/deps2 = a B and a = sigma(k (eps - delta)) > 0:
    B = 2 + k b (4 eps - 2) + k^2 b (b - a) (eps^2 - eps), b = 1 - a.  It has
    the curvature's sign, also where a underflows.  b is sigma(-k (eps - delta)),
    not 1 - a, so that B keeps full precision where a is near 1."""
    eps = np.asarray(eps, dtype=np.float64)
    x = params.k * (eps - params.delta)
    a, b = _sigma(x), _sigma(-x)
    return 2.0 + params.k * b * (4.0 * eps - 2.0) + params.k**2 * b * (b - a) * (eps * eps - eps)


def lipschitz_bound(delta: float) -> float:
    """Largest slope k compatible with a 2-Lipschitz gradient: (1/d) sqrt(2/(d^2+1))."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return (1.0 / delta) * math.sqrt(2.0 / (delta * delta + 1.0))


def convexity_region(params: DCLossParams):
    """Closed-form convexity intervals: [(delta+r, inf)], r = sqrt(delta^2 + 2/k^2).
    The other candidate, (0, delta-r), is always empty: r > delta for every
    k, delta > 0."""
    r = math.sqrt(params.delta**2 + 2.0 / params.k**2)
    return [(params.delta + r, math.inf)]


@dataclass
class TheoremReport:
    """Numeric audit of the loss's gradient-phase behavior."""

    small_eps_gradient: float = 0.0
    large_eps_gradient_ratio: float = 0.0
    inflection_locations: list = field(default_factory=list)
    lipschitz_bound: float = 0.0
    convexity_intervals: list = field(default_factory=list)
    observed_convexity_intervals: list = field(default_factory=list)
    discrepancy_notes: list = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-ready payload; infinite values (the open interval ends) become null."""
        def enc(v):
            if isinstance(v, (list, tuple)):
                return [enc(x) for x in v]
            return None if isinstance(v, float) and math.isinf(v) else v

        return {key: enc(v) for key, v in asdict(self).items()}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


# numeric claim often quoted for this loss at delta = 0.15; the verifier
# re-derives the bound from the formula and records any disagreement
_QUOTED_SLOPE_LIMIT = {"delta": 0.15, "claimed": 10.8}


def verify_theorem1(params: DCLossParams) -> TheoremReport:
    """Audit the stated gradient-phase properties against the implemented loss.

    Measures the small/large error gradient limits, fills in the slope bound
    and convexity intervals, and finds the roots of the curvature's sign
    factor B: those up to delta + 2/k are the inflections, and the runs
    between them where B > 0 the observed convex regions.  Records every
    mismatch between the measured behavior and the usual phase narrative
    ("quadratic for small errors, linear for large ones") or the closed-form
    convexity interval.  Discrepancies are reported, never silently patched.
    """
    small_eps, large_eps = 1e-6, 1e3
    report = TheoremReport()
    notes = report.discrepancy_notes

    g_small, _, _ = dcloss_grad(small_eps, params)
    report.small_eps_gradient = float(g_small)
    g_large, _, _ = dcloss_grad(large_eps, params)
    report.large_eps_gradient_ratio = float(g_large / (2.0 * large_eps))

    expect_small = _sigma(params.k * params.delta)

    # measured small-eps slope: a bounded constant, not ~2*eps
    if abs(g_small - expect_small) > 1e-3 * max(1.0, abs(expect_small)):
        notes.append(
            f"small-error gradient {g_small:.6f} deviates from the derived constant "
            f"{expect_small:.6f}"
        )
    if abs(g_small) > 10.0 * small_eps:
        notes.append(
            "stated small-error phase is quadratic (gradient ~ 2*eps -> 0); measured "
            f"gradient tends to the constant {g_small:.6f}"
        )
    if abs(report.large_eps_gradient_ratio - 1.0) < 1e-3:
        notes.append(
            "stated large-error phase is linear (gradient -> 1); measured gradient "
            f"grows as 2*eps (ratio to 2*eps = {report.large_eps_gradient_ratio:.6f})"
        )

    report.lipschitz_bound = lipschitz_bound(params.delta)
    q = _QUOTED_SLOPE_LIMIT
    if abs(params.delta - q["delta"]) < 1e-9 and abs(report.lipschitz_bound - q["claimed"]) > 1e-3:
        notes.append(
            f"quoted slope limit k <= {q['claimed']} for delta = {q['delta']} does not "
            f"follow from the bound formula, which gives {report.lipschitz_bound:.4f}"
        )
    if params.k > report.lipschitz_bound:
        notes.append(
            f"k = {params.k} exceeds the 2-Lipschitz slope bound {report.lipschitz_bound:.4f} "
            f"for delta = {params.delta}"
        )

    report.convexity_intervals = convexity_region(params)
    [(lo, _)] = report.convexity_intervals

    # B's roots are the inflections.  The grid spans [0, max(1, 3 lo)], past
    # delta + 2/k since lo > delta + sqrt(2)/k, plus steps of 1/(8k) within 64/k
    # of delta, where two roots can lie closer than the even steps.  Brackets
    # are bisected at once to the last float before each sign change of B.
    hi = max(1.0, 3.0 * lo)
    near = np.clip(params.delta + np.linspace(-64.0, 64.0, 1025) / params.k, 0.0, hi)
    grid = np.union1d(np.linspace(0.0, hi, 4000), near)
    convex = _curvature_factor(grid, params) > 0
    i = np.flatnonzero(convex[1:] != convex[:-1])
    left, right, side = grid[i], grid[i + 1], convex[i]
    while True:
        mid = 0.5 * (left + right)
        if not np.any((left < mid) & (mid < right)):
            break
        same = (_curvature_factor(mid, params) > 0) == side
        left, right = np.where(same, mid, left), np.where(same, right, mid)
    roots = left.tolist()
    report.inflection_locations = [r for r in roots if r <= params.delta + 2.0 / params.k]

    # the observed convex intervals run between the roots where B > 0
    ends = [0.0] * bool(convex[0]) + roots + [math.inf] * bool(convex[-1])
    observed = report.observed_convexity_intervals = list(zip(ends[::2], ends[1::2]))
    if observed != report.convexity_intervals:
        shown = ", ".join(f"({a:.6f}, {b:.6f})" for a, b in observed)
        notes.append(f"the loss is convex on {shown}, the closed form says ({lo:.6f}, inf)")

    return report


def smooth_l1(pred, target) -> float:
    """Piecewise quadratic/linear baseline loss with its knee at 1."""
    eps = np.abs(np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64))
    val = np.where(eps < 1.0, 0.5 * eps * eps, eps - 0.5)
    return float(np.mean(val))


# ---------------------------------------------------------------------------
# autodiff bridges: scalar loss nodes over prediction tensors


def dcloss_term(pred: Tensor, target, params: DCLossParams) -> Tensor:
    """Mean adaptive loss over a prediction tensor vs. a constant target array.

    Backpropagates dL/dpred into the graph; when ``params.learnable`` is set,
    also accumulates mean dL/dk and dL/ddelta into the params' grad fields.
    """
    t = np.asarray(target, dtype=np.float64)
    if t.shape != pred.data.shape:
        raise ValueError(f"dcloss_term: target shape {t.shape} != pred {pred.data.shape}")
    val = np.asarray(dcloss_value(pred.data, t, params)).astype(pred.data.dtype)
    diff = pred.data.astype(np.float64) - t
    eps = np.abs(diff)
    n = max(eps.size, 1)

    def backward(g):
        d_eps, d_k, d_delta = dcloss_grad(eps, params)
        sign = np.sign(diff)
        pred._accumulate(g * (np.asarray(d_eps) * sign / n))
        if params.learnable:
            params.grad_k += float(g) * float(np.sum(d_k)) / n
            params.grad_delta += float(g) * float(np.sum(d_delta)) / n

    return _make(val, (pred,), backward)


def smooth_l1_term(pred: Tensor, target) -> Tensor:
    """Mean smooth-L1 over a prediction tensor vs. a constant target array."""
    t = np.asarray(target, dtype=np.float64)
    if t.shape != pred.data.shape:
        raise ValueError(f"smooth_l1_term: target shape {t.shape} != pred {pred.data.shape}")
    out = np.asarray(smooth_l1(pred.data, t)).astype(pred.data.dtype)
    diff = pred.data.astype(np.float64) - t
    eps = np.abs(diff)
    n = max(eps.size, 1)

    def backward(g):
        d = np.where(eps < 1.0, eps, 1.0) * np.sign(diff)
        pred._accumulate(g * (d / n))

    return _make(out, (pred,), backward)
