"""Central finite-difference gradient checking used across the test suite.

The checker rebuilds the scalar loss from scratch for every probe, so it is
independent of the reverse-mode tape it verifies.  Graphs under test should
be built in float64 for probe noise well below the tolerances.
"""

import numpy as np

from tinydet.tensor import Tensor, _make


def tensor_sum(x: Tensor) -> Tensor:
    """Scalar sum of ``x`` (accumulated in float64) on the tape: the reduction
    the gradient checks build their losses with."""
    out = np.asarray(x.data.sum(dtype=np.float64)).astype(x.data.dtype)

    def backward(g):
        x._accumulate(np.full_like(x.data, g))

    return _make(out, (x,), backward)


def fd_grads(build, tensors, h=1e-4):
    """Central-difference gradients of build() w.r.t. each tensor's entries."""
    grads = []
    for t in tensors:
        flat = t.data.reshape(-1)
        g = np.zeros(flat.size, dtype=np.float64)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(build().data)
            flat[i] = orig - h
            lm = float(build().data)
            flat[i] = orig
            g[i] = (lp - lm) / (2.0 * h)
        grads.append(g.reshape(t.data.shape))
    return grads


def max_rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def check_gradients(build, tensors, h=1e-4, tol=1e-4, floor=1e-6):
    """Backprop build() once and compare every tensor's grad against central
    differences; returns the worst relative error (asserts under tol)."""
    for t in tensors:
        t.zero_grad()
    loss = build()
    loss.backward()
    fd = fd_grads(build, tensors, h=h)
    worst = 0.0
    for t, g_fd in zip(tensors, fd):
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        worst = max(worst, max_rel_err(g, g_fd, floor=floor))
    assert worst < tol, f"gradient mismatch: worst rel err {worst} >= {tol}"
    return worst
