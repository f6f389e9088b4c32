"""Walkthrough: the reverse-mode tensor core, checked against finite differences.

Builds a small conv -> sigmoid -> upsample graph in float64, backprops a
binary cross-entropy of its output against 0.5, averaged over the entries, and
compares gradient entries with central differences.
"""

import numpy as np

from tinydet.tensor import (
    Tensor,
    bilinear_upsample,
    conv2d,
    sigmoid,
    weighted_bce_with_logits,
)

rng = np.random.default_rng(0)

x = Tensor(rng.standard_normal((3, 6, 6)), requires_grad=True)
w = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.3, requires_grad=True)
b = Tensor(np.zeros(4), requires_grad=True)


def forward():
    y = sigmoid(conv2d(x, w, b))
    y = bilinear_upsample(y, (13, 13))
    return weighted_bce_with_logits(y, 0.5, 1.0 / y.data.size)


loss = forward()
loss.backward()
print(f"loss = {float(loss.data):.6f}")

# central differences on a handful of coordinates of each tensor
h = 1e-6
worst = 0.0
for t in (x, w, b):
    flat = t.data.reshape(-1)
    grad = t.grad.reshape(-1)
    for i in rng.choice(flat.size, size=min(10, flat.size), replace=False):
        orig = flat[i]
        flat[i] = orig + h
        up = float(forward().data)
        flat[i] = orig - h
        down = float(forward().data)
        flat[i] = orig
        fd = (up - down) / (2 * h)
        rel = abs(grad[i] - fd) / max(abs(fd), 1e-8)
        worst = max(worst, rel)

print(f"worst relative error vs finite differences: {worst:.2e}")
assert worst < 1e-4
print("gradient check passed")
