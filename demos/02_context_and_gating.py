"""Walkthrough: the context-injection and foreground-gating modules.

Shows that the context module adds one learned scalar per channel (a global
summary of the high-level map) and that the gating module multiplies the
enhanced features by a spatial mask in (0, 1) before refinement.
"""

import numpy as np

from tinydet.context import build_cem_params, cem_forward, global_context
from tinydet.gating import build_fbsm_params, fbsm_forward, fuse_gates, gate
from tinydet.tensor import ParamStore, Tensor

rng = np.random.default_rng(1)
store = ParamStore(seed=0)

C_HIGH, C_LOW = 8, 8
build_cem_params(store, C_HIGH, C_LOW)   # registers cem.proj
build_fbsm_params(store, C_HIGH, C_LOW)  # registers fbsm.psi_h1 ... fbsm.phi_r

p_high = Tensor(rng.standard_normal((C_HIGH, 32, 32)).astype(np.float32))
p_low = Tensor(rng.standard_normal((C_LOW, 32, 32)).astype(np.float32))

# --- context: a per-channel constant shift -------------------------------
ctx = global_context(p_high, store)
enhanced = cem_forward(p_high, p_low, store)
shift = enhanced.data - p_low.data
print("context vector:", np.round(ctx.data.ravel(), 4))
print("per-channel shift is constant across space:",
      all(np.ptp(shift[c]) < 1e-6 for c in range(C_LOW)))

# --- gating: a fused mask in (0,1) ----------------------------------------
m_high = gate(p_high, store, "psi_h")
m_low = gate(enhanced, store, "psi_l")
mask = fuse_gates(m_high, m_low, store)
print(f"mask shape {mask.data.shape}, range "
      f"[{mask.data.min():.4f}, {mask.data.max():.4f}]")

out = fbsm_forward(p_high, enhanced, store)
print(f"gated output shape {out.data.shape}, min {out.data.min():.4f} (non-negative)")

# zero features in, zero features out: the mask cannot invent content
zero = fbsm_forward(p_high, Tensor(np.zeros_like(p_low.data)), store)
print("zero input stays zero:", not zero.data.any())
