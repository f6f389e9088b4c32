"""Foreground/background gating: dual sigmoid gates from the high-level and
the context-enhanced low-level map, fused into one spatial mask that
multiplies the enhanced features before a 3x3 refinement.

Every mask is single-channel ("spatial" gating), broadcast across feature
channels when it multiplies the enhanced map.  The refinement is plain
relu(conv(.)).  The six convs live in the store as ``fbsm.<conv>``: the gate
branches ``psi_h1``/``psi_h2`` and ``psi_l1``/``psi_l2``, the fusion conv
``phi_f`` and the refinement conv ``phi_r``.
"""

from __future__ import annotations

from .tensor import (
    ParamStore,
    Tensor,
    add,
    conv2d,
    mul,
    relu,
    sigmoid,
)

__all__ = ["build_fbsm_params", "gate", "fuse_gates", "fbsm_forward"]


def build_fbsm_params(store: ParamStore, c_high: int, c_low: int,
                      gate_width: int | None = None):
    """Each gate branch is G wide: ``gate_width``, or max(4, c_low // 4)."""
    g = gate_width if gate_width is not None else max(4, c_low // 4)
    store.register_conv("fbsm.psi_h1", g, c_high, 3)
    store.register_conv("fbsm.psi_h2", 1, g, 1)
    store.register_conv("fbsm.psi_l1", g, c_low, 3)
    store.register_conv("fbsm.psi_l2", 1, g, 1)
    store.register_conv("fbsm.phi_f", 1, 1, 3)
    store.register_conv("fbsm.phi_r", c_low, c_low, 3)


def gate(x: Tensor, store: ParamStore, branch: str) -> Tensor:
    """One gate branch (``"psi_h"`` or ``"psi_l"``):
    sigmoid(psi2(relu(psi1(x)))), entries strictly in (0,1)."""
    p = f"fbsm.{branch}"
    hidden = relu(conv2d(x, store[f"{p}1.w"], store[f"{p}1.b"]))
    return sigmoid(conv2d(hidden, store[f"{p}2.w"], store[f"{p}2.b"]))


def fuse_gates(m_high: Tensor, m_low: Tensor, store: ParamStore) -> Tensor:
    """Fuse two masks: sigmoid(phi_f(M_h + M_l)); no activation between the
    fusion conv and the outer sigmoid."""
    if m_high.data.shape != m_low.data.shape:
        raise ValueError(
            f"fuse_gates: shape mismatch {m_high.data.shape} vs {m_low.data.shape}"
        )
    return sigmoid(conv2d(add(m_high, m_low), store["fbsm.phi_f.w"], store["fbsm.phi_f.b"]))


def fbsm_forward(p_high_aligned: Tensor, c_enhanced: Tensor, store: ParamStore) -> Tensor:
    """Mask the enhanced features and refine: relu(phi_r(C_enh * mask)).

    Output matches C_enh's shape and is non-negative (final ReLU).
    """
    if p_high_aligned.data.shape[1:] != c_enhanced.data.shape[1:]:
        raise ValueError(
            f"fbsm_forward: spatial mismatch {p_high_aligned.data.shape} vs {c_enhanced.data.shape}"
        )
    mask = fuse_gates(gate(p_high_aligned, store, "psi_h"), gate(c_enhanced, store, "psi_l"),
                      store)
    gated = mul(c_enhanced, mask)
    return relu(conv2d(gated, store["fbsm.phi_r.w"], store["fbsm.phi_r.b"]))
