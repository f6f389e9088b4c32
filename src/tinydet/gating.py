"""Foreground/background gating: dual sigmoid gates from the high-level and
the context-enhanced low-level map, fused into one spatial mask that
multiplies the enhanced features before a 3x3 refinement.

Every mask is single-channel ("spatial" gating), broadcast across feature
channels when it multiplies the enhanced map.  The refinement is plain
relu(conv(.)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .tensor import (
    ParamStore,
    Tensor,
    add,
    conv2d,
    mul_mask,
    relu,
    sigmoid,
)

__all__ = ["FbsmParams", "gate", "fuse_gates", "fbsm_forward"]


@dataclass
class FbsmParams:
    """Conv parameters for the two gate branches, the fusion conv, and the
    refinement conv."""

    psi_h1_w: Tensor
    psi_h1_b: Tensor
    psi_h2_w: Tensor
    psi_h2_b: Tensor
    psi_l1_w: Tensor
    psi_l1_b: Tensor
    psi_l2_w: Tensor
    psi_l2_b: Tensor
    phi_f_w: Tensor
    phi_f_b: Tensor
    phi_r_w: Tensor
    phi_r_b: Tensor

    @property
    def gate_width(self) -> int:
        """Hidden width G of each gate branch."""
        return self.psi_h1_w.data.shape[0]

    @classmethod
    def create(cls, store: ParamStore, c_high: int, c_low: int,
               gate_width: int | None = None):
        """Register the six convs in ``store`` as ``fbsm.<conv>``."""
        g = gate_width if gate_width is not None else max(4, c_low // 4)
        shapes = {"psi_h1": (g, c_high, 3), "psi_h2": (1, g, 1), "psi_l1": (g, c_low, 3),
                  "psi_l2": (1, g, 1), "phi_f": (1, 1, 3), "phi_r": (c_low, c_low, 3)}
        params = {}
        for conv, shape in shapes.items():
            params[f"{conv}_w"], params[f"{conv}_b"] = store.register_conv(f"fbsm.{conv}", *shape)
        return cls(**params)


def gate(x: Tensor, psi1_w: Tensor, psi1_b: Tensor, psi2_w: Tensor, psi2_b: Tensor) -> Tensor:
    """One gate branch: sigmoid(psi2(relu(psi1(x)))), entries strictly in (0,1)."""
    hidden = relu(conv2d(x, psi1_w, psi1_b))
    return sigmoid(conv2d(hidden, psi2_w, psi2_b))


def fuse_gates(m_high: Tensor, m_low: Tensor, phi_f_w: Tensor, phi_f_b: Tensor) -> Tensor:
    """Fuse two masks: sigmoid(phi_f(M_h + M_l)); no activation between the
    fusion conv and the outer sigmoid."""
    if m_high.data.shape != m_low.data.shape:
        raise ValueError(
            f"fuse_gates: shape mismatch {m_high.data.shape} vs {m_low.data.shape}"
        )
    return sigmoid(conv2d(add(m_high, m_low), phi_f_w, phi_f_b))


def fbsm_forward(p_high_aligned: Tensor, c_enhanced: Tensor, params: FbsmParams) -> Tensor:
    """Mask the enhanced features and refine: relu(phi_r(C_enh * mask)).

    Output matches C_enh's shape and is non-negative (final ReLU).
    """
    if p_high_aligned.data.shape[1:] != c_enhanced.data.shape[1:]:
        raise ValueError(
            f"fbsm_forward: spatial mismatch {p_high_aligned.data.shape} vs {c_enhanced.data.shape}"
        )
    m_high = gate(p_high_aligned, params.psi_h1_w, params.psi_h1_b,
                  params.psi_h2_w, params.psi_h2_b)
    m_low = gate(c_enhanced, params.psi_l1_w, params.psi_l1_b,
                 params.psi_l2_w, params.psi_l2_b)
    mask = fuse_gates(m_high, m_low, params.phi_f_w, params.phi_f_b)
    gated = mul_mask(c_enhanced, mask)
    return relu(conv2d(gated, params.phi_r_w, params.phi_r_b))
