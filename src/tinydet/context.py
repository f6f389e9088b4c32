"""Global-context injection: pool a high-level map to a vector, project it,
and broadcast-add it onto a low-level map.

The high-level input is expected to be already spatially aligned with the
low-level map (the pyramid module shares one bilinear alignment step between
this module and the gating module).  The 1x1 projection from C_h down to C_l
lives in the store as ``cem.proj``.
"""

from __future__ import annotations

from .tensor import ParamStore, Tensor, adaptive_max_pool_1x1, add, conv2d, relu, reshape

__all__ = ["build_cem_params", "global_context", "cem_forward"]


def build_cem_params(store: ParamStore, c_high: int, c_low: int):
    store.register_conv("cem.proj", c_low, c_high, 1)


def global_context(p_high: Tensor, store: ParamStore) -> Tensor:
    """Max-pool a [C_h,H,W] map to 1x1 and project: relu(W * amp(P_h) + b) -> [C_l,1,1]."""
    if p_high.data.ndim != 3:
        raise ValueError(f"global_context expects [C,H,W], got {p_high.data.shape}")
    weight = store["cem.proj.w"]
    c_h = weight.data.shape[1]
    if p_high.data.shape[0] != c_h:
        raise ValueError(
            f"global_context: input has {p_high.data.shape[0]} channels, projection expects {c_h}"
        )
    pooled = reshape(adaptive_max_pool_1x1(p_high), (c_h, 1, 1))
    return relu(conv2d(pooled, weight, store["cem.proj.b"]))


def cem_forward(p_high_aligned: Tensor, p_low: Tensor, store: ParamStore) -> Tensor:
    """Enhance P_l with the global context of P_h: P_l + broadcast(C_g).

    Both inputs must share spatial dims; output has P_l's shape exactly.
    """
    if p_high_aligned.data.shape[1:] != p_low.data.shape[1:]:
        raise ValueError(
            f"cem_forward: spatial mismatch {p_high_aligned.data.shape} vs {p_low.data.shape}"
        )
    ctx = global_context(p_high_aligned, store)
    if ctx.data.shape[0] != p_low.data.shape[0]:
        raise ValueError(
            f"cem_forward: projection yields {ctx.data.shape[0]} channels, P_l has {p_low.data.shape[0]}"
        )
    return add(p_low, ctx)
