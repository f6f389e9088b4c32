"""Feature pyramid construction over a small strided-conv backbone.

The backbone is a four-stage strided conv stack standing in for a deep one.
Its ``build_*_params`` functions and ``backbone_forward`` take the
``DetectorConfig`` and read its widths and ``input_offset`` by attribute,
since this module cannot import ``detector``.  Levels P2..P6 (strides in
``anchors.LEVEL_STRIDES``) share one channel width (``pyramid_channels``).  The
enhancement step upsamples P5 to each level of ``enhance_levels`` (P2 by
default), feeds the aligned copy through the context and gating modules, and
replaces that level; every other level passes through untouched.
"""

from __future__ import annotations

from .anchors import LEVEL_STRIDES
from .context import cem_forward
from .gating import fbsm_forward
from .tensor import (
    ParamStore,
    Tensor,
    add,
    bilinear_upsample,
    conv2d,
    max_pool,
)

__all__ = [
    "build_backbone_params",
    "backbone_forward",
    "build_fpn_params",
    "build_fpn",
    "efpn_bs_forward",
]

def build_backbone_params(store: ParamStore, cfg):
    store.register_conv("backbone.stem0", cfg.stem_channels, 3, 3)
    store.register_conv("backbone.stem1", cfg.stage_channels[0], cfg.stem_channels, 3)
    for i in range(1, 4):
        store.register_conv(f"backbone.stage{i}", cfg.stage_channels[i],
                            cfg.stage_channels[i - 1], 3)


def backbone_forward(image: Tensor, store: ParamStore, cfg):
    """Image [3,H,W] (H, W multiples of the coarsest stride) -> features C2..C5
    at strides 4..32; each stage is a stride-2 3x3 conv with its ReLU folded in,
    after ``cfg.input_offset`` is subtracted to center the image's intensities."""
    if image.data.ndim != 3 or image.data.shape[0] != 3:
        raise ValueError(f"backbone expects [3,H,W], got {image.data.shape}")
    h, w = image.data.shape[1:]
    stride = max(LEVEL_STRIDES.values())
    if h % stride or w % stride:
        raise ValueError(f"image dims must be divisible by {stride}, got {h}x{w}")
    image = add(image, -cfg.input_offset)
    x = conv2d(image, *store.conv("backbone.stem0"), stride=2, relu=True)
    x = conv2d(x, *store.conv("backbone.stem1"), stride=2, relu=True)
    feats = [x]  # C2, stride 4
    for i in range(1, 4):
        x = conv2d(x, *store.conv(f"backbone.stage{i}"), stride=2, relu=True)
        feats.append(x)
    return feats  # [C2, C3, C4, C5]


def build_fpn_params(store: ParamStore, cfg):
    c = cfg.pyramid_channels
    for i, ci in enumerate(cfg.stage_channels):
        store.register_conv(f"fpn.lateral{i + 2}", c, ci, 1)
        store.register_conv(f"fpn.smooth{i + 2}", c, c, 3)


def build_fpn(features, store: ParamStore) -> dict[str, Tensor]:
    """Standard top-down pyramid: lateral 1x1, upsample-and-add, 3x3 smoothing;
    P6 is a stride-2 max pool of P5.  Returns features keyed P2..P6 in order;
    level strides are ``anchors.LEVEL_STRIDES``."""
    if len(features) != 4:
        raise ValueError(f"build_fpn expects 4 backbone features, got {len(features)}")
    laterals = [conv2d(f, *store.conv(f"fpn.lateral{i + 2}")) for i, f in enumerate(features)]
    merged = [None] * 4
    merged[3] = laterals[3]
    for i in (2, 1, 0):
        up = bilinear_upsample(merged[i + 1], laterals[i].data.shape[1:])
        merged[i] = add(laterals[i], up)
    pyr = {}
    for i, name in enumerate(("P2", "P3", "P4", "P5")):
        pyr[name] = conv2d(merged[i], *store.conv(f"fpn.smooth{i + 2}"))
    pyr["P6"] = max_pool(pyr["P5"], (2, 2))
    return pyr


def efpn_bs_forward(pyr: dict[str, Tensor], store: ParamStore, levels) -> dict[str, Tensor]:
    """Replace the ``levels`` (``DetectorConfig.enhance_levels``) with the
    context-enhanced, gated version driven by an upsampled P5; no levels
    means no enhancement.  All other levels pass through unchanged."""
    out = dict(pyr)
    p5 = pyr["P5"]
    for name in levels:
        low = pyr[name]
        p5_aligned = bilinear_upsample(p5, low.data.shape[1:])
        enhanced = cem_forward(p5_aligned, low, store)
        out[name] = fbsm_forward(p5_aligned, enhanced, store)
    return out
