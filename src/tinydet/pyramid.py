"""Feature pyramid construction over a small strided-conv backbone.

Levels P2..P6 at strides 4/8/16/32/64, all with a shared channel width.  The
enhancement step upsamples P5 to P2's resolution once, feeds the aligned copy
through the context module and the gating module, and replaces the P2 slot;
every other level passes through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import cem_forward
from .gating import fbsm_forward
from .tensor import (
    ParamStore,
    Tensor,
    add,
    bilinear_upsample,
    conv2d,
    max_pool_2x2,
    relu,
)

__all__ = [
    "LEVEL_STRIDES",
    "BackboneConfig",
    "build_backbone_params",
    "backbone_forward",
    "build_fpn_params",
    "build_fpn",
    "efpn_bs_forward",
]

LEVEL_STRIDES = {"P2": 4, "P3": 8, "P4": 16, "P5": 32, "P6": 64}


@dataclass
class BackboneConfig:
    """Four-stage strided conv stack standing in for a deep backbone."""

    stem_channels: int = 8
    stage_channels: tuple[int, ...] = (8, 16, 16, 16)
    pyramid_channels: int = 8
    input_offset: float = 0.4  # subtracted from the image to center intensities

    def __post_init__(self):
        if len(self.stage_channels) != 4:
            raise ValueError("backbone needs exactly 4 stages (strides 4/8/16/32)")
        widths = {"stem_channels": self.stem_channels, "pyramid_channels": self.pyramid_channels,
                  **{f"stage_channels[{i}]": c for i, c in enumerate(self.stage_channels)}}
        for name, value in widths.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


def build_backbone_params(store: ParamStore, cfg: BackboneConfig):
    store.register_conv("backbone.stem0", cfg.stem_channels, 3, 3)
    store.register_conv("backbone.stem1", cfg.stage_channels[0], cfg.stem_channels, 3)
    for i in range(1, 4):
        store.register_conv(f"backbone.stage{i}", cfg.stage_channels[i],
                            cfg.stage_channels[i - 1], 3)


def backbone_forward(image: Tensor, store: ParamStore, cfg: BackboneConfig):
    """Image [3,H,W] (H, W divisible by 64) -> features C2..C5 at strides 4..32."""
    if image.data.ndim != 3 or image.data.shape[0] != 3:
        raise ValueError(f"backbone expects [3,H,W], got {image.data.shape}")
    h, w = image.data.shape[1:]
    if h % 64 or w % 64:
        raise ValueError(f"image dims must be divisible by 64, got {h}x{w}")
    if cfg.input_offset:
        image = add(image, -cfg.input_offset)
    x = relu(conv2d(image, store["backbone.stem0.w"], store["backbone.stem0.b"], stride=2))
    x = relu(conv2d(x, store["backbone.stem1.w"], store["backbone.stem1.b"], stride=2))
    feats = [x]  # C2, stride 4
    for i in range(1, 4):
        x = relu(conv2d(x, store[f"backbone.stage{i}.w"], store[f"backbone.stage{i}.b"], stride=2))
        feats.append(x)
    return feats  # [C2, C3, C4, C5]


def build_fpn_params(store: ParamStore, cfg: BackboneConfig):
    c = cfg.pyramid_channels
    for i, ci in enumerate(cfg.stage_channels):
        store.register_conv(f"fpn.lateral{i + 2}", c, ci, 1)
        store.register_conv(f"fpn.smooth{i + 2}", c, c, 3)


def build_fpn(features, store: ParamStore, cfg: BackboneConfig) -> dict[str, Tensor]:
    """Standard top-down pyramid: lateral 1x1, upsample-and-add, 3x3 smoothing;
    P6 is a stride-2 max pool of P5.  Returns features keyed P2..P6 in order;
    level strides are ``LEVEL_STRIDES``."""
    if len(features) != 4:
        raise ValueError(f"build_fpn expects 4 backbone features, got {len(features)}")
    c = cfg.pyramid_channels
    laterals = []
    for i, f in enumerate(features):
        w = store[f"fpn.lateral{i + 2}.w"]
        if f.data.shape[0] != w.data.shape[1]:
            raise ValueError(
                f"build_fpn: C{i + 2} has {f.data.shape[0]} channels, lateral expects {w.data.shape[1]}"
            )
        laterals.append(conv2d(f, w, store[f"fpn.lateral{i + 2}.b"]))
    merged = [None] * 4
    merged[3] = laterals[3]
    for i in (2, 1, 0):
        up = bilinear_upsample(merged[i + 1], laterals[i].data.shape[1:])
        merged[i] = add(laterals[i], up)
    pyr = {}
    for i, name in enumerate(("P2", "P3", "P4", "P5")):
        pyr[name] = conv2d(merged[i], store[f"fpn.smooth{i + 2}.w"],
                           store[f"fpn.smooth{i + 2}.b"])
    pyr["P6"] = max_pool_2x2(pyr["P5"])
    assert c == pyr["P2"].data.shape[0]
    return pyr


def efpn_bs_forward(pyr: dict[str, Tensor], store: ParamStore,
                    levels=("P2",)) -> dict[str, Tensor]:
    """Replace the configured low levels (default P2 only) with the
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
