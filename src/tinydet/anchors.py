"""Pyramid level strides, anchor tiling, IoU and max-IoU label assignment.

One square anchor per feature cell, side = base_size * stride, centered at
(i + 0.5) * stride.  Assignment follows RPN conventions: IoU >= pos_thr is
positive, max IoU < neg_thr is negative, anything between is ignored, and the
globally best anchor for each ground-truth box is forced positive (ties go to
the lowest anchor index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LEVEL_STRIDES",
    "Box",
    "NEGATIVE",
    "IGNORED",
    "boxes_array",
    "gen_anchors",
    "iou_matrix",
    "assign_maxiou",
    "pyramid_anchors",
]

LEVEL_STRIDES = {"P2": 4, "P3": 8, "P4": 16, "P5": 32, "P6": 64}
NEGATIVE = -1
IGNORED = -2


@dataclass(frozen=True)
class Box:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise ValueError(f"degenerate box {(self.x1, self.y1, self.x2, self.y2)}")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)


def gen_anchors(stride: int, feature_dims, base_size: float) -> np.ndarray:
    """Square anchors [H*W, 4], one per cell, side base_size*stride."""
    h, w = int(feature_dims[0]), int(feature_dims[1])
    if h <= 0 or w <= 0:
        raise ValueError(f"feature dims must be positive, got {h}x{w}")
    side = base_size * stride
    ys, xs = np.mgrid[0:h, 0:w]
    cx = (xs + 0.5) * stride
    cy = (ys + 0.5) * stride
    half = side / 2.0
    return np.stack([cx - half, cy - half, cx + half, cy + half], axis=-1).reshape(-1, 4).astype(np.float64)


def boxes_array(boxes) -> np.ndarray:
    """[N,4] float64 corners of a sequence of Box."""
    return np.array([[b.x1, b.y1, b.x2, b.y2] for b in boxes], dtype=np.float64).reshape(-1, 4)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of float64 [N,4] vs [M,4] corner arrays -> [N,M]; the
    intersection and union reuse the far-corner temporaries."""
    x1 = np.maximum(a[:, None, 0], b[None, :, 0])
    y1 = np.maximum(a[:, None, 1], b[None, :, 1])
    x2 = np.minimum(a[:, None, 2], b[None, :, 2])
    y2 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.maximum(np.subtract(x2, x1, out=x2), 0, out=x2)
    inter *= np.maximum(np.subtract(y2, y1, out=y2), 0, out=y2)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = np.add(area_a[:, None], area_b[None, :], out=y2)
    union -= inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def assign_maxiou(anchors: np.ndarray, gts: np.ndarray, pos_thr: float,
                  neg_thr: float) -> np.ndarray:
    """Label each of the float64 [N,4] anchors against the [G,4] ground-truth
    boxes: gt index (>= 0) if positive, NEGATIVE, or IGNORED.  The thresholds
    are taken as given; ``DetectorConfig`` checks 0 <= neg_thr <= pos_thr <= 1."""
    n = anchors.shape[0]
    labels = np.full(n, NEGATIVE, dtype=np.int64)
    if gts.shape[0] == 0:
        return labels
    m = iou_matrix(anchors, gts)
    best_gt = m.argmax(axis=1)
    best_iou = m[np.arange(n), best_gt]
    labels[(best_iou >= neg_thr) & (best_iou < pos_thr)] = IGNORED
    labels[best_iou >= pos_thr] = best_gt[best_iou >= pos_thr]
    # argmax returns the first (lowest-index) maximum: documented tie rule
    for j in range(gts.shape[0]):
        i = int(m[:, j].argmax())
        if m[i, j] > 0:
            labels[i] = j
    return labels


# (h, w, base_size, levels) -> (read-only anchors, slices); emptied when full,
# so a dataset of many image sizes cannot grow it without bound
_PYRAMID_ANCHORS: dict = {}
_CACHE_SIZE = 64


def pyramid_anchors(image_hw, base_size: float, levels):
    """Anchors for the pyramid ``levels`` of an image: returns (concatenated
    anchors [N,4], per-level slices into them).  Level grids are
    ceil(H/stride) x ceil(W/stride).  The anchors are built once per
    (image size, base_size, levels) and returned read-only."""
    h, w = int(image_hw[0]), int(image_hw[1])
    key = (h, w, base_size, tuple(levels))
    if key not in _PYRAMID_ANCHORS:
        if len(_PYRAMID_ANCHORS) >= _CACHE_SIZE:
            _PYRAMID_ANCHORS.clear()
        per_level = []
        slices = {}
        start = 0
        for name in levels:
            s = LEVEL_STRIDES[name]
            a = gen_anchors(s, ((h + s - 1) // s, (w + s - 1) // s), base_size)
            per_level.append(a)
            slices[name] = slice(start, start + len(a))
            start += len(a)
        anchors = np.concatenate(per_level, axis=0)
        anchors.setflags(write=False)
        _PYRAMID_ANCHORS[key] = anchors, slices
    anchors, slices = _PYRAMID_ANCHORS[key]
    return anchors, dict(slices)
