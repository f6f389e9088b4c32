"""Anchor tiling, IoU, max-IoU label assignment, and per-level positive /
negative statistics.

One square anchor per feature cell, side = base_size * stride, centered at
(i + 0.5) * stride.  Assignment follows RPN conventions: IoU >= pos_thr is
positive, max IoU < neg_thr is negative, anything between is ignored, and the
globally best anchor for each ground-truth box is forced positive (ties go to
the lowest anchor index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pyramid import LEVEL_STRIDES

__all__ = [
    "Box",
    "LevelStats",
    "NEGATIVE",
    "IGNORED",
    "boxes_array",
    "gen_anchors",
    "iou",
    "iou_matrix",
    "assign_maxiou",
    "pyramid_anchors",
    "level_stats",
]

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


@dataclass
class LevelStats:
    level: str
    positives: int = 0
    negatives: int = 0
    ignored: int = 0

    @property
    def total(self) -> int:
        return self.positives + self.negatives + self.ignored


def gen_anchors(stride: int, feature_dims, base_size: float = 2.0) -> np.ndarray:
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
    """[N,4] float64 corners of an [N,4] array or a sequence of Box or 4-sequences."""
    if isinstance(boxes, np.ndarray):
        return boxes.astype(np.float64).reshape(-1, 4)
    return np.array([[b.x1, b.y1, b.x2, b.y2] if isinstance(b, Box) else b for b in boxes],
                    dtype=np.float64).reshape(-1, 4)


def iou(a, b) -> float:
    """Intersection-over-union of two boxes, in [0, 1]."""
    return float(iou_matrix(boxes_array([a]), boxes_array([b]))[0, 0])


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of [N,4] vs [M,4] boxes -> [N,M]."""
    a = boxes_array(a)
    b = boxes_array(b)
    x1 = np.maximum(a[:, None, 0], b[None, :, 0])
    y1 = np.maximum(a[:, None, 1], b[None, :, 1])
    x2 = np.minimum(a[:, None, 2], b[None, :, 2])
    y2 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.clip(x2 - x1, 0, None) * np.clip(y2 - y1, 0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def assign_maxiou(anchors: np.ndarray, gts, pos_thr: float = 0.5,
                  neg_thr: float = 0.4, force_best_match: bool = True) -> np.ndarray:
    """Label each anchor: gt index (>= 0) if positive, NEGATIVE, or IGNORED."""
    if not (0.0 <= neg_thr <= pos_thr <= 1.0):
        raise ValueError(f"need 0 <= neg_thr <= pos_thr <= 1, got {neg_thr}, {pos_thr}")
    anchors = boxes_array(anchors)
    n = anchors.shape[0]
    gt_arr = boxes_array(gts) if len(gts) else np.zeros((0, 4))
    labels = np.full(n, NEGATIVE, dtype=np.int64)
    if gt_arr.shape[0] == 0:
        return labels
    m = iou_matrix(anchors, gt_arr)
    best_gt = m.argmax(axis=1)
    best_iou = m[np.arange(n), best_gt]
    labels[(best_iou >= neg_thr) & (best_iou < pos_thr)] = IGNORED
    labels[best_iou >= pos_thr] = best_gt[best_iou >= pos_thr]
    if force_best_match:
        # argmax returns the first (lowest-index) maximum: documented tie rule
        for j in range(gt_arr.shape[0]):
            i = int(m[:, j].argmax())
            if m[i, j] > 0:
                labels[i] = j
    return labels


def pyramid_anchors(image_hw, base_size: float = 2.0, levels=None):
    """Anchors for every pyramid level of an image: returns (concatenated
    anchors [N,4], per-level slices into them).  Level grids are
    ceil(H/stride) x ceil(W/stride)."""
    h, w = int(image_hw[0]), int(image_hw[1])
    names = list(levels) if levels is not None else list(LEVEL_STRIDES)
    per_level = []
    slices = {}
    start = 0
    for name in names:
        s = LEVEL_STRIDES[name]
        a = gen_anchors(s, ((h + s - 1) // s, (w + s - 1) // s), base_size)
        per_level.append(a)
        slices[name] = slice(start, start + len(a))
        start += len(a)
    return np.concatenate(per_level, axis=0), slices


def level_stats(annotations, image_hw, base_size: float = 2.0,
                pos_thr: float = 0.5, neg_thr: float = 0.4,
                force_best_match: bool = True, levels=None,
                assigner=None) -> list[LevelStats]:
    """Aggregate positive/negative/ignored anchor counts per pyramid level.

    ``annotations`` is an iterable of per-image ground-truth box lists (Box or
    [x1,y1,x2,y2]).  Assignment runs jointly over the anchors of all levels so
    the forced best match picks the globally best level.  A custom
    ``assigner(anchors, gts) -> labels`` may replace the max-IoU rule.
    """
    anchors, slices = pyramid_anchors(image_hw, base_size, levels)
    names = list(slices.keys())
    stats = {name: LevelStats(level=name) for name in names}
    for gts in annotations:
        if assigner is not None:
            labels = assigner(anchors, gts)
        else:
            labels = assign_maxiou(anchors, gts, pos_thr, neg_thr, force_best_match)
        for name in names:
            sub = labels[slices[name]]
            stats[name].positives += int((sub >= 0).sum())
            stats[name].negatives += int((sub == NEGATIVE).sum())
            stats[name].ignored += int((sub == IGNORED).sum())
    return [stats[name] for name in names]

