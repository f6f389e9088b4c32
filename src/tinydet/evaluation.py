"""Detection metrics: greedy NMS and average precision over an IoU range.

NMS works on candidate arrays in ranked order, 128 at a time: a window of the
next candidates is cleared against every box kept so far, its first 128
survivors are resolved against each other, and the walk stops once enough
boxes are kept.  Memory is O(N) for the ranking plus IoU temporaries of at
most 2**16 elements, and the result is exactly the one-box-at-a-time one.  AP
follows the COCO recipe: detections are sorted by score globally (ties
broken by image and insertion order so results are reproducible), matched
greedily per image to the best still-unmatched ground truth at or above the
IoU threshold, and the all-point interpolated area under the precision-recall
curve is averaged over classes and thresholds.  Size buckets (very-tiny and
tiny, by sqrt of box area) use ignore semantics: out-of-bucket ground truths
never count as misses, and detections matched to them, or unmatched and
themselves out of bucket, are dropped from the PR curve.  As in COCO's
``evaluateImg``, the detection x ground-truth IoU is computed once per
(image, class) and every threshold and bucket is matched from it in one pass.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .anchors import Box, boxes_array, iou_matrix

__all__ = [
    "Detection",
    "EvalResult",
    "IOU_THRESHOLDS",
    "SIZE_BUCKETS",
    "nms",
    "average_precision",
    "evaluate_ap",
]

IOU_THRESHOLDS = tuple(np.round(np.arange(0.5, 0.96, 0.05), 2))
# AI-TOD-style buckets on the sqrt-area scale: very tiny (2, 8], tiny (8, 16]
SIZE_BUCKETS = {"vt": (2.0, 8.0), "t": (8.0, 16.0)}
_BLOCK = 128        # nms: candidates resolved together, and kept boxes per clearing pass
_WINDOW = 2 ** 16   # nms: candidates x kept boxes per clearing pass, at most


@dataclass
class Detection:
    box: Box
    class_id: int
    score: float

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score {self.score} outside [0,1]")


@dataclass
class EvalResult:
    ap: float = 0.0
    ap50: float = 0.0
    ap75: float = 0.0
    ap_vt: float = 0.0
    ap_t: float = 0.0

    def as_dict(self):
        return asdict(self)


def _ranked(neg_scores: np.ndarray, classes: np.ndarray, m: int) -> np.ndarray:
    """Indices of the ``m`` best candidates, plus every candidate tied with the
    m-th on score, ranked by (-score, class, index)."""
    if m < len(neg_scores):
        idx = np.flatnonzero(neg_scores <= np.partition(neg_scores, m - 1)[m - 1])
    else:
        idx = np.arange(len(neg_scores))
    return idx[np.lexsort((classes[idx], neg_scores[idx]))]  # ties: by index


def nms(boxes, scores, classes, iou_thr: float, max_keep: int) -> np.ndarray:
    """Greedy class-wise suppression of candidates (boxes [N,4], scores [N],
    classes [N]): a candidate is dropped when its IoU with a kept, higher-ranked
    candidate of its class exceeds ``iou_thr``.  Returns the kept indices ranked
    by (-score, class, index).  Idempotent.  Only higher-ranked candidates of a
    class decide a candidate's fate, so stopping after ``max_keep`` kept gives
    exactly the first ``max_keep`` of the full result.

    Only a prefix of the ranking is sorted: the best 2 * max_keep candidates
    (at least ``_BLOCK``) and every one tied with the last of them, widened to
    four times its length whenever the walk reaches its end.  Widening keeps
    the prefix's order, since every candidate it adds scores lower.  Ranked
    candidates are walked in blocks: a window of the next ones is cleared
    against every kept box, and its first ``_BLOCK`` survivors are resolved in
    greedy order.  Memory is O(N); the window narrows as boxes are kept, so no
    IoU temporary exceeds ``_WINDOW`` elements."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    classes = np.asarray(classes)
    neg_scores = -np.asarray(scores, dtype=np.float64)
    n, m = len(neg_scores), max(_BLOCK, 2 * max_keep)
    order = np.arange(0)

    def overlaps(rows, cols):  # [len(rows), len(cols)]: same class and IoU > iou_thr
        return ((iou_matrix(ranked_boxes[rows], ranked_boxes[cols]) > iou_thr)
                & (ranked_classes[rows][:, None] == ranked_classes[cols][None, :]))

    kept, start = [], 0
    while len(kept) < max_keep and start < n:
        if start == len(order):
            order = _ranked(neg_scores, classes, m)
            m = 4 * max(m, len(order))
            ranked_boxes = np.take(boxes, order, axis=0)  # take copies rows ~5x faster
            ranked_classes = classes[order]
        end = min(len(order), start + max(_BLOCK, _WINDOW // max(len(kept), 1)))
        live = np.arange(start, end)
        for k in range(0, len(kept), _BLOCK):
            live = live[~overlaps(kept[k:k + _BLOCK], live).any(axis=0)]
        block = live[:_BLOCK]
        start = live[_BLOCK] if len(live) > _BLOCK else end
        if not len(block):
            continue
        spared = ~overlaps(block, block)  # entries at or before i are decided already
        alive = np.ones(len(block), dtype=bool)
        for i in range(len(block)):
            if alive[i]:
                kept.append(block[i])
                if len(kept) == max_keep:
                    break
                alive &= spared[i]
    return order[kept]


def _in_buckets(boxes: np.ndarray, buckets) -> np.ndarray:
    """[B,n]: whether each box's sqrt-area scale lies in each (lo, hi] bucket;
    a None bucket holds every box."""
    scale = np.sqrt((boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1]))
    bounds = [b or (-np.inf, np.inf) for b in buckets]
    return np.array([(lo < scale) & (scale <= hi) for lo, hi in bounds]).reshape(len(bounds), -1)


def _last_argmax(v: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Index of the largest v where mask holds, along mask's last axis; the last
    index wins among equals, -1 where mask holds nowhere."""
    best = v.shape[-1] - 1 - np.where(mask, v, -np.inf)[..., ::-1].argmax(axis=-1)
    return np.where(mask.any(axis=-1), best, -1)


def _curve_ap(hits: np.ndarray, n_gt) -> float:
    """All-point interpolated AP of ranked hits (1 true positive, 0 false
    positive, NaN dropped from the curve)."""
    hits = hits[~np.isnan(hits)]
    if not len(hits):
        return 0.0
    tp = np.cumsum(hits)
    fp = np.cumsum(1.0 - hits)
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, 1e-12)
    precision = np.maximum.accumulate(precision[::-1])[::-1]  # monotone envelope
    step = np.diff(recall, prepend=0.0)
    rise = step > 0
    # rectangle areas at recall steps; cumsum adds left to right like a plain loop
    return float(np.cumsum(np.append(0.0, step[rise] * precision[rise]))[-1])


def _class_ap(dets_per_image, gts_per_image, class_id: int, thresholds, buckets) -> np.ndarray:
    """AP of one class at each IoU threshold x size bucket, [T,B]; NaN where
    the bucket holds no ground truth of the class.

    Per image, detections go in (-score, index) order.  At each threshold and
    bucket a detection takes the unmatched in-bucket ground truth of highest
    IoU >= the threshold (the last index among equal IoUs); failing that an
    unmatched out-of-bucket one absorbs it; failing that it is a false
    positive, or dropped when it is out of bucket itself."""
    if len(dets_per_image) != len(gts_per_image):
        raise ValueError("detections and ground truths must align per image")
    thr = np.asarray(thresholds, dtype=np.float64)[:, None, None]
    shape = (len(thresholds), len(buckets))
    n_gt = np.zeros(len(buckets), dtype=np.int64)
    keys, hits = [], []  # per detection: its global rank key, its outcomes [T,B]
    for img, (dets, gts) in enumerate(zip(dets_per_image, gts_per_image)):
        gt = boxes_array([b for b, c in gts if c == class_id])
        gt_in = _in_buckets(gt, buckets)  # [B,G]
        n_gt += gt_in.sum(axis=1)
        idx = [j for j, d in enumerate(dets) if d.class_id == class_id]
        if not idx:
            continue
        score = np.array([dets[j].score for j in idx], dtype=np.float64)
        det = boxes_array([dets[j].box for j in idx])
        # unmatched: a false positive where the detection is in bucket, else dropped
        hit = np.where(_in_buckets(det, buckets).T[:, None, :], 0.0, np.nan)
        hit = np.broadcast_to(hit, (len(idx), *shape)).copy()  # [D,T,B]
        if len(gt):
            ious = iou_matrix(det, gt)
            matched = np.zeros((*shape, len(gt)), dtype=bool)
            for k in np.argsort(-score, kind="stable"):
                free = ~matched & (ious[k] >= thr)
                if not free.any():
                    continue
                best = _last_argmax(ious[k], free & gt_in)
                absorb = _last_argmax(ious[k], free & ~gt_in)
                take = np.where(best >= 0, best, absorb)
                t, b = np.nonzero(take >= 0)
                matched[t, b, take[t, b]] = True
                hit[k][best >= 0] = 1.0
                hit[k][(best < 0) & (absorb >= 0)] = np.nan
        keys += [(-dets[j].score, img, j) for j in idx]
        hits.append(hit)
    ranked = np.concatenate([np.zeros((0, *shape)), *hits])[
        sorted(range(len(keys)), key=keys.__getitem__)]
    ap = np.full(shape, np.nan)
    for b in np.flatnonzero(n_gt):
        for t in range(len(thresholds)):
            ap[t, b] = _curve_ap(ranked[:, t, b], n_gt[b])
    return ap


def average_precision(dets_per_image, gts_per_image, class_id: int,
                      iou_thr: float, bucket=None) -> float | None:
    """All-point interpolated AP for one class at one IoU threshold, from the
    matcher ``evaluate_ap`` runs.

    Returns None when the class has no in-bucket ground truths (excluded from
    the class mean, matching COCO).
    """
    ap = _class_ap(dets_per_image, gts_per_image, class_id, (iou_thr,), (bucket,))[0, 0]
    return None if np.isnan(ap) else float(ap)


def evaluate_ap(dets_per_image, gts_per_image, num_classes: int) -> EvalResult:
    """Full metric set over matched detection/ground-truth image lists; the
    class mean runs over classes ``0 .. num_classes - 1``."""
    buckets = (None, SIZE_BUCKETS["vt"], SIZE_BUCKETS["t"])
    per_class = [_class_ap(dets_per_image, gts_per_image, c, IOU_THRESHOLDS, buckets)
                 for c in range(num_classes)]

    def per_threshold(b: int) -> list[float]:  # class means; 0.0 when no class has a gt
        means = []
        for t in range(len(IOU_THRESHOLDS)):
            vals = [ap[t, b] for ap in per_class if not np.isnan(ap[t, b])]
            means.append(float(np.mean(vals)) if vals else 0.0)
        return means

    per_thr = per_threshold(0)
    return EvalResult(
        ap=float(np.mean(per_thr)),
        ap50=per_thr[IOU_THRESHOLDS.index(0.5)],
        ap75=per_thr[IOU_THRESHOLDS.index(0.75)],
        ap_vt=float(np.mean(per_threshold(1))),
        ap_t=float(np.mean(per_threshold(2))),
    )
