"""Detection metrics: greedy NMS and average precision over an IoU range.

NMS works on candidate arrays in ranked order, 128 at a time: a window of the
next candidates is cleared against every box kept so far, its first 128
survivors are resolved against each other, and the walk stops once enough
boxes are kept.  A block's survivor rows are packed into bits, so its greedy
walk runs over Python int masks, not one array operation per kept box.
Memory is O(N) for the ranking plus IoU temporaries of at most 2**16
elements, and the result is exactly the one-box-at-a-time one.  AP follows
the COCO recipe: detections are sorted by score globally (ties broken by
image and insertion order so results are reproducible), matched greedily per
image to the best still-unmatched ground truth at or above the IoU threshold,
and the all-point interpolated area under the precision-recall curve is
averaged over classes and thresholds.  Size buckets (very-tiny and tiny, by
sqrt of box area) use ignore semantics: out-of-bucket ground truths never
count as misses, and detections matched to them, or unmatched and themselves
out of bucket, are dropped from the PR curve.

The detections and ground truths are read into arrays once.  As in COCO's
``evaluateImg``, each image's detection x ground-truth IoU is computed once
and every threshold and bucket is matched from it in one pass, visiting only
the detections that overlap a ground truth of their class at the lowest
threshold.  As in COCO's ``accumulate``, the precision-recall curves of all
thresholds and buckets of a class come from one pass of running sums down a
[detections, thresholds x buckets] array.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import accumulate, chain, pairwise

import numpy as np

from .anchors import Box, iou_matrix

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
        # bit j of row i: block[j] survives block[i]; a row as an int, once i is kept
        spared = np.packbits(~overlaps(block, block), axis=1, bitorder="little")
        width, spared = spared.shape[1], spared.tobytes()
        alive = (1 << len(block)) - 1
        while alive and len(kept) < max_keep:
            i = (alive & -alive).bit_length() - 1  # the best-ranked live candidate
            kept.append(block[i])
            row = int.from_bytes(spared[i * width:(i + 1) * width], "little")
            alive &= row >> (i + 1) << (i + 1)  # bits at or before i are decided already
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


def _read(dets_per_image, gts_per_image):
    """Every detection as a row (x1, y1, x2, y2, class, score) [D,6] and every
    ground truth as a row (x1, y1, x2, y2, class) [G,5], image after image,
    read once; plus the (detection, ground-truth) row ranges of each image."""
    if len(dets_per_image) != len(gts_per_image):
        raise ValueError("detections and ground truths must align per image")
    dets = [(d.box.x1, d.box.y1, d.box.x2, d.box.y2, d.class_id, d.score)
            for per_image in dets_per_image for d in per_image]
    gts = [(b.x1, b.y1, b.x2, b.y2, c) for per_image in gts_per_image for b, c in per_image]
    spans = [pairwise(accumulate(map(len, lists), initial=0)) for lists in (dets_per_image, gts_per_image)]
    return _array(dets, 6), _array(gts, 5), list(zip(*spans))


def _array(rows, width: int) -> np.ndarray:
    """float64 [len(rows), width]; fromiter skips np.array's inspection of each row."""
    return np.fromiter(chain.from_iterable(rows), np.float64, width * len(rows)).reshape(-1, width)


def _match(hits, dets, gts, gt_in, thr) -> None:
    """Match one image's detections (rows [D,6]) to its ground truths (rows
    [G,5], in bucket as ``gt_in`` [B,G]) at every IoU threshold ``thr`` [T]
    and bucket, setting ``hits`` [D,T,B] in place: 1 true positive, 0 false
    positive, NaN dropped.

    Detections go in (-score, index) order.  At each threshold and bucket a
    detection takes the unmatched in-bucket ground truth of its class with the
    highest IoU >= the threshold (the last index among equal IoUs); failing
    that an unmatched out-of-bucket one absorbs it; failing that it stays a
    false positive, or dropped when it is out of bucket itself.  Only
    detections whose best IoU with a ground truth of their class reaches the
    lowest threshold are visited: no other one can match."""
    # a ground truth of another class: -inf, below every threshold
    ious = np.where(dets[:, None, 4] == gts[None, :, 4], iou_matrix(dets[:, :4], gts[:, :4]), -np.inf)
    visit = np.flatnonzero(ious.max(axis=1) >= thr.min())
    matched = np.zeros((len(thr), len(gt_in), len(gts)), dtype=bool)
    for k in visit[np.argsort(-dets[visit, 5], kind="stable")]:
        free = ~matched & (ious[k] >= thr[:, None, None])
        if not free.any():
            continue
        best = _last_argmax(ious[k], free & gt_in)
        absorb = _last_argmax(ious[k], free & ~gt_in)
        take = np.where(best >= 0, best, absorb)
        t, b = np.nonzero(take >= 0)
        matched[t, b, take[t, b]] = True
        hits[k][best >= 0] = 1.0
        hits[k][(best < 0) & (absorb >= 0)] = np.nan


def _curve_ap(hits: np.ndarray, n_gt: np.ndarray) -> np.ndarray:
    """All-point interpolated AP of every column of ranked hits [D,C] (1 true
    positive, 0 false positive, NaN dropped from the curve) against n_gt [C]
    ground truths; NaN where n_gt is 0.

    A dropped row adds 0.0 to the running counts, so it repeats the previous
    row's recall and precision and moves neither the envelope nor the area:
    each column is bitwise the AP of its kept rows alone."""
    kept = ~np.isnan(hits)
    tp = np.cumsum(np.where(kept, hits, 0.0), axis=0)
    recall = tp / np.maximum(n_gt, 1)
    precision = tp / np.maximum(np.cumsum(kept, axis=0), 1e-12)
    precision = np.maximum.accumulate(precision[::-1], axis=0)[::-1]  # monotone envelope
    step = np.diff(recall, axis=0, prepend=0.0)
    # rectangle areas at recall steps (0.0 elsewhere); cumsum adds top to bottom like a loop
    area = np.cumsum(step * precision, axis=0)[-1] if len(hits) else np.zeros(hits.shape[1])
    return np.where(n_gt > 0, area, np.nan)


def _ap_table(dets, gts, images, class_ids, thresholds, buckets) -> np.ndarray:
    """AP of each class at each IoU threshold x size bucket, [K,T,B], from
    ``_read``'s arrays; NaN where the bucket holds no ground truth of the
    class.  Detections are ranked globally by (-score, image, index)."""
    thr = np.asarray(thresholds, dtype=np.float64)
    shape = (len(thr), len(buckets))
    # unmatched: a false positive where the detection is in bucket, else dropped
    hits = np.where(_in_buckets(dets[:, :4], buckets).T[:, None, :], 0.0, np.nan)
    hits = np.broadcast_to(hits, (len(dets), *shape)).copy()
    gt_in = _in_buckets(gts[:, :4], buckets)
    for (d0, d1), (g0, g1) in images:
        if d1 > d0 and g1 > g0:
            _match(hits[d0:d1], dets[d0:d1], gts[g0:g1], gt_in[:, g0:g1], thr)
    order = np.argsort(-dets[:, 5], kind="stable")  # rows are in (image, index) order already
    hits, classes = hits[order].reshape(len(order), shape[0] * shape[1]), dets[order, 4]
    return np.array([_curve_ap(hits[classes == c], np.tile(gt_in[:, gts[:, 4] == c].sum(axis=1), len(thr)))
                     for c in class_ids]).reshape(-1, *shape)


def average_precision(dets_per_image, gts_per_image, class_id: int,
                      iou_thr: float, bucket=None) -> float | None:
    """All-point interpolated AP for one class at one IoU threshold, from the
    matcher ``evaluate_ap`` runs.

    Returns None when the class has no in-bucket ground truths (excluded from
    the class mean, matching COCO).
    """
    ap = _ap_table(*_read(dets_per_image, gts_per_image), (class_id,), (iou_thr,), (bucket,))[0, 0, 0]
    return None if np.isnan(ap) else float(ap)


def evaluate_ap(dets_per_image, gts_per_image, num_classes: int) -> EvalResult:
    """Full metric set over matched detection/ground-truth image lists; the
    class mean runs over classes ``0 .. num_classes - 1``, and a detection or
    ground truth of any other class raises ValueError."""
    dets, gts, spans = _read(dets_per_image, gts_per_image)
    for what, rows in (("detection", dets), ("ground-truth", gts)):
        outside = rows[(rows[:, 4] < 0) | (rows[:, 4] >= num_classes), 4]
        if len(outside):
            raise ValueError(f"{what} class {int(outside[0])} outside [0, {num_classes})")
    buckets = (None, SIZE_BUCKETS["vt"], SIZE_BUCKETS["t"])
    per_class = _ap_table(dets, gts, spans, range(num_classes), IOU_THRESHOLDS, buckets)

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
