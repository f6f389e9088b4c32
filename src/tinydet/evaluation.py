"""Detection metrics: greedy NMS and average precision over an IoU range.

AP follows the COCO recipe: detections are sorted by score globally (ties
broken by image and insertion order so results are reproducible), matched
greedily per image to the best still-unmatched ground truth at or above the
IoU threshold, and the all-point interpolated area under the precision-recall
curve is averaged over classes and thresholds.  Size buckets (very-tiny and
tiny, by sqrt of box area) use ignore semantics: out-of-bucket ground truths
never count as misses, and detections matched to them, or unmatched and
themselves out of bucket, are dropped from the PR curve.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        return {"ap": self.ap, "ap50": self.ap50, "ap75": self.ap75,
                "ap_vt": self.ap_vt, "ap_t": self.ap_t}


def nms(detections: list[Detection], iou_thr: float = 0.5) -> list[Detection]:
    """Greedy class-wise suppression; keeps the highest-scored of any
    overlapping pair (IoU > threshold).  Idempotent."""
    kept: list[Detection] = []
    by_class: dict[int, list[Detection]] = {}
    for d in detections:
        by_class.setdefault(d.class_id, []).append(d)
    for cls in sorted(by_class):
        dets = sorted(by_class[cls], key=lambda d: -d.score)
        boxes = np.array([d.box.as_array() for d in dets])
        alive = np.ones(len(dets), dtype=bool)
        m = iou_matrix(boxes, boxes)
        for i in range(len(dets)):
            if not alive[i]:
                continue
            kept.append(dets[i])
            alive[i + 1:] &= m[i, i + 1:] <= iou_thr
    return kept


def _box_scale(b: Box) -> float:
    return float(np.sqrt(b.area))


def _in_bucket(scale: float, bucket) -> bool:
    if bucket is None:
        return True
    lo, hi = bucket
    return lo < scale <= hi


def average_precision(dets_per_image, gts_per_image, class_id: int,
                      iou_thr: float, bucket=None) -> float | None:
    """All-point interpolated AP for one class at one IoU threshold.

    Returns None when the class has no in-bucket ground truths (excluded from
    the class mean, matching COCO).
    """
    records = []  # (score, image_idx, order_idx, det)
    for img, dets in enumerate(dets_per_image):
        for j, d in enumerate(dets):
            if d.class_id == class_id:
                records.append((d.score, img, j, d))
    records.sort(key=lambda r: (-r[0], r[1], r[2]))

    gt_boxes = []
    gt_ignored = []
    n_gt = 0
    for gts in gts_per_image:
        boxes = [b for b, c in gts if c == class_id]
        ignored = [not _in_bucket(_box_scale(b), bucket) for b in boxes]
        gt_boxes.append(boxes)
        gt_ignored.append(ignored)
        n_gt += sum(1 for ig in ignored if not ig)
    if n_gt == 0:
        return None

    matched = [np.zeros(len(b), dtype=bool) for b in gt_boxes]
    tp, fp = [], []
    for _score, img, _j, det in records:
        boxes = gt_boxes[img]
        best_iou, best_idx = iou_thr, -1
        best_ignored_iou, best_ignored_idx = iou_thr, -1
        if boxes:
            ious = iou_matrix(np.array([det.box.as_array()]),
                              np.array([b.as_array() for b in boxes]))[0]
            for g, v in enumerate(ious):
                if matched[img][g]:
                    continue
                if gt_ignored[img][g]:
                    if v >= best_ignored_iou:
                        best_ignored_iou, best_ignored_idx = v, g
                elif v >= best_iou:
                    best_iou, best_idx = v, g
        if best_idx >= 0:
            matched[img][best_idx] = True
            tp.append(1.0)
            fp.append(0.0)
        elif best_ignored_idx >= 0:
            matched[img][best_ignored_idx] = True  # absorbed by ignored gt
        elif not _in_bucket(_box_scale(det.box), bucket):
            continue  # out-of-bucket unmatched detection: ignored
        else:
            tp.append(0.0)
            fp.append(1.0)

    if not tp:
        return 0.0
    tp = np.cumsum(tp)
    fp = np.cumsum(fp)
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, 1e-12)
    # monotone precision envelope, then sum rectangle areas at recall steps
    for i in range(len(precision) - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    ap = 0.0
    prev_r = 0.0
    for r, p in zip(recall, precision):
        if r > prev_r:
            ap += (r - prev_r) * p
            prev_r = r
    return float(ap)


def _per_threshold_ap(dets_per_image, gts_per_image, classes, bucket=None) -> list[float]:
    """Class-mean AP at each of IOU_THRESHOLDS; 0.0 when no class has an
    in-bucket ground truth."""
    per_thr = []
    for thr in IOU_THRESHOLDS:
        vals = [average_precision(dets_per_image, gts_per_image, c, thr, bucket)
                for c in classes]
        vals = [v for v in vals if v is not None]
        per_thr.append(float(np.mean(vals)) if vals else 0.0)
    return per_thr


def evaluate_ap(dets_per_image, gts_per_image, num_classes: int | None = None) -> EvalResult:
    """Full metric set over matched detection/ground-truth image lists."""
    if len(dets_per_image) != len(gts_per_image):
        raise ValueError("detections and ground truths must align per image")
    if num_classes is None:
        seen = {c for gts in gts_per_image for _, c in gts}
        seen |= {d.class_id for dets in dets_per_image for d in dets}
        classes = sorted(seen) if seen else [0]
    else:
        classes = list(range(num_classes))
    per_thr = _per_threshold_ap(dets_per_image, gts_per_image, classes)
    return EvalResult(
        ap=float(np.mean(per_thr)),
        ap50=per_thr[IOU_THRESHOLDS.index(0.5)],
        ap75=per_thr[IOU_THRESHOLDS.index(0.75)],
        ap_vt=float(np.mean(_per_threshold_ap(dets_per_image, gts_per_image, classes,
                                              SIZE_BUCKETS["vt"]))),
        ap_t=float(np.mean(_per_threshold_ap(dets_per_image, gts_per_image, classes,
                                             SIZE_BUCKETS["t"]))),
    )
