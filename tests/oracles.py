"""Independent slow reference implementations used as test oracles.

Everything here is written against the mathematical definitions with plain
scalar loops or exhaustive enumeration, deliberately avoiding the package's
own vectorized code paths.
"""

import numpy as np


def conv2d_scalar(x, w, b, stride=1):
    """Naive cross-correlation: triple loops over output and kernel."""
    co, ci, kh, kw = w.shape
    c, h, ww = x.shape
    ph, pw = kh // 2, kw // 2
    oh = (h + 2 * ph - kh) // stride + 1
    ow = (ww + 2 * pw - kw) // stride + 1
    out = np.zeros((co, oh, ow), dtype=np.float64)
    for o in range(co):
        for oy in range(oh):
            for ox in range(ow):
                acc = float(b[o])
                for ic in range(ci):
                    for ky in range(kh):
                        for kx in range(kw):
                            y = oy * stride + ky - ph
                            xx = ox * stride + kx - pw
                            if 0 <= y < h and 0 <= xx < ww:
                                acc += float(x[ic, y, xx]) * float(w[o, ic, ky, kx])
                out[o, oy, ox] = acc
    return out


def conv2d_weight_grad_scalar(x, g, k, stride=1):
    """Gradient of conv2d_scalar's output, weighted by ``g`` [Co,oh,ow], with
    respect to its [Co,Ci,k,k] weights: loops over kernel and output."""
    co, oh, ow = g.shape
    ci, h, ww = x.shape
    p = k // 2
    out = np.zeros((co, ci, k, k), dtype=np.float64)
    for o in range(co):
        for ic in range(ci):
            for ky in range(k):
                for kx in range(k):
                    acc = 0.0
                    for oy in range(oh):
                        for ox in range(ow):
                            y = oy * stride + ky - p
                            xx = ox * stride + kx - p
                            if 0 <= y < h and 0 <= xx < ww:
                                acc += float(x[ic, y, xx]) * float(g[o, oy, ox])
                    out[o, ic, ky, kx] = acc
    return out


def bilinear_scalar(x, th, tw):
    """Half-pixel-center bilinear resize, one output sample at a time."""
    c, h, w = x.shape
    out = np.zeros((c, th, tw), dtype=np.float64)
    for ch in range(c):
        for oy in range(th):
            for ox in range(tw):
                py = min(max((oy + 0.5) * h / th - 0.5, 0.0), h - 1.0)
                px = min(max((ox + 0.5) * w / tw - 0.5, 0.0), w - 1.0)
                y0 = min(int(np.floor(py)), h - 1)
                x0 = min(int(np.floor(px)), w - 1)
                y1 = min(y0 + 1, h - 1)
                x1 = min(x0 + 1, w - 1)
                wy = py - y0
                wx = px - x0
                out[ch, oy, ox] = (x[ch, y0, x0] * (1 - wy) * (1 - wx)
                                   + x[ch, y0, x1] * (1 - wy) * wx
                                   + x[ch, y1, x0] * wy * (1 - wx)
                                   + x[ch, y1, x1] * wy * wx)
    return out


def iou_scalar(a, b):
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    union = ((a[2] - a[0]) * (a[3] - a[1])
             + (b[2] - b[0]) * (b[3] - b[1]) - inter)
    return inter / union if union > 0 else 0.0


def nms_scalar(boxes, scores, classes, iou_thr):
    """Greedy class-wise NMS from the definition: rank candidates by
    (-score, class, index) and keep each one unless a kept candidate of its
    class overlaps it with IoU > iou_thr."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], classes[i], i))
    kept = []
    for i in order:
        if all(classes[k] != classes[i] or iou_scalar(boxes[k], boxes[i]) <= iou_thr
               for k in kept):
            kept.append(i)
    return kept


def assign_scalar(anchors, gts, pos_thr=0.5, neg_thr=0.4):
    """Brute-force label assignment scoring every (anchor, gt) pair; each gt's
    best anchor (the first on ties) is forced positive when its IoU is above 0."""
    n = len(anchors)
    labels = [-1] * n
    if len(gts) == 0:
        return labels
    ious = [[iou_scalar(a, g) for g in gts] for a in anchors]
    for i in range(n):
        best = max(ious[i])
        j = ious[i].index(best)
        if best >= pos_thr:
            labels[i] = j
        elif best >= neg_thr:
            labels[i] = -2
    for j in range(len(gts)):
        col = [ious[i][j] for i in range(n)]
        best = max(col)
        if best > 0:
            labels[col.index(best)] = j
    return labels


def _match_once(dets, gt_boxes, gt_ignored, iou_thr, in_bucket):
    """Greedy matching of sorted detections; returns (tp, fp) counts."""
    matched = [False] * len(gt_boxes)
    tp = fp = 0
    for box, _score, scale_ok in dets:
        best_iou, best = iou_thr, -1
        best_ig_iou, best_ig = iou_thr, -1
        for g, gbox in enumerate(gt_boxes):
            if matched[g]:
                continue
            v = iou_scalar(box, gbox)
            if gt_ignored[g]:
                if v >= best_ig_iou:
                    best_ig_iou, best_ig = v, g
            elif v >= best_iou:
                best_iou, best = v, g
        if best >= 0:
            matched[best] = True
            tp += 1
        elif best_ig >= 0:
            matched[best_ig] = True
        elif not scale_ok:
            continue
        else:
            fp += 1
    return tp, fp


def ap_scalar(dets_per_image, gts_per_image, class_id, iou_thr, bucket=None):
    """Exhaustive AP: re-run the matching at every score threshold and
    integrate the interpolated precision-recall curve from those points."""

    def in_bucket(box):
        if bucket is None:
            return True
        s = np.sqrt((box[2] - box[0]) * (box[3] - box[1]))
        return bucket[0] < s <= bucket[1]

    records = []
    for img, dets in enumerate(dets_per_image):
        for j, d in enumerate(dets):
            if d.class_id == class_id:
                records.append((d.score, img, j, d.box.as_array()))
    records.sort(key=lambda r: (-r[0], r[1], r[2]))

    per_image = {}
    n_gt = 0
    for img, gts in enumerate(gts_per_image):
        boxes = [b.as_array() for b, c in gts if c == class_id]
        ignored = [not in_bucket(b) for b in boxes]
        per_image[img] = (boxes, ignored)
        n_gt += sum(1 for ig in ignored if not ig)
    if n_gt == 0:
        return None
    if not records:
        return 0.0

    points = []  # (recall, precision) at each distinct score threshold
    thresholds = sorted({r[0] for r in records}, reverse=True)
    for thr in thresholds:
        subset = [r for r in records if r[0] >= thr]
        tp = fp = 0
        by_img = {}
        for score, img, j, box in subset:
            by_img.setdefault(img, []).append((box, score, in_bucket(box)))
        for img, dets in by_img.items():
            boxes, ignored = per_image[img]
            t, f = _match_once(dets, boxes, ignored, iou_thr, in_bucket)
            tp += t
            fp += f
        if tp + fp > 0:
            points.append((tp / n_gt, tp / (tp + fp)))
    if not points:
        return 0.0

    def p_interp(r):
        vals = [p for (rr, p) in points if rr >= r]
        return max(vals) if vals else 0.0

    recalls = sorted({r for r, _ in points})
    ap = 0.0
    prev = 0.0
    for r in recalls:
        if r > prev:
            ap += (r - prev) * p_interp(r)
            prev = r
    return ap


# ---------------------------------------------------------------------------
# Bitwise AP reference: the per-(image, class) matcher and the per-column
# precision-recall curve that evaluation.py replaced with array passes.  It
# takes IoUs from the package's ``iou_matrix`` so that its floats are the ones
# the fast path sees; everything after that is the plain column-at-a-time form.


def _in_buckets(boxes, buckets):
    scale = np.sqrt((boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1]))
    bounds = [b or (-np.inf, np.inf) for b in buckets]
    return np.array([(lo < scale) & (scale <= hi) for lo, hi in bounds]).reshape(len(bounds), -1)


def _last_argmax(v, mask):
    best = v.shape[-1] - 1 - np.where(mask, v, -np.inf)[..., ::-1].argmax(axis=-1)
    return np.where(mask.any(axis=-1), best, -1)


def curve_ap_reference(hits, n_gt):
    """All-point interpolated AP of one column of ranked hits (1 true positive,
    0 false positive, NaN dropped from the curve)."""
    hits = hits[~np.isnan(hits)]
    if not len(hits):
        return 0.0
    tp = np.cumsum(hits)
    fp = np.cumsum(1.0 - hits)
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, 1e-12)
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    step = np.diff(recall, prepend=0.0)
    rise = step > 0
    return float(np.cumsum(np.append(0.0, step[rise] * precision[rise]))[-1])


def class_ap_reference(dets_per_image, gts_per_image, class_id, thresholds, buckets):
    """AP of one class at each IoU threshold x size bucket, [T,B]; NaN where
    the bucket holds no ground truth of the class.  Every detection of the
    class is matched in (-score, index) order per image, then ranked globally
    by (-score, image, index), one column at a time."""
    from tinydet.anchors import boxes_array, iou_matrix

    thr = np.asarray(thresholds, dtype=np.float64)[:, None, None]
    shape = (len(thresholds), len(buckets))
    n_gt = np.zeros(len(buckets), dtype=np.int64)
    keys, hits = [], []
    for img, (dets, gts) in enumerate(zip(dets_per_image, gts_per_image)):
        gt = boxes_array([b for b, c in gts if c == class_id])
        gt_in = _in_buckets(gt, buckets)
        n_gt += gt_in.sum(axis=1)
        idx = [j for j, d in enumerate(dets) if d.class_id == class_id]
        if not idx:
            continue
        score = np.array([dets[j].score for j in idx], dtype=np.float64)
        det = boxes_array([dets[j].box for j in idx])
        hit = np.where(_in_buckets(det, buckets).T[:, None, :], 0.0, np.nan)
        hit = np.broadcast_to(hit, (len(idx), *shape)).copy()
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
            ap[t, b] = curve_ap_reference(ranked[:, t, b], n_gt[b])
    return ap


def evaluate_ap_reference(dets_per_image, gts_per_image, num_classes):
    """``evaluate_ap``'s fields from ``class_ap_reference``, one class at a time."""
    from tinydet.evaluation import IOU_THRESHOLDS, SIZE_BUCKETS, EvalResult

    buckets = (None, SIZE_BUCKETS["vt"], SIZE_BUCKETS["t"])
    per_class = [class_ap_reference(dets_per_image, gts_per_image, c, IOU_THRESHOLDS, buckets)
                 for c in range(num_classes)]

    def per_threshold(b):
        means = []
        for t in range(len(IOU_THRESHOLDS)):
            vals = [ap[t, b] for ap in per_class if not np.isnan(ap[t, b])]
            means.append(float(np.mean(vals)) if vals else 0.0)
        return means

    main = per_threshold(0)
    return EvalResult(ap=float(np.mean(main)), ap50=main[IOU_THRESHOLDS.index(0.5)],
                      ap75=main[IOU_THRESHOLDS.index(0.75)],
                      ap_vt=float(np.mean(per_threshold(1))),
                      ap_t=float(np.mean(per_threshold(2))))


def sigmoid_piecewise(d):
    """Logistic in d's dtype, one branch per sign: 1/(1+exp(-d)) where d >= 0,
    exp(d)/(1+exp(d)) elsewhere."""
    out = np.empty_like(d)
    p = d >= 0
    out[p] = 1.0 / (1.0 + np.exp(-d[p]))
    e = np.exp(d[~p])
    out[~p] = e / (1.0 + e)
    return out


def second_derivative_fd(eps, params):
    """d2L/deps2 by central differences (h = 1e-6) of the closed-form gradient
    ``dcloss_grad``, stepping no lower than 0.  Where |L''| is below about
    1e-9 its sign is roundoff."""
    from tinydet.balanced_loss import dcloss_grad

    h = 1e-6
    eps = np.asarray(eps, dtype=np.float64)
    lo, hi = np.maximum(eps - h, 0.0), eps + h
    return (dcloss_grad(hi, params)[0] - dcloss_grad(lo, params)[0]) / (hi - lo)
