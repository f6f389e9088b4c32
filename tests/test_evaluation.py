import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (
    ap_scalar,
    class_ap_reference,
    evaluate_ap_reference,
    iou_scalar,
    nms_scalar,
)

from tinydet import evaluation
from tinydet.anchors import Box, iou_matrix, pyramid_anchors
from tinydet.detector import DetectorConfig
from tinydet.evaluation import (
    IOU_THRESHOLDS,
    SIZE_BUCKETS,
    Detection,
    EvalResult,
    average_precision,
    evaluate_ap,
    nms,
)


def det(x1, y1, x2, y2, cls=0, score=0.9):
    return Detection(Box(x1, y1, x2, y2), cls, score)


def random_case(seed, n_images=4, n_classes=2):
    """Random detections/gts with distinct scores (score ties are resolved
    differently by the per-detection and per-threshold formulations)."""
    r = np.random.default_rng(seed)
    dets, gts = [], []
    scores = iter(r.permutation(np.linspace(0.05, 0.95, 200)))
    for _ in range(n_images):
        img_gts = []
        for _ in range(int(r.integers(0, 5))):
            x1, y1 = r.uniform(0, 110, 2)
            w, h = r.uniform(2.5, 15, 2)
            img_gts.append((Box(x1, y1, x1 + w, y1 + h), int(r.integers(n_classes))))
        img_dets = []
        for gt_box, gt_cls in img_gts:
            if r.random() < 0.7:  # jittered copy of a gt
                j = r.uniform(-2, 2, 4)
                try:
                    b = Box(gt_box.x1 + j[0], gt_box.y1 + j[1],
                            gt_box.x2 + j[2], gt_box.y2 + j[3])
                except ValueError:
                    continue
                img_dets.append(Detection(b, gt_cls, float(next(scores))))
        for _ in range(int(r.integers(0, 3))):  # pure false positives
            x1, y1 = r.uniform(0, 110, 2)
            w, h = r.uniform(2.5, 15, 2)
            img_dets.append(Detection(Box(x1, y1, x1 + w, y1 + h),
                                      int(r.integers(n_classes)), float(next(scores))))
        dets.append(img_dets)
        gts.append(img_gts)
    return dets, gts


# ---------------------------------------------------------------------------
# NMS


def candidates(*dets):
    """(boxes [N,4], scores [N], classes [N]) of detections: the form nms takes."""
    return (np.array([d.box.as_array() for d in dets]).reshape(-1, 4),
            np.array([d.score for d in dets]), np.array([d.class_id for d in dets]))


def test_nms_suppresses_overlaps():
    d1 = det(0, 0, 10, 10, score=0.9)
    d2 = det(1, 1, 11, 11, score=0.8)   # IoU 0.68 with d1 -> suppressed
    d3 = det(50, 50, 60, 60, score=0.7)  # disjoint -> kept
    kept = nms(*candidates(d1, d2, d3), iou_thr=0.5, max_keep=3)
    assert kept.tolist() == [0, 2]


def test_nms_is_class_wise():
    a = det(0, 0, 10, 10, cls=0, score=0.9)
    b = det(0, 0, 10, 10, cls=1, score=0.8)  # same box, different class
    assert len(nms(*candidates(a, b), 0.5, 2)) == 2


def test_nms_threshold_is_strict():
    # IoU exactly at the threshold is kept (suppression needs IoU > thr)
    a = det(0, 0, 10, 10, score=0.9)
    b = det(5, 0, 15, 10, score=0.8)  # IoU = 5/15 = 1/3
    assert len(nms(*candidates(a, b), iou_thr=1 / 3, max_keep=2)) == 2
    assert len(nms(*candidates(a, b), iou_thr=0.33, max_keep=2)) == 1


def test_nms_idempotent():
    r = np.random.default_rng(2)
    xy = r.uniform(0, 30, (30, 2))  # dense enough that some boxes are suppressed
    boxes = np.concatenate([xy, xy + 8], axis=1)
    classes = r.integers(2, size=30)
    scores = r.uniform(0.1, 0.99, 30)
    once = nms(boxes, scores, classes, 0.5, len(boxes))
    assert len(once) < 30
    again = nms(boxes[once], scores[once], classes[once], 0.5, len(once))
    assert again.tolist() == list(range(len(once)))


def test_nms_matches_scalar_oracle_and_caps_to_a_prefix():
    def ranked(r, xy):  # (boxes, scores, classes) of candidates with corners xy
        boxes = np.concatenate([xy, xy + r.uniform(2, 14, xy.shape)], axis=1)
        scores = np.round(r.uniform(0, 1, len(xy)), 1)  # ~10 distinct values: many ties
        return boxes, scores, r.integers(3, size=len(xy))

    cases = []
    for seed in range(8):  # each fits one block
        r = np.random.default_rng(seed)
        cases.append((*ranked(r, r.uniform(0, 40, (int(r.integers(1, 80)), 2))),
                      float(r.choice([0.0, 0.3, 0.5, 1.0]))))
    # several hundred: blocks after the first are cleared against earlier ones
    cases += [(*ranked(r, r.uniform(0, 80, (int(r.integers(300, 700)), 2))), thr)
              for thr in (0.3, 0.5, 1.0)]
    # 20 tight clusters: most candidates suppressed, so the walk crosses windows
    centres = r.uniform(0, 300, (20, 2))
    cases += [(*ranked(r, centres[r.integers(20, size=3000)] + r.normal(0, 1, (3000, 2))), thr)
              for thr in (0.0, 0.3)]
    for boxes, scores, classes, thr in cases:
        want = nms_scalar(boxes, scores, classes, thr)
        assert nms(boxes, scores, classes, thr, len(boxes)).tolist() == want
        for k in (0, 1, 3, 127, 128, 129, len(want), len(want) + 5):
            assert nms(boxes, scores, classes, thr, max_keep=k).tolist() == want[:k]
    assert nms(np.zeros((0, 4)), np.zeros(0), np.zeros(0, dtype=int), 0.5, 0).tolist() == []


def test_nms_ranks_a_prefix_keeps_ties_at_the_cut_and_widens(monkeypatch):
    sizes, ranked = [], evaluation._ranked

    def counted(*args):  # records the length of each ranked prefix nms asks for
        order = ranked(*args)
        sizes.append(len(order))
        return order

    monkeypatch.setattr(evaluation, "_ranked", counted)
    r = np.random.default_rng(11)
    n = 900
    # one stack of heavily overlapping boxes per class, with its best-scoring
    # candidates on top and a few far apart at the bottom of the ranking: the
    # walk must widen the prefix several times to find them
    xy = r.uniform(0, 2, (n, 2))
    far = r.choice(n, 12, replace=False)
    xy[far] = r.uniform(100, 400, (12, 2))
    stack = (np.concatenate([xy, xy + 10], axis=1), np.where(np.isin(np.arange(n), far), 0.01,
                                                             r.uniform(0.2, 1.0, n)))
    # three score values only: ties at the cut run over the whole set
    tied = (np.concatenate([xy := r.uniform(0, 100, (n, 2)), xy + 6], axis=1),
            r.choice([0.3, 0.6, 0.9], n))
    # a tie straddles the default cut at rank 128, across classes and indices
    straddle = (np.concatenate([xy := r.uniform(0, 150, (n, 2)), xy + 8], axis=1),
                np.where(np.arange(n) < 120, 0.95, np.where(np.arange(n) % 7 == 0, 0.5, 0.1)))
    for boxes, scores in (stack, tied, straddle):
        classes = r.integers(3, size=n)
        for thr in (0.0, 0.5):
            want = nms_scalar(boxes, scores, classes, thr)
            for k in (1, 3, 64, 65, 100, len(want) - 1, len(want), len(want) + 1):
                sizes.clear()
                assert nms(boxes, scores, classes, thr, max_keep=k).tolist() == want[:k]
                assert sizes == sorted(set(sizes))  # each widening ranks more
    # infer128's case: 100 kept from few overlaps rank a 200-candidate prefix only
    xy = r.uniform(0, 1000, (4092, 2))
    sizes.clear()
    kept = nms(np.concatenate([xy, xy + 8], axis=1), r.uniform(0.05, 1.0, 4092),
               r.integers(3, size=4092), 0.5, max_keep=100)
    assert len(kept) == 100 and sizes == [200]


def test_nms_block_walk_at_word_and_block_edges():
    # one block of n candidates: the packed survivor rows end inside a byte, on
    # a byte, on a 64-bit word and on the block's last bit
    r = np.random.default_rng(170)
    for n in (1, 7, 8, 9, 63, 64, 65, 127, 128):
        # a row of boxes 3 apart, each 8 wide: neighbours overlap (IoU 5/11),
        # so greedy keeps about every other one; plus tied scores
        x = np.arange(n) * 3.0
        boxes = np.stack([x, x * 0, x + 8, x * 0 + 8], axis=1)
        scores = np.round(r.uniform(0, 1, n), 1)
        classes = r.integers(2, size=n)
        for thr in (0.3, 1.0):  # at 1.0 nothing is suppressed: every bit stays live
            want = nms_scalar(boxes, scores, classes, thr)
            for k in sorted({1, len(want) // 2, max(len(want) - 1, 1), len(want), n}):
                assert nms(boxes, scores, classes, thr, max_keep=k).tolist() == want[:k]


def test_nms_memory_is_bounded_by_max_keep():
    # 261,888 candidates: one N x N IoU matrix per class would take 61 GB
    cfg = DetectorConfig()
    anchors, _ = pyramid_anchors((1024, 1024), cfg.base_anchor, cfg.levels)
    r = np.random.default_rng(0)
    classes = np.repeat(np.arange(3), len(anchors))
    scores = r.uniform(0.05, 1.0, len(classes))
    xy = r.uniform(0, 1, (len(classes), 2))
    cluster = np.concatenate([xy, xy + 10], axis=1)  # all overlap: one box kept per class
    for boxes, max_keep, n_kept in ((np.tile(anchors, (3, 1)), 100, 100),
                                    (cluster, len(classes), 3)):
        tracemalloc.start()
        try:
            kept = nms(boxes, scores, classes, 0.5, max_keep=max_keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(kept) == n_kept
        assert peak < 64 * 2 ** 20, f"nms peak {peak / 2 ** 20:.1f} MiB"


def test_zero_area_boxes_overlap_nothing_without_a_warning():
    boxes = np.array([[5, 5, 5, 5], [5, 5, 5, 5], [0, 0, 0, 4], [1, 1, 3, 3]], dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 0/0 would raise "invalid value encountered"
        ious = iou_matrix(boxes, boxes)
        kept = nms(boxes, np.array([0.9, 0.8, 0.7, 0.6]), np.zeros(4, dtype=int), 0.0, 4)
    assert ious.tolist() == [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]
    assert kept.tolist() == [0, 1, 2, 3]


def test_detection_score_validated():
    with pytest.raises(ValueError, match="score"):
        det(0, 0, 4, 4, score=1.5)


# ---------------------------------------------------------------------------
# average precision: hand cases


def test_ap_perfect_detection():
    gts = [[(Box(10, 10, 20, 20), 0)]]
    dets = [[det(10, 10, 20, 20, score=0.9)]]
    assert average_precision(dets, gts, 0, 0.5) == 1.0
    assert evaluate_ap(dets, gts, num_classes=1).ap == pytest.approx(1.0)


def test_ap_miss_and_false_positive():
    gts = [[(Box(10, 10, 20, 20), 0)]]
    # no detections: AP 0
    assert average_precision([[]], gts, 0, 0.5) == 0.0
    # one false positive far away: AP 0
    assert average_precision([[det(80, 80, 90, 90, score=0.9)]], gts, 0, 0.5) == 0.0
    # tp then fp: recall 1 at precision 1 before the fp -> AP 1.0
    dets = [[det(10, 10, 20, 20, score=0.9), det(80, 80, 90, 90, score=0.5)]]
    assert average_precision(dets, gts, 0, 0.5) == 1.0
    # fp outscoring the tp: precision at recall 1 is 1/2
    dets = [[det(10, 10, 20, 20, score=0.5), det(80, 80, 90, 90, score=0.9)]]
    assert average_precision(dets, gts, 0, 0.5) == 0.5


def test_ap_half_recall():
    gts = [[(Box(10, 10, 20, 20), 0), (Box(50, 50, 60, 60), 0)]]
    dets = [[det(10, 10, 20, 20, score=0.9)]]
    assert average_precision(dets, gts, 0, 0.5) == 0.5


def test_ap_double_detection_counts_fp():
    # second detection of an already-matched gt is a false positive
    gts = [[(Box(10, 10, 20, 20), 0)]]
    dets = [[det(10, 10, 20, 20, score=0.9), det(10, 10, 20, 20, score=0.8)]]
    assert average_precision(dets, gts, 0, 0.5) == 1.0  # envelope keeps p=1 at r=1
    # but precision is affected when the duplicate comes first at lower recall
    gts2 = [[(Box(10, 10, 20, 20), 0), (Box(50, 50, 60, 60), 0)]]
    dets2 = [[det(10, 10, 20, 20, score=0.9), det(10, 10, 20, 20, score=0.8),
              det(50, 50, 60, 60, score=0.7)]]
    assert average_precision(dets2, gts2, 0, 0.5) == pytest.approx(0.5 + 0.5 * (2 / 3))


def test_ap_none_when_no_gts_of_class():
    gts = [[(Box(10, 10, 20, 20), 0)]]
    assert average_precision([[]], gts, 1, 0.5) is None


def test_ap_iou_threshold_sensitivity():
    gts = [[(Box(10, 10, 20, 20), 0)]]
    dets = [[det(12, 10, 22, 20, score=0.9)]]  # IoU = 8/12 ~ 0.667
    assert average_precision(dets, gts, 0, 0.5) == 1.0
    assert average_precision(dets, gts, 0, 0.75) == 0.0


def test_size_bucket_ignore_semantics():
    # one tiny gt (sqrt-area 6) and one larger gt (sqrt-area 12)
    gts = [[(Box(0, 0, 6, 6), 0), (Box(20, 20, 32, 32), 0)]]
    dets = [[det(0, 0, 6, 6, score=0.9), det(20, 20, 32, 32, score=0.8)]]
    # vt bucket: only the 6x6 gt counts; the 12x12 match is absorbed silently
    assert average_precision(dets, gts, 0, 0.5, SIZE_BUCKETS["vt"]) == 1.0
    assert average_precision(dets, gts, 0, 0.5, SIZE_BUCKETS["t"]) == 1.0
    # an unmatched out-of-bucket detection does not poison the vt curve
    dets2 = [[det(0, 0, 6, 6, score=0.9), det(60, 60, 72, 72, score=0.95)]]
    assert average_precision(dets2, gts, 0, 0.5, SIZE_BUCKETS["vt"]) == 1.0


def test_iou_thresholds_and_buckets_frozen():
    np.testing.assert_allclose(IOU_THRESHOLDS,
                               [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95])
    assert SIZE_BUCKETS == {"vt": (2.0, 8.0), "t": (8.0, 16.0)}


def test_evaluate_ap_result_shape():
    dets, gts = random_case(0)
    res = evaluate_ap(dets, gts, num_classes=2)
    assert isinstance(res, EvalResult)
    d = res.as_dict()
    assert set(d) == {"ap", "ap50", "ap75", "ap_vt", "ap_t"}
    assert all(0.0 <= v <= 1.0 for v in d.values())
    assert res.ap50 >= res.ap75
    with pytest.raises(ValueError, match="align"):
        evaluate_ap(dets, gts[:-1], num_classes=2)


def test_evaluate_ap_rejects_a_ground_truth_class_outside_the_detector():
    # such a class used to drop out of the class mean without a word
    gts = [[(Box(0, 0, 8, 8), 1)], [(Box(0, 0, 8, 8), 4), (Box(2, 2, 9, 9), 0)]]
    for bad in (4, -1):
        gts[1][0] = (gts[1][0][0], bad)
        with pytest.raises(ValueError, match=rf"ground-truth class {bad} outside \[0, 3\)"):
            evaluate_ap([[], []], gts, num_classes=3)
    gts[1][0] = (gts[1][0][0], 2)
    assert evaluate_ap([[], []], gts, num_classes=3).ap == 0.0


def test_evaluate_ap_rejects_a_detection_class_outside_the_detector():
    # such a detection used to match nothing and score AP 0 without a word
    gts = [[(Box(0, 0, 8, 8), 0)]]
    for bad in (5, -1):
        dets = [[Detection(Box(0, 0, 8, 8), 0, 0.9), Detection(Box(0, 0, 8, 8), bad, 0.8)]]
        with pytest.raises(ValueError, match=rf"detection class {bad} outside \[0, 3\)"):
            evaluate_ap(dets, gts, num_classes=3)
    assert evaluate_ap([[Detection(Box(0, 0, 8, 8), 0, 0.9)]], gts, num_classes=3).ap == 1.0


# ---------------------------------------------------------------------------
# oracle agreement


def test_ap_matches_exhaustive_oracle():
    checked = 0
    for seed in range(12):
        dets, gts = random_case(seed)
        for cls in (0, 1):
            for thr in (0.5, 0.75):
                for bucket in (None, SIZE_BUCKETS["vt"], SIZE_BUCKETS["t"]):
                    want = ap_scalar(dets, gts, cls, thr, bucket)
                    got = average_precision(dets, gts, cls, thr, bucket)
                    if want is None:
                        assert got is None
                    else:
                        assert got == pytest.approx(want, abs=1e-9)
                    checked += 1
    assert checked >= 50


def test_evaluate_ap_deterministic():
    dets, gts = random_case(3)
    a = evaluate_ap(dets, gts, num_classes=2)
    b = evaluate_ap(dets, gts, num_classes=2)
    assert a == b


def class_mean_of_average_precision(dets, gts, classes):
    """evaluate_ap's fields rebuilt from one-threshold average_precision calls."""
    def per_threshold(bucket):
        means = []
        for thr in IOU_THRESHOLDS:
            vals = [average_precision(dets, gts, c, thr, bucket) for c in classes]
            vals = [v for v in vals if v is not None]
            means.append(float(np.mean(vals)) if vals else 0.0)
        return means

    main = per_threshold(None)
    return EvalResult(ap=float(np.mean(main)), ap50=main[IOU_THRESHOLDS.index(0.5)],
                      ap75=main[IOU_THRESHOLDS.index(0.75)],
                      ap_vt=float(np.mean(per_threshold(SIZE_BUCKETS["vt"]))),
                      ap_t=float(np.mean(per_threshold(SIZE_BUCKETS["t"]))))


def test_matcher_tie_rules():
    # image 0: detection A is equidistant (IoU 2/3) from both gts and takes the
    # last one, so B (IoU 1 with gt 0, 0.43 with gt 1) still finds gt 0.
    # image 1: a false positive tied with A's score ranks after A (image order).
    gts = [[(Box(0, 0, 10, 10), 0), (Box(4, 0, 14, 10), 0)], [(Box(60, 60, 66, 66), 0)]]
    dets = [[det(2, 0, 12, 10, score=0.9), det(0, 0, 10, 10, score=0.8)],
            [det(20, 20, 26, 26, score=0.9)]]
    # ranked: tp, fp, tp over 3 gts -> recall 1/3 at precision 1, 2/3 at 2/3
    assert average_precision(dets, gts, 0, 0.5) == pytest.approx(1 / 3 + 1 / 3 * 2 / 3)
    cases = [(dets, gts, [0])] + [(*random_case(seed), [0, 1]) for seed in range(6)]
    for d, g, classes in cases:
        assert evaluate_ap(d, g, num_classes=len(classes)) == \
            class_mean_of_average_precision(d, g, classes)


def fuzz_case(r):
    """Detections and ground truths drawn to reach every branch of the matcher:
    boxes on both sides of the size buckets, jittered copies of ground truths
    (some of another class), detections far from every ground truth, images
    without detections or without ground truths, and few distinct scores, so
    that ties run across images."""
    n_classes = int(r.integers(1, 4))
    pool = np.round(r.uniform(0, 1, 6), 2)

    def box():
        x, y = r.uniform(0, 60, 2)
        w, h = r.uniform(1.0, 24.0, 2)
        return Box(x, y, x + w, y + h)

    dets, gts = [], []
    for _ in range(int(r.integers(1, 6))):
        img_gts = [(box(), int(r.integers(n_classes))) for _ in range(int(r.integers(0, 6)))]
        img_dets = []
        for b, c in img_gts:
            for _ in range(int(r.integers(0, 3))):
                j = r.uniform(-3, 3, 4)
                if b.x2 + j[2] > b.x1 + j[0] and b.y2 + j[3] > b.y1 + j[1]:
                    img_dets.append(Detection(Box(b.x1 + j[0], b.y1 + j[1], b.x2 + j[2], b.y2 + j[3]),
                                              c if r.random() < 0.8 else int(r.integers(n_classes)),
                                              float(r.choice(pool))))
        img_dets += [Detection(box(), int(r.integers(n_classes)), float(r.choice(pool)))
                     for _ in range(int(r.integers(0, 5)))]
        img_dets = [img_dets[i] for i in r.permutation(len(img_dets))]
        dets.append([] if r.random() < 0.15 else img_dets)
        gts.append([] if r.random() < 0.15 else img_gts)
    if r.random() < 0.2:  # one class detected nowhere
        gone = int(r.integers(n_classes))
        dets = [[d for d in img_dets if d.class_id != gone] for img_dets in dets]
    return dets, gts, n_classes


def test_evaluate_ap_equals_the_column_reference_bitwise():
    r = np.random.default_rng(2016)
    seen = dict.fromkeys(["no dets", "no gts", "class without dets", "cross-image tie",
                          "overlaps no gt", "matches an out-of-bucket gt", "dropped", "true positive"], 0)
    vt = SIZE_BUCKETS["vt"]

    def in_vt(b):
        return vt[0] < np.sqrt(b.area) <= vt[1]

    for _ in range(150):
        dets, gts, k = fuzz_case(r)
        assert evaluate_ap(dets, gts, num_classes=k) == evaluate_ap_reference(dets, gts, k)
        for c in range(k):
            for thr, bucket in ((0.0, None), (0.3, vt), (0.5, SIZE_BUCKETS["t"]), (0.75, vt)):
                want = class_ap_reference(dets, gts, c, (thr,), (bucket,))[0, 0]
                got = average_precision(dets, gts, c, thr, bucket)
                assert (got is None) if np.isnan(want) else got == want
        # which branches this case reached
        seen["no dets"] += sum(not d for d in dets)
        seen["no gts"] += sum(not g for g in gts)
        seen["class without dets"] += sum(
            any(gc == c for g in gts for _, gc in g) and not any(d.class_id == c for ds in dets for d in ds)
            for c in range(k))
        firsts = [{d.score for d in ds} for ds in dets]
        seen["cross-image tie"] += sum(len(a & b) > 0 for i, a in enumerate(firsts) for b in firsts[i + 1:])
        for ds, g in zip(dets, gts):
            for d in ds:
                same = [(iou_scalar(d.box.as_array(), b.as_array()), b) for b, c in g if c == d.class_id]
                best, b = max(same, key=lambda v: v[0], default=(0.0, None))
                if best < 0.5:
                    seen["overlaps no gt"] += 1
                    seen["dropped"] += not in_vt(d.box)  # unmatched and out of the vt bucket
                else:
                    seen["true positive"] += in_vt(b)
                    seen["matches an out-of-bucket gt"] += not in_vt(b)
    assert min(seen.values()) >= 10, seen
