import csv
import json

import numpy as np
import pytest

from oracles import assign_scalar, iou_scalar

from tinydet.anchors import (
    IGNORED,
    LEVEL_STRIDES,
    NEGATIVE,
    Box,
    assign_maxiou,
    boxes_array,
    gen_anchors,
    iou_matrix,
    pyramid_anchors,
)
from tinydet.detector import DetectorConfig
from tinydet.experiments import audit_positive_samples
from tinydet.scenes import Scene

rng = np.random.default_rng(3)


def random_boxes(n, lo=0.0, hi=100.0, r=rng):
    x1 = r.uniform(lo, hi - 2, n)
    y1 = r.uniform(lo, hi - 2, n)
    w = r.uniform(0.5, 20, n)
    h = r.uniform(0.5, 20, n)
    return np.stack([x1, y1, x1 + w, y1 + h], axis=1)


# ---------------------------------------------------------------------------
# boxes and IoU


def test_box_validation_and_area():
    b = Box(1.0, 2.0, 4.0, 6.0)
    assert b.area == 12.0
    with pytest.raises(ValueError, match="degenerate"):
        Box(1.0, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError, match="degenerate"):
        Box(0.0, 5.0, 3.0, 5.0)


def test_iou_hand_values():
    a = boxes_array([Box(0, 0, 2, 2), Box(0, 0, 4, 4)])
    b = boxes_array([Box(0, 0, 2, 2), Box(2, 2, 4, 4), Box(1, 1, 3, 3)])
    m = iou_matrix(a, b)
    assert m[0, 0] == 1.0
    assert m[0, 1] == 0.0  # touching corners
    assert m[0, 2] == pytest.approx(1 / 7)
    assert m[1, 2] == pytest.approx(4 / 16)


def test_iou_matrix_matches_scalar_oracle():
    a = random_boxes(12)
    b = random_boxes(9)
    a_in, b_in = a.copy(), b.copy()
    m = iou_matrix(a, b)
    # the widths, heights and intersection go into temporaries, not the inputs
    np.testing.assert_array_equal(a, a_in)
    np.testing.assert_array_equal(b, b_in)
    for i in range(12):
        for j in range(9):
            assert m[i, j] == pytest.approx(iou_scalar(a[i], b[j]), abs=1e-12)


def test_iou_symmetry_and_range():
    a = random_boxes(20)
    m = iou_matrix(a, a)
    np.testing.assert_allclose(m, m.T, atol=1e-15)
    np.testing.assert_allclose(np.diag(m), 1.0)
    assert np.all((m >= 0) & (m <= 1))


# ---------------------------------------------------------------------------
# anchor tiling


def test_gen_anchors_layout():
    a = gen_anchors(4, (2, 3), base_size=2.0)
    assert a.shape == (6, 4)
    # first anchor: centered at (2, 2) with side 8
    np.testing.assert_allclose(a[0], [-2, -2, 6, 6])
    # row-major: second anchor is one cell to the right
    np.testing.assert_allclose(a[1], [2, -2, 10, 6])
    # all sides equal base_size * stride
    np.testing.assert_allclose(a[:, 2] - a[:, 0], 8.0)
    np.testing.assert_allclose(a[:, 3] - a[:, 1], 8.0)


def test_gen_anchors_rejects_empty_grid():
    with pytest.raises(ValueError, match="positive"):
        gen_anchors(4, (0, 3), 2.0)


def test_pyramid_anchors_counts_for_128():
    anchors, slices = pyramid_anchors((128, 128), 2.0, tuple(LEVEL_STRIDES))
    expect = {"P2": 32 * 32, "P3": 16 * 16, "P4": 8 * 8, "P5": 4 * 4, "P6": 2 * 2}
    assert list(slices) == list(expect)
    assert anchors.shape == (sum(expect.values()), 4)
    start = 0
    for name, n in expect.items():
        assert slices[name] == slice(start, start + n)
        start += n
        # each slice holds exactly its own level's grid
        side = 128 // LEVEL_STRIDES[name]
        np.testing.assert_array_equal(anchors[slices[name]],
                                      gen_anchors(LEVEL_STRIDES[name], (side, side), 2.0))


def test_pyramid_anchors_grid_is_ceil_of_image_over_stride():
    anchors, slices = pyramid_anchors((100, 70), 3.0, ("P2", "P6"))
    assert list(slices) == ["P2", "P6"]
    np.testing.assert_array_equal(anchors[slices["P2"]], gen_anchors(4, (25, 18), 3.0))
    np.testing.assert_array_equal(anchors[slices["P6"]], gen_anchors(64, (2, 2), 3.0))


def test_pyramid_anchors_are_cached_read_only():
    anchors, slices = pyramid_anchors((96, 64), 2.0, ("P2", "P3"))
    again, slices_again = pyramid_anchors((96, 64), 2.0, ("P2", "P3"))
    assert again is anchors and slices_again == slices
    with pytest.raises(ValueError, match="read-only"):
        anchors[0, 0] = 1.0
    slices.clear()  # each call gets its own slice map
    assert pyramid_anchors((96, 64), 2.0, ("P2", "P3"))[1] == slices_again
    np.testing.assert_array_equal(anchors[slices_again["P3"]], gen_anchors(8, (12, 8), 2.0))
    assert pyramid_anchors((96, 64), 3.0, ("P2", "P3"))[0] is not anchors


# ---------------------------------------------------------------------------
# assignment


def test_assign_basic_thresholds():
    anchors = np.array([
        [0, 0, 8, 8],      # IoU 1.0 with gt 0 -> positive
        [4, 0, 12, 8],     # IoU 4/12 = 0.333 -> negative
        [2, 0, 10, 8],     # IoU 6/10 = 0.6  -> positive
        [40, 40, 48, 48],  # no overlap -> negative
    ], dtype=float)
    labels = assign_maxiou(anchors, boxes_array([Box(0, 0, 8, 8)]), 0.5, 0.4)
    np.testing.assert_array_equal(labels, [0, NEGATIVE, 0, NEGATIVE])


def test_assign_ignore_band():
    # IoU between 0.4 and 0.5 lands in the ignore band
    anchors = np.array([[0, 0, 8, 8], [3, 0, 11, 8]], dtype=float)  # 5/11 = 0.4545
    labels = assign_maxiou(anchors, boxes_array([Box(0, 0, 8, 8)]), 0.5, 0.4)
    np.testing.assert_array_equal(labels, [0, IGNORED])


def test_assign_force_best_match_rescues_low_iou():
    # best anchor for the gt has IoU below pos_thr but above zero
    anchors = np.array([[0, 0, 8, 8], [100, 100, 108, 108]], dtype=float)
    gts = boxes_array([Box(6, 6, 10, 10)])  # IoU with anchor 0 is 4/76 ~ 0.05
    assert iou_scalar(anchors[0], gts[0]) < 0.4  # a negative, were it not forced
    assert assign_maxiou(anchors, gts, 0.5, 0.4)[0] == 0


def test_assign_force_best_match_tie_goes_to_first():
    # two anchors with identical IoU against the gt: lowest index wins
    anchors = np.array([[0, 0, 4, 4], [4, 0, 8, 4]], dtype=float)
    gts = boxes_array([Box(1, 0, 7, 4)])
    labels = assign_maxiou(anchors, gts, 0.5, 0.4)
    assert labels[0] == 0 and labels[1] != 0


def test_assign_no_gts_all_negative():
    labels = assign_maxiou(random_boxes(10), np.zeros((0, 4)), 0.5, 0.4)
    np.testing.assert_array_equal(labels, np.full(10, NEGATIVE))


def test_assign_zero_overlap_best_not_forced():
    anchors = np.array([[0, 0, 4, 4]], dtype=float)
    labels = assign_maxiou(anchors, boxes_array([Box(50, 50, 60, 60)]), 0.5, 0.4)
    assert labels[0] == NEGATIVE


def test_assign_matches_brute_force_oracle():
    for trial in range(20):
        r = np.random.default_rng(trial)
        anchors = random_boxes(40, r=r)
        gts = random_boxes(r.integers(1, 6), r=r)
        got = assign_maxiou(anchors, gts, 0.5, 0.4)
        want = assign_scalar(anchors, gts, pos_thr=0.5, neg_thr=0.4)
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# level statistics


def scene_of(boxes, image_hw=(128, 128)):
    return Scene(image=np.zeros((3, *image_hw), np.float32),
                 gts=[(Box(*b), 0) for b in boxes])


def test_level_stats_counts_and_conservation(tmp_path):
    r = np.random.default_rng(7)
    boxes = [random_boxes(3, lo=8, hi=100, r=r) for _ in range(5)]
    stats = audit_positive_samples([scene_of(b) for b in boxes], DetectorConfig(),
                                   str(tmp_path))
    assert [s["level"] for s in stats] == ["P2", "P3", "P4", "P5", "P6"]
    expect_total = {"P2": 1024, "P3": 256, "P4": 64, "P5": 16, "P6": 4}
    for s in stats:
        assert s["positives"] + s["negatives"] + s["ignored"] == 5 * expect_total[s["level"]]
    cfg = DetectorConfig()
    anchors, _ = pyramid_anchors((128, 128), cfg.base_anchor, cfg.levels)
    assert sum(s["positives"] for s in stats) == \
        sum(int((assign_maxiou(anchors, b, cfg.pos_thr, cfg.neg_thr) >= 0).sum())
            for b in boxes) > 0
    # each scene is audited at its own size
    wide = audit_positive_samples([scene_of(boxes[0], (64, 192))], DetectorConfig(),
                                  str(tmp_path))
    assert [s["positives"] + s["negatives"] + s["ignored"] for s in wide] == \
        [16 * 48, 8 * 24, 4 * 12, 2 * 6, 1 * 3]


def test_level_stats_writers(tmp_path):
    scene = scene_of([(10, 10, 20, 20)])
    stats = audit_positive_samples([scene], DetectorConfig(), str(tmp_path))
    rows = list(csv.DictReader(open(tmp_path / "reports" / "level_stats.csv")))
    payload = json.load(open(tmp_path / "reports" / "level_stats.json"))
    assert len(rows) == len(payload) == 5
    for row, rec, s in zip(rows, payload, stats):
        assert list(row) == ["level", "positives", "negatives", "ignored"]
        assert rec.keys() == row.keys()
        assert row["level"] == rec["level"] == s["level"]
        assert int(row["positives"]) == rec["positives"] == s["positives"]
        assert int(row["negatives"]) == rec["negatives"] == s["negatives"]
        assert int(row["ignored"]) == rec["ignored"] == s["ignored"]
