import inspect
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from headtrack import geometry, metrics, simulate, tracker
from headtrack.geometry import BBox, _overlap_array, aspect_ratio, iou, iou_matrix, ltwh_array

boxes = st.builds(
    BBox,
    left=st.floats(-100, 100, allow_nan=False),
    top=st.floats(-100, 100, allow_nan=False),
    width=st.floats(0.1, 50, allow_nan=False),
    height=st.floats(0.1, 50, allow_nan=False),
)

# small integer boxes: touching edges, nesting and exact coincidence are common
grid_boxes = st.builds(BBox, st.integers(0, 8), st.integers(0, 8),
                       st.integers(1, 6), st.integers(1, 6))


# magnitudes from 1e-3 to about 1e301: where a box's left is far larger than
# its width, `left + width` rounds to `left`
magnitudes = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1, 9.99), st.integers(-3, 300))
coords = st.one_of(st.sampled_from([0.0, 1.0, -1e3, 1e150, -1e300, 1e300]),
                   magnitudes, magnitudes.map(operator.neg))
wide_boxes = st.builds(BBox, coords, coords, magnitudes, magnitudes)


def iou_matrix_full(a, b):
    """The full-array oracle: the exact arithmetic on every one of the N x M
    pairs, with no broad phase."""
    al, at, aw, ah = np.asarray(a, dtype=np.float64).T[:, :, None]
    bl, bt, bw, bh = np.asarray(b, dtype=np.float64).T[:, None, :]
    w = _overlap_array(al, aw, bl, bw)
    h = _overlap_array(at, ah, bt, bh)
    area_a, area_b = aw * ah, bw * bh
    inter = np.where((w > 0) & (h > 0),
                     np.minimum(np.minimum(w * h, area_a), area_b), 0.0)
    return inter / (area_a + area_b - inter)


def assert_same_bits(got, want):
    """Entry for entry equal, signs of zero included; a nan (an infinite area
    on both boxes makes the union inf - inf) must sit where the oracle has one."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def iou_loops(a, b):
    """The scalar oracle: `iou` of every pair, one pair at a time."""
    out = np.zeros((len(a), len(b)))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i, j] = iou(x, y)
    return out


def test_bbox_rejects_degenerate():
    with pytest.raises(ValueError):
        BBox(0, 0, 0, 10)
    with pytest.raises(ValueError):
        BBox(0, 0, 10, -1)
    with pytest.raises(ValueError):
        BBox(math.nan, 0, 10, 10)
    with pytest.raises(ValueError):   # the area underflows to 0: IoU would be 0/0
        BBox(0, 0, 1e-200, 1e-200)


def test_iou_identity():
    a = BBox(3, 4, 10, 12)
    assert iou(a, a) == 1.0


@given(boxes)
def test_iou_with_itself_is_exactly_one(b):
    assert iou(b, b) == 1.0
    assert iou_matrix(ltwh_array([b]), ltwh_array([b]))[0, 0] == 1.0


def test_iou_with_itself_inexact_bottom_edge():
    # (top + height) - top is 11.999999999999993 here, not 12
    b = BBox(173.49288612410342, 60.70472404915453, 12, 12)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou(BBox(0, 0, 10, 10), BBox(100, 100, 5, 5)) == 0.0


def test_iou_half_overlap():
    # intersection 5x10=50, union 100+100-50=150
    assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10)) == pytest.approx(1 / 3)


@given(boxes, boxes)
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0


@given(boxes, boxes, st.floats(-50, 50), st.floats(-50, 50))
def test_translation_invariance(a, b, dx, dy):
    assert iou(a.translate(dx, dy), b.translate(dx, dy)) == pytest.approx(iou(a, b))


def test_aspect_ratio():
    assert aspect_ratio(BBox(0, 0, 28, 32)) == pytest.approx(32 / 28)
    assert aspect_ratio(BBox(0, 0, 7, 7)) == 1.0
    assert aspect_ratio(BBox(0, 0, 10, 5)) == 0.5


@settings(max_examples=300)
@given(st.lists(st.one_of(boxes, grid_boxes), max_size=8),
       st.lists(st.one_of(boxes, grid_boxes), max_size=8))
def test_iou_matrix_equals_scalar_iou(a, b):
    got = iou_matrix(ltwh_array(a), ltwh_array(b))
    assert got.shape == (len(a), len(b))
    assert np.array_equal(got, iou_loops(a, b))


@pytest.mark.parametrize("a,b", [
    (BBox(0, 0, 10, 10), BBox(100, 100, 5, 5)),    # disjoint
    (BBox(0, 0, 10, 10), BBox(10, 0, 10, 10)),     # touching left/right edges
    (BBox(0, 0, 10, 10), BBox(0, 10, 10, 10)),     # touching top/bottom edges
    (BBox(0, 0, 10, 10), BBox(10, 10, 3, 3)),      # touching corners
    (BBox(0, 0, 10, 10), BBox(2, 3, 4, 5)),        # nested
    (BBox(0.1, 0.2, 0.3, 0.7), BBox(0.1, 0.2, 0.3, 0.7)),  # coincident, inexact edges
])
def test_iou_matrix_edge_cases(a, b):
    got = iou_matrix(ltwh_array([a, b]), ltwh_array([b, a]))
    assert np.array_equal(got, iou_loops([a, b], [b, a]))


@pytest.mark.parametrize("n,m", [(0, 3), (3, 0), (0, 0)])
def test_iou_matrix_empty_shapes(n, m):
    a, b = ltwh_array([BBox(0, 0, 5, 5)] * n), ltwh_array([BBox(1, 1, 5, 5)] * m)
    assert a.shape == (n, 4) and b.shape == (m, 4)
    assert iou_matrix(a, b).shape == (n, m)


@settings(max_examples=500)
@given(st.lists(st.one_of(wide_boxes, grid_boxes), max_size=8),
       st.lists(st.one_of(wide_boxes, grid_boxes), max_size=8))
def test_iou_matrix_equals_full_formula(a, b):
    a, b = ltwh_array(a), ltwh_array(b)
    got = iou_matrix(a, b)
    assert_same_bits(got, iou_matrix_full(a, b))
    assert got.flags.writeable and got.base is None   # detection_ap writes into it


def test_nested_box_whose_right_edge_rounds_to_its_left():
    # 1e300 + 1e-3 == 1e300, yet the thin box lies inside the wide one
    a = ltwh_array([BBox(1e300, 0, 1e-3, 1), BBox(1e300, 0, 1e-3, 1)])
    b = ltwh_array([BBox(1e300, 0, 1e290, 1), BBox(-1e300, 0, 1e-3, 1)])
    got = iou_matrix(a, b)
    assert got[0, 0] > 0
    assert_same_bits(got, iou_matrix_full(a, b))
    assert_same_bits(got, iou_loops([BBox(*r) for r in a], [BBox(*r) for r in b]))


# Kalman states as the tracker may hold them: a shrinking or negative aspect
# or height clamps the predicted width or height to the smallest normal
# float, and a huge aspect * height overflows the width to inf (left = -inf)
z_rows = st.tuples(st.floats(-100, 100), st.floats(-100, 100),
                   st.one_of(st.floats(-10, 10), st.sampled_from([0.0, 1e-300, 1e300, 1e308])),
                   st.one_of(st.floats(-10, 50), st.sampled_from([0.0, -1.0, 1e-320, 1e300])))


@settings(max_examples=300)
@given(st.lists(z_rows, max_size=8), st.lists(st.one_of(boxes, grid_boxes), max_size=8))
def test_iou_matrix_on_tracker_predictions(z, dets):
    predicted = tracker._z_to_ltwh(np.array(z, dtype=np.float64).reshape(-1, 4))
    got = iou_matrix(predicted, ltwh_array(dets))
    assert not np.isnan(got).any()
    assert_same_bits(got, iou_matrix_full(predicted, ltwh_array(dets)))


def test_iou_matrix_on_overflowed_prediction():
    predicted = tracker._z_to_ltwh(np.array([[5.0, 5.0, 1e300, 1e300],
                                             [5.0, 5.0, -1.0, 1e-320]]))
    assert predicted[0, 0] == -np.inf and predicted[0, 2] == np.inf
    assert predicted[1, 2] == predicted[1, 3] == np.finfo(np.float64).tiny
    dets = ltwh_array([BBox(0, 0, 10, 10), BBox(4, 4, 2, 2)])
    got = iou_matrix(predicted, dets)
    assert not np.isnan(got).any()
    assert_same_bits(got, iou_matrix_full(predicted, dets))


def _pipeline(seed):
    """Every consumer of iou_matrix on a 90-head scene: corrupt's occlusion
    test, Byte association, the evaluator and detection AP."""
    gt, _ = simulate.simulate(simulate.ScenarioConfig(agent_count=90, duration=12, seed=seed))
    dets = simulate.corrupt(gt, simulate.NoiseModel(
        miss_rate=0.1, fp_rate=5.0, center_jitter=1.0, size_jitter=0.5,
        tp_score=(0.85, 0.1), occlusion_drop=0.5, seed=seed))
    rows = tracker.run_tracker(dets, tracker.TrackerConfig(mode="byte"))
    gt_boxes: dict[int, list[BBox]] = {}
    for r in gt:
        gt_boxes.setdefault(r.frame, []).append(r.bbox)
    ap = metrics.detection_ap(gt_boxes, [(f, r.confidence, r.bbox)
                                         for f, recs in dets.items() for r in recs])
    return dets, rows, metrics.evaluate(gt, rows), ap


@pytest.mark.parametrize("seed", [0, 7])
def test_consumers_equal_with_full_formula(monkeypatch, seed):
    real = _pipeline(seed)
    callers = set()

    def oracle_matrix(a, b):
        callers.add(inspect.currentframe().f_back.f_code.co_name)
        return iou_matrix_full(a, b)

    for module in (geometry, metrics, simulate, tracker):
        monkeypatch.setattr(module, "iou_matrix", oracle_matrix)
    oracle = _pipeline(seed)
    assert callers == {"corrupt", "associate", "sequence_counts", "detection_ap"}
    assert real[0] == oracle[0]        # corrupt's records
    assert real[1] == oracle[1]        # tracker rows
    assert real[2] == oracle[2]        # MotReport
    assert real[3] == oracle[3]        # detection AP
    assert 0 < real[3] < 1 and real[2].MOTA > 0
