import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from headtrack.geometry import BBox, aspect_ratio, iou, iou_matrix, ltwh_array

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
