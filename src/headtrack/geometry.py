"""Axis-aligned bounding box arithmetic.

Boxes are continuous (sub-pixel) and stored as (left, top, width, height).
Area is width * height with no +1 pixel convention. `iou` scores one pair;
`iou_rows` scores row-aligned pairs of two (K, 4) ltwh arrays and
`iou_matrix` every pair of two (N, 4) ones, with the same arithmetic, so all
three give bit-identical values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class BBox:
    """A box in pixel space: top-left corner plus size."""

    left: float
    top: float
    width: float
    height: float

    def __post_init__(self):
        for v in (self.left, self.top, self.width, self.height):
            if not math.isfinite(v):
                raise ValueError(f"non-finite box coordinate: {self!r}")
        if self.width <= 0 or self.height <= 0 or not self.width * self.height > 0:
            raise ValueError(f"degenerate box (width, height and area must be > 0): {self!r}")

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.left + self.width / 2.0, self.top + self.height / 2.0)

    def translate(self, dx: float, dy: float) -> "BBox":
        return BBox(self.left + dx, self.top + dy, self.width, self.height)


def _overlap(lo_a: float, len_a: float, lo_b: float, len_b: float) -> float:
    """Length of the overlap of [lo_a, lo_a + len_a] and [lo_b, lo_b + len_b];
    negative when they are apart. A contained interval overlaps by its own
    length, which `(lo + len) - lo` may miss by a rounding."""
    hi_a, hi_b = lo_a + len_a, lo_b + len_b
    if lo_a <= lo_b and hi_b <= hi_a:
        return len_b
    if lo_b <= lo_a and hi_a <= hi_b:
        return len_a
    return min(hi_a, hi_b) - max(lo_a, lo_b)


def intersection_area(a: BBox, b: BBox) -> float:
    w = _overlap(a.left, a.width, b.left, b.width)
    h = _overlap(a.top, a.height, b.top, b.height)
    if w <= 0 or h <= 0:
        return 0.0
    # rounding in the far edges can push w*h a hair past the smaller box
    return min(w * h, a.area, b.area)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0 for disjoint boxes, 1 iff they coincide."""
    inter = intersection_area(a, b)
    union = a.area + b.area - inter
    return inter / union


def ltwh_array(boxes: Iterable[BBox]) -> np.ndarray:
    """An (N, 4) float64 array of (left, top, width, height) rows."""
    return np.array([(b.left, b.top, b.width, b.height) for b in boxes],
                    dtype=np.float64).reshape(-1, 4)


def _overlap_array(lo_a: np.ndarray, len_a: np.ndarray,
                   lo_b: np.ndarray, len_b: np.ndarray) -> np.ndarray:
    """`_overlap` elementwise, with the same branches in the same order."""
    hi_a, hi_b = lo_a + len_a, lo_b + len_b
    return np.where((lo_a <= lo_b) & (hi_b <= hi_a), len_b,
                    np.where((lo_b <= lo_a) & (hi_a <= hi_b), len_a,
                             np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)))


def iou_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each row of a (K, 4) with the same row of b (K, 4), both ltwh:
    `iou` of each pair, bit for bit."""
    al, at, aw, ah = a.T
    bl, bt, bw, bh = b.T
    w = _overlap_array(al, aw, bl, bw)
    h = _overlap_array(at, ah, bt, bh)
    area_a, area_b = aw * ah, bw * bh
    inter = np.where((w > 0) & (h > 0),
                     np.minimum(np.minimum(w * h, area_a), area_b), 0.0)
    return inter / (area_a + area_b - inter)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every row of a (N, 4) with every row of b (M, 4), both ltwh: an
    (N, M) array whose every entry is bit-identical to `iou` of that pair.
    Only pairs whose extents meet on both axes can have a positive `_overlap`
    on both, so only they go through `iou_rows`; the rest are 0 / union,
    which is +0.0 for valid boxes (union > 0 or inf)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    al, at, aw, ah = a.T
    bl, bt, bw, bh = b.T
    i, j = np.nonzero((al[:, None] <= bl + bw) & (bl <= (al + aw)[:, None])
                      & (at[:, None] <= bt + bh) & (bt <= (at + ah)[:, None]))
    out = np.zeros((len(a), len(b)))
    out[i, j] = iou_rows(a[i], b[j])
    return out
