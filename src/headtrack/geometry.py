"""Axis-aligned bounding box arithmetic.

Boxes are continuous (sub-pixel) and stored as (left, top, width, height).
Area is width * height with no +1 pixel convention. `iou` scores one pair;
`iou_matrix` scores every pair of two (N, 4) ltwh arrays with the same
arithmetic, so both give bit-identical values.
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
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"degenerate box (width/height must be > 0): {self!r}")

    @property
    def right(self) -> float:
        return self.left + self.width

    @property
    def bottom(self) -> float:
        return self.top + self.height

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
    # rounding in right/bottom can push w*h a hair past the smaller box
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


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every row of a (N, 4) with every row of b (M, 4), both ltwh: an
    (N, M) array whose every entry is bit-identical to `iou` of that pair."""
    al, at, aw, ah = np.asarray(a, dtype=np.float64).T[:, :, None]
    bl, bt, bw, bh = np.asarray(b, dtype=np.float64).T[:, None, :]
    w = _overlap_array(al, aw, bl, bw)
    h = _overlap_array(at, ah, bt, bh)
    area_a, area_b = aw * ah, bw * bh
    inter = np.where((w > 0) & (h > 0),
                     np.minimum(np.minimum(w * h, area_a), area_b), 0.0)
    return inter / (area_a + area_b - inter)


def giou(a: BBox, b: BBox) -> float:
    """Generalized IoU: iou minus (hull area - union area) / hull area.

    Lies in (-1, 1]; equals iou when the enclosing hull is exactly the union.
    """
    inter = intersection_area(a, b)
    union = a.area + b.area - inter
    hull_w = max(a.right, b.right) - min(a.left, b.left)
    hull_h = max(a.bottom, b.bottom) - min(a.top, b.top)
    hull = hull_w * hull_h
    return inter / union - (hull - union) / hull


def aspect_ratio(b: BBox) -> float:
    """Height divided by width."""
    return b.height / b.width
