"""Desk-scale pedestrian head tracking toolkit.

Subpackages cover box geometry, annotation I/O and dataset statistics,
five-source map generation, attention-based feature fusion with a minimal
autodiff layer, SORT/Byte tracking-by-detection, MOT evaluation metrics, and
a synthetic crowd simulator for end-to-end testing.
"""

__version__ = "0.1.0"

from .geometry import BBox, aspect_ratio, iou  # noqa: F401
