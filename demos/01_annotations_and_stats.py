"""Walkthrough: the 9-field annotation format, dataset statistics, resampling.

Each line of an annotation file is
    id, frame, left, top, width, height, conf, category, visibility
(paper_order) or the same with the first two fields swapped (standard_order).
"""
import numpy as np

from headtrack.geometry import BBox
from headtrack.motio import (
    AnnotationRecord,
    FieldOrder,
    compute_stats,
    parse_annotations,
    resample_framerate,
    table,
    write_annotations,
)

# Four heads in frame 1, all 28x32-ish boxes.
lines = [
    "1, 1, 57, 86, 28, 32, 1, 1, 1",
    "2, 1, 55, 87, 28, 32, 1, 1, 1",
    "3, 1, 60, 85, 28, 32, 1, 1, 1",
    "4, 1, 63, 85, 29, 31, 1, 1, 1",
]
records = parse_annotations(lines, FieldOrder.paper_order)
print("parsed records:")
for r in records:
    print(f"  id={r.track_id} frame={r.frame} box=({r.bbox.left}, {r.bbox.top}, "
          f"{r.bbox.width}, {r.bbox.height})")

# Writing is the exact inverse of parsing, in either field order.
print("\ncanonical serialization (standard_order):")
for line in write_annotations(records, FieldOrder.standard_order):
    print(" ", line.strip())

# Build a larger random sequence and summarize it.
rng = np.random.default_rng(0)
seq = []
for tid in range(1, 31):
    x, y = rng.uniform(0, 600, 2)
    for frame in range(1, 101):
        w = float(rng.uniform(20, 30))
        seq.append(AnnotationRecord(frame, tid, BBox(x + frame, y, w, w * 1.1)))

# The statistics and resampling work on the (N, 9) table that annotation
# files are read into (columns frame, id, left, top, width, height, ...).
seq = table(seq)
stats = compute_stats(seq, frame_count=100)
print(f"\nsequence: {stats.boxes} boxes, {stats.tracks} tracks over "
      f"{stats.frames} frames -> density {stats.density:.2f} heads/frame")
print(f"fraction of near-square boxes (h/w in [0.8, 1.4]): "
      f"{stats.ratio_mass:.3f}")

# Framerate resampling keeps every k-th frame and renumbers from 1.
half = resample_framerate(seq, 2)
print(f"\nresample by 2: {len(seq)} -> {len(half)} boxes, "
      f"max frame {half[:, 0].max():.0f}")
