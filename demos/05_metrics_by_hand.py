"""Walkthrough: the evaluation metrics on fixtures you can verify by hand.

CLEAR-MOT counts per-frame errors (FN, FP, ID switches); identity metrics
score a single global trajectory pairing.
"""
from headtrack.geometry import BBox
from headtrack.metrics import evaluate, id_metrics
from headtrack.motio import AnnotationRecord

# --- CLEAR-MOT: 6 GT boxes, one miss, one false positive -> MOTA = 1 - 2/6
boxes = [BBox(0, 0, 10, 10), BBox(50, 0, 10, 10), BBox(100, 0, 10, 10)]
gt = [AnnotationRecord(f, t, boxes[t - 1]) for f in (1, 2) for t in (1, 2, 3)]
pred = ([AnnotationRecord(1, t, boxes[t - 1]) for t in (1, 2)]          # one FN
        + [AnnotationRecord(2, t, boxes[t - 1]) for t in (1, 2, 3)]
        + [AnnotationRecord(2, 9, BBox(300, 300, 10, 10))])              # one FP
m = evaluate(gt, pred)
print(f"CLEAR-MOT fixture: FN={m.FN} FP={m.FP} IDs={m.IDs} -> MOTA={m.MOTA:.4f}")

# --- ID switch: the matched prediction id changes once mid-track.
b = BBox(0, 0, 10, 10)
gt = [AnnotationRecord(f, 1, b) for f in range(1, 5)]
pred = [AnnotationRecord(f, pred_id, b) for f, pred_id in zip(range(1, 5), (7, 7, 8, 8))]
print(f"ID-switch fixture: IDs={evaluate(gt, pred).IDs} (pred id went 7 -> 8)")

# --- IDF1: a GT track of 100 frames split across two prediction ids.
gt = [AnnotationRecord(f, 1, b) for f in range(1, 101)]
pred = ([AnnotationRecord(f, 10, b) for f in range(1, 51)]
        + [AnnotationRecord(f, 20, b) for f in range(51, 101)])
ids = id_metrics(gt, pred)
print(f"split-track fixture: IDF1={ids['IDF1']:.3f} "
      f"(the pairing keeps one half, loses the other)")
