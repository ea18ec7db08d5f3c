"""CLEAR-MOT, identity metrics, track-quality counts, and AP50.

Per-frame matching is persistent: pairs matched in the previous frame are
kept while their IoU stays above the threshold, the rest go through a
minimum-cost assignment gated at the threshold. An ID switch is counted when
a ground-truth identity's matched prediction differs from its last-ever
matched prediction.

A sequence is evaluated in one sweep over its frames: each frame's IoU matrix
feeds the per-frame matching and adds to a (gt id, pred id) count of frames
the pair overlaps in, on which one global assignment then gives the identity
metrics.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter

import numpy as np

from .geometry import BBox, iou, iou_matrix, ltwh_array
from .motio import AnnotationRecord
from .tracker import hungarian

DEFAULT_IOU_THRESHOLD = 0.5
MT_COVERAGE = 0.8
ML_COVERAGE = 0.2
_LTWH = attrgetter("left", "top", "width", "height")


class MetricsError(ValueError):
    pass


@dataclass
class EvalAccumulator:
    """Running per-frame matching state for one sequence."""

    iou_threshold: float = DEFAULT_IOU_THRESHOLD
    tp: int = 0
    fp: int = 0
    fn: int = 0
    idsw: int = 0
    total_gt: int = 0
    total_pred: int = 0
    gt_frames: dict[int, int] = field(default_factory=dict)   # gt id -> frames present
    gt_matched: dict[int, int] = field(default_factory=dict)  # gt id -> frames matched
    prev_pairs: dict[int, int] = field(default_factory=dict)  # matches in previous frame
    last_match: dict[int, int] = field(default_factory=dict)  # last-ever matched pred id

    def coverage(self) -> dict[int, float]:
        return {g: self.gt_matched.get(g, 0) / n for g, n in self.gt_frames.items()}


def match_frame(gt: list[tuple[int, BBox]], pred: list[tuple[int, BBox]],
                acc: EvalAccumulator, ious: np.ndarray | None = None) -> dict[int, int]:
    """Match one frame's boxes and fold the result into the accumulator.

    gt and pred are (id, bbox) lists; ious, if given, is their (len(gt),
    len(pred)) IoU matrix. Returns the gt_id -> pred_id matching.
    """
    gt_ids = [g for g, _ in gt]
    pred_ids = [p for p, _ in pred]
    if len(set(gt_ids)) != len(gt_ids) or len(set(pred_ids)) != len(pred_ids):
        raise MetricsError("duplicate ids within a frame")
    gt_boxes = dict(gt)
    pred_boxes = dict(pred)
    thr = acc.iou_threshold

    pairs: dict[int, int] = {}
    for g, p in acc.prev_pairs.items():
        if g in gt_boxes and p in pred_boxes and iou(gt_boxes[g], pred_boxes[p]) >= thr:
            pairs[g] = p

    free_gt = [i for i, g in enumerate(gt_ids) if g not in pairs]
    used_pred = set(pairs.values())
    free_pred = [j for j, p in enumerate(pred_ids) if p not in used_pred]
    if free_gt and free_pred:
        if ious is None:
            ious = iou_matrix(ltwh_array(b for _, b in gt), ltwh_array(b for _, b in pred))
        cost = 1.0 - ious[np.ix_(free_gt, free_pred)]
        for i, j in hungarian(cost).matches:
            if cost[i, j] <= 1.0 - thr:
                pairs[gt_ids[free_gt[i]]] = pred_ids[free_pred[j]]

    for g, p in pairs.items():
        if g in acc.last_match and acc.last_match[g] != p:
            acc.idsw += 1
        acc.last_match[g] = p
        acc.gt_matched[g] = acc.gt_matched.get(g, 0) + 1
    for g in gt_ids:
        acc.gt_frames[g] = acc.gt_frames.get(g, 0) + 1

    acc.tp += len(pairs)
    acc.fn += len(gt_ids) - len(pairs)
    acc.fp += len(pred_ids) - len(pairs)
    acc.total_gt += len(gt_ids)
    acc.total_pred += len(pred_ids)
    acc.prev_pairs = dict(pairs)
    return pairs


def clearmot(acc: EvalAccumulator) -> dict[str, float]:
    """MOTA, recall, precision, and the raw counts they derive from."""
    if acc.total_gt == 0:
        raise MetricsError("no ground-truth boxes")
    prcn = acc.tp / acc.total_pred if acc.total_pred else 0.0
    return {
        "MOTA": 1.0 - (acc.fn + acc.fp + acc.idsw) / acc.total_gt,
        "Rcll": acc.tp / acc.total_gt,
        "Prcn": prcn,
        "IDs": acc.idsw,
        "FP": acc.fp,
        "FN": acc.fn,
    }


def track_quality(coverage: dict[int, float]) -> tuple[int, int, int]:
    """(MT, PT, ML): mostly tracked >= 0.8 coverage, mostly lost <= 0.2."""
    mt = sum(1 for c in coverage.values() if c >= MT_COVERAGE)
    ml = sum(1 for c in coverage.values() if c <= ML_COVERAGE)
    return mt, len(coverage) - mt - ml, ml


def _id_counts(gt: list[AnnotationRecord], pred: list[AnnotationRecord],
               iou_threshold: float) -> tuple[int, int, int]:
    """(IDTP, IDFP, IDFN) from the optimal global trajectory pairing."""
    counts = sequence_counts(gt, pred, iou_threshold)
    return counts["IDTP"], counts["IDFP"], counts["IDFN"]


def _id_assignment(overlap: Counter) -> int:
    """IDTP: the most frames matched under a one-to-one pairing of gt and pred
    ids, given each pair's count of overlapping frames.

    A pairing's IDFP + IDFN is the gt and pred box totals less twice its
    matched frames, so the pairing that minimises it maximises the matched
    frames. An id that overlaps nothing adds nothing to any pairing, so it
    takes no row or column."""
    g_row: dict[int, int] = {}
    p_col: dict[int, int] = {}
    for g, p in overlap:
        g_row.setdefault(g, len(g_row))
        p_col.setdefault(p, len(p_col))
    ov = np.zeros((len(g_row), len(p_col)), dtype=np.int64)
    for (g, p), n in overlap.items():
        ov[g_row[g], p_col[p]] = n
    return sum(int(ov[i, j]) for i, j in hungarian(-ov).matches)


def id_metrics(gt: list[AnnotationRecord], pred: list[AnnotationRecord],
               iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> dict[str, float]:
    return _id_scores(*_id_counts(gt, pred, iou_threshold))


def _id_scores(idtp: int, idfp: int, idfn: int) -> dict[str, float]:
    idf1 = 2 * idtp / (2 * idtp + idfp + idfn) if (idtp + idfp + idfn) else 1.0
    idp = idtp / (idtp + idfp) if (idtp + idfp) else 0.0
    idr = idtp / (idtp + idfn) if (idtp + idfn) else 0.0
    return {"IDF1": idf1, "IDP": idp, "IDR": idr,
            "IDTP": idtp, "IDFP": idfp, "IDFN": idfn}


def detection_ap(gt: dict[int, list[BBox]], preds: list[tuple[int, float, BBox]],
                 iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> float:
    """AP at the given IoU threshold with 101-point interpolation.

    gt maps frame -> boxes; preds are (frame, score, bbox) triples. Ties go by
    content: preds rank by (-score, frame, left, top, width, height), and each
    frame's gt boxes are matched in (left, top, width, height) order.
    """
    n_gt = sum(len(v) for v in gt.values())
    if n_gt == 0:
        raise MetricsError("empty ground truth")
    order = sorted(range(len(preds)),
                   key=lambda i: (-preds[i][1], preds[i][0], *_LTWH(preds[i][2])))
    ranked: dict[int, list[int]] = {}   # frame -> its preds, best first
    for i in order:
        ranked.setdefault(preds[i][0], []).append(i)
    tp = np.zeros(len(preds), dtype=bool)
    for frame, idx in ranked.items():
        ious = iou_matrix(ltwh_array(preds[i][2] for i in idx),
                          ltwh_array(sorted(gt.get(frame, []), key=_LTWH)))
        for i, row in zip(idx, ious):
            if row.size and 0 < row.max() >= iou_threshold:
                ious[:, row.argmax()] = 0.0   # a gt box is matched at most once
                tp[i] = True
    tp_cum = np.cumsum(tp[order])
    precision = tp_cum / np.arange(1, len(preds) + 1)
    recall = tp_cum / n_gt
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        mask = recall >= r - 1e-12
        ap += precision[mask].max() if mask.any() else 0.0
    return ap / 101.0


@dataclass
class MotReport:
    """All Table-style metric columns for one sequence (or an aggregate)."""

    IDF1: float
    IDs: int
    IDP: float
    IDR: float
    MT: int
    PT: int
    ML: int
    Rcll: float
    Prcn: float
    MOTA: float
    FP: int
    FN: int

    COLUMNS = ("IDF1", "IDs", "IDP", "IDR", "MT", "PT", "ML", "Rcll", "Prcn", "MOTA")

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in (*self.COLUMNS, "FP", "FN")}

    def format_row(self, name: str = "") -> str:
        cells = []
        for k in self.COLUMNS:
            v = getattr(self, k)
            cells.append(f"{v:d}" if isinstance(v, int) else f"{100 * v:.2f}")
        return " ".join([f"{name:<16}"] + [f"{c:>8}" for c in cells])

    @staticmethod
    def header(label: str = "Sequence") -> str:
        return " ".join([f"{label:<16}"] + [f"{c:>8}" for c in MotReport.COLUMNS])


_CLEAR_COUNTS = ("tp", "fp", "fn", "idsw", "total_gt", "total_pred")


def _by_frame(records: list[AnnotationRecord]) -> dict[int, list[tuple[int, BBox]]]:
    """frame -> (id, bbox) list in id order, so that results do not depend on
    the order of records in a file."""
    out: dict[int, list[tuple[int, BBox]]] = {}
    for r in records:
        out.setdefault(r.frame, []).append((r.track_id, r.bbox))
    for boxes in out.values():
        boxes.sort(key=itemgetter(0))
    return out


def sequence_counts(gt: list[AnnotationRecord], pred: list[AnnotationRecord],
                    iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> Counter:
    """One sweep over a sequence (the union of frames present in gt or pred):
    the raw counts that every MotReport column derives from."""
    if not (math.isfinite(iou_threshold) and 0 < iou_threshold <= 1):
        raise MetricsError(f"IoU threshold must be in (0, 1], got {iou_threshold}")
    acc = EvalAccumulator(iou_threshold=iou_threshold)
    overlap: Counter = Counter()   # (gt id, pred id) -> frames with IoU >= threshold
    by_frame_gt, by_frame_pred = _by_frame(gt), _by_frame(pred)
    for f in sorted(by_frame_gt.keys() | by_frame_pred.keys()):
        g, p = by_frame_gt.get(f, []), by_frame_pred.get(f, [])
        ious = iou_matrix(ltwh_array(b for _, b in g), ltwh_array(b for _, b in p))
        match_frame(g, p, acc, ious)
        gi, pj = np.nonzero(ious >= iou_threshold)
        overlap.update((g[i][0], p[j][0]) for i, j in zip(gi.tolist(), pj.tolist()))
    counts = Counter({k: getattr(acc, k) for k in _CLEAR_COUNTS})
    counts.update(dict(zip(("MT", "PT", "ML"), track_quality(acc.coverage()))))
    idtp = _id_assignment(overlap)
    counts.update(IDTP=idtp, IDFP=len(pred) - idtp, IDFN=len(gt) - idtp)
    return counts


def report(*per_sequence: Counter) -> MotReport:
    """The MotReport of one sequence's counts, or of several sequences' summed counts."""
    counts = sum(per_sequence, Counter())
    clear = clearmot(EvalAccumulator(**{k: counts[k] for k in _CLEAR_COUNTS}))
    ids = _id_scores(counts["IDTP"], counts["IDFP"], counts["IDFN"])
    return MotReport(IDF1=ids["IDF1"], IDs=clear["IDs"], IDP=ids["IDP"], IDR=ids["IDR"],
                     MT=counts["MT"], PT=counts["PT"], ML=counts["ML"],
                     Rcll=clear["Rcll"], Prcn=clear["Prcn"], MOTA=clear["MOTA"],
                     FP=clear["FP"], FN=clear["FN"])


def evaluate(gt: list[AnnotationRecord], pred: list[AnnotationRecord],
             iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> MotReport:
    """Full sequence evaluation over the union of frames present in gt or pred."""
    return report(sequence_counts(gt, pred, iou_threshold))


def aggregate(per_sequence: list[tuple[list[AnnotationRecord], list[AnnotationRecord]]],
              iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> MotReport:
    """Boxes-weighted aggregate: raw counts are summed across sequences."""
    return report(*(sequence_counts(gt, pred, iou_threshold) for gt, pred in per_sequence))
