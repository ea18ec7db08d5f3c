"""CLEAR-MOT, identity metrics, track-quality counts, and AP50.

Per-frame matching is persistent: pairs matched in the previous frame are
kept while their IoU stays above the threshold, the rest go through a
minimum-cost assignment gated at the threshold. An ID switch is counted when
a ground-truth identity's matched prediction differs from its last-ever
matched prediction.

A sequence, given as record lists or as (N, 9) tables (see `motio`), is
evaluated in one sweep over its frames. Each side is sorted once by
(frame, id), and each frame is a span of those rows. The frame's IoU matrix
feeds the per-frame matching, and its pairs at or above the threshold are
counted once the sweep ends: frames overlapped per (gt id, pred id), on which
one global assignment then gives IDTP. The sweep's counts give every
MotReport column; FP, FN, IDFP and IDFN are box totals less matches.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from .geometry import BBox, iou, iou_matrix, ltwh_array
from .motio import AnnotationRecord, table
from .tracker import hungarian

DEFAULT_IOU_THRESHOLD = 0.5
MT_COVERAGE = 0.8
ML_COVERAGE = 0.2
_LTWH = attrgetter("left", "top", "width", "height")

# a sequence's boxes of one side: a record list or an (N, 9) table (see `motio`)
Annotations = list[AnnotationRecord] | np.ndarray
# one frame's rows of one side, in id order: (ids, ltwh boxes, bboxes), where
# bboxes[i] is the `BBox` of row i
Frame = tuple[list[int], np.ndarray, Sequence[BBox]]


class MetricsError(ValueError):
    pass


def _check_iou_threshold(iou_threshold: float) -> None:
    if not (math.isfinite(iou_threshold) and 0 < iou_threshold <= 1):
        raise MetricsError(f"IoU threshold must be in (0, 1], got {iou_threshold}")


def match_frame(gt: Frame, pred: Frame, prev: dict[int, int], ious: np.ndarray,
                thr: float) -> dict[int, int]:
    """One frame's gt_id -> pred_id matching.

    gt and pred are a frame's (ids, boxes, bboxes): ids a list in ascending
    order, boxes their (n, 4) ltwh array and bboxes[i] row i's `BBox`. ious is
    their (len(gt), len(pred)) IoU matrix and prev the previous frame's
    matching. A pair of prev whose two ids are both present is kept while the
    scalar `iou` of its bboxes is at least thr; the other rows go through one
    assignment on ious, gated at thr. Exact IoU ties in the assignment go by
    box (left, top, width, height), then by id.
    """
    (g_ids, g_boxes, g_bbox), (p_ids, p_boxes, p_bbox) = gt, pred
    g_row = dict(zip(g_ids, range(len(g_ids))))
    p_row = dict(zip(p_ids, range(len(p_ids))))
    pairs = {g: p for g, p in prev.items() if g in g_row and p in p_row
             and iou(g_bbox[g_row[g]], p_bbox[p_row[p]]) >= thr}
    used = set(pairs.values())
    rows = [i for i, g in enumerate(g_ids) if g not in pairs]
    cols = [j for j, p in enumerate(p_ids) if p not in used]
    if rows and cols:
        # lexsort is stable, so equal boxes keep their id order
        rows = np.array(rows)[np.lexsort(g_boxes[rows].T[::-1])]
        cols = np.array(cols)[np.lexsort(p_boxes[cols].T[::-1])]
        free = ious[np.ix_(rows, cols)]
        i, j = hungarian(1.0 - free).matches.T
        hit = free[i, j] >= thr
        pairs.update(zip((g_ids[r] for r in rows[i[hit]].tolist()),
                         (p_ids[c] for c in cols[j[hit]].tolist())))
    return pairs


def track_quality(coverage: dict[int, float]) -> tuple[int, int, int]:
    """(MT, PT, ML): mostly tracked >= 0.8 coverage, mostly lost <= 0.2."""
    mt = sum(1 for c in coverage.values() if c >= MT_COVERAGE)
    ml = sum(1 for c in coverage.values() if c <= ML_COVERAGE)
    return mt, len(coverage) - mt - ml, ml


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
    rows, cols = hungarian(-ov).matches.T
    return int(ov[rows, cols].sum())


def id_metrics(gt: Annotations, pred: Annotations,
               iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> dict[str, float]:
    return _id_scores(sequence_counts(gt, pred, iou_threshold))


def _id_scores(c: Counter) -> dict[str, float]:
    """Identity scores of (summed) sequence counts; IDFP and IDFN are box totals less IDTP."""
    idtp = c["IDTP"]
    idfp, idfn = c["n_pred"] - idtp, c["n_gt"] - idtp
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
    _check_iou_threshold(iou_threshold)
    n_gt = sum(len(v) for v in gt.values())
    if n_gt == 0:
        raise MetricsError("empty ground truth")
    if not all(math.isfinite(score) for _, score, _ in preds):
        raise MetricsError("prediction scores must be finite")
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
            if row.size and row.max() >= iou_threshold:
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


class _Rows:
    """The `BBox` of each row of an (N, 4) ltwh array, built when indexed."""

    def __init__(self, boxes: np.ndarray):
        self.boxes = boxes

    def __getitem__(self, i: int) -> BBox:
        return BBox(*self.boxes[i].tolist())


def _sorted(seq: Annotations):
    """The frames and ids of a record list or an (N, 9) table, its rows sorted
    by (frame, id), and a function of a span [a, b) of those rows that gives
    its `Frame`. A row's bbox is its record's `bbox`, or for a table a `BBox`
    built from the row."""
    tab = np.reshape(seq, (-1, 9)) if isinstance(seq, np.ndarray) else table(seq)
    order = np.lexsort((tab[:, 1], tab[:, 0]))
    frames, ids = tab[order, 0], tab[order, 1].astype(np.int64)
    if ((frames[1:] == frames[:-1]) & (ids[1:] == ids[:-1])).any():
        raise MetricsError("duplicate ids within a frame")
    id_list, boxes = ids.tolist(), tab[order, 2:6]
    if isinstance(seq, np.ndarray):
        return frames, ids, lambda a, b: (id_list[a:b], boxes[a:b], _Rows(boxes[a:b]))
    bboxes = [seq[k].bbox for k in order.tolist()]
    return frames, ids, lambda a, b: (id_list[a:b], boxes[a:b], bboxes[a:b])


def sequence_counts(gt: Annotations, pred: Annotations,
                    iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> Counter:
    """One sweep over a sequence (the union of frames present in gt or pred):
    the counts that every MotReport column derives from. gt and pred are
    record lists or (N, 9) tables (see `motio`), in any row order."""
    _check_iou_threshold(iou_threshold)
    (g_frame, g_id, g_span), (p_frame, p_id, p_span) = _sorted(gt), _sorted(pred)
    frames = np.union1d(g_frame, p_frame)
    spans = [np.searchsorted(f, frames, side).tolist()
             for f in (g_frame, p_frame) for side in ("left", "right")]
    pairs: dict[int, int] = {}        # gt id -> pred id in the last frame
    last_match: dict[int, int] = {}   # gt id -> last-ever matched pred id
    matched: Counter = Counter()      # gt id -> frames matched
    none = np.zeros(0, dtype=np.intp)
    g_rows, p_rows = [none], [none]   # row pairs with IoU >= threshold
    idsw = 0
    for a, b, c, d in zip(*spans):
        g, p = g_span(a, b), p_span(c, d)
        ious = iou_matrix(g[1], p[1])
        pairs = match_frame(g, p, pairs, ious, iou_threshold)
        idsw += sum(last_match.get(gi, pi) != pi for gi, pi in pairs.items())
        last_match.update(pairs)
        matched.update(pairs.keys())
        i, j = np.nonzero(ious >= iou_threshold)
        g_rows.append(a + i)
        p_rows.append(c + j)
    # (gt id, pred id) -> frames with IoU >= threshold
    overlap = Counter(zip(g_id[np.concatenate(g_rows)].tolist(),
                          p_id[np.concatenate(p_rows)].tolist()))
    gt_frames = Counter(g_id.tolist())
    mt, pt, ml = track_quality({g: matched[g] / n for g, n in gt_frames.items()})
    return Counter(tp=matched.total(), idsw=idsw, n_gt=len(g_id), n_pred=len(p_id),
                   MT=mt, PT=pt, ML=ml, IDTP=_id_assignment(overlap))


def report(*per_sequence: Counter) -> MotReport:
    """The MotReport of one sequence's counts, or of several sequences' summed counts."""
    c = sum(per_sequence, Counter())
    tp, n_gt, n_pred = c["tp"], c["n_gt"], c["n_pred"]
    if n_gt == 0:
        raise MetricsError("no ground-truth boxes")
    fp, fn = n_pred - tp, n_gt - tp
    ids = _id_scores(c)
    return MotReport(IDF1=ids["IDF1"], IDs=c["idsw"], IDP=ids["IDP"], IDR=ids["IDR"],
                     MT=c["MT"], PT=c["PT"], ML=c["ML"],
                     Rcll=tp / n_gt, Prcn=tp / n_pred if n_pred else 0.0,
                     MOTA=1.0 - (fn + fp + c["idsw"]) / n_gt, FP=fp, FN=fn)


def evaluate(gt: Annotations, pred: Annotations,
             iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> MotReport:
    """Full sequence evaluation over the union of frames present in gt or pred,
    each a record list or an (N, 9) table."""
    return report(sequence_counts(gt, pred, iou_threshold))


def aggregate(per_sequence: list[tuple[Annotations, Annotations]],
              iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> MotReport:
    """Boxes-weighted aggregate: raw counts are summed across sequences."""
    return report(*(sequence_counts(gt, pred, iou_threshold) for gt, pred in per_sequence))
