"""Tracking-by-detection: constant-velocity Kalman filtering, minimum-cost
association, SORT-style single-stage and Byte-style two-stage matching.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

# `iou` stays importable here: benchmarks/tracing.py counts calls at this site
from .geometry import iou, iou_matrix, ltwh_array  # noqa: F401
from .motio import AnnotationRecord


class TrackerError(ValueError):
    pass


class Mode(Enum):
    sort = "sort"
    byte = "byte"


@dataclass
class TrackerConfig:
    high_score_thresh: float = 0.6
    low_score_thresh: float = 0.1
    iou_gate: float = 0.3
    max_age: int = 30
    n_init: int = 3
    mode: Mode = Mode.sort

    def __post_init__(self):
        if isinstance(self.mode, str):
            self.mode = Mode(self.mode)
        if not (0 <= self.low_score_thresh < self.high_score_thresh <= 1):
            raise TrackerError("need 0 <= low < high <= 1")
        if not (0 < self.iou_gate < 1):
            raise TrackerError("iou_gate must be in (0, 1)")
        if not (self.max_age >= 1 and self.n_init >= 1):  # nan fails too
            raise TrackerError("max_age and n_init must be >= 1")


def _ltwh_to_z(a: np.ndarray) -> np.ndarray:
    """(..., 4) ltwh rows -> (..., 4) (cx, cy, aspect, height) rows."""
    z = np.empty(a.shape)
    w, h = a[..., 2], a[..., 3]
    np.add(a[..., 0], w / 2.0, out=z[..., 0])
    np.add(a[..., 1], h / 2.0, out=z[..., 1])
    np.divide(w, h, out=z[..., 2])
    z[..., 3] = h
    return z


def _z_to_ltwh(z: np.ndarray) -> np.ndarray:
    """(..., 4) (cx, cy, aspect, height) rows -> (..., 4) ltwh rows, with
    width and height clamped to at least the smallest normal float."""
    tiny = np.finfo(np.float64).tiny
    a = np.empty(z.shape)
    h = np.maximum(z[..., 3], tiny, out=a[..., 3])
    w = np.maximum(z[..., 2] * h, tiny, out=a[..., 2])
    np.subtract(z[..., 0], w / 2.0, out=a[..., 0])
    np.subtract(z[..., 1], h / 2.0, out=a[..., 1])
    return a


def _state_var(h: np.ndarray, pos: float, vel: float) -> np.ndarray:
    """(..., 8) variances: (pos * h)^2 on cx, cy, height, (vel * h)^2 on their
    velocities, 1e-2^2 on the aspect and 1e-5^2 on its velocity."""
    var = np.empty((*h.shape, 8))
    p = np.square(pos * h, out=var[..., 0])
    v = np.square(vel * h, out=var[..., 4])
    var[..., 1] = var[..., 3] = p
    var[..., 5] = var[..., 7] = v
    var[..., 2], var[..., 6] = 1e-2 * 1e-2, 1e-5 * 1e-5
    return var


class KalmanModel:
    """Constant-velocity filter on (cx, cy, aspect, height) + velocities.

    The one fixed SORT/DeepSORT model: F adds each velocity to its position,
    H observes the positions, and the process and observation noise, scaled
    by the box height, and the initial covariance are diagonal. So each of
    the four dimensions is its own (position, velocity) filter with a scalar
    measurement, and every step is elementwise arithmetic. `mean` (..., 8)
    holds the positions, then the velocities. `cov` (..., 3, 4) holds the
    rows p_pp, p_pv and p_vv of each dimension's 2x2 covariance; the 8x8
    covariance is zero outside those four blocks. `predict` and `update` take
    any leading batch dimensions, to filter one track or N at once.
    """

    STD_POS = 1.0 / 20.0
    STD_VEL = 1.0 / 160.0

    def initiate(self, measurement: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A state at rest on each (..., 4) ltwh row: mean (..., 8), cov (..., 3, 4)."""
        batch = measurement.shape[:-1]
        mean, cov = np.zeros((*batch, 8)), np.zeros((*batch, 3, 4))
        mean[..., :4] = _ltwh_to_z(measurement)
        var = _state_var(mean[..., 3], 2 * self.STD_POS, 10 * self.STD_VEL)
        cov[..., 0, :], cov[..., 2, :] = var[..., :4], var[..., 4:]
        return mean, cov

    def predict(self, mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = mean.copy()
        mean[..., :4] += mean[..., 4:]
        a, b, c = cov[..., 0, :], cov[..., 1, :], cov[..., 2, :]
        q = _state_var(mean[..., 3], self.STD_POS, self.STD_VEL)
        # F P F^T summed in the order in which the 8x8 matmul form rounds:
        # ((a + b) + (b + c)) + q
        out = np.empty(cov.shape)
        bc = np.add(b, c, out=out[..., 1, :])
        np.add(a + b, bc, out=out[..., 0, :])
        out[..., 0, :] += q[..., :4]
        np.add(c, q[..., 4:], out=out[..., 2, :])
        return mean, out

    def update(self, mean: np.ndarray, cov: np.ndarray,
               measurement: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One (..., 4) ltwh measurement row per state."""
        z = _ltwh_to_z(measurement)
        r = np.empty(z.shape)
        pos = np.square(self.STD_POS * mean[..., 3], out=r[..., 0])
        r[..., 1] = r[..., 3] = pos
        r[..., 2] = 1e-1 * 1e-1
        a, b, c = cov[..., 0, :], cov[..., 1, :], cov[..., 2, :]
        s = a + r
        if (s == 0).any():
            raise TrackerError("singular innovation covariance")
        k1, k2, y = a / s, b / s, z - mean[..., :4]
        # (I - KH)P: each block's determinant becomes r/s times the old one,
        # so a PSD block stays PSD
        new_mean, new_cov = np.empty(mean.shape), np.empty(cov.shape)
        np.add(mean[..., :4], k1 * y, out=new_mean[..., :4])
        np.add(mean[..., 4:], k2 * y, out=new_mean[..., 4:])
        np.multiply(r, k1, out=new_cov[..., 0, :])
        np.multiply(r, k2, out=new_cov[..., 1, :])
        np.subtract(c, k2 * b, out=new_cov[..., 2, :])
        return new_mean, new_cov


class Assignment(NamedTuple):
    matches: np.ndarray           # (K, 2) intp (track index, detection index), rows ascending
    unmatched_tracks: np.ndarray  # ascending intp
    unmatched_dets: np.ndarray    # ascending intp


def _assignment(matches: np.ndarray, n: int, m: int) -> Assignment:
    """(K, 2) matches into range(n) x range(m), with the indices they leave out."""
    free_rows, free_cols = np.ones(n, dtype=bool), np.ones(m, dtype=bool)
    free_rows[matches[:, 0]] = free_cols[matches[:, 1]] = False
    return Assignment(matches, np.flatnonzero(free_rows), np.flatnonzero(free_cols))


def hungarian(cost: np.ndarray) -> Assignment:
    """Minimum-cost assignment on a (possibly rectangular or empty) finite cost matrix."""
    cost = np.atleast_2d(np.asarray(cost, dtype=np.float64))
    if not np.all(np.isfinite(cost)):
        raise TrackerError("cost matrix must be finite")
    return _assignment(np.stack(linear_sum_assignment(cost), axis=1), *cost.shape)


def associate(tracks: np.ndarray, dets: np.ndarray, cfg: TrackerConfig) -> Assignment:
    """Hungarian on 1 - IoU of the tracks' predicted (N, 4) ltwh boxes and the
    (M, 4) detection boxes; assigned pairs below the IoU gate are unmatched."""
    ious = iou_matrix(tracks, dets)
    matches = hungarian(1.0 - ious).matches
    return _assignment(matches[ious[matches[:, 0], matches[:, 1]] >= cfg.iou_gate], *ious.shape)


def byte_associate(tracks: np.ndarray, dets: np.ndarray, scores: np.ndarray,
                   cfg: TrackerConfig) -> Assignment:
    """Two-stage association of (N, 4) predicted boxes with (M, 4) detection
    boxes scored by (M,) scores: high-score detections first, then the
    low-score band against the remaining tracks. Detections below the low
    threshold are discarded; only leftover high-score detections may spawn
    tracks.
    """
    high_idx = np.flatnonzero(scores >= cfg.high_score_thresh)
    low_idx = np.flatnonzero((cfg.low_score_thresh <= scores)
                             & (scores < cfg.high_score_thresh))
    stage1 = associate(tracks, dets[high_idx], cfg)
    remaining = stage1.unmatched_tracks
    stage2 = associate(tracks[remaining], dets[low_idx], cfg)
    (t1, d1), (t2, d2) = stage1.matches.T, stage2.matches.T
    ti = np.concatenate([t1, remaining[t2]])
    di = np.concatenate([high_idx[d1], low_idx[d2]])
    order = np.argsort(ti)
    return Assignment(np.stack([ti[order], di[order]], axis=1),
                      remaining[stage2.unmatched_tracks], high_idx[stage1.unmatched_dets])


class Tracker:
    """Single-sequence tracker; frames must be stepped in increasing order.

    Live tracks are parallel arrays in spawn order, which is track-id order:
    `tracks` (N,) ids, `mean` (N, 8) and `cov` (N, 3, 4) Kalman states,
    `hits` (N,) matches including the spawn and `age` (N,) frames since the
    last match, if every frame is stepped (an empty one with no boxes). A
    track is confirmed once hits >= max(n_init, 2), else tentative and
    removed on its first miss; a confirmed track with age > 0 is lost and
    dies once age exceeds max_age.

    `advance` steps a frame on arrays; `step` is its record wrapper.
    """

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = cfg or TrackerConfig()
        self.kalman = KalmanModel()
        self.tracks = np.zeros(0, dtype=np.int64)
        self.mean, self.cov = np.zeros((0, 8)), np.zeros((0, 3, 4))
        self.hits = np.zeros(0, dtype=np.int64)
        self.age = np.zeros(0, dtype=np.int64)
        self._next_id = 1
        self._first_frame: int | None = None
        self._last_frame = 0

    def advance(self, frame: int, boxes: np.ndarray,
                scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predict, associate, update, and run the track lifecycle for one frame
        of (M, 4) ltwh detection boxes scored by (M,) scores.

        Returns the (K,) ids and (K,) detection indices of the frame's output
        rows, in id order: one per matched confirmed track, and one per matched
        or spawned track while frame - first frame < n_init.
        """
        if frame <= self._last_frame:
            raise TrackerError(f"out-of-order frame {frame} (last {self._last_frame})")
        if not np.isfinite(scores).all():
            raise TrackerError("detection score must be finite")
        if self._first_frame is None:
            self._first_frame = frame
        self._last_frame = frame
        warm_up = frame - self._first_frame < self.cfg.n_init

        if len(self.tracks):
            self.mean, self.cov = self.kalman.predict(self.mean, self.cov)
        finite = np.isfinite(self.mean).all(axis=1)  # the other tracks are dropped
        live = np.flatnonzero(finite)
        predicted = _z_to_ltwh(self.mean[live, :4])

        if self.cfg.mode is Mode.byte:
            cols = np.arange(len(boxes))
            result = byte_associate(predicted, boxes, scores, self.cfg)
        else:
            cols = np.flatnonzero(scores >= self.cfg.high_score_thresh)
            result = associate(predicted, boxes[cols], self.cfg)
        ti, di = live[result.matches[:, 0]], cols[result.matches[:, 1]]
        spawned = cols[result.unmatched_dets]

        if len(ti):
            self.mean[ti], self.cov[ti] = self.kalman.update(self.mean[ti], self.cov[ti],
                                                             boxes[di])
        det = np.full(len(self.tracks), -1)  # each track's detection index, -1 if none
        det[ti] = di
        matched = det >= 0
        self.hits += matched
        self.age = np.where(matched, 0, self.age + 1)
        confirm_at = max(self.cfg.n_init, 2)  # hits counts the spawn
        keep = finite & (matched | ((self.hits >= confirm_at) & (self.age <= self.cfg.max_age)))

        if not keep.all():
            self.tracks, self.mean, self.cov, self.hits, self.age, det = (
                x[keep] for x in (self.tracks, self.mean, self.cov, self.hits, self.age, det))
        if n := len(spawned):
            mean, cov = self.kalman.initiate(boxes[spawned])
            self.tracks = np.concatenate([self.tracks,
                                          np.arange(self._next_id, self._next_id + n)])
            self._next_id += n
            self.mean = np.concatenate([self.mean, mean])
            self.cov = np.concatenate([self.cov, cov])
            self.hits = np.concatenate([self.hits, np.ones(n, dtype=np.int64)])
            self.age = np.concatenate([self.age, np.zeros(n, dtype=np.int64)])
            det = np.concatenate([det, spawned])
        # age 0 is matched or spawned this frame; ids ascend along the arrays
        emit = (self.age == 0) & ((self.hits >= confirm_at) | warm_up)
        return self.tracks[emit], det[emit]

    def step(self, frame: int, detections: Sequence[AnnotationRecord]) -> list[AnnotationRecord]:
        """`advance` on detection records: reads each record's `bbox` and
        `confidence` (the score), not its `frame` or `track_id`. Returns a
        track-file record per output row: the detection's own `bbox` and
        `confidence` objects, category 1."""
        ids, det = self.advance(frame, ltwh_array(d.bbox for d in detections),
                                np.array([d.confidence for d in detections], dtype=np.float64))
        return [AnnotationRecord(frame, i, detections[d].bbox, detections[d].confidence)
                for i, d in zip(ids.tolist(), det.tolist())]


def _drive(frames: Sequence[int], bounds: np.ndarray, boxes: np.ndarray, scores: np.ndarray,
           cfg: TrackerConfig | None) -> tuple[np.ndarray, np.ndarray]:
    """Track a sequence: frame frames[k] (ascending) has detections
    bounds[k]:bounds[k + 1] of the (M, 4) boxes and (M,) scores. Each frame is
    stepped, and so is each empty frame between two of them while a track is
    live: an empty frame gives no rows, and changes nothing once no track is
    live. Returns the (K,) detection index and (K,) id of each output row, in
    frame order, then id order."""
    tracker = Tracker(cfg)
    rows, ids = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.int64)]
    no_boxes, no_scores = np.zeros((0, 4)), np.zeros(0)
    for frame, lo, hi in zip(frames, bounds[:-1].tolist(), bounds[1:].tolist()):
        while len(tracker.tracks) and tracker._last_frame + 1 < frame:
            tracker.advance(tracker._last_frame + 1, no_boxes, no_scores)
        i, d = tracker.advance(frame, boxes[lo:hi], scores[lo:hi])
        ids.append(i)
        rows.append(lo + d)
    return np.concatenate(rows), np.concatenate(ids)


def run_tracker(frames: dict[int, list[AnnotationRecord]],
                cfg: TrackerConfig | None = None) -> list[AnnotationRecord]:
    """Track a whole sequence given per-frame detections keyed by frame index.

    Every frame from the first key to the last is stepped, a missing one as
    empty, so a det file (no line for an empty frame) gives the dict's rows.
    Warm-up counts from the first key, so a leading empty frame still differs.
    Rows are `Tracker.step`'s records.
    """
    keys = sorted(frames)
    dets = [d for f in keys for d in frames[f]]
    bounds = np.cumsum([0] + [len(frames[f]) for f in keys])
    rows, ids = _drive(keys, bounds, ltwh_array(d.bbox for d in dets),
                       np.array([d.confidence for d in dets], dtype=np.float64), cfg)
    key = np.searchsorted(bounds, rows, side="right") - 1
    return [AnnotationRecord(keys[k], i, dets[r].bbox, dets[r].confidence)
            for k, r, i in zip(key.tolist(), rows.tolist(), ids.tolist())]


def track_table(dets: np.ndarray, cfg: TrackerConfig | None = None) -> np.ndarray:
    """The track-file table of a detection-file table (see `motio`): the
    (K, 9) matched detection rows, in frame order, then id order, with each
    id column set to its track's id and category and visibility set to 1.
    Rows of one frame are detections in table order, and the frames are
    stepped as `run_tracker` steps its keys."""
    order = np.argsort(dets[:, 0], kind="stable")
    frames, starts = np.unique(dets[order, 0], return_index=True)
    bounds = np.append(starts, len(dets))
    rows, ids = _drive(frames.astype(np.int64).tolist(), bounds,
                       dets[order, 2:6], dets[order, 6], cfg)
    out = dets[order[rows]]
    out[:, 1] = ids
    out[:, 7:] = 1.0
    return out


def outputs_to_records(rows: list[AnnotationRecord]) -> list[AnnotationRecord]:
    """The rows unchanged: only benchmarks/{workloads,baseline,selftest}.py call it."""
    return rows
