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
    left, top, w, h = np.moveaxis(a, -1, 0)
    return np.stack([left + w / 2.0, top + h / 2.0, w / h, h], axis=-1)


def _z_to_ltwh(z: np.ndarray) -> np.ndarray:
    """(..., 4) (cx, cy, aspect, height) rows -> (..., 4) ltwh rows, with
    width and height clamped to at least the smallest normal float."""
    tiny = np.finfo(np.float64).tiny
    h = np.maximum(z[..., 3], tiny)
    w = np.maximum(z[..., 2] * h, tiny)
    return np.stack([z[..., 0] - w / 2.0, z[..., 1] - h / 2.0, w, h], axis=-1)


def _state_var(h: np.ndarray, pos: float, vel: float) -> np.ndarray:
    """(..., 8) variances: (pos * h)^2 on cx, cy, height, (vel * h)^2 on their velocities."""
    p, v, a, av = pos * h, vel * h, np.full_like(h, 1e-2), np.full_like(h, 1e-5)
    return np.square(np.stack([p, p, a, p, v, v, av, v], axis=-1))


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
        z = _ltwh_to_z(measurement)
        var = _state_var(z[..., 3], 2 * self.STD_POS, 10 * self.STD_VEL)
        return (np.concatenate([z, np.zeros_like(z)], axis=-1),
                np.stack([var[..., :4], np.zeros_like(z), var[..., 4:]], axis=-2))

    def predict(self, mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = mean.copy()
        mean[..., :4] += mean[..., 4:]
        a, b, c = np.moveaxis(cov, -2, 0)
        q = _state_var(mean[..., 3], self.STD_POS, self.STD_VEL)
        # F P F^T summed in the order in which the 8x8 matmul form rounds
        return mean, np.stack([(a + b) + (b + c) + q[..., :4], b + c, c + q[..., 4:]], axis=-2)

    def update(self, mean: np.ndarray, cov: np.ndarray,
               measurement: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One (..., 4) ltwh measurement row per state."""
        z = _ltwh_to_z(measurement)
        pos = self.STD_POS * mean[..., 3]
        r = np.square(np.stack([pos, pos, np.full_like(pos, 1e-1), pos], axis=-1))
        a, b, c = np.moveaxis(cov, -2, 0)
        s = a + r
        if (s == 0).any():
            raise TrackerError("singular innovation covariance")
        k1, k2, y = a / s, b / s, z - mean[..., :4]
        # (I - KH)P: each block's determinant becomes r/s times the old one,
        # so a PSD block stays PSD
        return (np.concatenate([mean[..., :4] + k1 * y, mean[..., 4:] + k2 * y], axis=-1),
                np.stack([r * k1, r * k2, c - k2 * b], axis=-2))


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
    """Single-sequence tracker; step() must be called with increasing frames.

    Live tracks are parallel arrays in spawn order, which is track-id order:
    `tracks` (N,) ids, `mean` (N, 8) and `cov` (N, 3, 4) Kalman states,
    `hits` (N,) matches including the spawn and `age` (N,) frames since the
    last match, if every frame is stepped (an empty one with []). A track is
    confirmed once hits >= max(n_init, 2), else tentative and removed on its
    first miss; a confirmed track with age > 0 is lost and dies once age
    exceeds max_age.
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

    def step(self, frame: int, detections: Sequence[AnnotationRecord]) -> list[AnnotationRecord]:
        """Predict, associate, update, and run the track lifecycle for one frame.

        Reads each detection record's `bbox` and `confidence` (the score), not
        its `frame` or `track_id`. Returns, in id order, a track-file record (the
        detection's `bbox` and `confidence`, category 1) per matched confirmed
        track, and per matched or spawned track while frame - first frame < n_init.
        """
        if frame <= self._last_frame:
            raise TrackerError(f"out-of-order frame {frame} (last {self._last_frame})")
        boxes = ltwh_array(d.bbox for d in detections)
        scores = np.array([d.confidence for d in detections], dtype=np.float64)
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

        n = len(spawned)
        mean, cov = self.kalman.initiate(boxes[spawned])
        self.tracks = np.concatenate([self.tracks[keep],
                                      np.arange(self._next_id, self._next_id + n)])
        self._next_id += n
        self.mean = np.concatenate([self.mean[keep], mean])
        self.cov = np.concatenate([self.cov[keep], cov])
        self.hits = np.concatenate([self.hits[keep], np.ones(n, dtype=np.int64)])
        self.age = np.concatenate([self.age[keep], np.zeros(n, dtype=np.int64)])
        det = np.concatenate([det[keep], spawned])
        # age 0 is matched or spawned this frame; ids ascend along the arrays
        emit = (self.age == 0) & ((self.hits >= confirm_at) | warm_up)
        return [AnnotationRecord(frame, i, detections[d].bbox, detections[d].confidence)
                for i, d in zip(self.tracks[emit].tolist(), det[emit].tolist())]


def run_tracker(frames: dict[int, list[AnnotationRecord]],
                cfg: TrackerConfig | None = None) -> list[AnnotationRecord]:
    """Track a whole sequence given per-frame detections keyed by frame index.

    Every frame from the first key to the last is stepped, a missing one as
    empty, so a det file (no line for an empty frame) gives the dict's rows.
    Warm-up counts from the first key, so a leading empty frame still differs.
    """
    tracker = Tracker(cfg)
    out: list[AnnotationRecord] = []
    for frame in sorted(frames):
        # an empty frame gives no rows, and changes nothing once no track is live
        while len(tracker.tracks) and tracker._last_frame + 1 < frame:
            tracker.step(tracker._last_frame + 1, [])
        out.extend(tracker.step(frame, frames[frame]))
    return out


def outputs_to_records(rows: list[AnnotationRecord]) -> list[AnnotationRecord]:
    """The rows unchanged: only benchmarks/{workloads,baseline,selftest}.py call it."""
    return rows
