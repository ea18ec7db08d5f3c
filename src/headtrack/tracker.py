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
from .geometry import BBox, iou, iou_matrix, ltwh_array  # noqa: F401
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
        if self.max_age < 1 or self.n_init < 1:
            raise TrackerError("max_age and n_init must be >= 1")


def _ltwh_to_z(a: BBox | np.ndarray) -> np.ndarray:
    """(..., 4) ltwh rows, or one BBox, -> (..., 4) (cx, cy, aspect, height) rows."""
    if isinstance(a, BBox):
        a = ltwh_array([a])[0]
    left, top, w, h = np.moveaxis(a, -1, 0)
    return np.stack([left + w / 2.0, top + h / 2.0, w / h, h], axis=-1)


def _z_to_ltwh(z: np.ndarray) -> np.ndarray:
    """(..., 4) (cx, cy, aspect, height) rows -> (..., 4) ltwh rows, with
    width and height clamped to at least the smallest normal float."""
    tiny = np.finfo(np.float64).tiny
    h = np.maximum(z[..., 3], tiny)
    w = np.maximum(z[..., 2] * h, tiny)
    return np.stack([z[..., 0] - w / 2.0, z[..., 1] - h / 2.0, w, h], axis=-1)


def _sym(cov: np.ndarray) -> np.ndarray:
    return (cov + cov.swapaxes(-1, -2)) / 2.0


_DIAG = np.arange(8)  # index both axes with it to reach a diagonal


def _state_var(h: np.ndarray, pos: float, vel: float) -> np.ndarray:
    """(..., 8) variances: (pos * h)^2 on cx, cy, height, (vel * h)^2 on their velocities."""
    p, v, a, av = pos * h, vel * h, np.full_like(h, 1e-2), np.full_like(h, 1e-5)
    return np.square(np.stack([p, p, a, p, v, v, av, v], axis=-1))


class KalmanModel:
    """Constant-velocity filter on (cx, cy, aspect, height) + velocities.

    The one fixed SORT/DeepSORT model, applied as slices: F adds each
    velocity to its position, H = [I 0] observes the positions, and the
    process and observation noise, scaled by the box height, go on the
    diagonal. `predict` and `update` take any leading batch dimensions:
    mean (..., 8) and cov (..., 8, 8) filter one track or N at once.
    """

    STD_POS = 1.0 / 20.0
    STD_VEL = 1.0 / 160.0

    def initiate(self, measurement: BBox | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A state at rest on each measurement: mean (8,) and cov (8, 8) for a
        BBox, or mean (N, 8) and cov (N, 8, 8) for (N, 4) ltwh rows."""
        z = _ltwh_to_z(measurement)
        cov = np.zeros(z.shape[:-1] + (8, 8))
        cov[..., _DIAG, _DIAG] = _state_var(z[..., 3], 2 * self.STD_POS, 10 * self.STD_VEL)
        return np.concatenate([z, np.zeros_like(z)], axis=-1), cov

    def predict(self, mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean, cov = mean.copy(), cov.copy()
        mean[..., :4] += mean[..., 4:]
        # rows, then columns: (F @ cov) @ F.T, the order in which the matmul form rounds
        cov[..., :4, :] += cov[..., 4:, :]
        cov[..., :, :4] += cov[..., :, 4:]
        cov[..., _DIAG, _DIAG] += _state_var(mean[..., 3], self.STD_POS, self.STD_VEL)
        return mean, _sym(cov)

    def update(self, mean: np.ndarray, cov: np.ndarray,
               measurement: BBox | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One measurement per state: a BBox for mean (8,), or (N, 4) ltwh
        rows for mean (N, 8)."""
        z = _ltwh_to_z(measurement)
        pos = self.STD_POS * mean[..., 3]
        r = np.square(np.stack([pos, pos, np.full_like(pos, 1e-1), pos], axis=-1))
        # H = [I 0], so H @ cov @ H.T, cov @ H.T, H @ mean and K @ H are slices
        S = cov[..., :4, :4].copy()
        S[..., _DIAG[:4], _DIAG[:4]] += r
        try:
            K = np.linalg.solve(S.swapaxes(-1, -2),
                                cov[..., :, :4].swapaxes(-1, -2)).swapaxes(-1, -2)
        except np.linalg.LinAlgError as e:
            raise TrackerError(f"singular innovation covariance: {e}") from None
        mean = mean + (K @ (z - mean[..., :4])[..., None])[..., 0]
        ikh = np.tile(np.eye(8), K.shape[:-2] + (1, 1))
        ikh[..., :4] -= K
        # Joseph form keeps PSD; K @ diag(r) @ K.T scales K's columns by r
        cov = ikh @ cov @ ikh.swapaxes(-1, -2) + (K * r[..., None, :]) @ K.swapaxes(-1, -2)
        return mean, _sym(cov)


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
    `tracks` (N,) ids, `mean` (N, 8) and `cov` (N, 8, 8) Kalman states,
    `hits` (N,) matches including the spawn, `age` (N,) frames since the last
    match and `confirmed` (N,) whether the track was ever confirmed. A track
    that was never confirmed is tentative and dies on its first miss; a
    confirmed track with age > 0 is lost and dies once age exceeds max_age.
    """

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = cfg or TrackerConfig()
        self.kalman = KalmanModel()
        self.tracks = np.zeros(0, dtype=np.int64)
        self.mean, self.cov = np.zeros((0, 8)), np.zeros((0, 8, 8))
        self.hits = np.zeros(0, dtype=np.int64)
        self.age = np.zeros(0, dtype=np.int64)
        self.confirmed = np.zeros(0, dtype=bool)
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
        matched = np.zeros(len(self.tracks), dtype=bool)
        matched[ti] = True
        self.hits += matched
        self.age = np.where(matched, 0, self.age + 1)
        self.confirmed |= matched & (self.hits >= self.cfg.n_init)
        emit = self.confirmed[ti] | warm_up
        out_ids, out_dets = self.tracks[ti[emit]], di[emit]

        new_ids = np.arange(self._next_id, self._next_id + len(spawned))
        self._next_id += len(spawned)
        if warm_up:  # emit fresh tracks too
            out_ids = np.concatenate([out_ids, new_ids])
            out_dets = np.concatenate([out_dets, spawned])

        keep = finite & (matched | (self.confirmed & (self.age <= self.cfg.max_age)))
        mean, cov = self.kalman.initiate(boxes[spawned])
        n = len(spawned)
        self.tracks = np.concatenate([self.tracks[keep], new_ids])
        self.mean = np.concatenate([self.mean[keep], mean])
        self.cov = np.concatenate([self.cov[keep], cov])
        self.hits = np.concatenate([self.hits[keep], np.ones(n, dtype=np.int64)])
        self.age = np.concatenate([self.age[keep], np.zeros(n, dtype=np.int64)])
        self.confirmed = np.concatenate([self.confirmed[keep], np.zeros(n, dtype=bool)])
        # matched tracks come in id order, and every spawned id is larger
        return [AnnotationRecord(frame, i, detections[d].bbox, detections[d].confidence)
                for i, d in zip(out_ids.tolist(), out_dets.tolist())]


def run_tracker(frames: dict[int, list[AnnotationRecord]],
                cfg: TrackerConfig | None = None) -> list[AnnotationRecord]:
    """Track a whole sequence given per-frame detections keyed by frame index."""
    tracker = Tracker(cfg)
    out: list[AnnotationRecord] = []
    for frame in sorted(frames):
        out.extend(tracker.step(frame, frames[frame]))
    return out


def outputs_to_records(rows: list[AnnotationRecord]) -> list[AnnotationRecord]:
    """The rows unchanged: only benchmarks/{workloads,baseline,selftest}.py call it."""
    return rows
