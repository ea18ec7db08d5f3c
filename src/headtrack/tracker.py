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


def _diag(d: np.ndarray) -> np.ndarray:
    """(..., n) -> (..., n, n) with d on each diagonal and zeros elsewhere."""
    n = d.shape[-1]
    out = np.zeros(d.shape + (n,))
    out[..., np.arange(n), np.arange(n)] = d
    return out


def _mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product over leading batch dimensions of a and x."""
    return (a @ x[..., None])[..., 0]


def _sym(cov: np.ndarray) -> np.ndarray:
    return (cov + cov.swapaxes(-1, -2)) / 2.0


class KalmanModel:
    """Constant-velocity filter on (cx, cy, aspect, height) + velocities.

    Noise scales are proportional to the box height, following the
    SORT/DeepSORT convention. F, Q, R can be overridden for testing.
    `predict` and `update` take any leading batch dimensions: mean (..., 8)
    and cov (..., 8, 8) filter one track or a stack of N tracks at once.
    """

    STD_POS = 1.0 / 20.0
    STD_VEL = 1.0 / 160.0

    def __init__(self, F: np.ndarray | None = None,
                 Q: np.ndarray | None = None, R: np.ndarray | None = None):
        self.F = np.eye(8) if F is None else np.asarray(F, dtype=np.float64)
        if F is None:
            self.F[:4, 4:] = np.eye(4)
        self.Q = Q if Q is None else np.asarray(Q, dtype=np.float64)
        self.R = R if R is None else np.asarray(R, dtype=np.float64)

    def initiate(self, measurement: BBox | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A state at rest on each measurement: mean (8,) and cov (8, 8) for a
        BBox, or mean (N, 8) and cov (N, 8, 8) for (N, 4) ltwh rows."""
        z = _ltwh_to_z(measurement)
        h = z[..., 3]
        pos, vel = 2 * self.STD_POS * h, 10 * self.STD_VEL * h
        std = np.stack([pos, pos, np.full_like(h, 1e-2), pos,
                        vel, vel, np.full_like(h, 1e-5), vel], axis=-1)
        return np.concatenate([z, np.zeros_like(z)], axis=-1), _diag(np.square(std))

    def _process_noise(self, h: np.ndarray) -> np.ndarray:
        if self.Q is not None:
            return self.Q
        pos, vel = self.STD_POS * h, self.STD_VEL * h
        aspect, aspect_vel = np.full_like(h, 1e-2), np.full_like(h, 1e-5)
        std = np.stack([pos, pos, aspect, pos, vel, vel, aspect_vel, vel], axis=-1)
        return _diag(np.square(std))

    def _obs_noise(self, h: np.ndarray) -> np.ndarray:
        if self.R is not None:
            return self.R
        pos = self.STD_POS * h
        std = np.stack([pos, pos, np.full_like(h, 1e-1), pos], axis=-1)
        return _diag(np.square(std))

    def predict(self, mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = _mv(self.F, mean)
        cov = self.F @ cov @ self.F.T + self._process_noise(mean[..., 3])
        return mean, _sym(cov)

    def update(self, mean: np.ndarray, cov: np.ndarray,
               measurement: BBox | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One measurement per state: a BBox for mean (8,), or (N, 4) ltwh
        rows for mean (N, 8)."""
        z = _ltwh_to_z(measurement)
        R = self._obs_noise(mean[..., 3])
        # H = [I 0], so H @ cov @ H.T, cov @ H.T, H @ mean and K @ H are slices
        S = cov[..., :4, :4] + R
        try:
            K = np.linalg.solve(S.swapaxes(-1, -2),
                                cov[..., :, :4].swapaxes(-1, -2)).swapaxes(-1, -2)
        except np.linalg.LinAlgError as e:
            raise TrackerError(f"singular innovation covariance: {e}") from None
        mean = mean + _mv(K, z - mean[..., :4])
        ikh = np.tile(np.eye(8), K.shape[:-2] + (1, 1))
        ikh[..., :4] -= K
        # Joseph form keeps PSD
        cov = ikh @ cov @ ikh.swapaxes(-1, -2) + K @ R @ K.swapaxes(-1, -2)
        return mean, _sym(cov)


class Assignment(NamedTuple):
    matches: list[tuple[int, int]]      # (track index, detection index)
    unmatched_tracks: list[int]
    unmatched_dets: list[int]


def hungarian(cost: np.ndarray) -> Assignment:
    """Minimum-cost assignment on a (possibly rectangular) finite cost matrix."""
    cost = np.atleast_2d(np.asarray(cost, dtype=np.float64))
    if cost.size and not np.all(np.isfinite(cost)):
        raise TrackerError("cost matrix must be finite")
    if 0 in cost.shape:
        return Assignment([], list(range(cost.shape[0])), list(range(cost.shape[1])))
    rows, cols = (x.tolist() for x in linear_sum_assignment(cost))
    matched_rows, matched_cols = set(rows), set(cols)
    return Assignment(sorted(zip(rows, cols)),
                      [r for r in range(cost.shape[0]) if r not in matched_rows],
                      [c for c in range(cost.shape[1]) if c not in matched_cols])


def associate(tracks: np.ndarray, dets: np.ndarray, cfg: TrackerConfig) -> Assignment:
    """Hungarian on 1 - IoU of the tracks' predicted (N, 4) ltwh boxes and the
    (M, 4) detection boxes; assigned pairs below the IoU gate are unmatched."""
    ious = iou_matrix(tracks, dets)
    result = hungarian(1.0 - ious)
    matches, um_t, um_d = [], list(result.unmatched_tracks), list(result.unmatched_dets)
    for ti, di in result.matches:
        if ious[ti, di] < cfg.iou_gate:
            um_t.append(ti)
            um_d.append(di)
        else:
            matches.append((ti, di))
    return Assignment(matches, sorted(um_t), sorted(um_d))


def byte_associate(tracks: np.ndarray, dets: np.ndarray, scores: np.ndarray,
                   cfg: TrackerConfig) -> Assignment:
    """Two-stage association of (N, 4) predicted boxes with (M, 4) detection
    boxes scored by (M,) scores: high-score detections first, then the
    low-score band against the remaining tracks. Detections below the low
    threshold are discarded; only leftover high-score detections may spawn
    tracks.
    """
    high_idx = np.flatnonzero(scores >= cfg.high_score_thresh).tolist()
    low_idx = np.flatnonzero((cfg.low_score_thresh <= scores)
                             & (scores < cfg.high_score_thresh)).tolist()
    stage1 = associate(tracks, dets[high_idx], cfg)
    matches = [(ti, high_idx[di]) for ti, di in stage1.matches]
    remaining = stage1.unmatched_tracks
    stage2 = associate(tracks[remaining], dets[low_idx], cfg)
    matches += [(remaining[ti], low_idx[di]) for ti, di in stage2.matches]
    unmatched_tracks = [remaining[i] for i in stage2.unmatched_tracks]
    spawnable = [high_idx[i] for i in stage1.unmatched_dets]
    return Assignment(sorted(matches), sorted(unmatched_tracks), sorted(spawnable))


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
        ti, di = np.array(result.matches, dtype=np.intp).reshape(-1, 2).T
        ti, di = live[ti], cols[di]
        spawned = cols[np.array(result.unmatched_dets, dtype=np.intp)]

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
