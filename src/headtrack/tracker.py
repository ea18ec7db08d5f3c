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


@dataclass(frozen=True)
class Detection:
    bbox: BBox
    score: float

    def __post_init__(self):
        if not np.isfinite(self.score):
            raise TrackerError("detection score must be finite")


class TrackStatus(Enum):
    tentative = "tentative"
    confirmed = "confirmed"
    lost = "lost"
    removed = "removed"


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


def _ltwh_to_z(a: np.ndarray) -> np.ndarray:
    """(..., 4) ltwh rows -> (..., 4) (cx, cy, aspect, height) rows."""
    left, top, w, h = np.moveaxis(a, -1, 0)
    return np.stack([left + w / 2.0, top + h / 2.0, w / h, h], axis=-1)


def _z_to_ltwh(z: np.ndarray) -> np.ndarray:
    """(..., 4) (cx, cy, aspect, height) rows -> (..., 4) ltwh rows, with
    width and height clamped to at least 1e-6."""
    h = np.maximum(z[..., 3], 1e-6)
    w = np.maximum(z[..., 2] * h, 1e-6)
    return np.stack([z[..., 0] - w / 2.0, z[..., 1] - h / 2.0, w, h], axis=-1)


def _bbox_to_z(b: BBox) -> np.ndarray:
    return _ltwh_to_z(ltwh_array([b])[0])


def _z_to_bbox(z: np.ndarray) -> BBox:
    return BBox(*_z_to_ltwh(z).tolist())


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
        self.H = np.eye(4, 8)
        self.Q = Q if Q is None else np.asarray(Q, dtype=np.float64)
        self.R = R if R is None else np.asarray(R, dtype=np.float64)

    def initiate(self, b: BBox) -> tuple[np.ndarray, np.ndarray]:
        mean = np.zeros(8)
        mean[:4] = _bbox_to_z(b)
        h = b.height
        std = [2 * self.STD_POS * h, 2 * self.STD_POS * h, 1e-2, 2 * self.STD_POS * h,
               10 * self.STD_VEL * h, 10 * self.STD_VEL * h, 1e-5, 10 * self.STD_VEL * h]
        return mean, np.diag(np.square(std))

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
               measurement: BBox | Sequence[BBox]) -> tuple[np.ndarray, np.ndarray]:
        """One measurement per state: a BBox for mean (8,), or a sequence of
        N boxes for mean (N, 8)."""
        boxes = [measurement] if isinstance(measurement, BBox) else measurement
        z = _ltwh_to_z(ltwh_array(boxes)).reshape(mean.shape[:-1] + (4,))
        R = self._obs_noise(mean[..., 3])
        H = self.H
        S = H @ cov @ H.T + R
        try:
            K = np.linalg.solve(S.swapaxes(-1, -2),
                                (cov @ H.T).swapaxes(-1, -2)).swapaxes(-1, -2)
        except np.linalg.LinAlgError as e:
            raise TrackerError(f"singular innovation covariance: {e}") from None
        mean = mean + _mv(K, z - _mv(H, mean))
        ikh = np.eye(8) - K @ H
        # Joseph form keeps PSD
        cov = ikh @ cov @ ikh.swapaxes(-1, -2) + K @ R @ K.swapaxes(-1, -2)
        return mean, _sym(cov)


@dataclass
class TrackState:
    track_id: int
    mean: np.ndarray
    cov: np.ndarray
    status: TrackStatus = TrackStatus.tentative
    hits: int = 1
    time_since_update: int = 0

    @property
    def bbox(self) -> BBox:
        return _z_to_bbox(self.mean[:4])


def _stacked(tracks: Sequence[TrackState]) -> tuple[np.ndarray, np.ndarray]:
    """The tracks' means (N, 8) and covariances (N, 8, 8), one row per track."""
    return np.stack([t.mean for t in tracks]), np.stack([t.cov for t in tracks])


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


def _iou_matrix(tracks: Sequence[TrackState], dets: Sequence[Detection]) -> np.ndarray:
    """IoU of every track's predicted box (`TrackState.bbox`, read from the
    stacked means) with every detection box."""
    z = np.array([t.mean[:4] for t in tracks]).reshape(-1, 4)
    return iou_matrix(_z_to_ltwh(z), ltwh_array(d.bbox for d in dets))


def _cost_matrix(tracks: Sequence[TrackState], dets: Sequence[Detection]) -> np.ndarray:
    return 1.0 - _iou_matrix(tracks, dets)


def associate(tracks: Sequence[TrackState], dets: Sequence[Detection],
              cfg: TrackerConfig) -> Assignment:
    """Hungarian on 1 - IoU; assigned pairs below the IoU gate are unmatched."""
    ious = _iou_matrix(tracks, dets)
    result = hungarian(1.0 - ious)
    matches, um_t, um_d = [], list(result.unmatched_tracks), list(result.unmatched_dets)
    for ti, di in result.matches:
        if ious[ti, di] < cfg.iou_gate:
            um_t.append(ti)
            um_d.append(di)
        else:
            matches.append((ti, di))
    return Assignment(matches, sorted(um_t), sorted(um_d))


def byte_associate(tracks: Sequence[TrackState], dets: Sequence[Detection],
                   cfg: TrackerConfig) -> Assignment:
    """Two-stage association: high-score detections first, then the low-score
    band against the remaining tracks. Detections below the low threshold are
    discarded; only leftover high-score detections may spawn tracks.
    """
    high_idx = [i for i, d in enumerate(dets) if d.score >= cfg.high_score_thresh]
    low_idx = [i for i, d in enumerate(dets)
               if cfg.low_score_thresh <= d.score < cfg.high_score_thresh]
    stage1 = associate(tracks, [dets[i] for i in high_idx], cfg)
    matches = [(ti, high_idx[di]) for ti, di in stage1.matches]
    remaining = stage1.unmatched_tracks
    stage2 = associate([tracks[i] for i in remaining], [dets[i] for i in low_idx], cfg)
    matches += [(remaining[ti], low_idx[di]) for ti, di in stage2.matches]
    unmatched_tracks = [remaining[i] for i in stage2.unmatched_tracks]
    spawnable = [high_idx[i] for i in stage1.unmatched_dets]
    return Assignment(sorted(matches), sorted(unmatched_tracks), sorted(spawnable))


class TrackOutput(NamedTuple):
    frame: int
    track_id: int
    bbox: BBox
    score: float


class Tracker:
    """Single-sequence tracker; step() must be called with increasing frames."""

    def __init__(self, cfg: TrackerConfig | None = None,
                 kalman: KalmanModel | None = None):
        self.cfg = cfg or TrackerConfig()
        self.kalman = kalman or KalmanModel()
        self.tracks: list[TrackState] = []
        self._next_id = 1
        self._first_frame: int | None = None
        self._last_frame = 0

    def _spawn(self, det: Detection) -> None:
        mean, cov = self.kalman.initiate(det.bbox)
        self.tracks.append(TrackState(self._next_id, mean, cov))
        self._next_id += 1

    def step(self, frame: int, detections: Sequence[Detection]) -> list[TrackOutput]:
        """Predict, associate, update, and run the track lifecycle for one frame.

        Returns (frame, track_id, bbox) outputs for tracks matched this frame
        that are confirmed (or inside the warm-up: frame numbers less than n_init
        after the first frame this tracker stepped).
        """
        if frame <= self._last_frame:
            raise TrackerError(f"out-of-order frame {frame} (last {self._last_frame})")
        if self._first_frame is None:
            self._first_frame = frame
        self._last_frame = frame
        warm_up = frame - self._first_frame < self.cfg.n_init

        if self.tracks:
            means, covs = self.kalman.predict(*_stacked(self.tracks))
            finite = np.isfinite(means).all(axis=1).tolist()
            for t, mean, cov, ok in zip(self.tracks, means, covs, finite):
                t.mean, t.cov = mean, cov
                if not ok:
                    t.status = TrackStatus.removed
            self.tracks = [t for t in self.tracks if t.status is not TrackStatus.removed]

        if self.cfg.mode is Mode.byte:
            result = byte_associate(self.tracks, detections, self.cfg)
        else:
            keep = [i for i, d in enumerate(detections)
                    if d.score >= self.cfg.high_score_thresh]
            sub = associate(self.tracks, [detections[i] for i in keep], self.cfg)
            result = Assignment([(ti, keep[di]) for ti, di in sub.matches],
                                sub.unmatched_tracks,
                                [keep[i] for i in sub.unmatched_dets])

        outputs: list[TrackOutput] = []
        matched = [self.tracks[ti] for ti, _ in result.matches]
        if matched:
            means, covs = self.kalman.update(*_stacked(matched),
                                             [detections[di].bbox for _, di in result.matches])
            for t, mean, cov in zip(matched, means, covs):
                t.mean, t.cov = mean, cov
        for t, (_, di) in zip(matched, result.matches):
            d = detections[di]
            t.hits += 1
            t.time_since_update = 0
            if t.status is TrackStatus.tentative and t.hits >= self.cfg.n_init:
                t.status = TrackStatus.confirmed
            elif t.status is TrackStatus.lost:
                t.status = TrackStatus.confirmed
            if t.status is TrackStatus.confirmed or warm_up:
                outputs.append(TrackOutput(frame, t.track_id, d.bbox, d.score))

        for ti in result.unmatched_tracks:
            t = self.tracks[ti]
            t.time_since_update += 1
            if t.status is TrackStatus.tentative:
                t.status = TrackStatus.removed
            elif t.status is TrackStatus.confirmed:
                t.status = TrackStatus.lost
            if t.status is TrackStatus.lost and t.time_since_update > self.cfg.max_age:
                t.status = TrackStatus.removed

        for di in result.unmatched_dets:
            self._spawn(detections[di])
            t = self.tracks[-1]
            if warm_up:  # emit fresh tracks too
                outputs.append(TrackOutput(frame, t.track_id,
                                           detections[di].bbox, detections[di].score))

        self.tracks = [t for t in self.tracks if t.status is not TrackStatus.removed]
        return sorted(outputs, key=lambda o: o.track_id)


def run_tracker(frames: dict[int, list[Detection]],
                cfg: TrackerConfig | None = None) -> list[TrackOutput]:
    """Track a whole sequence given per-frame detections keyed by frame index."""
    tracker = Tracker(cfg)
    out: list[TrackOutput] = []
    for frame in sorted(frames):
        out.extend(tracker.step(frame, frames[frame]))
    return out


def outputs_to_records(outputs: list[TrackOutput]) -> list[AnnotationRecord]:
    """Serialize tracker outputs as annotation records (category 1, full visibility)."""
    return [AnnotationRecord(o.frame, o.track_id, o.bbox,
                             confidence=o.score, category=1, visibility=1.0)
            for o in outputs]
