"""Deterministic synthetic crowd generator plus a detector-noise model.

Agents integrate noisy headings with inverse-distance repulsive steering
(social-force flavor) so runs contain crossings and near-occlusions. All
randomness comes from a counter-based Philox generator keyed by the config
seed, so output is a pure function of (config, seed).
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

# `iou` stays importable here: benchmarks/tracing.py counts calls at this site
from .geometry import BBox, iou, iou_rows, ltwh_array  # noqa: F401
from .motio import AnnotationRecord, SequenceMeta

OCCLUSION_IOU = 0.3  # pairwise GT overlap that triggers the score multiplier
MAX_JITTER = 1e4     # px, cap on the jitter sigmas: jittered boxes stay finite
MAX_FP_RATE = 1e3    # cap on expected false boxes per frame
MAX_HEADING_SIGMA = 1e3  # rad/frame; headings stay finite, and above ~2 pi draw uniform
OCCLUSION_BLOCK = 1 << 14  # boxes per block of frames in corrupt's occlusion pass


class SimError(ValueError):
    pass


def _check_seed(seed) -> None:
    try:
        if operator.index(seed) >= 0:
            return
    except TypeError:
        pass
    raise SimError(f"seed must be an integer >= 0, got {seed!r}")


@dataclass
class ScenarioConfig:
    arena: tuple[int, int] = (640, 480)    # (W, H) pixels
    agent_count: int = 20
    speed_range: tuple[float, float] = (0.5, 3.0)   # px/frame
    heading_sigma: float = 0.05            # radians/frame
    head_size_range: tuple[float, float] = (14.0, 26.0)
    fps: float = 25.0
    duration: int = 200                    # frames
    repulsion_radius: float = 30.0
    repulsion_strength: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        if self.agent_count < 1:
            raise SimError("agent_count must be >= 1")
        (v0, v1), (s0, s1) = self.speed_range, self.head_size_range
        if not (0 <= v0 <= v1 and 0 < s0 <= s1 and s0 * s0 > 0):
            raise SimError("need 0 <= speed low <= high and 0 < head size low <= high, "
                           "with head size low squared > 0")
        if self.duration < 1:
            raise SimError("duration must be >= 1")
        if not all(map(math.isfinite, (*self.arena, *self.speed_range, *self.head_size_range,
                                       self.repulsion_radius, self.repulsion_strength))):
            raise SimError("arena, speed, head size and repulsion values must be finite")
        if not 0 <= self.heading_sigma <= MAX_HEADING_SIGMA or not 0 < self.fps < math.inf:
            raise SimError(f"need 0 <= heading_sigma <= {MAX_HEADING_SIGMA:g} and 0 < fps < inf")
        w, h = self.arena
        if min(w, h) < s1 or w * h < self.agent_count * s1 * s1:
            raise SimError("arena too small for agent_count or head size")


@dataclass
class NoiseModel:
    miss_rate: float = 0.0
    fp_rate: float = 0.0                   # expected false boxes per frame
    center_jitter: float = 0.0             # px
    size_jitter: float = 0.0               # px
    tp_score: tuple[float, float] = (1.0, 0.0)   # (mean, sigma), clipped to [0, 1]
    fp_score: tuple[float, float] = (0.3, 0.1)
    occlusion_drop: float = 1.0            # score multiplier under GT overlap
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        if not (0 <= self.miss_rate < 1) or not (0 <= self.fp_rate <= MAX_FP_RATE):
            raise SimError(f"need 0 <= miss_rate < 1 and 0 <= fp_rate <= {MAX_FP_RATE:g}")
        if not all(0 <= s <= MAX_JITTER for s in (self.center_jitter, self.size_jitter)):
            raise SimError(f"need 0 <= jitter sigmas <= {MAX_JITTER:g} px")
        if not all(map(math.isfinite, (*self.tp_score, *self.fp_score))):
            raise SimError("score means and sigmas must be finite")
        if min(self.tp_score[1], self.fp_score[1]) < 0:
            raise SimError("score sigmas must be >= 0")
        if not 0 <= self.occlusion_drop <= 1:   # scores stay in [0, 1]
            raise SimError("need 0 <= occlusion_drop <= 1")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def simulate(cfg: ScenarioConfig) -> tuple[list[AnnotationRecord], SequenceMeta]:
    """Generate ground-truth head tracks: one id per agent, alive throughout."""
    rng = _rng(cfg.seed)
    n = cfg.agent_count
    sizes = rng.uniform(*cfg.head_size_range, size=n)
    margin = sizes / 2.0
    low, high = margin, np.array(cfg.arena)[:, None] - margin   # per axis and agent
    pos = np.stack([rng.uniform(margin, hi) for hi in high])    # (2, n): x and y planes
    speeds = rng.uniform(*cfg.speed_range, size=n)
    headings = rng.uniform(0.0, 2.0 * math.pi, size=n)

    records: list[AnnotationRecord] = []
    ids, size_list = range(1, n + 1), sizes.tolist()
    for frame in range(1, cfg.duration + 1):
        lefts, tops = (pos - margin).tolist()
        records.extend(AnnotationRecord(frame, i, BBox(x, y, s, s))
                       for i, x, y, s in zip(ids, lefts, tops, size_list))
        headings += rng.normal(0.0, cfg.heading_sigma, size=n)
        vel = np.stack([np.cos(headings), np.sin(headings)]) * speeds
        # pairwise repulsive steering inside the repulsion radius, on contiguous
        # [axis, j, i] planes; the sum over j runs along an outer axis, so it
        # adds the terms one j at a time, in j order
        if cfg.repulsion_strength > 0 and n > 1:
            delta = pos[:, None, :] - pos[:, :, None]     # pos[:, i] - pos[:, j]
            dist = np.sqrt(delta[0] * delta[0] + delta[1] * delta[1])
            np.fill_diagonal(dist, np.inf)
            near = dist < cfg.repulsion_radius
            push = np.where(near, delta / np.maximum(dist, 1e-6) ** 2, 0.0)
            vel += cfg.repulsion_strength * push.sum(axis=1) * cfg.repulsion_radius
        pos += vel
        # bounce off arena walls, keeping the whole box inside: a side wall
        # turns heading h to pi - h, a top or bottom wall turns it to -h
        under, over = pos < low, pos > high
        pos = np.where(under, 2 * low - pos, pos)
        pos = np.clip(np.where(over, 2 * high - pos, pos), low, high)
        flip_x, flip_y = under | over
        headings = np.where(flip_x, math.pi - headings, headings) * np.where(flip_y, -1.0, 1.0)
    meta = SequenceMeta(name=f"synthetic-{cfg.seed}", fps=cfg.fps,
                        frame_count=cfg.duration, resolution=cfg.arena, view="overhead")
    return records, meta


def _occluded(counts: list[int], boxes: np.ndarray) -> np.ndarray:
    """Whether each row of `boxes`, grouped into frames of `counts` rows each,
    overlaps another box of its frame by IoU > OCCLUSION_IOU: the flags of the
    upper triangle of each frame's `iou_matrix(boxes, boxes)`, found by sort
    and sweep. Frames go through in blocks of about OCCLUSION_BLOCK rows,
    which bounds the memory at any sequence length."""
    flags = np.zeros(len(boxes), dtype=bool)
    starts = np.cumsum([0, *counts])
    # each block runs to the last frame start at or before a multiple of the block size
    cuts = np.unique(starts[np.searchsorted(
        starts, np.arange(0, len(boxes) + OCCLUSION_BLOCK, OCCLUSION_BLOCK), "right") - 1])
    frame_of = np.repeat(np.arange(len(counts)), counts)
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        block = boxes[lo:hi]
        # sorted by (frame, left), a box's candidates are the later boxes of its
        # frame whose left edge is at or before its right edge: a run of
        # positions k + 1, k + 2, ... that the sweep follows one offset at a time
        order = np.lexsort((block[:, 0], frame_of[lo:hi]))
        f = frame_of[lo:hi][order]
        left, top, width, height = block[order].T
        right, bottom = left + width, top + height
        k, ks, js = np.arange(len(order)), [], []
        for d in itertools.count(1):
            k = k[k < len(order) - d]
            k = k[(f[k + d] == f[k]) & (left[k + d] <= right[k])]
            if not k.size:
                break
            ks.append(k)
            js.append(k + d)
        k, j = np.concatenate([k, *ks]), np.concatenate([k, *js])   # k is empty here
        # the rest of `iou_matrix`'s meet test, then the pair as the full test
        # scores it: the earlier row first
        meet = (left[k] <= right[j]) & (top[k] <= bottom[j]) & (top[j] <= bottom[k])
        a, b = order[k[meet]], order[j[meet]]
        a, b = np.minimum(a, b), np.maximum(a, b)
        hit = iou_rows(block[a], block[b]) > OCCLUSION_IOU
        flags[lo + a[hit]] = flags[lo + b[hit]] = True
    return flags


def corrupt(gt: list[AnnotationRecord], noise: NoiseModel) -> dict[int, list[AnnotationRecord]]:
    """Turn GT boxes into scored detections: frame -> records in frame order, numbered
    from 1 per frame (kept boxes, then false positives), the score as confidence.
    A box that overlaps another box of its frame by IoU > OCCLUSION_IOU has its
    score multiplied by occlusion_drop; one sort-and-sweep pass over the whole
    sequence (`_occluded`) finds those boxes before the per-box draws."""
    rng = _rng(noise.seed)
    by_frame: dict[int, list[AnnotationRecord]] = {}
    for r in gt:
        by_frame.setdefault(r.frame, []).append(r)
    frames = sorted(by_frame)
    counts = [len(by_frame[f]) for f in frames]
    boxes = ltwh_array(r.bbox for f in frames for r in by_frame[f])
    occluded = _occluded(counts, boxes)
    arena_w, arena_h = (boxes[:, :2] + boxes[:, 2:]).max(axis=0).tolist() if gt else (100.0, 100.0)

    cj, sj = noise.center_jitter, noise.size_jitter
    jitter = cj > 0 or sj > 0
    mu, sd = noise.tp_score
    out: dict[int, list[AnnotationRecord]] = {}
    stop = 0
    for frame, count in zip(frames, counts):
        start, stop = stop, stop + count
        dets: list[AnnotationRecord] = []
        for rec, (x, y, w, h), occ in zip(by_frame[frame], boxes[start:stop].tolist(),
                                          occluded[start:stop].tolist()):
            if noise.miss_rate > 0 and rng.random() < noise.miss_rate:
                continue
            b = rec.bbox
            # one draw per box: normal(loc, scale) computes loc + scale * z on
            # the same stream, so these are its values, bit for bit; the box
            # fields stay np.float64, the type normal's array draws gave them
            if jitter:
                z0, z1, z2, z3, z = rng.standard_normal(5).tolist()
                dx, dy, dw, dh = 0.0 + cj * z0, 0.0 + cj * z1, 0.0 + sj * z2, 0.0 + sj * z3
                b = BBox(np.float64(x + dx - dw / 2.0), np.float64(y + dy - dh / 2.0),
                         max(np.float64(w + dw), 2.0), max(np.float64(h + dh), 2.0))
            else:
                z = rng.standard_normal()
            score = min(max(mu + sd * z, 0.0), 1.0)
            if occ:
                score *= noise.occlusion_drop
            dets.append(AnnotationRecord(frame, len(dets) + 1, b, confidence=score))
        for _ in range(rng.poisson(noise.fp_rate)):
            size = rng.uniform(8.0, 30.0)
            left = rng.uniform(0.0, max(arena_w - size, 1.0))
            top = rng.uniform(0.0, max(arena_h - size, 1.0))
            score = min(max(rng.normal(*noise.fp_score), 0.0), 1.0)
            dets.append(AnnotationRecord(frame, len(dets) + 1, BBox(left, top, size, size),
                                         confidence=score))
        out[frame] = dets
    return out
