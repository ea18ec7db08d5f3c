"""Deterministic synthetic crowd generator plus a detector-noise model.

Agents integrate noisy headings with inverse-distance repulsive steering
(social-force flavor) so runs contain crossings and near-occlusions. All
randomness comes from a counter-based Philox generator keyed by the config
seed, so output is a pure function of (config, seed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# `iou` stays importable here: benchmarks/tracing.py counts calls at this site
from .geometry import BBox, iou, iou_matrix, ltwh_array  # noqa: F401
from .motio import AnnotationRecord, SequenceMeta

OCCLUSION_IOU = 0.3  # pairwise GT overlap that triggers the score multiplier


class SimError(ValueError):
    pass


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
        if self.agent_count < 1:
            raise SimError("agent_count must be >= 1")
        (v0, v1), (s0, s1) = self.speed_range, self.head_size_range
        if not (0 <= v0 <= v1 and 0 < s0 <= s1):
            raise SimError("need 0 <= speed low <= high and 0 < head size low <= high")
        if self.duration < 1:
            raise SimError("duration must be >= 1")
        if self.heading_sigma < 0 or self.seed < 0 or self.fps <= 0:
            raise SimError("heading_sigma and seed must be >= 0, fps > 0")
        w, h = self.arena
        if min(w, h) < s1 or w * h < self.agent_count * s1 ** 2:
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
        if not (0 <= self.miss_rate < 1) or self.fp_rate < 0:
            raise SimError("invalid miss_rate or fp_rate")
        if min(self.center_jitter, self.size_jitter, self.tp_score[1], self.fp_score[1],
               self.seed) < 0:
            raise SimError("jitter sigmas, score sigmas and seed must be >= 0")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def simulate(cfg: ScenarioConfig) -> tuple[list[AnnotationRecord], SequenceMeta]:
    """Generate ground-truth head tracks: one id per agent, alive throughout."""
    rng = _rng(cfg.seed)
    w, h = cfg.arena
    n = cfg.agent_count
    sizes = rng.uniform(*cfg.head_size_range, size=n)
    margin = sizes / 2.0
    pos = np.stack([rng.uniform(margin, w - margin),
                    rng.uniform(margin, h - margin)], axis=1)
    speeds = rng.uniform(*cfg.speed_range, size=n)
    headings = rng.uniform(0.0, 2.0 * math.pi, size=n)

    records: list[AnnotationRecord] = []
    for frame in range(1, cfg.duration + 1):
        for i in range(n):
            records.append(AnnotationRecord(
                frame, i + 1,
                BBox(pos[i, 0] - sizes[i] / 2.0, pos[i, 1] - sizes[i] / 2.0,
                     sizes[i], sizes[i])))
        headings += rng.normal(0.0, cfg.heading_sigma, size=n)
        vel = np.stack([np.cos(headings), np.sin(headings)], axis=1) * speeds[:, None]
        # pairwise repulsive steering inside the repulsion radius
        if cfg.repulsion_strength > 0 and n > 1:
            delta = pos[:, None, :] - pos[None, :, :]
            dist = np.linalg.norm(delta, axis=2)
            np.fill_diagonal(dist, np.inf)
            near = dist < cfg.repulsion_radius
            push = np.where(near[:, :, None],
                            delta / np.maximum(dist, 1e-6)[:, :, None] ** 2, 0.0)
            vel += cfg.repulsion_strength * push.sum(axis=1) * cfg.repulsion_radius
        pos += vel
        # bounce off arena walls, keeping the whole box inside
        for ax, limit in ((0, w), (1, h)):
            low = margin
            high = limit - margin
            under = pos[:, ax] < low
            over = pos[:, ax] > high
            pos[under, ax] = 2 * low[under] - pos[under, ax]
            pos[over, ax] = 2 * high[over] - pos[over, ax]
            pos[:, ax] = np.clip(pos[:, ax], low, high)
            flip = under | over
            if ax == 0:
                headings[flip] = math.pi - headings[flip]
            else:
                headings[flip] = -headings[flip]
    meta = SequenceMeta(name=f"synthetic-{cfg.seed}", fps=cfg.fps,
                        frame_count=cfg.duration, resolution=cfg.arena, view="overhead")
    return records, meta


def corrupt(gt: list[AnnotationRecord], noise: NoiseModel) -> dict[int, list]:
    """Turn GT boxes into scored detections; returns frame -> [Detection]."""
    from .tracker import Detection

    rng = _rng(noise.seed)
    by_frame: dict[int, list[AnnotationRecord]] = {}
    for r in gt:
        by_frame.setdefault(r.frame, []).append(r)

    arena_w = max(r.bbox.right for r in gt) if gt else 100.0
    arena_h = max(r.bbox.bottom for r in gt) if gt else 100.0

    out: dict[int, list[Detection]] = {}
    for frame in sorted(by_frame):
        recs = by_frame[frame]
        boxes = ltwh_array(r.bbox for r in recs)
        overlaps = np.triu(iou_matrix(boxes, boxes) > OCCLUSION_IOU, k=1)
        occluded = (overlaps.any(axis=0) | overlaps.any(axis=1)).tolist()
        dets: list[Detection] = []
        for rec, occ in zip(recs, occluded):
            if noise.miss_rate > 0 and rng.random() < noise.miss_rate:
                continue
            b = rec.bbox
            if noise.center_jitter > 0 or noise.size_jitter > 0:
                dx, dy = rng.normal(0.0, noise.center_jitter, size=2)
                dw, dh = rng.normal(0.0, noise.size_jitter, size=2)
                b = BBox(b.left + dx - dw / 2.0, b.top + dy - dh / 2.0,
                         max(b.width + dw, 2.0), max(b.height + dh, 2.0))
            score = float(np.clip(rng.normal(*noise.tp_score), 0.0, 1.0))
            if occ:
                score *= noise.occlusion_drop
            dets.append(Detection(b, score))
        for _ in range(rng.poisson(noise.fp_rate)):
            size = rng.uniform(8.0, 30.0)
            left = rng.uniform(0.0, max(arena_w - size, 1.0))
            top = rng.uniform(0.0, max(arena_h - size, 1.0))
            score = float(np.clip(rng.normal(*noise.fp_score), 0.0, 1.0))
            dets.append(Detection(BBox(left, top, size, size), score))
        out[frame] = dets
    return out
