"""Deterministic synthetic crowd generator plus a detector-noise model.

Agents integrate noisy headings with inverse-distance repulsive steering
(social-force flavor) so runs contain crossings and near-occlusions. All
randomness comes from a counter-based Philox generator keyed by the config
seed, so output is a pure function of (config, seed).

The crowd (`simulate_table`) and the detector noise (`corrupt_table`) work on
(N, 9) tables (see `motio`), which `gen-scenario` writes as they are;
`simulate` and `corrupt` are their record wrappers.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# `iou` stays importable here: benchmarks/tracing.py counts calls at this site
from .geometry import BBox, iou, iou_rows  # noqa: F401
from .motio import AnnotationRecord, SequenceMeta, check_seed, records, table

OCCLUSION_IOU = 0.3  # pairwise GT overlap that triggers the score multiplier
MAX_JITTER = 1e4     # px, cap on the jitter sigmas: jittered boxes stay finite
MAX_FP_RATE = 1e3    # cap on expected false boxes per frame
MAX_HEADING_SIGMA = 1e3  # rad/frame; headings stay finite, and above ~2 pi draw uniform
OCCLUSION_BLOCK = 1 << 14  # boxes per block of frames in corrupt's occlusion pass


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
        check_seed(self.seed, SimError)
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
        check_seed(self.seed, SimError)
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


def simulate_table(cfg: ScenarioConfig) -> tuple[np.ndarray, SequenceMeta]:
    """Ground-truth head tracks as a (duration * agent_count, 9) table (see
    `motio`): one id per agent, alive throughout, rows in frame order, then
    id order."""
    rng = _rng(cfg.seed)
    n = cfg.agent_count
    sizes = rng.uniform(*cfg.head_size_range, size=n)
    margin = sizes / 2.0
    low, high = margin, np.array(cfg.arena)[:, None] - margin   # per axis and agent
    pos = np.stack([rng.uniform(margin, hi) for hi in high])    # (2, n): x and y planes
    speeds = rng.uniform(*cfg.speed_range, size=n)
    headings = rng.uniform(0.0, 2.0 * math.pi, size=n)

    out = np.ones((cfg.duration, n, 9))   # confidence, category and visibility stay 1
    out[:, :, 0] = np.arange(1, cfg.duration + 1)[:, None]
    out[:, :, 1] = np.arange(1, n + 1)
    out[:, :, 4] = out[:, :, 5] = sizes
    for frame in out:
        frame[:, 2:4] = (pos - margin).T
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
    return out.reshape(-1, 9), meta


def simulate(cfg: ScenarioConfig) -> tuple[list[AnnotationRecord], SequenceMeta]:
    """`simulate_table` as records."""
    gt, meta = simulate_table(cfg)
    return records(gt), meta


def _occluded(counts: np.ndarray, boxes: np.ndarray) -> np.ndarray:
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


def _unit(s: np.ndarray) -> np.ndarray:
    """`min(max(v, 0.0), 1.0)` of each value, signed zeros included."""
    s = np.where(0.0 > s, 0.0, s)
    return np.where(1.0 < s, 1.0, s)


def _corrupt(gt: np.ndarray, noise: NoiseModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`corrupt_table`'s detections, the gt row of each (-1 for a false
    positive), and whether each one's width (row 0) and height (row 1) were
    clamped up to 2.0."""
    rng = _rng(noise.seed)
    order = np.argsort(gt[:, 0], kind="stable")
    frames, starts = np.unique(gt[order, 0], return_index=True)
    bounds = np.append(starts, len(gt))
    boxes = gt[order, 2:6]
    occluded = _occluded(np.diff(bounds), boxes)
    arena_w, arena_h = (boxes[:, :2] + boxes[:, 2:]).max(axis=0).tolist() if len(gt) \
        else (100.0, 100.0)

    # the draws, in the order of the per-box stream: for each box a miss
    # draw, then, if kept, its normals (4 jitter and 1 score, or the score
    # alone); after each frame's boxes its false positives
    cj, sj = noise.center_jitter, noise.size_jitter
    jitter = cj > 0 or sj > 0
    miss_rate = noise.miss_rate
    random, normal, uniform = rng.random, rng.standard_normal, rng.uniform
    kept = np.ones(len(gt), dtype=bool)
    z = np.empty((len(gt), 5 if jitter else 1))
    fp = []   # (frame index, left, top, size, score draw) of each false positive
    for f, lo, hi in zip(range(len(frames)), bounds[:-1].tolist(), bounds[1:].tolist()):
        for k in range(lo, hi):
            if miss_rate > 0 and random() < miss_rate:
                kept[k] = False
            else:
                normal(out=z[k])
        for _ in range(rng.poisson(noise.fp_rate)):
            size = uniform(8.0, 30.0)
            fp.append((f, uniform(0.0, max(arena_w - size, 1.0)),
                       uniform(0.0, max(arena_h - size, 1.0)), size, rng.normal(*noise.fp_score)))

    # normal(loc, scale) computes loc + scale * z on the same stream, so
    # these are the values of per-box normal draws, bit for bit; the arrays
    # are single columns, so no temporary holds a whole table
    rows = np.flatnonzero(kept)
    x, y, w, h = (boxes[rows, c] for c in range(4))
    clamped = np.zeros((2, len(rows)), dtype=bool)
    if jitter:
        dx, dy, dw, dh = (0.0 + s * z[rows, c] for c, s in enumerate((cj, cj, sj, sj)))
        x, y, w, h = x + dx - dw / 2.0, y + dy - dh / 2.0, w + dw, h + dh
        clamped = np.stack([w < 2.0, h < 2.0])
        w, h = np.where(clamped, 2.0, (w, h))
    mu, sd = noise.tp_score
    score = _unit(mu + sd * z[rows, -1])
    score = np.where(occluded[rows], score * noise.occlusion_drop, score)
    del boxes, z   # a sequence's worth each, not needed to build the table

    # each frame's kept boxes, then its false positives, numbered from 1
    fp = np.array(fp).reshape(-1, 5)
    frame_of = np.concatenate([np.repeat(np.arange(len(frames)), np.diff(bounds))[rows],
                               fp[:, 0].astype(np.intp)])
    by_frame = np.argsort(frame_of, kind="stable")
    dets = np.ones((len(by_frame), 9))   # category and visibility stay 1
    dets[:, 0] = frames[frame_of[by_frame]]
    dets[:, 1] = np.arange(len(dets)) - np.searchsorted(dets[:, 0], dets[:, 0]) + 1
    for c, kept_col, fp_col in ((2, x, fp[:, 1]), (3, y, fp[:, 2]), (4, w, fp[:, 3]),
                                (5, h, fp[:, 3]), (6, score, _unit(fp[:, 4]))):
        dets[:, c] = np.concatenate([kept_col, fp_col])[by_frame]
    src = np.concatenate([order[rows], np.full(len(fp), -1)])[by_frame]
    return dets, src, np.concatenate([clamped, np.zeros((2, len(fp)), dtype=bool)], 1)[:, by_frame]


def corrupt_table(gt: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Turn a gt table (see `motio`) into the table of scored detections: rows
    in frame order, each frame's kept boxes in gt order, then its false
    positives, numbered from 1 per frame in the id column, the score in the
    confidence column. A box that overlaps another box of its frame by IoU >
    OCCLUSION_IOU has its score multiplied by occlusion_drop; one
    sort-and-sweep pass over the whole sequence (`_occluded`) finds those
    boxes. The per-box loop only draws the noise; jitter, clamp and scores
    are then array arithmetic in the scalar order of operations."""
    return _corrupt(np.reshape(gt, (-1, 9)), noise)[0]


def corrupt(gt: list[AnnotationRecord], noise: NoiseModel) -> dict[int, list[AnnotationRecord]]:
    """`corrupt_table` as records: frame -> its detections, for every frame of
    gt. A kept box without jitter is its gt record's own `bbox`; a jittered
    one has np.float64 fields, except that a size clamped up to 2.0 is the
    float 2.0; a false positive's fields are floats. Scores are floats."""
    dets, src, clamped = _corrupt(table(gt), noise)
    jitter = noise.center_jitter > 0 or noise.size_jitter > 0
    lefts, tops, widths, heights = map(list, dets[:, 2:6].T)   # np.float64 scalars
    for sizes, hit in zip((widths, heights), clamped):
        for i in np.flatnonzero(hit).tolist():
            sizes[i] = 2.0
    out: dict[int, list[AnnotationRecord]] = {f: [] for f in sorted({r.frame for r in gt})}
    for i, (f, k, score) in enumerate(zip(map(int, dets[:, 0].tolist()), src.tolist(),
                                          dets[:, 6].tolist())):
        if k < 0:
            box = BBox(*dets[i, 2:6].tolist())
        elif jitter:
            box = BBox(lefts[i], tops[i], widths[i], heights[i])
        else:
            box = gt[k].bbox
        frame = out[f]
        frame.append(AnnotationRecord(f, len(frame) + 1, box, confidence=score))
    return out
