import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import headtrack.simulate as simulate_module
from headtrack.geometry import BBox, iou, iou_matrix, ltwh_array
from headtrack.motio import (
    AnnotationRecord,
    ConfigError,
    SequenceMeta,
    read_config,
    records,
    table,
)
from headtrack.simulate import (
    OCCLUSION_IOU,
    NoiseModel,
    ScenarioConfig,
    SimError,
    _rng,
    corrupt,
    corrupt_table,
    simulate,
    simulate_table,
)


class TestSimulate:
    def test_deterministic(self):
        cfg = ScenarioConfig(agent_count=8, duration=50, seed=7)
        a, meta_a = simulate(cfg)
        b, meta_b = simulate(cfg)
        assert a == b and meta_a == meta_b

    def test_seed_changes_output(self):
        a, _ = simulate(ScenarioConfig(agent_count=8, duration=50, seed=1))
        b, _ = simulate(ScenarioConfig(agent_count=8, duration=50, seed=2))
        assert a != b

    def test_record_census(self):
        cfg = ScenarioConfig(agent_count=6, duration=40, seed=3)
        recs, meta = simulate(cfg)
        assert len(recs) == 6 * 40
        assert {r.track_id for r in recs} == set(range(1, 7))
        by_id = {}
        for r in recs:
            by_id.setdefault(r.track_id, []).append(r.frame)
        for frames in by_id.values():
            assert sorted(frames) == list(range(1, 41))
        assert meta.frame_count == 40 and meta.resolution == cfg.arena

    def test_boxes_stay_inside_arena(self):
        cfg = ScenarioConfig(arena=(300, 200), agent_count=10, duration=150,
                             speed_range=(2.0, 4.0), seed=4)
        recs, _ = simulate(cfg)
        for r in recs:
            assert r.bbox.left >= -1e-9 and r.bbox.top >= -1e-9
            assert r.bbox.left + r.bbox.width <= 300 + 1e-9
            assert r.bbox.top + r.bbox.height <= 200 + 1e-9

    def test_sizes_constant_per_agent(self):
        recs, _ = simulate(ScenarioConfig(agent_count=5, duration=30, seed=5))
        sizes = {}
        for r in recs:
            sizes.setdefault(r.track_id, set()).add((r.bbox.width, r.bbox.height))
        for s in sizes.values():
            assert len(s) == 1

    def test_step_length_bounded_by_speed(self):
        cfg = ScenarioConfig(agent_count=4, duration=80, speed_range=(1.0, 2.5),
                             repulsion_strength=0.0, seed=6)
        recs, _ = simulate(cfg)
        centers = {}
        for r in recs:
            centers.setdefault(r.track_id, {})[r.frame] = np.array(r.bbox.center)
        for traj in centers.values():
            for f in range(1, 80):
                step = np.linalg.norm(traj[f + 1] - traj[f])
                # wall bounces can shorten but never lengthen a step
                assert step <= 2.5 + 1e-9

    def test_repulsion_reduces_close_encounters(self):
        base = dict(arena=(200, 150), agent_count=12, duration=120,
                    head_size_range=(10.0, 14.0), seed=8)
        free, _ = simulate(ScenarioConfig(repulsion_strength=0.0, **base))
        steered, _ = simulate(ScenarioConfig(repulsion_strength=1.5, **base))

        def close_pairs(recs):
            by_frame = {}
            for r in recs:
                by_frame.setdefault(r.frame, []).append(np.array(r.bbox.center))
            total = 0
            for pts in by_frame.values():
                arr = np.array(pts)
                d = np.linalg.norm(arr[:, None] - arr[None, :], axis=2)
                total += int((d[np.triu_indices(len(arr), 1)] < 15.0).sum())
            return total

        assert close_pairs(steered) < close_pairs(free)

    def test_arena_too_small_rejected(self):
        with pytest.raises(SimError):
            ScenarioConfig(arena=(40, 40), agent_count=50)

    def test_bad_counts_rejected(self):
        with pytest.raises(SimError):
            ScenarioConfig(agent_count=0)
        with pytest.raises(SimError):
            ScenarioConfig(duration=0)


def simulate_records(cfg):
    """The oracle: `simulate` as it was when it built each frame's records in
    its loop, from the positions' and sizes' `tolist`, as (records, meta)."""
    rng = _rng(cfg.seed)
    n = cfg.agent_count
    sizes = rng.uniform(*cfg.head_size_range, size=n)
    margin = sizes / 2.0
    low, high = margin, np.array(cfg.arena)[:, None] - margin
    pos = np.stack([rng.uniform(margin, hi) for hi in high])
    speeds = rng.uniform(*cfg.speed_range, size=n)
    headings = rng.uniform(0.0, 2.0 * math.pi, size=n)
    recs = []
    for frame in range(1, cfg.duration + 1):
        lefts, tops = (pos - margin).tolist()
        recs.extend(AnnotationRecord(frame, i, BBox(x, y, s, s))
                    for i, x, y, s in zip(range(1, n + 1), lefts, tops, sizes.tolist()))
        headings += rng.normal(0.0, cfg.heading_sigma, size=n)
        vel = np.stack([np.cos(headings), np.sin(headings)]) * speeds
        if cfg.repulsion_strength > 0 and n > 1:
            delta = pos[:, None, :] - pos[:, :, None]
            dist = np.sqrt(delta[0] * delta[0] + delta[1] * delta[1])
            np.fill_diagonal(dist, np.inf)
            push = np.where(dist < cfg.repulsion_radius,
                            delta / np.maximum(dist, 1e-6) ** 2, 0.0)
            vel += cfg.repulsion_strength * push.sum(axis=1) * cfg.repulsion_radius
        pos += vel
        under, over = pos < low, pos > high
        pos = np.where(under, 2 * low - pos, pos)
        pos = np.clip(np.where(over, 2 * high - pos, pos), low, high)
        flip_x, flip_y = under | over
        headings = np.where(flip_x, math.pi - headings, headings) * np.where(flip_y, -1.0, 1.0)
    return recs, SequenceMeta(name=f"synthetic-{cfg.seed}", fps=cfg.fps,
                              frame_count=cfg.duration, resolution=cfg.arena, view="overhead")


def _typed(recs):
    """Each record's fields with their types, box fields included."""
    return [tuple((v, type(v)) for v in (r.frame, r.track_id, *dataclasses.astuple(r.bbox),
                                         r.confidence, r.category, r.visibility))
            for r in recs]


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(agent_count=1, repulsion_strength=0.0, heading_sigma=50.0, duration=60,
                   seed=3),
    ScenarioConfig(arena=(60, 45), agent_count=3, speed_range=(5.0, 30.0),
                   heading_sigma=0.5, duration=60, seed=4),
    ScenarioConfig(agent_count=90, duration=10, seed=0),
], ids=["lone-agent", "small-arena", "roof-plus"])
def test_simulate_table_equals_record_loop(cfg):
    want, meta = simulate_records(cfg)
    gt, got_meta = simulate_table(cfg)
    assert gt.shape == (cfg.duration * cfg.agent_count, 9) and got_meta == meta
    assert _typed(records(gt)) == _typed(want)
    assert _typed(simulate(cfg)[0]) == _typed(want)


def simulate_per_axis(cfg, seen=None):
    """The oracle: `simulate` as it was when it bounced agents off the walls one
    axis at a time and steered them on (N, N, 2) arrays, as the (duration,
    agent_count, 4) array of each frame's box fields, and the number of wall
    bounces. `seen`, a dict, counts the pairs whose distance met the 1e-6
    floor ("floor") or equalled the repulsion radius ("radius")."""
    rng = _rng(cfg.seed)
    w, h = cfg.arena
    n = cfg.agent_count
    sizes = rng.uniform(*cfg.head_size_range, size=n)
    margin = sizes / 2.0
    pos = np.stack([rng.uniform(margin, w - margin),
                    rng.uniform(margin, h - margin)], axis=1)
    speeds = rng.uniform(*cfg.speed_range, size=n)
    headings = rng.uniform(0.0, 2.0 * math.pi, size=n)
    boxes, bounces = [], 0
    for _ in range(cfg.duration):
        boxes.append(np.stack([pos[:, 0] - sizes / 2.0, pos[:, 1] - sizes / 2.0,
                               sizes, sizes], axis=1))
        headings += rng.normal(0.0, cfg.heading_sigma, size=n)
        vel = np.stack([np.cos(headings), np.sin(headings)], axis=1) * speeds[:, None]
        if cfg.repulsion_strength > 0 and n > 1:
            delta = pos[:, None, :] - pos[None, :, :]
            dist = np.linalg.norm(delta, axis=2)
            np.fill_diagonal(dist, np.inf)
            if seen is not None:
                seen["floor"] = seen.get("floor", 0) + int((dist <= 1e-6).sum())
                seen["radius"] = seen.get("radius", 0) + int((dist == cfg.repulsion_radius).sum())
            near = dist < cfg.repulsion_radius
            push = np.where(near[:, :, None],
                            delta / np.maximum(dist, 1e-6)[:, :, None] ** 2, 0.0)
            vel += cfg.repulsion_strength * push.sum(axis=1) * cfg.repulsion_radius
        pos += vel
        for ax, limit in ((0, w), (1, h)):
            low = margin
            high = limit - margin
            under = pos[:, ax] < low
            over = pos[:, ax] > high
            pos[under, ax] = 2 * low[under] - pos[under, ax]
            pos[over, ax] = 2 * high[over] - pos[over, ax]
            pos[:, ax] = np.clip(pos[:, ax], low, high)
            flip = under | over
            bounces += int(flip.sum())
            if ax == 0:
                headings[flip] = math.pi - headings[flip]
            else:
                headings[flip] = -headings[flip]
    return np.array(boxes), bounces


def _box_fields(cfg):
    recs, _ = simulate(cfg)
    return ltwh_array(r.bbox for r in recs).reshape(cfg.duration, cfg.agent_count, 4)


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(agent_count=12, duration=80, seed=0),
    ScenarioConfig(arena=(60, 45), agent_count=3, speed_range=(5.0, 30.0),
                   heading_sigma=0.5, duration=60, seed=4),
    ScenarioConfig(arena=(40, 40), agent_count=2, speed_range=(20.0, 60.0),
                   head_size_range=(10.0, 20.0), repulsion_strength=0.0, duration=50, seed=9),
])
def test_bounce_equals_per_axis_oracle(cfg):
    # positions after a bounce pin the bounced positions, and the positions
    # after them the bounced headings
    want, bounces = simulate_per_axis(cfg)
    assert bounces > 0
    assert _box_fields(cfg).tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(arena=st.tuples(st.integers(30, 120), st.integers(30, 120)),
       agents=st.integers(1, 6), speed=st.floats(0.0, 50.0),
       sigma=st.floats(0.0, 3.0), repulsion=st.sampled_from([0.0, 1.0]),
       seed=st.integers(0, 2**32))
def test_bounce_equals_per_axis_oracle_at_random(arena, agents, speed, sigma, repulsion, seed):
    cfg = ScenarioConfig(arena=arena, agent_count=agents, speed_range=(0.0, speed),
                         heading_sigma=sigma, head_size_range=(6.0, 12.0),
                         repulsion_strength=repulsion, duration=30, seed=seed)
    assert _box_fields(cfg).tobytes() == simulate_per_axis(cfg)[0].tobytes()


@pytest.mark.parametrize("arena", [(640, 480), (260, 260)], ids=["640x480", "260x260"])
@pytest.mark.parametrize("seed", [0, 7])
def test_repulsion_equals_oracle_at_roof_plus_density(seed, arena):
    # 90 heads, as in the paper's densest scene, each summing 89 terms; in the
    # smaller arena most heads have several neighbours inside the radius, so
    # a change to the order of summation shows in the last bits
    cfg = ScenarioConfig(arena=arena, agent_count=90, duration=20, seed=seed)
    assert _box_fields(cfg).tobytes() == simulate_per_axis(cfg)[0].tobytes()


@pytest.mark.parametrize("cfg, met", [
    # equal heads thrown far past the walls land on the same clipped corners:
    # coincident agents meet the 1e-6 floor, and corners 20 px apart sit
    # exactly one repulsion radius apart
    (ScenarioConfig(arena=(30, 30), agent_count=9, head_size_range=(10.0, 10.0),
                    speed_range=(100.0, 200.0), repulsion_radius=20.0, duration=30, seed=3),
     ("floor", "radius")),
    # a strip one head wide, filled to capacity, starts every agent at the
    # same x; steps longer than the strip then pile them onto its two ends
    (ScenarioConfig(arena=(12, 240), agent_count=20, head_size_range=(12.0, 12.0),
                    speed_range=(300.0, 600.0), heading_sigma=1.0, repulsion_radius=15.0,
                    duration=40, seed=5),
     ("floor",)),
], ids=["corners", "coincident-starts"])
def test_repulsion_equals_oracle_at_the_distance_floor_and_radius(cfg, met):
    seen = {}
    want, _ = simulate_per_axis(cfg, seen)
    assert all(seen[key] > 0 for key in met)
    assert _box_fields(cfg).tobytes() == want.tobytes()


def small_gt(seed=0):
    recs, _ = simulate(ScenarioConfig(agent_count=10, duration=60, seed=seed))
    return recs


def corrupt_loop(gt, noise):
    """The oracle: `corrupt` as it was when it drew each box's noise with three
    `rng.normal` calls (two jitter pairs, then the score), as frame -> list of
    (box, score) pairs."""
    rng = _rng(noise.seed)
    by_frame = {}
    for r in gt:
        by_frame.setdefault(r.frame, []).append(r)
    arena_w = max(r.bbox.left + r.bbox.width for r in gt) if gt else 100.0
    arena_h = max(r.bbox.top + r.bbox.height for r in gt) if gt else 100.0
    out = {}
    for frame in sorted(by_frame):
        recs = by_frame[frame]
        boxes = ltwh_array(r.bbox for r in recs)
        overlaps = np.triu(iou_matrix(boxes, boxes) > OCCLUSION_IOU, k=1)
        occluded = (overlaps.any(axis=0) | overlaps.any(axis=1)).tolist()
        dets = []
        for rec, occ in zip(recs, occluded):
            if noise.miss_rate > 0 and rng.random() < noise.miss_rate:
                continue
            b = rec.bbox
            if noise.center_jitter > 0 or noise.size_jitter > 0:
                dx, dy = rng.normal(0.0, noise.center_jitter, size=2)
                dw, dh = rng.normal(0.0, noise.size_jitter, size=2)
                b = BBox(b.left + dx - dw / 2.0, b.top + dy - dh / 2.0,
                         max(b.width + dw, 2.0), max(b.height + dh, 2.0))
            score = min(max(rng.normal(*noise.tp_score), 0.0), 1.0)
            if occ:
                score *= noise.occlusion_drop
            dets.append((b, score))
        for _ in range(rng.poisson(noise.fp_rate)):
            size = rng.uniform(8.0, 30.0)
            left = rng.uniform(0.0, max(arena_w - size, 1.0))
            top = rng.uniform(0.0, max(arena_h - size, 1.0))
            score = min(max(rng.normal(*noise.fp_score), 0.0), 1.0)
            dets.append((BBox(left, top, size, size), score))
        out[frame] = dets
    return out


def _numbered_pairs(dets):
    """The (box, score) pairs of `corrupt`'s records, after checking that each
    frame's records hold that frame and are numbered 1, 2, ... in order."""
    for f, ds in dets.items():
        assert [(d.frame, d.track_id) for d in ds] == [(f, i) for i in range(1, len(ds) + 1)]
        assert all(type(d.track_id) is int for d in ds)
    return {f: [(d.bbox, d.confidence) for d in ds] for f, ds in dets.items()}


def _detection_fields(pairs):
    """Each detection's box fields and score with their types and signs."""
    return {f: [(v, type(v), math.copysign(1.0, v))
                for b, score in ps for v in (*dataclasses.astuple(b), score)]
            for f, ps in pairs.items()}


_sigma = st.one_of(st.just(0.0), st.floats(0.0, 40.0))
_noise = st.builds(NoiseModel, miss_rate=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
                   fp_rate=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
                   center_jitter=_sigma, size_jitter=_sigma,
                   tp_score=st.tuples(st.floats(-1.0, 2.0), _sigma),
                   fp_score=st.tuples(st.floats(-1.0, 2.0), _sigma),
                   occlusion_drop=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
# boxes read from a file hold floats, simulated ones np.float64; -0.0 lefts
# and tops keep or lose their sign through the jitter arithmetic
_coord = st.one_of(st.just(-0.0), st.floats(-50.0, 200.0))
_file_gt = st.lists(st.tuples(st.integers(1, 3), _coord, _coord,
                              st.floats(0.5, 40.0), st.floats(0.5, 40.0)), max_size=20)


class TestCorrupt:
    def test_zero_noise_reproduces_gt(self):
        gt = small_gt()
        dets = corrupt(gt, NoiseModel())
        by_frame = {}
        for r in gt:
            by_frame.setdefault(r.frame, []).append(r.bbox)
        assert set(dets) == set(by_frame)
        for f, ds in dets.items():
            assert [d.bbox for d in ds] == by_frame[f]
            assert all(d.confidence == 1.0 for d in ds)

    def test_deterministic(self):
        gt = small_gt(1)
        noise = NoiseModel(miss_rate=0.2, fp_rate=0.5, center_jitter=1.0, seed=5)
        a = corrupt(gt, noise)
        b = corrupt(gt, noise)
        assert all(a[f] == b[f] for f in a)

    def test_miss_rate_statistics(self):
        gt = small_gt(2)
        dets = corrupt(gt, NoiseModel(miss_rate=0.3, seed=3))
        kept = sum(len(v) for v in dets.values())
        assert kept / len(gt) == pytest.approx(0.7, abs=0.06)

    def test_fp_rate_statistics(self):
        gt = small_gt(3)
        clean = corrupt(gt, NoiseModel(seed=4))
        noisy = corrupt(gt, NoiseModel(fp_rate=2.0, seed=4))
        extra = sum(len(noisy[f]) - len(clean[f]) for f in noisy)
        frames = len(noisy)
        assert extra / frames == pytest.approx(2.0, abs=0.5)

    def test_occlusion_drop_applies_under_overlap(self):
        # two heavily overlapping heads plus one isolated head
        gt = [AnnotationRecord(1, 1, BBox(10, 10, 20, 20)),
              AnnotationRecord(1, 2, BBox(12, 10, 20, 20)),
              AnnotationRecord(1, 3, BBox(200, 200, 20, 20))]
        dets = corrupt(gt, NoiseModel(occlusion_drop=0.5))
        scores = sorted(d.confidence for d in dets[1])
        assert scores == [0.5, 0.5, 1.0]

    @staticmethod
    def assert_occlusion_flags_equal_pairwise_loop(rows):
        """corrupt's occlusion flags, read off its scores, against the scalar
        `iou` of every pair in each frame, earlier row first; rows are
        (frame, left, top, width, height) in gt order."""
        gt = [AnnotationRecord(f, i + 1, BBox(x, y, w, h))
              for i, (f, x, y, w, h) in enumerate(rows)]
        dets = corrupt(gt, NoiseModel(occlusion_drop=0.5))
        assert sorted(dets) == sorted({r.frame for r in gt})
        for frame, ds in dets.items():
            recs = [r for r in gt if r.frame == frame]
            want = [False] * len(recs)
            for i in range(len(recs)):
                for j in range(i + 1, len(recs)):
                    if iou(recs[i].bbox, recs[j].bbox) > OCCLUSION_IOU:
                        want[i] = want[j] = True
            assert [d.confidence == 0.5 for d in ds] == want

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 3), st.floats(0, 40), st.floats(0, 40),
                              st.integers(4, 16), st.integers(4, 16)), max_size=25))
    def test_occlusion_flags_equal_pairwise_loop(self, rows):
        self.assert_occlusion_flags_equal_pairwise_loop(rows)

    # integer boxes on a small grid: edges that touch exactly, identical boxes,
    # ties in left edge, and frames numbered out of order, interleaved in the
    # input and often holding a single box
    _grid_rows = st.lists(st.tuples(st.sampled_from([9, 2, 5, 1, 7]), st.integers(0, 12),
                                    st.integers(0, 12), st.integers(1, 6), st.integers(1, 6)),
                          max_size=40)

    @settings(max_examples=200, deadline=None)
    @given(_grid_rows)
    def test_occlusion_flags_equal_pairwise_loop_on_grid(self, rows):
        self.assert_occlusion_flags_equal_pairwise_loop(rows)

    @settings(max_examples=100, deadline=None)
    @given(_grid_rows, st.integers(1, 8))
    def test_occlusion_flags_equal_pairwise_loop_across_blocks(self, rows, block):
        # blocks of a few boxes: frames split over many blocks, and frames
        # larger than a block
        with mock.patch.object(simulate_module, "OCCLUSION_BLOCK", block):
            self.assert_occlusion_flags_equal_pairwise_loop(rows)

    @pytest.mark.parametrize("rows", [
        [(3, 0, 0, 4, 4), (3, 4, 0, 4, 4), (3, 0, 4, 4, 4), (3, 4, 4, 4, 4)],  # edges touch
        [(1, 2, 2, 5, 5), (1, 2, 2, 5, 5), (1, 2, 2, 5, 5)],                     # identical
        [(2, 0, 0, 4, 4), (1, 1, 0, 4, 4), (2, 1, 0, 4, 4), (1, 30, 0, 4, 4),    # out of order,
         (4, 0, 0, 9, 9), (2, 9, 9, 1, 1)],                                      # one-box frame
        [(1, 0.1, 0.2, 0.3, 0.7), (1, 0.1, 0.2, 0.3, 0.7), (1, 0.4, 0.2, 0.3, 0.7)],
    ])
    def test_occlusion_flags_on_edge_cases(self, rows):
        self.assert_occlusion_flags_equal_pairwise_loop(rows)

    def test_occlusion_flags_over_more_than_one_block(self):
        # 90 heads x 200 frames is more boxes than one block of the pass holds;
        # without repulsion, over a thousand heads overlap, and every flag
        # shows in the records, which must equal the per-frame oracle's
        gt, _ = simulate(ScenarioConfig(agent_count=90, duration=200, repulsion_strength=0.0,
                                        seed=2))
        assert len(gt) > simulate_module.OCCLUSION_BLOCK
        noise = NoiseModel(miss_rate=0.1, center_jitter=1.0, occlusion_drop=0.5, seed=2)
        got, want = _numbered_pairs(corrupt(gt, noise)), corrupt_loop(gt, noise)
        assert _detection_fields(got) == _detection_fields(want)
        assert sum(score == 0.5 for ps in got.values() for _, score in ps) > 1000

    def test_scores_clipped_to_unit_interval(self):
        gt = small_gt(4)
        dets = corrupt(gt, NoiseModel(tp_score=(0.9, 0.5), fp_rate=1.0, seed=6))
        for ds in dets.values():
            for d in ds:
                assert 0.0 <= d.confidence <= 1.0

    @pytest.mark.parametrize("x", [-1.5, -0.0, 0.0, 1e-320, 0.3, 1.0, 2.0])
    def test_score_clamp_equals_np_clip(self, x):
        # corrupt clamps each drawn score with min/max; np.clip, which it
        # replaced, is the oracle, down to the sign of zero
        got, want = min(max(x, 0.0), 1.0), float(np.clip(x, 0.0, 1.0))
        assert type(got) is float
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    @settings(max_examples=60, deadline=None)
    @given(_noise, st.integers(0, 1000), st.integers(1, 12))
    def test_equals_scalar_draw_oracle_on_simulated_gt(self, noise, seed, agents):
        gt, _ = simulate(ScenarioConfig(agent_count=agents, duration=8, seed=seed))
        assert _detection_fields(_numbered_pairs(corrupt(gt, noise))) == \
            _detection_fields(corrupt_loop(gt, noise))

    @settings(max_examples=60, deadline=None)
    @given(_noise, _file_gt)
    def test_equals_scalar_draw_oracle_on_float_gt(self, noise, rows):
        gt = [AnnotationRecord(f, i + 1, BBox(x, y, w, h))
              for i, (f, x, y, w, h) in enumerate(rows)]
        assert _detection_fields(_numbered_pairs(corrupt(gt, noise))) == \
            _detection_fields(corrupt_loop(gt, noise))

    @settings(max_examples=60, deadline=None)
    @given(_noise, _file_gt)
    def test_table_core_equals_records_table(self, noise, rows):
        gt = [AnnotationRecord(f, i + 1, BBox(x, y, w, h))
              for i, (f, x, y, w, h) in enumerate(rows)]
        want = table(r for ds in corrupt(gt, noise).values() for r in ds)
        assert corrupt_table(table(gt), noise).tobytes() == want.tobytes()

    def test_empty_gt(self):
        noise = NoiseModel(miss_rate=0.5, fp_rate=3.0, center_jitter=1.0)
        assert corrupt([], noise) == {}
        assert corrupt_table(np.zeros((0, 9)), noise).shape == (0, 9)

    def test_frame_with_every_box_missed_keeps_its_key(self):
        # at miss_rate 0.9 some frames lose every box, and without false
        # positives nothing else fills them
        gt = [AnnotationRecord(f, i, BBox(10.0 * i, 5.0, 8.0, 8.0))
              for f in range(1, 41) for i in (1, 2)]
        dets = corrupt(gt, NoiseModel(miss_rate=0.9, seed=1))
        assert list(dets) == list(range(1, 41))
        assert [] in dets.values()
        kept = corrupt_table(table(gt), NoiseModel(miss_rate=0.9, seed=1))
        assert len(kept) == sum(map(len, dets.values()))

    def test_invalid_noise_rejected(self):
        with pytest.raises(SimError):
            NoiseModel(miss_rate=1.0)
        with pytest.raises(SimError):
            NoiseModel(center_jitter=-1.0)
        # occluded scores left [0, 1]: 2.0 scored two overlapping heads 2.0
        for drop in (2.0, -1.0, math.nan):
            with pytest.raises(SimError):
                NoiseModel(occlusion_drop=drop)


@pytest.mark.parametrize("change", [
    {"size_jitter": math.nan},                          # turned jitter off
    {"center_jitter": math.nan, "size_jitter": 0.3},    # a bare ValueError from BBox
    {"center_jitter": 0.5, "size_jitter": math.nan},
    {"tp_score": (math.nan, 0.1)},                      # nan confidences
    {"tp_score": (0.9, math.nan)},
    {"tp_score": (math.inf, 0.1)},
    {"tp_score": (0.9, math.inf)},
    {"fp_score": (math.nan, 0.1)},
    {"fp_score": (0.3, math.nan)},
    {"fp_score": (-math.inf, 0.1)},
])
def test_non_finite_noise_rejected(change):
    with pytest.raises(SimError):
        NoiseModel(**change)


@pytest.mark.parametrize("change", [
    {"repulsion_radius": math.nan},        # simulate raised on a nan box
    {"repulsion_radius": math.inf},
    {"repulsion_strength": math.inf},      # likewise
    {"repulsion_strength": math.nan},
    {"speed_range": (0.5, math.inf)},      # simulate raised OverflowError
    {"arena": (math.nan, 480)},
    {"arena": (math.inf, 480)},
])
def test_non_finite_scenario_rejected(change):
    with pytest.raises(SimError):
        ScenarioConfig(**change)


@pytest.mark.parametrize("config", [ScenarioConfig, NoiseModel])
@pytest.mark.parametrize("seed", [1.5, math.nan, math.inf, "3", None, -1])
def test_bad_seed_rejected(config, seed):
    # 1.5 and nan failed only inside numpy's SeedSequence, "3" and None with
    # a bare TypeError from the comparison
    with pytest.raises(SimError):
        config(seed=seed)


@pytest.mark.parametrize("seed", [0, 3, np.int64(3), 2**64])
def test_integer_seed_accepted(seed):
    assert ScenarioConfig(seed=seed).seed == seed
    assert NoiseModel(seed=seed).seed == seed


class TestReadConfig:
    def test_scenario_round_trip(self, tmp_path):
        p = tmp_path / "scen.cfg"
        p.write_text("# synthetic sequence\n"
                     "arena=320,240\n"
                     "agent_count=9\n"
                     "speed_range=0.5,2.0\n"
                     "duration=77\n"
                     "seed=42\n")
        cfg = read_config(p, ScenarioConfig)
        assert cfg.arena == (320, 240)
        assert all(isinstance(v, int) for v in cfg.arena)
        assert cfg.agent_count == 9 and cfg.duration == 77 and cfg.seed == 42
        assert cfg.speed_range == (0.5, 2.0)
        # unspecified fields keep their defaults
        assert cfg.fps == ScenarioConfig().fps

    def test_noise_round_trip(self, tmp_path):
        p = tmp_path / "noise.cfg"
        p.write_text("miss_rate=0.25\ntp_score=0.9,0.05\nocclusion_drop=0.4\n")
        noise = read_config(p, NoiseModel)
        assert noise.miss_rate == 0.25
        assert noise.tp_score == (0.9, 0.05)
        assert noise.occlusion_drop == 0.4

    @pytest.mark.parametrize("line", ["agent_cuont=5", "fps=nan", "heading_sigma=inf",
                                      "agent_count=2.5", "arena=640", "arena=1,2,3",
                                      "duration"])
    def test_bad_lines_are_config_errors(self, tmp_path, line):
        p = tmp_path / "bad.cfg"
        p.write_text(line + "\n")
        with pytest.raises(ConfigError):
            read_config(p, ScenarioConfig)

    def test_overrides(self, tmp_path):
        p = tmp_path / "scen.cfg"
        p.write_text("seed=3\nagent_count=4\n")
        cfg = read_config(p, ScenarioConfig, seed=8, duration=None)
        assert (cfg.seed, cfg.agent_count, cfg.duration) == (8, 4, ScenarioConfig().duration)
        assert read_config(None, NoiseModel) == NoiseModel()

    def test_invalid_values_raise(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("agent_count=0\n")
        with pytest.raises(SimError):
            read_config(p, ScenarioConfig)


def test_config_replace_keeps_validation():
    cfg = ScenarioConfig(agent_count=5)
    for change in ({"duration": 0}, {"fps": 0.0}, {"fps": -25.0}, {"fps": math.nan},
                   {"fps": math.inf}):
        with pytest.raises(SimError):
            dataclasses.replace(cfg, **change)
