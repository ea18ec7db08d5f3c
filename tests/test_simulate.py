import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headtrack.geometry import BBox, iou
from headtrack.motio import AnnotationRecord, ConfigError, read_config
from headtrack.simulate import (
    OCCLUSION_IOU,
    NoiseModel,
    ScenarioConfig,
    SimError,
    corrupt,
    simulate,
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
            assert r.bbox.right <= 300 + 1e-9 and r.bbox.bottom <= 200 + 1e-9

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


def small_gt(seed=0):
    recs, _ = simulate(ScenarioConfig(agent_count=10, duration=60, seed=seed))
    return recs


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
            assert all(d.score == 1.0 for d in ds)

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
        scores = sorted(d.score for d in dets[1])
        assert scores == [0.5, 0.5, 1.0]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 3), st.floats(0, 40), st.floats(0, 40),
                              st.integers(4, 16), st.integers(4, 16)), max_size=25))
    def test_occlusion_flags_equal_pairwise_loop(self, rows):
        gt = [AnnotationRecord(f, i + 1, BBox(x, y, w, h))
              for i, (f, x, y, w, h) in enumerate(rows)]
        dets = corrupt(gt, NoiseModel(occlusion_drop=0.5))
        for frame, ds in dets.items():
            recs = [r for r in gt if r.frame == frame]
            want = [False] * len(recs)
            for i in range(len(recs)):
                for j in range(i + 1, len(recs)):
                    if iou(recs[i].bbox, recs[j].bbox) > OCCLUSION_IOU:
                        want[i] = want[j] = True
            assert [d.score == 0.5 for d in ds] == want

    def test_scores_clipped_to_unit_interval(self):
        gt = small_gt(4)
        dets = corrupt(gt, NoiseModel(tp_score=(0.9, 0.5), fp_rate=1.0, seed=6))
        for ds in dets.values():
            for d in ds:
                assert 0.0 <= d.score <= 1.0

    def test_invalid_noise_rejected(self):
        with pytest.raises(SimError):
            NoiseModel(miss_rate=1.0)
        with pytest.raises(SimError):
            NoiseModel(center_jitter=-1.0)


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
    with pytest.raises(SimError):
        dataclasses.replace(cfg, duration=0)
