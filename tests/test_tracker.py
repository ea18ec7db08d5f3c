import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headtrack.geometry import BBox, iou
from headtrack.tracker import (
    Detection,
    KalmanModel,
    Mode,
    Tracker,
    TrackerConfig,
    TrackerError,
    TrackState,
    TrackStatus,
    _bbox_to_z,
    _cost_matrix,
    _z_to_bbox,
    associate,
    byte_associate,
    hungarian,
    outputs_to_records,
    run_tracker,
)


def make_track(bbox, tid=1, status=TrackStatus.confirmed):
    mean, cov = KalmanModel().initiate(bbox)
    return TrackState(tid, mean, cov, status=status)


def det(left, top, w=10, h=10, score=0.9):
    return Detection(BBox(left, top, w, h), score)


class TestHungarian:
    def test_two_by_two_fixture(self):
        # [[4,1],[2,0]]: picking the naive greedy (0,1)+(1,0) totals 3,
        # which is also optimal here; diagonal would cost 4
        a = hungarian(np.array([[4.0, 1.0], [2.0, 0.0]]))
        total = sum(np.array([[4.0, 1.0], [2.0, 0.0]])[r, c] for r, c in a.matches)
        assert total == 3.0
        assert a.matches == [(0, 1), (1, 0)]

    @pytest.mark.parametrize("shape", [(3, 3), (5, 5), (3, 5), (5, 3), (7, 7)])
    def test_matches_brute_force(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        for _ in range(20):
            cost = rng.random(shape)
            a = hungarian(cost)
            got = sum(cost[r, c] for r, c in a.matches)
            n, m = shape
            k = min(n, m)
            if n <= m:
                best = min(sum(cost[r, c] for r, c in zip(range(n), cols))
                           for cols in itertools.permutations(range(m), n))
            else:
                best = min(sum(cost[r, c] for r, c in zip(rows, range(m)))
                           for rows in itertools.permutations(range(n), m))
            assert got == pytest.approx(best)
            assert len(a.matches) == k
            assert len(a.unmatched_tracks) == n - k
            assert len(a.unmatched_dets) == m - k

    def test_empty(self):
        a = hungarian(np.zeros((0, 3)))
        assert a.matches == [] and a.unmatched_dets == [0, 1, 2]

    def test_non_finite_rejected(self):
        with pytest.raises(TrackerError):
            hungarian(np.array([[np.inf, 1.0], [1.0, 1.0]]))


class TestKalman:
    def test_state_round_trip(self):
        b = BBox(12.5, 40.0, 30.0, 44.0)
        back = _z_to_bbox(_bbox_to_z(b))
        for attr in ("left", "top", "width", "height"):
            assert getattr(back, attr) == pytest.approx(getattr(b, attr))

    def test_scalar_closed_form(self):
        # diagonal F/Q/R decouple the 4 observed dims into independent
        # scalar filters; compare against the textbook scalar recursion
        q, r = 0.04, 0.25
        km = KalmanModel(F=np.eye(8), Q=q * np.eye(8), R=r * np.eye(4))
        b0, b1 = BBox(10, 10, 8, 16), BBox(12, 11, 8, 16)
        mean, cov = km.initiate(b0)
        p0 = np.diag(cov)[:4].copy()
        mean, cov = km.predict(mean, cov)
        assert np.allclose(np.diag(cov)[:4], p0 + q)
        z = _bbox_to_z(b1)
        m_prev = mean[:4].copy()
        p_pred = p0 + q
        mean, cov = km.update(mean, cov, b1)
        for i in range(4):
            k = p_pred[i] / (p_pred[i] + r)
            assert mean[i] == pytest.approx(m_prev[i] + k * (z[i] - m_prev[i]))
            expect_p = (1 - k) ** 2 * p_pred[i] + k ** 2 * r
            assert cov[i, i] == pytest.approx(expect_p)

    def test_covariance_symmetric_psd(self):
        km = KalmanModel()
        mean, cov = km.initiate(BBox(5, 5, 20, 30))
        rng = np.random.default_rng(0)
        for _ in range(50):
            mean, cov = km.predict(mean, cov)
            jitter = rng.normal(0, 1.0, 2)
            mean, cov = km.update(mean, cov, BBox(5 + jitter[0], 5 + jitter[1], 20, 30))
            assert np.array_equal(cov, cov.T)
            assert np.linalg.eigvalsh(cov).min() > -1e-10

    def test_constant_velocity_extrapolates(self):
        km = KalmanModel()
        mean, cov = km.initiate(BBox(0, 0, 10, 10))
        for step in range(1, 11):
            mean, cov = km.predict(mean, cov)
            mean, cov = km.update(mean, cov, BBox(3.0 * step, 0, 10, 10))
        mean, cov = km.predict(mean, cov)
        # after ten frames of steady 3 px/frame motion the predicted center
        # should lead the last measurement by roughly one step
        assert mean[0] == pytest.approx(3.0 * 11 + 5.0, abs=0.5)

    def test_update_moves_toward_measurement(self):
        km = KalmanModel()
        mean, cov = km.initiate(BBox(0, 0, 10, 10))
        mean, cov = km.predict(mean, cov)
        before = abs(mean[0] - _bbox_to_z(BBox(4, 0, 10, 10))[0])
        mean, cov = km.update(mean, cov, BBox(4, 0, 10, 10))
        after = abs(mean[0] - _bbox_to_z(BBox(4, 0, 10, 10))[0])
        assert after < before


BOXES = st.builds(BBox, st.floats(-20, 60), st.floats(-20, 60), st.floats(1, 20),
                  st.floats(1, 20))


def oracle_noise(fixed, std):
    return fixed if fixed is not None else np.diag(np.square(std))


def oracle_predict(km, mean, cov):
    """The per-track filter step, one (8,) state at a time: the oracle of the
    batched `KalmanModel.predict`."""
    mean = km.F @ mean
    p, v = km.STD_POS * mean[3], km.STD_VEL * mean[3]
    cov = km.F @ cov @ km.F.T + oracle_noise(km.Q, [p, p, 1e-2, p, v, v, 1e-5, v])
    return mean, (cov + cov.T) / 2.0


def oracle_update(km, mean, cov, b):
    """The per-track update, one (8,) state and one box at a time."""
    z = np.array([b.left + b.width / 2.0, b.top + b.height / 2.0, b.width / b.height,
                  b.height])
    p = km.STD_POS * mean[3]
    R = oracle_noise(km.R, [p, p, 1e-1, p])
    S = km.H @ cov @ km.H.T + R
    K = np.linalg.solve(S.T, (cov @ km.H.T).T).T
    mean = mean + K @ (z - km.H @ mean)
    ikh = np.eye(8) - K @ km.H
    cov = ikh @ cov @ ikh.T + K @ R @ K.T
    return mean, (cov + cov.T) / 2.0


def filter_both(km, boxes, seed, cycles):
    """Run predict/update cycles on all boxes at once and one track at a time;
    yield (batched, per-track) stacked states after every step."""
    rng = np.random.default_rng(seed)
    states = [km.initiate(b) for b in boxes]
    means, covs = np.stack([m for m, _ in states]), np.stack([c for _, c in states])
    for _ in range(cycles):
        means, covs = km.predict(means, covs)
        states = [oracle_predict(km, m, c) for m, c in states]
        yield (means, covs), states
        shift = rng.normal(0.0, 2.0, (len(boxes), 2))
        meas = [b.translate(dx, dy) for b, (dx, dy) in zip(boxes, shift)]
        means, covs = km.update(means, covs, meas)
        states = [oracle_update(km, m, c, b) for (m, c), b in zip(states, meas)]
        yield (means, covs), states


class TestBatchedKalman:
    @pytest.mark.parametrize("n", [1, 100])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def test_default_model_equals_per_track_filter(self, n, data, seed):
        boxes = data.draw(st.lists(BOXES, min_size=n, max_size=n))
        for (means, covs), states in filter_both(KalmanModel(), boxes, seed, cycles=5):
            assert np.array_equal(means, np.stack([m for m, _ in states]))
            assert np.array_equal(covs, np.stack([c for _, c in states]))

    @settings(max_examples=50, deadline=None)
    @given(box=BOXES, seed=st.integers(0, 2 ** 32 - 1))
    def test_one_unbatched_state_equals_per_track_filter(self, box, seed):
        km = KalmanModel()
        mean, cov = km.initiate(box)
        want = mean, cov
        rng = np.random.default_rng(seed)
        for _ in range(5):
            mean, cov = km.predict(mean, cov)
            want = oracle_predict(km, *want)
            meas = box.translate(*rng.normal(0.0, 2.0, 2))
            mean, cov = km.update(mean, cov, meas)
            want = oracle_update(km, *want, meas)
            assert mean.shape == (8,) and cov.shape == (8, 8)
            assert np.array_equal(mean, want[0]) and np.array_equal(cov, want[1])

    @pytest.mark.parametrize("seed", range(5))
    def test_custom_model_close_to_per_track_filter(self, seed):
        rng = np.random.default_rng(seed)
        F = np.eye(8) + rng.normal(0.0, 0.1, (8, 8))
        a, b = rng.normal(0.0, 0.3, (8, 8)), rng.normal(0.0, 0.3, (4, 4))
        km = KalmanModel(F=F, Q=a @ a.T + 0.1 * np.eye(8), R=b @ b.T + 0.5 * np.eye(4))
        boxes = [BBox(*rng.uniform(0, 200, 2), *rng.uniform(5, 30, 2)) for _ in range(30)]
        for (means, covs), states in filter_both(km, boxes, seed, cycles=5):
            assert np.allclose(means, np.stack([m for m, _ in states]), rtol=1e-9, atol=1e-9)
            assert np.allclose(covs, np.stack([c for _, c in states]), rtol=1e-9, atol=1e-9)

    def test_one_singular_innovation_in_batch_raises(self):
        km = KalmanModel(R=np.zeros((4, 4)))
        states = [km.initiate(BBox(10.0 * i, 0, 10, 10)) for i in range(4)]
        means, covs = np.stack([m for m, _ in states]), np.stack([c for _, c in states])
        covs[2] = 0.0
        with pytest.raises(TrackerError):
            km.update(means, covs, [BBox(10.0 * i, 1, 10, 10) for i in range(4)])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in F
    def test_non_finite_prediction_removes_only_that_track(self):
        tracker = Tracker()
        tracker.tracks = [make_track(BBox(40.0 * i, 0, 10, 10), tid=i + 1) for i in range(4)]
        tracker.tracks[1].mean[4] = np.inf
        tracker.step(1, [det(0, 0), det(80, 0)])
        assert [t.track_id for t in tracker.tracks] == [1, 3, 4]
        assert all(np.isfinite(t.mean).all() for t in tracker.tracks)


def oracle_associate(tracks, dets, cfg):
    """Association before the IoU matrix was read from the stacked means:
    per-track `bbox`, scalar IoU costs and the scalar IoU gate."""
    cost = np.array([[1.0 - iou(t.bbox, d.bbox) for d in dets] for t in tracks])
    result = hungarian(cost.reshape(len(tracks), len(dets)))
    gated = [(ti, di) for ti, di in result.matches
             if iou(tracks[ti].bbox, dets[di].bbox) < cfg.iou_gate]
    return ([m for m in result.matches if m not in gated],
            sorted(result.unmatched_tracks + [ti for ti, _ in gated]),
            sorted(result.unmatched_dets + [di for _, di in gated]))


@settings(max_examples=100, deadline=None)
@given(track_boxes=st.lists(BOXES, max_size=8), det_boxes=st.lists(BOXES, max_size=8),
       velocity=st.tuples(st.floats(-5, 5), st.floats(-5, 5)))
def test_associate_equals_scalar_path(track_boxes, det_boxes, velocity):
    km = KalmanModel()
    tracks = [make_track(b, tid=i + 1) for i, b in enumerate(track_boxes)]
    for t in tracks:
        t.mean[4:6] = velocity
        t.mean, t.cov = km.predict(t.mean, t.cov)
    dets = [Detection(b, 0.9) for b in det_boxes]
    cfg = TrackerConfig()
    assert tuple(associate(tracks, dets, cfg)) == oracle_associate(tracks, dets, cfg)


@settings(max_examples=100, deadline=None)
@given(track_boxes=st.lists(BOXES, max_size=6), det_boxes=st.lists(BOXES, max_size=6))
def test_cost_matrix_equals_scalar_loop(track_boxes, det_boxes):
    tracks = [make_track(b) for b in track_boxes]
    dets = [Detection(b, 0.9) for b in det_boxes]
    want = np.zeros((len(tracks), len(dets)))
    for ti, t in enumerate(tracks):
        for di, d in enumerate(dets):
            want[ti, di] = 1.0 - iou(t.bbox, d.bbox)
    assert np.array_equal(_cost_matrix(tracks, dets), want)


class TestAssociate:
    cfg = TrackerConfig()

    def test_perfect_overlap(self):
        tracks = [make_track(BBox(0, 0, 10, 10))]
        a = associate(tracks, [det(0, 0)], self.cfg)
        assert a.matches == [(0, 0)]

    def test_iou_gate_blocks_weak_pair(self):
        tracks = [make_track(BBox(0, 0, 10, 10))]
        # overlap exists but IoU ~ 0.08, below the 0.3 gate
        a = associate(tracks, [det(8, 0)], self.cfg)
        assert a.matches == []
        assert a.unmatched_tracks == [0] and a.unmatched_dets == [0]

    def test_disjoint(self):
        tracks = [make_track(BBox(0, 0, 10, 10))]
        a = associate(tracks, [det(200, 200)], self.cfg)
        assert a.matches == []

    def test_two_way_preference(self):
        tracks = [make_track(BBox(0, 0, 10, 10), 1), make_track(BBox(50, 0, 10, 10), 2)]
        dets = [det(51, 0), det(1, 0)]
        a = associate(tracks, dets, self.cfg)
        assert a.matches == [(0, 1), (1, 0)]


class TestByteAssociate:
    cfg = TrackerConfig()

    def test_equals_single_stage_when_all_high(self):
        rng = np.random.default_rng(1)
        tracks = [make_track(BBox(40 * i, 0, 12, 12), i + 1) for i in range(4)]
        dets = [det(40 * i + rng.uniform(-2, 2), rng.uniform(-2, 2), 12, 12,
                    score=0.7 + 0.05 * i) for i in range(4)]
        assert byte_associate(tracks, dets, self.cfg) == associate(tracks, dets, self.cfg)

    def test_low_score_sustains_track_without_spawning(self):
        tracks = [make_track(BBox(0, 0, 10, 10))]
        a = byte_associate(tracks, [det(0, 0, score=0.3)], self.cfg)
        assert a.matches == [(0, 0)]
        assert a.unmatched_dets == []  # low-score dets never spawn

    def test_below_low_threshold_discarded(self):
        tracks = [make_track(BBox(0, 0, 10, 10))]
        a = byte_associate(tracks, [det(0, 0, score=0.05)], self.cfg)
        assert a.matches == []
        assert a.unmatched_tracks == [0] and a.unmatched_dets == []

    def test_high_takes_priority_over_low(self):
        tracks = [make_track(BBox(0, 0, 10, 10))]
        dets = [det(1, 0, score=0.3), det(2, 0, score=0.9)]
        a = byte_associate(tracks, dets, self.cfg)
        assert a.matches == [(0, 1)]

    def test_only_leftover_high_spawnable(self):
        tracks = [make_track(BBox(0, 0, 10, 10))]
        dets = [det(0, 0, score=0.9), det(100, 100, score=0.9), det(200, 200, score=0.3)]
        a = byte_associate(tracks, dets, self.cfg)
        assert a.matches == [(0, 0)]
        assert a.unmatched_dets == [1]


class TestLifecycle:
    def test_warm_up_emission_and_confirmation(self):
        t = Tracker(TrackerConfig(n_init=3))
        for f in (1, 2, 3, 4):
            out = t.step(f, [det(2.0 * f, 0)])
            assert [o.track_id for o in out] == [1]
        assert t.tracks[0].status is TrackStatus.confirmed

    @pytest.mark.parametrize("start", [1, 101])
    def test_warm_up_counts_from_first_frame(self, start):
        # the same three detections give the same rows wherever the sequence starts
        t = Tracker(TrackerConfig(n_init=3))
        rows = [o for i in range(3) for o in t.step(start + i, [det(0, 0)])]
        assert [(o.frame - start, o.track_id) for o in rows] == [(0, 1), (1, 1), (2, 1)]

    def test_tentative_removed_on_first_miss(self):
        t = Tracker(TrackerConfig(n_init=3))
        t.step(1, [det(0, 0)])
        t.step(2, [])
        assert t.tracks == []

    def test_confirmed_survives_misses_until_max_age(self):
        t = Tracker(TrackerConfig(n_init=2, max_age=2))
        t.step(1, [det(0, 0)])
        t.step(2, [det(0, 0)])
        assert t.tracks[0].status is TrackStatus.confirmed
        t.step(3, [])
        assert t.tracks[0].status is TrackStatus.lost
        t.step(4, [])
        assert len(t.tracks) == 1
        t.step(5, [])
        assert t.tracks == []

    def test_lost_track_reclaims_identity(self):
        t = Tracker(TrackerConfig(n_init=2, max_age=5))
        t.step(1, [det(0, 0)])
        t.step(2, [det(0, 0)])
        t.step(3, [])
        out = t.step(4, [det(0, 0)])
        assert [o.track_id for o in out] == [1]
        assert t.tracks[0].status is TrackStatus.confirmed

    def test_new_identity_after_removal(self):
        t = Tracker(TrackerConfig(n_init=1, max_age=1))
        t.step(1, [det(0, 0)])
        t.step(2, [])
        t.step(3, [])
        assert t.step(4, [det(0, 0)]) == []  # respawned, not yet confirmed
        out = t.step(5, [det(0, 0)])
        assert [o.track_id for o in out] == [2]

    def test_out_of_order_frame_rejected(self):
        t = Tracker()
        t.step(5, [])
        with pytest.raises(TrackerError):
            t.step(5, [])
        with pytest.raises(TrackerError):
            t.step(3, [])

    def test_low_score_ignored_in_sort_mode(self):
        t = Tracker(TrackerConfig(n_init=1))
        out = t.step(1, [det(0, 0, score=0.3)])
        assert out == [] and t.tracks == []


def random_frames(seed, n_frames=30, n_agents=5):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(50, 400, (n_agents, 2))
    vel = rng.uniform(-2, 2, (n_agents, 2))
    frames = {}
    for f in range(1, n_frames + 1):
        pos = pos + vel
        frames[f] = [det(p[0], p[1], 14, 14, score=float(rng.uniform(0.7, 1.0)))
                     for p in pos]
    return frames


class TestSequences:
    def test_deterministic(self):
        frames = random_frames(2)
        assert run_tracker(frames) == run_tracker(frames)

    def test_smooth_sequence_tracked_with_stable_ids(self):
        frames = random_frames(3)
        out = run_tracker(frames, TrackerConfig(n_init=2))
        ids = {o.track_id for o in out}
        assert len(ids) == 5
        by_id = {i: [o for o in out if o.track_id == i] for i in ids}
        for recs in by_id.values():
            assert len(recs) >= 28

    def test_outputs_to_records(self):
        out = run_tracker(random_frames(4))
        recs = outputs_to_records(out)
        assert len(recs) == len(out)
        assert recs[0].frame == out[0].frame
        assert recs[0].bbox == out[0].bbox
        assert all(r.category == 1 for r in recs[:10])


class TestConfigValidation:
    def test_threshold_order(self):
        with pytest.raises(TrackerError):
            TrackerConfig(high_score_thresh=0.2, low_score_thresh=0.5)

    def test_gate_range(self):
        with pytest.raises(TrackerError):
            TrackerConfig(iou_gate=1.5)

    def test_mode_from_string(self):
        assert TrackerConfig(mode="byte").mode is Mode.byte
        with pytest.raises(ValueError):
            TrackerConfig(mode="nope")
