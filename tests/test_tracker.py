import dataclasses
import itertools
import warnings
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headtrack.geometry import BBox, iou, iou_matrix, ltwh_array
from headtrack.motio import AnnotationRecord
from headtrack.tracker import (
    KalmanModel,
    Mode,
    Tracker,
    TrackerConfig,
    TrackerError,
    _ltwh_to_z,
    _z_to_ltwh,
    associate,
    byte_associate,
    hungarian,
    outputs_to_records,
    run_tracker,
)


def tracks_at(*boxes):
    """The (N, 4) predicted ltwh rows of tracks just initiated on the boxes."""
    mean, _ = KalmanModel().initiate(ltwh_array(boxes))
    return _z_to_ltwh(mean[:, :4])


def det(left, top, w=10, h=10, score=0.9):
    """A detection record; the tracker reads only its box and confidence."""
    return AnnotationRecord(1, 1, BBox(left, top, w, h), confidence=score)


def det_rows(dets):
    """The (M, 4) ltwh rows and (M,) scores of a list of detections."""
    return ltwh_array(d.bbox for d in dets), np.array([d.confidence for d in dets])


def as_lists(a):
    """An Assignment's three index arrays as lists, each match a [row, col] list."""
    return tuple(x.tolist() for x in a)


def check_index_arrays(a, n, m):
    """The Assignment form: intp arrays, (K, 2) matches with rows ascending,
    ascending unmatched indices, and the matched and unmatched indices
    partitioning range(n) (rows) and range(m) (columns)."""
    assert all(x.dtype == np.intp for x in a)
    assert a.matches.ndim == 2 and a.matches.shape[1] == 2
    rows, cols = a.matches.T
    for ascending in (rows, a.unmatched_tracks, a.unmatched_dets):
        assert (np.diff(ascending) > 0).all()
    assert sorted(rows.tolist() + a.unmatched_tracks.tolist()) == list(range(n))
    assert sorted(cols.tolist() + a.unmatched_dets.tolist()) == list(range(m))


class TestHungarian:
    def test_two_by_two_fixture(self):
        # [[4,1],[2,0]]: picking the naive greedy (0,1)+(1,0) totals 3,
        # which is also optimal here; diagonal would cost 4
        a = hungarian(np.array([[4.0, 1.0], [2.0, 0.0]]))
        total = sum(np.array([[4.0, 1.0], [2.0, 0.0]])[r, c] for r, c in a.matches)
        assert total == 3.0
        assert a.matches.tolist() == [[0, 1], [1, 0]]

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
            check_index_arrays(a, n, m)

    def test_empty(self):
        a = hungarian(np.zeros((0, 3)))
        assert as_lists(a) == ([], [], [0, 1, 2])
        check_index_arrays(a, 0, 3)
        a = hungarian(np.zeros((3, 0)))
        assert as_lists(a) == ([], [0, 1, 2], [])
        check_index_arrays(a, 3, 0)

    def test_non_finite_rejected(self):
        with pytest.raises(TrackerError):
            hungarian(np.array([[np.inf, 1.0], [1.0, 1.0]]))


def block_cov(cov):
    """(..., 3, 4) rows p_pp, p_pv, p_vv -> the (..., 8, 8) covariance over
    (cx, cy, aspect, height) and their velocities, exact zeros outside the
    four (position, velocity) blocks."""
    full, i = np.zeros(cov.shape[:-2] + (8, 8)), np.arange(4)
    full[..., i, i], full[..., i, i + 4] = cov[..., 0, :], cov[..., 1, :]
    full[..., i + 4, i], full[..., i + 4, i + 4] = cov[..., 1, :], cov[..., 2, :]
    return full


class TestKalman:
    def test_state_round_trip(self):
        b = BBox(12.5, 40.0, 30.0, 44.0)
        back = _z_to_ltwh(_ltwh_to_z(ltwh_array([b])[0]))
        assert back.tolist() == pytest.approx([b.left, b.top, b.width, b.height])

    def test_scalar_closed_form(self):
        # compare one predict from rest and one update against the textbook
        # scalar recursion of each observed dimension
        km, h = KalmanModel(), 16.0
        b0, b1 = ltwh_array([BBox(10, 10, 8, h), BBox(12, 11, 8, h)])
        pos, vel = km.STD_POS * h, km.STD_VEL * h
        p0 = np.square([2 * pos, 2 * pos, 1e-2, 2 * pos])
        v0 = np.square([10 * vel, 10 * vel, 1e-5, 10 * vel])
        q, r = np.square([pos, pos, 1e-2, pos]), np.square([pos, pos, 1e-1, pos])
        mean, cov = km.predict(*km.initiate(b0))
        p_pred = p0 + v0 + q
        assert np.allclose(block_cov(cov)[:4, :4], np.diag(p_pred), rtol=1e-12, atol=0)
        m_prev, z = mean[:4].copy(), _ltwh_to_z(b1)
        mean, cov = km.update(mean, cov, b1)
        s = p_pred + r
        assert mean[:4] == pytest.approx(m_prev + p_pred / s * (z - m_prev))
        assert mean[4:] == pytest.approx(v0 / s * (z - m_prev))
        k = p_pred / s
        assert np.diag(block_cov(cov))[:4] == pytest.approx((1 - k) ** 2 * p_pred + k ** 2 * r)

    def test_covariance_symmetric_psd(self):
        km = KalmanModel()
        mean, cov = km.initiate(ltwh_array([BBox(5, 5, 20, 30)])[0])
        rng = np.random.default_rng(0)
        for _ in range(50):
            mean, cov = km.predict(mean, cov)
            jitter = rng.normal(0, 1.0, 2)
            mean, cov = km.update(mean, cov, np.array([5 + jitter[0], 5 + jitter[1], 20, 30]))
            full = block_cov(cov)
            assert np.array_equal(full, full.T)
            assert np.linalg.eigvalsh(full).min() > -1e-10

    def test_constant_velocity_extrapolates(self):
        km = KalmanModel()
        mean, cov = km.initiate(np.array([0.0, 0, 10, 10]))
        for step in range(1, 11):
            mean, cov = km.predict(mean, cov)
            mean, cov = km.update(mean, cov, np.array([3.0 * step, 0, 10, 10]))
        mean, cov = km.predict(mean, cov)
        # after ten frames of steady 3 px/frame motion the predicted center
        # should lead the last measurement by roughly one step
        assert mean[0] == pytest.approx(3.0 * 11 + 5.0, abs=0.5)

    def test_update_moves_toward_measurement(self):
        km = KalmanModel()
        mean, cov = km.predict(*km.initiate(np.array([0.0, 0, 10, 10])))
        z = np.array([4.0, 0, 10, 10])
        before = abs(mean[0] - _ltwh_to_z(z)[0])
        mean, cov = km.update(mean, cov, z)
        assert abs(mean[0] - _ltwh_to_z(z)[0]) < before


BOXES = st.builds(BBox, st.floats(-20, 60), st.floats(-20, 60), st.floats(1, 20),
                  st.floats(1, 20))


# The fixed model's matrices, multiplied out by the matmul oracles: F adds
# each velocity to its position, H observes (cx, cy, aspect, height), and Q
# and R are diagonal with scales proportional to the height h
F = np.eye(8) + np.eye(8, k=4)
H = np.eye(4, 8)


def diag(d):
    """(..., n) -> (..., n, n) with d on each diagonal and exact zeros elsewhere."""
    return np.where(np.eye(d.shape[-1], dtype=bool), d[..., None], 0.0)


def Q(h):
    p, v = KalmanModel.STD_POS * h, KalmanModel.STD_VEL * h
    return diag(np.square(np.stack([p, p, np.full_like(h, 1e-2), p,
                                    v, v, np.full_like(h, 1e-5), v], axis=-1)))


def R(h):
    p = KalmanModel.STD_POS * h
    return diag(np.square(np.stack([p, p, np.full_like(h, 1e-1), p], axis=-1)))


def mv(a, x):
    """Matrix-vector product over leading batch dimensions of a and x."""
    return (a @ x[..., None])[..., 0]


# The per-track filter, one dimension at a time on Python floats, in the
# operation order of `KalmanModel`: its exact oracle. A state is a list of
# 8 floats (positions, then velocities) and a 3-list of 4-lists (p_pp, p_pv,
# p_vv per dimension); STD_ASPECT and OBS_ASPECT are the aspect's fixed
# process and observation standard deviations.
STD_ASPECT, STD_ASPECT_VEL, OBS_ASPECT = 1e-2, 1e-5, 1e-1


def oracle_initiate(km, b):
    z = [b.left + b.width / 2.0, b.top + b.height / 2.0, b.width / b.height, b.height]
    p, v = 2 * km.STD_POS * b.height, 10 * km.STD_VEL * b.height
    pp = [p * p, p * p, STD_ASPECT * STD_ASPECT, p * p]
    vv = [v * v, v * v, STD_ASPECT_VEL * STD_ASPECT_VEL, v * v]
    return z + [0.0] * 4, [pp, [0.0] * 4, vv]


def oracle_predict(km, state):
    mean, (pp, pv, vv) = state
    mean = [mean[i] + mean[i + 4] for i in range(4)] + mean[4:]
    p, v = km.STD_POS * mean[3], km.STD_VEL * mean[3]
    q_pos = [p * p, p * p, STD_ASPECT * STD_ASPECT, p * p]
    q_vel = [v * v, v * v, STD_ASPECT_VEL * STD_ASPECT_VEL, v * v]
    return mean, [[(a + b) + (b + c) + q for a, b, c, q in zip(pp, pv, vv, q_pos)],
                  [b + c for b, c in zip(pv, vv)],
                  [c + q for c, q in zip(vv, q_vel)]]


def oracle_update(km, state, b):
    mean, (pp, pv, vv) = state
    z = [b.left + b.width / 2.0, b.top + b.height / 2.0, b.width / b.height, b.height]
    p = km.STD_POS * mean[3]
    out = [[0.0] * 4 for _ in range(3)]
    mean = list(mean)
    for i, r in enumerate([p * p, p * p, OBS_ASPECT * OBS_ASPECT, p * p]):
        a, b_, c = pp[i], pv[i], vv[i]
        s = a + r
        k1, k2, y = a / s, b_ / s, z[i] - mean[i]
        mean[i], mean[i + 4] = mean[i] + k1 * y, mean[i + 4] + k2 * y
        out[0][i], out[1][i], out[2][i] = r * k1, r * k2, c - k2 * b_
    return mean, out


def matmul_predict(mean, cov):
    """The predict with F and Q multiplied out on the (..., 8, 8) covariance,
    over any leading batch dimensions. (F @ cov) @ F.T is symmetric as
    computed, since each entry sums its two nonzero terms in one order."""
    mean = mv(F, mean)
    return mean, F @ cov @ F.T + Q(mean[..., 3])


def matmul_update(mean, cov, measurement):
    """The update with H and R multiplied out on the (..., 8, 8) covariance,
    over any leading batch dimensions: a linear solve and the Joseph form."""
    z = _ltwh_to_z(measurement)
    r = R(mean[..., 3])
    S = H @ cov @ H.T + r
    K = np.linalg.solve(S.swapaxes(-1, -2), (cov @ H.T).swapaxes(-1, -2)).swapaxes(-1, -2)
    mean = mean + mv(K, z - mv(H, mean))
    ikh = np.eye(8) - K @ H
    cov = ikh @ cov @ ikh.swapaxes(-1, -2) + K @ r @ K.swapaxes(-1, -2)
    return mean, (cov + cov.swapaxes(-1, -2)) / 2.0


def random_states(n, exponent, seed, cycles=3):
    """Moving states initiated on n random boxes, and `cycles` noisy
    measurements of those boxes. n = 0 gives one unbatched (8,) state. Boxes
    span 1e-3 to 1e160 pixels; from about 1e153 the predicted covariance
    overflows."""
    rng = np.random.default_rng(seed)
    shape, scale = (n,) if n else (), 10.0 ** exponent
    box = np.stack([rng.uniform(-20, 60, shape), rng.uniform(-20, 60, shape),
                    rng.uniform(1, 20, shape), rng.uniform(1, 20, shape)], axis=-1) * scale
    mean, cov = KalmanModel().initiate(box)
    mean[..., 4:6] = rng.normal(0.0, 2.0, shape + (2,)) * scale
    return mean, cov, [box + rng.normal(0.0, 2.0, box.shape) * scale for _ in range(cycles)]


def compared(mean, cov, got, want):
    """The states that are finite before the step and after it in both forms,
    once the forms are checked to leave the same means non-finite and `got`
    to be non-finite only where `want` is: `want`'s 8x8 matmuls can turn an
    overflow into nan across a whole row, or overflow in the Joseph form
    where `got` does not."""
    got = got[0], block_cov(got[1])
    assert got[0].shape == want[0].shape == mean.shape
    assert got[1].shape == want[1].shape == cov.shape[:-2] + (8, 8)
    assert np.array_equal(np.isfinite(got[0]).all(axis=-1), np.isfinite(want[0]).all(axis=-1))
    assert not (~np.isfinite(got[1]) & np.isfinite(want[1])).any()
    finite = np.isfinite(mean).all(axis=-1) & np.isfinite(cov).all(axis=(-2, -1))
    for m, c in (got, want):
        finite &= np.isfinite(m).all(axis=-1) & np.isfinite(c).all(axis=(-2, -1))
    return got, finite


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow, and inf * 0 in the oracle
@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 119), exponent=st.floats(-3, 160), seed=st.integers(0, 2 ** 32 - 1))
def test_sliced_predict_equals_matmul_predict(n, exponent, seed):
    """Bit for bit wherever both forms stay finite; a state that is not
    finite before the predict has a non-finite mean after either form, so the
    tracker drops the same tracks."""
    km = KalmanModel()
    mean, cov, measurements = random_states(n, exponent, seed)
    for meas in measurements:
        got = km.predict(mean, cov)
        want = matmul_predict(mean, block_cov(cov))
        got_full, finite = compared(mean, cov, got, want)
        for g, w in zip(got_full, want):
            assert np.array_equal(g[finite], w[finite])
        mean, cov = km.update(*got, meas)


# The update's elementwise division and (I - KH)P against the oracle's
# LAPACK solve and Joseph form, as a fraction of each entry's scale before
# the update: the largest |entry| of its dimension's 2x2 covariance block,
# and of the state's mean and measurement row. Relative to the entry itself
# the covariance cannot be bounded: when the height, and with it r, is tiny,
# p_vv - k2 * p_pv cancels to a few parts in 1e5. The largest differences
# measured over these ranges were 2.8e-16 (covariance) and 4.5e-16 (mean).
UPDATE_RTOL = 1e-14


def block_scale(cov):
    """(..., 3, 4) -> (..., 8, 8): each block entry's block's largest |entry|."""
    return block_cov(np.broadcast_to(np.abs(cov).max(axis=-2)[..., None, :], cov.shape))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow, and inf * 0 in the oracle
@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 119), exponent=st.floats(-3, 160), seed=st.integers(0, 2 ** 32 - 1))
def test_sliced_update_equals_matmul_update(n, exponent, seed):
    """Within UPDATE_RTOL wherever both forms stay finite, with the same exact
    zeros outside the four blocks; a state that is not finite before the
    update has a non-finite mean after either form, so the tracker drops the
    same tracks."""
    km = KalmanModel()
    mean, cov, measurements = random_states(n, exponent, seed)
    for meas in measurements:
        mean, cov = km.predict(mean, cov)
        got = km.update(mean, cov, meas)
        want = matmul_update(mean, block_cov(cov), meas)
        (g_mean, g_cov), finite = compared(mean, cov, got, want)
        assert np.all(np.abs(g_cov - want[1])[finite] <= UPDATE_RTOL * block_scale(cov)[finite])
        rows = np.concatenate([mean, np.broadcast_to(_ltwh_to_z(meas), mean[..., :4].shape)], -1)
        scale = np.abs(rows).max(axis=-1, keepdims=True)
        assert np.all(np.abs(g_mean - want[0])[finite] <= UPDATE_RTOL * scale[finite])
        mean, cov = got


def filter_both(km, boxes, seed, cycles):
    """Initiate, then run predict/update cycles, on all boxes at once and one
    track at a time; yield (batched, per-track) states after every step."""
    rng = np.random.default_rng(seed)
    means, covs = km.initiate(ltwh_array(boxes))
    states = [oracle_initiate(km, b) for b in boxes]
    yield (means, covs), states
    for _ in range(cycles):
        means, covs = km.predict(means, covs)
        states = [oracle_predict(km, s) for s in states]
        yield (means, covs), states
        shift = rng.normal(0.0, 2.0, (len(boxes), 2))
        meas = [b.translate(dx, dy) for b, (dx, dy) in zip(boxes, shift)]
        means, covs = km.update(means, covs, ltwh_array(meas))
        states = [oracle_update(km, s, b) for s, b in zip(states, meas)]
        yield (means, covs), states


class TestBatchedKalman:
    @pytest.mark.parametrize("n", [1, 100])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def test_default_model_equals_per_track_filter(self, n, data, seed):
        boxes = data.draw(st.lists(BOXES, min_size=n, max_size=n))
        for (means, covs), states in filter_both(KalmanModel(), boxes, seed, cycles=5):
            assert np.array_equal(means, np.array([m for m, _ in states]))
            assert np.array_equal(covs, np.array([c for _, c in states]))

    @settings(max_examples=50, deadline=None)
    @given(box=BOXES, seed=st.integers(0, 2 ** 32 - 1))
    def test_one_unbatched_state_equals_per_track_filter(self, box, seed):
        km = KalmanModel()
        mean, cov = km.initiate(ltwh_array([box])[0])
        want = oracle_initiate(km, box)
        assert (mean.tolist(), cov.tolist()) == want
        rng = np.random.default_rng(seed)
        for _ in range(5):
            mean, cov = km.predict(mean, cov)
            want = oracle_predict(km, want)
            meas = box.translate(*rng.normal(0.0, 2.0, 2))
            mean, cov = km.update(mean, cov, ltwh_array([meas])[0])
            want = oracle_update(km, want, meas)
            assert mean.shape == (8,) and cov.shape == (3, 4)
            assert (mean.tolist(), cov.tolist()) == want

    def test_one_singular_innovation_in_batch_raises(self):
        # a zero height and covariance leave s = (0, 0, 1e-2, 0) in row 2
        km = KalmanModel()
        means, covs = km.initiate(ltwh_array(BBox(10.0 * i, 0, 10, 10) for i in range(4)))
        means[2, 3], covs[2] = 0.0, 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # raised before any 0 / 0
            with pytest.raises(TrackerError):
                km.update(means, covs, ltwh_array(BBox(10.0 * i, 1, 10, 10) for i in range(4)))

    def test_non_finite_prediction_removes_only_that_track(self):
        tracker = Tracker(TrackerConfig(n_init=2))
        for f in (1, 2):
            tracker.step(f, [det(40.0 * i, 0) for i in range(4)])
        assert tracker.hits.tolist() == [2] * 4  # confirmed
        tracker.mean[1, 4] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the predict makes no inf * 0
            tracker.step(3, [det(0, 0), det(80, 0)])
        assert tracker.tracks.tolist() == [1, 3, 4]
        assert tracker.age.tolist() == [0, 0, 1]
        assert np.isfinite(tracker.mean).all() and np.isfinite(tracker.cov).all()


def oracle_associate(track_boxes, det_boxes, cfg):
    """Association one pair at a time: scalar IoU costs and the scalar IoU
    gate on BBoxes, the oracle of `associate` on arrays."""
    cost = np.array([[1.0 - iou(t, d) for d in det_boxes] for t in track_boxes])
    result = hungarian(cost.reshape(len(track_boxes), len(det_boxes)))
    matches = result.matches.tolist()
    gated = [[ti, di] for ti, di in matches
             if iou(track_boxes[ti], det_boxes[di]) < cfg.iou_gate]
    return ([m for m in matches if m not in gated],
            sorted(result.unmatched_tracks.tolist() + [ti for ti, _ in gated]),
            sorted(result.unmatched_dets.tolist() + [di for _, di in gated]))


def as_bboxes(rows):
    return [BBox(*row) for row in rows.tolist()]


@settings(max_examples=100, deadline=None)
@given(track_boxes=st.lists(BOXES, max_size=8), det_boxes=st.lists(BOXES, max_size=8),
       velocity=st.tuples(st.floats(-5, 5), st.floats(-5, 5)))
def test_associate_equals_scalar_path(track_boxes, det_boxes, velocity):
    km = KalmanModel()
    mean, cov = km.initiate(ltwh_array(track_boxes))
    mean[:, 4:6] = velocity
    mean, cov = km.predict(mean, cov)
    predicted, dets = _z_to_ltwh(mean[:, :4]), ltwh_array(det_boxes)
    cfg = TrackerConfig()
    a = associate(predicted, dets, cfg)
    assert as_lists(a) == oracle_associate(as_bboxes(predicted), det_boxes, cfg)
    check_index_arrays(a, len(track_boxes), len(det_boxes))


@settings(max_examples=100, deadline=None)
@given(track_boxes=st.lists(BOXES, max_size=6), det_boxes=st.lists(BOXES, max_size=6))
def test_cost_matrix_equals_scalar_loop(track_boxes, det_boxes):
    predicted = tracks_at(*track_boxes)
    want = np.zeros((len(track_boxes), len(det_boxes)))
    for ti, t in enumerate(as_bboxes(predicted)):
        for di, d in enumerate(det_boxes):
            want[ti, di] = 1.0 - iou(t, d)
    assert np.array_equal(1.0 - iou_matrix(predicted, ltwh_array(det_boxes)), want)


class TestAssociate:
    cfg = TrackerConfig()

    def test_perfect_overlap(self):
        a = associate(tracks_at(BBox(0, 0, 10, 10)), det_rows([det(0, 0)])[0], self.cfg)
        assert a.matches.tolist() == [[0, 0]]

    def test_iou_gate_blocks_weak_pair(self):
        # overlap exists but IoU ~ 0.08, below the 0.3 gate
        a = associate(tracks_at(BBox(0, 0, 10, 10)), det_rows([det(8, 0)])[0], self.cfg)
        assert as_lists(a) == ([], [0], [0])

    def test_disjoint(self):
        a = associate(tracks_at(BBox(0, 0, 10, 10)), det_rows([det(200, 200)])[0], self.cfg)
        assert a.matches.tolist() == []

    def test_two_way_preference(self):
        tracks = tracks_at(BBox(0, 0, 10, 10), BBox(50, 0, 10, 10))
        a = associate(tracks, det_rows([det(51, 0), det(1, 0)])[0], self.cfg)
        assert a.matches.tolist() == [[0, 1], [1, 0]]


class TestByteAssociate:
    cfg = TrackerConfig()

    def byte(self, dets, tracks=(BBox(0, 0, 10, 10),)):
        return byte_associate(tracks_at(*tracks), *det_rows(dets), self.cfg)

    def test_equals_single_stage_when_all_high(self):
        rng = np.random.default_rng(1)
        tracks = [BBox(40 * i, 0, 12, 12) for i in range(4)]
        dets = [det(40 * i + rng.uniform(-2, 2), rng.uniform(-2, 2), 12, 12,
                    score=0.7 + 0.05 * i) for i in range(4)]
        assert as_lists(self.byte(dets, tracks)) == as_lists(
            associate(tracks_at(*tracks), det_rows(dets)[0], self.cfg))

    def test_low_score_sustains_track_without_spawning(self):
        a = self.byte([det(0, 0, score=0.3)])
        assert a.matches.tolist() == [[0, 0]]
        assert a.unmatched_dets.tolist() == []  # low-score dets never spawn

    def test_below_low_threshold_discarded(self):
        a = self.byte([det(0, 0, score=0.05)])
        assert as_lists(a) == ([], [0], [])

    def test_high_takes_priority_over_low(self):
        a = self.byte([det(1, 0, score=0.3), det(2, 0, score=0.9)])
        assert a.matches.tolist() == [[0, 1]]

    def test_only_leftover_high_spawnable(self):
        a = self.byte([det(0, 0, score=0.9), det(100, 100, score=0.9),
                       det(200, 200, score=0.3)])
        assert a.matches.tolist() == [[0, 0]]
        assert a.unmatched_dets.tolist() == [1]


class TestLifecycle:
    def test_warm_up_emission_and_confirmation(self):
        t = Tracker(TrackerConfig(n_init=3))
        for f in (1, 2, 3, 4):
            out = t.step(f, [det(2.0 * f, 0)])
            assert [o.track_id for o in out] == [1]
        # past warm-up, frame 4's row is emitted because hits reached n_init
        assert t.hits.tolist() == [4] and t.age.tolist() == [0]

    @pytest.mark.parametrize("start", [1, 101])
    def test_warm_up_counts_from_first_frame(self, start):
        # the same three detections give the same rows wherever the sequence starts
        t = Tracker(TrackerConfig(n_init=3))
        rows = [o for i in range(3) for o in t.step(start + i, [det(0, 0)])]
        assert [(o.frame - start, o.track_id) for o in rows] == [(0, 1), (1, 1), (2, 1)]

    def test_tentative_removed_on_first_miss(self):
        t = Tracker(TrackerConfig(n_init=3))
        t.step(1, [det(0, 0)])
        assert t.hits.tolist() == [1] and t.age.tolist() == [0]  # tentative
        assert t.step(2, []) == []
        assert len(t.tracks) == 0

    def test_confirmed_survives_misses_until_max_age(self):
        t = Tracker(TrackerConfig(n_init=2, max_age=2))
        t.step(1, [det(0, 0)])
        t.step(2, [det(0, 0)])
        assert t.hits.tolist() == [2] and t.age.tolist() == [0]  # confirmed
        assert t.step(3, []) == []  # lost: confirmed, missed for one frame
        assert t.hits.tolist() == [2] and t.age.tolist() == [1]
        t.step(4, [])
        assert len(t.tracks) == 1
        t.step(5, [])
        assert len(t.tracks) == 0

    def test_lost_track_reclaims_identity(self):
        t = Tracker(TrackerConfig(n_init=2, max_age=5))
        t.step(1, [det(0, 0)])
        t.step(2, [det(0, 0)])
        t.step(3, [])
        out = t.step(4, [det(0, 0)])
        assert [o.track_id for o in out] == [1]
        assert t.hits.tolist() == [3] and t.age.tolist() == [0]

    def test_new_identity_after_removal(self):
        t = Tracker(TrackerConfig(n_init=1, max_age=1))
        t.step(1, [det(0, 0)])
        t.step(2, [])
        t.step(3, [])
        assert t.step(4, [det(0, 0)]) == []  # respawned, not yet confirmed
        out = t.step(5, [det(0, 0)])
        assert [o.track_id for o in out] == [2]

    @pytest.mark.parametrize("mode", list(Mode))
    def test_interior_empty_frame_absent_or_present_as_empty_list(self, mode):
        # two empty frames age every track past max_age, so both are stepped
        # when the identities after them are new
        cfg = TrackerConfig(mode=mode, n_init=2, max_age=1)
        frames = random_frames(5)
        frames[11] = frames[12] = []
        rows = run_tracker(frames, cfg)
        assert run_tracker({f: ds for f, ds in frames.items() if ds}, cfg) == rows
        before = {o.track_id for o in rows if o.frame <= 10}
        after = {o.track_id for o in rows if o.frame >= 13}
        assert len(before) == len(after) == 5 and not before & after

    def test_out_of_order_frame_rejected(self):
        t = Tracker()
        t.step(5, [])
        with pytest.raises(TrackerError):
            t.step(5, [])
        with pytest.raises(TrackerError):
            t.step(3, [])

    @pytest.mark.parametrize("score", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, score):
        t = Tracker(TrackerConfig(n_init=1))
        t.step(1, [det(0, 0)])
        with pytest.raises(TrackerError, match="^detection score must be finite$"):
            t.step(2, [det(0, 0), det(40, 0, score=score)])
        # the rejected frame changed nothing: it can be stepped again
        assert [o.track_id for o in t.step(2, [det(0, 0)])] == [1]

    def test_record_frame_and_id_are_not_read(self):
        frames = random_frames(3)
        renumbered = {f: [AnnotationRecord(99, 7, d.bbox, confidence=d.confidence) for d in ds]
                      for f, ds in frames.items()}
        assert run_tracker(renumbered) == run_tracker(frames)

    def test_low_score_ignored_in_sort_mode(self):
        t = Tracker(TrackerConfig(n_init=1))
        out = t.step(1, [det(0, 0, score=0.3)])
        assert out == [] and len(t.tracks) == 0


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

    def test_rows_are_track_file_records(self):
        """A row is the record a track file holds: category 1 and visibility
        1.0 whatever the detection's, and the matched detection's own `bbox`
        object and confidence."""
        frames = {f: [dataclasses.replace(d, confidence=np.float64(d.confidence),
                                          category=2, visibility=0.4) for d in dets]
                  for f, dets in random_frames(4).items()}
        rows = run_tracker(frames)
        assert len(rows) > 100
        for r in rows:
            [d] = [d for d in frames[r.frame] if d.bbox is r.bbox]
            assert type(r) is AnnotationRecord
            assert (r.category, r.visibility) == (1, 1.0)
            assert r.confidence is d.confidence
        assert outputs_to_records(rows) == rows


class TrackStatus(Enum):
    tentative = "tentative"
    confirmed = "confirmed"
    lost = "lost"
    removed = "removed"


@dataclass
class TrackState:
    track_id: int
    mean: np.ndarray
    cov: np.ndarray
    status: TrackStatus = TrackStatus.tentative
    hits: int = 1
    time_since_update: int = 0

    @property
    def bbox(self) -> SimpleNamespace:
        """The predicted box with the fields the scalar `iou` reads. Not a
        BBox: a prediction clamped to the smallest normal width and height has
        an area that underflows to 0, which BBox rejects."""
        left, top, width, height = _z_to_ltwh(self.mean[:4]).tolist()
        return SimpleNamespace(left=left, top=top, width=width, height=height,
                               area=width * height)


def _stacked(tracks):
    """The tracks' means (N, 8) and covariances (N, 3, 4), one row per track."""
    return np.stack([t.mean for t in tracks]), np.stack([t.cov for t in tracks])


def oracle_byte_associate(tracks, dets, cfg):
    """Two-stage association over lists of tracks and detections, with
    `oracle_associate` for each stage."""
    high_idx = [i for i, d in enumerate(dets) if d.confidence >= cfg.high_score_thresh]
    low_idx = [i for i, d in enumerate(dets)
               if cfg.low_score_thresh <= d.confidence < cfg.high_score_thresh]
    m1, remaining, um1 = oracle_associate([t.bbox for t in tracks],
                                          [dets[i].bbox for i in high_idx], cfg)
    matches = [(ti, high_idx[di]) for ti, di in m1]
    m2, um2, _ = oracle_associate([tracks[i].bbox for i in remaining],
                                  [dets[i].bbox for i in low_idx], cfg)
    matches += [(remaining[ti], low_idx[di]) for ti, di in m2]
    return (sorted(matches), sorted(remaining[i] for i in um2),
            sorted(high_idx[i] for i in um1))


class OracleTracker:
    """The tracker as a list of per-track objects with a four-valued status,
    run through per-object loops: the oracle of the array-state `Tracker`."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.kalman = KalmanModel()
        self.tracks: list[TrackState] = []
        self._next_id = 1
        self._first_frame = None

    def step(self, frame, detections):
        if self._first_frame is None:
            self._first_frame = frame
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
            matches, unmatched_tracks, unmatched_dets = oracle_byte_associate(
                self.tracks, detections, self.cfg)
        else:
            keep = [i for i, d in enumerate(detections)
                    if d.confidence >= self.cfg.high_score_thresh]
            sub, unmatched_tracks, sub_dets = oracle_associate(
                [t.bbox for t in self.tracks], [detections[i].bbox for i in keep], self.cfg)
            matches = [(ti, keep[di]) for ti, di in sub]
            unmatched_dets = [keep[i] for i in sub_dets]

        outputs = []
        matched = [self.tracks[ti] for ti, _ in matches]
        if matched:
            means, covs = self.kalman.update(
                *_stacked(matched), ltwh_array(detections[di].bbox for _, di in matches))
            for t, mean, cov in zip(matched, means, covs):
                t.mean, t.cov = mean, cov
        for t, (_, di) in zip(matched, matches):
            d = detections[di]
            t.hits += 1
            t.time_since_update = 0
            if t.status is TrackStatus.tentative and t.hits >= self.cfg.n_init:
                t.status = TrackStatus.confirmed
            elif t.status is TrackStatus.lost:
                t.status = TrackStatus.confirmed
            if t.status is TrackStatus.confirmed or warm_up:
                outputs.append(AnnotationRecord(frame, t.track_id, d.bbox, d.confidence))

        for ti in unmatched_tracks:
            t = self.tracks[ti]
            t.time_since_update += 1
            if t.status is TrackStatus.tentative:
                t.status = TrackStatus.removed
            elif t.status is TrackStatus.confirmed:
                t.status = TrackStatus.lost
            if t.status is TrackStatus.lost and t.time_since_update > self.cfg.max_age:
                t.status = TrackStatus.removed

        for di in unmatched_dets:
            d = detections[di]
            self.tracks.append(TrackState(self._next_id,
                                          *self.kalman.initiate(ltwh_array([d.bbox])[0])))
            self._next_id += 1
            if warm_up:  # emit fresh tracks too
                outputs.append(AnnotationRecord(frame, self.tracks[-1].track_id, d.bbox,
                                                d.confidence))

        self.tracks = [t for t in self.tracks if t.status is not TrackStatus.removed]
        return sorted(outputs, key=lambda o: o.track_id)


def score(rng):
    """A score with two decimals, so that some land on the band thresholds."""
    return round(float(rng.uniform(0, 1)), 2)


@st.composite
def detection_sequences(draw):
    """A few heads moving at constant velocity with jitter, misses and clutter,
    scored across the high, low and discarded bands, over frames with gaps."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    heads, n_frames = draw(st.integers(0, 8)), draw(st.integers(1, 25))
    miss, clutter = draw(st.sampled_from([0.0, 0.2, 0.5])), draw(st.sampled_from([0, 1, 3]))
    pos = rng.uniform(0, 120, (heads, 2))
    vel = rng.normal(0, 2, (heads, 2))
    size = rng.uniform(6, 20, heads)
    frames, frame = {}, int(rng.integers(1, 50))
    for _ in range(n_frames):
        pos = pos + vel
        dets = [det(*(p + rng.normal(0, 1, 2)), s, s, score(rng))
                for p, s in zip(pos, size) if rng.random() >= miss]
        dets += [det(*rng.uniform(0, 140, 2), *rng.uniform(5, 25, 2), score(rng))
                 for _ in range(rng.poisson(clutter))]
        frames[frame] = [dets[i] for i in rng.permutation(len(dets))]
        frame += int(rng.integers(1, 4))
    return frames


@settings(max_examples=150, deadline=None)
@given(frames=detection_sequences(), mode=st.sampled_from(list(Mode)),
       n_init=st.sampled_from([1, 2, 3]), max_age=st.sampled_from([1, 3, 30]))
def test_run_tracker_equals_object_tracker(frames, mode, n_init, max_age):
    cfg = TrackerConfig(mode=mode, n_init=n_init, max_age=max_age)
    oracle = OracleTracker(cfg)
    # run_tracker steps every frame from the first key to the last
    steps = range(min(frames), max(frames) + 1)
    want = [o for f in steps for o in oracle.step(f, frames.get(f, []))]
    assert run_tracker(frames, cfg) == want


@settings(max_examples=100, deadline=None)
@given(frames=detection_sequences(), mode=st.sampled_from(list(Mode)),
       n_init=st.sampled_from([1, 3]), max_age=st.sampled_from([1, 30]))
def test_step_equals_advance(frames, mode, n_init, max_age):
    """`Tracker.step` on records and `Tracker.advance` on their arrays give the
    same rows and the same track state, frame by frame."""
    cfg = TrackerConfig(mode=mode, n_init=n_init, max_age=max_age)
    on_records, on_arrays = Tracker(cfg), Tracker(cfg)
    for frame in range(min(frames), max(frames) + 1):
        dets = frames.get(frame, [])
        rows = on_records.step(frame, dets)
        ids, index = on_arrays.advance(frame, *det_rows(dets))
        assert [(r.frame, r.track_id) for r in rows] == [(frame, i) for i in ids.tolist()]
        assert all(r.bbox is dets[k].bbox and r.confidence is dets[k].confidence
                   for r, k in zip(rows, index.tolist()))
        for name in ("tracks", "mean", "cov", "hits", "age"):
            assert np.array_equal(getattr(on_records, name), getattr(on_arrays, name))

class TestConfigValidation:
    def test_threshold_order(self):
        with pytest.raises(TrackerError):
            TrackerConfig(high_score_thresh=0.2, low_score_thresh=0.5)

    def test_gate_range(self):
        with pytest.raises(TrackerError):
            TrackerConfig(iou_gate=1.5)

    @pytest.mark.parametrize("field", ["n_init", "max_age"])
    @pytest.mark.parametrize("value", [0, np.nan])
    def test_lifecycle_counts_below_one_rejected(self, field, value):
        # nan < 1 is False, so only not (x >= 1) rejects nan
        with pytest.raises(TrackerError):
            TrackerConfig(**{field: value})

    def test_mode_from_string(self):
        assert TrackerConfig(mode="byte").mode is Mode.byte
        with pytest.raises(ValueError):
            TrackerConfig(mode="nope")
