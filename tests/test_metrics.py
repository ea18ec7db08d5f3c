import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from headtrack.geometry import BBox, iou
from headtrack.metrics import (
    MetricsError,
    MotReport,
    _id_assignment,
    aggregate,
    detection_ap,
    evaluate,
    id_metrics,
    sequence_counts,
    track_quality,
)
from headtrack.motio import AnnotationRecord
from test_properties import GRID_RECORDS


def rec(frame, tid, left=0.0, top=0.0, w=10.0, h=10.0):
    return AnnotationRecord(frame, tid, BBox(left, top, w, h))


def records(frames):
    """frames: list of (gt, pred) per frame from 1, each a list of (id, BBox)."""
    gt = [AnnotationRecord(f, i, b) for f, (g, _) in enumerate(frames, 1) for i, b in g]
    pred = [AnnotationRecord(f, i, b) for f, (_, p) in enumerate(frames, 1) for i, b in p]
    return gt, pred


class TestClearMot:
    def test_two_thirds_fixture(self):
        # 6 gt boxes, one miss plus one false positive: MOTA = 1 - 2/6
        b = [BBox(0, 0, 10, 10), BBox(50, 0, 10, 10), BBox(100, 0, 10, 10)]
        frames = [
            ([(1, b[0]), (2, b[1]), (3, b[2])], [(1, b[0]), (2, b[1])]),
            ([(1, b[0]), (2, b[1]), (3, b[2])],
             [(1, b[0]), (2, b[1]), (3, b[2]), (9, BBox(300, 300, 10, 10))]),
        ]
        m = evaluate(*records(frames))
        assert m.MOTA == pytest.approx(2 / 3)
        assert m.FN == 1 and m.FP == 1 and m.IDs == 0
        assert m.Rcll == pytest.approx(5 / 6)
        assert m.Prcn == pytest.approx(5 / 6)

    def test_perfect(self):
        b = BBox(0, 0, 10, 10)
        m = evaluate(*records([([(1, b)], [(1, b)])] * 5))
        assert m.MOTA == 1.0 and m.FP == 0 and m.FN == 0

    def test_no_predictions_zero_precision(self):
        m = evaluate(*records([([(1, BBox(0, 0, 5, 5))], [])]))
        assert m.Prcn == 0.0 and m.Rcll == 0.0
        assert m.MOTA == 0.0

    def test_empty_gt_rejected(self):
        for pred in ([], [rec(1, 1)]):
            with pytest.raises(MetricsError):
                evaluate([], pred)


class TestIdSwitches:
    def test_single_switch(self):
        b = BBox(0, 0, 10, 10)
        frames = [([(1, b)], [(7, b)])] * 2 + [([(1, b)], [(8, b)])] * 2
        assert sequence_counts(*records(frames))["idsw"] == 1

    def test_switch_counts_against_last_ever_match(self):
        # pred id goes 7 -> 8 -> back to 7: two switches, and the gap
        # (an unmatched frame in between) does not reset the reference
        b = BBox(0, 0, 10, 10)
        frames = [([(1, b)], [(7, b)]),
                  ([(1, b)], [(8, b)]),
                  ([(1, b)], []),
                  ([(1, b)], [(7, b)])]
        assert sequence_counts(*records(frames))["idsw"] == 2

    def test_persistent_match_resists_closer_newcomer(self):
        g, near = BBox(0, 0, 10, 10), BBox(2, 0, 10, 10)
        # a pixel-perfect newcomer appears in frame 2, but the existing pair
        # still clears the threshold so the matching (and identity) is kept:
        # gt 1 matches pred 7 in both frames, and pred 8 is the false positive
        m = evaluate(*records([([(1, g)], [(7, near)]),
                               ([(1, g)], [(7, near), (8, g)])]))
        assert (m.IDs, m.FN, m.FP) == (0, 0, 1)

    @pytest.mark.parametrize("ids", [(1, 2), (2, 1)])
    def test_exact_tie_goes_by_box_not_by_id(self, ids):
        # the predictions at left 2 and left -2 overlap the gt box equally in
        # frame 1; only the left -2 one is there in frame 2. Ordered by id,
        # one labelling matched left 2 first and counted a switch (MOTA 0.0)
        g, right, left = BBox(0, 0, 20, 20), BBox(2, 0, 20, 20), BBox(-2, 0, 20, 20)
        a, b = ids
        m = evaluate(*records([([(1, g)], [(a, right), (b, left)]),
                               ([(1, g)], [(b, left)])]))
        assert (m.IDs, m.MOTA) == (0, 0.5)

    def test_duplicate_ids_rejected(self):
        dup = [rec(1, 1, 0, 0, 5, 5), rec(1, 1, 9, 9, 5, 5)]
        for gt, pred in ((dup, []), ([rec(1, 1)], dup)):
            with pytest.raises(MetricsError):
                sequence_counts(gt, pred)


class TestTrackQuality:
    def test_partition_fixture(self):
        mt, pt, ml = track_quality({1: 1.0, 2: 0.5, 3: 0.1})
        assert (mt, pt, ml) == (1, 1, 1)

    def test_boundaries_inclusive(self):
        assert track_quality({1: 0.8}) == (1, 0, 0)
        assert track_quality({1: 0.2}) == (0, 0, 1)
        assert track_quality({1: 0.5}) == (0, 1, 0)

    def test_partition_sums(self):
        rng = np.random.default_rng(0)
        cov = {i: float(rng.random()) for i in range(50)}
        assert sum(track_quality(cov)) == 50


def brute_force_idtp(gt, pred, thr=0.5):
    """Max total per-frame-overlap over injective gt-to-pred track pairings."""
    gt_traj, pred_traj = {}, {}
    for r in gt:
        gt_traj.setdefault(r.track_id, {})[r.frame] = r.bbox
    for r in pred:
        pred_traj.setdefault(r.track_id, {})[r.frame] = r.bbox
    g_ids, p_ids = list(gt_traj), list(pred_traj)

    def overlap(g, p):
        return sum(1 for f, gb in gt_traj[g].items()
                   if f in pred_traj[p] and iou(gb, pred_traj[p][f]) >= thr)

    best = 0
    k = min(len(g_ids), len(p_ids))
    for size in range(k + 1):
        for gs in itertools.combinations(g_ids, size):
            for ps in itertools.permutations(p_ids, size):
                best = max(best, sum(overlap(g, p) for g, p in zip(gs, ps)))
    return best


class TestIdMetrics:
    def test_split_track_half(self):
        gt = [rec(f, 1) for f in range(1, 101)]
        pred = [rec(f, 10) for f in range(1, 51)] + [rec(f, 20) for f in range(51, 101)]
        m = id_metrics(gt, pred)
        assert m["IDF1"] == pytest.approx(0.5)
        assert m["IDP"] == pytest.approx(0.5) and m["IDR"] == pytest.approx(0.5)
        assert m["IDTP"] == 50

    def test_perfect(self):
        gt = [rec(f, t, 30 * t) for f in range(1, 21) for t in (1, 2, 3)]
        pred = [AnnotationRecord(r.frame, r.track_id + 100, r.bbox) for r in gt]
        m = id_metrics(gt, pred)
        assert m["IDF1"] == 1.0 and m["IDFP"] == 0 and m["IDFN"] == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            gt, pred = [], []
            for t in range(1, rng.integers(2, 5)):
                x = float(rng.uniform(0, 200))
                for f in range(1, int(rng.integers(3, 9))):
                    gt.append(rec(f, t, x + f))
            for t in range(1, rng.integers(2, 5)):
                x = float(rng.uniform(0, 200))
                for f in range(1, int(rng.integers(3, 9))):
                    pred.append(rec(f, 100 + t, x + f))
            m = id_metrics(gt, pred, 0.5)
            idtp, idfp, idfn = m["IDTP"], m["IDFP"], m["IDFN"]
            assert idtp == brute_force_idtp(gt, pred)
            assert idfp == len(pred) - idtp
            assert idfn == len(gt) - idtp

    def test_prefers_single_consistent_pairing(self):
        # one pred id covers gt 60 frames, another covers 40; the optimal
        # pairing takes the longer one only
        gt = [rec(f, 1) for f in range(1, 101)]
        pred = ([rec(f, 10) for f in range(1, 61)]
                + [rec(f, 20, 500) for f in range(61, 101)])
        m = id_metrics(gt, pred)
        assert m["IDTP"] == 60


def padded_idtp(overlap, gt_len, pred_len):
    """The oracle: IDTP from the square (ng + np) cost matrix in which each id
    may also be left unmatched at the cost of its length, as TrackEval pads
    it; a matched pair costs len_g + len_p - 2 * overlap."""
    g_ids, p_ids = list(gt_len), list(pred_len)
    ng, np_ = len(g_ids), len(p_ids)
    ov = np.zeros((ng, np_), dtype=np.int64)
    for (g, p), n in overlap.items():
        ov[g_ids.index(g), p_ids.index(p)] = n
    g_frames = np.array([gt_len[g] for g in g_ids], dtype=np.int64)
    p_frames = np.array([pred_len[p] for p in p_ids], dtype=np.int64)
    n = ng + np_
    cost = np.full((n, n), float(g_frames.sum() + p_frames.sum() + 1))
    cost[:ng, :np_] = g_frames[:, None] + p_frames[None, :] - 2 * ov
    cost[np.arange(ng), np_ + np.arange(ng)] = g_frames
    cost[ng + np.arange(np_), np.arange(np_)] = p_frames
    cost[ng:, np_:] = 0.0
    rows, cols = linear_sum_assignment(cost)
    return sum(int(ov[i, j]) for i, j in zip(rows, cols) if i < ng and j < np_)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(1, 8), st.integers(101, 112)),
                       st.integers(1, 30), max_size=40),
       st.lists(st.integers(0, 10), min_size=20, max_size=20),
       st.integers(0, 3), st.integers(0, 3))
def test_id_assignment_equals_padded_oracle(overlap, extra, lone_gt, lone_pred):
    # each id is at least as long as its longest overlap; some ids overlap nothing
    gt_len, pred_len = Counter(), Counter()
    for (g, p), n in overlap.items():
        gt_len[g] = max(gt_len[g], n + extra[g])
        pred_len[p] = max(pred_len[p], n + extra[p - 101 + 8])
    for i in range(lone_gt):
        gt_len[50 + i] = 1 + extra[i]
    for i in range(lone_pred):
        pred_len[150 + i] = 1 + extra[19 - i]
    assert _id_assignment(Counter(overlap)) == padded_idtp(overlap, gt_len, pred_len)


def ltwh(b):
    return b.left, b.top, b.width, b.height


def detection_ap_loop(gt, preds, thr=0.5):
    """The scalar oracle: greedy matching in score order, one `iou` at a time,
    with ties broken by box content."""
    order = sorted(range(len(preds)),
                   key=lambda i: (-preds[i][1], preds[i][0], *ltwh(preds[i][2])))
    gt = {f: sorted(boxes, key=ltwh) for f, boxes in gt.items()}
    matched = {f: set() for f in gt}
    flags = []
    for i in order:
        frame, _, box = preds[i]
        best, best_j = 0.0, -1
        for j, gb in enumerate(gt.get(frame, [])):
            if j not in matched.get(frame, set()) and iou(box, gb) > best:
                best, best_j = iou(box, gb), j
        flags.append(best >= thr and best_j >= 0)
        if flags[-1]:
            matched[frame].add(best_j)
    tp_cum = np.cumsum(flags)
    precision = tp_cum / np.arange(1, len(flags) + 1)
    recall = tp_cum / sum(len(v) for v in gt.values())
    return sum(precision[recall >= r - 1e-12].max() if (recall >= r - 1e-12).any() else 0.0
               for r in np.linspace(0.0, 1.0, 101)) / 101.0


GRID_BOX = st.builds(BBox, st.integers(0, 8), st.integers(0, 8), st.integers(2, 8),
                     st.integers(2, 8))


@settings(max_examples=100, deadline=None)
@given(gt=st.dictionaries(st.integers(1, 2), st.lists(GRID_BOX, min_size=1, max_size=4),
                          min_size=1),
       data=st.data(), thr=st.sampled_from([0.1, 0.5, 0.75]))
def test_detection_ap_equals_scalar_loop(gt, data, thr):
    # preds near a gt box (duplicates compete for it) or anywhere in frames 1-3
    near = st.tuples(st.sampled_from([(f, b) for f, v in gt.items() for b in v]),
                     st.integers(-2, 2), st.integers(-2, 2))
    near = near.map(lambda t: (t[0][0], t[0][1].translate(t[1], t[2])))
    located = st.one_of(near, st.tuples(st.integers(1, 3), GRID_BOX))
    preds = data.draw(st.lists(st.tuples(located, st.sampled_from([0.2, 0.5, 0.9])),
                               max_size=12))
    preds = [(f, score, box) for (f, box), score in preds]
    assert detection_ap(gt, preds, thr) == detection_ap_loop(gt, preds, thr)


@settings(max_examples=200, deadline=None)
@given(gt=st.dictionaries(st.integers(1, 2), st.lists(GRID_BOX, min_size=1, max_size=4),
                          min_size=1),
       preds=st.lists(st.tuples(st.integers(1, 2), st.sampled_from([0.2, 0.5, 0.9]), GRID_BOX),
                      max_size=10),
       thr=st.sampled_from([0.1, 0.5, 0.75]), rnd=st.randoms(use_true_random=False))
def test_detection_ap_independent_of_input_order(gt, preds, thr, rnd):
    """Grid boxes and three score levels make tied scores and tied IoUs."""
    want = detection_ap(gt, preds, thr)
    shuffled_gt = {f: rnd.sample(boxes, len(boxes)) for f, boxes in gt.items()}
    assert detection_ap(shuffled_gt, rnd.sample(preds, len(preds)), thr) == want


class TestDetectionAp:
    @pytest.mark.parametrize("scores,expect", [((0.5, 0.5), 1.0), ((0.9, 0.5), 51 / 101)],
                             ids=["equal-scores", "left-2-higher"])
    def test_ties_ignore_input_order(self, scores, expect):
        """The prediction at left 2 meets both gt boxes at IoU 2/3; the one at
        left 0 clears the threshold only on its twin. At equal scores the
        left-0 prediction ranks first and both match; scored higher, the
        left-2 one takes the left-0 gt box and the other misses. Either way,
        in every order of either list."""
        gt = [BBox(0, 0, 10, 10), BBox(4, 0, 10, 10)]
        preds = [(1, scores[0], BBox(2, 0, 10, 10)), (1, scores[1], BBox(0, 0, 10, 10))]
        for g, p in itertools.product((gt, gt[::-1]), (preds, preds[::-1])):
            assert detection_ap({1: g}, p) == pytest.approx(expect)

    def test_interpolated_fixture(self):
        # flags (TP, FP, TP) over 2 gt boxes: precision envelope is 1.0 up
        # to recall 0.5 and 2/3 beyond, so AP = (51 + 50 * 2/3) / 101
        b1, b2 = BBox(0, 0, 10, 10), BBox(100, 0, 10, 10)
        gt = {1: [b1, b2]}
        preds = [(1, 0.9, b1), (1, 0.8, BBox(50, 50, 10, 10)), (1, 0.7, b2)]
        expect = (51 * 1.0 + 50 * (2 / 3)) / 101
        assert detection_ap(gt, preds) == pytest.approx(expect)

    def test_perfect(self):
        gt = {f: [BBox(10 * f, 0, 8, 8)] for f in range(1, 6)}
        preds = [(f, 0.9, BBox(10 * f, 0, 8, 8)) for f in range(1, 6)]
        assert detection_ap(gt, preds) == pytest.approx(1.0)

    def test_all_misses(self):
        gt = {1: [BBox(0, 0, 10, 10)]}
        assert detection_ap(gt, [(1, 0.9, BBox(500, 500, 10, 10))]) == 0.0
        assert detection_ap(gt, []) == 0.0

    def test_duplicate_detection_is_fp(self):
        b = BBox(0, 0, 10, 10)
        gt = {1: [b]}
        one = detection_ap(gt, [(1, 0.9, b)])
        dup = detection_ap(gt, [(1, 0.9, b), (1, 0.8, b)])
        assert one == pytest.approx(1.0)
        assert dup == pytest.approx(1.0)  # duplicate ranks below the TP
        # but a duplicate scored above the true positive costs precision
        worse = detection_ap(gt, [(1, 0.9, BBox(8, 0, 10, 10)), (1, 0.8, b)])
        assert worse < 1.0

    def test_empty_gt_rejected(self):
        with pytest.raises(MetricsError):
            detection_ap({}, [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_score_rejected(self, bad):
        # a NaN key breaks the ranking sort, so AP read 0.8350 or 0.6667
        # depending on where the prediction stood in the list
        b1, b2 = BBox(0, 0, 10, 10), BBox(100, 0, 10, 10)
        preds = [(1, 0.9, b1), (1, bad, BBox(50, 50, 10, 10)), (1, 0.7, b2)]
        for order in (preds, preds[::-1], preds[1:] + preds[:1]):
            with pytest.raises(MetricsError):
                detection_ap({1: [b1, b2]}, order)


class TestEvaluate:
    def _sequence(self, seed, n_tracks=4, n_frames=40):
        rng = np.random.default_rng(seed)
        gt = []
        for t in range(1, n_tracks + 1):
            x, y = rng.uniform(0, 300, 2)
            vx, vy = rng.uniform(-2, 2, 2)
            for f in range(1, n_frames + 1):
                gt.append(rec(f, t, x + vx * f, y + vy * f, 12, 12))
        return gt

    def test_perfect_prediction(self):
        gt = self._sequence(2)
        r = evaluate(gt, list(gt))
        assert r.MOTA == 1.0 and r.IDF1 == 1.0 and r.IDs == 0
        assert r.MT == 4 and r.PT == 0 and r.ML == 0

    def test_pred_relabel_invariance(self):
        gt = self._sequence(3)
        pred = [q for i, q in enumerate(gt) if i % 7]  # drop some boxes
        relabeled = [AnnotationRecord(r.frame, 1000 - r.track_id, r.bbox) for r in pred]
        a, b = evaluate(gt, pred), evaluate(gt, relabeled)
        assert a.as_dict() == b.as_dict()

    def test_iou_threshold_monotone(self):
        gt = self._sequence(4)
        pred = [AnnotationRecord(r.frame, r.track_id, r.bbox.translate(2.0, 0))
                for r in gt]
        loose = evaluate(gt, pred, iou_threshold=0.5)
        strict = evaluate(gt, pred, iou_threshold=0.75)
        assert strict.Rcll <= loose.Rcll

    def test_perfect_prediction_at_threshold_one(self):
        gt = self._sequence(6)
        r = evaluate(gt, list(gt), iou_threshold=1.0)
        assert r.MOTA == 1.0 and (r.FP, r.FN, r.IDs) == (0, 0, 0)

    def test_clear_matching_gates_on_iou_not_one_minus_iou(self):
        # IoU 0.49999999999999994 rounds to 1 - IoU == 0.5: a gate on the cost
        # would match the pair that the identity metrics reject
        gt = [rec(1, 1, 0.0, 0.0, 67.3918170546694, 1.0)]
        pred = [rec(1, 1, 22.463939018223137, 0.0, 67.3918170546694, 1.0)]
        v = iou(gt[0].bbox, pred[0].bbox)
        assert v < 0.5 and 1.0 - v == 0.5
        r = evaluate(gt, pred)
        assert (r.FN, r.FP, r.MOTA, r.Rcll, r.MT, r.IDF1) == (1, 1, -1.0, 0.0, 0, 0.0)

    def test_tied_boxes_invariant_under_record_order(self):
        # two preds tie for the gt box in frame 1; only pred 8 is left in frame 2
        gt = [rec(1, 1, 10), rec(2, 1, 10)]
        x, y, y2 = rec(1, 7, 8), rec(1, 8, 12), rec(2, 8, 12)
        assert evaluate(gt, [x, y, y2]) == evaluate(gt, [y, x, y2])

    @pytest.mark.parametrize("thr", [math.nan, math.inf, -1.0, 0.0, 1.5])
    def test_bad_iou_threshold_rejected(self, thr):
        gt = self._sequence(6)
        with pytest.raises(MetricsError):
            sequence_counts(gt, gt, thr)
        with pytest.raises(MetricsError):
            evaluate(gt, gt, iou_threshold=thr)
        # on one exact match AP read 0.0 at nan and 1.5, and 1.0 at 0 and -1
        b = BBox(0, 0, 10, 10)
        with pytest.raises(MetricsError):
            detection_ap({1: [b]}, [(1, 0.9, b)], thr)

    def test_iou_threshold_one_accepted(self):
        gt = [rec(f, t, 30 * t + f) for f in range(1, 6) for t in (1, 2)]
        assert evaluate(gt, list(gt), iou_threshold=1.0).MOTA == 1.0

    def test_aggregate_of_identical_sequences(self):
        gt = self._sequence(5)
        pred = [q for i, q in enumerate(gt) if i % 9]
        single = evaluate(gt, pred)
        double = aggregate([(gt, pred), (gt, pred)])
        assert double.MOTA == pytest.approx(single.MOTA)
        assert double.IDF1 == pytest.approx(single.IDF1)
        assert double.FP == 2 * single.FP and double.FN == 2 * single.FN
        assert double.MT == 2 * single.MT


@dataclass
class EvalAccumulator:
    """The reference evaluator's running per-frame state for one sequence:
    every CLEAR count kept frame by frame."""

    iou_threshold: float = 0.5
    tp: int = 0
    fp: int = 0
    fn: int = 0
    idsw: int = 0
    total_gt: int = 0
    total_pred: int = 0
    gt_frames: dict[int, int] = field(default_factory=dict)   # gt id -> frames present
    gt_matched: dict[int, int] = field(default_factory=dict)  # gt id -> frames matched
    prev_pairs: dict[int, int] = field(default_factory=dict)  # matches in previous frame
    last_match: dict[int, int] = field(default_factory=dict)  # last-ever matched pred id

    def coverage(self) -> dict[int, float]:
        return {g: self.gt_matched.get(g, 0) / n for g, n in self.gt_frames.items()}


def oracle_match_frame(gt, pred, acc):
    """Match one frame's (id, bbox) lists with scalar `iou` and fold the
    result into the accumulator."""
    gt_ids = [g for g, _ in gt]
    pred_ids = [p for p, _ in pred]
    gt_boxes, pred_boxes = dict(gt), dict(pred)
    thr = acc.iou_threshold
    pairs = {}
    for g, p in acc.prev_pairs.items():
        if g in gt_boxes and p in pred_boxes and iou(gt_boxes[g], pred_boxes[p]) >= thr:
            pairs[g] = p
    # unmatched boxes enter the assignment by content; equal ones in id order
    free_gt = sorted((g for g in gt_ids if g not in pairs), key=lambda g: ltwh(gt_boxes[g]))
    free_pred = sorted((p for p in pred_ids if p not in set(pairs.values())),
                       key=lambda p: ltwh(pred_boxes[p]))
    if free_gt and free_pred:
        free = np.array([[iou(gt_boxes[g], pred_boxes[p]) for p in free_pred]
                         for g in free_gt])
        for i, j in zip(*linear_sum_assignment(1.0 - free)):
            if free[i, j] >= thr:
                pairs[free_gt[i]] = free_pred[j]
    for g, p in pairs.items():
        if g in acc.last_match and acc.last_match[g] != p:
            acc.idsw += 1
        acc.last_match[g] = p
        acc.gt_matched[g] = acc.gt_matched.get(g, 0) + 1
    for g in gt_ids:
        acc.gt_frames[g] = acc.gt_frames.get(g, 0) + 1
    acc.tp += len(pairs)
    acc.fn += len(gt_ids) - len(pairs)
    acc.fp += len(pred_ids) - len(pairs)
    acc.total_gt += len(gt_ids)
    acc.total_pred += len(pred_ids)
    acc.prev_pairs = dict(pairs)


def oracle_clearmot(acc):
    prcn = acc.tp / acc.total_pred if acc.total_pred else 0.0
    return {"MOTA": 1.0 - (acc.fn + acc.fp + acc.idsw) / acc.total_gt,
            "Rcll": acc.tp / acc.total_gt, "Prcn": prcn,
            "IDs": acc.idsw, "FP": acc.fp, "FN": acc.fn}


def oracle_evaluate(gt, pred, thr):
    """The reference evaluator: frames in order and each frame's boxes in id
    order through the accumulator, then IDTP from the padded global
    assignment over scalar-IoU overlap counts. The unmatched boxes of a frame
    enter its assignment in (left, top, width, height) order."""
    acc = EvalAccumulator(iou_threshold=thr)
    overlap = Counter()
    for f in sorted({r.frame for r in gt} | {r.frame for r in pred}):
        g = sorted((r.track_id, r.bbox) for r in gt if r.frame == f)
        p = sorted((r.track_id, r.bbox) for r in pred if r.frame == f)
        oracle_match_frame(g, p, acc)
        overlap.update((gi, pi) for gi, gb in g for pi, pb in p if iou(gb, pb) >= thr)
    idtp = padded_idtp(overlap, Counter(r.track_id for r in gt),
                       Counter(r.track_id for r in pred))
    idfp, idfn = len(pred) - idtp, len(gt) - idtp
    clear = oracle_clearmot(acc)
    mt, pt, ml = track_quality(acc.coverage())
    return MotReport(IDF1=2 * idtp / (2 * idtp + idfp + idfn) if idtp + idfp + idfn else 1.0,
                     IDs=clear["IDs"], IDP=idtp / (idtp + idfp) if idtp + idfp else 0.0,
                     IDR=idtp / (idtp + idfn) if idtp + idfn else 0.0, MT=mt, PT=pt, ML=ml,
                     Rcll=clear["Rcll"], Prcn=clear["Prcn"], MOTA=clear["MOTA"],
                     FP=clear["FP"], FN=clear["FN"])


@st.composite
def gt_pred_pairs(draw):
    """Two GRID_RECORDS draws (pred ids from 101) plus two tracker-like copies
    of some gt boxes (ids from 1 and from 51), each box shifted by up to 2 px
    and relabelled from a drawn frame on. Exact IoU ties, gaps, ID switches,
    one-sided frames and kept pairs beside closer newcomers all occur."""
    gt = draw(GRID_RECORDS)
    pred = [AnnotationRecord(r.frame, 100 + r.track_id, r.bbox) for r in draw(GRID_RECORDS)]
    switch = draw(st.lists(st.integers(1, 7), min_size=6, max_size=6))
    for r, base in itertools.product(gt, (0, 50)):
        if draw(st.booleans()):
            pid = base + r.track_id + (10 if r.frame >= switch[r.track_id - 1] else 0)
            pred.append(AnnotationRecord(r.frame, pid, r.bbox.translate(
                draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))))
    return gt, pred


@settings(max_examples=300, deadline=None)
@given(pair=gt_pred_pairs(), thr=st.sampled_from([0.3, 0.5, 1.0]))
def test_evaluate_equals_accumulator_oracle(pair, thr):
    gt, pred = pair
    assert evaluate(gt, pred, thr) == oracle_evaluate(gt, pred, thr)


class TestReport:
    def _report(self):
        return MotReport(IDF1=0.5, IDs=3, IDP=0.25, IDR=1.0, MT=2, PT=1, ML=0,
                         Rcll=0.9, Prcn=0.8, MOTA=0.675, FP=10, FN=20)

    def test_row_formatting(self):
        row = self._report().format_row("seq01")
        assert row.startswith("seq01")
        assert "50.00" in row and "67.50" in row and " 3" in row

    def test_header_matches_columns(self):
        header = MotReport.header()
        for c in MotReport.COLUMNS:
            assert c in header

    def test_json_round_trip(self):
        import json
        d = json.loads(json.dumps(self._report().as_dict()))
        assert d["MOTA"] == 0.675 and d["FP"] == 10 and d["FN"] == 20
