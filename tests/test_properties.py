"""Property tests: the CLI exit-code contract under fuzzed config files, map
sidecars, fuse-demo seeds and coefficients, and annotation files, tracker invariance under a shift of every frame number and under a
permutation of each frame's detections, and the evaluator's symmetries: a
sequence scored against itself, gt and pred swapped, records shuffled
within a file, and ids relabelled."""
import dataclasses
import json
import random
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from headtrack import maps
from headtrack.cli import main
from headtrack.geometry import BBox
from headtrack.metrics import evaluate
from headtrack.motio import AnnotationRecord
from headtrack.simulate import NoiseModel, ScenarioConfig, corrupt, simulate
from headtrack.tracker import Mode, TrackerConfig, run_tracker

FUZZ = settings(max_examples=40, deadline=None)

# small values only: a config that asks for a huge crowd or a long sequence is
# valid and slow, not wrong
SCALARS = st.one_of(
    st.integers(-3, 30).map(str),
    st.floats(-2.0, 4.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "", "x", "1.5", "sort", "byte"]),
)
VALUES = st.one_of(SCALARS, st.lists(SCALARS, min_size=2, max_size=3).map(",".join))


def config_lines(cls):
    keys = st.sampled_from([f.name for f in dataclasses.fields(cls)]
                           + ["agent_cuont", "embedding_gate"])
    line = st.one_of(st.tuples(keys, VALUES).map("=".join),
                     st.sampled_from(["# comment", "", "novalue", "=1"]))
    return st.lists(line, max_size=6).map("\n".join)


def dets_file(path: Path) -> None:
    path.write_text("".join(f"{i},{f},{10 * i + f},5,10,10,0.{5 + i},1,1\n"
                            for f in range(1, 5) for i in range(1, 4)))


@FUZZ
@given(text=config_lines(TrackerConfig))
def test_track_config_exit_code(text):
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        dets_file(d / "dets.txt")
        (d / "trk.cfg").write_text(text)
        assert main(["track", "--dets", str(d / "dets.txt"), "--config", str(d / "trk.cfg"),
                     "--out", str(d / "out.txt")]) in (0, 2, 3)


@FUZZ
@given(scenario=config_lines(ScenarioConfig), noise=config_lines(NoiseModel))
def test_gen_scenario_config_exit_code(scenario, noise):
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        # a short default sequence; the fuzzed lines come after and may override it
        (d / "scen.cfg").write_text("duration=6\n" + scenario)
        (d / "noise.cfg").write_text(noise)
        assert main(["gen-scenario", "--config", str(d / "scen.cfg"),
                     "--noise", str(d / "noise.cfg"), "--out-gt", str(d / "gt.txt"),
                     "--out-dets", str(d / "dets.txt")]) in (0, 2, 3)


SIDECAR_VALUES = st.one_of(st.integers(-2, 80), st.floats(-1.0, 8.0), st.booleans(),
                           st.none(), st.text(max_size=3), st.lists(st.integers(0, 6)))
SIDECARS = st.one_of(
    st.dictionaries(st.sampled_from(["height", "width", "channels", "extra"]),
                    SIDECAR_VALUES).map(json.dumps),
    # divisors of the 6x6 payloads, so some sidecars describe a loadable map
    st.fixed_dictionaries({k: st.sampled_from([1, 2, 3, 6, 12, 36])
                           for k in ("height", "width", "channels")}).map(json.dumps),
    st.integers(1, 3).map(lambda c: json.dumps({"height": 6, "width": 6, "channels": c})),
    st.text(max_size=12),
)


# fuse-demo's coefficient flags: any float, and magnitudes that overflow
# inside the fusion (1e300) or only in the float32 output map (1e200)
COEFFICIENT_FLAGS = st.dictionaries(
    st.sampled_from(["alpha1", "beta1", "alpha2", "beta2"]),
    st.one_of(st.floats(), st.sampled_from([1e300, -1e300, 1e200, -1e200, 0.0])),
).map(lambda d: [f"--{k}={v!r}" for k, v in d.items()])


@FUZZ
@given(member=st.sampled_from(["rgb", "diff", "flow", "depth", "density"]),
       sidecar=st.none() | SIDECARS, seed=st.integers(-3, 2**32),
       coefficients=COEFFICIENT_FLAGS)
def test_fuse_demo_sidecar_exit_code(member, sidecar, seed, coefficients):
    """A fuzzed sidecar (None keeps the stored one), seed and coefficients:
    exit 0, 2 or 3 with no numpy warning; on 0 the output map reads back, and
    on any other exit nothing is written."""
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        d = Path(d)
        for name, channels in (("rgb", 3), ("diff", 1), ("flow", 2), ("depth", 1),
                               ("density", 1)):
            maps.save_map(d / f"{name}.bin", rng.random((6, 6, channels)))
        if sidecar is not None:
            (d / f"{member}.bin.json").write_text(sidecar)
        before = sorted(d.rglob("*"))
        code = main(["fuse-demo", "--stack-dir", str(d), "--seed", str(seed), *coefficients,
                     "--out", str(d / "out.bin")])
        assert code in (0, 2, 3)
        if code == 0:
            assert maps.load_map(d / "out.bin").shape == (6, 6, 8)
        else:
            assert sorted(d.rglob("*")) == before


@FUZZ
@given(sidecar=SIDECARS)
def test_gen_motion_sidecar_exit_code(sidecar):
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as d:
        frames = Path(d) / "frames"
        frames.mkdir()
        for i in (1, 2):
            maps.save_map(frames / f"f_{i}.bin", rng.random((12, 12)))
        (frames / "f_2.bin.json").write_text(sidecar)
        before = sorted(Path(d).rglob("*"))
        code = main(["gen-motion", "--frames-dir", str(frames), "--out-dir", str(Path(d) / "out")])
        assert code in (0, 2)
        assert code == 0 or sorted(Path(d).rglob("*")) == before


# a line is mostly well-formed (small integer id and frame, 7 numeric fields)
# so that the fuzzed floats reach geometry, tracking and evaluation; huge, tiny,
# negative and non-finite values all come from st.floats()
FLOAT_FIELD = st.one_of(st.floats().map(repr), st.integers(-5, 40).map(str),
                        st.sampled_from(["1e308", "-1e308", "1e-308", "5e-324", "0.5"]))
ANNOTATION_LINE = st.one_of(
    st.tuples(st.integers(1, 3).map(str), st.integers(1, 4).map(str),
              *[FLOAT_FIELD] * 7).map(",".join),
    st.lists(st.one_of(FLOAT_FIELD, st.sampled_from(["", "x", "1.5"])),
             min_size=8, max_size=10).map(",".join),
)
ANNOTATION_FILE = st.lists(ANNOTATION_LINE, max_size=4).map(
    lambda lines: "".join(line + "\n" for line in ["1,1,0,0,10,10,0.9,1,1", *lines]))


@FUZZ
@given(gt=ANNOTATION_FILE, pred=ANNOTATION_FILE)
# a height whose square overflows the tracker's noise, over three frames
@example(gt="1,1,0,0,10,10,0.9,1,1\n",
         pred="".join(f"1,{f},0,0,1e-100,1e200,1,1,1\n" for f in (1, 2, 3)))
def test_annotation_file_exit_code(gt, pred):
    with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        d = Path(d)
        (d / "gt.txt").write_text(gt)
        (d / "pred.txt").write_text(pred)
        assert main(["track", "--dets", str(d / "pred.txt"),
                     "--out", str(d / "out.txt")]) in (0, 2, 3)
        assert main(["evaluate", "--gt", str(d / "gt.txt"),
                     "--pred", str(d / "pred.txt")]) in (0, 2, 3)
        assert main(["stats", "--ann", str(d / "gt.txt")]) in (0, 2, 3)


DETECTION = st.builds(lambda x, y, w, h, s: AnnotationRecord(1, 1, BBox(x, y, w, h),
                                                             confidence=s),
                      st.integers(0, 60), st.integers(0, 60), st.integers(4, 16),
                      st.integers(4, 16), st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(frames=st.dictionaries(st.integers(1, 12), st.lists(DETECTION, max_size=4),
                              min_size=1, max_size=8),
       shift=st.integers(1, 1000), mode=st.sampled_from(list(Mode)))
def test_tracker_invariant_under_frame_shift(frames, shift, mode):
    cfg = TrackerConfig(mode=mode)
    base = run_tracker(frames, cfg)
    shifted = run_tracker({f + shift: dets for f, dets in frames.items()}, cfg)
    assert [o._replace(frame=o.frame - shift) for o in shifted] == base


def relabelling(a, b):
    """The one-to-one map from a's track ids to b's under which the two
    tracker outputs are equal, or None. Rows are keyed by (frame, box, score):
    real-valued simulated detections never repeat within a frame."""
    rows_a = {(o.frame, o.bbox, o.confidence): o.track_id for o in a}
    rows_b = {(o.frame, o.bbox, o.confidence): o.track_id for o in b}
    if len(rows_a) != len(a) or rows_a.keys() != rows_b.keys():
        return None
    ids = {}
    for key, tid in rows_a.items():
        if ids.setdefault(tid, rows_b[key]) != rows_b[key]:
            return None
    return ids if len(set(ids.values())) == len(ids) else None


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mode=st.sampled_from(list(Mode)))
def test_tracker_invariant_under_detection_permutation(seed, mode):
    gt, _ = simulate(ScenarioConfig(agent_count=40, duration=40, seed=seed))
    frames = corrupt(gt, NoiseModel(miss_rate=0.1, fp_rate=3.0, center_jitter=1.5,
                                    size_jitter=1.0, tp_score=(0.8, 0.15),
                                    occlusion_drop=0.5, seed=seed))
    rng = np.random.default_rng(seed)
    permuted = {f: [dets[i] for i in rng.permutation(len(dets))] for f, dets in frames.items()}
    cfg = TrackerConfig(mode=mode)
    base = run_tracker(frames, cfg)
    assert base and relabelling(base, run_tracker(permuted, cfg)) is not None


# Records on a small integer grid: one box per (frame, id) and no two equal
# boxes in a frame. Overlaps, coincident costs and Hungarian ties are common.
GRID_RECORDS = st.lists(
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 40), st.integers(0, 40),
              st.integers(4, 16), st.integers(4, 16)),
    min_size=1, max_size=30,
    unique_by=(lambda t: t[:2], lambda t: (t[0], *t[2:])),
).map(lambda rows: [AnnotationRecord(f, i, BBox(x, y, w, h)) for f, i, x, y, w, h in rows])


@settings(max_examples=100, deadline=None)
@given(gt=GRID_RECORDS)
def test_evaluate_against_itself_is_perfect(gt):
    r = evaluate(gt, list(gt))
    assert (r.MOTA, r.IDF1, r.IDP, r.IDR, r.Rcll, r.Prcn) == (1.0,) * 6
    assert (r.FP, r.FN, r.IDs) == (0, 0, 0)


def noisy_pair(seed: int) -> tuple[list[AnnotationRecord], list[AnnotationRecord]]:
    """Ground truth of a few crossing tracks and a tracker-like prediction:
    jittered boxes, misses, an identity change and false positives, all at
    real-valued coordinates so that no two matchings tie on cost."""
    rng = np.random.default_rng(seed)
    gt, pred = [], []
    n_tracks, n_frames = int(rng.integers(1, 6)), int(rng.integers(1, 9))
    start = rng.uniform(0, 60, (n_tracks, 2))
    vel = rng.uniform(-4, 4, (n_tracks, 2))
    size = rng.uniform(8, 16, n_tracks)
    switch = rng.integers(1, n_frames + 1, n_tracks)   # frame a pred id changes
    for f in range(1, n_frames + 1):
        for t in range(n_tracks):
            x, y = start[t] + vel[t] * f
            gt.append(AnnotationRecord(f, t + 1, BBox(x, y, size[t], size[t])))
            if rng.random() < 0.8:
                dx, dy, dw = rng.normal(0, 1.5, 3)
                pid = 100 + t if f < switch[t] else 200 + t
                pred.append(AnnotationRecord(f, pid, BBox(x + dx, y + dy, size[t] + dw,
                                                          size[t] + dw)))
        for k in range(int(rng.integers(0, 3))):
            pred.append(AnnotationRecord(f, 900 + k, BBox(*rng.uniform(0, 60, 2), 10, 10)))
    return gt, pred


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_swapping_gt_and_pred_swaps_idp_idr_and_fp_fn(seed):
    gt, pred = noisy_pair(seed)
    if not pred:
        return
    a, b = evaluate(gt, pred), evaluate(pred, gt)
    assert (a.IDP, a.IDR, a.FP, a.FN) == (b.IDR, b.IDP, b.FN, b.FP)


@settings(max_examples=100, deadline=None)
@given(gt=GRID_RECORDS, pred=GRID_RECORDS, rnd=st.randoms(use_true_random=False))
def test_report_invariant_under_record_shuffle(gt, pred, rnd):
    shuffled_gt, shuffled_pred = list(gt), list(pred)
    rnd.shuffle(shuffled_gt)
    rnd.shuffle(shuffled_pred)
    assert evaluate(shuffled_gt, shuffled_pred) == evaluate(gt, pred)


# Mirrored pairs: each gt track sits at its own place on a 30 px grid, and its
# two prediction ids sit 1-6 px before and after it along one axis, so both
# overlap it equally. Each frame keeps any subset of the three boxes, so a
# tie in one frame is decided by which box stays in the next.
MIRRORED = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 6), st.booleans(),
              st.lists(st.integers(0, 7), min_size=1, max_size=4)),
    min_size=1, max_size=3, unique_by=lambda t: t[:2],
)


def mirrored_records(tracks) -> tuple[list[AnnotationRecord], list[AnnotationRecord]]:
    gt, pred = [], []
    for k, (col, row, d, vertical, present) in enumerate(tracks):
        x, y = 30 * col, 30 * row
        dx, dy = (0, d) if vertical else (d, 0)
        for f, mask in enumerate(present, start=1):
            if mask & 1:
                gt.append(AnnotationRecord(f, k + 1, BBox(x, y, 20, 20)))
            for bit, sign, pid in ((2, -1, 2 * k + 1), (4, 1, 2 * k + 2)):
                if mask & bit:
                    pred.append(AnnotationRecord(f, pid, BBox(x + sign * dx, y + sign * dy,
                                                              20, 20)))
    return gt, pred


def relabel(records, rnd) -> list[AnnotationRecord]:
    ids = sorted({r.track_id for r in records})
    new = dict(zip(ids, rnd.sample(range(1, 100), len(ids))))
    return [dataclasses.replace(r, track_id=new[r.track_id]) for r in records]


@settings(max_examples=200, deadline=None)
@given(tracks=MIRRORED, rnd=st.randoms(use_true_random=False))
@example(tracks=[(0, 0, 2, False, [7, 5])], rnd=random.Random(0))
def test_report_invariant_under_id_relabelling(tracks, rnd):
    gt, pred = mirrored_records(tracks)
    if not gt:
        return
    assert evaluate(relabel(gt, rnd), relabel(pred, rnd)) == evaluate(gt, pred)
