import hashlib
import json
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headtrack import maps, motio
from headtrack.cli import EXIT_CONFIG, EXIT_INPUT, main
from headtrack.fusion import FusionConfig, FusionParams, forward
from headtrack.metrics import aggregate, evaluate
from headtrack.motio import FieldOrder, records, table
from headtrack.simulate import NoiseModel, ScenarioConfig, corrupt, simulate
from headtrack.tracker import TrackerConfig, run_tracker


def run(*argv):
    return main(list(argv))


@pytest.fixture
def scenario(tmp_path):
    gt = tmp_path / "gt.txt"
    dets = tmp_path / "dets.txt"
    code = run("gen-scenario", "--seed", "1", "--out-gt", str(gt),
               "--out-dets", str(dets))
    assert code == 0
    return gt, dets


class TestGenScenario:
    def test_outputs_and_manifest(self, scenario):
        gt, dets = scenario
        assert gt.exists() and dets.exists()
        assert (gt.parent / (gt.name + ".manifest.json")).exists()
        manifest = json.loads((gt.parent / (gt.name + ".manifest.json")).read_text())
        assert manifest["command"] == "gen-scenario"
        assert motio.read_kv(str(gt) + ".meta")["frames"] == "200"
        recs = motio.read_annotation_file(gt, FieldOrder.paper_order)
        assert recs.shape == (20 * 200, 9)

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run("gen-scenario", "--seed", "9", "--out-gt", str(a))
        run("gen-scenario", "--seed", "9", "--out-gt", str(b))
        assert a.read_text() == b.read_text()

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "scen.cfg"
        cfg.write_text("agent_count=0\n")
        assert run("gen-scenario", "--config", str(cfg),
                   "--out-gt", str(tmp_path / "x.txt")) == EXIT_CONFIG

    @pytest.mark.parametrize("flag,line", [
        ("--noise", "fp_rate=inf"),
        ("--config", "heading_sigma=nan"),
        ("--config", "fps=nan"),
        ("--config", "agent_cuont=5"),  # misspelt keys are rejected, not ignored
        ("--noise", "tp_score=1.0,-0.1"),
        ("--config", "seed=-1"),
        ("--config", "head_size_range=1e-300,1e-300"),   # the box area underflows to 0
        ("--noise", "center_jitter=1e308"),              # jittered edges overflow
        ("--noise", "size_jitter=1e308"),
        ("--noise", "size_jitter=1e200"),                # the box area overflows
        ("--noise", "fp_rate=1e20"),                     # beyond numpy's Poisson range
        ("--noise", "occlusion_drop=2"),                 # occluded scores leave [0, 1]
        # the headings overflow to nan
        pytest.param("--config", "agent_count=4\nduration=5\nheading_sigma=1e308",
                     id="--config-heading_sigma=1e308"),
        # the head size squared overflows; the arena is large enough to get there
        pytest.param("--config", f"arena={10**201},{10**201}\nhead_size_range=1e200,1e200",
                     id="--config-arena=10**201-head_size_range=1e200"),
    ])
    def test_bad_config_values_exit_config(self, tmp_path, flag, line):
        cfg = tmp_path / "x.cfg"
        cfg.write_text(line + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("gen-scenario", flag, str(cfg), "--out-gt", str(tmp_path / "x.txt"),
                       "--out-dets", str(tmp_path / "d.txt")) == EXIT_CONFIG

    @pytest.mark.parametrize("order,digest", [
        ("paper_order", "2a99a4dbaff322a713e602bd003fee957745f561166efa08b441fac220a751b0"),
        ("standard_order", "2f0a34cd8eacdb374c0ae6521b761b889e4d038efed07cb73b40cabf4bf4f13a"),
    ])
    def test_detections_bytes_pinned(self, tmp_path, order, digest):
        # the exact bytes of a detection file with misses, false positives,
        # jitter and occlusion drops: 331 records over 30 frames
        scen, noise, dets = tmp_path / "scen.cfg", tmp_path / "noise.cfg", tmp_path / "d.txt"
        scen.write_text("agent_count=12\nduration=30\narena=160,120\n")
        noise.write_text("miss_rate=0.2\nfp_rate=1.5\ncenter_jitter=1.3\nsize_jitter=0.7\n"
                         "tp_score=0.8,0.15\nocclusion_drop=0.5\n")
        assert run("gen-scenario", "--config", str(scen), "--noise", str(noise), "--seed", "5",
                   "--order", order, "--out-gt", str(tmp_path / "g.txt"),
                   "--out-dets", str(dets)) == 0
        assert hashlib.sha256(dets.read_bytes()).hexdigest() == digest

    def test_fractional_fps_written_exactly(self, tmp_path):
        scen, gt = tmp_path / "scen.cfg", tmp_path / "g.txt"
        scen.write_text("agent_count=2\nduration=3\nfps=23.976\n")
        assert run("gen-scenario", "--config", str(scen), "--out-gt", str(gt)) == 0
        assert motio.read_kv(str(gt) + ".meta")["fps"] == "23.976"

    def test_negative_seed_flag_exit_config(self, tmp_path):
        assert run("gen-scenario", "--seed", "-1",
                   "--out-gt", str(tmp_path / "x.txt")) == EXIT_CONFIG


class TestStats:
    def test_json_payload(self, scenario, capsys):
        gt, _ = scenario
        assert run("stats", "--ann", str(gt), "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["boxes"] == 20 * 200
        assert payload["frames"] == 200
        assert payload["density"] == pytest.approx(20.0)
        assert payload["tracks"] == 20
        # synthetic heads are square
        assert payload["ratio_mass_0.8_1.4"] == 1.0

    def test_text_output(self, scenario, capsys):
        gt, _ = scenario
        assert run("stats", "--ann", str(gt)) == 0
        out = capsys.readouterr().out
        assert "density" in out and "20.00" in out

    def test_missing_file(self, tmp_path):
        assert run("stats", "--ann", str(tmp_path / "none.txt")) == EXIT_INPUT

    @pytest.mark.parametrize("frames", [0, -1])
    def test_nonpositive_frames_rejected(self, scenario, frames):
        gt, _ = scenario
        assert run("stats", "--ann", str(gt), "--frames", str(frames)) == EXIT_INPUT

    @pytest.mark.parametrize("frames", [200, 400])
    def test_frames_sets_the_density(self, scenario, capsys, frames):
        gt, _ = scenario
        assert run("stats", "--ann", str(gt), "--frames", str(frames), "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["frames"] == frames
        assert payload["density"] == round(20 * 200 / frames, 2)


class TestTrackEvaluate:
    def test_track_then_evaluate(self, scenario, tmp_path, capsys):
        gt, dets = scenario
        out = tmp_path / "tracked.txt"
        assert run("track", "--dets", str(dets), "--out", str(out)) == 0
        assert out.exists() and (tmp_path / "tracked.txt.manifest.json").exists()
        assert run("evaluate", "--gt", str(gt), "--pred", str(out), "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        row = payload[gt.stem]
        # noise-free detections: the pipeline reproduces GT exactly
        assert row["MOTA"] == pytest.approx(1.0)
        assert row["IDF1"] == pytest.approx(1.0)
        assert row["IDs"] == 0

    def test_track_on_file_equals_run_tracker_with_interior_empty_frames(self, tmp_path):
        # the det file has no line for an empty frame; the dict from corrupt
        # holds it as []. Here ten frames from 2 to 57 of 60 are empty.
        scen, noise = tmp_path / "scen.cfg", tmp_path / "noise.cfg"
        gt, dets, out = tmp_path / "g.txt", tmp_path / "d.txt", tmp_path / "t.txt"
        scen.write_text("agent_count=3\nduration=60\n")
        noise.write_text("miss_rate=0.6\ncenter_jitter=0.5\n")
        assert run("gen-scenario", "--config", str(scen), "--noise", str(noise), "--seed", "2",
                   "--out-gt", str(gt), "--out-dets", str(dets)) == 0
        assert run("track", "--dets", str(dets), "--mode", "byte", "--out", str(out)) == 0
        frames = corrupt(simulate(ScenarioConfig(agent_count=3, duration=60, seed=2))[0],
                         NoiseModel(miss_rate=0.6, center_jitter=0.5, seed=2))
        empty = [f for f, ds in frames.items() if not ds]
        assert len(empty) == 10 and min(frames) < min(empty) and max(empty) < max(frames)
        want = tmp_path / "want.txt"
        motio.write_annotation_file(want, table(run_tracker(frames, TrackerConfig(mode="byte"))))
        assert np.array_equal(motio.read_annotation_file(out), motio.read_annotation_file(want))

    def test_evaluate_text_report(self, scenario, tmp_path, capsys):
        gt, dets = scenario
        out = tmp_path / "tracked.txt"
        run("track", "--dets", str(dets), "--out", str(out))
        assert run("evaluate", "--gt", str(gt), "--pred", str(out)) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0].startswith("Sequence")
        assert "MOTA" in text

    @pytest.mark.parametrize("thr", ["nan", "inf", "-1", "0", "1.5"])
    def test_evaluate_bad_iou_threshold(self, scenario, thr):
        gt, _ = scenario
        assert run("evaluate", "--gt", str(gt), "--pred", str(gt),
                   "--iou", thr) == EXIT_INPUT

    def test_evaluate_directory_mode(self, scenario, tmp_path, capsys):
        gt, dets = scenario
        gt_dir, pred_dir = tmp_path / "gts", tmp_path / "preds"
        gt_dir.mkdir()
        pred_dir.mkdir()
        tracked = tmp_path / "tracked.txt"
        run("track", "--dets", str(dets), "--out", str(tracked))
        for name in ("s1.txt", "s2.txt"):
            (gt_dir / name).write_text(gt.read_text())
            (pred_dir / name).write_text(tracked.read_text())
        assert run("evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir),
                   "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"s1.txt", "s2.txt", "OVERALL"}
        assert payload["OVERALL"]["FN"] == (payload["s1.txt"]["FN"]
                                            + payload["s2.txt"]["FN"])

    def test_evaluate_directory_mode_empty_sequence(self, scenario, tmp_path):
        gt, _ = scenario
        gt_dir, pred_dir = tmp_path / "gts", tmp_path / "preds"
        gt_dir.mkdir()
        pred_dir.mkdir()
        (gt_dir / "s1.txt").write_text(gt.read_text())
        (pred_dir / "s1.txt").write_text(gt.read_text())
        (gt_dir / "s2.txt").write_text("")
        (pred_dir / "s2.txt").write_text("")
        assert run("evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir)) == EXIT_INPUT

    # paper order: id, frame, box, confidence, category, visibility
    THREE_BOXES = "1,1,0,0,10,10,1,1,1\n2,1,30,0,10,10,1,1,1\n1,2,2,0,10,10,1,1,1\n"

    @staticmethod
    def evaluate_argv(tmp_path, gt_text, pred_text, mode):
        """evaluate's --gt and --pred for one sequence, as two files or as two
        directories that also hold a clean sequence a.txt."""
        gt_dir, pred_dir = tmp_path / "gts", tmp_path / "preds"
        gt_dir.mkdir()
        pred_dir.mkdir()
        (gt_dir / "s.txt").write_text(gt_text)
        (pred_dir / "s.txt").write_text(pred_text)
        if mode == "file":
            return ["--gt", str(gt_dir / "s.txt"), "--pred", str(pred_dir / "s.txt")]
        (gt_dir / "a.txt").write_text(TestTrackEvaluate.THREE_BOXES)
        (pred_dir / "a.txt").write_text(TestTrackEvaluate.THREE_BOXES)
        return ["--gt", str(gt_dir), "--pred", str(pred_dir)]

    @pytest.mark.parametrize("mode", ["file", "dir"])
    def test_evaluate_empty_prediction_file(self, tmp_path, capsys, mode):
        argv = self.evaluate_argv(tmp_path, self.THREE_BOXES, "", mode)
        assert run("evaluate", *argv, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        missed = {"IDF1": 0.0, "IDs": 0, "IDP": 0.0, "IDR": 0.0, "MT": 0, "PT": 0, "ML": 2,
                  "Rcll": 0.0, "Prcn": 0.0, "MOTA": 0.0, "FP": 0, "FN": 3}
        assert payload[{"file": "s", "dir": "s.txt"}[mode]] == missed
        if mode == "dir":
            assert payload["a.txt"]["MOTA"] == 1.0
            assert (payload["OVERALL"]["FN"], payload["OVERALL"]["ML"]) == (3, 2)

    @pytest.mark.parametrize("mode", ["file", "dir"])
    @pytest.mark.parametrize("pred", ["", THREE_BOXES], ids=["empty", "three-boxes"])
    def test_evaluate_empty_gt_file(self, tmp_path, capsys, mode, pred):
        out = tmp_path / "report.txt"
        argv = self.evaluate_argv(tmp_path, "", pred, mode)
        assert run("evaluate", *argv, "--out", str(out)) == EXIT_INPUT
        assert capsys.readouterr().err == "error: no ground-truth boxes\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["file", "dir"])
    def test_evaluate_duplicate_prediction_pair(self, tmp_path, capsys, mode):
        pred = self.THREE_BOXES + "1,1,5,5,10,10,1,1,1\n"
        argv = self.evaluate_argv(tmp_path, self.THREE_BOXES, pred, mode)
        assert run("evaluate", *argv) == EXIT_INPUT
        assert "s.txt: line 4: duplicate (frame, id) pair (1, 1)" in capsys.readouterr().err

    def test_directory_report_equals_aggregate(self, scenario, tmp_path, capsys):
        gt, dets = scenario
        gt_dir, pred_dir = tmp_path / "gts", tmp_path / "preds"
        gt_dir.mkdir()
        pred_dir.mkdir()
        tracked = tmp_path / "tracked.txt"
        run("track", "--dets", str(dets), "--mode", "byte", "--out", str(tracked))
        recs = records(motio.read_annotation_file(tracked))
        (gt_dir / "a.txt").write_text(gt.read_text())
        (pred_dir / "a.txt").write_text(tracked.read_text())
        (gt_dir / "b.txt").write_text(gt.read_text())
        motio.write_annotation_file(pred_dir / "b.txt", table(r for r in recs if r.frame % 7))
        assert run("evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir), "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        gts = [records(motio.read_annotation_file(gt_dir / n)) for n in ("a.txt", "b.txt")]
        preds = [records(motio.read_annotation_file(pred_dir / n)) for n in ("a.txt", "b.txt")]
        assert payload["OVERALL"] == aggregate(list(zip(gts, preds))).as_dict()
        assert payload["b.txt"] == evaluate(gts[1], preds[1]).as_dict()

    def test_mixed_dir_and_file_rejected(self, scenario, tmp_path):
        gt, _ = scenario
        assert run("evaluate", "--gt", str(gt), "--pred", str(tmp_path)) == EXIT_INPUT

    def test_track_mode_flag(self, scenario, tmp_path):
        _, dets = scenario
        out = tmp_path / "byte.txt"
        assert run("track", "--dets", str(dets), "--mode", "byte",
                   "--out", str(out)) == 0
        assert out.exists()

    def test_bad_tracker_config_key(self, scenario, tmp_path):
        _, dets = scenario
        cfg = tmp_path / "trk.cfg"
        cfg.write_text("not_a_key=1\n")
        assert run("track", "--dets", str(dets), "--config", str(cfg),
                   "--out", str(tmp_path / "o.txt")) == EXIT_CONFIG

    @pytest.mark.parametrize("line", ["max_age=1.5", "mode=sort_reid", "iou_gate=nan",
                                      "embedding_gate=0.4", "n_init"])
    def test_bad_tracker_config_line(self, scenario, tmp_path, line):
        _, dets = scenario
        cfg = tmp_path / "trk.cfg"
        cfg.write_text(line + "\n")
        assert run("track", "--dets", str(dets), "--config", str(cfg),
                   "--out", str(tmp_path / "o.txt")) == EXIT_CONFIG

    def test_missing_tracker_config_file(self, scenario, tmp_path):
        _, dets = scenario
        assert run("track", "--dets", str(dets), "--config", str(tmp_path / "none.cfg"),
                   "--out", str(tmp_path / "o.txt")) == EXIT_CONFIG

    def test_nan_confidence_is_input_error(self, tmp_path, capsys):
        dets = tmp_path / "dets.txt"
        dets.write_text("1,1,0,0,10,10,0.9,1,1\n2,1,0,0,10,10,nan,1,1\n")
        assert run("track", "--dets", str(dets), "--out", str(tmp_path / "o.txt")) == EXIT_INPUT
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["track", "evaluate", "stats"])
    @pytest.mark.parametrize("box", ["1e308,0,1e308,10", "0,0,1e-200,1e-200",
                                     "0,0,5e-324,0.5", "0,0,1e-100,1e200"])
    def test_out_of_range_box_is_input_error(self, tmp_path, capsys, command, box):
        ann = tmp_path / "ann.txt"
        ann.write_text(f"1,1,0,0,10,10,1,1,1\n1,2,{box},1,1,1\n")
        argv = {"track": ["--dets", str(ann), "--out", str(tmp_path / "o.txt")],
                "evaluate": ["--gt", str(ann), "--pred", str(ann)],
                "stats": ["--ann", str(ann)]}[command]
        assert run(command, *argv) == EXIT_INPUT
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["track", "evaluate", "stats", "resample"])
    @pytest.mark.parametrize("tail", ["1,1.5,2.5", "1,1e300,1", "1,1,-3"])
    def test_bad_category_or_visibility_is_input_error(self, tmp_path, capsys, command, tail):
        ann = tmp_path / "ann.txt"
        ann.write_text(f"1,1,0,0,10,10,1,1,1\n1,2,0,0,10,10,{tail}\n")
        argv = {"track": ["--dets", str(ann), "--out", str(tmp_path / "o.txt")],
                "evaluate": ["--gt", str(ann), "--pred", str(ann)],
                "stats": ["--ann", str(ann)],
                "resample": ["--ann", str(ann), "--factor", "1",
                             "--out", str(tmp_path / "o.txt")]}[command]
        assert run(command, *argv) == EXIT_INPUT
        assert "line 2" in capsys.readouterr().err
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize("size", ["1e-10,10", "1e-300,1e-5"])
    def test_thin_box_keeps_its_id(self, tmp_path, size):
        dets, out = tmp_path / "dets.txt", tmp_path / "o.txt"
        dets.write_text("".join(f"1,{f},0,0,{size},1,1,1\n" for f in range(1, 5)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("track", "--dets", str(dets), "--out", str(out)) == 0
        recs = records(motio.read_annotation_file(out, FieldOrder.paper_order))
        assert [(r.frame, r.track_id) for r in recs] == [(f, 1) for f in range(1, 5)]

    def test_bad_tracker_config_value(self, scenario, tmp_path):
        _, dets = scenario
        cfg = tmp_path / "trk.cfg"
        cfg.write_text("high_score_thresh=0.2\nlow_score_thresh=0.5\n")
        assert run("track", "--dets", str(dets), "--config", str(cfg),
                   "--out", str(tmp_path / "o.txt")) == EXIT_CONFIG

    def test_missing_detections_file(self, tmp_path):
        assert run("track", "--dets", str(tmp_path / "none.txt"),
                   "--out", str(tmp_path / "o.txt")) == EXIT_INPUT

    def test_malformed_annotation_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1, 2, 3\n")
        assert run("track", "--dets", str(bad),
                   "--out", str(tmp_path / "o.txt")) == EXIT_INPUT

    @pytest.mark.parametrize("command", ["track", "evaluate", "stats"])
    @pytest.mark.parametrize("good_lines", [1, 2000])   # within the first read, and beyond
    def test_non_utf8_file_is_input_error(self, tmp_path, capsys, command, good_lines):
        ann = tmp_path / "ann.txt"
        ann.write_bytes(b"".join(b"1,%d,0,0,10,10,1,1,1\n" % i for i in range(1, good_lines + 1))
                        + b"1,9999,0,0,10,10,1,1,0.5\xe9\n")
        with open(ann, encoding="utf-8") as f, pytest.raises(UnicodeDecodeError) as decode:
            list(f)   # the message of reading its lines
        assert "can't decode byte 0xe9" in str(decode.value)
        argv = {"track": ["--dets", str(ann), "--out", str(tmp_path / "o.txt")],
                "evaluate": ["--gt", str(ann), "--pred", str(ann)],
                "stats": ["--ann", str(ann)]}[command]
        assert run(command, *argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {ann}: {decode.value}\n"
        assert not (tmp_path / "o.txt").exists()


@st.composite
def det_tables(draw):
    """A det file's table: heads at constant velocity with jitter, misses and
    clutter, two-decimal values, scores in every band, frames from a first
    frame above 1 too, gaps with no line, some longer than max_age, and the
    lines shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    heads, n_frames = draw(st.integers(0, 6)), draw(st.integers(0, 20))
    miss = draw(st.sampled_from([0.0, 0.3, 0.9]))
    pos, vel = rng.uniform(0, 120, (heads, 2)), rng.normal(0, 2, (heads, 2))
    size = rng.uniform(6, 20, heads)
    rows, frame = [], draw(st.sampled_from([1, 2, 9]))
    for _ in range(n_frames):
        pos = pos + vel
        boxes = [(*(p + rng.normal(0, 1, 2)), s, s) for p, s in zip(pos, size)
                 if rng.random() >= miss]
        boxes += [(*rng.uniform(0, 140, 2), *rng.uniform(5, 25, 2))
                  for _ in range(rng.poisson(1))]
        rows += [(frame, k, *box, rng.uniform(0, 1), 1, 1)
                 for k, box in enumerate(boxes, start=1)]
        frame += draw(st.sampled_from([1, 1, 1, 2, 4, 33]))
    dets = np.round(np.array(rows, dtype=np.float64).reshape(-1, 9), 2)
    return dets[rng.permutation(len(dets))]


@settings(max_examples=60, deadline=None)
@given(dets=det_tables(), order=st.sampled_from(list(FieldOrder)),
       mode=st.sampled_from(["sort", "byte"]), max_age=st.sampled_from([1, 3, 30]))
def test_track_equals_run_tracker(dets, order, mode, max_age):
    """`track` writes the bytes of `run_tracker` on the det file's records,
    grouped by frame in file order."""
    with tempfile.TemporaryDirectory() as d:
        det_file, cfg_file, out, want = (pathlib.Path(d) / n for n in
                                         ("d.txt", "t.cfg", "o.txt", "w.txt"))
        motio.write_annotation_file(det_file, dets, order)
        cfg_file.write_text(f"max_age={max_age}\n")
        assert run("track", "--dets", str(det_file), "--config", str(cfg_file),
                   "--mode", mode, "--order", order.value, "--out", str(out)) == 0
        frames = {}
        for r in records(motio.read_annotation_file(det_file, order)):
            frames.setdefault(r.frame, []).append(r)
        cfg = TrackerConfig(mode=mode, max_age=max_age)
        motio.write_annotation_file(want, table(run_tracker(frames, cfg)), order)
        assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("mode", ["sort", "byte"])
def test_track_on_empty_det_file(tmp_path, mode):
    (tmp_path / "d.txt").write_text("")
    assert run("track", "--dets", str(tmp_path / "d.txt"), "--mode", mode,
               "--out", str(tmp_path / "o.txt")) == 0
    assert (tmp_path / "o.txt").read_bytes() == b""

class TestResample:
    def test_factor_two(self, scenario, tmp_path):
        gt, _ = scenario
        out = tmp_path / "half.txt"
        assert run("resample", "--ann", str(gt), "--factor", "2",
                   "--out", str(out)) == 0
        recs = records(motio.read_annotation_file(out, FieldOrder.paper_order))
        assert max(r.frame for r in recs) == 100
        assert len(recs) == 20 * 100

    def test_factor_beyond_float_range_keeps_frame_one(self, scenario, tmp_path):
        gt, _ = scenario
        out = tmp_path / "first.txt"
        assert run("resample", "--ann", str(gt), "--factor", str(10 ** 400),
                   "--out", str(out)) == 0
        frames = motio.read_annotation_file(out, FieldOrder.paper_order)[:, 0]
        assert frames.tolist() == [1.0] * 20

    @pytest.mark.parametrize("command", ["resample", "track"])
    def test_tiny_width_output_reads_back(self, tmp_path, command):
        ann, out = tmp_path / "ann.txt", tmp_path / "o.txt"
        ann.write_text("".join(f"1,{f},0,0,0.004,10,1,1,1\n" for f in (1, 2, 3)))
        argv = {"resample": ["--ann", str(ann), "--factor", "1"],
                "track": ["--dets", str(ann)]}[command]
        assert run(command, *argv, "--out", str(out)) == 0
        assert run("stats", "--ann", str(out)) == 0

    def test_bad_factor(self, scenario, tmp_path):
        gt, _ = scenario
        assert run("resample", "--ann", str(gt), "--factor", "0",
                   "--out", str(tmp_path / "o.txt")) == EXIT_CONFIG
        # the factor is checked before the input is read
        assert run("resample", "--ann", str(tmp_path / "missing.txt"), "--factor", "0",
                   "--out", str(tmp_path / "o.txt")) == EXIT_CONFIG


class TestGenMotion:
    def test_bin_frames(self, tmp_path):
        frames = tmp_path / "frames"
        frames.mkdir()
        rng = np.random.default_rng(0)
        base = rng.random((24, 24))
        maps.save_map(frames / "f_0001.bin", base)
        maps.save_map(frames / "f_0002.bin", np.roll(base, 1, axis=1))
        (frames / "f_0003.png").write_bytes(b"only .bin files are frames")
        out = tmp_path / "motion"
        assert run("gen-motion", "--frames-dir", str(frames),
                   "--out-dir", str(out)) == 0
        assert sorted(p.name for p in out.glob("diff_*.bin")) == ["diff_0001.bin", "diff_0002.bin"]
        first_diff = maps.load_map(out / "diff_0001.bin")
        assert np.all(first_diff == 0)
        second = maps.load_map(out / "diff_0002.bin")
        assert second.max() > 0
        flow_side = json.loads((out / "flow_0002.bin.json").read_text())
        assert flow_side["channels"] == 2

    def test_output_bytes_pinned(self, tmp_path):
        # the exact bytes of every map file and sidecar, for three rgb frames:
        # the second moved one column, the third one row and three columns
        frames = tmp_path / "frames"
        frames.mkdir()
        base = np.random.default_rng(11).random((20, 24, 3))
        for i, shift in enumerate([(0, 0), (0, 1), (1, 3)], start=1):
            maps.save_map(frames / f"f_{i:04d}.bin", np.roll(base, shift, axis=(0, 1)))
        out = tmp_path / "motion"
        assert run("gen-motion", "--frames-dir", str(frames), "--out-dir", str(out)) == 0
        diff_side, flow_side = ("5b03039a7b38c6209ebbe921729f5770267c1bd9534b371c3da2e50c90ec1c40",
                                "a6a4dec476942e35cf194a590bdc0b59e7e66c6ad11e56e99e46b4494c1227c5")
        want = {
            "diff_0001.bin": "155e437b946ac82ae591ff382b8d19efda9397b2282672dbabd91ec31ce8a651",
            "diff_0002.bin": "a423ae5cb3ad564ecbd2f299d6fe2602c6a36fa621b211f23b28c7ca5fc8dc41",
            "diff_0003.bin": "6e26ff9144f664d9bc61898d4f85e91b4f651eaa30cddf9444f197005b01e3fd",
            "flow_0001.bin": "a8eac8b0d3b1fde368813438dd5ba415a796fd6dd0a2a42fb6a5a2dfb2429576",
            "flow_0002.bin": "d6b0e1c0600c6ce79962956f1c40392cc2404057dbbe5b10f5b7646620917e3c",
            "flow_0003.bin": "cb2c6e98969bc0aacfa9ac93e1ab22d25a2a2e94eaf5b4f0bc5a70551f241717",
        }
        for i in range(1, 4):
            want[f"diff_{i:04d}.bin.json"], want[f"flow_{i:04d}.bin.json"] = diff_side, flow_side
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir() if p.name.startswith(("diff_", "flow_"))}
        assert got == want

    def test_frame_of_partial_floats(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        frames.mkdir()
        maps.save_map(frames / "f_0001.bin", np.zeros((4, 4)))
        (frames / "f_0001.bin").write_bytes(bytes(63))
        assert run("gen-motion", "--frames-dir", str(frames),
                   "--out-dir", str(tmp_path / "o")) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            f"error: {frames / 'f_0001.bin'}: map payload has 63 bytes, expected 64")
        assert not (tmp_path / "o").exists()

    def test_wrong_channel_count_names_the_file(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        frames.mkdir()
        maps.save_map(frames / "a.bin", np.zeros((8, 8, 2)))
        assert run("gen-motion", "--frames-dir", str(frames),
                   "--out-dir", str(tmp_path / "o")) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            f"error: {frames / 'a.bin'}: image must be (H, W, 1|3), got shape (8, 8, 2)")
        assert not (tmp_path / "o").exists()

    def test_mismatched_sizes_write_nothing(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        frames.mkdir()
        maps.save_map(frames / "f_0001.bin", np.zeros((20, 24)))
        maps.save_map(frames / "f_0002.bin", np.zeros((20, 26)))
        out = tmp_path / "motion"
        before = sorted(tmp_path.rglob("*"))
        assert run("gen-motion", "--frames-dir", str(frames),
                   "--out-dir", str(out)) == EXIT_INPUT
        assert "differ in (height, width): [(20, 24), (20, 26)]" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_frames_smaller_than_a_block_write_nothing(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        frames.mkdir()
        for i in range(1, 4):
            maps.save_map(frames / f"f_{i:04d}.bin", np.full((4, 4), i / 4))
        out = tmp_path / "motion"
        assert run("gen-motion", "--frames-dir", str(frames),
                   "--out-dir", str(out)) == EXIT_INPUT
        assert "are 4x4, smaller than one 5x5 flow block" in capsys.readouterr().err
        assert not out.exists()
        # one small frame has no predecessor, so it needs no flow
        for p in frames.glob("f_000[23].bin*"):
            p.unlink()
        assert run("gen-motion", "--frames-dir", str(frames), "--out-dir", str(out)) == 0
        assert np.all(maps.load_map(out / "flow_0001.bin") == 0)

    def test_empty_dir(self, tmp_path):
        frames = tmp_path / "frames"
        frames.mkdir()
        assert run("gen-motion", "--frames-dir", str(frames),
                   "--out-dir", str(tmp_path / "o")) == EXIT_INPUT

    @pytest.mark.parametrize("out_exists", [False, True])
    def test_overflow_in_the_last_map_writes_nothing(self, tmp_path, capsys, out_exists):
        # the fourth difference map, |3e38 - -3e38|, is not finite as float32;
        # the maps of frames 1-3 were once left behind
        frames, out = tmp_path / "frames", tmp_path / "motion"
        frames.mkdir()
        if out_exists:
            out.mkdir()
        for i, v in enumerate([0.0, 0.0, -3e38, 3e38], start=1):
            maps.save_map(frames / f"f_{i:04d}.bin", np.full((8, 8), v))
        before = sorted(tmp_path.rglob("*"))
        assert run("gen-motion", "--frames-dir", str(frames), "--out-dir", str(out)) == EXIT_INPUT
        assert "diff_0004.bin: map has values that are not finite" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before


def write_stack(d, h=6, w=6):
    """The five map files of a fuse-demo stack directory."""
    rng = np.random.default_rng(1)
    d.mkdir(parents=True, exist_ok=True)
    maps.save_map(d / "rgb.bin", rng.random((h, w, 3)))
    maps.save_map(d / "diff.bin", rng.random((h, w)))
    maps.save_map(d / "flow.bin", rng.standard_normal((h, w, 2)))
    maps.save_map(d / "depth.bin", rng.random((h, w)))
    maps.save_map(d / "density.bin", rng.random((h, w)))


class TestFuseDemo:
    def test_runs_and_writes_fused_map(self, tmp_path):
        stack = tmp_path / "stack"
        write_stack(stack)
        out = tmp_path / "fused.bin"
        assert run("fuse-demo", "--stack-dir", str(stack), "--seed", "3",
                   "--out", str(out)) == 0
        side = json.loads((tmp_path / "fused.bin.json").read_text())
        assert (side["height"], side["width"], side["channels"]) == (6, 6, 8)
        raw = np.frombuffer(out.read_bytes(), dtype="<f4")
        assert raw.size == 6 * 6 * 8 and np.all(np.isfinite(raw))
        # --seed 3 selects seed 3's weights: the same bytes as the library call
        s = maps.source_stack({name: maps.load_map(stack / f"{name}.bin")
                               for name in maps.SOURCE_SLICES})
        want = tmp_path / "want.bin"
        maps.save_map(want, forward(s, FusionParams(FusionConfig(seed=3))).data.transpose(1, 2, 0))
        assert want.read_bytes() == out.read_bytes()

    def test_output_bytes_pinned(self, tmp_path):
        # the exact bytes of the fused map and its sidecar
        stack, out = tmp_path / "stack", tmp_path / "fused.bin"
        write_stack(stack)
        assert run("fuse-demo", "--stack-dir", str(stack), "--seed", "3", "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "424b498bfa3287c386f15db5abe3e31562dcc177ae0244db38860f9c4fbb8b5c"
        assert hashlib.sha256((tmp_path / "fused.bin.json").read_bytes()).hexdigest() == \
            "1018e107a50cb77f475ae69613937a2df8c609103a8412d9e5cfebb4c0fcda26"

    def test_coefficient_overrides_change_output(self, tmp_path):
        stack = tmp_path / "stack"
        write_stack(stack)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        run("fuse-demo", "--stack-dir", str(stack), "--out", str(a))
        run("fuse-demo", "--stack-dir", str(stack), "--alpha2", "0.0",
            "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("member,data", [
        ("diff", np.zeros((5, 6))),        # size differs from rgb
        ("flow", np.zeros((6, 5, 2))),     # size differs from rgb
        ("flow", np.zeros((6, 6, 1))),     # not a (u, v) map
        ("rgb", np.zeros((6, 6))),         # one channel
        ("depth", np.zeros((6, 7))),       # size differs from rgb
        ("density", np.zeros((4, 6))),     # size differs from rgb
    ])
    def test_bad_stack_member(self, tmp_path, capsys, member, data):
        stack = tmp_path / "stack"
        write_stack(stack)
        maps.save_map(stack / f"{member}.bin", data)
        assert run("fuse-demo", "--stack-dir", str(stack),
                   "--out", str(tmp_path / "o.bin")) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {member} map ")

    @pytest.mark.parametrize("sidecar", ['{"width": 6, "channels": 3}', "not json"])
    def test_bad_sidecar(self, tmp_path, sidecar):
        stack = tmp_path / "stack"
        write_stack(stack)
        (stack / "rgb.bin.json").write_text(sidecar)
        assert run("fuse-demo", "--stack-dir", str(stack),
                   "--out", str(tmp_path / "o.bin")) == EXIT_INPUT

    def test_stack_member_of_partial_floats(self, tmp_path, capsys):
        stack = tmp_path / "stack"
        write_stack(stack)
        (stack / "depth.bin").write_bytes(bytes(3))
        assert run("fuse-demo", "--stack-dir", str(stack),
                   "--out", str(tmp_path / "o.bin")) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {stack / 'depth.bin'}: map payload ")

    def test_missing_stack_member(self, tmp_path):
        stack = tmp_path / "stack"
        write_stack(stack)
        (stack / "depth.bin").unlink()
        assert run("fuse-demo", "--stack-dir", str(stack),
                   "--out", str(tmp_path / "o.bin")) == EXIT_INPUT

    @pytest.mark.parametrize("flags,code", [
        (("--alpha1", "nan"), EXIT_CONFIG),
        (("--alpha1", "inf"), EXIT_CONFIG),
        (("--beta2=-inf",), EXIT_CONFIG),
        (("--seed", "-1"), EXIT_CONFIG),
        (("--alpha1", "1e300"), EXIT_INPUT),   # overflows inside the fusion
        (("--alpha2", "1e200"), EXIT_INPUT),   # overflows only the float32 output map
    ])
    def test_bad_flag_exit_code(self, tmp_path, flags, code):
        stack, out = tmp_path / "stack", tmp_path / "o.bin"
        write_stack(stack)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("fuse-demo", "--stack-dir", str(stack), *flags, "--out", str(out)) == code
        assert not out.exists()


@pytest.mark.parametrize("command", ["gen-scenario", "gen-scenario-dets", "track", "evaluate",
                                     "resample", "fuse-demo", "gen-motion"])
def test_unwritable_output_is_input_error(tmp_path, capsys, command):
    ann, stack, frames = tmp_path / "a.txt", tmp_path / "stack", tmp_path / "frames"
    ann.write_text("1,1,0,0,10,10,0.9,1,1\n1,2,1,0,10,10,0.9,1,1\n")
    write_stack(stack)
    frames.mkdir()
    maps.save_map(frames / "f_0001.bin", np.zeros((4, 4)))
    if command == "gen-motion":    # its output is a directory: one under a file, then a file
        outs = [str(ann / "sub"), str(ann)]
    else:                          # in a missing directory, then an existing directory
        outs = [str(tmp_path / "nodir" / "out.txt"), str(frames)]
    for bad in outs:
        args = {
            "gen-scenario": ["--out-gt", bad],
            "gen-scenario-dets": ["--out-gt", str(tmp_path / "gt.txt"), "--out-dets", bad],
            "track": ["--dets", str(ann), "--out", bad],
            "evaluate": ["--gt", str(ann), "--pred", str(ann), "--out", bad],
            "resample": ["--ann", str(ann), "--factor", "2", "--out", bad],
            "fuse-demo": ["--stack-dir", str(stack), "--out", bad],
            "gen-motion": ["--frames-dir", str(frames), "--out-dir", bad],
        }[command]
        before = sorted(tmp_path.rglob("*"))
        assert run(command.removesuffix("-dets"), *args) == EXIT_INPUT, bad
        out, err = capsys.readouterr()
        assert err.startswith("error:") and out == ""
        assert sorted(tmp_path.rglob("*")) == before    # nothing written, not even in part


def test_output_path_given_twice_is_input_error(tmp_path, capsys):
    # rejected before any compute: the noise file would be a config error
    (tmp_path / "n.cfg").write_text("fp_rate=inf\n")
    x = tmp_path / "x.txt"
    for dets in (str(x), f"{tmp_path}/./x.txt"):
        before = sorted(tmp_path.rglob("*"))
        assert run("gen-scenario", "--noise", str(tmp_path / "n.cfg"), "--out-gt", str(x),
                   "--out-dets", dets) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: output path given twice: ")
        assert sorted(tmp_path.rglob("*")) == before
    # an output path may be an input of the same command
    x.write_text("1,1,0,0,10,10,0.9,1,1\n1,2,1,0,10,10,0.9,1,1\n")
    assert run("track", "--dets", str(x), "--out", str(x)) == 0
    assert len(motio.read_annotation_file(x)) == 2


def test_output_named_as_a_sidecar_is_input_error(tmp_path, capsys):
    # gen-scenario writes <out-gt>.meta; a det file of that name once replaced it
    x = tmp_path / "x.txt"
    before = sorted(tmp_path.rglob("*"))
    assert run("gen-scenario", "--seed", "1", "--out-gt", str(x),
               "--out-dets", f"{x}.meta") == EXIT_INPUT
    assert capsys.readouterr().err == f"error: output path given twice: {x}.meta\n"
    assert sorted(tmp_path.rglob("*")) == before

# one small run of each command that writes files, all of whose outputs go to `out`
WRITING = {
    "gen-scenario": lambda d, out: ["--config", str(d / "scen.cfg"), "--seed", "2",
                                    "--out-gt", str(out / "gt.txt"),
                                    "--out-dets", str(out / "dets.txt")],
    "track": lambda d, out: ["--dets", str(d / "a.txt"), "--out", str(out / "t.txt")],
    "evaluate": lambda d, out: ["--gt", str(d / "a.txt"), "--pred", str(d / "a.txt"),
                                "--out", str(out / "r.txt")],
    "resample": lambda d, out: ["--ann", str(d / "a.txt"), "--factor", "2",
                                "--out", str(out / "r.txt")],
    "fuse-demo": lambda d, out: ["--stack-dir", str(d / "stack"), "--out", str(out / "f.bin")],
    "gen-motion": lambda d, out: ["--frames-dir", str(d / "frames"), "--out-dir", str(out)],
}
# the number of files each run writes
WRITTEN = {"gen-scenario": 5, "track": 2, "evaluate": 3, "resample": 2, "fuse-demo": 3,
           "gen-motion": 9}


def writing_inputs(d):
    (d / "scen.cfg").write_text("agent_count=3\nduration=4\n")
    (d / "a.txt").write_text("".join(f"{i},{f},{9 * i},{f},10,10,0.9,1,1\n"
                                     for f in (1, 2, 3) for i in (1, 2)))
    write_stack(d / "stack")
    (d / "frames").mkdir()
    for i in (1, 2):
        maps.save_map(d / "frames" / f"f_{i}.bin", np.full((8, 8), i / 4))


def tree(root) -> dict:
    """Every path under root, with the bytes of each file."""
    return {p: None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


def written_names(tmp_path, command) -> list[str]:
    """The names a clean run of command writes, in a directory of its own."""
    writing_inputs(tmp_path)
    (tmp_path / "clean").mkdir()
    assert run(command, *WRITING[command](tmp_path, tmp_path / "clean")) == 0
    return sorted(p.name for p in (tmp_path / "clean").iterdir())


@pytest.mark.parametrize("command", WRITING)
def test_blocked_output_writes_nothing(tmp_path, capsys, command):
    """Each output, sidecar and manifest path in turn is a directory: the
    command fails with nothing written and no staging directory left. (A
    track file was once left behind when its manifest path was a directory.)"""
    names = written_names(tmp_path, command)
    capsys.readouterr()
    assert len(names) == WRITTEN[command]
    (tmp_path / "out").mkdir()
    for name in names:
        (tmp_path / "out" / name).mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert run(command, *WRITING[command](tmp_path, tmp_path / "out")) == EXIT_INPUT, name
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: output is a directory: "), name
        assert sorted(tmp_path.rglob("*")) == before
        (tmp_path / "out" / name).rmdir()


class WriteFault:
    """Every file a command writes goes through one of WRITERS; the
    fail_at-th call raises OSError."""

    WRITERS = [(pathlib.Path, "write_text"), (pathlib.Path, "write_bytes"),
               (motio, "write_annotation_file"), (motio, "write_sequence_meta")]

    def __init__(self, monkeypatch):
        self.calls, self.fail_at = 0, 0
        for owner, name in self.WRITERS:
            monkeypatch.setattr(owner, name, self._wrap(getattr(owner, name)))

    def _wrap(self, write):
        def failing(*args, **kwargs):
            self.calls += 1
            if self.calls == self.fail_at:
                raise OSError("disk full")
            return write(*args, **kwargs)
        return failing


@pytest.mark.parametrize("command", WRITING)
def test_each_failed_write_writes_nothing(tmp_path, capsys, monkeypatch, command):
    """The k-th write fails, for each k: exit 2, empty stdout and every file
    as it was, over the outputs of an earlier run, into an empty directory
    and, for gen-motion, into a missing one. A clean run then makes one write
    per file."""
    names = written_names(tmp_path, command)
    capsys.readouterr()
    (tmp_path / "empty").mkdir()
    fault = WriteFault(monkeypatch)
    out_dirs = [tmp_path / "clean", tmp_path / "empty"]
    if command == "gen-motion":   # the one command that makes its directory
        out_dirs.append(tmp_path / "new")
    for out_dir in out_dirs:
        for k in range(1, len(names) + 1):
            fault.calls, fault.fail_at = 0, k
            before = tree(tmp_path)
            code = run(command, *WRITING[command](tmp_path, out_dir))
            assert (code, *capsys.readouterr()) == (EXIT_INPUT, "", "error: disk full\n"), k
            assert tree(tmp_path) == before
        fault.calls, fault.fail_at = 0, 0
        assert run(command, *WRITING[command](tmp_path, out_dir)) == 0
        assert fault.calls == len(names)
        capsys.readouterr()


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            run("--version")
        assert e.value.code == 0

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as e:
            run("frobnicate")
        assert e.value.code == 2
