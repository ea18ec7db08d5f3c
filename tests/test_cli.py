import json

import numpy as np
import pytest

from headtrack import maps, motio
from headtrack.cli import EXIT_CONFIG, EXIT_INPUT, main
from headtrack.fusion import FusionConfig, FusionParams, save_params
from headtrack.metrics import aggregate, evaluate
from headtrack.motio import FieldOrder


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
        meta = motio.read_sequence_meta(str(gt) + ".meta")
        assert meta.frame_count == 200
        recs = motio.read_annotation_file(gt, FieldOrder.paper_order)
        assert len(recs) == 20 * 200

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
    ])
    def test_bad_config_values_exit_config(self, tmp_path, flag, line):
        cfg = tmp_path / "x.cfg"
        cfg.write_text(line + "\n")
        assert run("gen-scenario", flag, str(cfg), "--out-gt", str(tmp_path / "x.txt"),
                   "--out-dets", str(tmp_path / "d.txt")) == EXIT_CONFIG

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

    def test_directory_report_equals_aggregate(self, scenario, tmp_path, capsys):
        gt, dets = scenario
        gt_dir, pred_dir = tmp_path / "gts", tmp_path / "preds"
        gt_dir.mkdir()
        pred_dir.mkdir()
        tracked = tmp_path / "tracked.txt"
        run("track", "--dets", str(dets), "--mode", "byte", "--out", str(tracked))
        recs = motio.read_annotation_file(tracked)
        (gt_dir / "a.txt").write_text(gt.read_text())
        (pred_dir / "a.txt").write_text(tracked.read_text())
        (gt_dir / "b.txt").write_text(gt.read_text())
        motio.write_annotation_file(pred_dir / "b.txt", [r for r in recs if r.frame % 7])
        assert run("evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir), "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        gts = [motio.read_annotation_file(gt_dir / n) for n in ("a.txt", "b.txt")]
        preds = [motio.read_annotation_file(pred_dir / n) for n in ("a.txt", "b.txt")]
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


class TestResample:
    def test_factor_two(self, scenario, tmp_path):
        gt, _ = scenario
        out = tmp_path / "half.txt"
        assert run("resample", "--ann", str(gt), "--factor", "2",
                   "--out", str(out)) == 0
        recs = motio.read_annotation_file(out, FieldOrder.paper_order)
        assert max(r.frame for r in recs) == 100
        assert len(recs) == 20 * 100

    def test_bad_factor(self, scenario, tmp_path):
        gt, _ = scenario
        assert run("resample", "--ann", str(gt), "--factor", "0",
                   "--out", str(tmp_path / "o.txt")) == EXIT_CONFIG


class TestGenMotion:
    def test_bin_frames(self, tmp_path):
        frames = tmp_path / "frames"
        frames.mkdir()
        rng = np.random.default_rng(0)
        base = rng.random((24, 24))
        maps.save_map(frames / "f_0001.bin", base)
        maps.save_map(frames / "f_0002.bin", np.roll(base, 1, axis=1))
        out = tmp_path / "motion"
        assert run("gen-motion", "--frames-dir", str(frames),
                   "--out-dir", str(out)) == 0
        first_diff = maps.load_map(out / "diff_0001.bin")
        assert np.all(first_diff == 0)
        second = maps.load_map(out / "diff_0002.bin")
        assert second.max() > 0
        flow_side = json.loads((out / "flow_0002.bin.json").read_text())
        assert flow_side["channels"] == 2

    def test_empty_dir(self, tmp_path):
        frames = tmp_path / "frames"
        frames.mkdir()
        assert run("gen-motion", "--frames-dir", str(frames),
                   "--out-dir", str(tmp_path / "o")) == EXIT_INPUT


class TestFuseDemo:
    def _write_stack(self, d, h=6, w=6):
        rng = np.random.default_rng(1)
        d.mkdir(parents=True, exist_ok=True)
        maps.save_map(d / "rgb.bin", rng.random((h, w, 3)))
        maps.save_map(d / "diff.bin", rng.random((h, w)))
        maps.save_map(d / "flow.bin", rng.standard_normal((h, w, 2)))
        maps.save_map(d / "depth.bin", rng.random((h, w)))
        maps.save_map(d / "density.bin", rng.random((h, w)))

    def test_runs_and_writes_fused_map(self, tmp_path):
        stack = tmp_path / "stack"
        self._write_stack(stack)
        out = tmp_path / "fused.bin"
        assert run("fuse-demo", "--stack-dir", str(stack), "--seed", "3",
                   "--out", str(out)) == 0
        side = json.loads((tmp_path / "fused.bin.json").read_text())
        assert (side["height"], side["width"], side["channels"]) == (6, 6, 8)
        raw = np.frombuffer(out.read_bytes(), dtype="<f4")
        assert raw.size == 6 * 6 * 8 and np.all(np.isfinite(raw))

    def test_coefficient_overrides_change_output(self, tmp_path):
        stack = tmp_path / "stack"
        self._write_stack(stack)
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
    ])
    def test_bad_stack_member(self, tmp_path, member, data):
        stack = tmp_path / "stack"
        self._write_stack(stack)
        maps.save_map(stack / f"{member}.bin", data)
        assert run("fuse-demo", "--stack-dir", str(stack),
                   "--out", str(tmp_path / "o.bin")) == EXIT_INPUT

    @pytest.mark.parametrize("sidecar", ['{"width": 6, "channels": 3}', "not json"])
    def test_bad_sidecar(self, tmp_path, sidecar):
        stack = tmp_path / "stack"
        self._write_stack(stack)
        (stack / "rgb.bin.json").write_text(sidecar)
        assert run("fuse-demo", "--stack-dir", str(stack),
                   "--out", str(tmp_path / "o.bin")) == EXIT_INPUT

    def test_params_round_trip(self, tmp_path):
        stack = tmp_path / "stack"
        self._write_stack(stack)
        save_params(tmp_path / "params", FusionParams(FusionConfig(seed=5)))
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert run("fuse-demo", "--stack-dir", str(stack), "--params", str(tmp_path / "params"),
                   "--out", str(a)) == 0
        assert run("fuse-demo", "--stack-dir", str(stack), "--seed", "5", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("manifest", [
        None,                                  # directory does not exist
        "",                                    # directory without manifest.json
        "not json",
        '{"parameters": []}',                  # no "config"
        '{"config": {}}',                      # no "parameters"
        '{"config": {"chanels": 4}, "parameters": []}',
        "[]",
    ])
    def test_bad_params(self, tmp_path, manifest):
        stack = tmp_path / "stack"
        self._write_stack(stack)
        params = tmp_path / "params"
        if manifest is not None:
            params.mkdir()
            if manifest:
                (params / "manifest.json").write_text(manifest)
        assert run("fuse-demo", "--stack-dir", str(stack), "--params", str(params),
                   "--out", str(tmp_path / "o.bin")) == EXIT_INPUT

    @staticmethod
    def _set_channels(m, d):
        m["config"]["channels"] = 2      # stored shapes are for 4 channels

    @staticmethod
    def _permute_shape(m, d):
        m["parameters"][0]["shape"] = m["parameters"][0]["shape"][::-1]   # same size

    @staticmethod
    def _truncate_blob(m, d):
        blob = d / m["parameters"][0]["file"]
        blob.write_bytes(blob.read_bytes()[:-8])

    @staticmethod
    def _extend_blob(m, d):
        blob = d / m["parameters"][-1]["file"]
        blob.write_bytes(blob.read_bytes() + bytes(8))

    @staticmethod
    def _drop_entry(m, d):
        del m["parameters"][0]

    @staticmethod
    def _duplicate_entry(m, d):
        m["parameters"][0] = dict(m["parameters"][1])

    @staticmethod
    def _rename_entry(m, d):
        m["parameters"][0]["name"] = "extractor.rgb.9.weight"

    @pytest.mark.parametrize("edit", ["_set_channels", "_permute_shape", "_truncate_blob",
                                      "_extend_blob", "_drop_entry", "_duplicate_entry",
                                      "_rename_entry"])
    def test_params_disagreeing_with_manifest(self, tmp_path, edit):
        stack, params = tmp_path / "stack", tmp_path / "params"
        self._write_stack(stack)
        save_params(params, FusionParams())
        manifest = json.loads((params / "manifest.json").read_text())
        getattr(self, edit)(manifest, params)
        (params / "manifest.json").write_text(json.dumps(manifest))
        assert run("fuse-demo", "--stack-dir", str(stack), "--params", str(params),
                   "--out", str(tmp_path / "o.bin")) == EXIT_INPUT

    def test_missing_stack_member(self, tmp_path):
        stack = tmp_path / "stack"
        self._write_stack(stack)
        (stack / "depth.bin").unlink()
        assert run("fuse-demo", "--stack-dir", str(stack),
                   "--out", str(tmp_path / "o.bin")) == EXIT_INPUT


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            run("--version")
        assert e.value.code == 0

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as e:
            run("frobnicate")
        assert e.value.code == 2
