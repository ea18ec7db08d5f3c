"""Property tests: the CLI exit-code contract under fuzzed config files and map
sidecars, and tracker invariance under a shift of every frame number."""
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from headtrack import maps
from headtrack.cli import main
from headtrack.geometry import BBox
from headtrack.simulate import NoiseModel, ScenarioConfig
from headtrack.tracker import Detection, Mode, TrackerConfig, run_tracker

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


@FUZZ
@given(member=st.sampled_from(["rgb", "diff", "flow", "depth", "density"]), sidecar=SIDECARS)
def test_fuse_demo_sidecar_exit_code(member, sidecar):
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        for name, channels in (("rgb", 3), ("diff", 1), ("flow", 2), ("depth", 1),
                               ("density", 1)):
            maps.save_map(d / f"{name}.bin", rng.random((6, 6, channels)))
        (d / f"{member}.bin.json").write_text(sidecar)
        assert main(["fuse-demo", "--stack-dir", str(d),
                     "--out", str(d / "out.bin")]) in (0, 2)


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
        assert main(["gen-motion", "--frames-dir", str(frames),
                     "--out-dir", str(Path(d) / "out")]) in (0, 2)


DETECTION = st.builds(lambda x, y, w, h, s: Detection(BBox(x, y, w, h), s),
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
