import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import uniform_filter, uniform_filter1d

from headtrack import maps
from headtrack.geometry import BBox
from headtrack.maps import (
    BLOCK_SIZE,
    SEARCH_RADIUS,
    SOURCE_SLICES,
    ImageFrame,
    MapError,
    build_stack,
    density_from_boxes,
    density_provider,
    frame_difference,
    load_map,
    optical_flow,
    save_map,
    source_stack,
    synth_depth,
    synth_depth_provider,
)


def gray(arr):
    return ImageFrame(np.asarray(arr, dtype=np.float64))


class TestFrameDifference:
    def test_identical_frames(self):
        a = gray(np.random.default_rng(0).random((8, 8)))
        assert np.all(frame_difference(a, a) == 0)

    def test_full_swing(self):
        z = gray(np.zeros((6, 6)))
        o = gray(np.ones((6, 6)))
        assert np.all(frame_difference(o, z) == 1)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = gray(rng.random((8, 8))), gray(rng.random((8, 8)))
        assert np.array_equal(frame_difference(a, b), frame_difference(b, a))

    def test_shifted_patch_support(self):
        # bright 3x3 patch at (2,2) vs (2,3): nonzero exactly on the
        # symmetric difference of the two supports
        prev = np.zeros((8, 8))
        prev[2:5, 2:5] = 1.0
        curr = np.zeros((8, 8))
        curr[2:5, 3:6] = 1.0
        d = frame_difference(gray(curr), gray(prev))
        expected = np.abs(curr - prev)
        assert np.array_equal(d, expected)
        assert np.all(d[2:5, 2] == 1) and np.all(d[2:5, 5] == 1)
        assert np.all(d[2:5, 3:5] == 0)

    def test_dimension_mismatch(self):
        with pytest.raises(MapError):
            frame_difference(gray(np.zeros((4, 4))), gray(np.zeros((5, 5))))


class TestOpticalFlow:
    def test_static_pair_zero(self):
        img = gray(np.random.default_rng(2).random((32, 32)))
        f = optical_flow(img, img)
        assert f.shape == (32, 32, 2) and np.abs(f).max() == 0.0

    def test_translation_recovered(self):
        rng = np.random.default_rng(3)
        base = rng.random((48, 48))
        prev = gray(base)
        curr = gray(np.roll(base, 2, axis=1))
        f = optical_flow(curr, prev)
        interior = (slice(6, -6), slice(6, -6))
        hit = np.mean((f[interior + (0,)] == 2) & (f[interior + (1,)] == 0))
        assert hit >= 0.9

    def test_brightness_change_below_motion_noise(self):
        rng = np.random.default_rng(4)
        base = rng.random((32, 32))
        static = optical_flow(gray(base), gray(base))
        brighter = optical_flow(gray(np.clip(base + 0.05, 0, 1)), gray(base))
        noise_floor = 2 * np.abs(static).mean()
        assert 2 * np.abs(brighter).mean() <= noise_floor + 0.1

    def test_too_small_frame(self):
        with pytest.raises(MapError):
            optical_flow(gray(np.zeros((3, 3))), gray(np.zeros((3, 3))))


# The per-estimate block matcher that the single ordered pass replaced, kept
# unchanged as the oracle: every distinct initial estimate searches its own
# window and the zero window, with a SAD map cache shared between estimates.
def _shift(img: np.ndarray, du: int, dv: int) -> np.ndarray:
    """Shift forward by (du, dv) with edge replication: out[y, x] = img[y-dv, x-du]."""
    h, w = img.shape
    ys = np.clip(np.arange(h) - dv, 0, h - 1)
    xs = np.clip(np.arange(w) - du, 0, w - 1)
    return img[np.ix_(ys, xs)]


def _sad_map(curr: np.ndarray, prev: np.ndarray, du: int, dv: int, block: int) -> np.ndarray:
    diff = np.abs(curr - _shift(prev, du, dv))
    return uniform_filter(diff, size=block, mode="nearest")


def _match_level(curr: np.ndarray, prev: np.ndarray, init_u: np.ndarray,
                 init_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r = SEARCH_RADIUS
    offsets = [(du, dv) for dv in range(-r, r + 1) for du in range(-r, r + 1)]
    best_cost = np.full(curr.shape, np.inf)
    best_u = np.zeros(curr.shape)
    best_v = np.zeros(curr.shape)
    sad_cache: dict[tuple[int, int], np.ndarray] = {}
    pairs = np.stack([init_u, init_v], axis=-1).reshape(-1, 2)
    for u0, v0 in np.unique(pairs, axis=0):
        mask = (init_u == u0) & (init_v == v0)
        # search around the initial estimate and around zero displacement, so
        # a bad coarse-level guess cannot push the refinement out of reach;
        # ties broken toward smaller displacement magnitude, then lexicographic (u, v)
        cands = {(u0 + du, v0 + dv) for du, dv in offsets}
        cands |= {(du, dv) for du, dv in offsets}
        cands = sorted(cands, key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1]))
        for u, v in cands:
            key = (int(u), int(v))
            if key not in sad_cache:
                sad_cache[key] = _sad_map(curr, prev, key[0], key[1], BLOCK_SIZE)
            better = mask & (sad_cache[key] < best_cost)
            best_cost[better] = sad_cache[key][better]
            best_u[better] = u
            best_v[better] = v
    return best_u, best_v


def reference_flow(curr: ImageFrame, prev: ImageFrame) -> np.ndarray:
    """optical_flow's pyramid with the oracle matcher at every level."""
    with mock.patch.object(maps, "_match_level", _match_level):
        return optical_flow(curr, prev)


def corner_patch(h: int, w: int, dy: int, dx: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A textured 6x6 patch near the top-left corner moved by (dx, dy) over a
    static background: displacements far from zero are only near estimates in
    that corner, so the rectangles they are matched in are strict prefixes."""
    rng = np.random.default_rng(seed)
    prev = 0.1 * rng.random((h, w))
    curr = prev.copy()
    patch = rng.random((6, 6))
    prev[2:8, 2:8] = patch
    curr[2 + dy:8 + dy, 2 + dx:8 + dx] = patch
    return curr, prev


@st.composite
def frame_pairs(draw):
    """A random frame pair. The current frame is the previous one moved by a
    few pixels plus noise, unrelated to it, or a corner patch moved over a
    static background; quantising both to a few grey levels makes many
    displacements tie on SAD."""
    kind = draw(st.sampled_from(["shift", "unrelated", "corner"]))
    h = draw(st.integers(16 if kind == "corner" else BLOCK_SIZE, 26))
    w = draw(st.integers(16 if kind == "corner" else BLOCK_SIZE, 26))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    prev = rng.random((h, w))
    if kind == "shift":
        curr = np.roll(prev, (draw(st.integers(-5, 5)), draw(st.integers(-5, 5))), axis=(0, 1))
        curr = curr + draw(st.sampled_from([0.0, 0.05, 0.3])) * rng.random((h, w))
    elif kind == "unrelated":
        curr = rng.random((h, w))
    else:
        curr, prev = corner_patch(h, w, draw(st.integers(0, 6)), draw(st.integers(0, 6)), seed)
    levels = draw(st.sampled_from([None, 2, 3, 4]))
    if levels is not None:
        prev, curr = (np.round(a * (levels - 1)) / (levels - 1) for a in (prev, curr))
    return gray(curr), gray(prev)


@settings(max_examples=80, deadline=None)
@given(pair=frame_pairs())
@example(pair=tuple(map(gray, corner_patch(24, 26, 6, 6, 0))))
@example(pair=tuple(map(gray, corner_patch(24, 26, 3, 2, 0))))
@example(pair=tuple(map(gray, corner_patch(20, 18, 2, 4, 0))))
def test_optical_flow_equals_per_estimate_matcher(pair):
    got, want = optical_flow(*pair), reference_flow(*pair)
    assert np.array_equal(got, want)


@st.composite
def estimate_fields(draw):
    """A frame pair with integer initial estimates of the kinds coarse levels
    rarely hand down: negative minima, spans of up to 24 pixels, one value
    everywhere (so every v is the same), or one outlier pixel."""
    h = draw(st.integers(BLOCK_SIZE, 14))
    w = draw(st.integers(BLOCK_SIZE, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prev = np.round(rng.random((h, w)) * 3) / 3
    curr = np.roll(prev, (draw(st.integers(-3, 3)), draw(st.integers(-3, 3))), axis=(0, 1))
    kind = draw(st.sampled_from(["spread", "constant", "outlier"]))
    fields = []
    for _ in "uv":
        lo = draw(st.integers(-12, 12))
        if kind == "spread":
            field = rng.integers(lo, draw(st.integers(lo, 12)) + 1, (h, w))
        else:
            field = np.full((h, w), lo)
        fields.append(field.astype(np.float64))
    if kind == "outlier":
        y, x = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        fields[draw(st.integers(0, 1))][y, x] += draw(st.integers(-12, 12))
    return curr, prev, *fields


@settings(max_examples=80, deadline=None)
@given(case=estimate_fields())
def test_match_level_equals_per_estimate_matcher(case):
    got, want = maps._match_level(*case), _match_level(*case)
    assert all(np.array_equal(g, o) for g, o in zip(got, want))


def downsample2_concatenate(img: np.ndarray) -> np.ndarray:
    """The oracle: `_downsample2` as it was, with one `np.concatenate` per odd side."""
    h, w = img.shape
    if h % 2:
        img = np.concatenate([img, img[-1:]], axis=0)
        h += 1
    if w % 2:
        img = np.concatenate([img, img[:, -1:]], axis=1)
        w += 1
    return img.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


@settings(max_examples=80, deadline=None)
@given(h=st.integers(1, 19), w=st.integers(1, 19), seed=st.integers(0, 2**32 - 1),
       strided=st.booleans())
def test_downsample2_equals_concatenate_form(h, w, seed, strided):
    # a strided input is the single-channel luminance view that the flow's
    # pyramid starts from
    img = np.random.default_rng(seed).random((h, w, 2))
    img = img[:, :, 0] if strided else np.ascontiguousarray(img[:, :, 0])
    got, want = maps._downsample2(img), downsample2_concatenate(img)
    assert got.shape == want.shape == ((h + 1) // 2, (w + 1) // 2)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("axis", [0, 1])
def test_uniform_filter1d_into_buffer_prefix_is_exact(axis):
    # _match_level filters each SAD map into a contiguous prefix of a larger
    # flat buffer, and relies on that giving the allocating call's bits
    diff = np.abs(np.random.default_rng(axis).standard_normal((9, 13)))
    buf = np.full(20 * 20, np.nan)
    out = buf[:diff.size].reshape(diff.shape)
    uniform_filter1d(diff, 5, axis=axis, output=out, mode="nearest")
    assert np.array_equal(out, uniform_filter1d(diff, 5, axis=axis, mode="nearest"))
    assert np.isnan(buf[diff.size:]).all()


class TestDensity:
    def test_empty(self):
        assert np.all(density_from_boxes([], (20, 20)) == 0)

    def test_unit_mass(self):
        d = density_from_boxes([BBox(40, 40, 20, 20)], (100, 100))
        assert d.sum() == pytest.approx(1.0, abs=1e-3)

    def test_linearity(self):
        boxes = [BBox(10, 10, 8, 8), BBox(60, 60, 12, 12), BBox(30, 70, 10, 10)]
        d = density_from_boxes(boxes, (100, 100))
        assert d.sum() == pytest.approx(len(boxes), abs=len(boxes) * 1e-3)


class TestSynthAndFiles:
    def test_vertical_gradient(self):
        d = synth_depth((5, 3))
        for r in range(5):
            assert np.all(d[r] == r / 4)

    def test_map_round_trip(self, tmp_path):
        arr = np.random.default_rng(5).random((6, 7, 3)).astype(np.float32)
        save_map(tmp_path / "m.bin", arr)
        back = load_map(tmp_path / "m.bin")
        assert np.array_equal(back.astype(np.float32), arr)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MapError):
            load_map(tmp_path / "nope.bin")

    def test_any_channel_count(self, tmp_path):
        arr = np.random.default_rng(4).random((4, 5, 2)).astype(np.float32)
        save_map(tmp_path / "m.bin", arr)
        back = load_map(tmp_path / "m.bin")
        assert back.shape == (4, 5, 2) and np.array_equal(back.astype(np.float32), arr)

    @pytest.mark.parametrize("sidecar", [
        '{"width": 4, "channels": 1}',
        "not json",
        "[4, 4, 1]",
        '{"height": 4.0, "width": 4, "channels": 1}',
        '{"height": -4, "width": -4, "channels": 1}',
        '{"height": true, "width": 16, "channels": 1}',
    ])
    def test_bad_sidecar(self, tmp_path, sidecar):
        save_map(tmp_path / "m.bin", np.zeros((4, 4)))
        (tmp_path / "m.bin.json").write_text(sidecar)
        with pytest.raises(MapError):
            load_map(tmp_path / "m.bin")

    @pytest.mark.parametrize("nbytes", [0, 3, 15, 17, 12])
    def test_payload_of_wrong_byte_count(self, tmp_path, nbytes):
        save_map(tmp_path / "m.bin", np.zeros((2, 2)))
        (tmp_path / "m.bin").write_bytes(bytes(nbytes))
        with pytest.raises(MapError, match=f"m.bin: map payload has {nbytes} bytes, expected 16"):
            load_map(tmp_path / "m.bin")

    def test_non_finite_payload(self, tmp_path):
        save_map(tmp_path / "m.bin", np.zeros((2, 2)))
        (tmp_path / "m.bin").write_bytes(np.full(4, np.nan, dtype="<f4").tobytes())
        with pytest.raises(MapError):
            load_map(tmp_path / "m.bin")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39, -1e200])
    def test_save_refuses_values_not_finite_as_float32(self, tmp_path, value):
        data = np.zeros((2, 3))
        data[1, 2] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MapError):
                save_map(tmp_path / "m.bin", data)
        assert list(tmp_path.iterdir()) == []


HEADS = [BBox(2, 3, 6, 6), BBox(10, 4, 5, 7)]


def planes(stack, name):
    return stack[SOURCE_SLICES[name]]


class TestStack:
    def test_layout(self):
        assert SOURCE_SLICES == {"diff": slice(0, 1), "flow": slice(1, 3), "rgb": slice(3, 6),
                                 "depth": slice(6, 7), "density": slice(7, 8)}

    @pytest.mark.parametrize("channels", [1, 3])
    def test_slices_hold_their_sources(self, channels):
        rng = np.random.default_rng(8)
        prev = ImageFrame(rng.random((16, 20, channels)))
        curr = ImageFrame(np.roll(prev.data, 2, axis=1))
        s = build_stack(curr, prev, synth_depth_provider(), density_provider(HEADS))
        assert s.shape == (8, 16, 20) and s.dtype == np.float64
        flow = optical_flow(curr, prev)
        assert np.abs(flow).max() > 0
        assert np.array_equal(planes(s, "diff")[0], frame_difference(curr, prev))
        assert np.array_equal(planes(s, "flow")[0], flow[:, :, 0])
        assert np.array_equal(planes(s, "flow")[1], flow[:, :, 1])
        # a gray frame gives three equal rgb planes
        assert np.array_equal(planes(s, "rgb"), np.broadcast_to(
            curr.data.transpose(2, 0, 1), (3, 16, 20)))
        assert np.array_equal(planes(s, "depth")[0], synth_depth((16, 20)))
        assert np.array_equal(planes(s, "density")[0], density_from_boxes(HEADS, (16, 20)))

    def test_first_frame_zero_motion(self):
        img = gray(np.random.default_rng(6).random((16, 16)))
        s = build_stack(img, None, synth_depth_provider(), density_provider(HEADS))
        assert np.all(planes(s, "diff") == 0) and np.all(planes(s, "flow") == 0)
        assert np.array_equal(planes(s, "rgb"), np.repeat(img.data.transpose(2, 0, 1), 3, axis=0))
        assert np.array_equal(planes(s, "depth")[0], synth_depth((16, 16)))
        assert np.array_equal(planes(s, "density")[0], density_from_boxes(HEADS, (16, 16)))

    def test_identical_frames_zero_motion(self):
        img = gray(np.random.default_rng(7).random((16, 16)))
        s = build_stack(img, img, synth_depth_provider(),
                        lambda h, w: density_from_boxes([], (h, w)))
        assert np.all(planes(s, "diff") == 0) and np.all(planes(s, "flow") == 0)

    def test_bad_provider_named(self):
        img = gray(np.zeros((10, 10)))
        bad = lambda h, w: np.zeros((4, 4))  # noqa: E731
        good = lambda h, w: np.zeros((h, w))  # noqa: E731
        with pytest.raises(MapError, match="depth"):
            build_stack(img, None, bad, good)
        with pytest.raises(MapError, match="density"):
            build_stack(img, None, good, bad)

    def test_stack_dimension_invariant(self):
        # every map but rgb takes its size from rgb; each must have its
        # slice's channel count, (H, W) standing for one channel
        ok = {"diff": np.zeros((8, 8)), "flow": np.zeros((8, 8, 2)), "rgb": np.zeros((8, 8, 3)),
              "depth": np.zeros((8, 8, 1)), "density": np.zeros((8, 8))}
        assert source_stack(ok).shape == (8, 8, 8)
        for name, shape in [("diff", (6, 8)), ("flow", (8, 6, 2)), ("flow", (8, 8)),
                            ("flow", (8, 8, 3)), ("rgb", (8, 8)), ("depth", (6, 8)),
                            ("depth", (8, 8, 2)), ("density", (8, 7)), ("density", (8,))]:
            with pytest.raises(MapError, match=f"^{name} map"):
                source_stack({**ok, name: np.zeros(shape)})
