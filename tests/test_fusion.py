import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from headtrack import autodiff as ad
from headtrack.autodiff import Tensor
from headtrack.fusion import (
    CHANNELS,
    FUSE_CHANNELS,
    INIT_STD,
    KERNEL,
    SOURCE_ORDER,
    FusionConfig,
    FusionError,
    FusionParams,
    channel_attention,
    conv_attention,
    coordinate_attention,
    extract_and_concat,
    forward,
    grad_check,
    loss_for,
    motion_static_fuse,
    spatial_mask_fuse,
    split_regroup,
    toy_head,
)
from headtrack.maps import SOURCE_SLICES, source_stack


def mkstack(rng, h=4, w=4):
    return source_stack({
        "rgb": rng.random((h, w, 3)),
        "diff": rng.random((h, w)),
        "flow": np.stack([rng.standard_normal((h, w)), rng.standard_normal((h, w))], axis=2),
        "depth": rng.random((h, w)),
        "density": rng.random((h, w))})


def zero_stack(h=4, w=4):
    return np.zeros((8, h, w))


def set_center_tap(p, name, weight=1.0, bias=0.0):
    """Conv `name` to its center tap only, output channel j reading input
    channel j % in_ch times `weight`, plus `bias`; the defaults make it an
    identity. A center-tap conv is a per-pixel map, so padding never shows."""
    w = p[f"{name}.weight"]
    k = w.shape[-1]
    w.data = np.zeros_like(w.data)
    for j in range(w.shape[0]):
        w.data[j, j % w.shape[1], k // 2, k // 2] = weight
    p[f"{name}.bias"].data = np.full_like(p[f"{name}.bias"].data, bias)


def well_scaled_params(seed, scale=0.15):
    """The seed's weights scaled up to std `scale`, with biases drawn at the
    same std, so true gradients sit well above the finite-difference floor."""
    p = FusionParams(FusionConfig(seed=seed))
    rng = np.random.default_rng(seed + 4096)
    for name, t in p.named_parameters().items():
        if name.endswith("weight"):
            t.data *= scale / INIT_STD
        elif name.endswith("bias"):
            t.data = rng.normal(0.0, scale, t.data.shape)
    return p


def _conv(name, cin, cout, k):
    return [(f"{name}.weight", (cout, cin, k, k)), (f"{name}.bias", (cout,))]


# The registry's names and shapes in RNG draw order, as the hand-written list
# that the registry replaced gave them; the maps_fusion digest hashes gradient
# norms in this order.
PARAMETERS = [
    *_conv("extractor.diff.0", 1, 4, 3), *_conv("extractor.diff.1", 4, 4, 3),
    *_conv("extractor.flow.0", 2, 4, 3), *_conv("extractor.flow.1", 4, 4, 3),
    *_conv("extractor.rgb.0", 3, 4, 3), *_conv("extractor.rgb.1", 4, 4, 3),
    *_conv("extractor.depth.0", 1, 4, 3), *_conv("extractor.depth.1", 4, 4, 3),
    *_conv("extractor.density.0", 1, 4, 3), *_conv("extractor.density.1", 4, 4, 3),
    *_conv("attn.0", 20, 20, 3), *_conv("attn.1", 20, 20, 3),
    *_conv("coa", 20, 20, 1), *_conv("cha", 20, 20, 1),
    *_conv("mask.0", 20, 20, 3), *_conv("mask.1", 20, 20, 3),
    *_conv("regroup.diff.0", 4, 4, 3), *_conv("regroup.diff.1", 4, 4, 3),
    *_conv("regroup.flow.0", 4, 4, 3), *_conv("regroup.flow.1", 4, 4, 3),
    *_conv("regroup.rgb.0", 4, 4, 3), *_conv("regroup.rgb.1", 4, 4, 3),
    *_conv("regroup.depth.0", 4, 4, 3), *_conv("regroup.depth.1", 4, 4, 3),
    *_conv("regroup.density.0", 4, 4, 3), *_conv("regroup.density.1", 4, 4, 3),
    *_conv("proj_motion", 8, 8, 1), *_conv("proj_static", 12, 8, 1),
    *_conv("head", 8, 1, 1),
    ("alpha1", ()), ("beta1", ()), ("alpha2", ()), ("beta2", ()),
]
PARAMETER_NAMES = [name for name, _ in PARAMETERS]


class TestRegistry:
    def test_names_in_draw_order(self):
        got = FusionParams().named_parameters()
        assert list(got) == PARAMETER_NAMES
        assert [t.shape for t in got.values()] == [shape for _, shape in PARAMETERS]

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_tensors_equal_draw_order_oracle(self, seed):
        # weights drawn one after another from one generator, biases zero,
        # coefficients one
        rng = np.random.default_rng(seed)
        got = FusionParams(FusionConfig(seed=seed)).named_parameters()
        for (name, shape), (got_name, t) in zip(PARAMETERS, got.items(), strict=True):
            if name.endswith(".weight"):
                want = rng.normal(0.0, INIT_STD, shape)
            else:
                want = np.zeros(shape) if name.endswith(".bias") else np.ones(shape)
            assert got_name == name and np.array_equal(t.data, want), name

    def test_backward_reaches_every_registered_tensor(self):
        # grad_check perturbs each registered tensor in place, so forward and
        # toy_head must read every one of them
        p = FusionParams(FusionConfig(seed=3))
        p.zero_grad()
        loss_for(mkstack(np.random.default_rng(3)), p).backward()
        for name, t in p.named_parameters().items():
            assert t.grad is not None and t.grad.shape == t.shape, name
            assert np.all(np.isfinite(t.grad)), name

    def test_registry_is_the_only_state(self):
        assert list(vars(FusionParams())) == ["_params"]

    @pytest.mark.parametrize("seed", [1.5, math.nan, math.inf, "3", None, -1])
    def test_bad_seed_rejected(self, seed):
        # 1.5 and nan failed later inside numpy, "3" and None with a bare
        # TypeError from the comparison
        with pytest.raises(FusionError):
            FusionConfig(seed=seed)

    def test_numpy_integer_seed_draws_as_int(self):
        a = FusionParams(FusionConfig(seed=np.int64(3))).named_parameters()
        b = FusionParams(FusionConfig(seed=3)).named_parameters()
        assert all(np.array_equal(a[n].data, b[n].data) for n in PARAMETER_NAMES)


class TestExtractConcat:
    def test_channel_count(self):
        p = FusionParams()
        h_cat = extract_and_concat(mkstack(np.random.default_rng(0)), p)
        assert h_cat.shape == (5 * CHANNELS, 4, 4)
        # each extractor reads its source's slice of the stack
        assert SOURCE_ORDER == ("diff", "flow", "rgb", "depth", "density")
        assert [p[f"extractor.{n}.0.weight"].shape[1] for n in SOURCE_ORDER] == [1, 2, 3, 1, 1]

    def test_identity_extractors_restack(self):
        s = mkstack(np.random.default_rng(1))
        p = FusionParams()
        for name in SOURCE_ORDER:
            for i in range(2):
                set_center_tap(p, f"extractor.{name}.{i}")
        h_cat = extract_and_concat(s, p)
        c = CHANNELS
        for gi, name in enumerate(SOURCE_ORDER):
            src = s[SOURCE_SLICES[name]]
            for j in range(c):
                assert np.array_equal(h_cat.data[gi * c + j], src[j % src.shape[0]])

    def test_hand_computed_1x1(self):
        # with only the center tap set, each extractor conv acts as a 1x1
        # kernel, a per-pixel linear map; oracle is plain matrix arithmetic
        # on the raw planes
        s = mkstack(np.random.default_rng(2), 2, 2)
        p = FusionParams(FusionConfig(seed=7))
        rng = np.random.default_rng(7)
        for name in SOURCE_ORDER:
            for i in range(2):
                w, b = p[f"extractor.{name}.{i}.weight"], p[f"extractor.{name}.{i}.bias"]
                center = rng.normal(0.0, 0.5, w.shape[:2])
                w.data = np.zeros_like(w.data)
                w.data[:, :, KERNEL // 2, KERNEL // 2] = center
                b.data = rng.normal(0.0, 0.5, b.shape)
        h_cat = extract_and_concat(s, p)
        c = CHANNELS
        for gi, name in enumerate(SOURCE_ORDER):
            w1 = p[f"extractor.{name}.0.weight"].data[:, :, KERNEL // 2, KERNEL // 2]
            b1 = p[f"extractor.{name}.0.bias"].data
            w2 = p[f"extractor.{name}.1.weight"].data[:, :, KERNEL // 2, KERNEL // 2]
            b2 = p[f"extractor.{name}.1.bias"].data
            src = s[SOURCE_SLICES[name]]
            x = src.reshape(len(src), -1)
            expect = (w2 @ ((w1 @ x) + b1[:, None])) + b2[:, None]
            assert np.allclose(h_cat.data[gi * c:(gi + 1) * c].reshape(c, -1), expect)

    def test_pseudo_siamese_structure(self):
        p = FusionParams()
        shapes = [[p[f"extractor.{n}.{i}.weight"].shape for i in range(2)]
                  for n in SOURCE_ORDER]
        # same architecture depth and kernel geometry, independent weights
        assert all(len(s) == len(shapes[0]) for s in shapes)
        assert all(s[0][2:] == shapes[0][0][2:] for s in shapes)
        assert p["extractor.diff.0.weight"] is not p["extractor.depth.0.weight"]
        assert not np.array_equal(p["extractor.diff.1.weight"].data,
                                  p["extractor.depth.1.weight"].data)

    @pytest.mark.parametrize("shape", [
        (9, 4, 4),     # dropped channel 8 silently
        (7, 4, 4),     # "input has 0 channels" from conv2d
        (8, 0, 3),     # "non-finite tensor data" after a numpy warning
        (8, 3, 0),
        (8, 4),
        (1, 8, 4, 4),
    ])
    def test_stack_shape_rejected(self, shape):
        with pytest.raises(FusionError):
            forward(np.zeros(shape), FusionParams())


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("sizes", [(3,), (1, 4, 2), (2, 2, 1, 3)])
def test_concat_backward_equals_take_form(axis, sizes):
    # the oracle: concat's backward as it was, one np.take per part
    rng = np.random.default_rng(len(sizes) + axis)
    shapes = [tuple(n if a == axis else 3 for a in range(3)) for n in sizes]
    out = ad.concat([Tensor(rng.standard_normal(s)) for s in shapes], axis=axis)
    g = rng.standard_normal(out.shape)
    offsets = np.cumsum([0, *sizes])
    want = [np.take(g, range(offsets[i], offsets[i + 1]), axis=axis) for i in range(len(sizes))]
    got = out._backward(g)
    assert len(got) == len(want)
    assert all(a.shape == b.shape == s and np.array_equal(a, b)
               for a, b, s in zip(got, want, shapes))


class TestConvAttention:
    def test_saturated_gates_pass_through(self):
        s = mkstack(np.random.default_rng(3))
        p = FusionParams(FusionConfig(seed=3))
        p["coa.bias"].data[:] = 50.0
        p["cha.bias"].data[:] = 50.0
        out = conv_attention(extract_and_concat(s, p), p)
        conv_only = p.conv("attn.1", p.conv("attn.0", extract_and_concat(s, p)))
        assert np.allclose(out.data, conv_only.data, atol=1e-8)

    def test_constant_input_constant_per_channel(self):
        h, w = 4, 4
        cat = 20
        x = Tensor(np.tile(np.arange(1.0, cat + 1.0)[:, None, None], (1, h, w)))
        p = FusionParams(FusionConfig(seed=4))
        for name in ("attn.0", "attn.1"):
            set_center_tap(p, name)
        out = channel_attention(coordinate_attention(x, p), p)
        for ch in range(cat):
            assert np.allclose(out.data[ch], out.data[ch].flat[0])

    def test_hand_computed_tiny_fixture(self):
        # 2x2 planes with every conv a scalar map per channel (center tap on
        # the diagonal), so each channel follows the one-channel closed form
        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        def closed_form(x):
            # conv-conv with weights (2, bias 1) then (0.5, bias -1)
            z = 0.5 * (2 * x + 1) - 1
            pool_h = z.mean(axis=1, keepdims=True)
            pool_w = z.mean(axis=0, keepdims=True)
            wh = sig(3.0 * pool_h + 0.2)     # coa conv weight 3, bias 0.2
            ww = sig(3.0 * pool_w + 0.2)
            coa = z * wh * ww
            return coa * sig(-1.5 * coa.mean() + 0.1)  # cha conv weight -1.5, bias 0.1

        p = FusionParams()
        for name, wv, bv in (("attn.0", 2.0, 1.0), ("attn.1", 0.5, -1.0),
                             ("coa", 3.0, 0.2), ("cha", -1.5, 0.1)):
            set_center_tap(p, name, wv, bv)
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        planes = np.stack([x * (1.0 - 0.1 * ch) for ch in range(5 * CHANNELS)])
        out = conv_attention(Tensor(planes), p)
        for ch, plane in enumerate(planes):
            assert np.allclose(out.data[ch], closed_form(plane))


class TestSpatialMaskFuse:
    def test_identity_reduction_bitwise(self):
        rng = np.random.default_rng(5)
        p = FusionParams(FusionConfig(seed=5))
        s = mkstack(rng)
        h_cat = extract_and_concat(s, p)
        h_agg = conv_attention(h_cat, p)
        out = spatial_mask_fuse(h_agg, h_cat, Tensor(np.float64(0.0)),
                                Tensor(np.float64(1.0)), p)
        assert np.array_equal(out.data, h_cat.data)

    def test_mask_zero_limit(self):
        rng = np.random.default_rng(6)
        p = FusionParams(FusionConfig(seed=6))
        s = mkstack(rng)
        h_cat = extract_and_concat(s, p)
        for name in ("mask.0", "mask.1"):
            p[f"{name}.weight"].data[:] = 0.0
            p[f"{name}.bias"].data[:] = -60.0  # sigmoid -> ~0
        out = spatial_mask_fuse(h_cat, h_cat, Tensor(np.float64(1.0)),
                                Tensor(np.float64(0.0)), p)
        assert np.allclose(out.data, 0.0, atol=1e-20)

    def test_scalar_fixture(self):
        # 1x1 "image", each mask conv a scalar map per channel:
        # output = (m + 1) * h_cat with both coeffs 1
        p = FusionParams(FusionConfig(seed=1))
        set_center_tap(p, "mask.0", 1.0, 0.0)
        set_center_tap(p, "mask.1", 1.0, 0.5)
        h_cat = Tensor(np.full((5 * CHANNELS, 1, 1), 2.0))
        h_agg = Tensor(np.full((5 * CHANNELS, 1, 1), 3.0))
        m = 1.0 / (1.0 + np.exp(-(3.0 + 0.5)))
        out = spatial_mask_fuse(h_agg, h_cat, Tensor(np.float64(1.0)),
                                Tensor(np.float64(1.0)), p)
        assert out.data == pytest.approx(np.full(out.shape, (m + 1.0) * 2.0))

    def test_mask_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(7)
        p = FusionParams(FusionConfig(seed=7))
        for name in ("mask.0", "mask.1"):
            p[f"{name}.weight"].data *= 0.3 / INIT_STD
        h = Tensor(rng.standard_normal((20, 4, 4)))
        mask = ad.sigmoid(p.conv("mask.1", p.conv("mask.0", h)))
        assert np.all(mask.data > 0) and np.all(mask.data < 1)


def regroup_convs():
    return [f"regroup.{name}.{i}" for name in SOURCE_ORDER for i in range(2)]


class TestSplitRegroup:
    def test_identity_convs_slice_channels(self):
        p = FusionParams(FusionConfig(seed=8))
        for name in regroup_convs():
            set_center_tap(p, name)
        c = CHANNELS
        x = Tensor(np.random.default_rng(8).random((5 * c, 4, 4)))
        h_motion, h_static = split_regroup(x, p)
        assert np.array_equal(h_motion.data, x.data[:2 * c])
        assert np.array_equal(h_static.data, x.data[2 * c:])

    def test_zero_weights_zero_output(self):
        p = FusionParams(FusionConfig(seed=9))
        for name in regroup_convs():
            p[f"{name}.weight"].data[:] = 0.0
            p[f"{name}.bias"].data[:] = 0.0
        x = Tensor(np.random.default_rng(9).random((20, 4, 4)))
        h_motion, h_static = split_regroup(x, p)
        assert np.all(h_motion.data == 0) and np.all(h_static.data == 0)

    def test_group_order_traceable(self):
        p = FusionParams(FusionConfig(seed=10))
        for name in regroup_convs():
            set_center_tap(p, name)
        c = CHANNELS
        consts = np.arange(1.0, 6.0)
        x = Tensor(np.repeat(consts, c)[:, None, None] * np.ones((5 * c, 2, 2)))
        h_motion, h_static = split_regroup(x, p)
        assert np.array_equal(np.unique(h_motion.data), consts[:2])
        assert np.array_equal(np.unique(h_static.data), consts[2:])

    def test_indivisible_channels(self):
        p = FusionParams()
        with pytest.raises(FusionError):
            split_regroup(Tensor(np.zeros((7, 2, 2))), p)

    @pytest.mark.parametrize("channels", [10, 25])
    def test_five_groups_of_the_wrong_width(self, channels):
        # these split into five groups, but not of CHANNELS each; conv2d
        # raised a bare ValueError on the first group
        with pytest.raises(FusionError):
            split_regroup(Tensor(np.zeros((channels, 2, 2))), FusionParams())


class TestMotionStaticFuse:
    one = Tensor(np.float64(1.0))
    zero = Tensor(np.float64(0.0))

    def test_alpha_zero_identity(self):
        s = Tensor(np.random.default_rng(11).random((8, 3, 3)))
        m = Tensor(np.random.default_rng(12).random((8, 3, 3)))
        out = motion_static_fuse(s, m, self.zero, self.one)
        assert np.array_equal(out.data, s.data)

    def test_hadamard_with_ones(self):
        s = Tensor(np.random.default_rng(13).random((8, 3, 3)))
        m = Tensor(np.ones((8, 3, 3)))
        out = motion_static_fuse(s, m, self.one, self.zero)
        assert np.allclose(out.data, s.data)

    def test_scalar_arithmetic(self):
        s = Tensor(np.full((1, 1, 1), 2.0))
        m = Tensor(np.full((1, 1, 1), 3.0))
        out = motion_static_fuse(s, m, self.one, self.one)
        assert out.data[0, 0, 0] == 8.0

    def test_shape_mismatch(self):
        with pytest.raises(Exception):
            motion_static_fuse(Tensor(np.zeros((8, 2, 2))),
                               Tensor(np.zeros((12, 2, 2))), self.one, self.one)


class TestForward:
    def test_output_shape(self):
        p = FusionParams()
        out = forward(mkstack(np.random.default_rng(14)), p)
        assert out.shape == (FUSE_CHANNELS, 4, 4)
        head = toy_head(out, p)
        assert head.shape == (1, 4, 4)
        assert np.all((head.data > 0) & (head.data < 1))

    def test_static_path_reduction(self):
        p = FusionParams(FusionConfig(seed=15))
        p.set_coefficients(alpha1=0.0, beta1=1.0, alpha2=0.0, beta2=1.0)
        s = mkstack(np.random.default_rng(15))
        out = forward(s, p)
        h_cat = extract_and_concat(s, p)
        _, h_static = split_regroup(h_cat, p)
        expect = p.conv("proj_static", h_static)
        assert np.array_equal(out.data, expect.data)

    def test_default_coefficients_are_one(self):
        p = FusionParams()
        for name in ("alpha1", "beta1", "alpha2", "beta2"):
            assert float(p[name].data) == 1.0

    @pytest.mark.parametrize("name", ["gamma", "head.bias"])
    def test_set_coefficients_rejects_other_names(self, name):
        p = FusionParams()
        with pytest.raises(FusionError):
            p.set_coefficients(**{name: 5.0})
        assert float(p["head.bias"].data[0]) == 0.0 and "gamma" not in p.named_parameters()

    def test_deterministic(self):
        s = mkstack(np.random.default_rng(16))
        a = forward(s, FusionParams(FusionConfig(seed=16)))
        b = forward(s, FusionParams(FusionConfig(seed=16)))
        assert np.array_equal(a.data, b.data)


class TestBackward:
    def test_beta1_gradient_is_sum_of_hcat(self):
        p = well_scaled_params(17)
        s = mkstack(np.random.default_rng(17))
        h_cat = extract_and_concat(s, p)
        h_agg = conv_attention(h_cat, p)
        out = spatial_mask_fuse(h_agg, h_cat, p["alpha1"], p["beta1"], p)
        p.zero_grad()
        ad.tsum(out).backward()
        assert float(p["beta1"].grad) == pytest.approx(float(h_cat.data.sum()))

    def test_grad_check_random_stack(self):
        p = well_scaled_params(18)
        assert grad_check(p, mkstack(np.random.default_rng(18)),
                          samples_per_param=3, seed=18) < 1e-4

    def test_zero_stack_zero_conv_weight_grads(self):
        p = FusionParams(FusionConfig(seed=19))
        p.zero_grad()
        loss_for(zero_stack(), p).backward()
        for name, t in p.named_parameters().items():
            if name.endswith("weight") and not name.startswith("head"):
                assert np.all(t.grad == 0), name

    def test_non_finite_gradient_raises(self):
        x = Tensor(np.array([700.0]), requires_grad=True)
        y = Tensor(np.exp(np.clip(x.data, None, 700)), _parents=(x,),
                   _backward=lambda g: (g * np.inf,))
        with pytest.raises(FloatingPointError):
            ad.tsum(y).backward()

    def test_graph_freed_without_cycle_collector(self):
        # backward must not leave a reference cycle holding the graph: once
        # the output is dropped, reference counting alone frees every tensor
        p = FusionParams(FusionConfig(seed=21))
        s = mkstack(np.random.default_rng(21), h=24, w=32)
        gc.collect()
        gc.disable()
        try:
            out = forward(s, p)
            ad.tsum(toy_head(out, p)).backward()
            del out
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestGraphConsumed:
    """backward() consumes the graph it runs through: each node it passes
    drops its parents and closure, so intermediates die as it goes."""

    def test_second_backward_raises_and_keeps_grads(self):
        p = FusionParams(FusionConfig(seed=22))
        loss = loss_for(mkstack(np.random.default_rng(22)), p)
        loss.backward()
        first = {name: t.grad.copy() for name, t in p.named_parameters().items()}
        with pytest.raises(ValueError, match="consumed"):
            loss.backward()
        for name, t in p.named_parameters().items():
            assert t.grad.tobytes() == first[name].tobytes(), name

    def test_new_graph_on_consumed_intermediate_raises_and_keeps_grads(self):
        # the head's parameters sit above the consumed node in the new graph:
        # the failed backward must not have added to their gradients
        p = FusionParams(FusionConfig(seed=23))
        fused = forward(mkstack(np.random.default_rng(23)), p)
        ad.tsum(toy_head(fused, p)).backward()
        first = {name: t.grad.copy() for name, t in p.named_parameters().items()}
        with pytest.raises(ValueError, match="consumed"):
            ad.tsum(p.conv("head", fused)).backward()
        for name, t in p.named_parameters().items():
            assert t.grad.tobytes() == first[name].tobytes(), name

    def test_leaves_survive_for_the_next_graph(self):
        # parameters have no closure, so every step's backward reaches them
        p = FusionParams(FusionConfig(seed=24))
        s = mkstack(np.random.default_rng(24))
        p.zero_grad()
        loss_for(s, p).backward()
        once = {name: t.grad.copy() for name, t in p.named_parameters().items()}
        p.zero_grad()
        loss_for(s, p).backward()
        for name, t in p.named_parameters().items():
            assert t.grad.tobytes() == once[name].tobytes(), name

    def test_intermediates_freed_while_loss_is_held(self):
        p = FusionParams(FusionConfig(seed=25))
        loss = loss_for(mkstack(np.random.default_rng(25), h=6, w=8), p)

        def intermediates():
            # weak references to every tensor below the loss that has a
            # backward closure: everything fusion.forward and toy_head made
            seen, todo, refs = {id(loss)}, list(loss._parents), []
            while todo:
                t = todo.pop()
                if id(t) not in seen and t._backward is not None:
                    seen.add(id(t))
                    refs.append(weakref.ref(t))
                    todo.extend(t._parents)
            return refs

        refs = intermediates()
        assert len(refs) > 50
        gc.collect()
        gc.disable()
        try:
            loss.backward()
            assert [r for r in refs if r() is not None] == []
        finally:
            gc.enable()
        assert loss.shape == ()  # the loss itself stayed referenced throughout


def test_fusion_step_traced_peak():
    # the traced peak of one forward + backward at 96 x 128: 67.4 MiB while
    # conv2d kept each padded input for backward and backward kept the graph
    p = FusionParams(FusionConfig(seed=26))
    s = mkstack(np.random.default_rng(26), h=96, w=128)
    tracemalloc.start()
    try:
        loss_for(s, p).backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2**20, f"{peak / 2**20:.1f} MiB"


# The im2col convolution that the shifted-slice conv2d replaced, kept
# unchanged as the oracle.
def _im2col(xp: np.ndarray, k: int, h: int, w: int) -> np.ndarray:
    # xp: (Cin, h + k - 1, w + k - 1) -> (Cin * k * k, h * w)
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    return win.transpose(0, 3, 4, 1, 2).reshape(-1, h * w)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Same-padded stride-1 convolution; x (Cin, H, W), weight (Cout, Cin, k, k)."""
    cout, cin, k, k2 = weight.shape
    if k != k2 or k % 2 == 0:
        raise ValueError("kernel must be square with odd size")
    if x.shape[0] != cin:
        raise ValueError(f"input has {x.shape[0]} channels, kernel expects {cin}")
    _, h, w = x.shape
    pad = k // 2
    xp = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad)))
    cols = _im2col(xp, k, h, w)
    w_mat = weight.data.reshape(cout, -1)
    out_data = (w_mat @ cols + bias.data[:, None]).reshape(cout, h, w)

    def backward(g):
        g_mat = g.reshape(cout, -1)
        d_weight = (g_mat @ cols.T).reshape(weight.shape)
        d_bias = g_mat.sum(axis=1)
        d_cols = (w_mat.T @ g_mat).reshape(cin, k, k, h, w)
        d_xp = np.zeros_like(xp)
        for ki in range(k):
            for kj in range(k):
                d_xp[:, ki:ki + h, kj:kj + w] += d_cols[:, ki, kj]
        d_x = d_xp[:, pad:pad + h, pad:pad + w] if pad else d_xp
        return (d_x, d_weight, d_bias)

    return Tensor(out_data, _parents=(x, weight, bias), _backward=backward)


CONV_CASES = st.tuples(st.integers(1, 6), st.integers(1, 6), st.sampled_from([1, 3, 5]),
                       st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(case=CONV_CASES)
@example(case=(5, 5, 3, 12, 1, 0))  # conv_attention's pooled (C, H, 1)
@example(case=(5, 5, 3, 1, 12, 1))  # and (C, 1, W)
@example(case=(20, 20, 3, 12, 12, 0))  # the fusion's widest channel pair
def test_conv2d_equals_im2col_conv(case):
    # the im2col conv sums in another order, so it agrees only up to rounding;
    # kept_padding_conv2d (defined below) runs the same taps in the same
    # order, so the output and all three gradients must match it to the bit
    cin, cout, k, h, w, seed = case
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(shape) for shape in ((cin, h, w), (cout, cin, k, k), (cout,))]
    g = Tensor(rng.standard_normal((cout, h, w)))
    results = []
    for conv in (ad.conv2d, conv2d, kept_padding_conv2d):
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        out = conv(*inputs)
        ad.tsum(ad.mul(out, g)).backward()
        results.append([out.data] + [t.grad for t in inputs])
    for got, im2col, kept in zip(*results):
        assert got.shape == im2col.shape == kept.shape
        assert np.allclose(got, im2col, rtol=1e-12, atol=1e-12)
        assert got.tobytes() == kept.tobytes()


def _tap_matmul_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """conv2d's forward with a matmul at every tap, as it was before
    one-channel taps became broadcast multiplies; kept as the oracle."""
    cout, cin, k, _ = weight.shape
    _, h, w = x.shape
    pad = k // 2
    wp = w + 2 * pad
    n = h * wp
    xp = np.zeros((cin, h + 2 * pad + 1, wp))
    xp[:, pad:pad + h, pad:pad + w] = x
    xf = xp.reshape(cin, -1)
    acc = np.zeros((cout, n))
    for ki in range(k):
        for kj in range(k):
            o = ki * wp + kj
            acc += weight[:, :, ki, kj] @ xf[:, o:o + n]
    return acc.reshape(cout, h, wp)[:, :, :w] + bias[:, None, None]


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("cout,h,w", [(1, 1, 1), (4, 12, 16), (20, 7, 5)])
def test_one_channel_conv_forward_equals_tap_matmuls(k, cout, h, w):
    # an outer-product tap has a single product per output and no sum, so the
    # broadcast multiply must give the matmul's bits exactly, signed zeros too
    rng = np.random.default_rng(k * 100 + cout)
    x = rng.standard_normal((1, h, w))
    x[0, 0, 0] = -0.0
    weight = rng.standard_normal((cout, 1, k, k))
    weight[0, 0, 0, 0] = 0.0
    bias = rng.standard_normal(cout)
    got = ad.conv2d(Tensor(x), Tensor(weight), Tensor(bias)).data
    assert np.array_equal(got, _tap_matmul_forward(x, weight, bias))


# conv2d as it was when its backward closed over the padded flat input xf,
# kept unchanged as the oracle of the conv2d that pads x again in backward.
def kept_padding_conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Same-padded stride-1 convolution; x (Cin, H, W), weight (Cout, Cin, k, k)."""
    cout, cin, k, k2 = weight.shape
    if k != k2 or k % 2 == 0:
        raise ValueError("kernel must be square with odd size")
    if x.shape[0] != cin:
        raise ValueError(f"input has {x.shape[0]} channels, kernel expects {cin}")
    _, h, w = x.shape
    pad = k // 2
    # Zero-padded rows of width wp, one extra zero row, flattened: output
    # (y, x) reads tap (ki, kj) at xf[:, (y + ki) * wp + x + kj], so each tap
    # is the contiguous slice at offset ki * wp + kj. The columns x >= w of
    # each output row wrap into the next row and are cropped.
    wp = w + 2 * pad
    n = h * wp
    xp = np.zeros((cin, h + 2 * pad + 1, wp))
    xp[:, pad:pad + h, pad:pad + w] = x.data
    xf = xp.reshape(cin, -1)
    taps = [(ki, kj, ki * wp + kj) for ki in range(k) for kj in range(k)]
    acc = np.zeros((cout, n))
    # a one-channel tap is an outer product: the broadcast multiply forms the
    # same single products as the matmul, at a fraction of its per-call cost
    product = np.multiply if cin == 1 else np.matmul
    for ki, kj, o in taps:
        acc += product(weight.data[:, :, ki, kj], xf[:, o:o + n])
    out_data = acc.reshape(cout, h, wp)[:, :, :w] + bias.data[:, None, None]

    def backward(g):
        gp = np.zeros((cout, h, wp))
        gp[:, :, :w] = g
        gf = gp.reshape(cout, n)
        d_weight = np.empty_like(weight.data)
        d_xf = np.zeros_like(xf)
        for ki, kj, o in taps:
            d_weight[:, :, ki, kj] = gf @ xf[:, o:o + n].T
            d_xf[:, o:o + n] += weight.data[:, :, ki, kj].T @ gf
        d_x = d_xf.reshape(xp.shape)[:, pad:pad + h, pad:pad + w]
        return (d_x, d_weight, g.reshape(cout, -1).sum(axis=1))

    return Tensor(out_data, _parents=(x, weight, bias), _backward=backward)


def test_fusion_step_bytes_equal_with_kept_padding_conv(monkeypatch):
    s = mkstack(np.random.default_rng(27), h=24, w=32)
    results = []
    for conv in (ad.conv2d, kept_padding_conv2d):
        monkeypatch.setattr(ad, "conv2d", conv)
        p = well_scaled_params(27)
        fused = forward(s, p)
        ad.tsum(toy_head(fused, p)).backward()
        results.append([fused.data] + [t.grad for t in p.named_parameters().values()])
    for got, want in zip(*results, strict=True):
        assert got.tobytes() == want.tobytes()
