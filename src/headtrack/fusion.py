"""Multi-source feature fusion at toy scale.

Five pseudo-siamese conv extractors (same architecture, independent weights)
map each source into C channels; the fused pipeline is:

  channel concat -> conv/conv + coordinate & channel attention
  -> sigmoid spatial mask blended with the concat features (alpha1 / beta1)
  -> per-source channel split, per-group conv/conv regroup
  -> motion (diff, flow) and static (rgb, depth, density) branches projected
     to a common channel count
  -> Hadamard blend of the branches (alpha2 / beta2)

All math runs through the reverse-mode layer in autodiff so every weight and
the four scalar coefficients are checkable against finite differences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .maps import SOURCE_SLICES

SOURCE_ORDER = tuple(SOURCE_SLICES)
MOTION_GROUPS = 2   # diff, flow
STATIC_GROUPS = 3   # rgb, depth, density
COEFFICIENTS = ("alpha1", "beta1", "alpha2", "beta2")


class FusionError(ValueError):
    pass


@dataclass
class ConvBlock:
    """One stride-1 same-padded convolution with bias."""

    weight: Tensor
    bias: Tensor

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.weight, self.bias)


@dataclass
class FusionConfig:
    channels: int = 4       # per-source extractor output channels
    fuse_channels: int = 8  # common width of the motion/static branches
    kernel: int = 3
    init_std: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise FusionError(f"seed must be >= 0, got {self.seed}")


class FusionParams:
    """All learnable state of the fusion pipeline, addressable by name. Each
    tensor is registered as it is drawn, so the names are in RNG draw order."""

    def __init__(self, cfg: FusionConfig | None = None):
        self.cfg = cfg or FusionConfig()
        c, k, f = self.cfg.channels, self.cfg.kernel, self.cfg.fuse_channels
        rng = np.random.default_rng(self.cfg.seed)
        self._params: dict[str, Tensor] = {}

        def block(name, cin, cout, ksize=k):
            w = Tensor(rng.normal(0.0, self.cfg.init_std, (cout, cin, ksize, ksize)),
                       requires_grad=True)
            b = Tensor(np.zeros(cout), requires_grad=True)
            self._params[f"{name}.weight"], self._params[f"{name}.bias"] = w, b
            return ConvBlock(w, b)

        self.extractors = {name: [block(f"extractor.{name}.0", sl.stop - sl.start, c),
                                  block(f"extractor.{name}.1", c, c)]
                           for name, sl in SOURCE_SLICES.items()}
        cat = 5 * c
        self.attn_convs = [block(f"attn.{i}", cat, cat) for i in range(2)]
        self.coa_conv = block("coa", cat, cat, 1)
        self.cha_conv = block("cha", cat, cat, 1)
        self.mask_convs = [block(f"mask.{i}", cat, cat) for i in range(2)]
        self.regroup = {name: [block(f"regroup.{name}.{i}", c, c) for i in range(2)]
                        for name in SOURCE_ORDER}
        self.proj_motion = block("proj_motion", MOTION_GROUPS * c, f, 1)
        self.proj_static = block("proj_static", STATIC_GROUPS * c, f, 1)
        self.head_conv = block("head", f, 1, 1)
        for name in COEFFICIENTS:
            self._params[name] = Tensor(np.float64(1.0), requires_grad=True)
            setattr(self, name, self._params[name])

    def named_parameters(self) -> dict[str, Tensor]:
        return dict(self._params)

    def zero_grad(self):
        for t in self._params.values():
            t.zero_grad()

    def set_coefficients(self, alpha1=None, beta1=None, alpha2=None, beta2=None):
        given = {name: v for name, v in zip(COEFFICIENTS, (alpha1, beta1, alpha2, beta2))
                 if v is not None}
        if not all(map(math.isfinite, given.values())):
            raise FusionError(f"coefficients must be finite, got {given}")
        for name, v in given.items():
            self._params[name].data = np.asarray(np.float64(v))


def extract_and_concat(stack: np.ndarray, params: FusionParams) -> Tensor:
    """Run each source's extractor on its channels of the (8, H, W) stack
    (maps.source_stack) and concatenate their outputs channel-wise."""
    feats = []
    for name, sl in SOURCE_SLICES.items():
        blk1, blk2 = params.extractors[name]
        feats.append(blk2(blk1(Tensor(stack[sl]))))
    return ad.concat(feats, axis=0)


def coordinate_attention(x: Tensor, params: FusionParams) -> Tensor:
    """Directional pooling to (C,H,1) and (C,1,W) profiles, a shared 1x1 conv
    plus sigmoid on each, both broadcast-multiplied into the features."""
    pool_h = ad.mean(x, axis=2)   # (C, H, 1)
    pool_w = ad.mean(x, axis=1)   # (C, 1, W)
    w_h = ad.sigmoid(params.coa_conv(pool_h))
    w_w = ad.sigmoid(params.coa_conv(pool_w))
    return ad.mul(ad.mul(x, w_h), w_w)


def channel_attention(x: Tensor, params: FusionParams) -> Tensor:
    """Global average per channel -> 1x1 conv -> sigmoid -> channel-wise scale."""
    pooled = ad.mean(x, axis=(1, 2))  # (C, 1, 1)
    w = ad.sigmoid(params.cha_conv(pooled))
    return ad.mul(x, w)


def conv_attention(h_cat: Tensor, params: FusionParams) -> Tensor:
    x = params.attn_convs[1](params.attn_convs[0](h_cat))
    return channel_attention(coordinate_attention(x, params), params)


def spatial_mask_fuse(h_agg: Tensor, h_cat: Tensor, alpha1: Tensor, beta1: Tensor,
                      params: FusionParams) -> Tensor:
    """alpha1 * Sigmoid(Conv(Conv(h_agg))) (.) h_cat + beta1 * h_cat."""
    mask = ad.sigmoid(params.mask_convs[1](params.mask_convs[0](h_agg)))
    return ad.add(ad.mul(ad.mul(mask, h_cat), alpha1), ad.mul(h_cat, beta1))


def split_regroup(h_agg: Tensor, params: FusionParams) -> tuple[Tensor, Tensor]:
    """Split into the five per-source channel groups, conv each, and
    re-concatenate into motion (diff, flow) and static (rgb, depth, density)."""
    total = h_agg.shape[0]
    if total % len(SOURCE_ORDER):
        raise FusionError(f"{total} channels not divisible into "
                          f"{len(SOURCE_ORDER)} source groups")
    c = total // len(SOURCE_ORDER)
    groups = []
    for i, name in enumerate(SOURCE_ORDER):
        g = ad.narrow(h_agg, 0, i * c, c)
        blk1, blk2 = params.regroup[name]
        groups.append(blk2(blk1(g)))
    h_motion = ad.concat(groups[:MOTION_GROUPS], axis=0)
    h_static = ad.concat(groups[MOTION_GROUPS:], axis=0)
    return h_motion, h_static


def motion_static_fuse(h_static: Tensor, h_motion: Tensor,
                       alpha2: Tensor, beta2: Tensor) -> Tensor:
    """alpha2 * (h_static (.) h_motion) + beta2 * h_static."""
    if h_static.shape != h_motion.shape:
        raise FusionError(f"static {h_static.shape} and motion {h_motion.shape} "
                          "branches must match")
    return ad.add(ad.mul(ad.mul(h_static, h_motion), alpha2), ad.mul(h_static, beta2))


def forward(stack: np.ndarray, params: FusionParams) -> Tensor:
    """Full fusion pipeline; output has fuse_channels channels."""
    h_cat = extract_and_concat(stack, params)
    h_agg = conv_attention(h_cat, params)
    h_agg = spatial_mask_fuse(h_agg, h_cat, params.alpha1, params.beta1, params)
    h_motion, h_static = split_regroup(h_agg, params)
    h_motion = params.proj_motion(h_motion)
    h_static = params.proj_static(h_static)
    return motion_static_fuse(h_static, h_motion, params.alpha2, params.beta2)


def toy_head(h_agg: Tensor, params: FusionParams) -> Tensor:
    """1x1 conv + sigmoid producing a per-pixel head-center score map."""
    return ad.sigmoid(params.head_conv(h_agg))


def loss_for(stack: np.ndarray, params: FusionParams) -> Tensor:
    return ad.tsum(toy_head(forward(stack, params), params))


def grad_check(params: FusionParams, stack: np.ndarray,
               samples_per_param: int = 4, seed: int = 0) -> float:
    """Max relative error between analytic gradients and central differences
    (step 1e-5), on randomly sampled coordinates of every parameter."""
    epsilon = 1e-5
    params.zero_grad()
    loss_for(stack, params).backward()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, p in params.named_parameters().items():
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        n = flat.size
        idxs = rng.choice(n, size=min(samples_per_param, n), replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = loss_for(stack, params).data
            flat[i] = orig - epsilon
            f_minus = loss_for(stack, params).data
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            analytic = grad.reshape(-1)[i]
            # floor keeps central-difference roundoff (~1e-10 absolute) from
            # dominating the ratio on near-zero gradients; below it the
            # comparison is effectively absolute at ~1e-9 resolution
            denom = max(abs(numeric), abs(analytic), 1e-5)
            worst = max(worst, abs(numeric - analytic) / denom)
    return worst
