"""Multi-source feature fusion at toy scale.

Five pseudo-siamese conv extractors (same architecture, independent weights)
map each source into CHANNELS channels; the fused pipeline is:

  channel concat -> conv/conv + coordinate & channel attention
  -> sigmoid spatial mask blended with the concat features (mask alpha / beta)
  -> per-source channel split, per-group conv/conv regroup
  -> motion (diff, flow) and static (rgb, depth, density) branches projected
     to FUSE_CHANNELS channels
  -> Hadamard blend of the branches (blend alpha / beta)

The architecture is fixed by the module constants and CONVS; FusionConfig
sets only the seed. FusionParams holds each tensor once, by name, read as
`params.conv(name, x)` or `params[name]`. All math runs through the
reverse-mode layer in autodiff so every weight and the four scalar
coefficients are checkable against finite differences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .maps import SOURCE_SLICES, STACK_CHANNELS
from .motio import check_seed

SOURCE_ORDER = tuple(SOURCE_SLICES)
MOTION_GROUPS = 2   # diff, flow
STATIC_GROUPS = 3   # rgb, depth, density
COEFFICIENTS = ("alpha1", "beta1", "alpha2", "beta2")  # mask alpha, beta; blend alpha, beta
# per-source extractor width, motion/static branch width, kernel size of the
# spatial convs, std of the drawn weights
CHANNELS, FUSE_CHANNELS, KERNEL, INIT_STD = 4, 8, 3, 0.01
_CAT = len(SOURCE_ORDER) * CHANNELS

# Every stride-1 same-padded conv as (name, in channels, out channels, kernel
# size), in the order its weight is drawn.
CONVS = (
    *((f"extractor.{name}.{i}", sl.stop - sl.start if i == 0 else CHANNELS, CHANNELS, KERNEL)
      for name, sl in SOURCE_SLICES.items() for i in range(2)),
    ("attn.0", _CAT, _CAT, KERNEL), ("attn.1", _CAT, _CAT, KERNEL),
    ("coa", _CAT, _CAT, 1), ("cha", _CAT, _CAT, 1),
    ("mask.0", _CAT, _CAT, KERNEL), ("mask.1", _CAT, _CAT, KERNEL),
    *((f"regroup.{name}.{i}", CHANNELS, CHANNELS, KERNEL)
      for name in SOURCE_ORDER for i in range(2)),
    ("proj_motion", MOTION_GROUPS * CHANNELS, FUSE_CHANNELS, 1),
    ("proj_static", STATIC_GROUPS * CHANNELS, FUSE_CHANNELS, 1),
    ("head", FUSE_CHANNELS, 1, 1),
)


class FusionError(ValueError):
    pass


@dataclass
class FusionConfig:
    seed: int = 0

    def __post_init__(self):
        check_seed(self.seed, FusionError)


class FusionParams:
    """All learnable state of the fusion pipeline, addressable by name. Each
    conv registers `<name>.weight` (drawn from N(0, INIT_STD)) and a zero
    `<name>.bias` in CONVS order, then the four coefficients follow at 1, so
    the names are in RNG draw order."""

    def __init__(self, cfg: FusionConfig | None = None):
        rng = np.random.default_rng((cfg or FusionConfig()).seed)
        self._params: dict[str, Tensor] = {}
        for name, cin, cout, k in CONVS:
            self._params[f"{name}.weight"] = Tensor(
                rng.normal(0.0, INIT_STD, (cout, cin, k, k)), requires_grad=True)
            self._params[f"{name}.bias"] = Tensor(np.zeros(cout), requires_grad=True)
        for name in COEFFICIENTS:
            self._params[name] = Tensor(np.float64(1.0), requires_grad=True)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def conv(self, name: str, x: Tensor) -> Tensor:
        """The registered conv `name` applied to x."""
        return ad.conv2d(x, self._params[f"{name}.weight"], self._params[f"{name}.bias"])

    def named_parameters(self) -> dict[str, Tensor]:
        return dict(self._params)

    def zero_grad(self):
        for t in self._params.values():
            t.zero_grad()

    def set_coefficients(self, **values: float | None):
        """Set the named COEFFICIENTS to the given values; None leaves one as it is."""
        given = {name: v for name, v in values.items() if v is not None}
        if not (given.keys() <= set(COEFFICIENTS) and all(map(math.isfinite, given.values()))):
            raise FusionError(f"coefficients {COEFFICIENTS} must be finite, got {given}")
        for name, v in given.items():
            self._params[name].data = np.asarray(np.float64(v))


def extract_and_concat(stack: np.ndarray, params: FusionParams) -> Tensor:
    """Run each source's extractor on its channels of the (8, H, W) stack
    (maps.source_stack) and concatenate their outputs channel-wise."""
    shape = np.shape(stack)
    if len(shape) != 3 or shape[0] != STACK_CHANNELS or min(shape[1:]) < 1:
        raise FusionError(f"need a ({STACK_CHANNELS}, H, W) stack with H, W >= 1, "
                          f"got shape {shape}")
    feats = []
    for name, sl in SOURCE_SLICES.items():
        x = params.conv(f"extractor.{name}.0", Tensor(stack[sl]))
        feats.append(params.conv(f"extractor.{name}.1", x))
    return ad.concat(feats, axis=0)


def coordinate_attention(x: Tensor, params: FusionParams) -> Tensor:
    """Directional pooling to (C,H,1) and (C,1,W) profiles, a shared 1x1 conv
    plus sigmoid on each, both broadcast-multiplied into the features."""
    pool_h = ad.mean(x, axis=2)   # (C, H, 1)
    pool_w = ad.mean(x, axis=1)   # (C, 1, W)
    w_h = ad.sigmoid(params.conv("coa", pool_h))
    w_w = ad.sigmoid(params.conv("coa", pool_w))
    return ad.mul(ad.mul(x, w_h), w_w)


def channel_attention(x: Tensor, params: FusionParams) -> Tensor:
    """Global average per channel -> 1x1 conv -> sigmoid -> channel-wise scale."""
    pooled = ad.mean(x, axis=(1, 2))  # (C, 1, 1)
    w = ad.sigmoid(params.conv("cha", pooled))
    return ad.mul(x, w)


def conv_attention(h_cat: Tensor, params: FusionParams) -> Tensor:
    x = params.conv("attn.1", params.conv("attn.0", h_cat))
    return channel_attention(coordinate_attention(x, params), params)


def spatial_mask_fuse(h_agg: Tensor, h_cat: Tensor, alpha: Tensor, beta: Tensor,
                      params: FusionParams) -> Tensor:
    """alpha * Sigmoid(Conv(Conv(h_agg))) (.) h_cat + beta * h_cat."""
    mask = ad.sigmoid(params.conv("mask.1", params.conv("mask.0", h_agg)))
    return ad.add(ad.mul(ad.mul(mask, h_cat), alpha), ad.mul(h_cat, beta))


def split_regroup(h_agg: Tensor, params: FusionParams) -> tuple[Tensor, Tensor]:
    """Split into the five per-source channel groups, conv each, and
    re-concatenate into motion (diff, flow) and static (rgb, depth, density)."""
    if h_agg.shape[0] != _CAT:
        raise FusionError(f"need {_CAT} channels, {CHANNELS} per source group, "
                          f"got {h_agg.shape[0]}")
    groups = []
    for i, name in enumerate(SOURCE_ORDER):
        g = params.conv(f"regroup.{name}.0", ad.narrow(h_agg, 0, i * CHANNELS, CHANNELS))
        groups.append(params.conv(f"regroup.{name}.1", g))
    h_motion = ad.concat(groups[:MOTION_GROUPS], axis=0)
    h_static = ad.concat(groups[MOTION_GROUPS:], axis=0)
    return h_motion, h_static


def motion_static_fuse(h_static: Tensor, h_motion: Tensor,
                       alpha: Tensor, beta: Tensor) -> Tensor:
    """alpha * (h_static (.) h_motion) + beta * h_static."""
    if h_static.shape != h_motion.shape:
        raise FusionError(f"static {h_static.shape} and motion {h_motion.shape} "
                          "branches must match")
    return ad.add(ad.mul(ad.mul(h_static, h_motion), alpha), ad.mul(h_static, beta))


def forward(stack: np.ndarray, params: FusionParams) -> Tensor:
    """Full fusion pipeline; output has FUSE_CHANNELS channels."""
    mask_alpha, mask_beta, blend_alpha, blend_beta = (params[c] for c in COEFFICIENTS)
    h_cat = extract_and_concat(stack, params)
    h_agg = conv_attention(h_cat, params)
    h_agg = spatial_mask_fuse(h_agg, h_cat, mask_alpha, mask_beta, params)
    h_motion, h_static = split_regroup(h_agg, params)
    h_motion = params.conv("proj_motion", h_motion)
    h_static = params.conv("proj_static", h_static)
    return motion_static_fuse(h_static, h_motion, blend_alpha, blend_beta)


def toy_head(h_agg: Tensor, params: FusionParams) -> Tensor:
    """1x1 conv + sigmoid producing a per-pixel head-center score map."""
    return ad.sigmoid(params.conv("head", h_agg))


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
