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

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .maps import SourceStack

SOURCE_ORDER = ("diff", "flow", "rgb", "depth", "density")
SOURCE_CHANNELS = {"diff": 1, "flow": 2, "rgb": 3, "depth": 1, "density": 1}
MOTION_GROUPS = 2   # diff, flow
STATIC_GROUPS = 3   # rgb, depth, density


class FusionError(ValueError):
    pass


@dataclass
class ConvBlock:
    """One stride-1 same-padded convolution with bias."""

    weight: Tensor
    bias: Tensor

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.weight, self.bias)


@dataclass
class FusionConfig:
    channels: int = 4       # per-source extractor output channels
    fuse_channels: int = 8  # common width of the motion/static branches
    kernel: int = 3
    init_std: float = 0.01
    seed: int = 0


class FusionParams:
    """All learnable state of the fusion pipeline, addressable by name."""

    def __init__(self, cfg: FusionConfig | None = None):
        self.cfg = cfg or FusionConfig()
        c, k = self.cfg.channels, self.cfg.kernel
        rng = np.random.default_rng(self.cfg.seed)

        def block(cin, cout, ksize):
            w = Tensor(rng.normal(0.0, self.cfg.init_std, (cout, cin, ksize, ksize)),
                       requires_grad=True)
            b = Tensor(np.zeros(cout), requires_grad=True)
            return ConvBlock(w, b)

        self.extractors = {name: [block(SOURCE_CHANNELS[name], c, k), block(c, c, k)]
                           for name in SOURCE_ORDER}
        cat = 5 * c
        self.attn_convs = [block(cat, cat, k), block(cat, cat, k)]
        self.coa_conv = block(cat, cat, 1)
        self.cha_conv = block(cat, cat, 1)
        self.mask_convs = [block(cat, cat, k), block(cat, cat, k)]
        self.regroup = {name: [block(c, c, k), block(c, c, k)] for name in SOURCE_ORDER}
        self.proj_motion = block(MOTION_GROUPS * c, self.cfg.fuse_channels, 1)
        self.proj_static = block(STATIC_GROUPS * c, self.cfg.fuse_channels, 1)
        self.head_conv = block(self.cfg.fuse_channels, 1, 1)
        self.alpha1 = Tensor(np.float64(1.0), requires_grad=True)
        self.beta1 = Tensor(np.float64(1.0), requires_grad=True)
        self.alpha2 = Tensor(np.float64(1.0), requires_grad=True)
        self.beta2 = Tensor(np.float64(1.0), requires_grad=True)

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}

        def put(prefix, blk):
            out[f"{prefix}.weight"] = blk.weight
            out[f"{prefix}.bias"] = blk.bias

        for name in SOURCE_ORDER:
            for i, blk in enumerate(self.extractors[name]):
                put(f"extractor.{name}.{i}", blk)
        for i, blk in enumerate(self.attn_convs):
            put(f"attn.{i}", blk)
        put("coa", self.coa_conv)
        put("cha", self.cha_conv)
        for i, blk in enumerate(self.mask_convs):
            put(f"mask.{i}", blk)
        for name in SOURCE_ORDER:
            for i, blk in enumerate(self.regroup[name]):
                put(f"regroup.{name}.{i}", blk)
        put("proj_motion", self.proj_motion)
        put("proj_static", self.proj_static)
        put("head", self.head_conv)
        out["alpha1"] = self.alpha1
        out["beta1"] = self.beta1
        out["alpha2"] = self.alpha2
        out["beta2"] = self.beta2
        return out

    def zero_grad(self):
        for t in self.named_parameters().values():
            t.zero_grad()

    def set_coefficients(self, alpha1=None, beta1=None, alpha2=None, beta2=None):
        for name, v in (("alpha1", alpha1), ("beta1", beta1),
                        ("alpha2", alpha2), ("beta2", beta2)):
            if v is not None:
                getattr(self, name).data = np.asarray(np.float64(v))


def stack_to_tensors(stack: SourceStack) -> dict[str, Tensor]:
    """Split a SourceStack into (C, H, W) tensors in pipeline source order."""
    return {
        "diff": Tensor(stack.diff.data.transpose(2, 0, 1)),
        "flow": Tensor(np.stack([stack.flow.u, stack.flow.v])),
        "rgb": Tensor(stack.rgb.data.transpose(2, 0, 1)),
        "depth": Tensor(stack.depth.data.transpose(2, 0, 1)),
        "density": Tensor(stack.density.data.transpose(2, 0, 1)),
    }


def extract_and_concat(stack: SourceStack, params: FusionParams) -> Tensor:
    """Run the five extractors and concatenate their outputs channel-wise."""
    tensors = stack_to_tensors(stack)
    feats = []
    for name in SOURCE_ORDER:
        x = tensors[name]
        blk1, blk2 = params.extractors[name]
        if x.shape[0] != blk1.in_channels:
            raise FusionError(f"source {name!r} has {x.shape[0]} channels, "
                              f"extractor expects {blk1.in_channels}")
        feats.append(blk2(blk1(x)))
    return ad.concat(feats, axis=0)


def coordinate_attention(x: Tensor, params: FusionParams) -> Tensor:
    """Directional pooling to (C,H,1) and (C,1,W) profiles, a shared 1x1 conv
    plus sigmoid on each, both broadcast-multiplied into the features."""
    pool_h = ad.mean(x, axis=2, keepdims=True)   # (C, H, 1)
    pool_w = ad.mean(x, axis=1, keepdims=True)   # (C, 1, W)
    w_h = ad.sigmoid(params.coa_conv(pool_h))
    w_w = ad.sigmoid(params.coa_conv(pool_w))
    return ad.mul(ad.mul(x, w_h), w_w)


def channel_attention(x: Tensor, params: FusionParams) -> Tensor:
    """Global average per channel -> 1x1 conv -> sigmoid -> channel-wise scale."""
    pooled = ad.mean(x, axis=(1, 2), keepdims=True)  # (C, 1, 1)
    w = ad.sigmoid(params.cha_conv(pooled))
    return ad.mul(x, w)


def conv_attention(h_cat: Tensor, params: FusionParams) -> Tensor:
    x = params.attn_convs[1](params.attn_convs[0](h_cat))
    return channel_attention(coordinate_attention(x, params), params)


def spatial_mask_fuse(h_agg: Tensor, h_cat: Tensor, alpha1: Tensor, beta1: Tensor,
                      params: FusionParams) -> Tensor:
    """alpha1 * Sigmoid(Conv(Conv(h_agg))) (.) h_cat + beta1 * h_cat."""
    mask = ad.sigmoid(params.mask_convs[1](params.mask_convs[0](h_agg)))
    return ad.add(ad.scale(ad.mul(mask, h_cat), alpha1), ad.scale(h_cat, beta1))


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
    return ad.add(ad.scale(ad.mul(h_static, h_motion), alpha2),
                  ad.scale(h_static, beta2))


def forward(stack: SourceStack, params: FusionParams) -> Tensor:
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


def loss_for(stack: SourceStack, params: FusionParams) -> Tensor:
    return ad.tsum(toy_head(forward(stack, params), params))


def grad_check(params: FusionParams, stack: SourceStack, epsilon: float = 1e-5,
               samples_per_param: int = 4, seed: int = 0) -> float:
    """Max relative error between analytic gradients and central differences,
    on randomly sampled coordinates of every parameter."""
    if not (1e-6 <= epsilon <= 1e-4):
        raise ValueError("epsilon must be in [1e-6, 1e-4]")
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


def save_params(dirpath, params: FusionParams) -> None:
    """One raw float64 blob per named parameter plus a JSON manifest."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    manifest = {"config": {"channels": params.cfg.channels,
                           "fuse_channels": params.cfg.fuse_channels,
                           "kernel": params.cfg.kernel,
                           "init_std": params.cfg.init_std,
                           "seed": params.cfg.seed},
                "parameters": []}
    for name, t in params.named_parameters().items():
        fname = name.replace(".", "_") + ".bin"
        (d / fname).write_bytes(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
        manifest["parameters"].append({"name": name, "file": fname,
                                       "shape": list(t.data.shape)})
    (d / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_params(dirpath) -> FusionParams:
    """Read what `save_params` wrote. Raises ValueError unless the manifest
    names exactly the parameters its config allocates, each with that shape
    and a blob of that many float64 values."""
    d = Path(dirpath)
    manifest = json.loads((d / "manifest.json").read_text())
    params = FusionParams(FusionConfig(**manifest["config"]))
    named = params.named_parameters()
    entries = manifest["parameters"]
    names = [entry["name"] for entry in entries]
    if len(names) != len(named) or set(names) != set(named):
        raise ValueError("manifest parameters are not the model's: "
                         f"missing {sorted(set(named) - set(names))}, "
                         f"unknown {sorted(map(str, set(names) - set(named)))}, "
                         f"{len(names)} entries for {len(named)} parameters")
    for entry in entries:
        t = named[entry["name"]]
        shape = tuple(entry["shape"])
        if shape != t.data.shape:
            raise ValueError(f"parameter {entry['name']}: stored shape {shape}, "
                             f"the config gives {t.data.shape}")
        blob = (d / entry["file"]).read_bytes()
        if len(blob) != 8 * t.data.size:
            raise ValueError(f"parameter {entry['name']}: {len(blob)} bytes in "
                             f"{entry['file']}, shape {shape} needs {8 * t.data.size}")
        t.data = np.frombuffer(blob, dtype="<f8").reshape(shape).copy()
    return params
