"""Walkthrough: the attention-based fusion pipeline and its autodiff layer.

Five pseudo-siamese extractors map the source stack into a shared feature
space; coordinate/channel attention and a sigmoid spatial mask reweight the
concatenated features; motion and static branches are blended with a
Hadamard product. Four scalar coefficients (alpha1, beta1, alpha2, beta2)
control the two blend stages and default to 1.
"""
import numpy as np

from headtrack import autodiff as ad
from headtrack.fusion import (
    INIT_STD,
    FusionConfig,
    FusionParams,
    conv_attention,
    extract_and_concat,
    forward,
    grad_check,
    loss_for,
    spatial_mask_fuse,
    toy_head,
)
from headtrack.maps import source_stack

# The fusion input is one (8, H, W) array; source_stack checks each map's size
# and channel count and writes it into its channels (maps.SOURCE_SLICES).
rng = np.random.default_rng(0)
H = W = 8
stack = source_stack({
    "rgb": rng.random((H, W, 3)),
    "diff": rng.random((H, W)),
    "flow": rng.standard_normal((H, W, 2)),
    "depth": rng.random((H, W)),
    "density": rng.random((H, W))})

# The architecture is fixed (fusion.CONVS); only the seed is set. Scale the
# drawn weights up from INIT_STD to 0.15 so the gradients below sit well above
# the finite-difference roundoff floor.
params = FusionParams(FusionConfig(seed=1))
for name, t in params.named_parameters().items():
    if name.endswith("weight"):
        t.data *= 0.15 / INIT_STD
fused = forward(stack, params)
print(f"fused features: {fused.shape} (FUSE_CHANNELS x H x W)")
score_map = toy_head(fused, params)
print(f"toy head-score map: {score_map.shape}, values in "
      f"({score_map.data.min():.3f}, {score_map.data.max():.3f})")

# Identity reduction: with alpha1=0, beta1=1 the spatial-mask stage passes
# the concatenated features through bitwise unchanged.
h_cat = extract_and_concat(stack, params)
h_agg = conv_attention(h_cat, params)
passthrough = spatial_mask_fuse(h_agg, h_cat,
                                ad.Tensor(np.float64(0.0)),
                                ad.Tensor(np.float64(1.0)), params)
print(f"\nalpha1=0, beta1=1 passthrough bitwise equal: "
      f"{np.array_equal(passthrough.data, h_cat.data)}")

# Every parameter is differentiable; backprop a scalar loss and look at a
# coefficient gradient with a known closed form.
params.zero_grad()
out = spatial_mask_fuse(h_agg, h_cat, params["alpha1"], params["beta1"], params)
ad.tsum(out).backward()
print(f"d(sum)/d(beta1) = {float(params['beta1'].grad):.6f}, "
      f"sum(h_cat) = {float(h_cat.data.sum()):.6f} (must match)")

# Full-pipeline check against central finite differences.
params.zero_grad()
loss = loss_for(stack, params)
print(f"\ntoy loss: {float(loss.data):.6f}")
err = grad_check(params, stack, samples_per_param=2, seed=0)
print(f"max relative error, analytic vs finite differences: {err:.2e}")
