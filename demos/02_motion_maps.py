"""Walkthrough: the five-source input stack.

A bright square slides across a noisy background; we compute the frame
difference and block-matching optical flow, add a synthetic depth map and a
Gaussian head-density map, and assemble everything into the fusion input:
one (8, H, W) array whose channel layout is SOURCE_SLICES.
"""
import numpy as np

from headtrack.geometry import BBox
from headtrack.maps import (
    SOURCE_SLICES,
    ImageFrame,
    build_stack,
    density_from_boxes,
    density_provider,
    frame_difference,
    optical_flow,
    synth_depth_provider,
)

rng = np.random.default_rng(0)
H = W = 64

background = rng.random((H, W)) * 0.2
# the patch needs internal texture: block matching cannot see the motion of
# a uniformly bright region (the aperture problem)
patch = rng.random((12, 12)) * 0.6 + 0.4


def scene(square_x):
    img = background.copy()
    img[20:32, square_x:square_x + 12] = patch
    return ImageFrame(img)


prev, curr = scene(20), scene(23)

diff = frame_difference(curr, prev)
print(f"frame difference: nonzero at {np.count_nonzero(diff)} pixels "
      f"(only where the moving square passed)")

flow = optical_flow(curr, prev)
# flow is (H, W, 2): pixel p of curr matches p - (u, v) in prev
inside = flow[22:30, 24:32]
print(f"flow on the square: median (u, v) = "
      f"({np.median(inside[:, :, 0]):.0f}, {np.median(inside[:, :, 1]):.0f}) "
      "px/frame (true motion is +3, 0)")

# Density: one unit-mass Gaussian blob per annotated head.
heads = [BBox(10, 10, 10, 10), BBox(40, 30, 12, 12), BBox(25, 48, 9, 9)]
density = density_from_boxes(heads, (H, W))
print(f"density map mass: {density.sum():.4f} for {len(heads)} heads")

# build_stack wires all five sources together for one frame; a gray frame
# fills the three rgb channels with the same plane.
stack = build_stack(curr, prev,
                    depth_provider=synth_depth_provider(),
                    density_provider=density_provider(heads))
print(f"\nstack {stack.shape} (channels x H x W):")
for name, sl in SOURCE_SLICES.items():
    m = stack[sl]
    print(f"  {name:8s} channels {sl.start}-{sl.stop - 1}, range "
          f"[{m.min():.3f}, {m.max():.3f}]")

# The very first frame of a sequence has no predecessor: motion maps are zero.
first = build_stack(curr, None,
                    depth_provider=synth_depth_provider(),
                    density_provider=density_provider(heads))
print(f"\nfirst frame: diff max {first[SOURCE_SLICES['diff']].max()}, "
      f"|flow| max {np.abs(first[SOURCE_SLICES['flow']]).max()} (neutral zeros)")
