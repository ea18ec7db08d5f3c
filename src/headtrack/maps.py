"""Five-source input maps and the fusion input stack.

Frame difference and block-matching optical flow are computed directly from
the image pair. Depth and density come from providers (small synthesizers);
exported outputs of real estimators load with load_map. Every map is a plain
float64 array, (H, W) or channel-last (H, W, C). source_stack checks that the
five maps share the frame size and writes them into one (8, H, W) array, in
the channel layout SOURCE_SLICES that the fusion reads.

Map file format: raw little-endian 32-bit floats, row-major, channel-major
planes, with a JSON sidecar {"width": W, "height": H, "channels": C} at
<path>.json. Writer and reader are bit-exact inverses.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.ndimage import uniform_filter1d

from .geometry import BBox

LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])
# Optical flow: odd SAD block side, search radius per pyramid level, and
# pyramid levels.
BLOCK_SIZE, SEARCH_RADIUS, LEVELS = 5, 4, 3
# Channels of each source in the (8, H, W) fusion input, in fusion order.
SOURCE_SLICES = {"diff": slice(0, 1), "flow": slice(1, 3), "rgb": slice(3, 6),
                 "depth": slice(6, 7), "density": slice(7, 8)}
STACK_CHANNELS = max(sl.stop for sl in SOURCE_SLICES.values())  # 8


class MapError(ValueError):
    pass


@dataclass
class ImageFrame:
    """A single- or three-channel image, values nominally in [0, 1]."""

    data: np.ndarray  # (H, W, C)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim == 2:
            self.data = self.data[:, :, None]
        if self.data.ndim != 3 or self.data.shape[2] not in (1, 3):
            raise MapError(f"image must be (H, W, 1|3), got shape {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise MapError("image contains non-finite values")

    def luminance(self) -> np.ndarray:
        """(H, W) grayscale view; Rec.601 weights for RGB input."""
        if self.data.shape[2] == 1:
            return self.data[:, :, 0]
        return self.data @ LUMA_WEIGHTS


def frame_difference(curr: ImageFrame, prev: ImageFrame) -> np.ndarray:
    """(H, W) per-pixel absolute luminance difference |curr - prev|."""
    if curr.data.shape[:2] != prev.data.shape[:2]:
        raise MapError("frame_difference: dimension mismatch")
    return np.abs(curr.luminance() - prev.luminance())


def _downsample2(img: np.ndarray) -> np.ndarray:
    """2x2 block means; an odd last row or column is repeated to fill its blocks."""
    h, w = img.shape
    img = np.pad(img, ((0, h % 2), (0, w % 2)), mode="edge")
    return img.reshape((h + 1) // 2, 2, (w + 1) // 2, 2).mean(axis=(1, 3))


def _match_level(curr: np.ndarray, prev: np.ndarray, init_u: np.ndarray,
                 init_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One SAD block-matching pass over every displacement any pixel may take.

    A pixel may take a displacement within SEARCH_RADIUS of zero or of its own
    initial estimate, so a bad coarse-level guess cannot push the refinement
    out of reach. Displacements are visited once each in the global order
    (u^2 + v^2, u, v), so each pixel keeps the first strict minimum over its
    own candidates: ties go to the smaller magnitude, then lexicographic (u, v).
    """
    r, half = SEARCH_RADIUS, BLOCK_SIZE // 2
    h, w = curr.shape
    window = [(du, dv) for dv in range(-r, r + 1) for du in range(-r, r + 1)]
    # the estimates are integer-valued: pack each (u, v) into one key whose
    # ascending order is the lexicographic (u, v) order
    iu, iv = init_u.astype(np.intp).ravel(), init_v.astype(np.intp).ravel()
    u_min, v_min = iu.min(), iv.min()
    span_v = iv.max() - v_min + 1
    keys, which = np.unique((iu - u_min) * span_v + (iv - v_min), return_inverse=True)
    starts = np.column_stack([keys // span_v + u_min, keys % span_v + v_min])
    which = which.reshape(h, w)
    cands = np.array(sorted({(u0 + du, v0 + dv)
                             for u0, v0 in [(0, 0), *starts.tolist()]
                             for du, dv in window},
                            key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1])))
    # near[i, e]: pixels whose estimate is starts[e] may take cands[i]; every
    # pixel may take a displacement in the zero window. A displacement is
    # matched only in the rectangle rows [y0, y1) x columns [0, x1) spanned by
    # the pixels that may take it.
    zero = np.abs(cands).max(axis=1) <= r
    near = np.all(np.abs(cands[:, None, :] - starts[None, :, :]) <= r, axis=-1)
    near[zero] = True
    ys, xs = np.indices((h, w))
    n = len(starts)
    lo_y, hi_y, hi_x = np.full(n, h), np.zeros(n, int), np.zeros(n, int)
    np.minimum.at(lo_y, which, ys)
    np.maximum.at(hi_y, which, ys + 1)
    np.maximum.at(hi_x, which, xs + 1)
    y0 = np.where(near, lo_y, h).min(axis=1)
    y1 = np.where(near, hi_y, 0).max(axis=1)
    x1 = np.where(near, hi_x, 0).max(axis=1)
    # edge-padded prev: the slice below is prev shifted forward by (u, v),
    # out[y, x] = prev[clip(y - v), clip(x - u)]
    pad = int(np.abs(cands).max())
    padded = np.pad(prev, pad, mode="edge")
    best_cost = np.full(curr.shape, np.inf)
    best = np.zeros(curr.shape, dtype=np.intp)
    # each SAD map lives in contiguous prefixes of two flat buffers: filtering
    # into a contiguous output is about twice as fast as into a strided view
    buf_a, buf_b = np.empty(h * w), np.empty(h * w)
    for i, (u, v, ya, yb, xb) in enumerate(np.column_stack([cands, y0, y1, x1]).tolist()):
        # uniform_filter1d is a running sum from the start of each line, so a
        # prefix of a line filters to the same bits as the whole line
        ry, rx = min(h, yb + half), min(w, xb + half)
        diff = buf_a[:ry * rx].reshape(ry, rx)
        np.subtract(curr[:ry, :rx], padded[pad - v:pad - v + ry, pad - u:pad - u + rx], out=diff)
        np.abs(diff, out=diff)
        cols = buf_b[:ry * rx].reshape(ry, rx)
        uniform_filter1d(diff, BLOCK_SIZE, axis=0, output=cols, mode="nearest")
        sad = buf_a[:(yb - ya) * rx].reshape(yb - ya, rx)
        uniform_filter1d(cols[ya:yb], BLOCK_SIZE, axis=1, output=sad, mode="nearest")
        sad = sad[:, :xb]
        cost = best_cost[ya:yb, :xb]
        better = sad < cost
        if not zero[i]:
            better &= near[i][which[ya:yb, :xb]]
        np.copyto(cost, sad, where=better)
        np.copyto(best[ya:yb, :xb], i, where=better)
    return cands[best, 0].astype(np.float64), cands[best, 1].astype(np.float64)


def optical_flow(curr: ImageFrame, prev: ImageFrame) -> np.ndarray:
    """Coarse-to-fine block matching with SAD cost and integer displacements,
    at one fixed setting: 5x5 blocks (BLOCK_SIZE), a search radius of 4 pixels
    per level (SEARCH_RADIUS) and up to 3 pyramid levels (LEVELS), fewer when a
    coarser level would be smaller than one block.

    Returns the (H, W, 2) per-pixel displacement (u, v) in pixels/frame:
    pixel p in the current frame matches p - (u, v) in the previous one.
    """
    if curr.data.shape[:2] != prev.data.shape[:2]:
        raise MapError("optical_flow: dimension mismatch")
    if min(curr.data.shape[:2]) < BLOCK_SIZE:
        raise MapError("optical_flow: frame smaller than one block")
    pyr_curr = [curr.luminance()]
    pyr_prev = [prev.luminance()]
    for _ in range(LEVELS - 1):
        if min(pyr_curr[-1].shape) // 2 < BLOCK_SIZE:
            break
        pyr_curr.append(_downsample2(pyr_curr[-1]))
        pyr_prev.append(_downsample2(pyr_prev[-1]))
    u = np.zeros(pyr_curr[-1].shape)
    v = np.zeros(pyr_curr[-1].shape)
    for level in range(len(pyr_curr) - 1, -1, -1):
        c, p = pyr_curr[level], pyr_prev[level]
        if u.shape != c.shape:  # upsample estimate from the coarser level
            u = 2.0 * np.repeat(np.repeat(u, 2, axis=0), 2, axis=1)[:c.shape[0], :c.shape[1]]
            v = 2.0 * np.repeat(np.repeat(v, 2, axis=0), 2, axis=1)[:c.shape[0], :c.shape[1]]
        u, v = _match_level(c, p, u, v)
    return np.stack([u, v], axis=2)


def density_from_boxes(boxes: list[BBox], dims: tuple[int, int]) -> np.ndarray:
    """(H, W) sum of unit-mass isotropic Gaussians at box centers.

    sigma = 0.3 * min(w, h), truncated at 3 sigma, normalized over the
    truncated support so each fully visible box contributes mass 1.
    """
    h, w = dims
    out = np.zeros((h, w))
    for b in boxes:
        cx, cy = b.center
        sigma = 0.3 * min(b.width, b.height)
        rad = 3.0 * sigma
        x0, x1 = int(np.floor(cx - rad)), int(np.ceil(cx + rad)) + 1
        y0, y1 = int(np.floor(cy - rad)), int(np.ceil(cy + rad)) + 1
        xs = np.arange(x0, x1)
        ys = np.arange(y0, y1)
        dx2 = (xs - cx) ** 2
        dy2 = (ys - cy) ** 2
        kern = np.exp(-(dy2[:, None] + dx2[None, :]) / (2.0 * sigma * sigma))
        kern[dy2[:, None] + dx2[None, :] > rad * rad] = 0.0
        total = kern.sum()
        if total <= 0:
            continue
        kern /= total
        # clip the kernel window to the image
        sy0, sy1 = max(0, -y0), (y1 - y0) - max(0, y1 - h)
        sx0, sx1 = max(0, -x0), (x1 - x0) - max(0, x1 - w)
        if sy1 <= sy0 or sx1 <= sx0:
            continue
        out[max(0, y0):max(0, y0) + (sy1 - sy0),
            max(0, x0):max(0, x0) + (sx1 - sx0)] += kern[sy0:sy1, sx0:sx1]
    return out


def synth_depth(dims: tuple[int, int]) -> np.ndarray:
    """(H, W) depth rising linearly from 0 on the top row to 1 on the bottom row."""
    h, w = dims
    col = np.arange(h) / (h - 1) if h > 1 else np.zeros(1)
    return np.tile(col[:, None], (1, w))


def save_map(path, data: np.ndarray) -> None:
    """Write a raw float32 map with its JSON sidecar. Raises MapError, before
    writing, on a value that is not finite as a float32."""
    with np.errstate(over="ignore"):
        arr = np.asarray(data, dtype=np.float32)
    if not np.all(np.isfinite(arr)):
        raise MapError(f"{path}: map has values that are not finite as float32")
    if arr.ndim == 2:
        arr = arr[:, :, None]
    planes = np.ascontiguousarray(arr.transpose(2, 0, 1))  # channel-major
    path = Path(path)
    path.write_bytes(planes.astype("<f4").tobytes())
    sidecar = {"width": arr.shape[1], "height": arr.shape[0], "channels": arr.shape[2]}
    Path(str(path) + ".json").write_text(json.dumps(sidecar))


def load_map(path) -> np.ndarray:
    """Read a raw float32 map as a finite (H, W, C) float64 array with any
    number of channels."""
    path = Path(path)
    sidecar_path = Path(str(path) + ".json")
    if not path.exists() or not sidecar_path.exists():
        raise MapError(f"map file or sidecar missing: {path}")
    try:
        meta = json.loads(sidecar_path.read_text())
        h, w, c = (meta[k] for k in ("height", "width", "channels"))
    except (ValueError, KeyError, TypeError) as e:
        raise MapError(f"{sidecar_path}: bad sidecar ({e!r})") from None
    if not all(type(v) is int and v >= 1 for v in (h, w, c)):
        raise MapError(f"{sidecar_path}: height, width and channels must be integers >= 1")
    payload = path.read_bytes()
    if len(payload) != 4 * h * w * c:
        raise MapError(f"{path}: map payload has {len(payload)} bytes, expected {4 * h * w * c}")
    raw = np.frombuffer(payload, dtype="<f4")
    if not np.all(np.isfinite(raw)):
        raise MapError(f"{path}: map contains non-finite values")
    return raw.reshape(c, h, w).transpose(1, 2, 0).astype(np.float64)


Provider = Callable[[int, int], np.ndarray]


def synth_depth_provider() -> Provider:
    return lambda h, w: synth_depth((h, w))


def density_provider(boxes: list[BBox]) -> Provider:
    return lambda h, w: density_from_boxes(boxes, (h, w))


def motion_maps(curr: ImageFrame, prev: ImageFrame | None) -> tuple[np.ndarray, np.ndarray]:
    """Frame difference and optical flow of curr against prev. With no
    predecessor frame both are zero maps (the neutral element for the
    downstream fusion)."""
    if prev is None:
        h, w = curr.data.shape[:2]
        return np.zeros((h, w)), np.zeros((h, w, 2))
    return frame_difference(curr, prev), optical_flow(curr, prev)


def source_stack(sources: dict[str, np.ndarray]) -> np.ndarray:
    """Write each source map, (H, W) or channel-last (H, W, C), into its
    SOURCE_SLICES channels of one (8, H, W) float64 array. Raises MapError
    naming the first map whose size differs from rgb's or whose channel count
    differs from its slice's."""
    h, w = np.shape(sources["rgb"])[:2]
    stack = np.empty((STACK_CHANNELS, h, w))
    for name, sl in SOURCE_SLICES.items():
        m = np.asarray(sources[name])
        m = m[:, :, None] if m.ndim == 2 else m
        if m.ndim != 3 or m.shape[:2] != (h, w):
            raise MapError(f"{name} map has shape {m.shape}, expected {h}x{w}")
        if m.shape[2] != sl.stop - sl.start:
            raise MapError(f"{name} map must have {sl.stop - sl.start} channel(s)")
        stack[sl] = m.transpose(2, 0, 1)
    return stack


def build_stack(curr: ImageFrame, prev: ImageFrame | None,
                depth_provider: Provider, density_provider: Provider) -> np.ndarray:
    """The (8, H, W) fusion input for one frame (see motion_maps); a gray
    frame gives three equal rgb planes."""
    diff, flow = motion_maps(curr, prev)
    h, w = curr.data.shape[:2]
    return source_stack({"diff": diff, "flow": flow, "rgb": np.broadcast_to(curr.data, (h, w, 3)),
                         "depth": depth_provider(h, w), "density": density_provider(h, w)})
