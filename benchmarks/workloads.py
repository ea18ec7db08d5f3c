"""The three benchmark workloads.

Each workload builds its inputs from the seed in `setup`, runs one job of
timed public calls in `job`, and checks that job's outputs in `verify`
(outside the timed region). Every job of a run replays the same inputs, so
every job must give the same digest; on the golden seeds it must also equal
the recorded digest.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from headtrack import autodiff as ad
from headtrack import cli, fusion, maps, metrics, simulate, tracker
from headtrack.motio import AnnotationRecord


class CheckFailed(Exception):
    """A job's outputs broke an invariant or differ from the expected digest."""


# Host speed probes. On a shared host, speed can drift by up to a factor of
# two over seconds to minutes (measured on a 2-core Xeon VM), so a whole run
# can read slow (see NOTES.md, Run-to-run spread). A probe is a fixed piece of
# work that is no headtrack code, timed after every timed call; the runner
# scales the job and set-up times by the probe's median time in the same run.
# Each workload's probe does the kind of work its job spends its time in,
# because the host slows kinds of work by different factors: interpreted
# Python for the tracking workloads, array arithmetic on frame-sized arrays
# for maps_fusion. A workload's probe_ref_s is about its probe's median time
# on the 2-core Xeon VM the benchmark was sized on, so that the scaled timings
# read close to wall-clock ones there.
def interp_probe() -> int:
    s = 0
    for i in range(10_000):
        s += i * i % 7
    return s


FRAME_DIMS = (96, 128)
_PROBE_A, _PROBE_B = np.random.default_rng(0).random((2, *FRAME_DIMS))


def array_probe() -> np.ndarray:
    """A few steps of block-matching-like work: shifted differences, a
    comparison and a masked store."""
    best = np.full(FRAME_DIMS, np.inf)
    for d in range(4):
        sad = np.abs(_PROBE_A - np.roll(_PROBE_B, d, axis=1))
        better = sad < best
        best[better] = sad[better]
    return best


class Ops:
    """Counts and times the timed public calls of a run. A call fails if it
    raises or, for a CLI command, returns non-zero; the runner also fails every
    call of a job whose outputs do not check. After each call, outside its
    timing, the workload's host speed probe runs once and is timed."""

    def __init__(self, probe):
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0           # summed wall time of the calls
        self.cycle_garbage = 0      # objects freed by `collect`
        self.probe = probe
        self.probe_s: list[float] = []

    def __call__(self, fn, *args):
        self.attempted += 1
        t = time.perf_counter()
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            raise
        finally:
            t1 = time.perf_counter()
            self.busy_s += t1 - t
            self.probe()
            self.probe_s.append(time.perf_counter() - t1)

    def collect(self) -> None:
        """Run the cycle collector between calls, outside the timed region."""
        self.cycle_garbage += gc.collect()

    def cli(self, argv: list[str]) -> str:
        """Run one `headtrack` command in-process; returns its stdout."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self(cli.main, argv)
        if rc != 0:
            self.failed += 1
            raise RuntimeError(f"headtrack {argv[0]} exited {rc}")
        return buf.getvalue()


@dataclass
class Checked:
    frames: int            # sequence frames the job pushed through
    digest: str
    report: dict | None    # MotReport fields, on the tracking workloads


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
        h.update(b"\0")
    return h.hexdigest()


def _report_bytes(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True).encode()


def check_report(report: dict, n_gt: int, n_pred: int, gt_ids: int) -> None:
    """MotReport fields must agree with each other and with the box counts."""
    fn, fp, ids = report["FN"], report["FP"], report["IDs"]
    tp = n_gt - fn
    problems = []
    if not 0 <= tp <= min(n_gt, n_pred) or tp + fp != n_pred:
        problems.append(f"TP {tp}, FP {fp} do not add up to {n_pred} predictions")
    if not math.isclose(report["MOTA"], 1.0 - (fn + fp + ids) / n_gt, abs_tol=1e-12):
        problems.append("MOTA disagrees with FN + FP + IDs")
    if not math.isclose(report["Rcll"], tp / n_gt, abs_tol=1e-12):
        problems.append("Rcll disagrees with TP / GT")
    if report["MT"] + report["PT"] + report["ML"] != gt_ids:
        problems.append(f"MT + PT + ML != {gt_ids} ground-truth ids")
    if not all(0.0 <= report[k] <= 1.0 for k in ("IDF1", "IDP", "IDR", "Rcll", "Prcn")):
        problems.append("a ratio lies outside [0, 1]")
    if problems:
        raise CheckFailed("; ".join(problems))


def check_rows(keys: list[tuple[int, int]], frames: int) -> None:
    """Tracker rows: one row per (frame, id), frames inside the sequence."""
    if len(set(keys)) != len(keys):
        raise CheckFailed("duplicate (frame, track id) in tracker output")
    if not all(1 <= f <= frames and t >= 1 for f, t in keys):
        raise CheckFailed("tracker row outside the sequence")


def tracking_digest(rows: list[AnnotationRecord], report: dict) -> str:
    text = "".join(f"{r.frame},{r.track_id},{r.bbox.left!r},{r.bbox.top!r},"
                   f"{r.bbox.width!r},{r.bbox.height!r},{r.confidence!r}\n" for r in rows)
    return _sha(text.encode(), _report_bytes(report))


# Detector noise for the dense scene: misses, false positives and an
# occlusion score drop push many true heads into the low-score band, so
# Byte's second association stage has work to do.
DENSE_NOISE = dict(miss_rate=0.1, fp_rate=5.0, center_jitter=1.0, size_jitter=0.5,
                   tp_score=(0.85, 0.1), occlusion_drop=0.5)


class DenseByte:
    """Library pipeline simulate -> corrupt -> Tracker.step (byte) -> evaluate
    at the paper's Roof(+) density of about 90 heads per frame."""

    name = "dense90_byte"
    probe = staticmethod(interp_probe)
    probe_ref_s = 0.0007

    def __init__(self, heads: int = 90, frames: int = 20):  # selftest shrinks it
        self.heads, self.frames = heads, frames

    def setup(self, seed: int, workdir: Path):
        return (simulate.ScenarioConfig(agent_count=self.heads, duration=self.frames,
                                        seed=seed),
                simulate.NoiseModel(**DENSE_NOISE, seed=seed))

    def job(self, state, ops: Ops):
        scen, noise = state
        gt, _ = ops(simulate.simulate, scen)
        dets = ops(simulate.corrupt, gt, noise)
        trk = tracker.Tracker(tracker.TrackerConfig(mode="byte"))
        outputs = []
        for frame in sorted(dets):
            outputs.extend(ops(trk.step, frame, dets[frame]))
        pred = tracker.outputs_to_records(outputs)
        return gt, pred, ops(metrics.evaluate, gt, pred)

    def verify(self, state, out) -> Checked:
        gt, pred, report = out
        report = report.as_dict()
        check_rows([(r.frame, r.track_id) for r in pred], self.frames)
        check_report(report, len(gt), len(pred), self.heads)
        return Checked(self.frames, tracking_digest(pred, report), report)


SPARSE_HEADS, SPARSE_FRAMES = 20, 150
SPARSE_SCENARIO = f"agent_count={SPARSE_HEADS}\nduration={SPARSE_FRAMES}\n"
SPARSE_NOISE = ("miss_rate=0.05\nfp_rate=0.5\ncenter_jitter=0.5\nsize_jitter=0.3\n"
                "tp_score=0.9,0.05\nocclusion_drop=0.7\n")


class SparseCli:
    """`headtrack gen-scenario -> track --mode sort -> evaluate` on files, run
    in-process through cli.main, at 20 heads per frame with mild noise. The
    sequence is 150 frames, so that a run has many jobs to take a median of."""

    name = "sparse20_cli"
    probe = staticmethod(interp_probe)
    probe_ref_s = 0.0007

    def setup(self, seed: int, workdir: Path):
        scen, noise = workdir / "scenario.cfg", workdir / "noise.cfg"
        scen.write_text(SPARSE_SCENARIO)
        noise.write_text(SPARSE_NOISE)
        return seed, workdir, scen, noise

    def job(self, state, ops: Ops):
        seed, workdir, scen, noise = state
        gt, dets, tracked = (str(workdir / n) for n in ("gt.txt", "dets.txt", "tracked.txt"))
        ops.cli(["gen-scenario", "--config", str(scen), "--noise", str(noise),
                 "--seed", str(seed), "--out-gt", gt, "--out-dets", dets])
        ops.cli(["track", "--dets", dets, "--mode", "sort", "--out", tracked])
        return ops.cli(["evaluate", "--gt", gt, "--pred", tracked, "--json"])

    def verify(self, state, out) -> Checked:
        _, workdir, _, _ = state
        report = json.loads(out)["gt"]
        files = [(workdir / n).read_bytes() for n in ("gt.txt", "dets.txt", "tracked.txt")]
        rows = files[2].decode().splitlines()
        # paper field order: track id first, then frame
        check_rows([(int(r.split(",", 2)[1]), int(r.split(",", 2)[0])) for r in rows],
                   SPARSE_FRAMES)
        check_report(report, files[0].count(b"\n"), len(rows), SPARSE_HEADS)
        return Checked(SPARSE_FRAMES, _sha(*files, _report_bytes(report)), report)


def render_frames(gt: list[AnnotationRecord], dims: tuple[int, int], frames: range,
                  seed: int) -> list[maps.ImageFrame]:
    """Colour images of the given frames of a crowd: a smooth random
    background with each head drawn as a disc carrying a stripe texture that
    moves with it, so block matching has motion to find."""
    h, w = dims
    rng = np.random.default_rng(seed)
    background = gaussian_filter(rng.random((h, w, 3)), (2.0, 2.0, 0.0))
    yy, xx = np.mgrid[0:h, 0:w]
    by_frame: dict[int, list] = {}
    for r in gt:
        by_frame.setdefault(r.frame, []).append(r.bbox)
    images = []
    for f in frames:
        img = background.copy()
        for b in by_frame[f]:
            cx, cy = b.center
            inside = (xx - cx) ** 2 + (yy - cy) ** 2 <= (b.width / 2.0) ** 2
            stripe = 0.15 + 0.1 * np.sin(0.8 * (xx[inside] - cx)) \
                + 0.05 * np.cos(0.6 * (yy[inside] - cy))
            img[inside] = stripe[:, None]
        images.append(maps.ImageFrame(img))
    return images


def _quantized(a: np.ndarray) -> bytes:
    """Array bytes rounded to 2**-20 of the array's power-of-two scale, so the
    digest ignores last-bit summation-order noise."""
    scale = 2.0 ** math.ceil(math.log2(max(float(np.abs(a).max()), 1e-300)))
    return np.round(a / scale * 2 ** 20).astype(np.int64).tobytes()


# Each rendered pair is taken once its crowd has settled: the first steps of a
# simulation push overlapping heads apart, and their flow costs several times
# a settled frame's.
SETTLE_FRAMES = 30
# One frame pair per crowd; the crowds are also tracked for mota/idf1.
CROWDS, CROWD_HEADS, CROWD_FRAMES = 6, 30, 100


class MapsFusion:
    """Per frame: maps.build_stack (difference, optical flow, density,
    synthetic depth), then fusion forward and Tensor.backward on the fusion
    loss, on frames rendered in set-up from simulated crowds.

    The flow's cost grows with the number of distinct motions in a frame, so
    each frame pair comes from its own crowd of many small heads; a job then
    averages over several crowd layouts and costs about the same on every
    seed."""

    name = "maps_fusion"
    probe = staticmethod(array_probe)
    probe_ref_s = 0.00075

    def setup(self, seed: int, workdir: Path):
        h, w = FRAME_DIMS
        crowds, pairs = [], []
        shown = range(SETTLE_FRAMES + 1, SETTLE_FRAMES + 3)
        for s in range(seed * CROWDS, (seed + 1) * CROWDS):
            gt, _ = simulate.simulate(simulate.ScenarioConfig(
                arena=(w, h), agent_count=CROWD_HEADS, head_size_range=(10.0, 16.0),
                duration=CROWD_FRAMES, seed=s))
            prev, curr = render_frames(gt, FRAME_DIMS, shown, s)
            pairs.append((prev, curr, [r.bbox for r in gt if r.frame == shown[1]]))
            crowds.append((s, gt))
        params = fusion.FusionParams(fusion.FusionConfig(seed=seed))
        return crowds, pairs, params

    @staticmethod
    def _forward_backward(stack, params):
        # loss_for's composition, kept open so the fused output is returned too
        params.zero_grad()
        fused = fusion.forward(stack, params)
        ad.tsum(fusion.toy_head(fused, params)).backward()
        return fused.data, [float(np.linalg.norm(t.grad)) if t.grad is not None else -1.0
                            for t in params.named_parameters().values()]

    def job(self, state, ops: Ops):
        _, pairs, params = state
        out = []
        for prev, curr, boxes in pairs:
            stack = ops(maps.build_stack, curr, prev, maps.synth_depth_provider(),
                        maps.density_provider(boxes))
            out.append(ops(self._forward_backward, stack, params))
            # The autograd graph is freed only by the cycle collector. Running
            # it here makes peak RSS one frame's live memory instead of
            # depending on when CPython's collector happens to run; the
            # objects it frees are reported as autodiff.graph_cycle_objects.
            ops.collect()
        return out

    def verify(self, state, out) -> Checked:
        h, w = FRAME_DIMS
        parts = []
        for fused, norms in out:
            if fused.shape[1:] != (h, w) or not np.all(np.isfinite(fused)):
                raise CheckFailed(f"fused output has shape {fused.shape} or is not finite")
            if not all(math.isfinite(n) and n >= 0.0 for n in norms):
                raise CheckFailed("a parameter got no finite gradient")
            parts += [_quantized(fused), ",".join(f"{n:.9g}" for n in norms).encode()]
        return Checked(CROWDS, _sha(*parts), None)

    def track_report(self, state) -> dict:
        """MotReport of byte tracking every crowd's detections, aggregated over
        the crowds. The runner calls it after the timed window, so it never
        moves this workload's timings."""
        crowds, _, _ = state
        sequences = []
        for s, gt in crowds:
            dets = simulate.corrupt(gt, simulate.NoiseModel(**DENSE_NOISE, seed=s))
            pred = tracker.outputs_to_records(
                tracker.run_tracker(dets, tracker.TrackerConfig(mode="byte")))
            check_rows([(r.frame, r.track_id) for r in pred], CROWD_FRAMES)
            sequences.append((gt, pred))
        report = metrics.aggregate(sequences).as_dict()
        check_report(report, sum(len(g) for g, _ in sequences),
                     sum(len(p) for _, p in sequences), CROWD_HEADS * CROWDS)
        return report


WORKLOADS = {w.name: w for w in (DenseByte, SparseCli, MapsFusion)}
