"""Per-layer tracing from outside the program.

`Tracer.install()` replaces public headtrack functions, at every import site
the workloads reach, with wrappers that record what each call did;
`Tracer.restore()` puts the original objects back. Nothing is replaced unless
a traced run asks for it, so an untraced run executes the program untouched.

Box IoU and Kalman predict/update, called 1e4 to 1e6 times per job, only add
to a count and a summed time. Every other wrapped call records a span
(id, parent id, name, start, end) held in memory and written out by
`write_spans` when the run ends. A layer's self time is its span time minus
the part covered by its child spans.
"""
from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

from headtrack import autodiff, cli, fusion, maps, metrics, motio, simulate, tracker

# (owner, attribute, span or counter name). Owners are modules or classes; a
# function imported by name into another module is patched at each such site.
SPANS = [
    (tracker.Tracker, "step", "tracker.step"),
    (tracker, "associate", "tracker.associate"),
    (tracker, "byte_associate", "tracker.byte_associate"),
    (tracker, "hungarian", "tracker.hungarian"),
    (metrics, "evaluate", "metrics.evaluate"),
    (cli, "evaluate", "metrics.evaluate"),
    (metrics, "match_frame", "metrics.match_frame"),
    (metrics, "id_metrics", "metrics.id_metrics"),
    (metrics, "hungarian", "metrics.hungarian"),
    (simulate, "simulate", "simulate.simulate"),
    (simulate, "corrupt", "simulate.corrupt"),
    (motio, "read_annotation_file", "motio.read_annotation_file"),
    (motio, "write_annotation_file", "motio.write_annotation_file"),
    (cli, "cmd_gen_scenario", "cli.gen_scenario"),
    (cli, "cmd_track", "cli.track"),
    (cli, "cmd_evaluate", "cli.evaluate"),
    (maps, "build_stack", "maps.build_stack"),
    (maps, "optical_flow", "maps.optical_flow"),
    (maps, "frame_difference", "maps.frame_difference"),
    (maps, "density_from_boxes", "maps.density_from_boxes"),
    (fusion, "forward", "fusion.forward"),
    (autodiff.Tensor, "backward", "autodiff.backward"),
    (autodiff, "conv2d", "autodiff.conv2d"),
]
COUNTERS = [
    (tracker, "iou", "geometry.iou"),
    (metrics, "iou", "geometry.iou"),
    (simulate, "iou", "geometry.iou"),
    (tracker.KalmanModel, "predict", "tracker.kalman.predict"),
    (tracker.KalmanModel, "update", "tracker.kalman.update"),
]


def _conv2d_cost(x, weight) -> tuple[int, int]:
    """Computed (not measured) flops and bytes of one conv2d forward call:
    multiply-adds of the im2col matmul, and float64 bytes of the input, padded
    input, weights, im2col buffer and output."""
    cout, cin, k, _ = weight.shape
    _, h, w = x.shape
    flops = 2 * cout * cin * k * k * h * w
    floats = (cin * h * w + cin * (h + k - 1) * (w + k - 1) + cout * cin * k * k
              + cin * k * k * h * w + cout * h * w)
    return flops, 8 * floats


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counters: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.hungarian_max_dim = 0  # largest cost matrix side seen by metrics
        self._stack: list[int] = [0]
        self._saved: list[tuple[object, str, object]] = []
        self.job = 0  # set by the runner; spans of one job share it

    # -- wrappers -----------------------------------------------------------
    def _span(self, name, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans) + 1
            self.spans.append(None)  # reserve the id; children follow it
            parent = self._stack[-1]
            self._stack.append(span_id)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[span_id - 1] = (span_id, parent, self.job, name, t0, t1)
            if hook is not None:
                hook(out, *args, **kwargs)
            return out

        return wrapper

    def _counter(self, name, fn):
        slot = self.counters[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            slot[1] += time.perf_counter() - t0
            slot[0] += 1
            return out

        return wrapper

    # -- counts taken at the same boundaries --------------------------------
    def _after_tracker_associate(self, out, tracks, dets, cfg):
        self.counts["tracker.associate.pairs"] += len(tracks) * len(dets)
        self.counts["tracker.associate.dets"] += len(dets)
        self.counts["tracker.associate.matched"] += len(out.matches)

    def _after_tracker_step(self, out, trk, frame, detections):
        self.counts["tracker.tracks_live"] += len(trk.tracks)

    def _after_metrics_hungarian(self, out, cost):
        self.hungarian_max_dim = max(self.hungarian_max_dim, *np.shape(cost))

    def _after_simulate_corrupt(self, out, gt, noise):
        self.counts["simulate.corrupt.dets"] += sum(len(v) for v in out.values())

    def _after_motio_read_annotation_file(self, out, *args, **kwargs):
        self.counts["motio.lines_read"] += len(out)

    def _after_motio_write_annotation_file(self, out, path, records, *args, **kwargs):
        self.counts["motio.bytes_written"] += os.path.getsize(path)

    def _after_autodiff_conv2d(self, out, x, weight, bias):
        flops, nbytes = _conv2d_cost(x, weight)
        self.counts["autodiff.conv2d.flops"] += flops
        self.counts["autodiff.conv2d.bytes"] += nbytes

    # -- install / restore --------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in SPANS:
            fn = owner.__dict__[attr]
            if attr == "write_annotation_file":
                fn = self._counting_writer(fn)
            self._patch(owner, attr, self._span(name, fn))
        for owner, attr, name in COUNTERS:
            self._patch(owner, attr, self._counter(name, owner.__dict__[attr]))

    def _counting_writer(self, fn):
        @functools.wraps(fn)
        def write(path, records, *args, **kwargs):
            records = list(records)
            self.counts["motio.lines_written"] += len(records)
            return fn(path, records, *args, **kwargs)

        return write

    def _patch(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------
    def complete_spans(self) -> list[tuple[int, int, int, str, float, float]]:
        return [s for s in self.spans if s is not None]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, job, name, t0, t1 in self.complete_spans():
                f.write(json.dumps({"id": sid, "parent": parent, "job": job, "name": name,
                                    "start": t0, "end": t1}) + "\n")
            for name, (calls, busy) in sorted(self.counters.items()):
                f.write(json.dumps({"counter": name, "calls": calls, "busy_s": busy}) + "\n")

    def layer_metrics(self, jobs: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each a total over the traced jobs divided by `jobs`
        (the traced jobs replay identical inputs, so counts per job are exact);
        percentiles are over every call."""
        spans = self.complete_spans()
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child: dict[int, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for sid, parent, _, name, t0, t1 in spans:
            busy[name] += t1 - t0
            calls[name] += 1
            child[parent] += t1 - t0
            durations[name].append(t1 - t0)
        self_s: dict[str, float] = defaultdict(float)
        for sid, _, _, name, t0, t1 in spans:
            self_s[name] += (t1 - t0) - child[sid]

        def per_job(v):
            return v / jobs

        def pct(name, q):
            d = durations.get(name)
            return 1e3 * float(np.percentile(d, q)) if d else 0.0

        iou_calls, iou_busy = self.counters["geometry.iou"]
        pred_calls, pred_busy = self.counters["tracker.kalman.predict"]
        upd_calls, upd_busy = self.counters["tracker.kalman.update"]
        dets_offered = self.counts["tracker.associate.dets"]
        steps = calls["tracker.step"]
        m: dict[str, tuple[float, str]] = {
            "geometry.iou.calls": (per_job(iou_calls), "calls/job"),
            "geometry.iou.busy_s": (per_job(iou_busy), "s/job"),
            "tracker.associate.calls": (per_job(calls["tracker.associate"]), "calls/job"),
            "tracker.associate.busy_s": (per_job(busy["tracker.associate"]), "s/job"),
            "tracker.associate.pairs": (per_job(self.counts["tracker.associate.pairs"]),
                                        "cells/job"),
            "tracker.associate.matched_frac": (
                self.counts["tracker.associate.matched"] / dets_offered
                if dets_offered else 0.0, "frac"),
            "tracker.byte_associate.busy_s": (per_job(busy["tracker.byte_associate"]), "s/job"),
            "tracker.hungarian.calls": (per_job(calls["tracker.hungarian"]), "calls/job"),
            "tracker.hungarian.busy_s": (per_job(busy["tracker.hungarian"]), "s/job"),
            "metrics.hungarian.busy_s": (per_job(busy["metrics.hungarian"]), "s/job"),
            "metrics.hungarian.max_dim": (float(self.hungarian_max_dim), "rows"),
            "tracker.step.calls": (per_job(steps), "calls/job"),
            "tracker.step.busy_s": (per_job(busy["tracker.step"]), "s/job"),
            "tracker.step.ms_p50": (pct("tracker.step", 50), "ms"),
            "tracker.step.ms_p99": (pct("tracker.step", 99), "ms"),
            "tracker.tracks_live.mean": (
                self.counts["tracker.tracks_live"] / steps if steps else 0.0, "tracks"),
            "tracker.kalman.predict.calls": (per_job(pred_calls), "calls/job"),
            "tracker.kalman.update.calls": (per_job(upd_calls), "calls/job"),
            "tracker.kalman.busy_s": (per_job(pred_busy + upd_busy), "s/job"),
            "metrics.evaluate.busy_s": (per_job(busy["metrics.evaluate"]), "s/job"),
            "metrics.match_frame.calls": (per_job(calls["metrics.match_frame"]), "calls/job"),
            "metrics.match_frame.busy_s": (per_job(busy["metrics.match_frame"]), "s/job"),
            "metrics.id_metrics.busy_s": (per_job(busy["metrics.id_metrics"]), "s/job"),
            "simulate.simulate.busy_s": (per_job(busy["simulate.simulate"]), "s/job"),
            "simulate.corrupt.busy_s": (per_job(busy["simulate.corrupt"]), "s/job"),
            "simulate.corrupt.dets": (per_job(self.counts["simulate.corrupt.dets"]), "dets/job"),
            "motio.read_annotation_file.busy_s": (
                per_job(busy["motio.read_annotation_file"]), "s/job"),
            "motio.write_annotation_file.busy_s": (
                per_job(busy["motio.write_annotation_file"]), "s/job"),
            "motio.lines_read": (per_job(self.counts["motio.lines_read"]), "lines/job"),
            "motio.lines_written": (per_job(self.counts["motio.lines_written"]), "lines/job"),
            "motio.bytes_written": (per_job(self.counts["motio.bytes_written"]), "B/job"),
        }
        for cmd in ("gen_scenario", "track", "evaluate"):
            m[f"cli.{cmd}.busy_s"] = (per_job(busy[f"cli.{cmd}"]), "s/job")
            m[f"cli.{cmd}.self_s"] = (per_job(self_s[f"cli.{cmd}"]), "s/job")
        m.update({
            "maps.build_stack.busy_s": (per_job(busy["maps.build_stack"]), "s/job"),
            "maps.optical_flow.busy_s": (per_job(busy["maps.optical_flow"]), "s/job"),
            "maps.optical_flow.ms_p50": (pct("maps.optical_flow", 50), "ms"),
            "maps.frame_difference.busy_s": (per_job(busy["maps.frame_difference"]), "s/job"),
            "maps.density_from_boxes.busy_s": (per_job(busy["maps.density_from_boxes"]),
                                               "s/job"),
            "fusion.forward.busy_s": (per_job(busy["fusion.forward"]), "s/job"),
            "autodiff.backward.busy_s": (per_job(busy["autodiff.backward"]), "s/job"),
            "autodiff.conv2d.calls": (per_job(calls["autodiff.conv2d"]), "calls/job"),
            "autodiff.conv2d.busy_s": (per_job(busy["autodiff.conv2d"]), "s/job"),
            "autodiff.conv2d.flops": (per_job(self.counts["autodiff.conv2d.flops"]),
                                      "flop/job"),
            "autodiff.conv2d.bytes": (per_job(self.counts["autodiff.conv2d.bytes"]), "B/job"),
            "autodiff.graph_cycle_objects": (
                per_job(self.counts["autodiff.graph_cycle_objects"]), "objects/job"),
        })
        return m
