"""Time the rows of the ROADMAP baseline table once each, with BLAS pinned.

    python3 benchmarks/baseline.py

Prints a markdown table. These are single timings, as the ROADMAP rows are;
the steady, gated numbers come from benchmarks/run.py.
"""
import time

import run

_, _, workloads = run.import_program()
from headtrack import fusion, maps, metrics, simulate, tracker  # noqa: E402


def timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def tracking_rows(heads: int, frames: int) -> list[tuple[str, str]]:
    gt, _ = simulate.simulate(simulate.ScenarioConfig(agent_count=heads, duration=frames, seed=0))
    dets, t_corrupt = timed(simulate.corrupt, gt, simulate.NoiseModel(**workloads.DENSE_NOISE))
    times = {"corrupt": t_corrupt}
    for mode in ("sort", "byte"):
        out, times[f"track {mode}"] = timed(tracker.run_tracker, dets,
                                            tracker.TrackerConfig(mode=mode))
    pred = tracker.outputs_to_records(out)
    _, times["evaluate"] = timed(metrics.evaluate, gt, pred)
    _, times["id_metrics"] = timed(metrics.id_metrics, gt, pred)
    label = f"{heads} heads x {frames} frames ({len(gt)} GT boxes)"
    rows = [(f"{label}: {k}", f"{v:.2f} s") for k, v in times.items()]
    rows.append((f"{label}: byte ms/frame", f"{1e3 * times['track byte'] / frames:.1f} ms"))
    return rows


def scene(dims: tuple[int, int], heads: int):
    h, w = dims
    gt, _ = simulate.simulate(simulate.ScenarioConfig(
        arena=(w, h), agent_count=heads, head_size_range=(10.0, 16.0), duration=40, seed=0))
    shown = range(workloads.SETTLE_FRAMES + 1, workloads.SETTLE_FRAMES + 3)
    images = workloads.render_frames(gt, dims, shown, 0)
    boxes = [r.bbox for r in gt if r.frame == shown[1]]
    return images, boxes


def map_rows() -> list[tuple[str, str]]:
    rows = []
    images, _ = scene((240, 320), 120)
    _, t = timed(maps.optical_flow, images[1], images[0])
    rows.append(("optical_flow 240x320, default config", f"{t:.2f} s"))
    for dims, heads in (((64, 64), 8), ((96, 128), 30)):
        images, boxes = scene(dims, heads)
        stack = maps.build_stack(images[1], images[0], maps.synth_depth_provider(),
                                 maps.density_provider(boxes))
        params = fusion.FusionParams()
        _, t_fwd = timed(fusion.forward, stack, params)
        _, t_both = timed(lambda: fusion.loss_for(stack, params).backward())
        rows.append((f"fusion forward / forward+backward {dims[0]}x{dims[1]}",
                     f"{t_fwd:.2f} / {t_both:.2f} s"))
    return rows


if __name__ == "__main__":
    print("| Row | Time |\n|---|---|")
    for name, value in tracking_rows(20, 200) + tracking_rows(90, 300) + map_rows():
        print(f"| {name} | {value} |")
