"""Command-line interface.

Exit codes: 0 success, 2 input error (an unwritable output path too), 3
config error, 4 internal invariant violation. Every command that writes an
output also writes a JSON run manifest alongside it for reproducibility.

Every command holds annotation files as (N, 9) tables (see `motio`) from
config or file to file: `simulate_table` and `corrupt_table`, `track_table`,
`sequence_counts` on the two tables, `compute_stats` and `resample_framerate`.

A failed command writes nothing: each output, sidecar and manifest is written
in a staging directory `.headtrack-stage-*` beside it (for a missing
`gen-motion --out-dir`, in its nearest existing ancestor) and moved into place
with `os.replace` once all are written. A killed process can leave that
directory behind or, killed during the renames, part of the outputs in place.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__, maps, metrics, motio, simulate
from .fusion import COEFFICIENTS, FusionConfig, FusionError, FusionParams, forward
from .metrics import MetricsError, MotReport, evaluate, report, sequence_counts
from .motio import AnnotationError, ConfigError, FieldOrder
from .simulate import NoiseModel, ScenarioConfig
from .tracker import Mode, TrackerConfig, track_table

EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4


class InputError(Exception):
    pass


@contextlib.contextmanager
def _outputs(args: argparse.Namespace, *targets, sidecars=(), manifests=None,
             make_dirs: bool = False):
    """Stage a command's targets, their sidecars and a manifest for each target
    (or for each of `manifests`); yield target -> path to write it at, beside
    which its sidecars go; publish on a clean exit. A path named twice among
    all of these, one that is a directory and a missing directory (made on
    publishing, with make_dirs) raise InputError before any compute."""
    given = [t for t in targets if t]
    manifests = [f"{m}.manifest.json" for m in (manifests or given)]
    paths = [Path(p).resolve() for p in [*given, *sidecars, *manifests]]
    named = Counter(paths)
    for p, n in named.items():
        if n > 1:
            raise InputError(f"output path given twice: {p}")
        if p.is_dir():
            raise InputError(f"output is a directory: {p}")
    stages: dict[Path, Path] = {}   # target directory -> its staging directory
    try:
        for d in dict.fromkeys(p.parent for p in named):
            base = next(a for a in (d, *d.parents) if a.exists())
            if not base.is_dir() or (base != d and not make_dirs):
                raise InputError(f"no such directory: {d}")
            stages[d] = Path(tempfile.mkdtemp(prefix=".headtrack-stage-", dir=base))
        manifest = json.dumps({"command": args.command, "version": __version__,
                               "arguments": {k: str(v) for k, v in vars(args).items()
                                             if k != "func" and v is not None}}, indent=2)
        for m in paths[len(paths) - len(manifests):]:
            (stages[m.parent] / m.name).write_text(manifest)
        yield {t: stages[p.parent] / p.name for t, p in zip(given, paths)}
        moves = [(f, d / f.name) for d, s in stages.items() for f in s.iterdir()]
        blocked = next((dst for _, dst in moves if dst.is_dir()), None)
        if blocked:   # a map sidecar, which gen-motion does not name
            raise InputError(f"output is a directory: {blocked}")
        for src, dst in moves:
            dst.parent.mkdir(parents=True, exist_ok=True)
            src.replace(dst)   # os.replace: one atomic rename(2)
    finally:
        for s in stages.values():
            shutil.rmtree(s, ignore_errors=True)


def _read_table(path, order: FieldOrder):
    p = Path(path)
    if not p.exists():
        raise InputError(f"no such file: {p}")
    try:
        return motio.read_annotation_file(p, order)
    except (AnnotationError, OSError, UnicodeDecodeError) as e:
        raise InputError(f"{p}: {e}") from None


def _config(path, cls, **overrides):
    """cls from a key=value config file plus overrides; any failure is a
    config error (exit 3)."""
    try:
        return motio.read_config(path, cls, **overrides)
    except (OSError, ValueError) as e:
        raise ConfigError(str(e)) from None


def cmd_track(args) -> int:
    with _outputs(args, args.out) as staged:
        cfg = _config(args.config, TrackerConfig, mode=args.mode)
        dets = _read_table(args.dets, FieldOrder(args.order))
        motio.write_annotation_file(staged[args.out], track_table(dets, cfg),
                                    FieldOrder(args.order))
    return 0


def cmd_evaluate(args) -> int:
    with _outputs(args, args.out, sidecars=[f"{args.out}.json"] if args.out else []) as staged:
        order = FieldOrder(args.order)
        gt_p, pred_p = Path(args.gt), Path(args.pred)
        if gt_p.is_dir() != pred_p.is_dir():
            raise InputError("--gt and --pred must both be files or both directories")
        if gt_p.is_dir():
            names = sorted(p.name for p in gt_p.glob("*.txt"))
            if not names:
                raise InputError(f"no .txt sequences in {gt_p}")
            counts = [sequence_counts(_read_table(gt_p / n, order),
                                      _read_table(pred_p / n, order), args.iou)
                      for n in names]
            rows = [(n, report(c)) for n, c in zip(names, counts)]
            rows.append(("OVERALL", report(*counts)))
        else:
            rows = [(gt_p.stem, evaluate(_read_table(gt_p, order),
                                         _read_table(pred_p, order), args.iou))]
        text = "\n".join([MotReport.header()] + [r.format_row(n) for n, r in rows]) + "\n"
        payload = json.dumps({n: r.as_dict() for n, r in rows}, indent=2)
        if args.out:
            staged[args.out].write_text(text)
            Path(f"{staged[args.out]}.json").write_text(payload)
    if args.json:
        print(payload)
    else:
        print(text, end="")
    return 0


def cmd_stats(args) -> int:
    anns = _read_table(args.ann, FieldOrder(args.order))
    if not len(anns):
        raise InputError(f"{args.ann}: no annotation records")
    stats = motio.compute_stats(anns, args.frames)
    payload = {
        "boxes": stats.boxes,
        "frames": stats.frames,
        "density": round(stats.density, 2),
        "tracks": stats.tracks,
        "ratio_mass_{}_{}".format(*motio.RATIO_BAND): round(stats.ratio_mass, 4),
        "ratio_histogram": {f"{k / 10:.1f}": v for k, v in stats.ratio_histogram.items()},
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"boxes    {stats.boxes}")
        print(f"frames   {stats.frames}")
        print(f"density  {stats.density:.2f}")
        print(f"tracks   {stats.tracks}")
        print("ratio mass in [{}, {}]: {:.4f}".format(*motio.RATIO_BAND, stats.ratio_mass))
        print("ratio histogram (bin width 0.1):")
        for k, v in stats.ratio_histogram.items():
            print(f"  [{k / 10:.1f}, {k / 10 + 0.1:.1f}) {v}")
    return 0


def cmd_gen_scenario(args) -> int:
    with _outputs(args, args.out_gt, args.out_dets, sidecars=[f"{args.out_gt}.meta"]) as staged:
        scen = _config(args.config, ScenarioConfig, seed=args.seed)
        noise = _config(args.noise, NoiseModel, seed=args.seed)
        gt, meta = simulate.simulate_table(scen)
        motio.write_annotation_file(staged[args.out_gt], gt, FieldOrder(args.order))
        motio.write_sequence_meta(f"{staged[args.out_gt]}.meta", meta)
        if args.out_dets:
            motio.write_annotation_file(staged[args.out_dets], simulate.corrupt_table(gt, noise),
                                        FieldOrder(args.order))
    return 0


def cmd_gen_motion(args) -> int:
    frame_dir = Path(args.frames_dir)
    if not frame_dir.is_dir():
        raise InputError(f"no such directory: {frame_dir}")
    paths = sorted(frame_dir.glob("*.bin"))
    if not paths:
        raise InputError(f"no .bin frames in {frame_dir}")
    out_dir = Path(args.out_dir)
    names = [out_dir / f"{m}_{i:04d}.bin"
             for i in range(1, len(paths) + 1) for m in ("diff", "flow")]
    with _outputs(args, *names, manifests=[out_dir / "motion"], make_dirs=True) as staged:
        prev = None   # each frame is read once, and at most two are held
        for i, p in enumerate(paths):
            data = maps.load_map(p)  # its errors name the file; ImageFrame's do not
            try:
                curr = maps.ImageFrame(data)
            except maps.MapError as e:
                raise InputError(f"{p}: {e}") from None
            size = curr.data.shape[:2]
            if prev is not None and size != prev.data.shape[:2]:  # prev has the first's size
                raise InputError(f"frames in {frame_dir} differ in (height, width): "
                                 f"{sorted({prev.data.shape[:2], size})}")
            if len(paths) > 1 and min(size) < maps.BLOCK_SIZE:  # a lone frame gets zero maps
                raise InputError(f"frames in {frame_dir} are {size[0]}x{size[1]}, smaller "
                                 f"than one {maps.BLOCK_SIZE}x{maps.BLOCK_SIZE} flow block")
            for name, m in zip(names[2 * i:2 * i + 2], maps.motion_maps(curr, prev)):
                maps.save_map(staged[name], m)
            prev = curr
    return 0


def cmd_fuse_demo(args) -> int:
    with _outputs(args, args.out) as staged:
        stack = maps.source_stack({name: maps.load_map(Path(args.stack_dir) / f"{name}.bin")
                                   for name in maps.SOURCE_SLICES})
        params = FusionParams(FusionConfig(seed=args.seed or 0))
        params.set_coefficients(**{c: getattr(args, c) for c in COEFFICIENTS})
        try:  # with the warnings off, an overflow still raises as a non-finite Tensor
            with np.errstate(over="ignore", invalid="ignore"):
                out = forward(stack, params)
        except FloatingPointError as e:
            raise InputError(f"fusion of {args.stack_dir}: {e}") from None
        maps.save_map(staged[args.out], out.data.transpose(1, 2, 0))
    return 0


def cmd_resample(args) -> int:
    with _outputs(args, args.out) as staged:
        if args.factor < 1:
            raise ConfigError(f"factor must be >= 1, got {args.factor}")
        anns = _read_table(args.ann, FieldOrder(args.order))
        out = motio.resample_framerate(anns, args.factor)
        motio.write_annotation_file(staged[args.out], out, FieldOrder(args.order))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="headtrack")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_order(p):
        p.add_argument("--order", choices=[o.value for o in FieldOrder],
                       default=FieldOrder.paper_order.value)

    p = sub.add_parser("track", help="run the tracker on a detection file")
    p.add_argument("--dets", required=True)
    p.add_argument("--config")
    p.add_argument("--mode", choices=[m.value for m in Mode])
    p.add_argument("--out", required=True)
    add_order(p)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("evaluate", help="CLEAR-MOT / identity metrics report")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--iou", type=float, default=metrics.DEFAULT_IOU_THRESHOLD)
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    add_order(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stats", help="dataset statistics for an annotation file")
    p.add_argument("--ann", required=True)
    p.add_argument("--frames", type=int)
    p.add_argument("--json", action="store_true")
    add_order(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("gen-scenario", help="generate a synthetic crowd sequence")
    p.add_argument("--config")
    p.add_argument("--noise")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-gt", required=True)
    p.add_argument("--out-dets")
    add_order(p)
    p.set_defaults(func=cmd_gen_scenario)

    p = sub.add_parser("gen-motion", help="frame-difference and flow maps for a frame dir")
    p.add_argument("--frames-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen_motion)

    p = sub.add_parser("fuse-demo", help="run the fusion pipeline on a stored stack")
    p.add_argument("--stack-dir", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    for coeff in COEFFICIENTS:
        p.add_argument(f"--{coeff}", type=float)
    p.set_defaults(func=cmd_fuse_demo)

    p = sub.add_parser("resample", help="framerate resampling of an annotation file")
    p.add_argument("--ann", required=True)
    p.add_argument("--factor", type=int, required=True)
    p.add_argument("--out", required=True)
    add_order(p)
    p.set_defaults(func=cmd_resample)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, AnnotationError, maps.MapError, MetricsError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (ConfigError, FusionError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # anything else is an internal invariant violation
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
