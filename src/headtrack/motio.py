"""Annotation file I/O, dataset statistics, and framerate resampling.

The on-disk format is one record per line, 9 comma-separated numeric fields.
Two field orders exist in the wild and both are supported:

  paper_order:    id, frame, left, top, width, height, conf, category, visibility
  standard_order: frame, id, left, top, width, height, conf, category, visibility

Numbers that are integral are written without a decimal point; fractional
values are written with fixed 2-decimal formatting, so write/parse round-trips
are exact on 2-decimal data.
"""
from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice, repeat
from operator import attrgetter, index, length_hint
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .geometry import BBox, aspect_ratio


class FieldOrder(Enum):
    paper_order = "paper_order"
    standard_order = "standard_order"


class AnnotationError(ValueError):
    pass


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class AnnotationRecord:
    frame: int
    track_id: int
    bbox: BBox
    confidence: float = 1.0
    category: int = 1
    visibility: float = 1.0

    def __post_init__(self):
        if self.frame < 1:
            raise AnnotationError(f"frame must be >= 1, got {self.frame}")
        if self.track_id < 1:
            raise AnnotationError(f"track_id must be >= 1, got {self.track_id}")

    def _replace(self, **changes) -> AnnotationRecord:
        """`dataclasses.replace`; benchmarks/selftest.py calls it on a tracker row."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class SequenceMeta:
    name: str
    fps: float
    frame_count: int
    resolution: tuple[int, int]
    view: str  # "slope" or "overhead"

    def __post_init__(self):
        if not 0 < self.fps < math.inf:
            raise ValueError(f"fps must be positive and finite, got {self.fps}")
        if self.frame_count < 1:
            raise ValueError("frame_count must be >= 1")
        if self.view not in ("slope", "overhead"):
            raise ValueError(f"view must be 'slope' or 'overhead', got {self.view!r}")


RATIO_BAND = (0.8, 1.4)  # the near-square head boxes, as a closed [lo, hi] interval


@dataclass
class DatasetStats:
    boxes: int
    frames: int
    density: float
    tracks: int
    ratio_mass: float  # fraction of boxes whose height/width ratio lies in RATIO_BAND
    ratio_histogram: dict[int, int] = field(default_factory=dict)  # bin index -> count, bin width 0.1


def _format_numbers(values) -> list[str]:
    """The text of each value: an integral value of magnitude below 1e15 as an
    integer, any other with two decimals."""
    col = np.asarray(values, dtype=np.float64)
    whole = (col == np.trunc(col)) & (np.abs(col) < 1e15)
    text = np.empty(col.shape, dtype=object)
    text[whole] = list(map(str, col[whole].astype(np.int64).tolist()))
    text[~whole] = list(map("{:.2f}".format, col[~whole].tolist()))
    return text.tolist()


# lines parsed or written per step: no list of strings spans a whole file
_BLOCK = 256

# the checks of parse_annotations in the order a line is checked; None is
# worded by the box or record constructor that rejects the line
_CHECKS = ("non-finite field",
           "frame and id must be integers",
           "category must be an integer of magnitude below 1e15",
           "visibility must be in [0, 1]",
           "duplicate (frame, id) pair {}",
           None,
           "box edge, area or aspect ratio out of float range")


def _floats(fields: list[str]) -> tuple[np.ndarray, ValueError | None]:
    """`float` of each field with its spaces stripped, up to the first field
    that `float` rejects, and what it raised there."""
    it = iter(fields)
    try:
        return np.fromiter(map(float, map(str.strip, it)), np.float64, len(fields)), None
    except ValueError as e:
        good = len(fields) - length_hint(it) - 1
        return np.fromiter(map(float, map(str.strip, fields[:good])), np.float64, good), e


def parse_annotations(lines: Iterable[str],
                      order: FieldOrder = FieldOrder.paper_order) -> list[AnnotationRecord]:
    """Parse annotation lines into records, preserving file order.

    Raises AnnotationError with the 1-based line number on malformed input, on
    a box whose edges, area or aspect ratio leave the float range, on a
    category that is not an integer of magnitude below 1e15, on a visibility
    outside [0, 1], or on a duplicate (frame, track_id) pair. It names the
    first bad line, and the first check that line fails: the field count,
    then numeric fields, then `_CHECKS` in order.

    The lines are read in blocks. Every field of a block's non-blank lines
    goes through one `float` pass into an (N, 9) array, and each check is a
    mask over the array of all blocks.
    """
    lines = iter(lines)
    parts: list[np.ndarray] = []     # (k, 9) field values of each block
    numbers: list[np.ndarray] = []   # the line number of each of their rows
    error, first = None, 1
    # a line with the wrong field count or a non-numeric field ends the array;
    # the lines before it are still checked, and their errors come first
    while error is None and (block := list(islice(lines, _BLOCK))):
        stripped = list(map(str.strip, block))
        rows = list(filter(None, stripped))
        lineno = first + np.flatnonzero(np.fromiter(map(bool, stripped), bool, len(block)))
        first += len(block)
        commas = np.fromiter(map(str.count, rows, repeat(",")), np.intp, len(rows))
        wrong = np.flatnonzero(commas != 8)
        if wrong.size:
            k = int(wrong[0])
            error = (lineno[k], f"expected 9 fields, got {commas[k] + 1}")
            rows = rows[:k]
        vals, e = _floats(",".join(rows).split(",") if rows else [])
        k = len(vals) // 9
        if e is not None:
            error = (lineno[k], f"non-numeric field ({e})")
        parts.append(vals[:9 * k].reshape(k, 9))
        numbers.append(lineno[:k])
    vals = np.concatenate(parts) if parts else np.empty((0, 9))
    n = len(vals)

    if order is FieldOrder.paper_order:
        tid, frame = vals[:, 0], vals[:, 1]
    else:
        frame, tid = vals[:, 0], vals[:, 1]
    left, top, w, h, conf, cat, vis = vals[:, 2:].T
    by_key = np.lexsort((tid, frame))   # stable: a key's first line sorts first
    dup = np.zeros(n, dtype=bool)
    dup[by_key[1:][(frame[by_key[1:]] == frame[by_key[:-1]])
                   & (tid[by_key[1:]] == tid[by_key[:-1]])]] = True
    with np.errstate(all="ignore"):
        checks = np.array([
            ~np.isfinite(vals).all(axis=1),
            (frame != np.trunc(frame)) | (tid != np.trunc(tid)),
            # from 1e15 on, a category is no longer written back as an integer
            (cat != np.trunc(cat)) | (np.abs(cat) >= 1e15),
            ~((0.0 <= vis) & (vis <= 1.0)),
            dup,
            (frame < 1) | (tid < 1) | ~(w > 0) | ~(h > 0) | ~(w * h > 0),
            # what IoU, the tracker state and noise (std proportional to the
            # box size, squared) and the ratio histogram derive from the box
            # must not overflow
            ~((w * h < np.inf) & np.isfinite(left + w) & np.isfinite(top + h)
              & np.isfinite(w / h) & np.isfinite(h / w * 10.0)
              & np.isfinite(w * w) & np.isfinite(h * h)),
        ])
    failed = checks.any(axis=0)
    if failed.any():
        row = int(failed.argmax())
        message = _CHECKS[int(checks[:, row].argmax())]
        if message is None:
            try:
                AnnotationRecord(int(frame[row]), int(tid[row]), BBox(*vals[row, 2:6].tolist()))
            except ValueError as e:
                message = str(e)
        elif "{}" in message:
            message = message.format((int(frame[row]), int(tid[row])))
        error = (np.concatenate(numbers)[row], message)
    if error is not None:
        raise AnnotationError(f"line {error[0]}: {error[1]}")

    frames, tids, cats = (list(map(int, col.tolist())) for col in (frame, tid, cat))
    return list(map(AnnotationRecord, frames, tids,
                    map(BBox, left.tolist(), top.tolist(), w.tolist(), h.tolist()),
                    conf.tolist(), cats, vis.tolist()))


# the record attributes written after the frame and id, in file order
_WRITTEN = ("bbox.left", "bbox.top", "bbox.width", "bbox.height",
            "confidence", "category", "visibility")


def write_annotations(records: Iterable[AnnotationRecord],
                      order: FieldOrder = FieldOrder.paper_order) -> Iterator[str]:
    """Yield one canonical text line (with trailing newline) per record.

    Raises AnnotationError naming the first record with a field that is not
    finite as a float.
    """
    head = ("track_id", "frame") if order is FieldOrder.paper_order else ("frame", "track_id")
    getters = [attrgetter(name) for name in head + _WRITTEN]
    records = iter(records)
    while block := list(islice(records, _BLOCK)):
        cols = np.array([np.fromiter(map(get, block), np.float64, len(block))
                         for get in getters])
        finite = np.isfinite(cols).all(axis=0)
        if not finite.all():
            raise AnnotationError(
                f"non-finite field in record {block[int(finite.argmin())]!r}")
        text = [_format_numbers(col) for col in cols]
        # a width or height below 0.005 would be written as 0.00 and read
        # back as a degenerate box, so it is written exactly
        for i in (4, 5):
            for j in np.flatnonzero(cols[i] < 0.005).tolist():
                text[i][j] = repr(float(cols[i, j]))
        yield from map("{},{},{},{},{},{},{},{},{}\n".format, *text)


def read_annotation_file(path, order: FieldOrder = FieldOrder.paper_order) -> list[AnnotationRecord]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_annotations(f, order)


def write_annotation_file(path, records: Iterable[AnnotationRecord],
                          order: FieldOrder = FieldOrder.paper_order) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(write_annotations(records, order))


def compute_stats(records: list[AnnotationRecord], frame_count: int | None = None) -> DatasetStats:
    """Dataset statistics: box/track counts, per-frame density, ratio histogram.
    frame_count defaults to the last frame."""
    max_frame = max((r.frame for r in records), default=1)
    frame_count = max_frame if frame_count is None else frame_count
    if frame_count < max_frame:
        raise AnnotationError(
            f"frame_count {frame_count} below max frame index {max_frame}")
    ratios = [aspect_ratio(r.bbox) for r in records]
    # nudge by half an ulp-scale epsilon so ratios that are exact bin edges
    # in decimal (e.g. 1.2) land in the bin they name despite float rounding
    hist = Counter(int(math.floor(r * 10.0 + 1e-9)) for r in ratios)
    lo, hi = RATIO_BAND
    return DatasetStats(
        boxes=len(records),
        frames=frame_count,
        density=len(records) / frame_count,
        tracks=len({r.track_id for r in records}),
        ratio_mass=sum(lo <= r <= hi for r in ratios) / len(ratios) if ratios else 0.0,
        ratio_histogram=dict(sorted(hist.items())),
    )


def resample_framerate(records: list[AnnotationRecord], factor: int) -> list[AnnotationRecord]:
    """Keep every factor-th frame starting at frame 1 and renumber from 1.

    resample(resample(r, a), b) == resample(r, a*b); factor 1 is the identity.
    """
    if factor < 1:
        raise AnnotationError(f"resample factor must be >= 1, got {factor}")
    return [dataclasses.replace(r, frame=(r.frame - 1) // factor + 1)
            for r in records if (r.frame - 1) % factor == 0]


def read_kv(path) -> dict[str, str]:
    """Read a key=value file: one pair per line; blank lines and lines starting
    with '#' are skipped. Keys and values are stripped of whitespace."""
    kv: dict[str, str] = {}
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value, got {line!r}")
        k, v = line.split("=", 1)
        kv[k.strip()] = v.strip()
    return kv


def _parse_value(raw: str, default):
    """Parse raw as the type of default; tuples are comma-separated values."""
    if isinstance(default, tuple):
        parts = raw.split(",")
        if len(parts) != len(default):
            raise ValueError(f"expected {len(default)} comma-separated values")
        return tuple(_parse_value(p.strip(), d) for p, d in zip(parts, default))
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        v = float(raw)
        if not math.isfinite(v):
            raise ValueError("must be finite")
        return v
    return raw


def read_config(path, cls, **overrides):
    """The dataclass cls from a key=value file (None: defaults) and the overrides
    that are not None. Each value parses as the type of its field's default;
    an unknown key or a non-finite float raises ConfigError."""
    kv = read_kv(path) if path is not None else {}
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs = {}
    for k, raw in kv.items():
        if k not in defaults:
            raise ConfigError(f"{path}: unknown key {k!r}")
        try:
            kwargs[k] = _parse_value(raw, defaults[k])
        except ValueError as e:
            raise ConfigError(f"{path}: {k}={raw!r}: {e}") from None
    kwargs.update((k, v) for k, v in overrides.items() if v is not None)
    return cls(**kwargs)


def check_seed(seed, error: type[ValueError]) -> None:
    """Raise error unless seed is an integer >= 0 (anything with __index__)."""
    try:
        if index(seed) >= 0:
            return
    except TypeError:
        pass
    raise error(f"seed must be an integer >= 0, got {seed!r}")


def write_sequence_meta(path, meta: SequenceMeta) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"name={meta.name}\n")
        fps = float(meta.fps)  # exactly: an integral fps as an integer, any other as its repr
        f.write(f"fps={int(fps) if fps.is_integer() else fps!r}\n")
        f.write(f"frames={meta.frame_count}\n")
        f.write(f"width={meta.resolution[0]}\n")
        f.write(f"height={meta.resolution[1]}\n")
        f.write(f"view={meta.view}\n")
