"""Annotation file I/O, dataset statistics, and framerate resampling.

The on-disk format is one record per line, 9 comma-separated numeric fields.
Two field orders exist in the wild and both are supported:

  paper_order:    id, frame, left, top, width, height, conf, category, visibility
  standard_order: frame, id, left, top, width, height, conf, category, visibility

Files are read and written as tables: `read_annotation_file` returns the
validated (N, 9) float64 table of a file, its rows in file order and its
columns frame, id, left, top, width, height, conf, category and visibility
whatever the field order, and `write_annotation_file` writes such a table.
A file is read by numpy's C reader; `_parse`, which sends each field through
`float`, is its error path (the one place that words an error) and oracle.
`records` and `table` convert between a table and `AnnotationRecord`s;
`parse_annotations` (over `_parse`) and `write_annotations` are the record API.

Numbers that are integral are written without a decimal point; fractional
values are written with fixed 2-decimal formatting, so write/parse round-trips
are exact on 2-decimal data.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from itertools import chain, islice, repeat
from operator import attrgetter, index, length_hint
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .geometry import BBox


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


# the record attributes of the table columns, in column order
_COLUMNS = attrgetter("frame", "track_id", "bbox.left", "bbox.top", "bbox.width",
                      "bbox.height", "confidence", "category", "visibility")


def table(records: Iterable[AnnotationRecord]) -> np.ndarray:
    """The (N, 9) float64 table of records, one row each in their order."""
    records = list(records)
    return np.fromiter(chain.from_iterable(map(_COLUMNS, records)), np.float64,
                       9 * len(records)).reshape(len(records), 9)


def records(table: np.ndarray) -> list[AnnotationRecord]:
    """The record of each row of an (N, 9) table; integral columns become ints."""
    frame, tid, left, top, w, h, conf, cat, vis = np.reshape(table, (-1, 9)).T.tolist()
    return list(map(AnnotationRecord, map(int, frame), map(int, tid),
                    map(BBox, left, top, w, h), conf, map(int, cat), vis))


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


def _checks(vals: np.ndarray, order: FieldOrder) -> np.ndarray:
    """The (7, N) masks of the rows failing each of `_CHECKS`, over an (N, 9)
    array of file-order fields that this puts in table column order in place."""
    if order is FieldOrder.paper_order:
        vals[:, :2] = vals[:, [1, 0]]
    frame, tid, left, top, w, h, conf, cat, vis = vals.T
    by_key = np.lexsort((tid, frame))   # stable: a key's first line sorts first
    dup = np.zeros(len(vals), dtype=bool)
    dup[by_key[1:][(frame[by_key[1:]] == frame[by_key[:-1]])
                   & (tid[by_key[1:]] == tid[by_key[:-1]])]] = True
    with np.errstate(all="ignore"):
        return np.array([
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


def _floats(fields: list[str]) -> tuple[np.ndarray, ValueError | None]:
    """`float` of each field with its spaces stripped, up to the first field
    that `float` rejects, and what it raised there."""
    it = iter(fields)
    try:
        return np.fromiter(map(float, map(str.strip, it)), np.float64, len(fields)), None
    except ValueError as e:
        good = len(fields) - length_hint(it) - 1
        return np.fromiter(map(float, map(str.strip, fields[:good])), np.float64, good), e


def _parse(lines: Iterable[str], order: FieldOrder) -> np.ndarray:
    """The table of annotation lines, rows in file order.

    Raises AnnotationError with the 1-based line number on malformed input, on
    a box whose edges, area or aspect ratio leave the float range, on a
    category that is not an integer of magnitude below 1e15, on a visibility
    outside [0, 1], or on a duplicate (frame, track_id) pair. It names the
    first bad line, and the first check that line fails: the field count,
    then numeric fields, then `_CHECKS` in order.

    The lines are read in blocks, each field of a block through one `float`
    pass, and `_checks` masks the (N, 9) array of all blocks. This is the
    error path and the oracle of `read_annotation_file`'s C reader.
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
    checks = _checks(vals, order)
    failed = checks.any(axis=0)
    if failed.any():
        row = int(failed.argmax())
        frame, tid, *box = vals[row, :6].tolist()
        message = _CHECKS[int(checks[:, row].argmax())]
        if message is None:
            try:
                AnnotationRecord(int(frame), int(tid), BBox(*box))
            except ValueError as e:
                message = str(e)
        elif "{}" in message:
            message = message.format((int(frame), int(tid)))
        error = (np.concatenate(numbers)[row], message)
    if error is not None:
        raise AnnotationError(f"line {error[0]}: {error[1]}")
    return vals


def parse_annotations(lines: Iterable[str],
                      order: FieldOrder = FieldOrder.paper_order) -> list[AnnotationRecord]:
    """Parse annotation lines into records, preserving file order (see `_parse`)."""
    return records(_parse(lines, order))


# how a field is written: as an integer, with two decimals, or exactly
_SPELLINGS = ("%d", "%.2f", "%r")
_DIGITS = 3 ** np.arange(9)   # a line's kinds as one base-3 number


@cache
def _line_format(kinds: int) -> str:
    """The `%` string of a line whose field j has the `_SPELLINGS` index that
    is base-3 digit j of kinds."""
    return ",".join(_SPELLINGS[kinds // 3 ** j % 3] for j in range(9)) + "\n"


def _lines(rows: np.ndarray, order: FieldOrder, name) -> str:
    """The text of (n, 9) table rows, a line each. An integral value of magnitude
    below 1e15 is written as an integer, any other with two decimals, except
    that a width or height below 0.005, which would read back as a degenerate
    0.00, is written exactly. Raises AnnotationError naming `name(i)` for the
    first row i with a non-finite field."""
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise AnnotationError(f"non-finite field in {name(int(finite.argmin()))}")
    if order is FieldOrder.paper_order:
        rows = rows[:, [1, 0, 2, 3, 4, 5, 6, 7, 8]]
    kinds = np.where((rows == np.trunc(rows)) & (np.abs(rows) < 1e15), 0, 1)
    kinds[:, 4:6][rows[:, 4:6] < 0.005] = 2
    return "".join(map(_line_format, (kinds @ _DIGITS).tolist())) % tuple(rows.ravel().tolist())


def write_annotations(records: Iterable[AnnotationRecord],
                      order: FieldOrder = FieldOrder.paper_order) -> Iterator[str]:
    """Yield one canonical text line (with trailing newline) per record.

    Raises AnnotationError naming the first record with a field that is not
    finite as a float.
    """
    records = iter(records)
    while block := list(islice(records, _BLOCK)):
        yield from _lines(table(block), order, lambda i: f"record {block[i]!r}").splitlines(True)


def read_annotation_file(path, order: FieldOrder = FieldOrder.paper_order) -> np.ndarray:
    """The validated (N, 9) table of an annotation file, as `_parse` gives it:
    read by `np.loadtxt`, and again by `_parse`, which words the error, when
    loadtxt rejects the file, its table is not (N, 9) or a check fails."""
    with open(path, "r", encoding="utf-8") as f:
        # loadtxt warns on a file of blank lines only, so it starts at the first other line
        if (first := next(filter(str.strip, f), None)) is not None:
            try:
                vals = np.loadtxt(chain((first,), f), delimiter=",", comments=None, ndmin=2)
            except ValueError:   # a UnicodeDecodeError too, which `_parse` raises again
                vals = None
            if vals is not None and vals.shape[1] == 9 and not _checks(vals, order).any():
                return vals
        f.seek(0)
        return _parse(f, order)


def write_annotation_file(path, table, order: FieldOrder = FieldOrder.paper_order) -> None:
    """Write an (N, 9) table, or a list of its (9,) rows, one line per row.
    Raises AnnotationError naming the first row with a non-finite field."""
    rows = np.asarray(table, dtype=np.float64).reshape(len(table), 9)
    with open(path, "w", encoding="utf-8") as f:
        for start in range(0, len(rows), _BLOCK):
            f.write(_lines(rows[start:start + _BLOCK], order, lambda i: f"table row {start + i}"))


def compute_stats(table: np.ndarray, frame_count: int | None = None) -> DatasetStats:
    """Dataset statistics of an (N, 9) table: box/track counts, per-frame
    density, ratio histogram. frame_count defaults to the last frame."""
    frame, tid, _, _, w, h = table.T[:6]
    max_frame = int(frame.max(initial=1))
    frame_count = max_frame if frame_count is None else frame_count
    if frame_count < max_frame:
        raise AnnotationError(
            f"frame_count {frame_count} below max frame index {max_frame}")
    ratios = h / w
    # nudge by half an ulp-scale epsilon so ratios that are exact bin edges
    # in decimal (e.g. 1.2) land in the bin they name despite float rounding
    bins, counts = np.unique(np.floor(ratios * 10.0 + 1e-9), return_counts=True)
    lo, hi = RATIO_BAND
    in_band = int(np.count_nonzero((lo <= ratios) & (ratios <= hi)))
    return DatasetStats(
        boxes=len(table),
        frames=frame_count,
        density=len(table) / frame_count,
        tracks=len(np.unique(tid)),
        ratio_mass=in_band / len(table) if len(table) else 0.0,
        ratio_histogram=dict(zip(map(int, bins.tolist()), counts.tolist())),
    )


def resample_framerate(table: np.ndarray, factor: int) -> np.ndarray:
    """The rows of an (N, 9) table in every factor-th frame starting at frame
    1, renumbered from 1, in table order.

    resample(resample(t, a), b) == resample(t, a*b); factor 1 is the identity.
    """
    if factor < 1:
        raise AnnotationError(f"resample factor must be >= 1, got {factor}")
    # each distinct frame in Python ints: exact for any frame and factor, where
    # float64 is not above 2**53 and overflows on a factor beyond float range
    frames, at = np.unique(table[:, 0], return_inverse=True)
    before = [int(f) - 1 for f in frames.tolist()]
    keep = np.array([b % factor == 0 for b in before], dtype=bool)[at]
    out = table[keep]
    out[:, 0] = np.array([b // factor + 1 for b in before], dtype=np.float64)[at[keep]]
    return out


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
