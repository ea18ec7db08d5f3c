import io
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headtrack import motio
from headtrack.geometry import BBox
from headtrack.motio import (
    AnnotationError,
    AnnotationRecord,
    FieldOrder,
    SequenceMeta,
    compute_stats,
    parse_annotations,
    resample_framerate,
    write_annotations,
    write_sequence_meta,
)

EXAMPLE_LINES = [
    "1, 1, 57, 86, 28, 32, 1, 1, 1",
    "2, 1, 55, 87, 28, 32, 1, 1, 1",
    "3, 1, 60, 85, 28, 32, 1, 1, 1",
    "4, 1, 63, 85, 29, 31, 1, 1, 1",
]

# scenario rows as published: (boxes, frames, density, tracks)
DATASET_TABLE = {
    "Classroom": (61_884, 1_452, 42.62, 254),
    "Roof(+)": (225_816, 2_531, 89.22, 114),
    "Roof(Y)": (191_101, 2_275, 84.00, 90),
    "Office": (46_965, 4_178, 11.24, 16),
    "Roof(T)": (170_869, 2_002, 85.35, 90),
    "Street": (166_000, 5_083, 32.66, 468),
    "School Road 1": (512_942, 11_002, 46.62, 400),
    "School Road 2": (360_534, 11_001, 32.77, 260),
    "School Parking Lot 1": (431_548, 7_001, 61.64, 437),
    "School Parking Lot 2": (198_590, 4_001, 49.63, 229),
}


def random_records(rng, n, max_frame=500):
    seen = set()
    out = []
    while len(out) < n:
        frame = int(rng.integers(1, max_frame + 1))
        tid = int(rng.integers(1, 200))
        if (frame, tid) in seen:
            continue
        seen.add((frame, tid))
        out.append(AnnotationRecord(
            frame, tid,
            BBox(round(float(rng.uniform(0, 900)), 2), round(float(rng.uniform(0, 500)), 2),
                 round(float(rng.uniform(4, 60)), 2), round(float(rng.uniform(4, 60)), 2)),
            confidence=round(float(rng.uniform(0, 1)), 2),
            category=1,
            visibility=round(float(rng.uniform(0, 1)), 2)))
    return out


def _format_number_loop(v):
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.2f}"


def parse_annotations_loop(lines, order=FieldOrder.paper_order):
    """The oracle: `parse_annotations` as it was when it checked one line at a
    time, in file order."""
    records = []
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 9:
            raise AnnotationError(f"line {lineno}: expected 9 fields, got {len(fields)}")
        try:
            vals = [float(f) for f in fields]
        except ValueError as e:
            raise AnnotationError(f"line {lineno}: non-numeric field ({e})") from None
        if order is FieldOrder.paper_order:
            tid, frame = vals[0], vals[1]
        else:
            frame, tid = vals[0], vals[1]
        left, top, w, h, conf, cat, vis = vals[2:9]
        if not all(math.isfinite(v) for v in vals):
            raise AnnotationError(f"line {lineno}: non-finite field")
        if frame != int(frame) or tid != int(tid):
            raise AnnotationError(f"line {lineno}: frame and id must be integers")
        if cat != int(cat) or abs(cat) >= 1e15:
            raise AnnotationError(f"line {lineno}: category must be an integer "
                                  "of magnitude below 1e15")
        if not 0.0 <= vis <= 1.0:
            raise AnnotationError(f"line {lineno}: visibility must be in [0, 1]")
        key = (int(frame), int(tid))
        if key in seen:
            raise AnnotationError(f"line {lineno}: duplicate (frame, id) pair {key}")
        seen.add(key)
        try:
            rec = AnnotationRecord(int(frame), int(tid), BBox(left, top, w, h),
                                   conf, int(cat), vis)
        except ValueError as e:
            raise AnnotationError(f"line {lineno}: {e}") from None
        if not (w * h < math.inf and all(
                math.isfinite(v) for v in (left + w, top + h, w / h, h / w * 10.0,
                                           w * w, h * h))):
            raise AnnotationError(f"line {lineno}: box edge, area or aspect ratio "
                                  "out of float range")
        records.append(rec)
    return records


def write_annotations_loop(records, order=FieldOrder.paper_order):
    """The oracle: `write_annotations` as it was when it formatted one field at
    a time."""
    for r in records:
        b = r.bbox
        head = (r.track_id, r.frame) if order is FieldOrder.paper_order else \
            (r.frame, r.track_id)
        vals = (*head, b.left, b.top, b.width, b.height,
                r.confidence, r.category, r.visibility)
        fields = [_format_number_loop(float(v)) for v in vals]
        for i in (4, 5):
            if fields[i] == "0.00":
                fields[i] = repr(float(vals[i]))
        yield ",".join(fields) + "\n"


def _format_numbers(values) -> list[str]:
    """The text of each value: an integral value of magnitude below 1e15 as an
    integer, any other with two decimals."""
    col = np.asarray(values, dtype=np.float64)
    whole = (col == np.trunc(col)) & (np.abs(col) < 1e15)
    text = np.empty(col.shape, dtype=object)
    text[whole] = list(map(str, col[whole].astype(np.int64).tolist()))
    text[~whole] = list(map("{:.2f}".format, col[~whole].tolist()))
    return text.tolist()


def write_table_columns(rows, order=FieldOrder.paper_order) -> str:
    """The oracle: the table writer as it was when it formatted a column at a
    time and joined the nine columns with one `str.format`."""
    cols = np.asarray(rows, dtype=np.float64).reshape(-1, 9).T
    if order is FieldOrder.paper_order:
        cols = cols[[1, 0, 2, 3, 4, 5, 6, 7, 8]]
    text = [_format_numbers(col) for col in cols]
    for i in (4, 5):
        for j in np.flatnonzero(cols[i] < 0.005).tolist():
            text[i][j] = repr(float(cols[i, j]))
    return "".join(map("{},{},{},{},{},{},{},{},{}\n".format, *text))


def _outcome(fn, *args):
    """fn's records with their reprs (which show types and signed zeros), or
    the type and text of what it raised."""
    try:
        out = fn(*args)
    except Exception as e:  # noqa: BLE001 - the oracle must raise the same
        return type(e), str(e)
    return out, [repr(r) for r in out]


# every field is a valid spelling for its column, unless it is swapped for a
# spelling from _ODD, which is valid or not depending on the column
_ID = st.sampled_from(["1", "2", "3", " 2 ", "1_0", "3.0", "1e0", "+1"])
_POS = st.one_of(st.sampled_from(["0", "-0", "5", "0.25", "12.5", " 7 ", "-3.5"]),
                 st.floats(-1e3, 1e3).map(repr))
_SIZE = st.one_of(st.sampled_from(["5", "0.25", "12.5", "0.004", "40"]),
                  st.floats(1e-3, 1e3).map(repr))
_UNIT = st.sampled_from(["1", "0", "0.5", "-0", "1.0", "0.25"])
_ODD = st.sampled_from(["x", "", "nan", "inf", "-inf", "NaN", "1e308", "1e-200", "5e-324",
                        "1.5", "0", "-1", "1e200", "1e15", "-1e15", "999999999999999", "2.5", "0x10",
                        "1__0", "_1", "1_", "\u0661", "\u00a01", "1\x1c", "1e400", "- 1"])


# lines per parse or write step: small ones put block edges inside the text
_BLOCKS = st.sampled_from([1, 2, 3, motio._BLOCK])


@st.composite
def annotation_text(draw):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 6)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t", " \x0b"])))
            continue
        fields = [draw(_ID), draw(_ID), draw(_POS), draw(_POS), draw(_SIZE), draw(_SIZE),
                  draw(_UNIT), draw(st.sampled_from(["1", "2", "-4", "1.0"])), draw(_UNIT)]
        if draw(st.integers(0, 2)) == 0:
            fields[draw(st.integers(0, 8))] = draw(_ODD)
        count = draw(st.sampled_from([9] * 18 + [8, 10]))
        fields = (fields + ["1"])[:count]
        sep = draw(st.sampled_from([",", ", ", " ,"]))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + sep.join(fields))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


class TestParse:
    def test_paper_example_first_line(self):
        recs = parse_annotations(EXAMPLE_LINES, FieldOrder.paper_order)
        r = recs[0]
        assert r.track_id == 1 and r.frame == 1
        assert (r.bbox.left, r.bbox.top, r.bbox.width, r.bbox.height) == (57, 86, 28, 32)
        assert r.confidence == 1 and r.category == 1 and r.visibility == 1

    def test_paper_example_all_lines(self):
        recs = parse_annotations(EXAMPLE_LINES, FieldOrder.paper_order)
        assert [r.track_id for r in recs] == [1, 2, 3, 4]
        assert all(r.frame == 1 for r in recs)

    def test_standard_order_swaps_first_two_fields(self):
        recs = parse_annotations(["5, 9, 1, 2, 3, 4, 1, 1, 1"], FieldOrder.standard_order)
        assert recs[0].frame == 5 and recs[0].track_id == 9

    def test_empty_stream(self):
        assert parse_annotations(io.StringIO("")) == []

    def test_wrong_field_count(self):
        with pytest.raises(AnnotationError, match="line 1"):
            parse_annotations(["1, 1, 57, 86"])

    def test_non_numeric(self):
        with pytest.raises(AnnotationError, match="line 2"):
            parse_annotations(["1,1,1,1,1,1,1,1,1", "1,2,x,1,1,1,1,1,1"])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("index", [6, 8])  # confidence, visibility
    def test_non_finite_field(self, index, bad):
        fields = "1,2,0,0,5,5,1,1,1".split(",")
        fields[index] = bad
        with pytest.raises(AnnotationError, match="line 2"):
            parse_annotations(["1,1,0,0,5,5,1,1,1", ",".join(fields)])

    @pytest.mark.parametrize("line", ["1,1,1e308,0,1e308,10,1,1,1",   # right edge
                                      "1,1,0,1e308,10,1e308,1,1,1",    # bottom edge
                                      "1,1,0,0,1e200,1e200,1,1,1",     # area
                                      "1,1,0,0,1e-200,1e-200,1,1,1",   # area underflows
                                      "1,1,0,0,5e-324,0.5,1,1,1",      # height / width
                                      "1,1,0,0,1e300,1e-300,1,1,1",    # width / height
                                      "1,1,0,0,1e-100,1e200,1,1,1",    # height squared
                                      "1,1,0,0,1e200,1e-100,1,1,1",    # width squared
                                      "1,1,0,0,10,10,1,1.5,1",         # fractional category
                                      "1,1,0,0,10,10,1,1e300,1",       # category too large
                                      "1,1,0,0,10,10,1,-1e15,1",       # ... or too negative
                                      "1,1,0,0,10,10,1,1,-3",          # visibility below 0
                                      "1,1,0,0,10,10,1,1,2.5"])        # visibility above 1
    def test_out_of_range_box(self, line):
        with pytest.raises(AnnotationError, match="line 2"):
            parse_annotations(["1,2,0,0,5,5,1,1,1", line])

    def test_duplicate_frame_id(self):
        with pytest.raises(AnnotationError, match="duplicate"):
            parse_annotations(["1,1,0,0,5,5,1,1,1", "1,1,9,9,5,5,1,1,1"])

    @settings(max_examples=400, deadline=None)
    @given(annotation_text(), st.sampled_from(list(FieldOrder)), _BLOCKS)
    def test_equals_line_oracle(self, text, order, block):
        # records equal (and equal in repr), or the same error text, also
        # when the lines are parsed a few at a time
        with mock.patch.object(motio, "_BLOCK", block):
            got = _outcome(parse_annotations, io.StringIO(text), order)
        assert got == _outcome(parse_annotations_loop, io.StringIO(text), order)

    @pytest.mark.parametrize("lines", [
        ["1,1,0,0,5,5,1,1,1", "1,2,0,0,5,5,1,1,nan", "1,3,x,0,5,5,1,1,1"],
        ["1,1,0,0,5,5,1,1,1", "1,1,0,0,5,5,1,1,1", "1,2,0,0,5,5,1,1"],
        ["", "1,1,0,0,0,5,1,1,1", " ", "1,2,0,0,5,5,1,1,x"],
        ["1,1,0,0,5,5,1,1,1", "2,1,0,0,5,5,1,1,1,7", "1, x"],
        ["1,1,0,0,5,5,1,1,1", "1,2, x ,0,5,5,1,1,1"],
        ["1,0,0,0,-1,5,1,1,1"],
        ["1,-1,0,0,5,5,1,1,1", "2,2,0,0,5,5,1,1,1"],
        ["1,1,1e308,0,1e308,10,1,1,1", "1,2,0,0,5,5,1,1,2"],
    ])
    def test_first_bad_line_and_check_as_oracle(self, lines):
        assert _outcome(parse_annotations, lines) == _outcome(parse_annotations_loop, lines)


# -0.0, integers either side of 1e15, two-decimal ties and sizes below 0.005
_WRITE_INT = st.one_of(st.integers(1, 50), st.integers(10**15 - 2, 10**15 + 2),
                       st.integers(1, 10**17))
_WRITE_FLOAT = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e15, 1e15 - 1, 1e15 + 1, -1e15, -(1e15 - 1), 0.125, 2.675,
                     1.005, 0.015, -0.005, -0.004, 0.5, 999999999999999.5, 1e300]),
    st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))
_WRITE_SIZE = st.one_of(st.sampled_from([0.004, 0.005, 0.0049999, 1e-100, 5e-324, 0.01, 1e15]),
                        st.floats(1e-6, 1e3))

# table values: integral ones (-0.0 and either side of 1e15 too), ones that
# two decimals write as x.00, as x.x5 or from a half-cent tie, and any
# finite float; widths and heights below 0.005 too
_OFFSETS = st.sampled_from([-0.0049, -0.004, -0.001, 0.001, 0.004, 0.0049])
_TABLE_VALUE = st.one_of(
    st.integers(-10**6, 10**6).map(float),
    st.sampled_from([-0.0, 0.0, 1e15, 1e15 - 1, 1e15 - 0.5, -1e15, -(1e15 - 1), 1e15 + 2]),
    st.tuples(st.integers(-10**5, 10**5), _OFFSETS).map(sum),
    st.tuples(st.integers(-10**5, 10**5), st.integers(0, 9)).map(
        lambda t: t[0] + t[1] / 10 + 0.05),
    st.tuples(st.integers(-10**5, 10**5), st.integers(0, 99)).map(
        lambda t: t[0] + t[1] / 100 + 0.005),
    st.floats(allow_nan=False, allow_infinity=False))
_TABLE_SIZE = st.one_of(_TABLE_VALUE, st.sampled_from([0.004, 0.0049999, 0.005, 1e-100, 5e-324]),
                        st.floats(0, 0.005))
_TABLE_ROW = st.tuples(*[_TABLE_VALUE] * 4, _TABLE_SIZE, _TABLE_SIZE, *[_TABLE_VALUE] * 3)


class TestWrite:
    def test_canonical_line(self):
        rec = AnnotationRecord(1, 1, BBox(57, 86, 28, 32), 1, 1, 1)
        assert list(write_annotations([rec])) == ["1,1,57,86,28,32,1,1,1\n"]

    def test_fractional_formatting(self):
        rec = AnnotationRecord(1, 1, BBox(57.25, 86, 28, 32), 1, 1, 1)
        assert list(write_annotations([rec]))[0].startswith("1,1,57.25,")

    @pytest.mark.parametrize("w, h", [(0.004, 10), (10, 0.001), (1e-100, 5), (0.0049, 0.0001)])
    def test_tiny_extent_round_trips(self, w, h):
        # two decimals would write these as 0.00, which no parser accepts
        rec = AnnotationRecord(1, 1, BBox(0.25, 3, w, h), 1, 1, 1)
        assert parse_annotations(write_annotations([rec])) == [rec]

    @pytest.mark.parametrize("order", list(FieldOrder))
    def test_round_trip_random(self, order):
        recs = random_records(np.random.default_rng(0), 1000)
        again = parse_annotations(write_annotations(recs, order), order)
        assert again == recs

    def test_write_parse_byte_stable(self):
        recs = random_records(np.random.default_rng(1), 100)
        text = list(write_annotations(recs))
        assert list(write_annotations(parse_annotations(text))) == text

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_WRITE_INT, _WRITE_INT, _WRITE_FLOAT, _WRITE_FLOAT,
                              _WRITE_SIZE, _WRITE_SIZE, _WRITE_FLOAT,
                              st.integers(-10**16, 10**16), _WRITE_FLOAT)
                    .filter(lambda row: row[4] * row[5] > 0), max_size=12),
           st.sampled_from(list(FieldOrder)), _BLOCKS)
    def test_equals_field_oracle(self, rows, order, block):
        recs = [AnnotationRecord(f, t, BBox(x, y, w, h), c, k, v)
                for f, t, x, y, w, h, c, k, v in rows]
        with mock.patch.object(motio, "_BLOCK", block):
            got = list(write_annotations(iter(recs), order))
        assert got == list(write_annotations_loop(recs, order))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_TABLE_ROW, max_size=12), st.sampled_from(list(FieldOrder)),
           st.sampled_from(["table", "rows"]), _BLOCKS)
    def test_table_writer_equals_column_oracle(self, rows, order, form, block):
        """A table, or the list of its rows that the benchmark's tracer
        passes, is written byte for byte as the column writer wrote it."""
        table = np.array(rows, dtype=np.float64).reshape(-1, 9)
        with tempfile.TemporaryDirectory() as d, mock.patch.object(motio, "_BLOCK", block):
            path = Path(d) / "t.txt"
            motio.write_annotation_file(path, table if form == "table" else list(table), order)
            assert path.read_text(encoding="utf-8") == write_table_columns(table, order)

    @pytest.mark.parametrize("empty", [np.empty((0, 9)), []])
    def test_empty_table_writes_empty_file(self, tmp_path, empty):
        motio.write_annotation_file(tmp_path / "t.txt", empty)
        assert (tmp_path / "t.txt").read_bytes() == b""

    def test_non_finite_table_row_is_named(self, tmp_path):
        table = np.ones((3, 9))
        table[1, 6] = math.nan
        with pytest.raises(AnnotationError, match=r"^non-finite field in table row 1$"):
            motio.write_annotation_file(tmp_path / "t.txt", table)

    @pytest.mark.parametrize("field", ["confidence", "visibility"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_names_the_record(self, field, bad):
        good = AnnotationRecord(1, 1, BBox(0, 0, 5, 5))
        rec = AnnotationRecord(2, 1, BBox(0, 0, 5, 5), **{field: bad})
        with pytest.raises(AnnotationError, match=r"non-finite field in record "
                                                  r"AnnotationRecord\(frame=2, track_id=1"):
            list(write_annotations([good, rec]))


class TestStats:
    def test_density_examples(self):
        # rows the tolerance spec quotes directly
        assert 61_884 / 1_452 == pytest.approx(42.62, abs=0.005)
        assert 166_000 / 5_083 == pytest.approx(32.66, abs=0.005)

    def test_published_table_rows_self_consistent(self):
        # 9 of the 10 published rows reproduce their density within half a
        # unit in the last printed place; the last parking-lot row was
        # truncated rather than rounded in print (off by ~0.0051)
        off = []
        for name, (boxes, frames, density, _) in DATASET_TABLE.items():
            if abs(boxes / frames - density) > 0.005:
                off.append(name)
        assert off == ["School Parking Lot 2"]
        lot2 = DATASET_TABLE["School Parking Lot 2"]
        assert abs(lot2[0] / lot2[1] - lot2[2]) == pytest.approx(0.00509, abs=1e-4)

    def test_compute_stats_counts(self):
        recs = parse_annotations(EXAMPLE_LINES)
        stats = compute_stats(recs, frame_count=2)
        assert stats.boxes == 4
        assert stats.tracks == 4
        assert stats.density == pytest.approx(2.0)

    def test_compute_stats_rejects_short_frame_count(self):
        recs = [AnnotationRecord(5, 1, BBox(0, 0, 5, 5))]
        with pytest.raises(AnnotationError):
            compute_stats(recs, frame_count=4)

    def test_square_boxes_ratio_mass(self):
        recs = [AnnotationRecord(1, i, BBox(0, 0, 10, 10)) for i in range(1, 11)]
        stats = compute_stats(recs, 1)
        assert stats.ratio_mass == 1.0

    def test_ratio_mass_band_is_closed(self):
        # h/w of 0.8 and 1.4 lie in the band, 0.7 and 1.5 do not
        recs = [AnnotationRecord(1, i, BBox(0, 0, 10, h)) for i, h in enumerate((7, 8, 14, 15), 1)]
        assert compute_stats(recs, 1).ratio_mass == 0.5

    def test_empty_records_ratio_mass(self):
        assert compute_stats([], 1).ratio_mass == 0.0

    def test_ratio_histogram_bins(self):
        recs = [AnnotationRecord(1, 1, BBox(0, 0, 10, 5)),   # 0.5
                AnnotationRecord(1, 2, BBox(0, 0, 10, 12))]  # 1.2
        stats = compute_stats(recs, 1)
        assert stats.ratio_histogram == {5: 1, 12: 1}


class TestResample:
    def test_factor_two(self):
        recs = [AnnotationRecord(f, 1, BBox(0, 0, 5, 5)) for f in range(1, 11)]
        out = resample_framerate(recs, 2)
        assert [r.frame for r in out] == [1, 2, 3, 4, 5]

    def test_identity(self):
        recs = [AnnotationRecord(f, 1, BBox(0, 0, 5, 5)) for f in range(1, 6)]
        assert resample_framerate(recs, 1) == recs

    def test_composition(self):
        recs = random_records(np.random.default_rng(2), 300, max_frame=60)
        a = resample_framerate(resample_framerate(recs, 2), 3)
        b = resample_framerate(recs, 6)
        assert sorted(a, key=lambda r: (r.frame, r.track_id)) == \
               sorted(b, key=lambda r: (r.frame, r.track_id))

    def test_kept_count(self):
        recs = [AnnotationRecord(f, 1, BBox(0, 0, 5, 5)) for f in range(1, 51)]
        out = resample_framerate(recs, 2)
        assert len(out) == sum(1 for f in range(1, 51) if (f - 1) % 2 == 0)

    def test_zero_factor_rejected(self):
        with pytest.raises(AnnotationError):
            resample_framerate([], 0)


@pytest.mark.parametrize("fps,text", [(23.976, "23.976"), (1 / 3, repr(1 / 3))])
def test_sequence_meta_fractional_fps_written_exactly(tmp_path, fps, text):
    path = tmp_path / "seq.meta"
    write_sequence_meta(path, SequenceMeta("lab", fps, 500, (640, 480), "overhead"))
    assert motio.read_kv(path)["fps"] == text and float(text) == fps


def test_sequence_meta_round_trip(tmp_path):
    path = tmp_path / "seq.meta"
    write_sequence_meta(path, SequenceMeta("lab", 25.0, 500, (640, 480), "overhead"))
    assert path.read_text(encoding="utf-8").splitlines() == [
        "name=lab", "fps=25", "frames=500", "width=640", "height=480", "view=overhead"]
