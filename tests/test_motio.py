import io

import pytest

from headtrack.geometry import BBox
from headtrack.motio import (
    AnnotationError,
    AnnotationRecord,
    FieldOrder,
    SequenceMeta,
    compute_stats,
    parse_annotations,
    read_sequence_meta,
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
        import numpy as np
        recs = random_records(np.random.default_rng(0), 1000)
        again = parse_annotations(write_annotations(recs, order), order)
        assert again == recs

    def test_write_parse_byte_stable(self):
        import numpy as np
        recs = random_records(np.random.default_rng(1), 100)
        text = list(write_annotations(recs))
        assert list(write_annotations(parse_annotations(text))) == text


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
        assert stats.ratio_mass_in(0.8, 1.4) == 1.0

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
        import numpy as np
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


def test_sequence_meta_round_trip(tmp_path):
    meta = SequenceMeta("lab", 25.0, 500, (640, 480), "overhead")
    path = tmp_path / "seq.meta"
    write_sequence_meta(path, meta)
    assert read_sequence_meta(path) == meta
