import contextlib
import io
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polypstream.cli import run_cli
from polypstream.errors import InputError
from polypstream.formats import (
    parse_detections,
    parse_groundtruth,
    read_frames,
    read_image,
    write_detections,
    write_frames,
    write_groundtruth,
    write_pgm,
    write_ppm_gray,
)
from polypstream.geometry import (
    BoundingBox,
    BoxOrigin,
    FrameDetections,
    FrameMeta,
    GroundTruthBox,
    ScoredBox,
)
from polypstream.similarity import GrayFrame


def records_file(directory: str | Path, text: str) -> Path:
    """``text`` written as the record file ``records.txt`` under ``directory``."""
    path = Path(directory) / "records.txt"
    path.write_text(text)
    return path


class TestParseDetections:
    def test_basic_record(self, tmp_path):
        out = parse_detections(records_file(tmp_path, "0 10 10 20 20 0.9\n"), 100, 100)
        assert len(out) == 1
        assert len(out[0].boxes) == 1
        box = out[0].boxes[0]
        assert box.box.as_tuple() == (10, 10, 20, 20)
        assert box.confidence == 0.9
        assert box.origin is BoxOrigin.DETECTOR

    def test_empty_file_gives_empty_frames(self, tmp_path):
        out = parse_detections(records_file(tmp_path, ""), 100, 100, n_frames=4)
        assert len(out) == 4
        assert all(len(d.boxes) == 0 for d in out)

    def test_inverted_x_rejected_with_line(self, tmp_path):
        with pytest.raises(InputError, match="line 1"):
            parse_detections(records_file(tmp_path, "3 20 10 10 20 0.5\n"), 100, 100)

    def test_line_number_in_later_error(self, tmp_path):
        text = "0 1 1 2 2 0.5\n\n# comment\n2 5 5 4 9 0.5\n"
        with pytest.raises(InputError, match="line 4"):
            parse_detections(records_file(tmp_path, text), 100, 100)

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(InputError, match="not finite"):
            parse_detections(records_file(tmp_path, "0 1 1 inf 2 0.5\n"), 100, 100)

    def test_bad_confidence_rejected(self, tmp_path):
        with pytest.raises(InputError, match="confidence"):
            parse_detections(records_file(tmp_path, "0 1 1 2 2 1.5\n"), 100, 100)

    def test_clipping_applied(self, tmp_path):
        out = parse_detections(records_file(tmp_path, "0 -5 -5 20 20 0.9\n"), 10, 10)
        assert out[0].boxes[0].box.as_tuple() == (0, 0, 10, 10)

    def test_fully_outside_rejected(self, tmp_path):
        with pytest.raises(InputError, match="outside"):
            parse_detections(records_file(tmp_path, "0 50 50 60 60 0.9\n"), 10, 10)

    def test_origin_column_round_trip(self, tmp_path):
        out = parse_detections(records_file(tmp_path, "0 1 1 2 2 0.5 interp\n"), 10, 10)
        assert out[0].boxes[0].origin is BoxOrigin.INTERPOLATED
        with pytest.raises(InputError, match="origin"):
            parse_detections(records_file(tmp_path, "0 1 1 2 2 0.5 maybe\n"), 10, 10)

    def test_index_beyond_declared_length(self, tmp_path):
        with pytest.raises(InputError, match="beyond"):
            parse_detections(records_file(tmp_path, "7 1 1 2 2 0.5\n"), 10, 10, n_frames=5)

    def test_missing_frames_empty(self, tmp_path):
        out = parse_detections(records_file(tmp_path, "2 1 1 2 2 0.5\n"), 10, 10)
        assert [len(d.boxes) for d in out] == [0, 0, 1]


class TestParseGroundtruth:
    def test_centroid_conversion(self, tmp_path):
        out = parse_groundtruth(records_file(tmp_path, "5 p1 50 50 20 10\n"))
        assert len(out) == 6
        g = out[5][0]
        assert g.box.as_tuple() == (40, 45, 60, 55)
        assert g.polyp_id == "p1"

    def test_corner_at_origin(self, tmp_path):
        out = parse_groundtruth(records_file(tmp_path, "0 p1 10 10 20 20\n"))
        assert out[0][0].box.as_tuple() == (0, 0, 20, 20)

    @given(
        st.floats(0.0, 2000.0),
        st.floats(0.0, 2000.0),
        st.floats(0.01, 2000.0),
        st.floats(0.01, 2000.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_box_is_centroid_arithmetic(self, cx, cy, w, h):
        # a record's corners are the centroid arithmetic on its values, bit for bit
        tokens = [f"{v:.6g}" for v in (cx, cy, w, h)]
        cx, cy, w, h = (float(t) for t in tokens)
        assume(cx - w / 2.0 >= 0 and cy - h / 2.0 >= 0)
        with tempfile.TemporaryDirectory() as d:
            out = parse_groundtruth(records_file(d, f"0 p1 {' '.join(tokens)}\n"))
        expected = BoundingBox(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
        assert out[0][0].box == expected

    def test_duplicate_rejected(self, tmp_path):
        text = "5 p1 50 50 20 10\n5 p1 60 60 20 10\n"
        with pytest.raises(InputError, match="duplicate"):
            parse_groundtruth(records_file(tmp_path, text))

    def test_zero_width_rejected(self, tmp_path):
        with pytest.raises(InputError, match="line 1"):
            parse_groundtruth(records_file(tmp_path, "5 p1 50 50 0 10\n"))

    def test_same_polyp_distinct_frames_ok(self, tmp_path):
        out = parse_groundtruth(records_file(tmp_path, "0 p1 50 50 20 10\n1 p1 51 50 20 10\n"))
        assert len(out[0]) == 1 and len(out[1]) == 1


_DET_FIELDS = "(frame x_min y_min x_max y_max confidence [origin])"
_BEYOND_MAX = "beyond 1000000 frames; declare the sequence length to read it"

# (parser, file text, keyword arguments, the exact message it raises)
RECORD_ERRORS = [
    (parse_detections, "0 1 1 2 2\n", {}, f"line 1: expected 6 or 7 fields {_DET_FIELDS}, got 5"),
    (parse_detections, "0 1 1 2 2 0.5 det x\n", {},
     f"line 1: expected 6 or 7 fields {_DET_FIELDS}, got 8"),
    (parse_detections, "# header\n\n0 1 1 2\n", {},
     f"line 3: expected 6 or 7 fields {_DET_FIELDS}, got 4"),
    (parse_detections, "0 1 1 2 x 0.5\n", {}, "line 1: y_max 'x' is not a number"),
    (parse_detections, "0 1 1 inf 2 0.5\n", {}, "line 1: x_max 'inf' is not finite"),
    (parse_detections, "0 1 1 2 2 nan\n", {}, "line 1: confidence 'nan' is not finite"),
    (parse_detections, "1.5 1 1 2 2 0.5\n", {}, "line 1: frame index '1.5' is not an integer"),
    (parse_detections, "-1 1 1 2 2 0.5\n", {}, "line 1: frame index must be >= 0"),
    (parse_detections, "7 1 1 2 2 0.5\n", {"n_frames": 5},
     "line 1: frame index 7 beyond declared length 5"),
    (parse_detections, "1000000 1 1 2 2 0.5\n", {}, f"line 1: frame index 1000000 {_BEYOND_MAX}"),
    (parse_detections, "3 20 10 10 20 0.5\n", {}, "line 1: x_min 20 must be < x_max 10"),
    (parse_detections, "3 1 20 10 10 0.5\n", {}, "line 1: y_min 20 must be < y_max 10"),
    (parse_detections, "0 1 1 2 2 1.5\n", {}, "line 1: confidence 1.5 outside [0, 1]"),
    (parse_detections, "0 1 1 2 2 0.5 maybe\n", {},
     "line 1: origin must be 'det' or 'interp', got 'maybe'"),
    (parse_detections, "0 50 50 60 60 0.9\n", {"width": 10, "height": 10},
     "line 1: box lies entirely outside the 10x10 frame"),
    (parse_detections, "0 0 0 1e-200 1e-200 0.9\n", {},
     "line 1: box area underflows to 0, got (0.0, 0.0, 1e-200, 1e-200)"),
    (parse_detections, "", {"n_frames": -1}, "declared length -1 outside [0, 1000000] frames"),
    (parse_detections, "0 1 1 2 x 0.5\n", {"n_frames": 1000001},
     "declared length 1000001 outside [0, 1000000] frames"),
    # every line is checked before any is clipped: line 2's bad number wins
    # over line 1's box that clips to nothing
    (parse_detections, "0 50 50 60 60 0.9\n0 1 1 2 x 0.5\n", {"width": 10, "height": 10},
     "line 2: y_max 'x' is not a number"),
    (parse_groundtruth, "0 p1 1 2 3\n", {},
     "line 1: expected 6 fields (frame polyp_id cx cy w h), got 5"),
    (parse_groundtruth, "0 p1 x 2 3 4\n", {}, "line 1: cx 'x' is not a number"),
    (parse_groundtruth, "0 p1 5 5 inf 4\n", {}, "line 1: w 'inf' is not finite"),
    (parse_groundtruth, "a p1 5 5 2 2\n", {}, "line 1: frame index 'a' is not an integer"),
    (parse_groundtruth, "-2 p1 5 5 2 2\n", {}, "line 1: frame index must be >= 0"),
    (parse_groundtruth, "3 p1 5 5 2 2\n", {"n_frames": 3},
     "line 1: frame index 3 beyond declared length 3"),
    (parse_groundtruth, "1000000 p1 5 5 2 2\n", {}, f"line 1: frame index 1000000 {_BEYOND_MAX}"),
    (parse_groundtruth, "5 p1 50 50 0 10\n", {},
     "line 1: ground truth extent must be positive, got 0.0x10.0"),
    (parse_groundtruth, "0 p1 1 1 4 4\n", {},
     "line 1: box coordinates must be >= 0, got (-1.0, -1.0, 3.0, 3.0)"),
    (parse_groundtruth, "5 p1 50 50 20 10\n# again\n5 p1 60 60 20 10\n", {},
     "line 3: duplicate annotation for polyp 'p1' in frame 5"),
    (parse_groundtruth, "0 p1 x 2 3 4\n", {"n_frames": -1},
     "declared length -1 outside [0, 1000000] frames"),
]


@pytest.mark.parametrize("path_type", [str, Path], ids=["str", "path"])
@pytest.mark.parametrize("parse, text, kwargs, message", RECORD_ERRORS)
def test_record_error_message(parse, text, kwargs, message, path_type, tmp_path):
    # every message starts with the file's path, given as a str or a Path
    path = path_type(records_file(tmp_path, text))
    with pytest.raises(InputError) as info:
        parse(path, **kwargs)
    assert str(info.value) == f"{path}: {message}"


class TestRoundTrip:
    def test_detections_round_trip(self, tmp_path):
        meta = FrameMeta(320, 240, 0)
        frames = [
            FrameDetections(
                meta,
                (
                    ScoredBox(BoundingBox(10.125, 20.5, 30.75, 44.25), 0.875),
                    ScoredBox(BoundingBox(1.5, 2.5, 3.5, 4.5), 0.25, BoxOrigin.INTERPOLATED),
                ),
            )
        ]
        path = tmp_path / "det.txt"
        write_detections(path, frames, include_origin=True)
        parsed = parse_detections(path, 320, 240)
        assert parsed[0].boxes == frames[0].boxes

    def test_groundtruth_round_trip(self, tmp_path):
        # dyadic corners whose centroid form is exact in 6 significant digits
        gts = [[GroundTruthBox(BoundingBox(40.1875, 55.125, 60.3125, 65.875), "p1")], []]
        path = tmp_path / "gt.txt"
        write_groundtruth(path, gts)
        assert path.read_text() == "0 p1 50.25 60.5 20.125 10.75\n"
        parsed = parse_groundtruth(path, n_frames=2)
        assert parsed[0] == gts[0]
        assert parsed[1] == []


class TestNetpbm:
    def make_frame(self, seed=0, h=12, w=16):
        r = np.random.default_rng(seed)
        return GrayFrame.from_array(r.integers(0, 256, size=(h, w), dtype=np.uint8))

    def test_pgm_round_trip(self, tmp_path):
        f = self.make_frame()
        path = tmp_path / "000000.pgm"
        write_pgm(path, f)
        back = read_image(path)
        assert np.array_equal(back.samples, f.samples)

    def test_ppm_luma_round_trip(self, tmp_path):
        f = self.make_frame(1)
        path = tmp_path / "000000.ppm"
        write_ppm_gray(path, f)
        back = read_image(path)
        # equal channels survive the luma weights exactly
        assert np.array_equal(back.samples, f.samples)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x01\x02\x03")
        f = read_image(path)
        assert f.samples.tolist() == [[0, 1], [2, 3]]

    def test_decoded_samples_are_read_only_raster(self, tmp_path):
        raster = bytes(range(6))
        path = tmp_path / "r.pgm"
        path.write_bytes(b"P5\n# a longer comment line\n3 2\n255\n" + raster + b"trailing")
        samples = read_image(path).samples
        assert not samples.flags.writeable
        assert samples.tobytes() == raster

    def test_high_maxval_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
        with pytest.raises(InputError, match="maxval"):
            read_image(path)

    def test_ascii_format_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(InputError, match="P5/P6"):
            read_image(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(InputError, match="truncated"):
            read_image(path)


class TestReadFrames:
    def write_seq(self, tmp_path, count, fmt="pgm", skip=None):
        frames = [self.frame(i) for i in range(count)]
        write_frames(tmp_path, frames, fmt)
        if skip is not None:
            name = f"{skip:06d}.{fmt}"
            (tmp_path / name).unlink()
        return frames

    def frame(self, i):
        return GrayFrame.from_array(np.full((8, 10), i, dtype=np.uint8))

    def test_ordered_read(self, tmp_path):
        frames = self.write_seq(tmp_path, 3)
        got = read_frames(tmp_path)
        assert len(got) == 3
        for want, have in zip(frames, got):
            assert np.array_equal(want.samples, have.samples)

    def test_gap_reported(self, tmp_path):
        self.write_seq(tmp_path, 3, skip=1)
        with pytest.raises(InputError, match="missing frame index 1"):
            read_frames(tmp_path)

    def test_first_index_must_be_zero(self, tmp_path):
        # frames 1..3 are not renumbered from 0: detection indices refer to files
        self.write_seq(tmp_path, 4, skip=0)
        with pytest.raises(InputError, match="missing frame index 0"):
            read_frames(tmp_path)

    def test_mixed_dimensions_rejected(self, tmp_path):
        write_pgm(tmp_path / "000000.pgm", self.frame(0))
        write_pgm(
            tmp_path / "000001.pgm",
            GrayFrame.from_array(np.zeros((9, 10), dtype=np.uint8)),
        )
        write_pgm(tmp_path / "000002.pgm", self.frame(2))
        with pytest.raises(InputError, match="mixed") as info:
            list(read_frames(tmp_path))
        # the first file that differs, its size and the size of the first frame
        assert "000001.pgm is 10x9, expected 10x8" in str(info.value)

    def test_lazy_sequence_sized_and_reiterable(self, tmp_path):
        frames = self.write_seq(tmp_path, 4)
        seq = read_frames(tmp_path)
        assert (len(seq), seq.width, seq.height) == (4, 10, 8)
        for _ in range(2):  # each pass decodes the files again
            got = list(seq)
            assert [g.samples.tolist() for g in got] == [f.samples.tolist() for f in frames]

    def test_later_frame_decoded_only_when_reached(self, tmp_path):
        self.write_seq(tmp_path, 3)
        (tmp_path / "000002.pgm").write_bytes(b"P5\n10 8\n255\n\x00")
        seq = read_frames(tmp_path)  # the listing and frame 0 only
        it = iter(seq)
        next(it), next(it)
        with pytest.raises(InputError, match="000002.pgm: raster truncated"):
            next(it)

    def test_listing_cost_independent_of_largest_index(self, tmp_path):
        # the gap is found from the sorted indices, not by scanning up to
        # the largest one
        self.write_seq(tmp_path, 1)
        write_pgm(tmp_path / f"{10**12}.pgm", self.frame(1))
        t0 = time.perf_counter()
        with pytest.raises(InputError, match="missing frame index 1$"):
            read_frames(tmp_path)
        assert time.perf_counter() - t0 < 1.0

    def test_first_gap_reported_among_several(self, tmp_path):
        self.write_seq(tmp_path, 6, skip=4)
        (tmp_path / "000002.pgm").unlink()
        with pytest.raises(InputError, match="missing frame index 2$"):
            read_frames(tmp_path)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(InputError, match="no .pgm"):
            read_frames(tmp_path)

    def test_non_directory_rejected(self, tmp_path):
        with pytest.raises(InputError, match="not a directory"):
            read_frames(tmp_path / "nope")


def netpbm_bytes(magic: bytes, width: int, height: int, seed: int) -> bytes:
    channels = 1 if magic == b"P5" else 3
    raster = np.random.default_rng(seed).integers(0, 256, width * height * channels, dtype=np.uint8)
    return magic + f"\n# c\n{width} {height}\n255\n".encode("ascii") + raster.tobytes()


# (kind, position as a fraction of the length, bytes): a position near 0 hits
# the header, one near 1 the raster
_MUTATION = st.tuples(
    st.sampled_from(("replace", "insert", "truncate")),
    st.floats(0.0, 1.0),
    st.one_of(
        st.binary(min_size=1, max_size=4),
        st.sampled_from((b" ", b"\n", b"#", b"-", b"0", b"9", b"P", b"99999")),
    ),
)


def mutate(data: bytes, mutations) -> bytes:
    for kind, where, chunk in mutations:
        i = min(int(where * len(data)), max(len(data) - 1, 0))
        if kind == "replace":
            data = data[:i] + chunk + data[i + len(chunk) :]
        elif kind == "insert":
            data = data[:i] + chunk + data[i:]
        else:
            data = data[:i]
    return data


class TestNetpbmFuzz:
    """Mutated, truncated and padded headers and rasters: a frame either
    decodes or raises InputError, never another exception."""

    @given(st.sampled_from((b"P5", b"P6")), st.lists(_MUTATION, min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_read_image_raises_only_input_error(self, magic, mutations):
        data = mutate(netpbm_bytes(magic, 6, 4, seed=0), mutations)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "f.pgm"
            path.write_bytes(data)
            try:
                frame = read_image(path)
            except InputError:
                return
        assert frame.samples.dtype == np.uint8 and frame.samples.shape == (frame.height, frame.width)

    @given(
        st.integers(1, 2),
        st.sampled_from((b"P5", b"P6")),
        st.lists(_MUTATION, min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_mutated_later_frame_exit_0_or_1(self, index, magic, mutations):
        with tempfile.TemporaryDirectory() as d:
            root = Path(d)
            frames = root / "frames"
            frames.mkdir()
            for i in range(3):
                data = netpbm_bytes(magic, 16, 12, seed=i)
                if i == index:
                    data = mutate(data, mutations)
                (frames / f"{i:06d}.pgm").write_bytes(data)
            (root / "det.txt").write_text("".join(f"{i} 2 2 9 9 0.9\n" for i in range(3)))
            args = ["filter", "--frames", str(frames), "--detections", str(root / "det.txt")]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = run_cli(args + ["--output", str(root / "out.txt")])
        assert code in (0, 1), err.getvalue()


# tokens that stress the record parsers: non-finite and huge numbers,
# negative and huge indices, origins, comments and plain junk
_RECORD_TOKEN = st.one_of(
    st.sampled_from(
        (
            "nan", "NaN", "inf", "-inf", "1e308", "-1e308", "1e999", "1e-320", "-0",
            "-1", "-7", "99999999999", str(10**30), "0x10", "1_0", "#", "#x", "",
            "det", "interp", "a", "0.5", "2", "1e3", "+3", "٣",
        )
    ),
    st.text("0123456789.-+eE#", min_size=1, max_size=6),
)
# (kind, line position, token position, token): replace or insert a token,
# or cut the line after a token, so records get 5 or 8 fields as well
_RECORD_MUTATION = st.tuples(
    st.sampled_from(("replace", "insert", "truncate")),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    _RECORD_TOKEN,
)


def mutate_records(lines: list[str], mutations) -> str:
    rows = [line.split(" ") for line in lines]
    for kind, row_at, token_at, token in mutations:
        row = rows[min(int(row_at * len(rows)), len(rows) - 1)]
        i = min(int(token_at * len(row)), len(row) - 1)
        if kind == "replace":
            row[i] = token
        elif kind == "insert":
            row.insert(i, token)
        else:
            del row[i + 1 :]
    return "".join(" ".join(row) + "\n" for row in rows)


class TestRecordFuzz:
    """Mutated detection and ground-truth lines: `filter`, `eval` and
    `sweep` exit 0 or 1, never 2."""

    DETECTIONS = [f"{i} {2 + i} 2 {9 + i} 9 0.9" for i in range(4)] + ["2 1 1 5 5 0.3 interp"]
    GROUND_TRUTH = [f"{i} p {5.5 + i} 5.5 7 7" for i in range(4)]

    @given(
        st.lists(_RECORD_MUTATION, max_size=3),
        st.lists(_RECORD_MUTATION, max_size=3),
    )
    @example([("replace", 0.0, 0.0, "99999999999")], [])
    @example([], [("replace", 0.9, 0.0, str(10**30))])
    # a lone surrogate is written as the byte it escapes: a file not UTF-8
    @example([("replace", 0.0, 1.0, "\udcff")], [])
    @settings(max_examples=150, deadline=None)
    def test_exit_0_or_1(self, det_mutations, gt_mutations):
        with tempfile.TemporaryDirectory() as d:
            root = Path(d)
            frames = [GrayFrame.from_array(np.full((12, 16), 9 * i, np.uint8)) for i in range(4)]
            write_frames(root / "frames", frames)
            det, gt = root / "det.txt", root / "gt.txt"
            for path, lines, mutations in (
                (det, self.DETECTIONS, det_mutations),
                (gt, self.GROUND_TRUTH, gt_mutations),
            ):
                path.write_text(mutate_records(lines, mutations), "utf-8", "surrogateescape")
            both = ["--detections", str(det), "--ground-truth", str(gt)]
            runs = [
                ["filter", "--frames", str(root / "frames"), *both[:2], "--output", str(root / "o")],
                ["eval", *both],
                ["eval", *both, "--frame-size", "16x12"],
                ["sweep", "--frames", str(root / "frames"), *both, "--half-window", "1,2"],
            ]
            for args in runs:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                    code = run_cli(args)
                assert code in (0, 1), f"{args[0]}: {err.getvalue()}"
