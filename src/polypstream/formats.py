"""Plain-text record formats and binary netpbm frame I/O.

Detection records are whitespace-separated lines
``frame_index x_min y_min x_max y_max confidence [origin]``; ground-truth
records are ``frame_index polyp_id cx cy w h`` (centroid form). The centroid
form lives only in the file: ``parse_groundtruth`` turns each record into a
corner-form ``BoundingBox`` and ``write_groundtruth`` turns it back. ``#``
starts a comment. Both formats are read through one scanner, ``_records``,
which checks what they share (the declared length, the field count and the
frame index), and written through one writer, ``_write_records``. Floats are
written with 6 significant digits, which is the round-trip precision of
these files.

Every reader and writer takes a path. ``read_lines`` reads every
line-oriented file, config files too. An error about a line starts with its
location, ``path: line N``; one about a whole file, such as text that is not
UTF-8, names its path once.

Frames are binary PGM (P5) or PPM (P6) with maxval 255, named by
zero-padded frame index.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .correlator import FilteredFrame
from .errors import InputError
from .geometry import (
    BoundingBox,
    BoxOrigin,
    FrameDetections,
    FrameMeta,
    GroundTruthBox,
    ScoredBox,
    clip_corners,
)
from .similarity import GrayFrame, to_luma

_FRAME_FILE_RE = re.compile(r"^(\d+)\.(pgm|ppm)$", re.IGNORECASE)
# the longest sequence a record file may describe, declared or implied by its
# indices: 9 hours at 30 fps
MAX_FRAMES = 1_000_000


def read_lines(path: str | Path) -> Iterator[tuple[str, str]]:
    """``(location, line)`` per line of a UTF-8 file, located as ``path: line N``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text at byte {exc.start}") from None
    for line_no, line in enumerate(text.splitlines(), start=1):
        yield f"{path}: line {line_no}", line


def write_file(path: str | Path, data: str | bytes) -> None:
    """Write a whole text or binary file; the write counterpart of
    ``read_lines``. A path that cannot be written is an input error."""
    try:
        if isinstance(data, bytes):
            Path(path).write_bytes(data)
        else:
            Path(path).write_text(data, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from None


def _parse_float(token: str, where: str, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise InputError(f"{where}: {what} {token!r} is not a number") from None
    if not math.isfinite(value):
        raise InputError(f"{where}: {what} {token!r} is not finite")
    return value


def _parse_int(token: str, where: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InputError(f"{where}: {what} {token!r} is not an integer") from None


def _records(
    path: str | Path,
    n_frames: int | None,
    counts: tuple[int, ...],
    layout: str,
) -> Iterator[tuple[str, int, list[str]]]:
    """Each record line of a record file as ``(location, frame index,
    fields)``, after the checks both formats share: the declared length
    ``n_frames`` lies in ``[0, MAX_FRAMES]``, a line holds one of ``counts``
    fields (``layout`` names them in the message), and its frame index is
    below ``n_frames``, or below ``MAX_FRAMES`` when no length is declared:
    every index up to the largest gets its own frame entry. Text after ``#``
    and blank lines are skipped.
    """
    if n_frames is not None and not 0 <= n_frames <= MAX_FRAMES:
        raise InputError(f"{path}: declared length {n_frames} outside [0, {MAX_FRAMES}] frames")
    expected = " or ".join(str(c) for c in counts)
    for where, raw in read_lines(path):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        fields = text.split()
        if len(fields) not in counts:
            raise InputError(f"{where}: expected {expected} fields ({layout}), got {len(fields)}")
        frame_index = _parse_int(fields[0], where, "frame index")
        if frame_index < 0:
            raise InputError(f"{where}: frame index must be >= 0")
        if n_frames is not None and frame_index >= n_frames:
            raise InputError(
                f"{where}: frame index {frame_index} beyond declared length {n_frames}"
            )
        if n_frames is None and frame_index >= MAX_FRAMES:
            raise InputError(
                f"{where}: frame index {frame_index} beyond {MAX_FRAMES} frames; "
                "declare the sequence length to read it"
            )
        yield where, frame_index, fields


def parse_detections(
    path: str | Path,
    width: int | None = None,
    height: int | None = None,
    n_frames: int | None = None,
) -> list[FrameDetections]:
    """Parse detection records into per-frame sets of the given geometry.

    Boxes are clipped to the frame; a record that clips to nothing is an
    error. A dimension not given is the ceiling of the records' largest
    ``x_max`` (or ``y_max``), at least 1, so clipping on it is a no-op.
    Every record is checked before any is clipped. Frames with no records
    come back with empty detection lists, up to ``n_frames`` (or the highest
    index seen when not given).
    """
    records = []  # (where, frame_index, x_min, y_min, x_max, y_max, confidence, origin)
    layout = "frame x_min y_min x_max y_max confidence [origin]"
    for where, frame_index, fields in _records(path, n_frames, (6, 7), layout):
        x_min = _parse_float(fields[1], where, "x_min")
        y_min = _parse_float(fields[2], where, "y_min")
        x_max = _parse_float(fields[3], where, "x_max")
        y_max = _parse_float(fields[4], where, "y_max")
        confidence = _parse_float(fields[5], where, "confidence")
        if x_min >= x_max:
            raise InputError(f"{where}: x_min {x_min:g} must be < x_max {x_max:g}")
        if y_min >= y_max:
            raise InputError(f"{where}: y_min {y_min:g} must be < y_max {y_max:g}")
        if not (0.0 <= confidence <= 1.0):
            raise InputError(f"{where}: confidence {confidence:g} outside [0, 1]")
        origin = BoxOrigin.DETECTOR
        if len(fields) == 7:
            try:
                origin = BoxOrigin(fields[6])
            except ValueError:
                raise InputError(
                    f"{where}: origin must be 'det' or 'interp', got {fields[6]!r}"
                ) from None
        records.append((where, frame_index, x_min, y_min, x_max, y_max, confidence, origin))

    if width is None:
        width = max(1, math.ceil(max((r[4] for r in records), default=1)))
    if height is None:
        height = max(1, math.ceil(max((r[5] for r in records), default=1)))
    per_frame: dict[int, list[ScoredBox]] = {}
    for where, frame_index, x_min, y_min, x_max, y_max, confidence, origin in records:
        try:
            clipped = clip_corners(x_min, y_min, x_max, y_max, width, height)
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from None
        if clipped is None:
            raise InputError(f"{where}: box lies entirely outside the {width}x{height} frame")
        per_frame.setdefault(frame_index, []).append(ScoredBox(clipped, confidence, origin))

    length = n_frames if n_frames is not None else max(per_frame, default=-1) + 1
    return [
        FrameDetections(FrameMeta(width, height, i), tuple(per_frame.get(i, ())))
        for i in range(length)
    ]


def parse_groundtruth(
    path: str | Path,
    n_frames: int | None = None,
) -> list[list[GroundTruthBox]]:
    """Parse centroid-form annotations into corner-form boxes; duplicates of
    (frame, polyp_id) are errors."""
    per_frame: dict[int, dict[str, GroundTruthBox]] = {}
    layout = "frame polyp_id cx cy w h"
    for where, frame_index, fields in _records(path, n_frames, (6,), layout):
        polyp_id = fields[1]
        cx = _parse_float(fields[2], where, "cx")
        cy = _parse_float(fields[3], where, "cy")
        bw = _parse_float(fields[4], where, "w")
        bh = _parse_float(fields[5], where, "h")
        by_id = per_frame.setdefault(frame_index, {})
        if polyp_id in by_id:
            raise InputError(
                f"{where}: duplicate annotation for polyp {polyp_id!r} in frame {frame_index}"
            )
        if not (bw > 0 and bh > 0):
            raise InputError(f"{where}: ground truth extent must be positive, got {bw}x{bh}")
        try:
            box = BoundingBox(cx - bw / 2.0, cy - bh / 2.0, cx + bw / 2.0, cy + bh / 2.0)
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from None
        by_id[polyp_id] = GroundTruthBox(box, polyp_id)

    length = n_frames if n_frames is not None else max(per_frame, default=-1) + 1
    return [list(per_frame[i].values()) if i in per_frame else [] for i in range(length)]


def _write_records(path: str | Path, lines: list[str]) -> None:
    """Write record lines, each ended by a newline."""
    write_file(path, "\n".join(lines) + "\n" if lines else "")


def write_detections(
    path: str | Path,
    frames: Iterable[FrameDetections | FilteredFrame],
    include_origin: bool = False,
) -> None:
    lines = []
    for fd in frames:
        i = fd.meta.frame_index
        for sb in fd.boxes:
            b = sb.box
            line = (
                f"{i} {b.x_min:.6g} {b.y_min:.6g} {b.x_max:.6g} {b.y_max:.6g} "
                f"{sb.confidence:.6g}"
            )
            lines.append(f"{line} {sb.origin.value}" if include_origin else line)
    _write_records(path, lines)


def write_groundtruth(
    path: str | Path,
    ground_truth: Sequence[Sequence[GroundTruthBox]],
) -> None:
    """Write each corner-form annotation as a centroid-form record."""
    lines = []
    for i, gts in enumerate(ground_truth):
        for g in gts:
            b = g.box
            cx, cy = (b.x_min + b.x_max) / 2.0, (b.y_min + b.y_max) / 2.0
            lines.append(f"{i} {g.polyp_id} {cx:.6g} {cy:.6g} {b.width:.6g} {b.height:.6g}")
    _write_records(path, lines)


# ---------------------------------------------------------------------------
# netpbm frames
# ---------------------------------------------------------------------------


def _read_netpbm_tokens(data: bytes, path: Path, count: int) -> tuple[list[bytes], int]:
    """Read `count` header tokens after the 2-byte magic, skipping whitespace
    and # comments. Scans `data` in place.

    Returns the tokens and the offset of the raster (one whitespace byte
    after the last token).
    """
    tokens: list[bytes] = []
    i = 2
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i] == ord("#"):
            while i < n and data[i] != ord("\n"):
                i += 1
            continue
        start = i
        while i < n and not data[i : i + 1].isspace() and data[i] != ord("#"):
            i += 1
        if start == i:
            raise InputError(f"{path}: truncated netpbm header")
        tokens.append(data[start:i])
    if i >= n or not data[i : i + 1].isspace():
        raise InputError(f"{path}: missing whitespace after netpbm header")
    return tokens, i + 1


def read_image(path: str | Path) -> GrayFrame:
    """Read a single PGM (P5) or PPM (P6) file as luma."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    if len(data) < 2:
        raise InputError(f"{path}: not a netpbm file")
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise InputError(
            f"{path}: unsupported netpbm format {magic!r} (binary P5/P6 required)"
        )
    tokens, offset = _read_netpbm_tokens(data, path, 3)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise InputError(f"{path}: malformed netpbm header") from None
    if width <= 0 or height <= 0:
        raise InputError(f"{path}: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise InputError(f"{path}: unsupported maxval {maxval} (only 8-bit, maxval 255)")
    channels = 1 if magic == b"P5" else 3
    expected = width * height * channels
    if len(data) - offset < expected:
        raise InputError(
            f"{path}: raster truncated ({len(data) - offset} bytes, expected {expected})"
        )
    # a read-only view of the file's bytes: no copy of the raster
    arr = np.frombuffer(data, dtype=np.uint8, count=expected, offset=offset)
    if channels == 1:
        return GrayFrame.from_array(arr.reshape(height, width))
    return to_luma(arr.reshape(height, width, 3))


class FrameSequence:
    """A checked directory of frames, decoded one at a time when iterated.

    ``len`` is the frame count and ``width`` and ``height`` are the first
    frame's size. Each pass decodes the files in index order and raises
    ``InputError`` at the first later frame of another size, so a pass holds
    one full-resolution frame at a time.
    """

    def __init__(self, directory: Path, paths: list[Path], first: GrayFrame) -> None:
        self._directory = directory
        self._paths = paths
        self._first: GrayFrame | None = first  # decoded for its size; handed to the first pass
        self.width = first.width
        self.height = first.height

    def __len__(self) -> int:
        return len(self._paths)

    def __iter__(self) -> Iterator[GrayFrame]:
        frame, self._first = self._first, None
        yield frame if frame is not None else read_image(self._paths[0])
        for path in self._paths[1:]:
            frame = read_image(path)
            if (frame.width, frame.height) != (self.width, self.height):
                raise InputError(
                    f"{self._directory}: mixed frame dimensions: {path.name} is "
                    f"{frame.width}x{frame.height}, expected {self.width}x{self.height} "
                    f"as in {self._paths[0].name}"
                )
            yield frame


def read_frames(directory: str | Path) -> FrameSequence:
    """The frames of a directory, named by index from 0, as a lazy sequence.

    Checked here: the directory holds frames, no index repeats, the indices
    run from 0 without a gap, and the first frame decodes. Each later frame's
    size is checked as it is decoded (see ``FrameSequence``).
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise InputError(f"{directory}: not a directory")
    indexed: dict[int, Path] = {}
    for entry in sorted(directory.iterdir()):
        m = _FRAME_FILE_RE.match(entry.name)
        if not m:
            continue
        idx = int(m.group(1))
        if idx in indexed:
            raise InputError(f"{directory}: duplicate frame index {idx}")
        indexed[idx] = entry
    if not indexed:
        raise InputError(f"{directory}: no .pgm/.ppm frames found")
    indices = sorted(indexed)
    if indices[-1] + 1 != len(indices):
        # the first gap: the first position whose index is not its own
        missing = next(i for i, idx in enumerate(indices) if idx != i)
        raise InputError(f"{directory}: missing frame index {missing}")
    paths = [indexed[i] for i in indices]
    return FrameSequence(directory, paths, read_image(paths[0]))


def write_pgm(path: str | Path, frame: GrayFrame) -> None:
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    write_file(path, header + frame.samples.tobytes())


def write_ppm_gray(path: str | Path, frame: GrayFrame) -> None:
    """Write luma as an RGB PPM with equal channels (survives luma round-trip)."""
    header = f"P6\n{frame.width} {frame.height}\n255\n".encode("ascii")
    rgb = np.repeat(frame.samples[:, :, None], 3, axis=2)
    write_file(path, header + rgb.tobytes())


def write_frames(
    directory: str | Path, frames: Sequence[GrayFrame], image_format: str = "pgm"
) -> None:
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create {directory}: {exc.strerror}") from None
    writer = {"pgm": write_pgm, "ppm": write_ppm_gray}.get(image_format)
    if writer is None:
        raise InputError(f"unsupported image format {image_format!r}")
    width = len(str(max(len(frames) - 1, 0)))
    width = max(width, 6)
    for i, frame in enumerate(frames):
        writer(directory / f"{i:0{width}d}.{image_format}", frame)
