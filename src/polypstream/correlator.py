"""Streaming cross-frame correlation of detector outputs.

A sliding window of up to ``2*half_window + 1`` frames is kept around each
center frame. Two independent passes run per center:

* noise elimination — a center box survives only if similar neighbor frames
  (or, when no neighbor is similar enough, a fixed quorum of all neighbors)
  contain an overlapping box;
* missed-detection correction — boxes that recur at a stable location in
  neighbor frames, on both sides of the center, but have no counterpart in
  the center frame are interpolated as their coordinate-wise mean.

Both passes read the original (confidence-gated) detections of every frame;
elimination never feeds correction. A window carries these detections, each
frame's similarity to the center and each frame's *overlap facts* as plain
data, all scored once per frame pair as the later frame arrives:

* each frame keeps its similarity to the up to ``half_window`` frames
  before it;
* the overlap facts come from one IoU matrix between a frame's boxes and
  those of the up to ``2*half_window`` frames before it. They give each box
  its *links*: every box of another frame that overlaps it at all, with the
  IoU, on both sides of every pair. Each pass applies its own bar to them:
  elimination counts the pool frames linked above the box's adaptive
  threshold, and correction's greedy claim loop keeps the links above its
  fill IoU. Scalar ``iou`` is left only to check interpolated boxes against
  the center's detections.

Links carry no threshold, so facts scored at one half window are exact for
every narrower window around the same center and every fill IoU:
``sweep_sequence`` runs one correlator at the widest half window and cuts
each config's window out of it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Collection, Sequence

import numpy as np

from .errors import InputError, SequencingError
from .geometry import (
    BoundingBox,
    BoxOrigin,
    FrameDetections,
    FrameMeta,
    ScoredBox,
    adaptive_iou_threshold,
    iou,
    iou_matrix,
)
from .similarity import GrayFrame, SsimParams, prepare_luma, ssim


@dataclass(frozen=True)
class IscuConfig:
    """Operating point of the correlation unit."""

    half_window: int = 3
    similarity_threshold: float = 0.85
    confidence_gate: float = 0.3
    fc_quorum: int = 3
    fill_quorum: int = 3
    fill_iou: float = 0.5
    ssim_params: SsimParams = field(default_factory=SsimParams)

    def __post_init__(self) -> None:
        if self.half_window < 1:
            raise ValueError(f"half_window must be >= 1, got {self.half_window}")
        full = 2 * self.half_window
        if not (1 <= self.fc_quorum <= full):
            raise ValueError(f"fc_quorum must be in [1, {full}], got {self.fc_quorum}")
        if not (1 <= self.fill_quorum <= full):
            raise ValueError(f"fill_quorum must be in [1, {full}], got {self.fill_quorum}")
        if not (0.0 <= self.confidence_gate <= 1.0):
            raise ValueError(f"confidence_gate must be in [0, 1], got {self.confidence_gate}")
        if not (0.0 <= self.fill_iou <= 1.0):
            raise ValueError(f"fill_iou must be in [0, 1], got {self.fill_iou}")
        if not (0.0 < self.similarity_threshold <= 1.0):
            raise ValueError(
                f"similarity_threshold must be in (0, 1], got {self.similarity_threshold}"
            )


@dataclass(frozen=True)
class CorrelationWindow:
    """An ordered run of frames' detections with a designated center.

    ``similarity[i]`` is frame ``i``'s similarity to the center frame; the
    center's own entry is unused. ``overlaps`` holds each frame's overlap
    facts, as the stream scored them at push time. When absent they are
    derived from ``frames`` over every pair by the stream's own ``_link``.
    """

    frames: tuple[FrameDetections, ...]
    center: int
    similarity: tuple[float, ...]
    overlaps: tuple[FrameOverlaps, ...] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n = len(self.frames)
        if not n:
            raise ValueError("window must contain at least the center frame")
        if not (0 <= self.center < n):
            raise ValueError(f"center {self.center} out of range for {n} frames")
        if len(self.similarity) != n:
            raise ValueError(f"{len(self.similarity)} similarities for {n} frames")
        indices = [f.meta.frame_index for f in self.frames]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError(f"window frame indices must be strictly increasing: {indices}")
        if self.overlaps is None:
            facts = tuple(FrameOverlaps(f) for f in self.frames)
            for k, new in enumerate(facts):
                _link(facts[:k], new)
            object.__setattr__(self, "overlaps", facts)
        elif len(self.overlaps) != n:
            raise ValueError(f"{len(self.overlaps)} overlap facts for {n} frames")


@dataclass(frozen=True)
class FilteredFrame:
    """Correlation result for one frame."""

    meta: FrameMeta
    kept: tuple[ScoredBox, ...]
    added: tuple[ScoredBox, ...]
    removed_count: int

    @property
    def boxes(self) -> tuple[ScoredBox, ...]:
        return self.kept + self.added


class FrameOverlaps:
    """Overlap facts of one frame's gated boxes.

    Filled in from both sides: when a frame is pushed, one IoU matrix scores
    its boxes against those of the frames before it (``_link``). For box
    ``j``, ``thresholds[j]`` is its adaptive IoU threshold and ``links[j]``
    lists ``(frame index, box index, IoU)`` for every box of another frame
    with IoU > 0, in frame then box order.
    """

    __slots__ = ("index", "cols", "thresholds", "links")

    def __init__(self, dets: FrameDetections) -> None:
        boxes = [sb.box for sb in dets.boxes]
        self.index = dets.meta.frame_index
        # x_min, y_min, x_max, y_max and area, one column per box
        self.cols = np.array(
            [(*b.as_tuple(), b.area) for b in boxes], dtype=np.float64
        ).reshape(-1, 5).T
        self.thresholds = [adaptive_iou_threshold(b, dets.meta) for b in boxes]
        self.links: list[list[tuple[int, int, float]]] = [[] for _ in boxes]


def _link(earlier: Sequence[FrameOverlaps], new: FrameOverlaps) -> None:
    """Score ``new``'s boxes against every box of ``earlier`` with one IoU
    matrix and record each overlapping pair on both sides."""
    earlier = [e for e in earlier if e.thresholds]
    if not earlier or not new.thresholds:
        return
    matrix = iou_matrix(np.concatenate([e.cols for e in earlier], axis=1), new.cols)
    # one entry per matrix row; the row-major hits keep frame then box order
    rows = [(e.index, i, links) for e in earlier for i, links in enumerate(e.links)]
    hits = np.nonzero(matrix > 0.0)  # skips the signed zeros of disjoint boxes too
    t = new.index
    for r, j, v in zip(hits[0].tolist(), hits[1].tolist(), matrix[hits].tolist()):
        f, i, links = rows[r]
        links.append((t, j, v))
        new.links[j].append((f, i, v))


def eliminate_noise(window: CorrelationWindow, cfg: IscuConfig) -> tuple[ScoredBox, ...]:
    """Center boxes that survive the cross-frame noise test, in input order.

    A neighbor is similar when its ``window.similarity`` entry exceeds
    ``cfg.similarity_threshold``.
    """
    center = window.frames[window.center]
    neighbors = [
        (f, s)
        for i, (f, s) in enumerate(zip(window.frames, window.similarity))
        if i != window.center
    ]
    if not neighbors:
        # Nothing to correlate against: a single-frame stream passes through.
        return center.boxes

    similar = [f for f, s in neighbors if s > cfg.similarity_threshold]
    m = len(similar)
    if m > 0:
        pool = similar
        required: Callable[[int], bool] = lambda c: 2 * c > m
    else:
        # Fixed-frames fallback: at steady state the configured quorum, on a
        # truncated boundary window the majority of whatever is available.
        pool = [f for f, _ in neighbors]
        quorum = (
            cfg.fc_quorum
            if len(neighbors) == 2 * cfg.half_window
            else math.ceil(len(neighbors) / 2)
        )
        required = lambda c: c >= quorum

    pool_ids = {f.meta.frame_index for f in pool}
    facts = window.overlaps[window.center]
    return tuple(
        sb
        for sb, thr, links in zip(center.boxes, facts.thresholds, facts.links)
        if required(len({f for f, _, v in links if v > thr} & pool_ids))
    )


def correct_missed(window: CorrelationWindow, cfg: IscuConfig) -> tuple[ScoredBox, ...]:
    """Interpolated boxes for detections the center frame is missing.

    Clusters are seeded from the nearest neighbor frames outward; each
    neighbor frame contributes at most its best-overlapping unclaimed box
    (IoU with the seed strictly above ``fill_iou``). A cluster fills only if
    it spans at least ``fill_quorum`` frames on both sides of the center and
    its mean box does not coincide with any original center detection.
    """
    c = window.center
    frames = window.frames
    neighbor_ids = [i for i in range(len(frames)) if i != c]
    if not any(i < c for i in neighbor_ids) or not any(i > c for i in neighbor_ids):
        return ()

    fill_iou = cfg.fill_iou
    position = {frames[i].meta.frame_index: i for i in neighbor_ids}
    claimed: set[tuple[int, int]] = set()
    added: list[ScoredBox] = []
    seed_order = sorted(neighbor_ids, key=lambda i: (abs(i - c), i - c))

    for si in seed_order:
        seed_links = window.overlaps[si].links
        for bi, seed in enumerate(frames[si].boxes):
            if (si, bi) in claimed:
                continue
            claimed.add((si, bi))
            # best unclaimed link above fill_iou per neighbor frame, the first
            # on a tie; the IoU bar is tested first, as it rejects the most
            best: dict[int, tuple[float, int]] = {}
            for f, obi, v in seed_links[bi]:
                if v <= fill_iou:
                    continue
                oi = position.get(f)
                if oi is None or (oi, obi) in claimed:
                    continue
                if oi not in best or v > best[oi][0]:
                    best[oi] = (v, obi)
            members = [(si, seed)]
            for oi, (_, obi) in best.items():
                claimed.add((oi, obi))
                members.append((oi, frames[oi].boxes[obi]))

            if len(members) < cfg.fill_quorum:
                continue
            members.sort(key=lambda m: m[0])
            # frames on both sides of the center
            if not members[0][0] < c < members[-1][0]:
                continue
            n = len(members)
            boxes = [m[1].box for m in members]
            mean_box = BoundingBox(
                sum([b.x_min for b in boxes]) / n,
                sum([b.y_min for b in boxes]) / n,
                sum([b.x_max for b in boxes]) / n,
                sum([b.y_max for b in boxes]) / n,
            )
            if any(iou(mean_box, sb.box) > fill_iou for sb in frames[c].boxes):
                continue
            confidence = sum([m[1].confidence for m in members]) / n
            added.append(ScoredBox(mean_box, confidence, BoxOrigin.INTERPOLATED))

    return tuple(added)


class StreamCorrelator:
    """Single-writer streaming stage: push frames in, receive filtered frames.

    The result for a frame is emitted once ``half_window`` later frames have
    arrived; ``flush()`` drains the trailing frames with whatever neighbors
    remain. A push prepares the frame's comparison luma and scores its
    similarity to each of the up to ``half_window`` frames before it (only
    those frames' luma is retained). It then gates the detections, scores
    their overlaps with the up to ``2*half_window`` buffered frames before it
    and buffers them with those similarities and overlap facts.
    """

    def __init__(self, cfg: IscuConfig | None = None) -> None:
        self.cfg = cfg or IscuConfig()
        self._lumas: deque[GrayFrame] = deque(maxlen=self.cfg.half_window)
        # (gated detections, similarity to each of the frames before it,
        # oldest first, overlap facts)
        self._buffer: deque[
            tuple[FrameDetections, tuple[float, ...], FrameOverlaps]
        ] = deque()
        self._n_pushed = 0
        self._next_emit = 0
        self._last_index: int | None = None
        self._dims: tuple[int, int] | None = None

    def push_frame(
        self, frame: GrayFrame, dets: FrameDetections
    ) -> FilteredFrame | None:
        return self._emit((self.cfg,))[0] if self._push(frame, dets) else None

    def flush(self) -> list[FilteredFrame]:
        """Emit results for every frame still buffered (end of stream)."""
        return [self._emit((self.cfg,))[0] for _ in range(self._next_emit, self._n_pushed)]

    # internal ------------------------------------------------------------

    def _push(self, frame: GrayFrame, dets: FrameDetections) -> bool:
        """Score and buffer one frame; True when the next center is due."""
        meta = dets.meta
        # checked before scoring, so a rejected frame leaves no luma
        if self._last_index is not None and meta.frame_index <= self._last_index:
            raise SequencingError(
                f"frame index {meta.frame_index} not after {self._last_index}"
            )
        if (frame.width, frame.height) != (meta.width, meta.height):
            raise InputError(
                f"frame {frame.width}x{frame.height} does not match detection "
                f"metadata {meta.width}x{meta.height}"
            )
        if self._dims is None:
            self._dims = (frame.width, frame.height)
        elif self._dims != (frame.width, frame.height):
            raise InputError(
                f"frame dimensions changed mid-stream: {self._dims} -> "
                f"{(frame.width, frame.height)}"
            )
        luma = prepare_luma(frame, self.cfg.ssim_params)
        back = tuple(ssim(earlier, luma) for earlier in self._lumas)
        self._lumas.append(luma)
        self._last_index = meta.frame_index

        gated = FrameDetections(
            meta,
            tuple(sb for sb in dets.boxes if sb.confidence > self.cfg.confidence_gate),
        )
        # the buffer holds the up to 2*h frames before this one: every pair
        # that can share a window
        overlaps = FrameOverlaps(gated)
        _link([entry[2] for entry in self._buffer], overlaps)
        self._buffer.append((gated, back, overlaps))
        self._n_pushed += 1
        return self._n_pushed - 1 >= self._next_emit + self.cfg.half_window

    def _base(self) -> int:
        return self._n_pushed - len(self._buffer)

    def _emit(self, cfgs: Sequence[IscuConfig]) -> list[FilteredFrame]:
        """The next center's result at each config, whose half window ``h``
        is at most this correlator's: the buffered window cut down to
        ``[c - h, c + h]``, clipped at the sequence ends."""
        center_pos = self._next_emit
        base = self._base()
        results = []
        for cfg in cfgs:
            h = cfg.half_window
            lo = max(0, center_pos - h)
            hi = min(self._n_pushed - 1, center_pos + h)
            frames, backs, overlaps = zip(*(self._buffer[p - base] for p in range(lo, hi + 1)))
            c = center_pos - lo
            # each pair's similarity is stored with its later frame, oldest
            # first; the center's own list ends with the c frames before it
            similarity = (
                backs[c][len(backs[c]) - c:]
                + (1.0,)
                + tuple(backs[k][c - k] for k in range(c + 1, len(frames)))
            )
            window = CorrelationWindow(frames, c, similarity, overlaps)
            kept = eliminate_noise(window, cfg)
            added = correct_missed(window, cfg)
            center = frames[c]
            results.append(FilteredFrame(center.meta, kept, added, len(center.boxes) - len(kept)))
        self._next_emit += 1
        keep_from = self._next_emit - self.cfg.half_window
        while self._base() < keep_from and self._buffer:
            self._buffer.popleft()
        return results


def process_sequence(
    frames: Collection[GrayFrame],
    detections: Sequence[FrameDetections],
    cfg: IscuConfig | None = None,
) -> list[FilteredFrame]:
    """Batch wrapper over the streaming correlator; output order matches input.

    ``frames`` is any sized iterable, such as ``formats.read_frames``' lazy
    sequence, and is iterated once: each frame is dropped once pushed, so
    only the window's comparison luma stays alive.
    """
    return sweep_sequence(frames, detections, [cfg or IscuConfig()])[0]


def sweep_sequence(
    frames: Collection[GrayFrame],
    detections: Sequence[FrameDetections],
    cfgs: Sequence[IscuConfig],
) -> list[list[FilteredFrame]]:
    """``process_sequence`` at each config, from one pass over the frames.

    One correlator runs at the widest half window and emits each center at
    every config. The configs must share ``ssim_params`` and
    ``confidence_gate``: the similarities, the gated boxes and their overlap
    facts are scored once for all of them.
    """
    if len(frames) != len(detections):
        raise InputError(f"{len(frames)} frames but {len(detections)} detection sets")
    widest = max(cfgs, key=lambda c: c.half_window)

    def shared(c: IscuConfig) -> tuple:
        return c.ssim_params, c.confidence_gate

    if any(shared(c) != shared(widest) for c in cfgs):
        raise ValueError("sweep configs must share ssim_params and confidence_gate")
    correlator = StreamCorrelator(widest)
    rows = []
    for frame, dets in zip(frames, detections):
        if correlator._push(frame, dets):
            rows.append(correlator._emit(cfgs))
    rows.extend(correlator._emit(cfgs) for _ in range(correlator._next_emit, correlator._n_pushed))
    return [[row[k] for row in rows] for k in range(len(cfgs))]
