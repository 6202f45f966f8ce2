"""Per-frame timing of the correlation unit, file I/O excluded.

The timed loop covers exactly the streaming work: pushing a frame into the
correlator (downsampling, similarity, correlation) and draining emissions.
Inputs are prepared up front.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .correlator import IscuConfig, StreamCorrelator
from .geometry import BoundingBox, BoxOrigin, FrameDetections, FrameMeta, ScoredBox
from .similarity import GrayFrame
from .synthetic import _bilinear_upsample

_WARMUP_FRAMES = 50


@dataclass(frozen=True)
class BenchResult:
    n_frames: int
    mpt_ms: float
    max_ms: float
    total_s: float


def make_bench_frames(width: int, height: int, pool_size: int = 24) -> list[GrayFrame]:
    """A pool of smoothly varying frames; cycling it keeps neighbors similar
    (the wobble period equals the pool size, so the wrap is seamless)."""
    rng = np.random.default_rng([0, 7])
    base = rng.uniform(40.0, 215.0, size=(6, 8))
    phase = rng.uniform(0.0, 2.0 * math.pi, size=(6, 8))
    frames = []
    for t in range(pool_size):
        grid = base + 4.0 * np.sin(2.0 * math.pi * t / pool_size + phase)
        img = _bilinear_upsample(grid, width, height)
        frames.append(GrayFrame.from_array(np.clip(np.rint(img), 0, 255).astype(np.uint8)))
    return frames


def make_bench_detections(width: int, height: int, n_frames: int) -> list[FrameDetections]:
    """Two deterministic slow tracks per frame, detector-confidence 0.9."""
    out = []
    bw = width * 0.08
    bh = height * 0.1
    for t in range(n_frames):
        x = (width - bw) * (0.5 + 0.4 * math.sin(2.0 * math.pi * t / 900.0))
        y = (height - bh) * (0.5 + 0.4 * math.cos(2.0 * math.pi * t / 1100.0))
        boxes = (
            ScoredBox(BoundingBox(x, y, x + bw, y + bh), 0.9, BoxOrigin.DETECTOR),
            ScoredBox(
                BoundingBox(width - x - bw, height - y - bh, width - x, height - y),
                0.9,
                BoxOrigin.DETECTOR,
            ),
        )
        out.append(FrameDetections(FrameMeta(width, height, t), boxes))
    return out


def bench_correlator(
    frame_pool: list[GrayFrame],
    detections: list[FrameDetections],
    cfg: IscuConfig | None = None,
) -> BenchResult:
    """Time push_frame/flush over the detection sequence, cycling the pool."""
    cfg = cfg or IscuConfig()
    pool_n = len(frame_pool)

    warm = StreamCorrelator(cfg)
    for i in range(min(_WARMUP_FRAMES, len(detections))):
        warm.push_frame(frame_pool[i % pool_n], detections[i])
    warm.flush()

    correlator = StreamCorrelator(cfg)
    per_push = []
    t_start = time.perf_counter()
    for i, dets in enumerate(detections):
        frame = frame_pool[i % pool_n]
        t0 = time.perf_counter()
        correlator.push_frame(frame, dets)
        per_push.append(time.perf_counter() - t0)
    correlator.flush()
    total = time.perf_counter() - t_start

    n = len(detections)
    return BenchResult(
        n_frames=n,
        mpt_ms=1000.0 * total / n,
        max_ms=1000.0 * max(per_push),
        total_s=total,
    )
