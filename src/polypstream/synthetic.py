"""Deterministic synthetic scenarios for desk-scale verification.

Frames are a smooth low-frequency background (bilinear-upsampled coarse
grid with a slow per-cell wobble) plus one bright disc per polyp track, so
neighboring frames are highly similar except across scene breaks, where the
background is re-randomized. Ground truth (each track's box clipped to the
frame, kept in corner form) and a simulated detector output (coordinate
jitter, confidence noise, transient false positives, dropouts) are generated
alongside.

All randomness flows from numpy's PCG64 generator seeded from the config:
``default_rng([rng_seed, 0])`` drives rendering and
``default_rng([rng_seed, 1])`` drives the detector simulation, so scenarios
regenerate byte-identically and the simulated detector can be re-run
standalone from the same config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .geometry import (
    BoundingBox,
    BoxOrigin,
    FrameDetections,
    FrameMeta,
    GroundTruthBox,
    ScoredBox,
    clip_box,
)
from .similarity import GrayFrame

_GRID_H = 6
_GRID_W = 8
_BG_WOBBLE_AMP = 5.0
_BG_WOBBLE_PERIOD = 64.0
_DISC_VALUE = 232
_MAX_COORD_JITTER_FRAC = 0.02
_FP_CLEARANCE_FRAMES = 3
_FP_SIZE_FRAC = (0.05, 0.16)
_MAX_FP_PLACEMENT_TRIES = 200


@dataclass(frozen=True)
class TrackSpec:
    """A polyp trajectory: a start box moved by linear velocity plus an
    optional sinusoidal wobble per axis."""

    start: BoundingBox
    velocity: tuple[float, float] = (0.0, 0.0)
    wobble_amplitude: tuple[float, float] = (0.0, 0.0)
    wobble_period: tuple[float, float] = (50.0, 50.0)
    wobble_phase: tuple[float, float] = (0.0, 0.0)

    def box_at(self, t: int) -> BoundingBox:
        ax, ay = self.wobble_amplitude
        px, py = self.wobble_period
        dx = self.velocity[0] * t + ax * math.sin(2.0 * math.pi * t / px + self.wobble_phase[0])
        dy = self.velocity[1] * t + ay * math.sin(2.0 * math.pi * t / py + self.wobble_phase[1])
        s = self.start
        return BoundingBox(s.x_min + dx, s.y_min + dy, s.x_max + dx, s.y_max + dy)


@dataclass(frozen=True)
class ConfidenceModel:
    """Normal-around-mean confidence draws, clipped to [0, 1]."""

    tp_mean: float = 0.82
    fp_mean: float = 0.55
    jitter: float = 0.06


@dataclass(frozen=True)
class ScenarioConfig:
    frame_w: int = 320
    frame_h: int = 240
    n_frames: int = 300
    rng_seed: int = 0
    tracks: tuple[TrackSpec, ...] = ()
    transient_fp_rate: float = 0.0
    fp_lifetime: int = 1
    tp_dropout_rate: float = 0.0
    tp_dropout_episode_frac: float = 0.0
    tp_dropout_episode_len: int = 8
    scene_break_frames: frozenset[int] = frozenset()
    confidence: ConfidenceModel = field(default_factory=ConfidenceModel)
    coord_jitter_frac: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "tracks", tuple(self.tracks))
        object.__setattr__(self, "scene_break_frames", frozenset(self.scene_break_frames))
        if self.frame_w < 16 or self.frame_h < 16:
            raise InputError("frames must be at least 16x16")
        if self.n_frames < 1:
            raise InputError("a scenario needs at least one frame")
        if not (0.0 <= self.transient_fp_rate <= 1.0):
            raise InputError("transient_fp_rate must be in [0, 1]")
        if not (0.0 <= self.tp_dropout_rate <= 1.0):
            raise InputError("tp_dropout_rate must be in [0, 1]")
        if self.fp_lifetime < 1:
            raise InputError("fp_lifetime must be >= 1")
        if not (0.0 <= self.tp_dropout_episode_frac <= 1.0):
            raise InputError("tp_dropout_episode_frac must be in [0, 1]")
        if self.tp_dropout_episode_len < 1:
            raise InputError("tp_dropout_episode_len must be >= 1")
        if not (0.0 <= self.coord_jitter_frac <= _MAX_COORD_JITTER_FRAC):
            raise InputError(
                f"coord_jitter_frac must be in [0, {_MAX_COORD_JITTER_FRAC}]"
            )
        for k in self.scene_break_frames:
            if not (0 <= k < self.n_frames):
                raise InputError(f"scene break {k} outside [0, {self.n_frames})")
        for ti, track in enumerate(self.tracks):
            for t in range(self.n_frames):
                if clip_box(track.box_at(t), self.frame_w, self.frame_h) is None:
                    raise InputError(f"track {ti} leaves the frame entirely at frame {t}")


@dataclass(frozen=True)
class Scenario:
    """Index-aligned frames, annotations, and simulated detector output."""

    frames: tuple[GrayFrame, ...]
    ground_truth: tuple[tuple[GroundTruthBox, ...], ...]
    raw_detections: tuple[FrameDetections, ...]


def _bilinear_upsample(grid: np.ndarray, w: int, h: int) -> np.ndarray:
    gh, gw = grid.shape
    gx = (np.arange(w) + 0.5) * gw / w - 0.5
    gy = (np.arange(h) + 0.5) * gh / h - 0.5
    x0 = np.clip(np.floor(gx).astype(np.int64), 0, gw - 1)
    y0 = np.clip(np.floor(gy).astype(np.int64), 0, gh - 1)
    x1 = np.minimum(x0 + 1, gw - 1)
    y1 = np.minimum(y0 + 1, gh - 1)
    fx = np.clip(gx - x0, 0.0, 1.0)
    fy = np.clip(gy - y0, 0.0, 1.0)
    # each grid row is interpolated along x once; every pixel still sees the
    # same operations in the same order as a per-pixel two-step lerp
    rows = grid[:, x0] * (1 - fx) + grid[:, x1] * fx
    return rows[y0] * (1 - fy)[:, None] + rows[y1] * fy[:, None]


def _render_disc(img: np.ndarray, box: BoundingBox) -> None:
    cx = (box.x_min + box.x_max) / 2.0
    cy = (box.y_min + box.y_max) / 2.0
    r = 0.45 * min(box.width, box.height)
    y_lo = max(int(cy - r) - 1, 0)
    y_hi = min(int(cy + r) + 2, img.shape[0])
    x_lo = max(int(cx - r) - 1, 0)
    x_hi = min(int(cx + r) + 2, img.shape[1])
    if y_lo >= y_hi or x_lo >= x_hi:
        return
    yy = np.arange(y_lo, y_hi, dtype=np.float64)[:, None] + 0.5 - cy
    xx = np.arange(x_lo, x_hi, dtype=np.float64)[None, :] + 0.5 - cx
    mask = yy * yy + xx * xx <= r * r
    region = img[y_lo:y_hi, x_lo:x_hi]
    region[mask] = _DISC_VALUE


def generate_scenario(cfg: ScenarioConfig) -> Scenario:
    """Render frames and emit aligned ground truth and detector output."""
    rng = np.random.default_rng([cfg.rng_seed, 0])
    frames: list[GrayFrame] = []
    ground_truth: list[tuple[GroundTruthBox, ...]] = []

    grid_base = None
    grid_phase = None
    seg_start = 0
    for t in range(cfg.n_frames):
        if t == 0 or t in cfg.scene_break_frames:
            grid_base = rng.uniform(40.0, 215.0, size=(_GRID_H, _GRID_W))
            grid_phase = rng.uniform(0.0, 2.0 * math.pi, size=(_GRID_H, _GRID_W))
            seg_start = t
        wobble = _BG_WOBBLE_AMP * np.sin(
            2.0 * math.pi * (t - seg_start) / _BG_WOBBLE_PERIOD + grid_phase
        )
        img = _bilinear_upsample(grid_base + wobble, cfg.frame_w, cfg.frame_h)

        gts: list[GroundTruthBox] = []
        for ti, track in enumerate(cfg.tracks):
            box = clip_box(track.box_at(t), cfg.frame_w, cfg.frame_h)
            _render_disc(img, box)
            gts.append(GroundTruthBox(box, f"p{ti}"))
        frames.append(GrayFrame.from_array(np.clip(np.rint(img), 0, 255).astype(np.uint8)))
        ground_truth.append(tuple(gts))

    gt_tuple = tuple(ground_truth)
    detections = simulate_detector(gt_tuple, cfg)
    return Scenario(tuple(frames), gt_tuple, tuple(detections))


def _boxes_disjoint(a: BoundingBox, b: BoundingBox) -> bool:
    return (
        a.x_max <= b.x_min or b.x_max <= a.x_min or a.y_max <= b.y_min or b.y_max <= a.y_min
    )


_DROPOUT_GUARD = 6
_EPISODE_GAPS = (3, 4, 5)
_MAX_DROPOUT_PLACEMENT_TRIES = 200


def _schedule_dropouts(rng: np.random.Generator, n: int, cfg: ScenarioConfig) -> set[int]:
    """Plan one track's missed frames: blur episodes first, then singles.

    Counts round to whole events, so the realized omission fraction is the
    configured rate up to that rounding.
    """
    target = round(cfg.tp_dropout_rate * n)
    if target <= 0:
        return set()
    missing: set[int] = set()
    episode_zone: set[int] = set()
    length = cfg.tp_dropout_episode_len
    n_episodes = round(target * cfg.tp_dropout_episode_frac / (2 * length))
    n_singles = round(target * (1.0 - cfg.tp_dropout_episode_frac))
    pad = _DROPOUT_GUARD

    for _ in range(n_episodes):
        gap = _EPISODE_GAPS[int(rng.integers(0, len(_EPISODE_GAPS)))]
        span = 2 * length + gap
        hi = n - span - pad
        if hi <= pad:
            break
        for _ in range(_MAX_DROPOUT_PLACEMENT_TRIES):
            s = int(rng.integers(pad, hi + 1))
            zone = range(s - _DROPOUT_GUARD, s + span + _DROPOUT_GUARD)
            if any(f in episode_zone or f in missing for f in zone):
                continue
            missing.update(range(s, s + length))
            missing.update(range(s + length + gap, s + span))
            episode_zone.update(zone)
            break

    hi = n - pad
    if hi > pad:
        for _ in range(n_singles):
            for _ in range(_MAX_DROPOUT_PLACEMENT_TRIES):
                s = int(rng.integers(pad, hi))
                if s in missing or s in episode_zone:
                    continue
                missing.add(s)
                break
    return missing


def simulate_detector(
    ground_truth: tuple[tuple[GroundTruthBox, ...], ...] | list,
    cfg: ScenarioConfig,
) -> list[FrameDetections]:
    """Simulated detector output for the given per-frame ground truth.

    True boxes get bounded coordinate jitter and clipped-normal confidences.
    The dropout budget (``tp_dropout_rate`` of each track's frames) is
    scheduled up front: a ``tp_dropout_episode_frac`` share arrives as blur
    episodes (two runs of ``tp_dropout_episode_len`` frames around a short
    visible gap), the rest as isolated single-frame misses. Placements keep
    a guard distance from each other and from the sequence edges so each
    miss is a distinct event. Transient false positives are spawned
    uniformly in position and size, persist ``fp_lifetime`` frames, and are
    placed to stay disjoint from ground truth and from each other within
    the correlation horizon (a transient by definition has no cross-frame
    support).
    """
    n = len(ground_truth)
    rng = np.random.default_rng([cfg.rng_seed, 1])
    w, h = float(cfg.frame_w), float(cfg.frame_h)
    jx = cfg.coord_jitter_frac * w
    jy = cfg.coord_jitter_frac * h
    spawn_rate = cfg.transient_fp_rate / cfg.fp_lifetime

    n_tracks = max((len(gts) for gts in ground_truth), default=0)
    missing = [_schedule_dropouts(rng, n, cfg) for _ in range(n_tracks)]

    # (first_frame, last_frame, box, confidence) for every spawned transient
    scheduled: list[tuple[int, int, BoundingBox, float]] = []
    tp_boxes: list[list[ScoredBox]] = [[] for _ in range(n)]

    for t in range(n):
        for gi, g in enumerate(ground_truth[t]):
            if t in missing[gi]:
                continue
            base = g.box
            d = rng.uniform(-1.0, 1.0, size=4)
            jittered = clip_box(
                BoundingBox(
                    max(base.x_min + d[0] * jx, 0.0),
                    max(base.y_min + d[1] * jy, 0.0),
                    min(base.x_max + d[2] * jx, w),
                    min(base.y_max + d[3] * jy, h),
                ),
                w,
                h,
            )
            conf = float(np.clip(rng.normal(cfg.confidence.tp_mean, cfg.confidence.jitter), 0.0, 1.0))
            tp_boxes[t].append(ScoredBox(jittered or base, conf, BoxOrigin.DETECTOR))

        for _ in range(rng.poisson(spawn_rate)):
            last = min(t + cfg.fp_lifetime - 1, n - 1)
            lo_t = max(t - _FP_CLEARANCE_FRAMES, 0)
            hi_t = min(last + _FP_CLEARANCE_FRAMES, n - 1)
            for _attempt in range(_MAX_FP_PLACEMENT_TRIES):
                bw = rng.uniform(*_FP_SIZE_FRAC) * min(w, h)
                bh = rng.uniform(*_FP_SIZE_FRAC) * min(w, h)
                x0 = rng.uniform(0.0, w - bw)
                y0 = rng.uniform(0.0, h - bh)
                cand = BoundingBox(x0, y0, x0 + bw, y0 + bh)
                clear = all(
                    _boxes_disjoint(cand, g.box)
                    for ft in range(lo_t, hi_t + 1)
                    for g in ground_truth[ft]
                ) and all(
                    _boxes_disjoint(cand, sb)
                    for s0, s1, sb, _ in scheduled
                    if s0 <= hi_t + _FP_CLEARANCE_FRAMES and s1 >= lo_t - _FP_CLEARANCE_FRAMES
                )
                if clear:
                    conf = float(
                        np.clip(rng.normal(cfg.confidence.fp_mean, cfg.confidence.jitter), 0.0, 1.0)
                    )
                    scheduled.append((t, last, cand, conf))
                    break

    out: list[FrameDetections] = []
    for t in range(n):
        boxes = list(tp_boxes[t])
        boxes.extend(
            ScoredBox(b, c, BoxOrigin.DETECTOR)
            for s0, s1, b, c in scheduled
            if s0 <= t <= s1
        )
        out.append(FrameDetections(FrameMeta(cfg.frame_w, cfg.frame_h, t), tuple(boxes)))
    return out


def standard_noise_config(seed: int, n_frames: int = 900) -> ScenarioConfig:
    """The reference noisy scenario: one drifting track with a moderate
    wobble, transient false positives (3-frame lifetime), and a detector
    that misses the polyp both in isolated frames and in blur episodes."""
    track = TrackSpec(
        start=BoundingBox(70.0, 60.0, 110.0, 100.0),
        velocity=(0.15, 0.08),
        wobble_amplitude=(14.0, 14.0),
        wobble_period=(23.7, 31.3),
        wobble_phase=(0.0, 1.1),
    )
    return ScenarioConfig(
        frame_w=320,
        frame_h=240,
        n_frames=n_frames,
        rng_seed=seed,
        tracks=(track,),
        transient_fp_rate=0.25,
        fp_lifetime=3,
        tp_dropout_rate=0.05,
        tp_dropout_episode_frac=1.0,
        tp_dropout_episode_len=22,
        confidence=ConfidenceModel(tp_mean=0.82, fp_mean=0.55, jitter=0.06),
        coord_jitter_frac=0.004,
    )
