"""Axis-aligned box geometry and the detection domain types.

Coordinates are real-valued pixels with the origin at the top-left corner.
Box area uses the closed-interval convention (width = x_max - x_min); there
is no +1 pixel adjustment. Every box in memory, ground truth included, is in
corner form; the ground-truth file's centroid form is read and written only
by ``formats``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

import numpy as np


class BoxOrigin(enum.Enum):
    """Where a box in a filtered frame came from."""

    DETECTOR = "det"
    INTERPOLATED = "interp"


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned rectangle with strictly positive area."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        coords = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"box coordinates must be finite, got {coords}")
        if min(coords) < 0:
            raise ValueError(f"box coordinates must be >= 0, got {coords}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"box must have positive extent, got {coords}")
        if not (self.x_max - self.x_min) * (self.y_max - self.y_min) > 0.0:
            # an area that underflows would make IoU divide 0 by 0
            raise ValueError(f"box area underflows to 0, got {coords}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


@dataclass(frozen=True)
class ScoredBox:
    """A bounding box with a detector confidence and a provenance tag."""

    box: BoundingBox
    confidence: float
    origin: BoxOrigin = BoxOrigin.DETECTOR

    def __post_init__(self) -> None:
        if not (math.isfinite(self.confidence) and 0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class FrameMeta:
    """Pixel dimensions and position of one frame in a sequence."""

    width: int
    height: int
    frame_index: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"frame dimensions must be positive, got {self.width}x{self.height}")
        if self.frame_index < 0:
            raise ValueError(f"frame index must be >= 0, got {self.frame_index}")


@dataclass(frozen=True)
class FrameDetections:
    """The ordered detector output for a single frame."""

    meta: FrameMeta
    boxes: tuple[ScoredBox, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxes", tuple(self.boxes))
        for sb in self.boxes:
            b = sb.box
            if b.x_max > self.meta.width or b.y_max > self.meta.height:
                raise ValueError(
                    f"box {b.as_tuple()} exceeds frame bounds "
                    f"{self.meta.width}x{self.meta.height}"
                )


@dataclass(frozen=True)
class GroundTruthBox:
    """An annotated box carrying a polyp identity."""

    box: BoundingBox
    polyp_id: str


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union of two boxes; 0.0 when disjoint."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    if ix <= 0.0:
        return 0.0
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


_CORNERS = attrgetter("x_min", "y_min", "x_max", "y_max")


def box_columns(boxes: list[BoundingBox]) -> np.ndarray:
    """The ``(5, n)`` float64 columns ``iou_pairs`` reads: ``x_min``,
    ``y_min``, ``x_max``, ``y_max`` and the area, one column per box. The
    area is ``BoundingBox.area``'s ``(x_max - x_min) * (y_max - y_min)``."""
    cols = np.empty((5, len(boxes)))
    corners = chain.from_iterable(map(_CORNERS, boxes))
    cols[:4] = np.fromiter(corners, np.float64, 4 * len(boxes)).reshape(-1, 4).T
    np.multiply(cols[2] - cols[0], cols[3] - cols[1], out=cols[4])
    return cols


def iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each column of ``a`` with the column of ``b`` it broadcasts
    against. The columns are laid out by ``box_columns``.

    Elementwise in ``iou``'s operation order: min/max, subtract, multiply,
    divide. An extent <= 0 is clamped to 0, so the IoU is 0 there too; every
    value equals ``iou``'s bit for bit (a zero may carry a sign).
    """
    extent = np.minimum(a[2:4], b[2:4])
    extent -= np.maximum(a[:2], b[:2])
    np.maximum(extent, 0.0, out=extent)
    inter = extent[0] * extent[1]
    union = a[4] + b[4]
    union -= inter
    inter /= union
    return inter


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every column of ``a`` with every column of ``b``, one row per
    column of ``a``: ``iou_pairs`` broadcast over both."""
    return iou_pairs(a[:, :, None], b[:, None, :])


def adaptive_iou_threshold(box: BoundingBox, meta: FrameMeta) -> float:
    """Size-dependent overlap threshold for cross-frame box correlation.

    Half the sum of the box's width and height as fractions of the frame:
    small boxes may move relatively further between frames, so they get a
    lower matching bar. The value is not clamped; a frame-sized box yields
    1.0 and can never be matched, which is the formula's behavior at the
    extreme.
    """
    return 0.5 * (box.width / meta.width + box.height / meta.height)


def clip_box(box: BoundingBox, width: float, height: float) -> BoundingBox | None:
    """Clip a box to frame bounds; None when nothing with area remains."""
    return clip_corners(*box.as_tuple(), width, height)


def clip_corners(
    x_min: float, y_min: float, x_max: float, y_max: float, width: float, height: float
) -> BoundingBox | None:
    """Clip raw corner coordinates, which may lie outside the frame or below
    zero, to frame bounds; None when nothing with area remains."""
    x0 = min(max(x_min, 0.0), width)
    y0 = min(max(y_min, 0.0), height)
    x1 = min(max(x_max, 0.0), width)
    y1 = min(max(y_max, 0.0), height)
    if x0 >= x1 or y0 >= y1:
        return None
    return BoundingBox(x0, y0, x1, y1)
