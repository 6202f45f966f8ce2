"""Grayscale frames, deterministic downsampling, and structural similarity.

Similarity compares luminance, contrast, and structure of two equally sized
8-bit images, each term from whole-image statistics (population convention
for variances).

A global score needs each frame's own sums once and one dot product per
pair: a ``GrayFrame`` computes its ``moments`` on first use and keeps them,
so a frame compared with several neighbours pays for them once.
``prepare_luma`` always returns a new frame, so that cache lives only as
long as the caller keeps the prepared frame, never on the caller's input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .errors import InputError


@dataclass(frozen=True)
class GrayFrame:
    """Immutable 8-bit luma image, row-major."""

    width: int
    height: int
    samples: np.ndarray

    def __post_init__(self) -> None:
        a = self.samples
        if a.dtype != np.uint8 or a.ndim != 2:
            raise ValueError("samples must be a 2-D uint8 array")
        if a.shape != (self.height, self.width):
            raise ValueError(
                f"samples shape {a.shape} does not match {self.height}x{self.width}"
            )
        if not a.flags.c_contiguous:
            a = np.ascontiguousarray(a)
            object.__setattr__(self, "samples", a)
        a.flags.writeable = False

    @classmethod
    def from_array(cls, a: np.ndarray) -> "GrayFrame":
        a = np.asarray(a, dtype=np.uint8)
        return cls(a.shape[1], a.shape[0], a)

    def same_size(self, other: "GrayFrame") -> bool:
        return self.width == other.width and self.height == other.height

    @cached_property
    def moments(self) -> kernels.Moments:
        """``kernels.moments`` of the samples, computed on first use."""
        return kernels.moments(self.samples)


# SSIM's stabilising constants: K1 = 0.01 and K2 = 0.03 at the uint8 range.
_B1 = (0.01 * 255.0) ** 2
_B2 = (0.03 * 255.0) ** 2
_B3 = _B2 / 2.0


@dataclass(frozen=True)
class SsimParams:
    """The size both frames are downsampled to before they are compared."""

    downsample_w: int = 160
    downsample_h: int = 120

    def __post_init__(self) -> None:
        if self.downsample_w <= 0 or self.downsample_h <= 0:
            raise ValueError("downsample dimensions must be positive")


def to_luma(rgb_frame: np.ndarray) -> GrayFrame:
    """Convert an (h, w, 3) uint8 RGB raster to luma, rounding half up."""
    rgb = np.asarray(rgb_frame)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise InputError(
            f"expected an (h, w, 3) uint8 raster, got shape {rgb.shape} dtype {rgb.dtype}"
        )
    return GrayFrame.from_array(kernels.luma(rgb))


def _ssim_from_stats(sx: int, sy: int, sxx: int, syy: int, sxy: int, n: int) -> float:
    mx = sx / n
    my = sy / n
    vx = max(sxx / n - mx * mx, 0.0)
    vy = max(syy / n - my * my, 0.0)
    cxy = sxy / n - mx * my
    sdx = math.sqrt(vx)
    sdy = math.sqrt(vy)
    lum = (2.0 * mx * my + _B1) / (mx * mx + my * my + _B1)
    con = (2.0 * sdx * sdy + _B2) / (vx + vy + _B2)
    stru = (cxy + _B3) / (sdx * sdy + _B3)
    return lum * con * stru


def ssim(x: GrayFrame, y: GrayFrame) -> float:
    """Structural similarity of two equally sized luma frames, in (-1, 1]."""
    if not x.same_size(y):
        raise InputError(
            f"frame dimensions differ: {x.width}x{x.height} vs {y.width}x{y.height}"
        )
    sx, sy, sxx, syy, sxy = kernels.ssim_stats(x.moments, y.moments)
    return _ssim_from_stats(sx, sy, sxx, syy, sxy, x.width * x.height)


def prepare_luma(g: GrayFrame, p: SsimParams) -> GrayFrame:
    """Area-average downsample a frame to the configured comparison size.

    Never upsamples: frames already at or below the target size keep their
    samples, keeping the similarity cost bounded for large inputs. The
    result is always a new frame (sharing the read-only samples when no
    resampling is needed), so its cached moments never outlive it.
    """
    tw = min(p.downsample_w, g.width)
    th = min(p.downsample_h, g.height)
    if (tw, th) == (g.width, g.height):
        return GrayFrame(g.width, g.height, g.samples)
    return GrayFrame.from_array(kernels.box_downsample(g.samples, tw, th))
