"""Hot numeric kernels: luma, area downsampling and similarity statistics.

One numpy implementation per kernel, in exact integer arithmetic, so results
do not depend on the platform. Luma and the moments run that arithmetic in
floats: every sum they form is an integer the float holds exactly, so the
result is the same in any summation order. Luma is one ``float32`` dot
product per band of rows. Downsampling sums the rows, then the columns: a
pass with a short coverage period is one float matmul against that period's
integer weights, and any other pass an integer run sum; each cell is then
rounded by one float division. Similarity splits its five global
moment sums: ``moments`` takes one frame's ``Sx`` and ``Sxx`` once, both
from one ``float64`` copy of its samples, and ``ssim_stats`` adds a pair's
``Sxy`` as one ``float64`` dot product, exact because every partial sum of
8-bit products is an integer far below 2**53.
"""

from __future__ import annotations

import functools
import math

import numpy as np


# Rec.601 integer weights, in thousandths
_LUMA_WEIGHTS = np.array([299, 587, 114], dtype=np.float32)
# rows converted per band, so that the band's float32 copy stays in cache
_LUMA_BAND_ROWS = 32
# longest coverage period a downsample pass sums as one matmul. The matmul's
# work grows with the period and the run sums' does not: on 1280-wide frames
# the row matmul took 0.76-0.77 of the run sums' time at periods 15 and 20,
# 0.98-1.02 at 32 (1.23 at 1920 wide) and 1.08-1.5 at 60 and 120.
_MATMUL_PERIOD = 20


def luma(rgb: np.ndarray) -> np.ndarray:
    """Rec.601 luma of an (h, w, 3) uint8 raster, rounded half up:
    ``(299 r + 587 g + 114 b + 500) // 1000`` per pixel.

    Each band of rows is copied into a float32 buffer and multiplied by the
    weights, then 500 is added and the sum divided by 1000. Every product
    and partial sum is an integer at most 255 500 < 2**24, so float32 holds
    it exactly in any summation order, with or without fused multiply-add.
    The division is correctly rounded, and ``(1000 q + r) / 1000`` with
    ``r < 1000`` and ``q <= 255`` never rounds up to ``q + 1``, so the
    truncating cast to uint8 yields the floor.
    """
    h, w = rgb.shape[:2]
    out = np.empty((h, w), dtype=np.uint8)
    band = min(_LUMA_BAND_ROWS, h)
    buf = np.empty((band, w, 3), dtype=np.float32)
    acc = np.empty((band, w), dtype=np.float32)
    for top in range(0, h, _LUMA_BAND_ROWS):
        rows = min(band, h - top)
        b, a = buf[:rows], acc[:rows]
        b[...] = rgb[top : top + rows]
        np.matmul(b, _LUMA_WEIGHTS, out=a)
        a += 500
        a /= 1000
        out[top : top + rows] = a  # truncates
    return out


def _run_sums(arr: np.ndarray, target: int) -> tuple[np.ndarray, int]:
    """Exact sums of ``target`` equal runs of the rows of a 2-D integer array.

    Run ``j`` spans [j*src, (j+1)*src) in units of 1/target of a row, edge
    rows weighted by coverage. Returns the sums and the run length they are
    counted in: ``k`` when every run is ``k`` whole rows, else ``src``.
    """
    src = arr.shape[0]
    k_max = -(-src // target)  # every run spans k_max or k_max - 1 whole rows
    # k_max uint8 rows sum exactly in uint16 while k_max * 255 <= 65535: k_max <= 257
    acc = np.uint16 if arr.dtype == np.uint8 and k_max <= 257 else np.int64
    if src % target == 0:
        return arr.reshape(target, k_max, -1).sum(axis=1, dtype=acc), k_max
    lo, rem = np.divmod(np.arange(target + 1) * src, target)
    whole = np.diff(lo)  # rows from lo[j] to lo[j+1] - 1
    sums = np.zeros((target, arr.shape[1]), dtype=acc)
    for r in range(k_max):
        rows = arr[np.minimum(lo[:-1] + r, src - 1)]
        rows[whole <= r] = 0  # the runs that are one row shorter
        sums += rows
    # in 1/target row units; at most src times the input's largest value
    fine = np.multiply(sums, target, dtype=np.int64)
    fine -= rem[:-1, None] * arr[lo[:-1]]
    fine += rem[1:, None] * arr[np.minimum(lo[1:], src - 1)]
    return fine, src


@functools.lru_cache(maxsize=64)
def _coverage(src: int, target: int, largest: int) -> tuple[np.ndarray, int]:
    """One coverage period of ``src`` cells onto ``target`` runs: its integer
    weights as a read-only (a, b) float matrix, and ``a``.

    With ``g = gcd(src, target)``, ``a = src // g`` cells map onto
    ``b = target // g`` runs. In units of 1/b of a cell, cell ``c`` spans
    [c*b, (c+1)*b) and run ``j`` spans [j*a, (j+1)*a); each weight is their
    overlap, an integer at most ``b``, and each run's weights sum to ``a``.
    A run of cells no larger than ``largest`` sums to at most
    ``largest * a``: the weights are float32 when that is below 2**24, else
    float64, so every product and partial sum is an integer the float holds.
    """
    g = math.gcd(src, target)
    a, b = src // g, target // g
    cell = np.arange(a)[:, None]
    run = np.arange(b)[None, :]
    overlap = np.minimum((cell + 1) * b, (run + 1) * a) - np.maximum(cell * b, run * a)
    dtype = np.float32 if largest * a < 1 << 24 else np.float64
    weights = np.maximum(overlap, 0).astype(dtype)
    weights.flags.writeable = False
    return weights, a


def _short_period(src: int, target: int) -> bool:
    return target // math.gcd(src, target) <= _MATMUL_PERIOD


def _round_half_up(cells: np.ndarray, den: int) -> np.ndarray:
    """``(2 c + den) // (2 den)`` of integer cells ``0 <= c <= 255 den``
    held exactly in any integer or float dtype, as uint8; ``den <= 2**44``.

    The quotient ``(2 c + den) / (2 den)`` is formed as ``(c + den / 2) /
    den``, the same real number, in float32 when ``den <= 2**15`` and in
    float64 above. Its numerator is a multiple of 1/2 at most ``255.5 den``,
    below 2**23 in float32 and 2**52 in float64, so the float holds it
    exactly, and the one division is correctly rounded. The quotient is at
    most 255.5, so the division errs by less than ``256 * 2**-24 = 2**-16``
    in float32 and ``256 * 2**-53 = 2**-45`` in float64, while a quotient
    that is not an integer lies at least ``1 / (2 den)``, no less than that
    bound, below the next one. The rounded value therefore never reaches the
    next integer, and the truncating cast to uint8 yields the floor.
    float32 takes every size the correlator downsamples in practice (160x120
    from 1280x1080 has ``den = 72``) in about a third of float64's time.
    """
    dtype = np.float32 if den <= 1 << 15 else np.float64
    q = np.add(cells, dtype(den / 2), dtype=dtype)
    q /= dtype(den)
    return q.astype(np.uint8)


def box_downsample(gray: np.ndarray, tw: int, th: int) -> np.ndarray:
    """Exact area average of an (h, w) uint8 image at (th, tw), rounded half up.

    The rows are summed first, into (th, w), then the columns, into
    (th, tw) cells counted in units of ``den``. Each pass runs where it is
    fastest:

    - rows whose coverage period (``_coverage``) is 2 to ``_MATMUL_PERIOD``:
      one float matmul of the frame, viewed as (g, a, w), by the period's
      weights;
    - columns whose period is at most ``_MATMUL_PERIOD``: one float matmul
      of the row sums, viewed as (th * g, a), by the weights, with no
      transpose;
    - divisible rows: ``_run_sums``' uint16 reshape-sum, which beats a float
      copy of the frame;
    - longer periods: ``_run_sums``, on a transposed copy for the columns.

    A matmul is exact: every weight, product and partial sum is a
    non-negative integer no larger than a cell's total, at most
    ``255 * den``, and ``_coverage`` picks float32 only when that is below
    2**24 (else float64, exact below 2**53), so any summation order gives
    the same integers. The cells stay in their float or integer dtype and
    ``_round_half_up`` rounds them with one float division;
    ``den <= h * w``.
    """
    h, w = gray.shape
    if h % th and _short_period(h, th):
        weights, ky = _coverage(h, th, 255)
        frame = gray.reshape(-1, ky, w).astype(weights.dtype)
        rows = np.matmul(weights.T, frame).reshape(th, w)
    else:
        rows, ky = _run_sums(gray, th)
    if _short_period(w, tw):
        weights, kx = _coverage(w, tw, 255 * ky)
        cells = rows.astype(weights.dtype, copy=False).reshape(-1, kx) @ weights
        cells = cells.reshape(th, tw)
    else:
        if rows.dtype.kind == "f":
            rows = rows.astype(np.int64)
        cells, kx = _run_sums(np.ascontiguousarray(rows.T), tw)
        cells = cells.T
    return _round_half_up(cells, ky * kx)


Moments = tuple[np.ndarray, int, int]


def moments(gray: np.ndarray) -> Moments:
    """One uint8 image's samples as a flat float64 vector, with Sx and Sxx,
    both summed from that vector.

    Every product of two samples is at most 255**2 and every partial sum of
    them an integer below 2**53 for any image under 1.3e11 samples, so dot
    products of these vectors, and their plain sums, are exact in any
    summation order.
    """
    v = gray.astype(np.float64).ravel()
    return v, int(v.sum()), int(v @ v)


def ssim_stats(mx: Moments, my: Moments) -> tuple[int, int, int, int, int]:
    """Global integer moment sums (Sx, Sy, Sxx, Syy, Sxy) of two images'
    ``moments``; only Sxy is computed here."""
    return mx[1], my[1], mx[2], my[2], int(mx[0] @ my[0])
