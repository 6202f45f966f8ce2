"""Hot numeric kernels: luma, area downsampling and similarity statistics.

One numpy implementation per kernel, in exact integer arithmetic, so results
do not depend on the platform. Luma and the moments run that arithmetic in
floats: every sum they form is an integer the float holds exactly, so the
result is the same in any summation order. Luma is one ``float32`` dot
product per band of rows. Downsampling is one run sum, over the rows and then
the columns, at any size. Similarity splits its five global moment sums:
``moments`` takes one frame's ``Sx`` and ``Sxx`` once, and ``ssim_stats``
adds a pair's ``Sxy`` as one ``float64`` dot product, exact because every
partial sum of 8-bit products is an integer far below 2**53.
"""

from __future__ import annotations

import numpy as np


# Rec.601 integer weights, in thousandths
_LUMA_WEIGHTS = np.array([299, 587, 114], dtype=np.float32)
# rows converted per band, so that the band's float32 copy stays in cache
_LUMA_BAND_ROWS = 32


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
    lo, rem = np.divmod(np.arange(target + 1) * src, target)
    whole = np.diff(lo)  # rows from lo[j] to lo[j+1] - 1: k_min or k_min + 1 per run
    k_max = int(whole.max())
    # k_max uint8 rows sum exactly in uint16 while k_max * 255 <= 65535: k_max <= 257
    acc = np.uint16 if arr.dtype == np.uint8 and k_max <= 257 else np.int64
    if src % target == 0:
        return arr.reshape(target, k_max, -1).sum(axis=1, dtype=acc), k_max
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


def box_downsample(gray: np.ndarray, tw: int, th: int) -> np.ndarray:
    """Exact area average of an (h, w) uint8 image at (th, tw), rounded half up.

    ``_run_sums`` sums the rows, then the small transposed (w, th) result.
    """
    rows, ky = _run_sums(gray, th)
    cells, kx = _run_sums(np.ascontiguousarray(rows.T), tw)
    den = np.int64(ky * kx)  # cells <= 255 * den <= 255 * h * w, far inside int64
    return ((2 * cells.T + den) // (2 * den)).astype(np.uint8)


Moments = tuple[np.ndarray, int, int]


def moments(gray: np.ndarray) -> Moments:
    """One uint8 image's samples as a flat float64 vector, with Sx and Sxx.

    Every product of two samples is at most 255**2 and every partial sum of
    them an integer below 2**53 for any image under 1.3e11 samples, so dot
    products of these vectors are exact in any summation order.
    """
    v = gray.astype(np.float64).ravel()
    return v, int(gray.sum(dtype=np.int64)), int(v @ v)


def ssim_stats(mx: Moments, my: Moments) -> tuple[int, int, int, int, int]:
    """Global integer moment sums (Sx, Sy, Sxx, Syy, Sxy) of two images'
    ``moments``; only Sxy is computed here."""
    return mx[1], my[1], mx[2], my[2], int(mx[0] @ my[0])
