"""Hot numeric kernels: luma, area downsampling and similarity statistics.

One numpy implementation per kernel, in exact integer arithmetic, so results
do not depend on the platform. Downsampling is one run sum, over the rows and
then the columns, at any size. Similarity splits its five global moment sums:
``moments`` takes one frame's ``Sx`` and ``Sxx`` once, and ``ssim_stats``
adds a pair's ``Sxy`` as one ``float64`` dot product, exact because every
partial sum of 8-bit products is an integer far below 2**53.
"""

from __future__ import annotations

import numpy as np


def luma(rgb: np.ndarray) -> np.ndarray:
    """Rec.601 luma of an (h, w, 3) uint8 raster, rounded half up."""
    # Rec.601 integer weights; +500 implements round-half-up after /1000.
    # One uint32 accumulator: at most 1000 * 255 + 500, no full-size casts.
    acc = np.multiply(rgb[:, :, 0], 299, dtype=np.uint32)
    acc += np.multiply(rgb[:, :, 1], 587, dtype=np.uint32)
    acc += np.multiply(rgb[:, :, 2], 114, dtype=np.uint32)
    acc += 500
    acc //= 1000
    return acc.astype(np.uint8)


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
