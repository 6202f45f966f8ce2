"""Hot numeric kernels: luma, area downsampling and similarity statistics.

One numpy implementation per kernel. Luma, downsampling and the global
moment sums use exact integer arithmetic, so their results do not depend on
the platform. The windowed similarity sums its integer window moments
exactly and only then forms each window's value in floating point.
"""

from __future__ import annotations

import numpy as np


def luma(rgb: np.ndarray) -> np.ndarray:
    """Rec.601 luma of an (h, w, 3) uint8 raster, rounded half up."""
    # Rec.601 integer weights; +500 implements round-half-up after /1000.
    r = rgb[:, :, 0].astype(np.uint32)
    g = rgb[:, :, 1].astype(np.uint32)
    b = rgb[:, :, 2].astype(np.uint32)
    return ((299 * r + 587 * g + 114 * b + 500) // 1000).astype(np.uint8)


def _axis_fine_sums(arr: np.ndarray, target: int) -> np.ndarray:
    """Exact per-interval sums along the last axis, in fine units.

    Each source cell spans ``target`` fine units; output cell ``j`` covers
    fine interval [j*src, (j+1)*src). Integer arithmetic throughout.
    """
    src = arr.shape[-1]
    cum = np.zeros(arr.shape[:-1] + (src + 1,), dtype=np.int64)
    np.cumsum(arr, axis=-1, dtype=np.int64, out=cum[..., 1:])
    bounds = np.arange(target + 1, dtype=np.int64) * src
    q, rem = np.divmod(bounds, target)
    safe_q = np.minimum(q, src - 1)
    # prefix sum at a fine position: whole cells plus the partial cell
    prefix = cum[..., q] * target + arr[..., safe_q].astype(np.int64) * rem
    return prefix[..., 1:] - prefix[..., :-1]


def box_downsample(gray: np.ndarray, tw: int, th: int) -> np.ndarray:
    """Exact area-average resample of an (h, w) uint8 image to (th, tw).

    Fractional source pixels are weighted by coverage; the final value is
    rounded half up. Pure integer arithmetic throughout.
    """
    h, w = gray.shape
    if w % tw == 0 and h % th == 0:
        fx, fy = w // tw, h // th
        # fy uint8 rows sum exactly in uint16 while fy * 255 <= 65535, i.e. fy <= 257
        acc = np.uint16 if fy <= 257 else np.int64
        rows = gray.reshape(th, fy, w).sum(axis=1, dtype=acc).reshape(th, tw, fx)
        bs = rows.sum(axis=2, dtype=np.int64)
        den = np.int64(fx) * np.int64(fy)
        return ((2 * bs + den) // (2 * den)).astype(np.uint8)
    mid = _axis_fine_sums(gray, tw)
    tot = _axis_fine_sums(np.ascontiguousarray(mid.T), th).T
    den = np.int64(w) * np.int64(h)
    return ((2 * tot + den) // (2 * den)).astype(np.uint8)


def ssim_stats(x: np.ndarray, y: np.ndarray) -> tuple[int, int, int, int, int]:
    """Global integer moment sums (Sx, Sy, Sxx, Syy, Sxy) of two uint8 images."""
    a = x.astype(np.int64, copy=False).ravel()
    b = y.astype(np.int64, copy=False).ravel()
    return (
        int(a.sum()),
        int(b.sum()),
        int((a * a).sum()),
        int((b * b).sum()),
        int((a * b).sum()),
    )


def _integral(img64: np.ndarray) -> np.ndarray:
    h, w = img64.shape
    out = np.zeros((h + 1, w + 1), dtype=np.int64)
    np.cumsum(np.cumsum(img64, axis=0, dtype=np.int64), axis=1, out=out[1:, 1:])
    return out


def windowed_ssim(
    x: np.ndarray, y: np.ndarray, win: int, stride: int, b1: float, b2: float, b3: float
) -> tuple[float, int]:
    """Sum and count of per-window structural similarity values."""
    h, w = x.shape
    a = x.astype(np.int64)
    b = y.astype(np.int64)
    iix = _integral(a)
    iiy = _integral(b)
    iixx = _integral(a * a)
    iiyy = _integral(b * b)
    iixy = _integral(a * b)
    rows = np.arange(0, h - win + 1, stride)
    cols = np.arange(0, w - win + 1, stride)
    r0, c0 = np.meshgrid(rows, cols, indexing="ij")
    r1, c1 = r0 + win, c0 + win

    def wsum(ii: np.ndarray) -> np.ndarray:
        return ii[r1, c1] - ii[r0, c1] - ii[r1, c0] + ii[r0, c0]

    n = float(win * win)
    sx = wsum(iix) / n
    sy = wsum(iiy) / n
    vx = np.maximum(wsum(iixx) / n - sx * sx, 0.0)
    vy = np.maximum(wsum(iiyy) / n - sy * sy, 0.0)
    cxy = wsum(iixy) / n - sx * sy
    sdx = np.sqrt(vx)
    sdy = np.sqrt(vy)
    lum = (2.0 * sx * sy + b1) / (sx * sx + sy * sy + b1)
    con = (2.0 * sdx * sdy + b2) / (vx + vy + b2)
    stru = (cxy + b3) / (sdx * sdy + b3)
    vals = lum * con * stru
    return float(vals.sum()), int(vals.size)
