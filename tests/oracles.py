"""Independent reference implementations used to cross-check the library.

Everything here favors clarity over speed: two-pass statistics, explicit
window materialization, no caching, no shared state with the streaming
implementation.
"""

from __future__ import annotations

import math

import numpy as np

from polypstream.correlator import FilteredFrame, IscuConfig
from polypstream.errors import InputError
from polypstream.geometry import (
    BoundingBox,
    BoxOrigin,
    FrameDetections,
    ScoredBox,
)
from polypstream.similarity import GrayFrame, SsimParams


def naive_luma(rgb: np.ndarray) -> np.ndarray:
    """Rec.601 luma of an (h, w, 3) uint8 raster, rounded half up, as
    ``(299 r + 587 g + 114 b + 500) // 1000`` in one uint32 accumulator
    (at most 1000 * 255 + 500)."""
    acc = np.multiply(rgb[:, :, 0], 299, dtype=np.uint32)
    acc += np.multiply(rgb[:, :, 1], 587, dtype=np.uint32)
    acc += np.multiply(rgb[:, :, 2], 114, dtype=np.uint32)
    acc += 500
    acc //= 1000
    return acc.astype(np.uint8)


def _coverage_matrix(src: int, target: int) -> np.ndarray:
    """Dense (target, src) int64 matrix: entry (j, c) is how much of source
    cell c lies in output run j, in units of 1/target of a cell. Run j spans
    [j*src, (j+1)*src) and cell c spans [c*target, (c+1)*target)."""
    m = np.zeros((target, src), dtype=np.int64)
    for j in range(target):
        lo, hi = j * src, (j + 1) * src
        for c in range(lo // target, min(src, -(-hi // target))):
            m[j, c] = min(hi, (c + 1) * target) - max(lo, c * target)
    return m


def naive_box_downsample(gray: np.ndarray, tw: int, th: int) -> np.ndarray:
    """Exact area average of an (h, w) uint8 image at (th, tw), rounded half
    up, as ``Wy @ img @ Wx.T`` over the dense coverage matrices. Each
    output cell's sum is in units of 1/(th*tw) of a pixel and its area is
    h*w such units.

    The product runs in float64, where numpy uses BLAS. It is exact: every
    term and partial sum, in either product order, is a non-negative integer
    at most 255*h*w (about 3.5e8 at 1280x1080), far below 2**53. The sums
    are cast back to int64 before the rounding."""
    h, w = gray.shape
    sums = np.linalg.multi_dot(
        [
            _coverage_matrix(h, th).astype(np.float64),
            gray.astype(np.float64),
            _coverage_matrix(w, tw).T.astype(np.float64),
        ]
    ).astype(np.int64)
    area = h * w
    return ((2 * sums + area) // (2 * area)).astype(np.uint8)


def naive_bilinear_upsample(grid: np.ndarray, w: int, h: int) -> np.ndarray:
    """Bilinear upsampling of a float grid to (h, w), pixel centers aligned,
    edges clamped: each output pixel lerps its two source rows' values at
    its x, then lerps those along y (four gathers per pixel)."""
    gh, gw = grid.shape
    gx = (np.arange(w) + 0.5) * gw / w - 0.5
    gy = (np.arange(h) + 0.5) * gh / h - 0.5
    x0 = np.clip(np.floor(gx).astype(np.int64), 0, gw - 1)
    y0 = np.clip(np.floor(gy).astype(np.int64), 0, gh - 1)
    x1 = np.minimum(x0 + 1, gw - 1)
    y1 = np.minimum(y0 + 1, gh - 1)
    fx = np.clip(gx - x0, 0.0, 1.0)
    fy = np.clip(gy - y0, 0.0, 1.0)
    top = grid[np.ix_(y0, x0)] * (1 - fx) + grid[np.ix_(y0, x1)] * fx
    bot = grid[np.ix_(y1, x0)] * (1 - fx) + grid[np.ix_(y1, x1)] * fx
    return top * (1 - fy)[:, None] + bot * fy[:, None]


def _naive_prepare_luma(g: GrayFrame, p: SsimParams) -> GrayFrame:
    """The frame at the comparison size; frames already at or below it on
    an axis keep that axis, and a frame at or below it on both passes
    through unchanged."""
    tw, th = min(p.downsample_w, g.width), min(p.downsample_h, g.height)
    if (tw, th) == (g.width, g.height):
        return g
    return GrayFrame.from_array(naive_box_downsample(g.samples, tw, th))


# SSIM's stabilising constants for 8-bit samples: (K1 * L) ** 2 and
# (K2 * L) ** 2 with K1 = 0.01, K2 = 0.03 and L = 255, and half the second.
_C1 = (0.01 * 255.0) ** 2
_C2 = (0.03 * 255.0) ** 2
_C3 = _C2 / 2.0


def naive_ssim(x: GrayFrame, y: GrayFrame) -> float:
    """Literal two-pass evaluation of the luminance/contrast/structure product."""
    a = x.samples.astype(np.float64).ravel()
    b = y.samples.astype(np.float64).ravel()
    mu_x = a.mean()
    mu_y = b.mean()
    var_x = ((a - mu_x) ** 2).mean()
    var_y = ((b - mu_y) ** 2).mean()
    cov = ((a - mu_x) * (b - mu_y)).mean()
    sd_x = math.sqrt(var_x)
    sd_y = math.sqrt(var_y)
    lum = (2 * mu_x * mu_y + _C1) / (mu_x**2 + mu_y**2 + _C1)
    con = (2 * sd_x * sd_y + _C2) / (var_x + var_y + _C2)
    stru = (cov + _C3) / (sd_x * sd_y + _C3)
    return lum * con * stru


def naive_pair_ssim(x: GrayFrame, y: GrayFrame) -> float:
    """Global similarity of one pair: five int64 moment sums, then the
    library's formula written out in its operation order (so the value is
    bit-identical), sharing no kernel with the code it checks."""
    a = x.samples.astype(np.int64).ravel()
    b = y.samples.astype(np.int64).ravel()
    n = a.size
    sx, sy = int(a.sum()), int(b.sum())
    sxx, syy, sxy = int((a * a).sum()), int((b * b).sum()), int((a * b).sum())
    mx = sx / n
    my = sy / n
    vx = max(sxx / n - mx * mx, 0.0)
    vy = max(syy / n - my * my, 0.0)
    cxy = sxy / n - mx * my
    sdx = math.sqrt(vx)
    sdy = math.sqrt(vy)
    lum = (2.0 * mx * my + _C1) / (mx * mx + my * my + _C1)
    con = (2.0 * sdx * sdy + _C2) / (vx + vy + _C2)
    stru = (cxy + _C3) / (sdx * sdy + _C3)
    return lum * con * stru


def _iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union, written out in the library's operation order
    (min/max, subtract, multiply, divide) so the value is bit-identical."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    area_a = (a.x_max - a.x_min) * (a.y_max - a.y_min)
    area_b = (b.x_max - b.x_min) * (b.y_max - b.y_min)
    inter = ix * iy
    return inter / (area_a + area_b - inter)


def _adaptive_threshold(box: BoundingBox, width: int, height: int) -> float:
    """Half the sum of the box's width and height as fractions of the frame."""
    return 0.5 * ((box.x_max - box.x_min) / width + (box.y_max - box.y_min) / height)


def naive_filter_sequence(
    frames: list[GrayFrame],
    detections: list[FrameDetections],
    cfg: IscuConfig | None = None,
) -> list[FilteredFrame]:
    """Reference correlator: materializes every window explicitly.

    Downsamples with ``naive_box_downsample``, re-derives similarity per
    pair with ``naive_pair_ssim`` (no caching, no library kernel) and applies
    the noise elimination and missed-detection rules with straightforward
    loops over its own scalar ``_iou`` and ``_adaptive_threshold``.
    """
    cfg = cfg or IscuConfig()
    if len(frames) != len(detections):
        raise InputError("frame/detection length mismatch")
    n = len(frames)
    h = cfg.half_window
    lumas = [_naive_prepare_luma(f, cfg.ssim_params) for f in frames]
    gated = [
        FrameDetections(
            d.meta, tuple(b for b in d.boxes if b.confidence > cfg.confidence_gate)
        )
        for d in detections
    ]

    out = []
    for t in range(n):
        neighbor_ids = [k for k in range(max(0, t - h), min(n, t + h + 1)) if k != t]
        kept = _naive_eliminate(t, neighbor_ids, lumas, gated, cfg)
        added = _naive_fill(t, neighbor_ids, gated, cfg)
        out.append(
            FilteredFrame(
                gated[t].meta, tuple(kept), tuple(added), len(gated[t].boxes) - len(kept)
            )
        )
    return out


def _naive_eliminate(t, neighbor_ids, lumas, gated, cfg):
    center = gated[t]
    if not neighbor_ids:
        return list(center.boxes)
    similar = [
        k
        for k in neighbor_ids
        if naive_pair_ssim(lumas[t], lumas[k]) > cfg.similarity_threshold
    ]
    kept = []
    for sb in center.boxes:
        thr = _adaptive_threshold(sb.box, center.meta.width, center.meta.height)
        if similar:
            count = sum(
                1
                for k in similar
                if any(_iou(other.box, sb.box) > thr for other in gated[k].boxes)
            )
            if count > len(similar) / 2:
                kept.append(sb)
        else:
            if len(neighbor_ids) == 2 * cfg.half_window:
                quorum = cfg.fc_quorum
            else:
                quorum = math.ceil(len(neighbor_ids) / 2)
            count = sum(
                1
                for k in neighbor_ids
                if any(_iou(other.box, sb.box) > thr for other in gated[k].boxes)
            )
            if count >= quorum:
                kept.append(sb)
    return kept


def _naive_fill(t, neighbor_ids, gated, cfg):
    if not any(k < t for k in neighbor_ids) or not any(k > t for k in neighbor_ids):
        return []
    claimed = set()
    added = []
    for si in sorted(neighbor_ids, key=lambda k: (abs(k - t), k - t)):
        for bi, seed in enumerate(gated[si].boxes):
            if (si, bi) in claimed:
                continue
            claimed.add((si, bi))
            members = [(si, seed)]
            for oi in neighbor_ids:
                if oi == si:
                    continue
                best, best_v = None, cfg.fill_iou
                for obi, cand in enumerate(gated[oi].boxes):
                    if (oi, obi) in claimed:
                        continue
                    v = _iou(seed.box, cand.box)
                    if v > best_v:
                        best, best_v = obi, v
                if best is not None:
                    claimed.add((oi, best))
                    members.append((oi, gated[oi].boxes[best]))
            if len(members) < cfg.fill_quorum:
                continue
            if not (any(k < t for k, _ in members) and any(k > t for k, _ in members)):
                continue
            members.sort(key=lambda m: m[0])
            boxes = [m[1].box for m in members]
            mean = BoundingBox(
                sum(b.x_min for b in boxes) / len(boxes),
                sum(b.y_min for b in boxes) / len(boxes),
                sum(b.x_max for b in boxes) / len(boxes),
                sum(b.y_max for b in boxes) / len(boxes),
            )
            if any(_iou(mean, sb.box) > cfg.fill_iou for sb in gated[t].boxes):
                continue
            added.append(
                ScoredBox(
                    mean,
                    sum(m[1].confidence for m in members) / len(members),
                    BoxOrigin.INTERPOLATED,
                )
            )
    return added


def _naive_match(dets, gts, iou_cut):
    """(tp, fp) of one frame by the greedy rule, on the oracle's own ``_iou``:
    detections in descending confidence, the first listed on a tie, each
    claim the unclaimed ground truth of highest IoU above the cut, the first
    listed on a tie. A detection above the cut only on claimed ground truth
    is a duplicate, neither TP nor FP."""
    claimed = set()
    tp = fp = 0
    for i in sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i)):
        best, best_v, overlaps = None, None, False
        for j, g in enumerate(gts):
            v = _iou(dets[i].box, g)
            if v <= iou_cut:
                continue
            overlaps = True
            if j not in claimed and (best is None or v > best_v):
                best, best_v = j, v
        if best is not None:
            claimed.add(best)
            tp += 1
        elif not overlaps:
            fp += 1
    return tp, fp


def naive_average_precision(detections, ground_truths, iou_cut=0.5) -> float:
    """Re-run full matching at every distinct threshold, then integrate the
    enveloped staircase over recall."""
    total_gt = sum(len(g) for g in ground_truths)
    thresholds = sorted(
        {d.confidence for dets in detections for d in dets}, reverse=True
    )
    points = []
    for c in thresholds:
        tp = fp = 0
        for dets, gts in zip(detections, ground_truths):
            frame_tp, frame_fp = _naive_match([d for d in dets if d.confidence >= c], gts, iou_cut)
            tp += frame_tp
            fp += frame_fp
        if tp + fp:
            points.append((tp / total_gt, tp / (tp + fp)))
    ap = 0.0
    prev_r = 0.0
    for i, (r, _) in enumerate(points):
        best = max(p for _, p in points[i:])
        ap += (r - prev_r) * best
        prev_r = r
    return ap
