"""Polyp-level evaluation: matching rules and the derived metric suite.

A detection is a true positive when it overlaps a ground-truth box with
IoU strictly above ``IOU_CUT`` (0.5, fixed) and that ground truth has not
already been claimed by a higher-confidence detection. Extra detections on
an already-claimed ground truth count neither as TP nor FP. True negatives
are frame-level: a polyp-free frame with no output at all.

``evaluate_sequences`` scores each sequence ``BLOCK_FRAMES`` frames at a
time: one IoU pass over every detection x ground-truth pair of the block,
then the greedy claims over only the pairs above the cut. ``match_boxes`` is
the same matcher on one frame. Average precision is integrated from the
pooled confidences and marks as arrays. The results are those of matching
frame by frame, bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import chain, compress
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError
from .geometry import BoundingBox, GroundTruthBox, ScoredBox, box_columns, iou_pairs

# a detection matches a ground truth only with IoU strictly above this
IOU_CUT = 0.5
# frames matched in one IoU pass; small, so the pair arrays stay small
BLOCK_FRAMES = 32
# a detection's mark: a false positive, a true positive, or a duplicate on
# an already claimed ground truth (neither)
FP, TP, DUP = 0, 1, 2
_MARK_NAMES = ("fp", "tp", "dup")
# the EvalReport fields that hold a percentage
_PERCENT_FIELDS = frozenset({"sen", "pre", "spe", "f1", "f2", "pdr"})


@dataclass(frozen=True)
class FrameOutcome:
    """Match counts for a single frame."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn) < 0 or self.tn not in (0, 1):
            raise ValueError(f"invalid outcome counts {self}")
        if self.tn == 1 and (self.tp or self.fp or self.fn):
            raise ValueError("tn=1 requires an empty frame (no boxes either way)")


@dataclass
class EvalReport:
    """Aggregated counts and derived metrics; percentages are 0-100.

    Metrics whose denominator is zero are reported as None rather than 0.
    """

    tp: int
    fp: int
    fn: int
    tn: int
    n_frames: int
    n_negative_frames: int
    sen: float | None
    pre: float | None
    spe: float | None
    f1: float | None
    f2: float | None
    mnfp: float
    pdr: float | None = None
    map: float | None = None

    def to_dict(self) -> dict:
        """The fields by name; a percentage's name ends in ``_pct``."""
        return {
            f"{key}_pct" if key in _PERCENT_FIELDS else key: value
            for key, value in asdict(self).items()
        }


def _match_block(
    dets: Sequence[Sequence[ScoredBox]], gts: Sequence[Sequence[BoundingBox]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy assignment in each frame of a block of frames.

    In each frame, detections are processed in descending confidence (ties
    by input order); each claims the unclaimed ground truth of highest IoU
    above ``IOU_CUT``, the first listed on a tie. Returns the confidence and
    mark (``FP``, ``TP`` or ``DUP``) of every detection and a claimed flag
    for every ground truth, frame by frame in input order.
    """
    flat = list(chain.from_iterable(dets))
    flat_gts = list(chain.from_iterable(gts))
    conf = np.array([sb.confidence for sb in flat], dtype=np.float64)
    # bytearrays index fast in the claim loop and view as arrays for free
    marks = bytearray(len(flat))
    claimed = bytearray(len(flat_gts))
    # every detection against every ground truth of its own frame: pair p
    # of detection i is ground truth first_gt[i] + p - first_pair[i]
    n_dets = np.fromiter(map(len, dets), np.intp, len(dets))
    n_gts = np.fromiter(map(len, gts), np.intp, len(gts))
    per_det = np.repeat(n_gts, n_dets)
    first_pair = np.cumsum(per_det) - per_det
    first_gt = np.repeat(np.cumsum(n_gts) - n_gts, n_dets)
    det_idx = np.repeat(np.arange(len(flat)), per_det)
    gt_idx = np.arange(len(det_idx)) + np.repeat(first_gt - first_pair, per_det)
    values = iou_pairs(
        box_columns([sb.box for sb in flat])[:, det_idx],
        box_columns(flat_gts)[:, gt_idx],
    )
    above = values > IOU_CUT
    det_idx, gt_idx, values = det_idx[above], gt_idx[above], values[above]
    # ground truths of different frames never compete, so the frames may
    # interleave; each detection's candidates come best first
    order = np.lexsort((gt_idx, -values, det_idx, -conf[det_idx]))
    for i, j in zip(det_idx[order].tolist(), gt_idx[order].tolist()):
        if marks[i] == TP:
            continue
        if claimed[j]:
            marks[i] = DUP
        else:
            claimed[j] = True
            marks[i] = TP
    return conf, np.frombuffer(marks, dtype=np.int8), np.frombuffer(claimed, dtype=bool)


def match_boxes(
    dets: Sequence[ScoredBox], gts: Sequence[BoundingBox]
) -> tuple[list[str], list[int]]:
    """The block matcher on one frame. Returns per-detection marks ('tp',
    'fp', or 'dup' for extra detections on a claimed ground truth) aligned
    with the input, plus the claimed gt indices."""
    _, marks, claimed = _match_block([dets], [gts])
    return [_MARK_NAMES[m] for m in marks.tolist()], np.flatnonzero(claimed).tolist()


def aggregate(
    outcomes: Iterable[FrameOutcome], n_negative_frames: int | None = None
) -> EvalReport:
    """Fold per-frame outcomes into the metric suite."""
    outcomes = list(outcomes)
    if n_negative_frames is None:
        n_negative_frames = sum(1 for o in outcomes if o.tp + o.fn == 0)
    return _report(
        sum(o.tp for o in outcomes),
        sum(o.fp for o in outcomes),
        sum(o.fn for o in outcomes),
        sum(o.tn for o in outcomes),
        len(outcomes),
        n_negative_frames,
    )


def _report(tp: int, fp: int, fn: int, tn: int, n_frames: int, n_negative_frames: int) -> EvalReport:
    """The metric suite of dataset-wide counts over ``n_frames`` frames."""
    if not n_frames:
        raise InputError("at least one frame outcome is required")
    sen = 100.0 * tp / (tp + fn) if tp + fn > 0 else None
    pre = 100.0 * tp / (tp + fp) if tp + fp > 0 else None
    spe = 100.0 * tn / n_negative_frames if n_negative_frames > 0 else None
    f1 = f2 = None
    if sen is not None and pre is not None and sen + pre > 0:
        f1 = 2.0 * sen * pre / (sen + pre)
        f2 = 5.0 * sen * pre / (sen + 4.0 * pre)
    return EvalReport(
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        n_frames=n_frames,
        n_negative_frames=n_negative_frames,
        sen=sen,
        pre=pre,
        spe=spe,
        f1=f1,
        f2=f2,
        mnfp=fp / n_frames,
    )


def _pr_points(
    conf: np.ndarray, marks: np.ndarray, total_gt: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (recall, precision) staircase of pooled confidences and marks,
    one point per distinct confidence once a TP or FP has been seen."""
    order = np.argsort(-conf, kind="stable")
    conf, marks = conf[order], marks[order]
    tp = np.cumsum(marks == TP)
    seen = tp + np.cumsum(marks == FP)
    at_boundary = np.append(conf[1:] < conf[:-1], True) & (seen > 0)
    tp, seen = tp[at_boundary], seen[at_boundary]
    return tp / total_gt, tp / seen


def _staircase_area(recall: np.ndarray, precision: np.ndarray) -> float:
    """Area under the (recall, precision) staircase (all-points
    interpolation): precision is replaced by its monotone non-increasing
    envelope before integrating over recall. The area is summed in order,
    as ``cumsum`` does; a pairwise ``np.sum`` would round differently."""
    if not len(recall):
        return 0.0
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    steps = np.diff(recall, prepend=0.0) * envelope
    return float(np.cumsum(steps)[-1])


def pdr(detected_by_polyp: Mapping[str, bool]) -> float:
    """Percentage of individual polyps detected at least once in their sequence."""
    if not detected_by_polyp:
        raise InputError("polyp detection rate requires at least one polyp identity")
    hits = sum(1 for v in detected_by_polyp.values() if v)
    return 100.0 * hits / len(detected_by_polyp)


def evaluate_sequences(
    sequences: Sequence[tuple[Sequence[object], Sequence[Sequence[GroundTruthBox]]]],
) -> EvalReport:
    """Evaluate one or more (detections, ground-truth) sequences as a dataset.

    Each sequence pairs per-frame detections (FrameDetections or plain
    ScoredBox lists) with per-frame ``GroundTruthBox`` lists of equal length,
    whose corner-form boxes are matched as they are, ``BLOCK_FRAMES`` frames
    at a time. Polyp identities feed the detection-rate bookkeeping; pooled
    confidences feed the precision/recall sweep.
    """
    tp = fp = n_gts = tn = n_frames = n_negative = 0
    polyps: set[str] = set()
    detected: set[str] = set()
    confs: list[np.ndarray] = []
    marks: list[np.ndarray] = []

    for dets_seq, gt_seq in sequences:
        if len(dets_seq) != len(gt_seq):
            raise InputError(
                f"sequence has {len(dets_seq)} detection frames but {len(gt_seq)} ground-truth frames"
            )
        for start in range(0, len(dets_seq), BLOCK_FRAMES):
            dets = [tuple(getattr(d, "boxes", d)) for d in dets_seq[start : start + BLOCK_FRAMES]]
            gts = gt_seq[start : start + BLOCK_FRAMES]
            conf, block_marks, claimed = _match_block(dets, [[g.box for g in f] for f in gts])
            confs.append(conf)
            marks.append(block_marks)
            tp += int(np.count_nonzero(block_marks == TP))
            fp += int(np.count_nonzero(block_marks == FP))
            n_gts += len(claimed)
            n_frames += len(dets)
            n_negative += sum(1 for f in gts if not f)
            tn += sum(1 for d, f in zip(dets, gts) if not d and not f)
            ids = [g.polyp_id for f in gts for g in f]
            polyps.update(ids)
            detected.update(compress(ids, claimed.tolist()))

    report = _report(tp, fp, n_gts - tp, tn, n_frames, n_negative)
    if polyps:
        # polyps is non-empty only when some frame has ground truth
        report.pdr = pdr({p: p in detected for p in polyps})
        report.map = _staircase_area(*_pr_points(np.concatenate(confs), np.concatenate(marks), n_gts))
    return report
