"""Polyp-level evaluation: matching rules and the derived metric suite.

A detection is a true positive when it overlaps a ground-truth box with
IoU strictly above ``IOU_CUT`` (0.5, fixed) and that ground truth has not
already been claimed by a higher-confidence detection. Extra detections on
an already-claimed ground truth count neither as TP nor FP. True negatives
are frame-level: a polyp-free frame with no output at all.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Mapping, Sequence

from .errors import InputError
from .geometry import BoundingBox, GroundTruthBox, ScoredBox, iou

# a detection matches a ground truth only with IoU strictly above this
IOU_CUT = 0.5
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


def match_boxes(
    dets: Sequence[ScoredBox], gts: Sequence[BoundingBox]
) -> tuple[list[str], list[int]]:
    """Greedy per-frame assignment.

    Detections are processed in descending confidence (ties by input order);
    each picks the unclaimed ground truth with the highest IoU above
    ``IOU_CUT``. Returns per-detection marks ('tp', 'fp', or 'dup' for extra
    detections on a claimed ground truth) aligned with the input, plus
    claimed gt indices.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    marks = ["fp"] * len(dets)
    claimed: set[int] = set()
    for i in order:
        box = dets[i].box
        candidates = [(iou(box, g), j) for j, g in enumerate(gts)]
        candidates = [(v, j) for v, j in candidates if v > IOU_CUT]
        if not candidates:
            continue
        free = [(v, j) for v, j in candidates if j not in claimed]
        if free:
            _, j = max(free, key=lambda t: (t[0], -t[1]))
            claimed.add(j)
            marks[i] = "tp"
        else:
            marks[i] = "dup"
    return marks, sorted(claimed)


def _outcome(marks: list[str], claimed: list[int], n_gts: int) -> FrameOutcome:
    """One frame's polyp-level TP/FP/FN counts from the marks and claimed
    list of ``match_boxes``; TN flags an all-empty frame."""
    tp = len(claimed)
    return FrameOutcome(
        tp=tp,
        fp=marks.count("fp"),
        fn=n_gts - tp,
        tn=1 if not n_gts and not marks else 0,
    )


def aggregate(
    outcomes: Iterable[FrameOutcome], n_negative_frames: int | None = None
) -> EvalReport:
    """Fold per-frame outcomes into the metric suite."""
    outcomes = list(outcomes)
    if not outcomes:
        raise InputError("at least one frame outcome is required")
    tp = sum(o.tp for o in outcomes)
    fp = sum(o.fp for o in outcomes)
    fn = sum(o.fn for o in outcomes)
    tn = sum(o.tn for o in outcomes)
    if n_negative_frames is None:
        n_negative_frames = sum(1 for o in outcomes if o.tp + o.fn == 0)

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
        n_frames=len(outcomes),
        n_negative_frames=n_negative_frames,
        sen=sen,
        pre=pre,
        spe=spe,
        f1=f1,
        f2=f2,
        mnfp=fp / len(outcomes),
    )


def _pr_points(pool: list[tuple[float, str]], total_gt: int) -> list[tuple[float, float]]:
    """The (recall, precision) staircase of pooled (confidence, mark) pairs,
    one point per distinct confidence; sorts `pool`."""
    pool.sort(key=lambda t: -t[0])
    points: list[tuple[float, float]] = []
    tp = fp = 0
    for idx, (conf, mark) in enumerate(pool):
        if mark == "tp":
            tp += 1
        elif mark == "fp":
            fp += 1
        at_boundary = idx == len(pool) - 1 or pool[idx + 1][0] < conf
        if at_boundary and tp + fp > 0:
            points.append((tp / total_gt, tp / (tp + fp)))
    return points


def _staircase_area(points: list[tuple[float, float]]) -> float:
    """Area under the (recall, precision) staircase (all-points
    interpolation): precision is replaced by its monotone non-increasing
    envelope before integrating over recall."""
    if not points:
        return 0.0
    envelope: list[tuple[float, float]] = []
    best = 0.0
    for recall, precision in reversed(points):
        best = max(best, precision)
        envelope.append((recall, best))
    envelope.reverse()
    ap = 0.0
    prev_recall = 0.0
    for recall, precision in envelope:
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


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
    whose corner-form boxes are matched as they are.
    Polyp identities feed the detection-rate bookkeeping; pooled confidences
    feed the precision/recall sweep.
    """
    outcomes: list[FrameOutcome] = []
    flags: dict[str, bool] = {}
    pool: list[tuple[float, str]] = []

    for dets_seq, gt_seq in sequences:
        if len(dets_seq) != len(gt_seq):
            raise InputError(
                f"sequence has {len(dets_seq)} detection frames but {len(gt_seq)} ground-truth frames"
            )
        for dets, gts in zip(dets_seq, gt_seq):
            boxes = tuple(getattr(dets, "boxes", dets))
            marks, claimed = match_boxes(boxes, [g.box for g in gts])
            outcomes.append(_outcome(marks, claimed, len(gts)))
            for g in gts:
                flags.setdefault(g.polyp_id, False)
            for j in claimed:
                flags[gts[j].polyp_id] = True
            pool.extend((d.confidence, m) for d, m in zip(boxes, marks))

    report = aggregate(outcomes)
    if flags:
        # flags is non-empty only when some frame has ground truth
        report.pdr = pdr(flags)
        report.map = _staircase_area(_pr_points(pool, report.tp + report.fn))
    return report
