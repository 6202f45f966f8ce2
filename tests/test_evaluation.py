from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polypstream import evaluation
from polypstream.errors import InputError
from polypstream.evaluation import (
    IOU_CUT,
    FrameOutcome,
    aggregate,
    evaluate_sequences,
    match_boxes,
    pdr,
)
from polypstream.geometry import (
    BoundingBox,
    BoxOrigin,
    FrameDetections,
    FrameMeta,
    GroundTruthBox,
    ScoredBox,
    iou,
)

from oracles import _naive_match, naive_average_precision


def sb(x0, y0, x1, y1, conf=0.9):
    return ScoredBox(BoundingBox(x0, y0, x1, y1), conf, BoxOrigin.DETECTOR)


def bb(x0, y0, x1, y1):
    return BoundingBox(x0, y0, x1, y1)


def frame_counts(dets, gts):
    """(tp, fp, fn, tn) of one frame of corner-form ground truth, evaluated
    as a one-frame sequence."""
    annotations = [GroundTruthBox(g, f"p{j}") for j, g in enumerate(gts)]
    rep = evaluate_sequences([([dets], [annotations])])
    return rep.tp, rep.fp, rep.fn, rep.tn


class TestMatchFrame:
    def test_empty_frame_is_true_negative(self):
        assert match_boxes([], []) == ([], [])
        assert frame_counts([], []) == (0, 0, 0, 1)

    def test_single_hit(self):
        assert frame_counts([sb(0, 0, 10, 10)], [bb(1, 1, 11, 11)]) == (1, 0, 0, 0)

    def test_duplicate_detection_not_counted_twice(self):
        dets = [sb(0, 0, 10, 10, 0.9), sb(0.5, 0.5, 10.5, 10.5, 0.8)]
        assert match_boxes(dets, [bb(0, 0, 10, 10)]) == (["tp", "dup"], [0])
        assert frame_counts(dets, [bb(0, 0, 10, 10)])[:3] == (1, 0, 0)

    def test_unmatched_detection_is_fp(self):
        assert frame_counts([sb(50, 50, 60, 60)], []) == (0, 1, 0, 0)

    def test_undetected_gt_is_fn(self):
        assert frame_counts([], [bb(0, 0, 10, 10)]) == (0, 0, 1, 0)

    def test_iou_cut_is_strict(self):
        # IoU exactly IOU_CUT: (0,0,10,20) vs (0,0,10,10) -> inter 100, union 200
        det, gt = sb(0, 0, 10, 20), bb(0, 0, 10, 10)
        assert iou(det.box, gt) == IOU_CUT
        assert match_boxes([det], [gt]) == (["fp"], [])
        assert frame_counts([det], [gt])[:3] == (0, 1, 1)

    def test_confidence_priority(self):
        # lower-confidence detection has better IoU but the higher one matches first
        gt = bb(0, 0, 10, 10)
        d_hi = sb(0, 0, 10, 12, 0.9)
        d_lo = sb(0, 0, 10, 10, 0.5)
        marks, claimed = match_boxes([d_lo, d_hi], [gt])
        assert marks == ["dup", "tp"]
        assert claimed == [0]

    def test_highest_iou_wins_among_free(self):
        gts = [bb(0, 0, 10, 10), bb(0, 0, 10, 12)]
        marks, claimed = match_boxes([sb(0, 0, 10, 10)], gts)
        assert marks == ["tp"]
        assert claimed == [0]

    def test_tp_plus_fn_equals_total_gt(self):
        r = np.random.default_rng(0)
        for _ in range(50):
            gts = [
                bb(x, y, x + 10, y + 10)
                for x, y in r.integers(0, 80, size=(r.integers(0, 4), 2))
            ]
            dets = [
                sb(x, y, x + 10, y + 10, float(c))
                for (x, y), c in zip(
                    r.integers(0, 80, size=(r.integers(0, 5), 2)),
                    r.random(5),
                )
            ]
            tp, _, fn, _ = frame_counts(dets, gts)
            assert tp + fn == len(gts)


class TestAggregate:
    def test_table_fixture_a(self):
        rep = aggregate([FrameOutcome(167, 26, 41, 0)], 0)
        assert rep.sen == pytest.approx(80.29, abs=0.005)
        assert rep.pre == pytest.approx(86.53, abs=0.005)
        assert rep.f1 == pytest.approx(83.29, abs=0.005)
        assert rep.f2 == pytest.approx(81.46, abs=0.005)

    def test_table_fixture_b(self):
        rep = aggregate([FrameOutcome(149, 30, 59, 0)], 0)
        assert rep.sen == pytest.approx(71.63, abs=0.005)
        assert rep.pre == pytest.approx(83.24, abs=0.005)
        assert rep.f1 == pytest.approx(77.00, abs=0.005)
        assert rep.f2 == pytest.approx(73.69, abs=0.005)

    def test_degenerate_denominators(self):
        rep = aggregate([FrameOutcome(0, 0, 5, 0)], 0)
        assert rep.sen == 0.0
        assert rep.pre is None
        assert rep.f1 is None
        assert rep.mnfp == 0.0
        assert rep.spe is None

    def test_mnfp_counts_all_frames(self):
        outcomes = [FrameOutcome(1, 2, 0, 0), FrameOutcome(0, 0, 0, 1)]
        rep = aggregate(outcomes, 1)
        assert rep.mnfp == 1.0
        assert rep.spe == 100.0

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            aggregate([], 0)

    def test_negative_frames_derived(self):
        outcomes = [FrameOutcome(0, 1, 0, 0), FrameOutcome(1, 0, 0, 0), FrameOutcome(0, 0, 0, 1)]
        rep = aggregate(outcomes)
        assert rep.n_negative_frames == 2
        assert rep.spe == 50.0

    @given(
        st.integers(0, 500), st.integers(0, 500), st.integers(0, 500)
    )
    def test_f_scores_identity(self, tp, fp, fn):
        rep = aggregate([FrameOutcome(tp, fp, fn, 0)], 0)
        if rep.f1 is None:
            return
        assert rep.f1 <= 100.0 + 1e-9
        if abs(rep.sen - rep.pre) < 1e-12:
            assert rep.f1 == pytest.approx(rep.f2, abs=1e-9)
        elif rep.sen < rep.pre:
            assert rep.f2 < rep.f1
        else:
            assert rep.f2 > rep.f1


def report_map(dets, gts):
    """``EvalReport.map`` of one sequence with corner-form ground truth."""
    annotations = [[GroundTruthBox(g, f"p{i}") for i, g in enumerate(f)] for f in gts]
    return evaluate_sequences([(dets, annotations)]).map


class TestAveragePrecision:
    def test_perfect_detector(self):
        gts = [[bb(0, 0, 10, 10)], [bb(20, 20, 40, 40)]]
        dets = [[sb(0, 0, 10, 10, 0.9)], [sb(20, 20, 40, 40, 0.8)]]
        assert report_map(dets, gts) == pytest.approx(1.0)

    def test_tp_fp_tp_staircase(self):
        # confidence order: TP(0.9), FP(0.8), TP(0.7) with 2 ground truths
        gts = [[bb(0, 0, 10, 10)], [bb(50, 50, 60, 60)]]
        dets = [
            [sb(0, 0, 10, 10, 0.9), sb(80, 80, 90, 90, 0.8)],
            [sb(50, 50, 60, 60, 0.7)],
        ]
        assert report_map(dets, gts) == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))

    def test_all_false_positives(self):
        gts = [[bb(0, 0, 10, 10)]]
        dets = [[sb(50, 50, 60, 60, 0.9), sb(70, 70, 80, 80, 0.8)]]
        assert report_map(dets, gts) == 0.0

    def test_no_ground_truth_has_no_map(self):
        assert report_map([[sb(0, 0, 10, 10)]], [[]]) is None

    def test_pr_points_monotone_recall(self):
        r = np.random.default_rng(1)
        confidences = r.random(60).round(1)
        marks = r.choice([evaluation.TP, evaluation.FP, evaluation.DUP], 60)
        recall, precision = evaluation._pr_points(confidences, marks, 60)
        recalls = recall.tolist()
        assert recalls == sorted(recalls)
        # one point per distinct confidence once a tp or fp has been seen
        assert len(recalls) == len(precision) <= len(set(confidences.tolist()))

    @given(
        st.tuples(st.integers(0, 10_000), st.integers(1, 8)).map(
            lambda t: _random_dataset(np.random.default_rng(t[0]), t[1])
        ),
        st.integers(2, 3),
        st.integers(0, 8),
    )
    @settings(max_examples=60, deadline=None)
    # IoU exactly at the 0.5 cut: no match
    @example(([[sb(0, 0, 10, 5, 0.9)]], [[bb(0, 0, 10, 10)]]), 2, 0)
    # a duplicate on a claimed ground truth, then a TP: the duplicate is
    # neither TP nor FP
    @example(
        (
            [[sb(0, 0, 10, 10, 0.9), sb(0, 0, 10, 9, 0.8), sb(80, 80, 90, 90, 0.6)]],
            [[bb(0, 0, 10, 10), bb(80, 80, 90, 90)]],
        ),
        2,
        0,
    )
    # two ground truths tie at IoU 0.8 for the first detection, which claims
    # the first listed; the second detection overlaps only that one
    @example(
        (
            [[sb(0, 0, 10, 10, 0.9), sb(0, 0, 10, 7, 0.8)]],
            [[bb(0, 0, 10, 8), bb(0, 2, 10, 10)]],
        ),
        3,
        1,
    )
    # the first detection claims the better of two free ground truths, the
    # second listed, which is the only one the second detection overlaps
    @example(
        (
            [[sb(0, 0, 10, 10, 0.9), sb(0, 4, 10, 14, 0.8)]],
            [[bb(2, 0, 12, 10), bb(0, 1, 10, 11)]],
        ),
        2,
        1,
    )
    # frames with no detections and frames with no ground truth, on both
    # sides of a block boundary
    @example(
        (
            [[], [sb(0, 0, 10, 10, 0.7)], [], [sb(20, 20, 30, 30, 0.9)], [], [sb(0, 0, 10, 10, 0.7)]],
            [[bb(0, 0, 10, 10)], [], [], [bb(20, 20, 30, 30)], [bb(40, 40, 50, 50)], []],
        ),
        2,
        3,
    )
    def test_matches_per_threshold_oracle(self, dataset, block, split):
        # blocks of 2-3 frames, so that sequences cross block boundaries,
        # and the dataset cut into two sequences at `split`
        dets, gts = dataset
        annotations = [[GroundTruthBox(g, f"p{i}") for i, g in enumerate(f)] for f in gts]
        with mock.patch.object(evaluation, "BLOCK_FRAMES", block):
            rep = evaluate_sequences(
                [(dets[:split], annotations[:split]), (dets[split:], annotations[split:])]
            )
        per_frame = [_naive_match(d, g, IOU_CUT) for d, g in zip(dets, gts)]
        tp = sum(t for t, _ in per_frame)
        n_gts = sum(len(g) for g in gts)
        assert (rep.tp, rep.fp, rep.fn) == (tp, sum(f for _, f in per_frame), n_gts - tp)
        assert rep.tn == sum(1 for d, g in zip(dets, gts) if not d and not g)
        if n_gts == 0:
            assert rep.map is None
        else:
            assert rep.map == naive_average_precision(dets, gts)


def _random_dataset(r, n_frames):
    dets, gts = [], []
    for _ in range(n_frames):
        frame_gts = [
            bb(float(x), float(y), float(x + 10), float(y + 10))
            for x, y in r.integers(0, 60, size=(int(r.integers(0, 3)), 2))
        ]
        frame_dets = []
        for g in frame_gts:
            if r.random() < 0.7:
                dx, dy = r.uniform(-3, 3, size=2)
                frame_dets.append(
                    sb(
                        max(g.x_min + dx, 0.0),
                        max(g.y_min + dy, 0.0),
                        max(g.x_max + dx, g.x_min + dx + 1),
                        max(g.y_max + dy, g.y_min + dy + 1),
                        round(float(r.random()), 2),
                    )
                )
        for _ in range(int(r.integers(0, 3))):
            x, y = r.integers(0, 80, size=2)
            frame_dets.append(sb(float(x), float(y), float(x + 8), float(y + 8), round(float(r.random()), 2)))
        dets.append(frame_dets)
        gts.append(frame_gts)
    return dets, gts


class TestPdr:
    def test_all_detected(self):
        assert pdr({"a": True, "b": True}) == 100.0

    def test_fourteen_of_fifteen(self):
        flags = {f"p{i}": i != 7 for i in range(15)}
        assert pdr(flags) == pytest.approx(93.33, abs=0.005)

    def test_zero_detected(self):
        assert pdr({"a": False, "b": False}) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            pdr({})


class TestEvaluateSequences:
    def _seq(self, frame_specs):
        dets, gts = [], []
        for i, (det_boxes, gt_boxes) in enumerate(frame_specs):
            meta = FrameMeta(200, 200, i)
            dets.append(FrameDetections(meta, tuple(det_boxes)))
            gts.append(gt_boxes)
        return dets, gts

    def test_pdr_and_counts(self):
        gt_a = GroundTruthBox(bb(10, 10, 30, 30), "a")
        gt_b = GroundTruthBox(bb(60, 60, 90, 90), "b")
        seq = self._seq(
            [
                ([sb(10, 10, 30, 30, 0.9)], [gt_a]),
                ([], [gt_a]),
                ([sb(100, 100, 120, 120, 0.8)], [gt_b]),
                ([], []),
            ]
        )
        rep = evaluate_sequences([seq])
        assert (rep.tp, rep.fp, rep.fn, rep.tn) == (1, 1, 2, 1)
        assert rep.pdr == 50.0
        assert rep.n_frames == 4
        assert rep.n_negative_frames == 1

    def test_frame_order_invariance(self):
        gt = GroundTruthBox(bb(10, 10, 30, 30), "a")
        frames = [
            ([sb(10, 10, 30, 30, 0.9)], [gt]),
            ([sb(50, 50, 70, 70, 0.4)], []),
            ([], [gt]),
        ]
        rep_fwd = evaluate_sequences([self._seq(frames)])
        rep_rev = evaluate_sequences([self._seq(frames[::-1])])
        for field in ("tp", "fp", "fn", "tn", "sen", "pre", "mnfp", "map", "pdr"):
            assert getattr(rep_fwd, field) == getattr(rep_rev, field)

    def test_length_mismatch_rejected(self):
        dets, gts = self._seq([([], [])])
        with pytest.raises(InputError):
            evaluate_sequences([(dets, gts + [[]])])

    def test_each_frame_matched_once(self, monkeypatch):
        # the precision/recall pool reuses the counting pass's marks
        gt = GroundTruthBox(bb(10, 10, 30, 30), "a")
        frames = [
            ([sb(10, 10, 30, 30, 0.9), sb(12, 12, 30, 30, 0.7)], [gt]),
            ([sb(50, 50, 70, 70, 0.4)], []),
            ([sb(11, 11, 31, 31, 0.6)], [gt]),
        ]
        matched = []
        real = evaluation._match_block

        def counted(dets, gts):
            matched.extend(dets)
            return real(dets, gts)

        monkeypatch.setattr(evaluation, "_match_block", counted)
        monkeypatch.setattr(evaluation, "BLOCK_FRAMES", 2)
        rep = evaluate_sequences([self._seq(frames)])
        assert matched == [tuple(d) for d, _ in frames]
        monkeypatch.undo()
        dets = [d for d, _ in frames]
        gts = [[bb(10, 10, 30, 30)] if g else [] for _, g in frames]
        assert rep.map == pytest.approx(naive_average_precision(dets, gts), abs=1e-12)
