import math

import pytest
from hypothesis import given, strategies as st

from polypstream.geometry import (
    BoundingBox,
    FrameMeta,
    ScoredBox,
    adaptive_iou_threshold,
    clip_box,
    iou,
)


def box(x0, y0, x1, y1):
    return BoundingBox(x0, y0, x1, y1)


@st.composite
def boxes(draw, lo=0.0, hi=1000.0):
    x0 = draw(st.floats(lo, hi - 2))
    y0 = draw(st.floats(lo, hi - 2))
    w = draw(st.floats(0.5, hi - x0))
    h = draw(st.floats(0.5, hi - y0))
    return BoundingBox(x0, y0, x0 + w, y0 + h)


class TestBoundingBox:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            box(10, 0, 5, 10)
        with pytest.raises(ValueError):
            box(0, 10, 10, 5)

    def test_rejects_zero_area(self):
        with pytest.raises(ValueError):
            box(5, 5, 5, 10)
        with pytest.raises(ValueError, match="underflows"):
            box(0, 0, 1e-200, 1e-200)

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            box(-1, 0, 10, 10)
        with pytest.raises(ValueError):
            box(0, 0, math.inf, 10)
        with pytest.raises(ValueError):
            box(0, 0, math.nan, 10)

    def test_area(self):
        assert box(1, 2, 4, 6).area == 12


class TestScoredBox:
    def test_confidence_range(self):
        b = box(0, 0, 1, 1)
        ScoredBox(b, 0.0)
        ScoredBox(b, 1.0)
        with pytest.raises(ValueError):
            ScoredBox(b, 1.5)
        with pytest.raises(ValueError):
            ScoredBox(b, -0.1)


class TestIou:
    def test_identity(self):
        b = box(3, 4, 10, 20)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 10, 10), box(20, 20, 30, 30)) == 0.0

    def test_touching_edges_are_disjoint(self):
        assert iou(box(0, 0, 10, 10), box(10, 0, 20, 10)) == 0.0

    def test_half_overlap(self):
        # intersection 50, union 150
        assert iou(box(0, 0, 10, 10), box(5, 0, 15, 10)) == pytest.approx(1 / 3)

    @given(boxes(), boxes())
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(boxes())
    def test_one_iff_identical(self, a):
        assert iou(a, a) == 1.0
        shifted = BoundingBox(a.x_min + 1, a.y_min, a.x_max + 1, a.y_max)
        assert iou(a, shifted) < 1.0

    @given(boxes(), boxes(), st.floats(0.1, 10.0))
    def test_scale_invariance(self, a, b, s):
        def scale(bx):
            return BoundingBox(bx.x_min * s, bx.y_min * s, bx.x_max * s, bx.y_max * s)

        assert iou(scale(a), scale(b)) == pytest.approx(iou(a, b), abs=1e-9)


class TestAdaptiveThreshold:
    def test_hand_arithmetic(self):
        meta = FrameMeta(1280, 1080, 0)
        t = adaptive_iou_threshold(box(100, 100, 228, 228), meta)
        assert t == pytest.approx(0.5 * (128 / 1280 + 128 / 1080), abs=1e-12)
        assert t == pytest.approx(0.109259, abs=1e-6)

    def test_full_frame_box(self):
        meta = FrameMeta(640, 480, 0)
        assert adaptive_iou_threshold(box(0, 0, 640, 480), meta) == 1.0

    def test_tenth_of_frame(self):
        meta = FrameMeta(1000, 500, 0)
        assert adaptive_iou_threshold(box(0, 0, 100, 50), meta) == pytest.approx(0.1)

    @given(boxes(hi=500.0), st.floats(1.1, 4.0))
    def test_monotone_in_box_size(self, b, grow):
        meta = FrameMeta(2000, 2000, 0)
        bigger = BoundingBox(b.x_min, b.y_min, b.x_min + b.width * grow, b.y_min + b.height * grow)
        assert adaptive_iou_threshold(bigger, meta) > adaptive_iou_threshold(b, meta)

    @given(boxes(hi=500.0), st.integers(2, 5))
    def test_joint_scaling_invariance(self, b, s):
        meta = FrameMeta(1000, 800, 0)
        scaled_meta = FrameMeta(1000 * s, 800 * s, 0)
        scaled_box = BoundingBox(b.x_min * s, b.y_min * s, b.x_max * s, b.y_max * s)
        assert adaptive_iou_threshold(scaled_box, scaled_meta) == pytest.approx(
            adaptive_iou_threshold(b, meta), abs=1e-12
        )


class TestClip:
    def test_inside_untouched(self):
        b = box(1, 1, 5, 5)
        assert clip_box(b, 10, 10) == b

    def test_partial_clip(self):
        assert clip_box(box(5, 5, 20, 20), 10, 10).as_tuple() == (5, 5, 10, 10)

    def test_fully_outside(self):
        assert clip_box(box(20, 20, 30, 30), 10, 10) is None


class TestFrameDetections:
    def test_nb_tracks_length(self):
        from polypstream.geometry import FrameDetections

        meta = FrameMeta(100, 100, 0)
        d = FrameDetections(meta, (ScoredBox(box(0, 0, 10, 10), 0.5),))
        assert len(d.boxes) == 1

    def test_rejects_out_of_frame(self):
        from polypstream.geometry import FrameDetections

        meta = FrameMeta(100, 100, 0)
        with pytest.raises(ValueError):
            FrameDetections(meta, (ScoredBox(box(0, 0, 150, 10), 0.5),))
