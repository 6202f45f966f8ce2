import gc
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polypstream import correlator, kernels
from polypstream.correlator import (
    CorrelationWindow,
    FrameOverlaps,
    IscuConfig,
    StreamCorrelator,
    correct_missed,
    eliminate_noise,
    process_sequence,
    sweep_sequence,
)
from polypstream.config import derive_sweep_config
from polypstream.errors import InputError, SequencingError
from polypstream.geometry import (
    BoundingBox,
    BoxOrigin,
    FrameDetections,
    FrameMeta,
    ScoredBox,
    box_columns,
    iou,
    iou_matrix,
    iou_pairs,
)
from polypstream.similarity import GrayFrame, SsimParams, ssim
from polypstream.synthetic import (
    ConfidenceModel,
    ScenarioConfig,
    TrackSpec,
    generate_scenario,
)

from oracles import naive_filter_sequence

W, H = 64, 48


def flat_frame(value=100):
    return GrayFrame.from_array(np.full((H, W), value, dtype=np.uint8))


def noise_frame(seed):
    r = np.random.default_rng(seed)
    return GrayFrame.from_array(r.integers(0, 256, size=(H, W), dtype=np.uint8))


def dets(index, *boxes, conf=0.9):
    meta = FrameMeta(W, H, index)
    return FrameDetections(
        meta, tuple(ScoredBox(BoundingBox(*b), conf, BoxOrigin.DETECTOR) for b in boxes)
    )


def window_of(det_list, center, similarity=None):
    # 1.0 is what identical flat frames score against each other
    similarity = similarity or (1.0,) * len(det_list)
    return CorrelationWindow(tuple(det_list), center, tuple(similarity))


def noise_similarity(center, n=7):
    """Measured similarity of noise frames 0..n-1 to noise frame `center`."""
    return [ssim(noise_frame(center), noise_frame(i)) for i in range(n)]


def small_cfg(**kw):
    kw.setdefault("ssim_params", SsimParams(downsample_w=W, downsample_h=H))
    return IscuConfig(**kw)


class TestConfig:
    def test_defaults(self):
        cfg = IscuConfig()
        assert cfg.half_window == 3
        assert cfg.similarity_threshold == 0.85
        assert cfg.confidence_gate == 0.3
        assert cfg.fc_quorum == 3
        assert cfg.fill_quorum == 3
        assert cfg.fill_iou == 0.5

    def test_quorum_bounds(self):
        with pytest.raises(ValueError):
            IscuConfig(half_window=1, fc_quorum=3)
        with pytest.raises(ValueError):
            IscuConfig(half_window=1, fill_quorum=3)
        with pytest.raises(ValueError):
            IscuConfig(half_window=0)


@st.composite
def corner_box(draw, size=12):
    """Corners on a coarse grid with fractional offsets, so that boxes often
    touch, nest, coincide or overlap by exactly representable amounts."""
    x0 = draw(st.integers(0, size - 1)) + draw(st.sampled_from((0.0, 0.25, 0.5, 1 / 3)))
    y0 = draw(st.integers(0, size - 1)) + draw(st.sampled_from((0.0, 0.25, 0.5, 1 / 3)))
    w = draw(st.integers(1, size)) - draw(st.sampled_from((0.0, 0.5, 0.9)))
    h = draw(st.integers(1, size)) - draw(st.sampled_from((0.0, 0.5, 0.9)))
    return BoundingBox(x0, y0, x0 + w, y0 + h)


class TestIouMatrix:
    @given(st.lists(corner_box(), max_size=6), st.lists(corner_box(), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_scalar_iou(self, a, b):
        matrix = iou_matrix(box_columns(a), box_columns(b)).tolist()
        assert matrix == [[iou(x, y) for y in b] for x in a]
        # the paired form over aligned columns, as the evaluator calls it
        aligned = [b[i % len(b)] for i in range(len(a))]
        pairs = iou_pairs(box_columns(a), box_columns(aligned)).tolist()
        assert pairs == [iou(x, y) for x, y in zip(a, aligned)]
        assert box_columns(a)[4].tolist() == [x.area for x in a]


def reference_links(frames, h):
    """Each box's links by a triple loop over scalar ``iou``: every box of
    every other frame at most ``2*h`` positions away with IoU > 0, in frame
    then box order, scored earlier frame first as the stream scores it."""
    out = []
    for k, frame in enumerate(frames):
        per_box = []
        for sb in frame.boxes:
            links = []
            for m in range(max(0, k - 2 * h), min(len(frames), k + 2 * h + 1)):
                if m == k:
                    continue
                for i, other in enumerate(frames[m].boxes):
                    v = iou(other.box, sb.box) if m < k else iou(sb.box, other.box)
                    if v > 0.0:
                        links.append((frames[m].meta.frame_index, i, v))
            per_box.append(links)
        out.append(per_box)
    return out


def stream_links(det_list, h):
    """The gated frames a stream at half window ``h`` buffers, and their
    links once every frame is pushed."""
    c = StreamCorrelator(small_cfg(half_window=h, fc_quorum=1, fill_quorum=1))
    gated, facts = [], []
    for d in det_list:
        c.push_frame(flat_frame(), d)
        gated.append(c._buffer[-1][0])
        facts.append(c._buffer[-1][2])
    return gated, [f.links for f in facts]


def assert_links_match_reference(det_list, h):
    gated, links = stream_links(det_list, h)
    assert links == reference_links(gated, h)
    for f, i, v in (link for frame in links for box in frame for link in box):
        assert (type(f), type(i), type(v)) == (int, int, float)


@st.composite
def linked_frames(draw):
    """(half window, frames): up to 4 boxes per frame, a third of them below
    the confidence gate, over up to two windows and a few frames more, with
    gaps in the frame indices."""
    h = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4 * h + 3))
    gaps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    frames = []
    for index in np.cumsum(gaps).tolist():
        box_conf = st.tuples(corner_box(), st.sampled_from((0.2, 0.9, 0.9)))
        scored = draw(st.lists(box_conf, max_size=4))
        meta = FrameMeta(W, H, index)
        frames.append(FrameDetections(meta, tuple(ScoredBox(b, c) for b, c in scored)))
    return h, frames


class TestLinks:
    @given(linked_frames())
    @settings(max_examples=150, deadline=None)
    def test_match_triple_loop_over_scalar_iou(self, case):
        assert_links_match_reference(case[1], case[0])

    def test_crafted_frames_match_triple_loop(self):
        touching = [(0, 0, 10, 10), (10, 0, 20, 10), (0, 10, 10, 20)]
        same = (4, 4, 14, 14)
        det_list = [
            dets(0, *touching),
            dets(1, same, touching[0]),
            dets(2, same, same),
            dets(3, same, touching[1], conf=0.2),  # no gated boxes
            dets(4, (5, 5, 15, 15), *touching),
            *(dets(i, same, (9, 0, 19, 10)) for i in range(5, 12)),
        ]
        for h in (1, 2, 3):
            gated, links = stream_links(det_list, h)
            assert not gated[3].boxes
            # edge-touching boxes score IoU 0 and identical ones 1
            assert all(v != 0.0 for frame in links for box in frame for _, _, v in box)
            assert (1, 0, 1.0) in links[2][0] and (1, 0, 1.0) in links[2][1]
            assert_links_match_reference(det_list, h)

    def test_signed_zeros_are_not_links(self, monkeypatch):
        # disjoint and touching boxes as -0.0 in the matrix are skipped
        def signed_zeros(a, b):
            m = iou_matrix(a, b)
            return np.where(m == 0.0, -0.0, m)

        monkeypatch.setattr(correlator, "iou_matrix", signed_zeros)
        det_list = [dets(i, (0, 0, 10, 10), (10, 0, 20, 10), (30, 30, 40, 40)) for i in range(6)]
        assert_links_match_reference(det_list, 2)

    def test_hand_built_window_links_equal_stream_links(self):
        # a window built by hand derives its facts with the stream's own
        # _link, so they are the stream's restricted to the window's frames
        h = 2
        sc = tiny_scenario(8, n_frames=20)
        c = StreamCorrelator(small_cfg(half_window=h))
        gated, facts = [], []
        for frame, d in zip(sc.frames, sc.raw_detections):
            c.push_frame(frame, d)
            gated.append(c._buffer[-1][0])
            facts.append(c._buffer[-1][2])
        assert any(links for f in facts for links in f.links)
        for lo in range(len(gated) - 2 * h):
            frames = gated[lo : lo + 2 * h + 1]
            window = CorrelationWindow(tuple(frames), h, (1.0,) * len(frames))
            ids = {f.meta.frame_index for f in frames}
            for derived, streamed in zip(window.overlaps, facts[lo : lo + 2 * h + 1]):
                assert derived.thresholds == streamed.thresholds
                assert derived.links == [
                    [link for link in links if link[0] in ids] for links in streamed.links
                ]


class TestWindowType:
    def test_monotone_indices_required(self):
        d0, d1 = dets(0), dets(0)
        with pytest.raises(ValueError):
            window_of([d0, d1], 0)

    def test_center_in_range(self):
        with pytest.raises(ValueError):
            window_of([dets(0)], 1)

    def test_similarity_length_must_match(self):
        with pytest.raises(ValueError):
            window_of([dets(0), dets(1)], 0, similarity=(1.0,))

    def test_overlaps_length_must_match(self):
        frames = (dets(0), dets(1))
        with pytest.raises(ValueError, match="1 overlap facts for 2 frames"):
            CorrelationWindow(frames, 0, (1.0, 1.0), (FrameOverlaps(frames[0]),))


class TestEliminateNoise:
    def test_box_present_everywhere_is_kept(self):
        box = (10, 10, 20, 20)
        window = window_of([dets(i, box) for i in range(7)], 3)
        kept = eliminate_noise(window, small_cfg())
        assert len(kept) == 1

    def test_transient_center_box_removed(self):
        # similar neighbors (identical frames) with no overlapping boxes
        det_list = [dets(i) for i in range(7)]
        det_list[3] = dets(3, (10, 10, 20, 20))
        window = window_of(det_list, 3)
        assert eliminate_noise(window, small_cfg()) == ()

    def test_fc_fallback_three_of_six_kept(self):
        # all neighbors dissimilar (noise frames) -> fixed quorum applies
        box = (10, 10, 20, 20)
        det_list = [dets(0, box), dets(1, box), dets(2, box), dets(3, box), dets(4), dets(5), dets(6)]
        window = window_of(det_list, 3, noise_similarity(3))
        kept = eliminate_noise(window, small_cfg())
        assert len(kept) == 1  # overlap in exactly 3 of 6 neighbors

    def test_fc_fallback_two_of_six_removed(self):
        box = (10, 10, 20, 20)
        det_list = [dets(0, box), dets(1, box), dets(2), dets(3, box), dets(4), dets(5), dets(6)]
        window = window_of(det_list, 3, noise_similarity(3))
        assert eliminate_noise(window, small_cfg()) == ()

    def test_majority_is_strict(self):
        # m = 6 similar, support in exactly 3 -> 3 > 3 fails
        box = (10, 10, 20, 20)
        det_list = [dets(0, box), dets(1, box), dets(2, box), dets(3, box), dets(4), dets(5), dets(6)]
        window = window_of(det_list, 3)
        assert eliminate_noise(window, small_cfg()) == ()
        # support in 4 of 6 -> kept
        det_list[4] = dets(4, box)
        window = window_of(det_list, 3)
        assert len(eliminate_noise(window, small_cfg())) == 1

    def test_similarity_gate_is_strict(self):
        # identical frames score exactly 1.0, which does not pass a gate of
        # 1.0: no neighbor is similar, so the fixed quorum keeps 3 of 6
        box = (10, 10, 20, 20)
        det_list = [dets(0, box), dets(1, box), dets(2, box), dets(3, box), dets(4), dets(5), dets(6)]
        window = window_of(det_list, 3)
        assert len(eliminate_noise(window, small_cfg(similarity_threshold=1.0))) == 1
        with pytest.raises(ValueError):
            IscuConfig(similarity_threshold=0.0)

    def test_no_neighbors_passthrough(self):
        window = window_of([dets(0, (10, 10, 20, 20))], 0)
        assert len(eliminate_noise(window, small_cfg())) == 1

    def test_order_preserved(self):
        a, b = (5, 5, 15, 15), (30, 30, 44, 44)
        det_list = [dets(i, a, b) for i in range(7)]
        kept = eliminate_noise(window_of(det_list, 3), small_cfg())
        assert [k.box.x_min for k in kept] == [5, 30]


class TestCorrectMissed:
    def test_mean_of_cluster(self):
        # boxes drift 2 px/frame; pairwise IoUs (0.47, 0.22) sit below the
        # default gate, so cluster with a permissive fill threshold
        cfg = small_cfg(fill_iou=0.2)
        det_list = [
            dets(0),
            dets(1),
            dets(2, (10, 10, 20, 20)),
            dets(3),  # center: nothing detected
            dets(4, (12, 12, 22, 22)),
            dets(5, (14, 14, 24, 24)),
            dets(6),
        ]
        added = correct_missed(window_of(det_list, 3), cfg)
        assert len(added) == 1
        assert added[0].box.as_tuple() == (12, 12, 22, 22)
        assert added[0].origin is BoxOrigin.INTERPOLATED
        assert added[0].confidence == pytest.approx(0.9)

    def test_blocked_by_existing_center_box(self):
        cfg = small_cfg(fill_iou=0.2)
        det_list = [
            dets(0),
            dets(1),
            dets(2, (10, 10, 20, 20)),
            dets(3, (12, 12, 22, 22)),  # already present
            dets(4, (12, 12, 22, 22)),
            dets(5, (14, 14, 24, 24)),
            dets(6),
        ]
        assert correct_missed(window_of(det_list, 3), cfg) == ()

    def test_requires_both_sides(self):
        cfg = small_cfg(fill_iou=0.2)
        det_list = [
            dets(0, (10, 10, 20, 20)),
            dets(1, (11, 11, 21, 21)),
            dets(2, (12, 12, 22, 22)),
            dets(3),
            dets(4),
            dets(5),
            dets(6),
        ]
        assert correct_missed(window_of(det_list, 3), cfg) == ()

    def test_exact_mean_and_quorum(self):
        box_at = lambda t: (10.0 + t, 18.0 + t, 40.0 + t, 40.0 + t)
        det_list = [dets(i, box_at(i)) if i != 3 else dets(3) for i in range(7)]
        added = correct_missed(window_of(det_list, 3), small_cfg())
        assert len(added) == 1
        xs = [box_at(i) for i in (0, 1, 2, 4, 5, 6)]
        expect = tuple(sum(b[k] for b in xs) / 6 for k in range(4))
        assert added[0].box.as_tuple() == expect

    def test_each_box_claimed_once(self):
        # two dropped tracks share no boxes; both restored independently
        a = lambda t: (5.0 + t, 5.0, 15.0 + t, 15.0)
        b = lambda t: (40.0, 25.0 + t, 54.0, 39.0 + t)
        det_list = [dets(i, a(i), b(i)) if i != 3 else dets(3) for i in range(7)]
        added = correct_missed(window_of(det_list, 3), small_cfg())
        assert len(added) == 2


def cut(window, h):
    """``window`` cut down to the frames at most ``h`` positions from its
    center, with overlap facts derived from those frames alone."""
    lo, hi = max(0, window.center - h), window.center + h + 1
    return CorrelationWindow(
        window.frames[lo:hi], window.center - lo, window.similarity[lo:hi]
    )


@st.composite
def wide_window(draw):
    """A hand-built window over ``linked_frames``' frames: any center, and
    similarities on both sides of the default gate."""
    _, frames = draw(linked_frames())
    n = len(frames)
    center = draw(st.integers(0, n - 1))
    similarity = draw(
        st.lists(st.sampled_from((0.0, 0.5, 0.85, 0.9, 1.0)), min_size=n, max_size=n)
    )
    return CorrelationWindow(tuple(frames), center, tuple(similarity))


class TestPassesReadTheirOwnHalfWindow:
    """A window wider than ``2*half_window + 1`` gives the result of the
    same frames cut to it, as the stream cuts them."""

    def test_fixed_quorum_ignores_frames_beyond_half_window(self):
        # fixed quorum of 2 at half window 1: the neighbors 2 and 4 hold no
        # box, while frames 0, 1, 5 and 6 beyond them do
        box = (10, 10, 20, 20)
        det_list = [dets(i) if i in (2, 4) else dets(i, box) for i in range(7)]
        window = window_of(det_list, 3, [0.0] * 7)
        cfg = small_cfg(half_window=1, fc_quorum=2, fill_quorum=2)
        assert eliminate_noise(window, cfg) == eliminate_noise(cut(window, 1), cfg) == ()

    def test_fill_ignores_frames_beyond_half_window(self):
        # at half window 1 the track is only in frame 4, below the fill
        # quorum of 2; frames 0, 1, 5 and 6 would complete it
        box = (10, 10, 20, 20)
        det_list = [dets(i) if i in (2, 3) else dets(i, box) for i in range(7)]
        window = window_of(det_list, 3)
        cfg = small_cfg(half_window=1, fc_quorum=2, fill_quorum=2)
        assert correct_missed(window, cfg) == correct_missed(cut(window, 1), cfg) == ()

    @given(wide_window(), st.sampled_from((0.0, 0.2, 0.5)))
    @settings(max_examples=150, deadline=None)
    def test_wide_window_equals_cut(self, window, fill_iou):
        for h in (1, 2, 3):
            cfg = derive_sweep_config(small_cfg(fill_iou=fill_iou), h)
            narrow = cut(window, h)
            assert eliminate_noise(window, cfg) == eliminate_noise(narrow, cfg)
            assert correct_missed(window, cfg) == correct_missed(narrow, cfg)


def tiny_scenario(seed, n_frames=40, size=(W, H), **overrides):
    track = TrackSpec(
        start=BoundingBox(8.0, 8.0, 24.0, 24.0),
        velocity=(0.4, 0.2),
        wobble_amplitude=(1.5, 1.0),
        wobble_period=(13.0, 17.0),
    )
    cfg = ScenarioConfig(
        frame_w=size[0],
        frame_h=size[1],
        n_frames=n_frames,
        rng_seed=seed,
        tracks=(track,),
        transient_fp_rate=0.3,
        fp_lifetime=2,
        tp_dropout_rate=0.08,
        scene_break_frames=frozenset({17}),
        confidence=ConfidenceModel(0.8, 0.5, 0.08),
        coord_jitter_frac=0.01,
        **overrides,
    )
    return generate_scenario(cfg)


def scenario_cfg():
    return IscuConfig(ssim_params=SsimParams(downsample_w=W, downsample_h=H))


class TestStreaming:
    def test_latency_contract(self):
        c = StreamCorrelator(small_cfg())
        emitted = []
        for i in range(4):
            out = c.push_frame(flat_frame(), dets(i, (10, 10, 20, 20)))
            if out is not None:
                emitted.append(out)
        assert len(emitted) == 1
        assert emitted[0].meta.frame_index == 0

    def test_single_frame_flush_passthrough(self):
        c = StreamCorrelator(small_cfg())
        assert c.push_frame(flat_frame(), dets(0, (10, 10, 20, 20))) is None
        tail = c.flush()
        assert len(tail) == 1
        assert len(tail[0].kept) == 1
        assert tail[0].added == ()

    def test_confidence_gate_strict(self):
        c = StreamCorrelator(small_cfg())
        d = dets(0, (10, 10, 20, 20), conf=0.3)  # not > 0.3
        c.push_frame(flat_frame(), d)
        out = c.flush()
        assert out[0].kept == ()
        assert out[0].removed_count == 0  # gated out, not eliminated

    def test_non_monotonic_index_rejected(self):
        c = StreamCorrelator(small_cfg())
        c.push_frame(flat_frame(), dets(5))
        with pytest.raises(SequencingError):
            c.push_frame(flat_frame(), dets(5))

    @pytest.mark.parametrize("n", [1, 5])
    def test_push_after_flush_checked_against_last_frame(self, n):
        # the buffer keeps the frames before the next center after a flush,
        # so the order and size checks still see the last pushed frame
        c = StreamCorrelator(small_cfg())
        out = [c.push_frame(flat_frame(), dets(i)) for i in range(n)]
        assert len([r for r in out if r is not None] + c.flush()) == n
        last = n - 1
        with pytest.raises(SequencingError, match=f"^frame index {last} not after {last}$"):
            c.push_frame(flat_frame(), dets(last))
        other = GrayFrame.from_array(np.zeros((H, W + 2), dtype=np.uint8))
        changed = f"frame dimensions changed mid-stream: {(W, H)} -> {(W + 2, H)}"
        with pytest.raises(InputError, match=f"^{re.escape(changed)}$"):
            c.push_frame(other, FrameDetections(FrameMeta(W + 2, H, n), ()))
        assert c.push_frame(flat_frame(), dets(n)) is None
        assert [r.meta.frame_index for r in c.flush()] == [n]

    def test_rejected_index_leaves_no_state(self):
        frames = [noise_frame(i) for i in range(8)]
        clean = process_sequence(frames, [dets(i, (10, 10, 20, 20)) for i in range(8)], small_cfg())
        c = StreamCorrelator(small_cfg())
        out = []
        for i, f in enumerate(frames):
            if i == 4:
                with pytest.raises(SequencingError):
                    c.push_frame(noise_frame(99), dets(3))
            out.append(c.push_frame(f, dets(i, (10, 10, 20, 20))))
        assert [r for r in out if r is not None] + c.flush() == clean

    def test_dimension_change_rejected(self):
        c = StreamCorrelator(small_cfg())
        c.push_frame(flat_frame(), dets(0))
        other = GrayFrame.from_array(np.zeros((H, W + 2), dtype=np.uint8))
        with pytest.raises(InputError):
            c.push_frame(other, FrameDetections(FrameMeta(W + 2, H, 1), ()))

    def test_frame_vs_meta_mismatch_rejected(self):
        c = StreamCorrelator(small_cfg())
        with pytest.raises(InputError):
            c.push_frame(flat_frame(), FrameDetections(FrameMeta(W + 1, H, 0), ()))

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            process_sequence([flat_frame()], [], small_cfg())

    def test_empty_sequence(self):
        assert process_sequence([], [], small_cfg()) == []

    def test_each_pair_similarity_computed_once(self, monkeypatch):
        # every frame pair at distance <= half_window is scored exactly once,
        # earlier frame first, as the later frame is pushed
        h, n = 3, 20
        lumas, pairs = [], []  # prepared luma in push order; scored pairs
        prepare, score = correlator.prepare_luma, correlator.ssim

        def counted_prepare(frame, p):
            lumas.append(prepare(frame, p))
            return lumas[-1]

        def counted_ssim(x, y):
            ids = [id(luma) for luma in lumas]
            pairs.append((ids.index(id(x)), ids.index(id(y))))
            return score(x, y)

        monkeypatch.setattr(correlator, "prepare_luma", counted_prepare)
        monkeypatch.setattr(correlator, "ssim", counted_ssim)
        frames = [noise_frame(i) for i in range(n)]
        process_sequence(frames, [dets(i) for i in range(n)], small_cfg(half_window=h))
        assert len(pairs) == (n - 1) + (n - 2) + (n - 3)
        assert pairs == [(a, b) for b in range(n) for a in range(max(0, b - h), b)]

    def test_static_scene_is_fixed_point(self):
        frames = [flat_frame()] * 12
        det_list = [dets(i, (10, 10, 30, 30)) for i in range(12)]
        out = process_sequence(frames, det_list, small_cfg())
        assert all(len(r.kept) == 1 and r.added == () and r.removed_count == 0 for r in out)


# Adversarial differential cases: 8x6 frames, already at comparison size.
AW, AH = 8, 6
# Boxes on the decision boundaries of both passes.
FILL_EDGE = ((0, 0, 1, 1), (0, 0, 2, 1))  # IoU exactly 0.5 = fill_iou: no claim
TIE_SEED, TIE_A, TIE_B = (1, 1, 4, 4), (0, 1, 4, 4), (1, 1, 5, 4)  # both 0.75 to the seed
ON_EDGE = (AW - 3, AH - 2, AW, AH)
FRAME_SIZED = (0, 0, AW, AH)  # threshold 1.0: never supported
SUB_PIXEL = (1, 1, 1 + 1e-5, 1 + 1e-5)  # area 1e-10
BOUNDARY_BOXES = (*FILL_EDGE, TIE_SEED, TIE_A, TIE_B, ON_EDGE, FRAME_SIZED, SUB_PIXEL)


def scene_frame(scene):
    """Frames of one scene are identical; frames of different scenes are
    dissimilar noise, which breaks the scene."""
    r = np.random.default_rng(scene)
    return GrayFrame.from_array(r.integers(0, 256, size=(AH, AW), dtype=np.uint8))


@st.composite
def integer_box(draw):
    x0, y0 = draw(st.integers(0, AW - 1)), draw(st.integers(0, AH - 1))
    return (x0, y0, draw(st.integers(x0 + 1, AW)), draw(st.integers(y0 + 1, AH)))


@st.composite
def adversarial_sequence(draw):
    """(half window, scene per frame, boxes per frame), from 0 frames up to
    a few more than one window."""
    h = draw(st.integers(1, 4))
    n = draw(st.integers(0, 2 * h + 3))
    scenes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    box = st.one_of(st.sampled_from(BOUNDARY_BOXES), integer_box())
    boxes = draw(st.lists(st.lists(box, max_size=4), min_size=n, max_size=n))
    return h, scenes, boxes


def _adversarial_case(h, scenes, boxes):
    frames = [scene_frame(s) for s in scenes]
    det_list = [
        FrameDetections(
            FrameMeta(AW, AH, i),
            tuple(ScoredBox(BoundingBox(*b), 0.9, BoxOrigin.DETECTOR) for b in frame_boxes),
        )
        for i, frame_boxes in enumerate(boxes)
    ]
    return frames, det_list, derive_sweep_config(IscuConfig(), h)


def _with_gap(box, center, n):
    """`box` in every frame but `center`."""
    return [[] if i == center else [box] for i in range(n)]


class TestStreamBatchOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_three_way_equivalence(self, seed):
        sc = tiny_scenario(seed)
        frames, det_list = list(sc.frames), list(sc.raw_detections)
        cfg = scenario_cfg()

        batch = process_sequence(frames, det_list, cfg)

        c = StreamCorrelator(cfg)
        streamed = []
        for f, d in zip(frames, det_list):
            out = c.push_frame(f, d)
            if out is not None:
                streamed.append(out)
        streamed.extend(c.flush())

        naive = naive_filter_sequence(frames, det_list, cfg)

        assert streamed == batch == naive

    @pytest.mark.parametrize(
        "size, path",
        [((64, 48), "divisible"), ((80, 60), "short-period"), ((67, 53), "long-period")],
    )
    def test_three_way_equivalence_resampled(self, size, path):
        # frames above the 32x24 comparison size, so every frame is
        # downsampled: the library's kernel against the oracle's dense one,
        # on each downsample path
        period = max(t // math.gcd(s, t) for s, t in zip(size, (32, 24)))
        assert path == (
            "divisible" if period == 1
            else "short-period" if period <= kernels._MATMUL_PERIOD
            else "long-period"
        )
        sc = tiny_scenario(3, size=size)
        frames, det_list = list(sc.frames), list(sc.raw_detections)
        cfg = IscuConfig(ssim_params=SsimParams(downsample_w=32, downsample_h=24))

        batch = process_sequence(frames, det_list, cfg)
        c = StreamCorrelator(cfg)
        streamed = []
        for f, d in zip(frames, det_list):
            out = c.push_frame(f, d)
            if out is not None:
                streamed.append(out)
        streamed.extend(c.flush())

        assert streamed == batch == naive_filter_sequence(frames, det_list, cfg)

    def test_deterministic(self):
        sc = tiny_scenario(7)
        cfg = scenario_cfg()
        a = process_sequence(list(sc.frames), list(sc.raw_detections), cfg)
        b = process_sequence(list(sc.frames), list(sc.raw_detections), cfg)
        assert a == b

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_equivalence_property(self, seed):
        sc = tiny_scenario(seed, n_frames=25)
        frames, det_list = list(sc.frames), list(sc.raw_detections)
        cfg = scenario_cfg()
        batch = process_sequence(frames, det_list, cfg)
        naive = naive_filter_sequence(frames, det_list, cfg)
        assert batch == naive

    @given(adversarial_sequence())
    @settings(max_examples=200, deadline=None)
    @example((2, [0] * 7, [[(2, 1, 6, 5)]] * 7))  # identical boxes in every frame
    # IoU exactly at fill_iou, between neighbours and against the center
    @example((3, [0] * 7, [[FILL_EDGE[0]], [FILL_EDGE[1]]] * 3 + [[FILL_EDGE[0]]]))
    @example((1, [0] * 3, [[TIE_SEED], [], [TIE_A, TIE_B]]))  # first of two equal IoUs
    @example((2, [0] * 5, [[TIE_A, TIE_B], [TIE_SEED], [], [TIE_SEED], [TIE_B, TIE_A]]))
    @example((2, [0] * 6, [[ON_EDGE, FRAME_SIZED]] * 6))  # edge and frame-sized boxes
    @example((3, [0, 1, 2, 0, 1, 2, 0, 1], [[ON_EDGE]] * 8))  # no similar neighbour
    @example((4, [0, 0, 1, 1, 1, 0, 0], [[ON_EDGE], [], [ON_EDGE]] * 2 + [[]]))  # short
    @example((2, [0] * 5, _with_gap(SUB_PIXEL, 2, 5)))  # sub-pixel track, center missing
    @example((3, [0] * 9, [[(0, 0, 4, 3), (4, 3, 8, 6)]] * 9))  # integer, edge-touching
    @example((1, [], []))
    def test_adversarial_boxes(self, case):
        frames, det_list, cfg = _adversarial_case(*case)
        assert process_sequence(frames, det_list, cfg) == naive_filter_sequence(
            frames, det_list, cfg
        )
        # every half window read from one pass at the widest, and a fill
        # IoU of its own read off the same links
        cfgs = [derive_sweep_config(IscuConfig(), n) for n in (1, 2, 3, 4)]
        cfgs.append(derive_sweep_config(IscuConfig(fill_iou=0.2), 2))
        assert sweep_sequence(frames, det_list, cfgs) == [
            naive_filter_sequence(frames, det_list, c) for c in cfgs
        ]


class TestSweepSequence:
    def test_each_config_matches_process_sequence(self):
        sc = tiny_scenario(5, n_frames=30)
        frames, det_list = list(sc.frames), list(sc.raw_detections)
        # unsorted, and one half window longer than the sequence
        cfgs = [derive_sweep_config(scenario_cfg(), n) for n in (3, 1, 40, 4, 2)]
        swept = sweep_sequence(frames, det_list, cfgs)
        assert swept == [process_sequence(frames, det_list, cfg) for cfg in cfgs]
        assert swept[1] == naive_filter_sequence(frames, det_list, cfgs[1])

    def test_configs_must_share_ssim_params(self):
        other = small_cfg(ssim_params=SsimParams(downsample_w=W // 2, downsample_h=H // 2))
        with pytest.raises(ValueError):
            sweep_sequence([flat_frame()], [dets(0)], [small_cfg(), other])

    def test_needs_a_config(self):
        with pytest.raises(ValueError, match="^sweep needs at least one config$"):
            sweep_sequence([flat_frame()], [dets(0)], [])

    def test_configs_must_share_confidence_gate(self):
        # the gated boxes and their overlap facts are scored once for all
        other = small_cfg(confidence_gate=0.4)
        with pytest.raises(ValueError, match="confidence_gate"):
            sweep_sequence([flat_frame()], [dets(0)], [small_cfg(), other])

    def test_fill_iou_may_differ(self):
        # links carry no threshold, so each config applies its own fill IoU
        sc = tiny_scenario(6, n_frames=30)
        frames, det_list = list(sc.frames), list(sc.raw_detections)
        cfgs = [
            derive_sweep_config(small_cfg(fill_iou=fill_iou), n)
            for n, fill_iou in ((3, 0.5), (2, 0.1), (4, 0.8), (1, 0.0), (3, 0.3))
        ]
        assert sweep_sequence(frames, det_list, cfgs) == [
            process_sequence(frames, det_list, cfg) for cfg in cfgs
        ] == [naive_filter_sequence(frames, det_list, cfg) for cfg in cfgs]


class TestMemory:
    def test_moments_cache_bounded_by_window(self):
        # frames already at comparison size: a cache of float64 moments on
        # every input frame would hold 400 * 153.6 kB, about 61 MB
        r = np.random.default_rng(0)
        frames = [
            GrayFrame.from_array(r.integers(0, 256, size=(120, 160), dtype=np.uint8))
            for _ in range(400)
        ]
        det_list = [FrameDetections(FrameMeta(160, 120, i), ()) for i in range(400)]
        tracemalloc.start()
        try:
            process_sequence(frames, det_list, IscuConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, f"traced peak {peak / 1e6:.1f} MB"

    def test_overlap_facts_bounded_by_window(self):
        # 8 slowly drifting tracks, so every box gathers links; the facts
        # still alive afterwards cover only the frames a window can reach
        h, n = 3, 2000
        c = StreamCorrelator(small_cfg(half_window=h))
        frame = flat_frame()
        for i in range(n):
            shift = i % 3
            c.push_frame(frame, dets(i, *[(7 * k + shift, 10, 7 * k + 6 + shift, 20) for k in range(8)]))
        gc.collect()
        held = [o for o in gc.get_objects() if isinstance(o, FrameOverlaps)]
        assert 0 < len(held) <= 2 * h + 1
        referenced = {o.index for o in held}
        for o in held:
            referenced.update(f for links in o.links for f, _, _ in links)
        assert min(referenced) >= n - 1 - 4 * h


class TestOutputInvariants:
    def test_kept_subset_added_disjoint(self):
        sc = tiny_scenario(11)
        cfg = scenario_cfg()
        results = process_sequence(list(sc.frames), list(sc.raw_detections), cfg)
        for r, original in zip(results, sc.raw_detections):
            gated = [b for b in original.boxes if b.confidence > cfg.confidence_gate]
            for kept in r.kept:
                assert kept in gated
                assert kept.origin is BoxOrigin.DETECTOR
            for added in r.added:
                assert added.origin is BoxOrigin.INTERPOLATED
                assert all(iou(added.box, b.box) <= cfg.fill_iou for b in gated)
            assert r.removed_count == len(gated) - len(r.kept)

    def test_emission_order_strictly_increasing(self):
        sc = tiny_scenario(13)
        results = process_sequence(list(sc.frames), list(sc.raw_detections), scenario_cfg())
        indices = [r.meta.frame_index for r in results]
        assert indices == sorted(indices)
        assert len(indices) == len(set(indices))
