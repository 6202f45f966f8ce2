import numpy as np
import pytest

from polypstream.errors import InputError
from polypstream.geometry import BoundingBox, iou
from polypstream.similarity import SsimParams, prepare_luma, ssim
from polypstream.synthetic import (
    ConfidenceModel,
    ScenarioConfig,
    TrackSpec,
    _bilinear_upsample,
    generate_scenario,
    simulate_detector,
    standard_noise_config,
)

from oracles import naive_bilinear_upsample


def slow_track(x0=40.0, y0=40.0, size=40.0):
    return TrackSpec(
        start=BoundingBox(x0, y0, x0 + size, y0 + size),
        velocity=(0.3, 0.2),
        wobble_amplitude=(2.0, 1.5),
        wobble_period=(31.0, 43.0),
    )


def base_config(**kw):
    kw.setdefault("frame_w", 320)
    kw.setdefault("frame_h", 240)
    kw.setdefault("n_frames", 60)
    kw.setdefault("rng_seed", 0)
    kw.setdefault("tracks", (slow_track(),))
    return ScenarioConfig(**kw)


class TestConfigValidation:
    def test_track_leaving_frame_rejected(self):
        runaway = TrackSpec(start=BoundingBox(10, 10, 30, 30), velocity=(10.0, 0.0))
        with pytest.raises(InputError):
            base_config(tracks=(runaway,), n_frames=50)

    def test_rates_validated(self):
        with pytest.raises(InputError):
            base_config(transient_fp_rate=1.5)
        with pytest.raises(InputError):
            base_config(tp_dropout_rate=-0.1)
        with pytest.raises(InputError):
            base_config(coord_jitter_frac=0.05)

    def test_scene_breaks_in_range(self):
        with pytest.raises(InputError):
            base_config(scene_break_frames=frozenset({400}))


class TestDeterminism:
    def test_regeneration_is_byte_identical(self):
        cfg = base_config(
            transient_fp_rate=0.3,
            tp_dropout_rate=0.1,
            coord_jitter_frac=0.01,
            scene_break_frames=frozenset({25}),
        )
        a = generate_scenario(cfg)
        b = generate_scenario(cfg)
        assert all(
            np.array_equal(fa.samples, fb.samples) for fa, fb in zip(a.frames, b.frames)
        )
        assert a.ground_truth == b.ground_truth
        assert a.raw_detections == b.raw_detections

    def test_detector_rerun_matches_scenario(self):
        cfg = base_config(transient_fp_rate=0.2, tp_dropout_rate=0.1, coord_jitter_frac=0.008)
        sc = generate_scenario(cfg)
        again = simulate_detector(sc.ground_truth, cfg)
        assert tuple(again) == sc.raw_detections

    def test_different_seeds_differ(self):
        a = generate_scenario(base_config(rng_seed=1, transient_fp_rate=0.3))
        b = generate_scenario(base_config(rng_seed=2, transient_fp_rate=0.3))
        assert any(
            not np.array_equal(fa.samples, fb.samples)
            for fa, fb in zip(a.frames, b.frames)
        )


class TestDetectorSimulation:
    def test_noiseless_equals_ground_truth(self):
        sc = generate_scenario(base_config())
        for dets, gts in zip(sc.raw_detections, sc.ground_truth):
            assert len(dets.boxes) == len(gts)
            for d, g in zip(dets.boxes, gts):
                assert d.box == g.box

    def test_dropout_count_near_rate(self):
        stayer = TrackSpec(
            start=BoundingBox(40.0, 40.0, 80.0, 80.0),
            velocity=(0.1, 0.05),
            wobble_amplitude=(2.0, 1.5),
            wobble_period=(31.0, 43.0),
        )
        cfg = base_config(n_frames=1000, tp_dropout_rate=0.1, tracks=(stayer,))
        sc = generate_scenario(cfg)
        dropped = sum(1 for d in sc.raw_detections if len(d.boxes) == 0)
        # 99% binomial interval around 100 of 1000
        assert 75 <= dropped <= 125

    def test_confidences_clipped(self):
        cfg = base_config(
            transient_fp_rate=0.4,
            confidence=ConfidenceModel(tp_mean=0.95, fp_mean=0.1, jitter=0.4),
        )
        sc = generate_scenario(cfg)
        for dets in sc.raw_detections:
            for b in dets.boxes:
                assert 0.0 <= b.confidence <= 1.0

    def test_single_lifetime_fps_never_overlap_consecutively(self):
        cfg = base_config(n_frames=200, transient_fp_rate=0.5, fp_lifetime=1)
        sc = generate_scenario(cfg)
        for t in range(len(sc.raw_detections) - 1):
            cur = [b.box for b in sc.raw_detections[t].boxes[1:]]
            nxt = [b.box for b in sc.raw_detections[t + 1].boxes[1:]]
            for a in cur:
                for b in nxt:
                    assert iou(a, b) <= 0.5

    def test_fp_lifetime_persists(self):
        cfg = base_config(n_frames=300, transient_fp_rate=0.2, fp_lifetime=3)
        sc = generate_scenario(cfg)
        # collect distinct fp boxes and their frame spans
        spans = {}
        for t, dets in enumerate(sc.raw_detections):
            for b in dets.boxes:
                if b.box != sc.ground_truth[t][0].box:
                    key = b.box.as_tuple()
                    spans.setdefault(key, []).append(t)
        assert spans, "expected some transients at rate 0.2"
        for frames in spans.values():
            assert len(frames) <= 3
            assert frames == list(range(frames[0], frames[0] + len(frames)))

    def test_fps_disjoint_from_ground_truth_nearby(self):
        cfg = base_config(n_frames=200, transient_fp_rate=0.5)
        sc = generate_scenario(cfg)
        gt_boxes = [[g.box for g in gts] for gts in sc.ground_truth]
        for t, dets in enumerate(sc.raw_detections):
            for b in dets.boxes[1:]:  # track box is first
                for dt in range(-3, 4):
                    if 0 <= t + dt < len(gt_boxes):
                        for g in gt_boxes[t + dt]:
                            assert iou(b.box, g) == 0.0

    def test_jitter_bounded(self):
        cfg = base_config(coord_jitter_frac=0.02, n_frames=100)
        sc = generate_scenario(cfg)
        for dets, gts in zip(sc.raw_detections, sc.ground_truth):
            g = gts[0].box
            d = dets.boxes[0].box
            assert abs(d.x_min - g.x_min) <= 0.02 * 320 + 1e-9
            assert abs(d.y_max - g.y_max) <= 0.02 * 240 + 1e-9


class TestRendering:
    @pytest.mark.parametrize(
        "w, h", [(320, 240), (160, 120), (1280, 1080), (720, 576), (67, 53), (17, 16)]
    )
    def test_upsample_bit_identical_to_oracle(self, w, h):
        r = np.random.default_rng([w, h])
        for gh, gw in [(6, 8), (6, 8), (1, 1), (2, 3), (7, 5)] * 2:
            grid = r.uniform(40.0, 215.0, size=(gh, gw))
            got = _bilinear_upsample(grid, w, h)
            want = naive_bilinear_upsample(grid, w, h)
            assert got.shape == want.shape == (h, w)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_neighbor_similarity_and_breaks(self):
        cfg = base_config(n_frames=40, scene_break_frames=frozenset({20}))
        sc = generate_scenario(cfg)
        p = SsimParams()
        lumas = [prepare_luma(f, p) for f in sc.frames]
        for t in range(len(lumas) - 1):
            value = ssim(lumas[t], lumas[t + 1])
            if t + 1 == 20:
                assert value < 0.85, f"break at {t}->{t+1} still similar ({value:.3f})"
            else:
                assert value > 0.85, f"frames {t}->{t+1} dissimilar ({value:.3f})"

    def test_disc_brightens_track_region(self):
        sc = generate_scenario(base_config(n_frames=5))
        b = sc.ground_truth[0][0].box
        frame = sc.frames[0].samples
        cx, cy = int((b.x_min + b.x_max) / 2.0), int((b.y_min + b.y_max) / 2.0)
        assert frame[cy, cx] >= 200

    def test_polyp_ids_stable(self):
        cfg = base_config(tracks=(slow_track(), slow_track(150.0, 120.0, 30.0)))
        sc = generate_scenario(cfg)
        for gts in sc.ground_truth:
            assert [g.polyp_id for g in gts] == ["p0", "p1"]


class TestEpisodeScheduling:
    def test_episode_structure(self):
        cfg = base_config(
            n_frames=400,
            tp_dropout_rate=0.12,
            tp_dropout_episode_frac=1.0,
            tp_dropout_episode_len=10,
        )
        sc = generate_scenario(cfg)
        missing = [t for t, d in enumerate(sc.raw_detections) if len(d.boxes) == 0]
        assert len(missing) == 40  # two episodes of 2x10
        runs = []
        start = prev = missing[0]
        for t in missing[1:]:
            if t != prev + 1:
                runs.append((start, prev))
                start = t
            prev = t
        runs.append((start, prev))
        lengths = [b - a + 1 for a, b in runs]
        assert lengths == [10, 10, 10, 10]
        # gaps between paired runs are 3..5 frames of visible polyp
        gap1 = runs[1][0] - runs[0][1] - 1
        gap2 = runs[3][0] - runs[2][1] - 1
        assert gap1 in (3, 4, 5) and gap2 in (3, 4, 5)

    def test_standard_config_operating_point(self):
        cfg = standard_noise_config(3)
        assert cfg.transient_fp_rate == 0.25
        assert cfg.tp_dropout_rate == 0.05
        sc = generate_scenario(cfg)
        # transients are disjoint from ground truth, so "track detected"
        # means some box touches the annotation
        missing = 0
        for dets, gts in zip(sc.raw_detections, sc.ground_truth):
            g = gts[0].box
            if not any(iou(b.box, g) > 0 for b in dets.boxes):
                missing += 1
        assert missing == pytest.approx(0.05 * cfg.n_frames, rel=0.05)
