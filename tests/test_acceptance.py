"""Acceptance suite: one test per criterion, each reporting a PASS/FAIL line.

The lines print inside each test and are repeated in the terminal summary
after the run (see conftest.py), so ``pytest tests/test_acceptance.py``
always shows them.
"""

import json
import time

import numpy as np
import pytest

from polypstream.cli import run_cli
from polypstream.config import derive_sweep_config
from polypstream.correlator import (
    IscuConfig,
    StreamCorrelator,
    process_sequence,
    sweep_sequence,
)
from polypstream.evaluation import FrameOutcome, aggregate, evaluate_sequences
from polypstream.geometry import (
    BoundingBox,
    BoxOrigin,
    FrameDetections,
    FrameMeta,
    GroundTruthBox,
    ScoredBox,
    adaptive_iou_threshold,
    iou,
)
from polypstream.similarity import GrayFrame, prepare_luma, ssim
from polypstream.synthetic import (
    ConfidenceModel,
    ScenarioConfig,
    TrackSpec,
    generate_scenario,
    standard_noise_config,
)

from conftest import record_acceptance
from oracles import naive_filter_sequence, naive_ssim

SEEDS = range(10)


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {criterion} {status}: {detail}"
    print(line)
    record_acceptance(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def standard_runs():
    """Standard noise scenario per seed, filtered at each half window in one
    sweep."""
    runs = []
    base = IscuConfig()
    half_windows = (1, 2, 3, 4)
    cfgs = [derive_sweep_config(base, hw) for hw in half_windows]
    for seed in SEEDS:
        sc = generate_scenario(standard_noise_config(seed))
        frames = list(sc.frames)
        dets = list(sc.raw_detections)
        gts = list(sc.ground_truth)
        filtered = dict(zip(half_windows, sweep_sequence(frames, dets, cfgs)))
        runs.append({"dets": dets, "gts": gts, "filtered": filtered})
    return runs


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_metric_fixtures():
    t0 = time.perf_counter()
    rows = [
        ((167, 26, 41), (80.29, 86.53, 83.29, 81.46)),
        ((149, 30, 59), (71.63, 83.24, 77.00, 73.69)),
    ]
    worst = 0.0
    for (tp, fp, fn), (sen, pre, f1, f2) in rows:
        rep = aggregate([FrameOutcome(tp, fp, fn, 0)], 0)
        for got, want in zip((rep.sen, rep.pre, rep.f1, rep.f2), (sen, pre, f1, f2)):
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 0.01 and elapsed < 1.0,
        f"fixture metrics within {worst:.4f} pp (limit 0.01), {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_2_ssim_correctness():
    t0 = time.perf_counter()
    r = np.random.default_rng(2024)
    b1 = (0.01 * 255.0) ** 2  # SSIM's luminance constant, K1 = 0.01 at range 255

    self_err = 0.0
    sym_err = 0.0
    frames = [
        GrayFrame.from_array(r.integers(0, 256, size=(48, 64), dtype=np.uint8))
        for _ in range(100)
    ]
    for i, f in enumerate(frames):
        self_err = max(self_err, abs(ssim(f, f) - 1.0))
        g = frames[(i + 1) % len(frames)]
        sym_err = max(sym_err, abs(ssim(f, g) - ssim(g, f)))

    black = GrayFrame.from_array(np.zeros((32, 32), dtype=np.uint8))
    white = GrayFrame.from_array(np.full((32, 32), 255, dtype=np.uint8))
    closed_form = b1 / (255.0**2 + b1)
    const_err = abs(ssim(black, white) - closed_form)

    oracle_err = 0.0
    for _ in range(1000):
        x = GrayFrame.from_array(r.integers(0, 256, size=(16, 16), dtype=np.uint8))
        y = GrayFrame.from_array(r.integers(0, 256, size=(16, 16), dtype=np.uint8))
        oracle_err = max(oracle_err, abs(ssim(x, y) - naive_ssim(x, y)))

    elapsed = time.perf_counter() - t0
    ok = (
        self_err <= 1e-9
        and sym_err <= 1e-12
        and const_err <= 1e-9
        and abs(closed_form - 9.999e-5) < 1e-8
        and oracle_err <= 1e-9
        and elapsed < 10.0
    )
    report(
        2,
        ok,
        f"self {self_err:.1e}, symmetry {sym_err:.1e}, closed-form {const_err:.1e}, "
        f"oracle {oracle_err:.1e}, {elapsed:.1f}s (limit 10s)",
    )


def _equivalence_scenario(seed: int) -> ScenarioConfig:
    track_a = TrackSpec(
        start=BoundingBox(20.0, 20.0, 52.0, 52.0),
        velocity=(0.08, 0.05),
        wobble_amplitude=(3.0, 2.0),
        wobble_period=(37.0, 53.0),
    )
    track_b = TrackSpec(
        start=BoundingBox(100.0, 60.0, 124.0, 84.0),
        velocity=(-0.03, 0.02),
        wobble_amplitude=(5.0, 4.0),
        wobble_period=(21.0, 29.0),
        wobble_phase=(1.0, 2.2),
    )
    return ScenarioConfig(
        frame_w=160,
        frame_h=120,
        n_frames=1000,
        rng_seed=seed,
        tracks=(track_a, track_b),
        transient_fp_rate=0.3,
        fp_lifetime=2,
        tp_dropout_rate=0.06,
        scene_break_frames=frozenset({333, 666}),
        confidence=ConfidenceModel(0.8, 0.5, 0.1),
        coord_jitter_frac=0.008,
    )


def test_criterion_3_streaming_batch_oracle_equivalence():
    t0 = time.perf_counter()
    cfg = IscuConfig()
    all_equal = True
    for seed in SEEDS:
        sc = generate_scenario(_equivalence_scenario(seed))
        frames, dets = list(sc.frames), list(sc.raw_detections)

        batch = process_sequence(frames, dets, cfg)

        correlator = StreamCorrelator(cfg)
        streamed = []
        for f, d in zip(frames, dets):
            out = correlator.push_frame(f, d)
            if out is not None:
                streamed.append(out)
        streamed.extend(correlator.flush())

        naive = naive_filter_sequence(frames, dets, cfg)
        if not (streamed == batch == naive):
            all_equal = False
            break
    elapsed = time.perf_counter() - t0
    report(
        3,
        all_equal and elapsed < 60.0,
        f"stream == batch == naive on {len(list(SEEDS))}x1000 frames, "
        f"{elapsed:.1f}s (limit 60s)",
    )


def _transience_scenario(seed: int) -> ScenarioConfig:
    tracks = (
        TrackSpec(
            start=BoundingBox(30.0, 30.0, 74.0, 74.0),
            velocity=(0.3, 0.2),
            wobble_amplitude=(2.0, 1.5),
            wobble_period=(41.0, 59.0),
        ),
        TrackSpec(
            start=BoundingBox(200.0, 140.0, 236.0, 176.0),
            velocity=(-0.25, 0.1),
            wobble_amplitude=(1.5, 2.0),
            wobble_period=(47.0, 31.0),
        ),
    )
    return ScenarioConfig(
        frame_w=320,
        frame_h=240,
        n_frames=120,
        rng_seed=seed,
        tracks=tracks,
        transient_fp_rate=0.3,
        fp_lifetime=1,
        tp_dropout_rate=0.0,
        coord_jitter_frac=0.0,
    )


def test_criterion_4_transience_elimination():
    cfg = IscuConfig()
    total_fp = total_tp = 0
    ok = True
    for seed in SEEDS:
        sc = generate_scenario(_transience_scenario(seed))
        frames, dets, gts = list(sc.frames), list(sc.raw_detections), list(sc.ground_truth)

        # premise: every window neighbor is similar, tracks exceed the
        # adaptive threshold between any two window positions
        p = cfg.ssim_params
        lumas = [prepare_luma(f, p) for f in frames[:20]]
        for i in range(len(lumas)):
            for j in range(i + 1, min(i + 4, len(lumas))):
                assert ssim(lumas[i], lumas[j]) > cfg.similarity_threshold
        meta = dets[0].meta
        for t in range(20):
            for dt in range(1, 4):
                for a, b in zip(gts[t], gts[t + dt]):
                    assert iou(a.box, b.box) > adaptive_iou_threshold(a.box, meta)

        results = process_sequence(frames, dets, cfg)
        for res, det, gt in zip(results, dets, gts):
            gt_boxes = [g.box for g in gt]
            tps = tuple(
                b
                for b in det.boxes
                if b.confidence > cfg.confidence_gate
                and any(iou(b.box, g) > 0 for g in gt_boxes)
            )
            fps_gated = [
                b
                for b in det.boxes
                if b.confidence > cfg.confidence_gate
                and all(iou(b.box, g) == 0 for g in gt_boxes)
            ]
            total_fp += len(fps_gated)
            total_tp += len(tps)
            if res.kept != tps or res.added != () or res.removed_count != len(fps_gated):
                ok = False
    report(
        4,
        ok and total_fp > 100,
        f"{total_fp} transients all removed, {total_tp} track boxes all kept "
        f"across {len(list(SEEDS))} seeds",
    )


def test_criterion_5_gap_fill():
    cfg = IscuConfig()
    ok = True
    checked = 0
    for seed in SEEDS:
        r = np.random.default_rng(seed)
        x0 = float(r.uniform(20, 120))
        y0 = float(r.uniform(20, 80))
        size = float(r.uniform(30, 44))
        track = TrackSpec(
            start=BoundingBox(x0, y0, x0 + size, y0 + size),
            velocity=(float(r.uniform(0.2, 1.0)), float(r.uniform(0.1, 0.6))),
        )
        scenario_cfg = ScenarioConfig(
            frame_w=320,
            frame_h=240,
            n_frames=41,
            rng_seed=seed,
            tracks=(track,),
        )
        sc = generate_scenario(scenario_cfg)
        frames = list(sc.frames)
        dets = list(sc.raw_detections)

        for drop_at, expect_fill in ((20, True), (0, False), (40, False)):
            modified = list(dets)
            modified[drop_at] = FrameDetections(dets[drop_at].meta, ())
            results = process_sequence(frames, modified, cfg)
            res = results[drop_at]
            if expect_fill:
                # the cluster is the six surrounding detector boxes
                members = [
                    modified[t].boxes[0].box
                    for t in range(drop_at - 3, drop_at + 4)
                    if t != drop_at
                ]
                n = len(members)
                mean = (
                    sum(b.x_min for b in members) / n,
                    sum(b.y_min for b in members) / n,
                    sum(b.x_max for b in members) / n,
                    sum(b.y_max for b in members) / n,
                )
                gt_box = sc.ground_truth[drop_at][0].box
                if len(res.added) != 1:
                    ok = False
                else:
                    added = res.added[0]
                    if added.box.as_tuple() != mean:
                        ok = False
                    if not iou(added.box, gt_box) > 0.5:
                        ok = False
                    if added.origin is not BoxOrigin.INTERPOLATED:
                        ok = False
            else:
                if res.added != ():
                    ok = False
            checked += 1
    report(
        5,
        ok,
        f"{checked} dropout cases: interior restored to exact cluster mean, "
        "boundary dropouts left unfilled",
    )


def test_criterion_6_end_to_end_direction(standard_runs):
    raw = evaluate_sequences([(run["dets"], run["gts"]) for run in standard_runs])
    filt = evaluate_sequences([(run["filtered"][3], run["gts"]) for run in standard_runs])
    d_pre = filt.pre - raw.pre
    d_sen = filt.sen - raw.sen
    ok = d_pre >= 10.0 and abs(d_sen) <= 1.0
    report(
        6,
        ok,
        f"precision {raw.pre:.2f} -> {filt.pre:.2f} ({d_pre:+.2f} pp, need >= +10), "
        f"sensitivity {raw.sen:.2f} -> {filt.sen:.2f} ({d_sen:+.2f} pp, need within +-1)",
    )


def test_criterion_7_window_size_trend(standard_runs):
    sen = {}
    pre = {}
    for hw in (1, 2, 3, 4):
        reports = [
            evaluate_sequences([(run["filtered"][hw], run["gts"])])
            for run in standard_runs
        ]
        sen[hw] = float(np.mean([r.sen for r in reports]))
        pre[hw] = float(np.mean([r.pre for r in reports]))
    sens = [sen[h] for h in (1, 2, 3, 4)]
    pres = [pre[h] for h in (1, 2, 3, 4)]
    ok = all(a >= b for a, b in zip(sens, sens[1:])) and all(
        a <= b for a, b in zip(pres, pres[1:])
    )
    report(
        7,
        ok,
        "half-window 1->4: sensitivity "
        + " >= ".join(f"{v:.2f}" for v in sens)
        + ", precision "
        + " <= ".join(f"{v:.2f}" for v in pres),
    )


def test_criterion_8_timing_budget(tmp_path):
    out = tmp_path / "bench.json"
    code = run_cli(
        [
            "bench",
            "--synthetic-frames",
            "1000",
            "--frame-size",
            "1280x1080",
            "--json",
            str(out),
        ]
    )
    assert code == 0
    result = json.loads(out.read_text())["results"][0]
    mpt_ms = result["mpt_ms"]
    ok = mpt_ms <= 5.0  # hard-fail bound; 2 ms is the desktop target
    report(
        8,
        ok,
        f"mean {mpt_ms:.3f} ms/frame over {result['n_frames']} frames at 1280x1080 "
        f"(target <= 2 ms"
        f"{' met' if mpt_ms <= 2.0 else ' MISSED'}, hard limit 5 ms)",
    )


def test_criterion_9_pdr_mnfp_bookkeeping():
    # 5 sequences x 3 polyps = 15 individuals; polyp s2:p1 is never detected
    sequences = []
    hand_fp = 0
    hand_frames = 0
    for s in range(5):
        dets, gts = [], []
        n_frames = 8
        for t in range(n_frames):
            meta = FrameMeta(640, 480, t)
            frame_gts = []
            frame_dets = []
            for k in range(3):
                pid = f"s{s}:p{k}"
                cx, cy = 80.0 + 140 * k, 100.0 + 30 * s + 2 * t
                box = BoundingBox(cx - 25, cy - 20, cx + 25, cy + 20)
                frame_gts.append(GroundTruthBox(box, pid))
                undetected = s == 2 and k == 1
                if not undetected and t % 2 == 0:
                    frame_dets.append(ScoredBox(box, 0.9, BoxOrigin.DETECTOR))
            if t == 3:  # one deliberate false positive per sequence
                frame_dets.append(
                    ScoredBox(BoundingBox(500, 400, 560, 450), 0.7, BoxOrigin.DETECTOR)
                )
                hand_fp += 1
            hand_frames += 1
            dets.append(FrameDetections(meta, tuple(frame_dets)))
            gts.append(frame_gts)
        sequences.append((dets, gts))

    rep = evaluate_sequences(sequences)
    pdr_ok = abs(rep.pdr - 93.33) <= 0.005
    mnfp_ok = rep.mnfp == hand_fp / hand_frames
    report(
        9,
        pdr_ok and mnfp_ok,
        f"PDR {rep.pdr:.2f}% (14/15), MNFP {rep.mnfp:.4f} == {hand_fp}/{hand_frames}",
    )
