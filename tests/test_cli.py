import json
import time
import tracemalloc

import numpy as np
import pytest
from oracles import naive_filter_sequence, naive_luma

import polypstream.cli as cli_mod
from polypstream import correlator
from polypstream.benchmark import make_bench_detections, make_bench_frames
from polypstream.cli import run_cli
from polypstream.config import ISCU_KEYS, derive_sweep_config
from polypstream.correlator import IscuConfig, process_sequence
from polypstream.evaluation import evaluate_sequences
from polypstream.formats import (
    parse_detections,
    parse_groundtruth,
    read_frames,
    write_detections,
    write_frames,
    write_groundtruth,
    write_pgm,
)
from polypstream.geometry import BoundingBox
from polypstream.similarity import GrayFrame
from polypstream.synthetic import (
    ScenarioConfig,
    TrackSpec,
    generate_scenario,
)


def make_scenario_dir(
    tmp_path, seed=0, n_frames=24, fp_rate=0.0, dropout=0.0, scene_breaks=()
):
    track = TrackSpec(
        start=BoundingBox(20.0, 20.0, 60.0, 60.0),
        velocity=(0.5, 0.3),
        wobble_amplitude=(2.0, 1.0),
        wobble_period=(19.0, 23.0),
    )
    cfg = ScenarioConfig(
        frame_w=160,
        frame_h=120,
        n_frames=n_frames,
        rng_seed=seed,
        tracks=(track,),
        transient_fp_rate=fp_rate,
        tp_dropout_rate=dropout,
        scene_break_frames=frozenset(scene_breaks),
    )
    sc = generate_scenario(cfg)
    root = tmp_path / f"scenario{seed}"
    root.mkdir()
    write_frames(root / "frames", list(sc.frames))
    write_detections(root / "detections.txt", sc.raw_detections)
    write_groundtruth(root / "groundtruth.txt", sc.ground_truth)
    return root, sc


class TestFilterCommand:
    def test_noiseless_passthrough(self, tmp_path, capsys):
        root, sc = make_scenario_dir(tmp_path)
        out = root / "filtered.txt"
        code = run_cli(
            [
                "filter",
                "--frames",
                str(root / "frames"),
                "--detections",
                str(root / "detections.txt"),
                "--output",
                str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "removed = 0" in text and "added = 0" in text
        parsed = parse_detections(out, 160, 120)
        fmt = lambda sb: tuple(f"{v:.6g}" for v in (*sb.box.as_tuple(), sb.confidence))
        for got, want in zip(parsed, sc.raw_detections):
            assert [fmt(b) for b in got.boxes] == [fmt(b) for b in want.boxes]
            assert all(b.origin.value == "det" for b in got.boxes)

    def test_output_byte_identical_across_runs(self, tmp_path):
        root, _ = make_scenario_dir(tmp_path, seed=1, fp_rate=0.3, dropout=0.1)
        args = [
            "filter",
            "--frames",
            str(root / "frames"),
            "--detections",
            str(root / "detections.txt"),
        ]
        out1 = root / "a.txt"
        out2 = root / "b.txt"
        assert run_cli(args + ["--output", str(out1)]) == 0
        assert run_cli(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_inputs_exit_1(self, capsys):
        assert run_cli(["filter", "--frames", "nope"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["--frames", "--detections", "--output"])
    def test_each_missing_flag_exit_1_naming_it(self, tmp_path, capsys, missing):
        root, _ = make_scenario_dir(tmp_path, n_frames=6)
        out = tmp_path / "out.txt"
        given = {
            "--frames": str(root / "frames"),
            "--detections": str(root / "detections.txt"),
            "--output": str(out),
        }
        del given[missing]
        assert run_cli(["filter", *(word for pair in given.items() for word in pair)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"the following arguments are required: {missing}" in captured.err
        assert not out.exists()

    def test_unwritable_output_exit_1(self, tmp_path, capsys, monkeypatch):
        # the output's directory is checked before any frame is decoded
        root, _ = make_scenario_dir(tmp_path, n_frames=8)
        out = tmp_path / "missing" / "x.txt"
        decoded = []
        monkeypatch.setattr(cli_mod, "read_frames", decoded.append)
        code = run_cli(
            [
                "filter",
                "--frames",
                str(root / "frames"),
                "--detections",
                str(root / "detections.txt"),
                "--output",
                str(out),
            ]
        )
        assert code == 1
        assert decoded == []
        assert f"cannot write {out}" in capsys.readouterr().err

    def test_frames_not_starting_at_zero_exit_1(self, tmp_path, capsys):
        root, _ = make_scenario_dir(tmp_path, n_frames=6)
        (root / "frames" / "000000.pgm").unlink()
        det = tmp_path / "det.txt"
        det.write_text("".join(f"{i} 20 20 40 40 0.9\n" for i in range(1, 6)))
        code = run_cli(
            [
                "filter",
                "--frames",
                str(root / "frames"),
                "--detections",
                str(det),
                "--output",
                str(tmp_path / "out.txt"),
            ]
        )
        assert code == 1
        assert "missing frame index 0" in capsys.readouterr().err

    def test_record_wholly_above_frame_exit_1(self, tmp_path, capsys):
        root, _ = make_scenario_dir(tmp_path, n_frames=8)
        det = tmp_path / "det.txt"
        det.write_text("0 20 20 40 40 0.9\n0 10 -20 30 -5 0.9\n")
        code = run_cli(
            [
                "filter",
                "--frames",
                str(root / "frames"),
                "--detections",
                str(det),
                "--output",
                str(tmp_path / "out.txt"),
            ]
        )
        assert code == 1
        assert "line 2: box lies entirely outside the 160x120 frame" in capsys.readouterr().err

    def test_stray_huge_frame_index_exit_1(self, tmp_path, capsys):
        # the listing stops at the first gap without scanning up to 10**12
        root, _ = make_scenario_dir(tmp_path, n_frames=1)
        frames = root / "frames"
        (frames / f"{10**12}.pgm").write_bytes((frames / "000000.pgm").read_bytes())
        out = tmp_path / "out.txt"
        code = run_cli(
            [
                "filter",
                "--frames",
                str(frames),
                "--detections",
                str(root / "detections.txt"),
                "--output",
                str(out),
            ]
        )
        assert code == 1
        assert "missing frame index 1\n" in capsys.readouterr().err
        assert not out.exists()

    def test_memory_bounded_by_window(self, tmp_path, capsys):
        # 1000 frames at 320x240 hold 77 MB of raster; a stream that drops
        # each frame once pushed keeps only the window's comparison luma
        pool = tmp_path / "pool"
        write_frames(pool, make_bench_frames(320, 240, pool_size=8))
        dets = make_bench_detections(320, 240, 1000)

        def filter_args(n):
            root = tmp_path / f"n{n}"
            (root / "frames").mkdir(parents=True)
            for i in range(n):  # links to the pool: distinct files, no disk cost
                (root / "frames" / f"{i:06d}.pgm").symlink_to(pool / f"{i % 8:06d}.pgm")
            write_detections(root / "det.txt", dets[:n])
            return [
                "filter",
                "--frames",
                str(root / "frames"),
                "--detections",
                str(root / "det.txt"),
                "--output",
                str(root / "out.txt"),
            ]

        def traced_peak(args):
            tracemalloc.start()
            try:
                assert run_cli(args) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = filter_args(50), filter_args(1000)
        traced_peak(short)  # warm imports and caches
        growth = traced_peak(long) - traced_peak(short)
        # measured: 1.4-1.8 MB (detections and results grow with the length);
        # 75 MB when every decoded frame is kept
        assert growth < 5_000_000, f"traced peak grew {growth / 1e6:.1f} MB"

    def test_record_area_underflow_exit_1(self, tmp_path, capsys):
        # 1e-200 * 1e-200 is 0.0 in float64: IoU on such boxes would be 0/0
        root, _ = make_scenario_dir(tmp_path, n_frames=20)
        det = tmp_path / "det.txt"
        det.write_text("".join(f"{i} 0 0 1e-200 1e-200 0.9\n" for i in range(7)))
        code = run_cli(
            [
                "filter",
                "--frames",
                str(root / "frames"),
                "--detections",
                str(det),
                "--output",
                str(tmp_path / "out.txt"),
            ]
        )
        assert code == 1
        assert "line 1: box area underflows to 0" in capsys.readouterr().err


class TestEvalCommand:
    def _write_pair(self, tmp_path, det_rows, gt_rows):
        det = tmp_path / "det.txt"
        gt = tmp_path / "gt.txt"
        det.write_text("".join(det_rows))
        gt.write_text("".join(gt_rows))
        return det, gt

    def test_simple_eval(self, tmp_path, capsys):
        det, gt = self._write_pair(
            tmp_path,
            ["0 10 10 30 30 0.9\n", "1 200 200 220 220 0.8\n"],
            ["0 p1 20 20 20 20\n", "1 p1 21 20 20 20\n"],
        )
        code = run_cli(["eval", "--detections", str(det), "--ground-truth", str(gt)])
        assert code == 0
        out = capsys.readouterr().out
        assert "tp = 1" in out
        assert "fp = 1" in out
        assert "fn = 1" in out
        assert "sen_pct = 50.00" in out

    def test_json_report(self, tmp_path):
        det, gt = self._write_pair(
            tmp_path, ["0 10 10 30 30 0.9\n"], ["0 p1 20 20 20 20\n"]
        )
        out = tmp_path / "report.json"
        code = run_cli(
            [
                "eval",
                "--detections",
                str(det),
                "--ground-truth",
                str(gt),
                "--json",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["tp"] == 1
        assert data["sen_pct"] == 100.0
        assert data["pdr_pct"] == 100.0

    def test_no_timing_field(self, tmp_path, capsys):
        # record files carry no timing; mean processing time comes from bench
        det, gt = self._write_pair(
            tmp_path, ["0 10 10 30 30 0.9\n"], ["0 p1 20 20 20 20\n"]
        )
        args = ["eval", "--detections", str(det), "--ground-truth", str(gt), "--json", "-"]
        assert run_cli(args) == 0
        text = capsys.readouterr().out
        assert "mpt" not in text
        assert "mpt_ms" not in json.loads(text)

    def test_json_dash_prints_only_json(self, tmp_path, capsys):
        det, gt = self._write_pair(
            tmp_path, ["0 10 10 30 30 0.9\n"], ["0 p1 20 20 20 20\n"]
        )
        args = ["eval", "--detections", str(det), "--ground-truth", str(gt), "--json", "-"]
        assert run_cli(args) == 0
        assert json.loads(capsys.readouterr().out)["tp"] == 1

    def test_unwritable_json_exit_1(self, tmp_path, capsys):
        det, gt = self._write_pair(
            tmp_path, ["0 10 10 30 30 0.9\n"], ["0 p1 20 20 20 20\n"]
        )
        out = tmp_path / "missing" / "r.json"
        code = run_cli(
            ["eval", "--detections", str(det), "--ground-truth", str(gt), "--json", str(out)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # no report printed before the failure
        assert f"cannot write {out}" in captured.err

    def test_multi_sequence_eval(self, tmp_path, capsys):
        det1, gt1 = self._write_pair(
            tmp_path, ["0 10 10 30 30 0.9\n"], ["0 a 20 20 20 20\n"]
        )
        det2 = tmp_path / "det2.txt"
        gt2 = tmp_path / "gt2.txt"
        det2.write_text("")
        gt2.write_text("0 b 20 20 20 20\n")
        code = run_cli(
            [
                "eval",
                "--detections",
                str(det1),
                str(det2),
                "--ground-truth",
                str(gt1),
                str(gt2),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pdr_pct = 50.00" in out

    def test_malformed_input_exit_1(self, tmp_path, capsys):
        det, gt = self._write_pair(tmp_path, ["0 30 10 10 20 0.5\n"], ["0 p1 20 20 20 20\n"])
        code = run_cli(["eval", "--detections", str(det), "--ground-truth", str(gt)])
        assert code == 1
        err = capsys.readouterr().err
        assert "det.txt" in err and "line 1" in err

    @pytest.mark.parametrize("which", ["det", "gt"])
    def test_stray_huge_frame_index_exit_1(self, tmp_path, capsys, which):
        # without --num-frames the length comes from the largest index, and
        # every frame up to it gets an entry: 10**11 is refused, not listed
        det_rows, gt_rows = ["0 10 10 30 30 0.9\n"], ["0 p1 20 20 20 20\n"]
        if which == "det":
            det_rows.append("99999999999 10 10 30 30 0.9\n")
        else:
            gt_rows.append("99999999999 p1 20 20 20 20\n")
        det, gt = self._write_pair(tmp_path, det_rows, gt_rows)
        code = run_cli(["eval", "--detections", str(det), "--ground-truth", str(gt)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{which}.txt: line 2: frame index 99999999999 beyond 1000000 frames" in err

    @pytest.mark.parametrize("length", ["99999999999", "1000001", "-1"])
    def test_declared_length_out_of_range_exit_1(self, tmp_path, capsys, length):
        # every declared frame gets an entry, so 10**11 would take hours; the
        # flag's value is refused before any file is read, naming the flag
        det, gt = self._write_pair(tmp_path, ["0 10 10 30 30 0.9\n"], ["0 p1 20 20 20 20\n"])
        args = ["eval", "--detections", str(det), "--ground-truth", str(gt)]
        t0 = time.perf_counter()
        code = run_cli([*args, "--num-frames", length])
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: --num-frames {length} outside [0, 1000000]\n"

    def test_record_wholly_left_of_frame_exit_1(self, tmp_path, capsys):
        det, gt = self._write_pair(
            tmp_path, ["0 10 10 30 30 0.9\n", "0 -5 -5 -1 -1 0.9\n"], ["0 p1 20 20 20 20\n"]
        )
        code = run_cli(
            [
                "eval",
                "--detections",
                str(det),
                "--ground-truth",
                str(gt),
                "--frame-size",
                "64x48",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2: box lies entirely outside the 64x48 frame" in err

    def test_comparison_fixture_dataset(self, tmp_path, capsys):
        # tiny dataset constructed to score TP=167, FP=26, FN=41:
        # one annotation per frame, detections on the first 167, plus 26
        # spurious boxes spread over early frames
        det_rows, gt_rows = [], []
        for i in range(208):
            gt_rows.append(f"{i} p{i} 100 100 40 40\n")
            if i < 167:
                det_rows.append(f"{i} 80 80 120 120 0.9\n")
        for i in range(26):
            det_rows.append(f"{i} 300 300 340 340 0.6\n")
        det, gt = self._write_pair(tmp_path, det_rows, gt_rows)
        out = tmp_path / "rep.json"
        code = run_cli(
            [
                "eval",
                "--detections",
                str(det),
                "--ground-truth",
                str(gt),
                "--frame-size",
                "640x480",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert (data["tp"], data["fp"], data["fn"]) == (167, 26, 41)
        assert data["sen_pct"] == pytest.approx(80.29, abs=0.005)
        assert data["pre_pct"] == pytest.approx(86.53, abs=0.005)
        assert data["f1_pct"] == pytest.approx(83.29, abs=0.005)
        assert data["f2_pct"] == pytest.approx(81.46, abs=0.005)
        text = capsys.readouterr().out
        assert "sen_pct = 80.29" in text
        assert "pre_pct = 86.53" in text


class TestSsimCommand:
    def test_identical_frames(self, tmp_path, capsys):
        frame = GrayFrame.from_array(
            np.random.default_rng(0).integers(0, 256, size=(32, 32), dtype=np.uint8)
        )
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        write_pgm(a, frame)
        write_pgm(b, frame)
        assert run_cli(["ssim", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ssim = 1.000000")

    @pytest.mark.parametrize("key", ISCU_KEYS)
    def test_correlator_flag_rejected(self, capsys, key):
        flag = "--" + key.replace("_", "-")
        assert run_cli(["ssim", "a.pgm", "b.pgm", flag, "1"]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_shared_config_file_accepted(self, tmp_path, capsys):
        # a config file written for filter, at half window 1 with the
        # default quorums, gives the same similarity
        root, _ = make_scenario_dir(tmp_path, n_frames=2)
        pair = [str(root / "frames" / f"00000{i}.pgm") for i in (0, 1)]
        config = tmp_path / "run.cfg"
        config.write_text(
            "half_window = 1\nsimilarity_threshold = 0.7\nconfidence_gate = 0.5\n"
            "fill_quorum = 1\nfill_iou = 0.9\n"
        )
        assert run_cli(["ssim", *pair]) == 0
        plain = capsys.readouterr().out
        assert run_cli(["ssim", "--config", str(config), *pair]) == 0
        assert capsys.readouterr().out == plain


class TestNonFiniteSsimConstants:
    """SSIM's K1 and K2 are fixed, so no value of theirs is accepted: not a
    non-finite one, which would make every similarity NaN and silently send
    every center to the fixed-quorum fallback, nor their own defaults. The
    flag or key is named, and nothing is written."""

    @pytest.mark.parametrize(
        "key, value",
        [
            ("ssim_k1", "nan"),
            ("ssim_k1", "inf"),
            ("ssim_k1", "1e400"),  # parses as inf
            ("ssim_k2", "nan"),
            ("ssim_k2", "1e200"),  # (k2 * 255) ** 2 overflows
            ("ssim_k1", "0.01"),
            ("ssim_k2", "0.03"),
        ],
    )
    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("command", ["ssim", "filter"])
    def test_rejected_exit_1_without_output(self, tmp_path, capsys, command, form, key, value):
        root, _ = make_scenario_dir(tmp_path, n_frames=6)
        out = tmp_path / "filtered.txt"
        if command == "ssim":
            frames = root / "frames"
            args = ["ssim", str(frames / "000000.pgm"), str(frames / "000001.pgm")]
        else:
            args = [
                "filter",
                "--frames",
                str(root / "frames"),
                "--detections",
                str(root / "detections.txt"),
                "--output",
                str(out),
            ]
        if form == "flag":
            named = f"--{key.replace('_', '-')}"
            args += [named, value]
        else:
            named = key
            config = tmp_path / "run.cfg"
            config.write_text(f"{key} = {value}\n")
            args += ["--config", str(config)]
        assert run_cli(args) == 1
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestQuorumRule:
    """A quorum that no source sets is lowered to the 2*half_window
    neighbours of a window; one set above that is an error naming its key."""

    @staticmethod
    def filter_args(root, out, *extra):
        return [
            "filter",
            "--frames",
            str(root / "frames"),
            "--detections",
            str(root / "detections.txt"),
            "--output",
            str(out),
            *extra,
        ]

    def test_filter_half_window_1_with_default_quorums(self, tmp_path):
        n_frames = 30
        root, sc = make_scenario_dir(
            tmp_path, seed=4, n_frames=n_frames, fp_rate=0.3, dropout=0.1, scene_breaks=(13,)
        )
        out, want = tmp_path / "filtered.txt", tmp_path / "want.txt"
        assert run_cli(self.filter_args(root, out, "--half-window", "1")) == 0
        dets = parse_detections(root / "detections.txt", 160, 120, n_frames)
        cfg = derive_sweep_config(IscuConfig(), 1)
        naive = naive_filter_sequence(list(sc.frames), dets, cfg)
        write_detections(want, naive, include_origin=True)
        assert out.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("key", ["fc_quorum", "fill_quorum"])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_set_quorum_above_window_exit_1(self, tmp_path, capsys, form, key):
        root, _ = make_scenario_dir(tmp_path, n_frames=6)
        out = tmp_path / "filtered.txt"
        if form == "flag":
            extra = ["--half-window", "1", "--" + key.replace("_", "-"), "3"]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"half_window = 1\n{key} = 3\n")
            extra = ["--config", str(config)]
        assert run_cli(self.filter_args(root, out, *extra)) == 1
        assert f"{key} must be in [1, 2], got 3" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_half_window_1(self, capsys):
        args = ["bench", "--synthetic-frames", "5", "--frame-size", "160x120"]
        assert run_cli(args + ["--half-window", "1"]) == 0

    @pytest.mark.parametrize("half_window", [1, 2])
    def test_sweep_ignores_config_half_window(self, tmp_path, half_window):
        # quorums of 2 and 3 give other rows at every swept half window here
        root, _ = make_scenario_dir(
            tmp_path, seed=5, n_frames=30, fp_rate=0.3, dropout=0.3, scene_breaks=(13,)
        )
        plain, configured = tmp_path / "plain.json", tmp_path / "configured.json"
        config = tmp_path / "run.cfg"
        config.write_text(f"half_window = {half_window}\n")
        assert run_cli(TestSweepCommand.sweep_args(root, "1,2,3,4", plain)) == 0
        args = TestSweepCommand.sweep_args(root, "1,2,3,4", configured)
        assert run_cli(args + ["--config", str(config)]) == 0
        assert configured.read_bytes() == plain.read_bytes()

    def test_sweep_checks_set_quorum_at_widest_half_window(self, tmp_path, capsys):
        root, _ = make_scenario_dir(tmp_path, n_frames=10)
        out = tmp_path / "sweep.json"
        args = TestSweepCommand.sweep_args(root, "1,2", out) + ["--fc-quorum", "5"]
        assert run_cli(args) == 1
        assert "fc_quorum must be in [1, 4], got 5" in capsys.readouterr().err
        # 7 fits half window 4 and is lowered to 2 at half window 1
        args = TestSweepCommand.sweep_args(root, "1,4", out) + ["--fc-quorum", "7"]
        assert run_cli(args) == 0


class TestSynthCommand:
    def test_writes_scenario(self, tmp_path, capsys):
        out = tmp_path / "scen"
        code = run_cli(
            ["synth", "--out", str(out), "--seed", "5", "--n-frames", "12", "--preset", "clean"]
        )
        assert code == 0
        assert (out / "frames" / "000000.pgm").exists()
        assert (out / "detections.txt").exists()
        assert (out / "groundtruth.txt").exists()

    def test_round_trips_through_filter_and_eval(self, tmp_path, capsys):
        out = tmp_path / "scen"
        assert run_cli(["synth", "--out", str(out), "--n-frames", "20", "--preset", "clean"]) == 0
        filtered = tmp_path / "filtered.txt"
        assert (
            run_cli(
                [
                    "filter",
                    "--frames",
                    str(out / "frames"),
                    "--detections",
                    str(out / "detections.txt"),
                    "--output",
                    str(filtered),
                ]
            )
            == 0
        )
        assert (
            run_cli(
                [
                    "eval",
                    "--detections",
                    str(filtered),
                    "--ground-truth",
                    str(out / "groundtruth.txt"),
                    "--frame-size",
                    "320x240",
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "sen_pct = 100.00" in text

    def test_ppm_format(self, tmp_path):
        out = tmp_path / "scen"
        code = run_cli(
            ["synth", "--out", str(out), "--n-frames", "3", "--image-format", "ppm", "--preset", "clean"]
        )
        assert code == 0
        assert (out / "frames" / "000000.ppm").exists()


class TestBenchCommand:
    def test_synthetic_bench_small(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = run_cli(
            [
                "bench",
                "--synthetic-frames",
                "40",
                "--frame-size",
                "320x240",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["results"][0]["n_frames"] == 40
        assert data["results"][0]["mpt_ms"] > 0

    def test_json_dash_prints_only_json(self, capsys):
        args = ["bench", "--synthetic-frames", "5", "--frame-size", "160x120", "--json", "-"]
        assert run_cli(args) == 0
        assert json.loads(capsys.readouterr().out)["results"][0]["n_frames"] == 5

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_non_positive_synthetic_frames_exit_1(self, count, capsys):
        code = run_cli(["bench", "--synthetic-frames", count, "--frame-size", "160x120"])
        assert code == 1
        assert "--synthetic-frames" in capsys.readouterr().err


class TestSweepCommand:
    def test_reports_per_half_window(self, tmp_path, capsys):
        root, _ = make_scenario_dir(tmp_path, seed=2, n_frames=30, fp_rate=0.3)
        out = tmp_path / "sweep.json"
        code = run_cli(
            [
                "sweep",
                "--half-window",
                "1,2,3",
                "--frames",
                str(root / "frames"),
                "--detections",
                str(root / "detections.txt"),
                "--ground-truth",
                str(root / "groundtruth.txt"),
                "--json",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert [row["half_window"] for row in data["sweep"]] == [1, 2, 3]
        text = capsys.readouterr().out
        assert "[half_window = 1]" in text

    def test_no_timing_field(self, tmp_path, capsys):
        # the report scores records; mean processing time comes from bench
        root, _ = make_scenario_dir(tmp_path, n_frames=8)
        args = ["sweep", "--half-window", "1,2", "--frames", str(root / "frames")]
        args += ["--detections", str(root / "detections.txt")]
        args += ["--ground-truth", str(root / "groundtruth.txt"), "--json", "-"]
        assert run_cli(args) == 0
        text = capsys.readouterr().out
        assert "mpt" not in text
        rows = json.loads(text)["sweep"]
        assert [row["half_window"] for row in rows] == [1, 2]
        assert all("mpt_ms" not in row for row in rows)

    def test_json_dash_prints_only_json(self, tmp_path, capsys):
        root, _ = make_scenario_dir(tmp_path, n_frames=8)
        assert run_cli(self.sweep_args(root, "2,1", "-")) == 0
        rows = json.loads(capsys.readouterr().out)["sweep"]
        assert [row["half_window"] for row in rows] == [2, 1]

    def test_standard_scenario_precision_trend(self, tmp_path):
        scen = tmp_path / "standard"
        assert run_cli(["synth", "--out", str(scen), "--seed", "0", "--n-frames", "300"]) == 0
        out = tmp_path / "sweep.json"
        code = run_cli(
            [
                "sweep",
                "--half-window",
                "1,2,3,4",
                "--frames",
                str(scen / "frames"),
                "--detections",
                str(scen / "detections.txt"),
                "--ground-truth",
                str(scen / "groundtruth.txt"),
                "--json",
                str(out),
            ]
        )
        assert code == 0
        rows = json.loads(out.read_text())["sweep"]
        assert len(rows) == 4
        precisions = [row["pre_pct"] for row in rows]
        assert all(a <= b for a, b in zip(precisions, precisions[1:]))

    @staticmethod
    def sweep_args(root, half_windows, json_path):
        return [
            "sweep",
            "--half-window",
            half_windows,
            "--frames",
            str(root / "frames"),
            "--detections",
            str(root / "detections.txt"),
            "--ground-truth",
            str(root / "groundtruth.txt"),
            "--json",
            str(json_path),
        ]

    def test_rows_match_process_sequence_per_half_window(self, tmp_path):
        n_frames = 30
        root, _ = make_scenario_dir(
            tmp_path, seed=4, n_frames=n_frames, fp_rate=0.3, dropout=0.1, scene_breaks=(13,)
        )
        out = tmp_path / "sweep.json"
        # unsorted, and one half window longer than the sequence
        half_windows = (3, 1, 4, 2, 40)
        assert run_cli(self.sweep_args(root, ",".join(map(str, half_windows)), out)) == 0

        frames = read_frames(root / "frames")
        dets = parse_detections(root / "detections.txt", 160, 120, n_frames)
        gts = parse_groundtruth(root / "groundtruth.txt", n_frames)
        want = [
            {
                "half_window": n,
                **evaluate_sequences(
                    [(process_sequence(frames, dets, derive_sweep_config(IscuConfig(), n)), gts)]
                ).to_dict(),
            }
            for n in half_windows
        ]
        assert json.loads(out.read_text())["sweep"] == json.loads(json.dumps(want))

    def test_one_band_for_every_half_window(self, tmp_path, monkeypatch):
        # each frame is prepared once and scored against the up to 4 frames
        # before it, however many half windows are swept
        n_frames = 12
        root, _ = make_scenario_dir(tmp_path, seed=5, n_frames=n_frames)
        calls = {"prepare_luma": 0, "ssim": 0}
        for name in calls:
            fn = getattr(correlator, name)

            def counted(*args, _name=name, _fn=fn):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(correlator, name, counted)
        assert run_cli(self.sweep_args(root, "1,2,3,4", tmp_path / "sweep.json")) == 0
        assert calls == {
            "prepare_luma": n_frames,
            "ssim": sum(min(i, 4) for i in range(n_frames)),
        }

    def test_bad_list_exit_1(self, tmp_path, capsys):
        root, _ = make_scenario_dir(tmp_path, seed=3, n_frames=10)
        code = run_cli(
            [
                "sweep",
                "--half-window",
                "1,x",
                "--frames",
                str(root / "frames"),
                "--detections",
                str(root / "detections.txt"),
                "--ground-truth",
                str(root / "groundtruth.txt"),
            ]
        )
        assert code == 1

    def test_half_window_below_one_fails_before_decoding(self, tmp_path, capsys, monkeypatch):
        root, _ = make_scenario_dir(tmp_path, seed=3, n_frames=10)
        decoded = []
        monkeypatch.setattr(cli_mod, "read_frames", decoded.append)
        code = run_cli(
            [
                "sweep",
                "--half-window",
                "1,0",
                "--frames",
                str(root / "frames"),
                "--detections",
                str(root / "detections.txt"),
                "--ground-truth",
                str(root / "groundtruth.txt"),
            ]
        )
        assert code == 1
        assert decoded == []
        captured = capsys.readouterr()
        assert captured.out == ""  # no half window reported before the failure
        assert "half window must be >= 1, got 0" in captured.err


class TestColourFrames:
    def test_filter_matches_gray_frames_of_oracle_luma(self, tmp_path, capsys):
        # colour frames whose channels differ give the same filter output and
        # stdout, byte for byte, as PGM frames holding the oracle's luma
        track = TrackSpec(
            start=BoundingBox(30.0, 25.0, 90.0, 80.0),
            velocity=(2.0, 1.0),
            wobble_amplitude=(0.0, 0.0),
            wobble_period=(7.0, 9.0),
        )
        cfg = ScenarioConfig(
            frame_w=200,
            frame_h=150,
            n_frames=12,
            rng_seed=6,
            tracks=(track,),
            scene_break_frames=frozenset({6}),
        )
        r = np.random.default_rng(6)
        rasters = []
        for frame in generate_scenario(cfg).frames:
            s = frame.samples.astype(np.int16)
            rgb = np.stack([s, 255 - s, s // 2 + 64], axis=2) + r.integers(-10, 11, (*s.shape, 3))
            rasters.append(np.clip(rgb, 0, 255).astype(np.uint8))
        assert all((rgb[..., 0] != rgb[..., 1]).mean() > 0.9 for rgb in rasters)
        colour, gray = tmp_path / "colour", tmp_path / "gray"
        colour.mkdir()
        for i, rgb in enumerate(rasters):
            header = f"P6\n{cfg.frame_w} {cfg.frame_h}\n255\n".encode("ascii")
            (colour / f"{i:06d}.ppm").write_bytes(header + rgb.tobytes())
        write_frames(gray, [GrayFrame.from_array(naive_luma(rgb)) for rgb in rasters])
        # the track, missed in frames 3 and 8, and two transient false positives
        track_rows = (f"{i} {30 + 2 * i} {25 + i} {90 + 2 * i} {80 + i} 0.9" for i in range(12))
        lines = [row for i, row in enumerate(track_rows) if i not in (3, 8)]
        lines += ["4 150 100 180 130 0.8", "10 5 110 35 140 0.7"]
        dets = tmp_path / "detections.txt"
        dets.write_text("\n".join(lines) + "\n")
        out = tmp_path / "filtered.txt"
        runs = []
        for frames in (colour, gray):
            args = ["filter", "--frames", str(frames), "--detections", str(dets)]
            assert run_cli(args + ["--output", str(out)]) == 0
            runs.append((out.read_bytes(), capsys.readouterr().out))
        assert runs[0] == runs[1]
        assert "removed = 0" not in runs[0][1] and "added = 0" not in runs[0][1]
        # the decisions above hold under small luma errors; 6-digit SSIM does not
        for i, j in [(0, 1), (5, 6)]:
            printed = []
            for frames, ext in ((colour, "ppm"), (gray, "pgm")):
                pair = [str(frames / f"{k:06d}.{ext}") for k in (i, j)]
                assert run_cli(["ssim", *pair]) == 0
                printed.append(capsys.readouterr().out)
            assert printed[0] == printed[1]


class TestBadFrameMidSequence:
    """A later frame is checked as it is decoded; the run still fails with
    exit 1, names the file and writes no output."""

    MESSAGE = {
        "size": "mixed frame dimensions: 000005.pgm is 150x120, expected 160x120",
        "truncated": "000005.pgm: raster truncated",
    }

    @pytest.mark.parametrize("kind", ["size", "truncated"])
    @pytest.mark.parametrize("command", ["filter", "sweep"])
    def test_exit_1_names_file_writes_nothing(self, tmp_path, capsys, command, kind):
        root, _ = make_scenario_dir(tmp_path, n_frames=12)
        bad = root / "frames" / "000005.pgm"
        if kind == "size":
            write_pgm(bad, GrayFrame.from_array(np.zeros((120, 150), dtype=np.uint8)))
        else:
            bad.write_bytes(bad.read_bytes()[:-100])
        out = tmp_path / "out"
        args = [
            command,
            "--frames",
            str(root / "frames"),
            "--detections",
            str(root / "detections.txt"),
        ]
        if command == "filter":
            args += ["--output", str(out)]
        else:
            args += ["--half-window", "1,2", "--ground-truth", str(root / "groundtruth.txt")]
            args += ["--json", str(out)]
        assert run_cli(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert self.MESSAGE[kind] in captured.err
        assert not out.exists()


class TestFilterOutputDash:
    def test_dash_output_exit_1_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # '-' is not stdout for filter: the records would mix with the
        # summary lines, and it must not become a file named '-' either
        root, _ = make_scenario_dir(tmp_path, n_frames=6)
        monkeypatch.chdir(tmp_path)
        args = ["--frames", str(root / "frames"), "--detections", str(root / "detections.txt")]
        assert run_cli(["filter", *args, "--output", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--output" in captured.err
        assert not (tmp_path / "-").exists()


@pytest.mark.parametrize("command", ["filter", "eval", "bench", "sweep"])
def test_unwritable_target_names_path_once(tmp_path, capsys, command):
    # a target in a missing directory gets write_file's message, which names
    # the path once and its directory nowhere else
    root, _ = make_scenario_dir(tmp_path, n_frames=6)
    out = tmp_path / "nodir" / "o.txt"
    frames = ["--frames", str(root / "frames")]
    dets = ["--detections", str(root / "detections.txt")]
    gts = ["--ground-truth", str(root / "groundtruth.txt")]
    args = {
        "filter": ["filter", *frames, *dets, "--output", str(out)],
        "eval": ["eval", *dets, *gts, "--json", str(out)],
        "bench": ["bench", "--synthetic-frames", "2", "--frame-size", "32x32", "--json", str(out)],
        "sweep": ["sweep", "--half-window", "1", *frames, *dets, *gts, "--json", str(out)],
    }[command]
    assert run_cli(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"
    assert captured.err.count(str(out.parent)) == 1
    assert not out.parent.exists()


CONFIG_FLAGS = {
    "--config",
    "--half-window",
    "--similarity-threshold",
    "--confidence-gate",
    "--fc-quorum",
    "--fill-quorum",
    "--fill-iou",
    "--downsample-w",
    "--downsample-h",
}

# every subcommand's flag set as --help prints it; adding or removing a flag
# is an edit here
HELP_FLAGS = {
    "filter": {"--frames", "--detections", "--output", *CONFIG_FLAGS},
    "eval": {"--detections", "--ground-truth", "--num-frames", "--frame-size", "--json"},
    "ssim": {"--config", "--downsample-w", "--downsample-h"},
    "synth": {"--out", "--seed", "--n-frames", "--preset", "--frame-size", "--image-format"},
    "bench": {"--synthetic-frames", "--frame-size", "--json", *CONFIG_FLAGS},
    "sweep": {"--frames", "--detections", "--ground-truth", "--json", *CONFIG_FLAGS},
}


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_help_lists_exactly_the_pinned_flags(capsys, command):
    assert run_cli([command, "--help"]) == 0
    flags = {word for word in capsys.readouterr().out.split() if word.startswith("--")}
    assert flags == {"--help", *HELP_FLAGS[command]}


class TestExitCodes:
    @pytest.mark.parametrize("cut", ["-1", "1"])
    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_iou_cut_out_of_range_exit_1(self, tmp_path, capsys, command, cut):
        # The cut is fixed at IOU_CUT, so an out-of-range value on the command
        # line is refused as an unknown flag rather than silently ignored.
        root, _ = make_scenario_dir(tmp_path, seed=4, n_frames=10)
        args = [
            "--detections",
            str(root / "detections.txt"),
            "--ground-truth",
            str(root / "groundtruth.txt"),
            "--iou-cut",
            cut,
        ]
        if command == "sweep":
            args += ["--half-window", "1", "--frames", str(root / "frames")]
        assert run_cli([command, *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --iou-cut {cut}" in captured.err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("eval", "--iou-cut", "0.5"),
            ("sweep", "--iou-cut", "0.5"),
            ("synth", "--fp-rate", "0.1"),
            ("synth", "--fp-lifetime", "2"),
            ("synth", "--dropout-rate", "0.1"),
            ("synth", "--scene-breaks", "1"),
            ("bench", "--seed", "1"),
        ],
    )
    def test_removed_flag_unrecognized_exit_1(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        if command == "synth":
            args = ["--out", str(out), "--n-frames", "3"]
        elif command == "bench":
            args = ["--synthetic-frames", "3", "--frame-size", "160x120", "--json", str(out)]
        else:
            root, _ = make_scenario_dir(tmp_path, seed=4, n_frames=10)
            args = [
                "--detections",
                str(root / "detections.txt"),
                "--ground-truth",
                str(root / "groundtruth.txt"),
                "--json",
                str(out),
            ]
            if command == "sweep":
                args += ["--half-window", "1", "--frames", str(root / "frames")]
        assert run_cli([command, *args, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err
        assert not out.exists()

    def test_missing_detection_file_exit_1(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("0 p1 20 20 10 10\n")
        code = run_cli(
            ["eval", "--detections", str(tmp_path / "absent.txt"), "--ground-truth", str(gt)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert err.count(str(tmp_path / "absent.txt")) == 1

    def test_missing_image_exit_1(self, tmp_path, capsys):
        code = run_cli(["ssim", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")])
        assert code == 1
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert err.count(str(tmp_path / "a.pgm")) == 1

    @pytest.mark.parametrize("which", ["detections", "ground_truth", "config"])
    def test_non_utf8_file_exit_1(self, tmp_path, capsys, which):
        root, _ = make_scenario_dir(tmp_path, seed=4, n_frames=10)
        paths = {
            "detections": root / "detections.txt",
            "ground_truth": root / "groundtruth.txt",
            "config": tmp_path / "run.cfg",
        }
        paths["config"].write_text("fill_iou = 0.5\n")
        bad = paths[which]
        head = bad.read_bytes().split(b"\n", 1)[0] + b"\n"
        bad.write_bytes(head + b"0 \xff\n")
        args = ["sweep", "--half-window", "1", "--frames", str(root / "frames")]
        args += ["--detections", str(paths["detections"])]
        args += ["--ground-truth", str(paths["ground_truth"]), "--config", str(paths["config"])]
        assert run_cli(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot read {bad}: not UTF-8 text at byte {len(head) + 2}\n"
        )

    def test_unknown_subcommand_usage_error(self, capsys):
        assert run_cli(["defrag"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run_cli(["eval", "--bogus"]) == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "filter" in capsys.readouterr().out

    def test_internal_error_exit_2(self, tmp_path, capsys, monkeypatch):
        det = tmp_path / "det.txt"
        gt = tmp_path / "gt.txt"
        det.write_text("0 1 1 2 2 0.5\n")
        gt.write_text("0 p1 5 5 4 4\n")

        def boom(*a, **kw):
            raise RuntimeError("corrupted state")

        monkeypatch.setattr(cli_mod, "evaluate_sequences", boom)
        code = run_cli(["eval", "--detections", str(det), "--ground-truth", str(gt)])
        assert code == 2
        assert "internal error" in capsys.readouterr().err
