"""Command-line surface: filter, eval, ssim, synth, bench, sweep.

Exit codes: 0 success, 1 input error (bad flags, malformed files), 2
internal invariant violation. Reports are printed as ``key = value`` text;
``--json`` writes the same report as JSON, and ``--json -`` prints the JSON
alone in place of the text.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys
from pathlib import Path

from .benchmark import bench_correlator, make_bench_detections, make_bench_frames
from .config import (
    CONFIG_KEYS,
    ISCU_KEYS,
    build_run_config,
    derive_sweep_config,
    parse_config_file,
)
from .correlator import process_sequence, sweep_sequence
from .errors import InputError
from .evaluation import EvalReport, evaluate_sequences
from .formats import (
    MAX_FRAMES,
    parse_detections,
    parse_groundtruth,
    read_frames,
    read_image,
    write_detections,
    write_file,
    write_frames,
    write_groundtruth,
)
from .similarity import prepare_luma, ssim
from .synthetic import ScenarioConfig, TrackSpec, generate_scenario, standard_noise_config
from .geometry import BoundingBox


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(p: argparse.ArgumentParser, exclude: tuple[str, ...] = ()) -> None:
    p.add_argument("--config", help="key = value config file; flags override it")
    for key, typ in CONFIG_KEYS.items():
        if key in exclude:
            continue
        p.add_argument(f"--{key.replace('_', '-')}", type=typ, default=None, dest=key)


def _run_config(args: argparse.Namespace, *fixed):
    """The run's ``IscuConfig`` from the config file, then the flags, then
    ``fixed`` sources, later wins."""
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {key: getattr(args, key, None) for key in CONFIG_KEYS}
    return build_run_config(file_values, overrides, *fixed)


def _parse_size(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        w, h = int(w), int(h)
    except ValueError:
        raise InputError(f"expected WIDTHxHEIGHT, got {text!r}") from None
    if w <= 0 or h <= 0:
        raise InputError(f"frame size must be positive, got {text!r}")
    return w, h


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise InputError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _load_sequence(frames_dir: str, det_path: str):
    """A directory's frames, still to be decoded (``read_frames``), and its
    detection records parsed at the first frame's size and checked against
    the frame count."""
    frames = read_frames(frames_dir)
    return frames, parse_detections(det_path, frames.width, frames.height, len(frames))


def _report_lines(report: EvalReport) -> list[str]:
    lines = []
    for key, value in report.to_dict().items():
        if value is None:
            text = "n/a"
        elif key.endswith("_pct"):
            text = f"{value:.2f}"
        elif isinstance(value, float):
            text = f"{value:.4f}"
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return lines


def _check_writable(path: str | None) -> None:
    """Fail before any work when `path` would be written into a directory
    that does not exist, with the message ``write_file`` gives for it. '-'
    passes: ``--json -`` writes to stdout, and ``filter`` rejects it for
    ``--output`` itself."""
    if path and path != "-" and not Path(path).parent.is_dir():
        raise InputError(f"cannot write {path}: {os.strerror(errno.ENOENT)}")


def _report(json_path: str | None, lines: list[str], payload: dict) -> None:
    """Print a report's text lines and, when ``json_path`` is given, write
    ``payload`` there as JSON; ``-`` prints the JSON in place of the text."""
    if json_path != "-":
        for line in lines:
            print(line)
    if json_path:
        text = json.dumps(payload, indent=2, sort_keys=True)
        if json_path == "-":
            print(text)
        else:
            write_file(json_path, text + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_filter(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    if args.output == "-":
        # the records would mix with the summary lines on stdout
        raise InputError("filter --output must be a file, not '-' (stdout)")
    _check_writable(args.output)
    frames, dets = _load_sequence(args.frames, args.detections)
    results = process_sequence(frames, dets, cfg)
    write_detections(args.output, results, include_origin=True)
    kept = sum(len(r.kept) for r in results)
    added = sum(len(r.added) for r in results)
    removed = sum(r.removed_count for r in results)
    print(f"frames = {len(results)}")
    print(f"kept = {kept}")
    print(f"added = {added}")
    print(f"removed = {removed}")
    print(f"output = {args.output}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    if len(args.detections) != len(args.ground_truth):
        raise InputError(
            f"{len(args.detections)} detection files but "
            f"{len(args.ground_truth)} ground-truth files"
        )
    if args.num_frames and len(args.num_frames) != len(args.detections):
        raise InputError("--num-frames must list one value per sequence")
    for n in args.num_frames or ():
        if not 0 <= n <= MAX_FRAMES:
            raise InputError(f"--num-frames {n} outside [0, {MAX_FRAMES}]")
    _check_writable(args.json)

    # without --frame-size each detection file sets its own frame size
    w, h = _parse_size(args.frame_size) if args.frame_size else (None, None)
    sequences = []
    for i, (det_path, gt_path) in enumerate(zip(args.detections, args.ground_truth)):
        declared = args.num_frames[i] if args.num_frames else None
        dets = parse_detections(det_path, w, h, declared)
        gts = parse_groundtruth(gt_path, declared)
        dets += [() for _ in range(len(dets), len(gts))]  # frames with no detections
        gts += [[] for _ in range(len(gts), len(dets))]
        sequences.append((dets, gts))

    report = evaluate_sequences(sequences)
    _report(args.json, _report_lines(report), report.to_dict())
    return 0


def _cmd_ssim(args: argparse.Namespace) -> int:
    p = _run_config(args).ssim_params
    a = prepare_luma(read_image(args.images[0]), p)
    b = prepare_luma(read_image(args.images[1]), p)
    value = ssim(a, b)
    print(f"ssim = {value:.6f}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.preset == "standard":
        cfg = standard_noise_config(args.seed, args.n_frames)
    else:
        track = TrackSpec(
            start=BoundingBox(60.0, 60.0, 100.0, 100.0),
            velocity=(0.15, 0.1),
            wobble_amplitude=(2.0, 2.0),
            wobble_period=(61.0, 47.0),
        )
        cfg = ScenarioConfig(
            n_frames=args.n_frames, rng_seed=args.seed, tracks=(track,)
        )
    if args.frame_size:
        w, h = _parse_size(args.frame_size)
        cfg = dataclasses.replace(cfg, frame_w=w, frame_h=h)

    scenario = generate_scenario(cfg)
    out = Path(args.out)
    write_frames(out / "frames", scenario.frames, args.image_format)
    write_detections(out / "detections.txt", scenario.raw_detections)
    write_groundtruth(out / "groundtruth.txt", scenario.ground_truth)
    print(f"frames = {cfg.n_frames}")
    print(f"tracks = {len(cfg.tracks)}")
    print(f"out = {out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    _check_writable(args.json)
    if args.synthetic_frames < 1:
        raise InputError(f"--synthetic-frames must be >= 1, got {args.synthetic_frames}")
    w, h = _parse_size(args.frame_size)
    pool = make_bench_frames(w, h)
    dets = make_bench_detections(w, h, args.synthetic_frames)

    result = bench_correlator(pool, dets, cfg)
    lines = [
        f"n_frames = {result.n_frames}",
        f"mpt_ms = {result.mpt_ms:.4f}",
        f"max_ms = {result.max_ms:.4f}",
    ]
    payload = {"frame_size": f"{w}x{h}", "results": [dataclasses.asdict(result)]}
    _report(args.json, lines, payload)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    half_windows = _int_list(args.half_windows, "--half-window")
    if not half_windows:
        raise InputError("--half-window list is empty")
    for n in half_windows:
        if n < 1:
            raise InputError(f"half window must be >= 1, got {n}")
    # the base stands at the widest swept window, whatever half_window a
    # config file gives: a quorum set above it fits no swept window
    base = _run_config(args, {"half_window": max(half_windows)})
    _check_writable(args.json)

    frames, dets = _load_sequence(args.frames, args.detections)
    gts = parse_groundtruth(args.ground_truth, len(frames))

    cfgs = [derive_sweep_config(base, n) for n in half_windows]
    lines, payload = [], []
    for n, results in zip(half_windows, sweep_sequence(frames, dets, cfgs)):
        report = evaluate_sequences([(results, gts)])
        lines += [f"[half_window = {n}]", *_report_lines(report)]
        payload.append({"half_window": n, **report.to_dict()})
    _report(args.json, lines, {"sweep": payload})
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polypstream", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="correlate detections across frames")
    p.add_argument("--frames", required=True, help="directory of PGM/PPM frames")
    p.add_argument("--detections", required=True, help="detection records file")
    p.add_argument("--output", required=True, help="filtered detection records (with origin column)")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("eval", help="score detections against ground truth")
    p.add_argument("--detections", nargs="+", required=True)
    p.add_argument("--ground-truth", nargs="+", required=True)
    p.add_argument("--num-frames", nargs="+", type=int, default=None)
    p.add_argument("--frame-size", help="WxH used to clip records (inferred when absent)")
    p.add_argument("--json", help="also write the report as JSON ('-': JSON alone on stdout)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ssim", help="similarity score of two frames")
    p.add_argument("images", nargs=2)
    _add_config_flags(p, exclude=ISCU_KEYS)
    p.set_defaults(func=_cmd_ssim)

    p = sub.add_parser("synth", help="generate a synthetic scenario")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-frames", type=int, default=300)
    p.add_argument("--preset", choices=("standard", "clean"), default="standard")
    p.add_argument("--frame-size")
    p.add_argument("--image-format", choices=("pgm", "ppm"), default="pgm")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("bench", help="per-frame timing of the correlation unit")
    p.add_argument("--synthetic-frames", type=int, default=1000)
    p.add_argument("--frame-size", default="1280x1080")
    p.add_argument("--json")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("sweep", help="evaluate across half-window sizes")
    p.add_argument(
        "--half-window", dest="half_windows", required=True, help="comma-separated sizes"
    )
    p.add_argument("--frames", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--json")
    _add_config_flags(p, exclude=("half_window",))
    p.set_defaults(func=_cmd_sweep)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
