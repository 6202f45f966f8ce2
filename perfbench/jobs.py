"""The three jobs run on every workload, and the correctness gate.

* filter -- ``polypstream filter`` as a child process, file to file.
* stream -- an in-process closed loop over frames decoded beforehand: the
  next ``push_frame`` starts only after the previous one returned.
* sweep  -- ``polypstream sweep --half-window 1,2,3,4`` as a child process.

The reference every output is checked against comes from the independent
naive oracle in ``tests/oracles.py`` (explicit windows, no caching), computed
once per invocation.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from polypstream import IscuConfig, StreamCorrelator, formats
from polypstream.evaluation import evaluate_sequences
from polypstream.geometry import BoxOrigin
from polypstream.similarity import prepare_luma

from workloads import ROOT, Workload

SWEEP_HALF_WINDOWS = (1, 2, 3, 4)
_ORIGIN_TOKEN = {BoxOrigin.DETECTOR: "det", BoxOrigin.INTERPOLATED: "interp"}


def _load_oracles():
    spec = importlib.util.spec_from_file_location("polypstream_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_config(half_window: int, base: IscuConfig) -> IscuConfig:
    """The operating point ``sweep`` documents for one half window: `base`
    with both quorums clamped to the neighbour count."""
    full = 2 * half_window
    return dataclasses.replace(
        base,
        half_window=half_window,
        fc_quorum=min(base.fc_quorum, full),
        fill_quorum=min(base.fill_quorum, full),
    )


def records_text(results) -> str:
    """Filtered records in the documented file format (6 significant digits)."""
    lines = []
    for r in results:
        for sb in r.kept + r.added:
            b = sb.box
            values = " ".join(f"{v:.6g}" for v in (b.x_min, b.y_min, b.x_max, b.y_max, sb.confidence))
            lines.append(f"{r.meta.frame_index} {values} {_ORIGIN_TOKEN[sb.origin]}")
    return "".join(line + "\n" for line in lines)


@dataclass
class Reference:
    """Expected outputs of one workload, from the naive oracle."""

    stream: list  # FilteredFrame per frame, default config
    filter_text: str
    sweep: list  # one report dict per half window, as ``sweep --json`` writes it

    @classmethod
    def build(cls, frames, dets, gts) -> "Reference":
        oracles = _load_oracles()
        cfg = IscuConfig()
        # Comparison luma is computed once; the oracle passes frames that are
        # already at comparison size through prepare_luma unchanged.
        lumas = [prepare_luma(f, cfg.ssim_params) for f in frames]
        by_window = {
            h: oracles.naive_filter_sequence(lumas, dets, sweep_config(h, cfg))
            for h in sorted({cfg.half_window, *SWEEP_HALF_WINDOWS})
        }
        sweep = [
            {"half_window": h, **evaluate_sequences([(by_window[h], gts)]).to_dict()}
            for h in SWEEP_HALF_WINDOWS
        ]
        default = by_window[cfg.half_window]
        return cls(default, records_text(default), sweep)


class Tally:
    """Attempted and failed operations: set-up launches, filter runs, sweep
    runs and stream frames."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def stream_mismatches(emitted, reference) -> int:
    """Frames whose emission differs from the reference, missing or extra."""
    wrong = sum(1 for a, b in zip(emitted, reference) if a != b)
    return wrong + abs(len(emitted) - len(reference))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], log_path: Path) -> tuple[int, float, float]:
    """Run ``python <args>`` to completion: (exit code, wall s, peak RSS MB).

    Peak RSS is the child's own ``ru_maxrss`` from ``os.wait4``.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=child_env()
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


def filter_args(ws: Workload, out_path: Path) -> list[str]:
    return [
        "filter", "--frames", str(ws.frames_dir), "--detections", str(ws.det_path),
        "--output", str(out_path),
    ]


def sweep_args(ws: Workload, json_path: Path) -> list[str]:
    return [
        "sweep", "--half-window", ",".join(map(str, SWEEP_HALF_WINDOWS)),
        "--frames", str(ws.frames_dir), "--detections", str(ws.det_path),
        "--ground-truth", str(ws.gt_path), "--json", str(json_path),
    ]


def filter_ok(rc: int, out_path: Path, ref: Reference) -> bool:
    return rc == 0 and out_path.is_file() and out_path.read_text(encoding="utf-8") == ref.filter_text


def sweep_ok(rc: int, json_path: Path, ref: Reference) -> bool:
    if rc != 0 or not json_path.is_file():
        return False
    return json.loads(json_path.read_text(encoding="utf-8")).get("sweep") == ref.sweep


def filter_job(ws: Workload, ref: Reference, tally: Tally, work: Path) -> tuple[bool, float, float]:
    """One file-to-file ``filter`` run: (correct, wall s, peak RSS MB)."""
    out = work / "filter_out.txt"
    out.unlink(missing_ok=True)
    rc, wall, rss = run_child(["-m", "polypstream.cli", *filter_args(ws, out)], work / "filter.log")
    ok = filter_ok(rc, out, ref)
    tally.record(1, 0 if ok else 1)
    return ok, wall, rss


def sweep_job(ws: Workload, ref: Reference, tally: Tally, work: Path) -> tuple[bool, float]:
    """One ``sweep`` run over every half window: (correct, wall s)."""
    out = work / "sweep.json"
    out.unlink(missing_ok=True)
    rc, wall, _ = run_child(["-m", "polypstream.cli", *sweep_args(ws, out)], work / "sweep.log")
    ok = sweep_ok(rc, out, ref)
    tally.record(1, 0 if ok else 1)
    return ok, wall


def _unwrapped(name, fn):
    return fn


def stream_job(frames, dets, ref: Reference, tally: Tally, wrap=_unwrapped):
    """One closed-loop pass, checked frame by frame against the reference.

    Returns (per-push ns, flush ns, emitted frames). The traced run passes a
    `wrap(name, method)` that records a span around each call.
    """
    correlator = StreamCorrelator(IscuConfig())
    push = wrap("correlator.push_frame", correlator.push_frame)
    flush = wrap("correlator.flush", correlator.flush)
    clock = time.perf_counter_ns
    push_ns = []
    emitted = []
    for frame, d in zip(frames, dets):
        t0 = clock()
        out = push(frame, d)
        push_ns.append(clock() - t0)
        if out is not None:
            emitted.append(out)
    t0 = clock()
    emitted.extend(flush())
    flush_ns = clock() - t0
    tally.record(len(ref.stream), stream_mismatches(emitted, ref.stream))
    return push_ns, flush_ns, emitted
