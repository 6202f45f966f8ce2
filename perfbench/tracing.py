"""Spans and counters recorded from outside the package, for the traced run.

Wrappers are installed at the names the package looks up at call time (a
module attribute read on every call), so no package code changes. A name
that a later refactor removed is listed in ``Tracer.absent`` and the metrics
that need it are left out instead of failing the run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

# (module, attribute, span name); a span name of None means count calls only.
TARGETS = (
    ("polypstream.correlator", "prepare_luma", "similarity.prepare_luma"),
    ("polypstream.correlator", "ssim", "similarity.ssim"),
    ("polypstream.correlator", "eliminate_noise", "correlator.eliminate_noise"),
    ("polypstream.correlator", "correct_missed", "correlator.correct_missed"),
    ("polypstream.correlator", "iou", None),
    ("polypstream.kernels", "box_downsample", "kernels.box_downsample"),
    ("polypstream.kernels", "luma", "kernels.luma"),
    ("polypstream.kernels", "ssim_stats", "kernels.ssim_stats"),
    ("polypstream.formats", "read_image", "formats.read_image"),
    ("polypstream.cli", "read_frames", "formats.read_frames"),
    ("polypstream.cli", "parse_detections", "formats.parse_detections"),
    ("polypstream.cli", "write_detections", "formats.write_detections"),
    ("polypstream.cli", "evaluate_sequences", "evaluation.evaluate_sequences"),
)
IOU_CALLS = "geometry.iou.calls"
DECODED_BYTES = "formats.read_image.bytes"
SCORED_BOXES = "evaluation.boxes_scored"


@dataclass(slots=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index of the enclosing span
    frame: int | None  # frame index of the push this span belongs to
    job: str
    cycle: int


def _result_bytes(args, result) -> int:
    return result.samples.nbytes


def _scored_boxes(args, result) -> int:
    return sum(len(getattr(d, "boxes", d)) for dets, _ in args[0] for d in dets)


_MEASURES = {
    "formats.read_image": (DECODED_BYTES, _result_bytes),
    "evaluation.evaluate_sequences": (SCORED_BOXES, _scored_boxes),
}
_COUNTED_BY = {counter: span for span, (counter, _) in _MEASURES.items()}


class Tracer:
    """Keeps every span in memory; `write` dumps them when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[tuple[int, str, str], int] = defaultdict(int)  # (cycle, job, name)
        self.absent: list[str] = []
        self.job = ""
        self.cycle = 0
        self.frame: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around every call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        measure = _MEASURES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = Span(name, t0, t1, parent, self.frame, self.job, self.cycle)
            if measure is not None:
                self.counts[(self.cycle, self.job, measure[0])] += measure[1](args, result)
            return result

        return traced

    def wrap_stream(self, name: str, fn):
        """`wrap` for the stream loop: spans under a push carry its frame index."""
        traced = self.wrap(name, fn)
        if name != "correlator.push_frame":
            return traced

        def push(frame, dets):
            self.frame = dets.meta.frame_index
            try:
                return traced(frame, dets)
            finally:
                self.frame = None

        return push

    def _counter(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(self.cycle, self.job, IOU_CALLS)] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self, job: str):
        """Wrap every target for the duration of one job."""
        self.job = job
        saved = []
        try:
            for module_name, attr, span_name in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    label = span_name or IOU_CALLS
                    if label not in self.absent:
                        self.absent.append(label)
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._counter(fn) if span_name is None else self.wrap(span_name, fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
            self.job = ""

    def write(self, path: Path) -> None:
        fields = ("name", "start_ns", "end_ns", "parent", "frame", "job", "cycle")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": fields, "spans": [[getattr(s, k) for k in fields] for s in self.spans]}, f)


@dataclass
class LayerTimes:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def layer_times(spans: list[Span], cycle: int) -> dict[tuple[str, str], LayerTimes]:
    """(job, span name) -> calls, total and self time, for one cycle.

    Self time is a span's duration minus the time its direct children cover
    (one thread, so children never overlap each other).
    """
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.cycle == cycle and s.parent is not None:
            child_ns[s.parent] += s.end_ns - s.start_ns
    out: dict[tuple[str, str], LayerTimes] = defaultdict(LayerTimes)
    for idx, s in enumerate(spans):
        if s.cycle != cycle:
            continue
        t = out[(s.job, s.name)]
        d = s.end_ns - s.start_ns
        t.calls += 1
        t.total_ns += d
        t.self_ns += d - child_ns.get(idx, 0)
    return out


# metric name -> (job it is taken from, span or counter, statistic)
LAYER_METRICS = {
    "formats.read_image.self_ms_per_frame": ("filter", "formats.read_image", "self_ms_per_frame"),
    "formats.read_image.mb_per_frame": ("filter", DECODED_BYTES, "mb_per_frame"),
    "formats.parse_detections.ms": ("filter", "formats.parse_detections", "ms"),
    "formats.write_detections.ms": ("filter", "formats.write_detections", "ms"),
    "kernels.luma.ms_per_frame": ("filter", "kernels.luma", "ms_per_frame"),
    "kernels.box_downsample.ms_per_frame": ("stream", "kernels.box_downsample", "ms_per_frame"),
    "kernels.box_downsample.calls_per_frame": ("stream", "kernels.box_downsample", "calls_per_frame"),
    "kernels.ssim_stats.us_per_call": ("stream", "kernels.ssim_stats", "us_per_call"),
    "kernels.ssim_stats.calls_per_frame": ("stream", "kernels.ssim_stats", "calls_per_frame"),
    "similarity.prepare_luma.self_ms_per_frame": ("stream", "similarity.prepare_luma", "self_ms_per_frame"),
    "similarity.ssim.self_us_per_call": ("stream", "similarity.ssim", "self_us_per_call"),
    "correlator.push_frame.self_ms_per_frame": ("stream", "correlator.push_frame", "self_ms_per_frame"),
    "correlator.flush.ms": ("stream", "correlator.flush", "ms"),
    "correlator.eliminate_noise.ms_per_frame": ("stream", "correlator.eliminate_noise", "ms_per_frame"),
    "correlator.correct_missed.ms_per_frame": ("stream", "correlator.correct_missed", "ms_per_frame"),
    "geometry.iou.calls_per_frame": ("stream", IOU_CALLS, "count_per_frame"),
    "evaluation.evaluate_sequences.ms_per_frame": ("sweep", "evaluation.evaluate_sequences", "ms_per_frame"),
    "evaluation.boxes_scored_per_frame": ("sweep", SCORED_BOXES, "count_per_frame"),
}


STAT_UNITS = {
    "ms": "ms",
    "ms_per_frame": "ms/frame",
    "self_ms_per_frame": "ms/frame",
    "calls_per_frame": "calls/frame",
    "us_per_call": "us/call",
    "self_us_per_call": "us/call",
    "count_per_frame": "count/frame",
    "mb_per_frame": "MB/frame",
}


def layer_metrics(tracer: Tracer, cycle: int, frames_per_job: dict[str, int]):
    """The LAYER_METRICS of one traced cycle, minus those whose target is
    absent, and the stream job's summed self time per frame.

    "Per frame" divides by the frames the job processed; for sweep that is
    frames x half windows.
    """
    times = layer_times(tracer.spans, cycle)
    out = {}
    for metric, (job, name, stat) in LAYER_METRICS.items():
        if _COUNTED_BY.get(name, name) in tracer.absent:
            continue
        n = frames_per_job[job]
        t = times.get((job, name), LayerTimes())
        count = tracer.counts.get((cycle, job, name), 0)
        out[metric] = {
            "ms": t.total_ns / 1e6,
            "ms_per_frame": t.total_ns / 1e6 / n,
            "self_ms_per_frame": t.self_ns / 1e6 / n,
            "calls_per_frame": t.calls / n,
            "us_per_call": t.total_ns / 1e3 / t.calls if t.calls else 0.0,
            "self_us_per_call": t.self_ns / 1e3 / t.calls if t.calls else 0.0,
            "count_per_frame": count / n,
            "mb_per_frame": count / 1e6 / n,
        }[stat]
    stream_self_ns = sum(t.self_ns for (job, _), t in times.items() if job == "stream")
    return out, stream_self_ns / 1e6 / frames_per_job["stream"]
