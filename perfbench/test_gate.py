"""Tests of the benchmark's own machinery: the correctness gate counts a wrong
box and a non-zero exit, absent trace targets do not crash, and the entry
point refuses to run without the package.

    python3 -m pytest perfbench/test_gate.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import polypstream.cli  # noqa: E402,F401  (imported before any target is removed, as in a run)
from polypstream import BoundingBox, formats, kernels  # noqa: E402


def _tiny_inputs(work):
    """A 40-frame version of dense_boxes."""
    spec = workloads.SPECS["dense_boxes"]
    workloads.SPECS["dense_boxes"] = dataclasses.replace(spec, n_frames=40)
    try:
        return workloads.materialize("dense_boxes", 3, work)
    finally:
        workloads.SPECS["dense_boxes"] = spec


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The tiny workload, decoded, with its reference."""
    work = tmp_path_factory.mktemp("work")
    ws = _tiny_inputs(work)
    frames = [formats.read_image(p) for p in sorted(ws.frames_dir.iterdir())]
    dets = formats.parse_detections(ws.det_path, ws.width, ws.height, ws.n_frames)
    gts = formats.parse_groundtruth(ws.gt_path, ws.n_frames)
    return ws, frames, dets, jobs.Reference.build(frames, dets, gts), work


def _shift_first_box(result):
    """`result` with its first box moved one pixel right."""
    kept = result.kept or result.added
    sb = kept[0]
    b = sb.box
    moved = dataclasses.replace(sb, box=BoundingBox(b.x_min + 1, b.y_min, b.x_max + 1, b.y_max))
    if result.kept:
        return dataclasses.replace(result, kept=(moved, *result.kept[1:]))
    return dataclasses.replace(result, added=(moved, *result.added[1:]))


def test_correct_outputs_count_no_failure(tiny):
    ws, frames, dets, ref, work = tiny
    assert any(r.kept or r.added for r in ref.stream)
    tally = jobs.Tally()
    assert jobs.filter_job(ws, ref, tally, work)[0]
    jobs.stream_job(frames, dets, ref, tally)
    assert jobs.sweep_job(ws, ref, tally, work)[0]
    assert (tally.attempted, tally.failed) == (2 + ws.n_frames, 0)


def test_wrong_box_in_stream_is_counted(tiny):
    ws, frames, dets, ref, _ = tiny
    target = next(r.meta.frame_index for r in ref.stream if r.kept or r.added)

    def wrap(name, method):
        if name == "correlator.flush":
            return lambda: [_shift_first_box(r) if r.meta.frame_index == target else r for r in method()]

        def push(frame, d):
            out = method(frame, d)
            return _shift_first_box(out) if out is not None and out.meta.frame_index == target else out

        return push

    tally = jobs.Tally()
    jobs.stream_job(frames, dets, ref, tally, wrap=wrap)
    assert (tally.attempted, tally.failed) == (ws.n_frames, 1)


def test_wrong_box_in_filter_output_is_counted(tiny, monkeypatch):
    ws, _, _, ref, work = tiny
    real_run_child = jobs.run_child

    def run_then_corrupt(args, log_path):
        result = real_run_child(args, log_path)
        out = Path(args[args.index("--output") + 1])
        first, *rest = out.read_text().splitlines(keepends=True)
        fields = first.split()
        fields[1] = str(float(fields[1]) + 1)
        out.write_text(" ".join(fields) + "\n" + "".join(rest))
        return result

    monkeypatch.setattr(jobs, "run_child", run_then_corrupt)
    tally = jobs.Tally()
    assert not jobs.filter_job(ws, ref, tally, work)[0]
    assert (tally.attempted, tally.failed) == (1, 1)


def test_nonzero_exit_is_counted(tiny, tmp_path):
    ws, _, _, ref, work = tiny
    bad = tmp_path / "detections.txt"
    bad.write_text("0 not a record\n")
    broken = dataclasses.replace(ws, det_path=bad)
    tally = jobs.Tally()
    assert not jobs.filter_job(broken, ref, tally, work)[0]
    assert not jobs.sweep_job(broken, ref, tally, work)[0]
    assert (tally.attempted, tally.failed) == (2, 2)
    assert "error:" in (work / "sweep.log").read_text()


def test_absent_trace_target_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(kernels, "luma")
    monkeypatch.delattr(formats, "read_image")
    tracer = tracing.Tracer()
    with tracer.installed("filter"):
        pass
    assert tracer.absent == ["kernels.luma", "formats.read_image"]
    metrics, _ = tracing.layer_metrics(tracer, 0, {"filter": 1, "stream": 1, "sweep": 1})
    assert not {"kernels.luma.ms_per_frame", "formats.read_image.mb_per_frame"} & set(metrics)
    assert "kernels.box_downsample.ms_per_frame" in metrics


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hd_gray", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_repeat_exactly_for_a_seed(tiny, tmp_path):
    assert _tiny_inputs(tmp_path).fingerprint == tiny[0].fingerprint


def test_benchmark_json_names_every_metric_with_its_unit():
    bm = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bm["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bm["per_layer"]} == run.layer_units()
    assert [w["name"] for w in bm["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.SPECS)
