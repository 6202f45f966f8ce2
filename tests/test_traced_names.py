"""The benchmark's traced run wraps package names at call time.

``perfbench/tracing.py`` replaces each ``TARGETS`` entry with a wrapper by
setting the module attribute, and silently leaves out the metrics of a name
that is gone. These tests fail instead when a refactor removes or renames
one, or when the correlator stops looking its passes up as module globals.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from polypstream import correlator
from polypstream.correlator import IscuConfig, process_sequence, sweep_sequence
from polypstream.geometry import BoundingBox, BoxOrigin, FrameDetections, FrameMeta, ScoredBox
from polypstream.similarity import GrayFrame, SsimParams

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in _targets()])
def test_target_is_a_callable_module_attribute(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


W, H, N = 32, 24, 7
TRACK = (4, 4, 12, 12)
STRAY = (20, 14, 28, 20)  # alone in the center frame, far from the track


def _filling_sequence():
    """A track in every frame but the center, which holds only a stray box:
    the track is filled in and the fill is checked against the stray box."""
    frames = [GrayFrame.from_array(np.full((H, W), 100, dtype=np.uint8))] * N
    dets = [
        FrameDetections(
            FrameMeta(W, H, i),
            (ScoredBox(BoundingBox(*(STRAY if i == N // 2 else TRACK)), 0.9, BoxOrigin.DETECTOR),),
        )
        for i in range(N)
    ]
    cfg = IscuConfig(half_window=3, ssim_params=SsimParams(downsample_w=W, downsample_h=H))
    return frames, dets, cfg


@pytest.mark.parametrize("entry", ["process_sequence", "sweep_sequence"])
def test_passes_reached_through_module_globals(entry, monkeypatch):
    calls = dict.fromkeys(("eliminate_noise", "correct_missed", "iou"), 0)
    for name in calls:
        fn = getattr(correlator, name)

        def counted(*args, _name=name, _fn=fn):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(correlator, name, counted)
    frames, dets, cfg = _filling_sequence()
    if entry == "process_sequence":
        results = process_sequence(frames, dets, cfg)
    else:
        results = sweep_sequence(frames, dets, [cfg])[0]
    assert [len(r.added) for r in results] == [0, 0, 0, 1, 0, 0, 0]
    assert all(count > 0 for count in calls.values()), calls
