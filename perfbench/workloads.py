"""The benchmark's three workloads: deterministic synthetic inputs on disk.

Each workload is a directory holding ``frames/`` (PGM or PPM), the raw
detector records ``detections.txt`` and the annotations ``groundtruth.txt``,
written by the package's own generator and writers from a seed. Inputs are
cached per (workload, seed) under ``perfbench/.work`` and never timed. A
SHA-256 digest of every generated file is taken on each run, so a change to
the generator shows up as a different fingerprint instead of silently
changing what is measured.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from polypstream import formats
from polypstream.geometry import BoundingBox
from polypstream.synthetic import ScenarioConfig, TrackSpec, generate_scenario, standard_noise_config

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"

# Files whose content decides the generated bytes; a cached input set made by
# other versions of them is regenerated.
_GENERATOR_SOURCES = (
    Path(__file__),
    ROOT / "src" / "polypstream" / "synthetic.py",
    ROOT / "src" / "polypstream" / "formats.py",
)


@dataclass(frozen=True)
class Spec:
    width: int
    height: int
    n_frames: int
    image_format: str


SPECS = {
    # 1280x1080, one track: the paper's resolution, divisible downsample.
    "hd_gray": Spec(1280, 1080, 100, "pgm"),
    # 720x576 RGB: the non-divisible downsample path and luma.
    "sd_color": Spec(720, 576, 100, "ppm"),
    # 8 tracks, heavy false positives, scene breaks: per-box passes and evaluation.
    "dense_boxes": Spec(320, 240, 300, "pgm"),
}

# Dropouts as short blur episodes plus single misses, so that the fill pass
# has work on sequences of a few hundred frames (the standard scenario's
# 22-frame episodes need 900 frames before the first one is placed).
_DROPOUTS = dict(tp_dropout_rate=0.08, tp_dropout_episode_frac=0.5, tp_dropout_episode_len=4)
_SCENE_LENGTH = 100
_DENSE_TRACKS = 8


@dataclass(frozen=True)
class Workload:
    """A generated input set, as the benchmark hands it to the program."""

    name: str
    seed: int
    width: int
    height: int
    n_frames: int
    frames_dir: Path
    det_path: Path
    gt_path: Path
    fingerprint: str
    boxes_per_frame: float


def _scaled_standard(seed: int, spec: Spec) -> ScenarioConfig:
    """The standard noise scenario with its track scaled to the frame size."""
    base = standard_noise_config(seed, spec.n_frames)
    sx, sy = spec.width / base.frame_w, spec.height / base.frame_h
    tr = base.tracks[0]
    s = tr.start
    track = dataclasses.replace(
        tr,
        start=BoundingBox(s.x_min * sx, s.y_min * sy, s.x_max * sx, s.y_max * sy),
        velocity=(tr.velocity[0] * sx, tr.velocity[1] * sy),
        wobble_amplitude=(tr.wobble_amplitude[0] * sx, tr.wobble_amplitude[1] * sy),
    )
    return dataclasses.replace(
        base, frame_w=spec.width, frame_h=spec.height, tracks=(track,), **_DROPOUTS
    )


def _dense(seed: int, spec: Spec) -> ScenarioConfig:
    """Eight slow tracks on a 4x2 grid, one transient false positive per
    frame on average, and a new scene every 100 frames."""
    rng = np.random.default_rng([seed, 7])
    cell_w, cell_h = spec.width / 4, spec.height / 2
    tracks = []
    for k in range(_DENSE_TRACKS):
        cx, cy = (k % 4 + 0.5) * cell_w, (k // 4 + 0.5) * cell_h
        half = rng.uniform(14.0, 20.0)
        tracks.append(
            TrackSpec(
                start=BoundingBox(cx - half, cy - half, cx + half, cy + half),
                velocity=tuple(rng.uniform(-0.04, 0.04, size=2)),
                wobble_amplitude=(4.0, 4.0),
                wobble_period=tuple(rng.uniform(20.0, 40.0, size=2)),
                wobble_phase=tuple(rng.uniform(0.0, 6.28, size=2)),
            )
        )
    base = standard_noise_config(seed, spec.n_frames)
    return dataclasses.replace(
        base,
        frame_w=spec.width,
        frame_h=spec.height,
        tracks=tuple(tracks),
        transient_fp_rate=1.0,
        scene_break_frames=frozenset(range(_SCENE_LENGTH, spec.n_frames, _SCENE_LENGTH)),
        **_DROPOUTS,
    )


def scenario_config(name: str, seed: int) -> ScenarioConfig:
    spec = SPECS[name]
    return _dense(seed, spec) if name == "dense_boxes" else _scaled_standard(seed, spec)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _generate(name: str, seed: int, out: Path) -> None:
    scenario = generate_scenario(scenario_config(name, seed))
    formats.write_frames(out / "frames", scenario.frames, SPECS[name].image_format)
    formats.write_detections(out / "detections.txt", scenario.raw_detections)
    formats.write_groundtruth(out / "groundtruth.txt", scenario.ground_truth)


def materialize(name: str, seed: int, work: Path = WORK) -> Workload:
    """Generate (or reuse) the inputs of one workload and fingerprint them.

    Only the most recent seed of each workload is kept on disk, so repeated
    runs over many seeds do not fill the disk.
    """
    spec = SPECS[name]
    key = _digest(_GENERATOR_SOURCES) + f" {name} {seed}"
    out = work / f"{name}-seed{seed}"
    stamp = out / "key.txt"
    if not (stamp.is_file() and stamp.read_text() == key):
        for old in work.glob(f"{name}-seed*"):
            shutil.rmtree(old)
        out.mkdir(parents=True)
        _generate(name, seed, out)
        stamp.write_text(key)

    frame_files = sorted((out / "frames").iterdir())
    det_path, gt_path = out / "detections.txt", out / "groundtruth.txt"
    n_records = sum(1 for line in det_path.read_text().splitlines() if line.strip())
    return Workload(
        name=name,
        seed=seed,
        width=spec.width,
        height=spec.height,
        n_frames=len(frame_files),
        frames_dir=out / "frames",
        det_path=det_path,
        gt_path=gt_path,
        fingerprint=_digest([*frame_files, det_path, gt_path]),
        boxes_per_frame=n_records / len(frame_files),
    )
