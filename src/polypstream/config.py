"""Flat key/value run configuration with CLI overrides.

A config file holds ``key = value`` lines (``#`` comments allowed); every
key maps one-to-one onto a correlator/similarity parameter or an I/O path.
Unknown keys are rejected. Defaults are the reference operating point:
half window 3, similarity gate 0.85, confidence gate 0.3, fixed-correlation
quorum 3, fill IoU 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping

from .correlator import IscuConfig
from .errors import InputError
from .similarity import SsimParams

_INT_KEYS = {
    "half_window",
    "fc_quorum",
    "fill_quorum",
    "ssim_window_size",
    "ssim_stride",
    "downsample_w",
    "downsample_h",
    "num_frames",
    "frame_width",
    "frame_height",
}
_FLOAT_KEYS = {
    "similarity_threshold",
    "confidence_gate",
    "fill_iou",
    "ssim_k1",
    "ssim_k2",
    "ssim_dynamic_range",
}
_STR_KEYS = {"ssim_mode", "frames_dir", "detections", "ground_truth", "output"}
ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS


@dataclass
class RunConfig:
    """Everything a CLI run needs: the correlator config plus I/O paths."""

    iscu: IscuConfig
    frames_dir: str | None = None
    detections: str | None = None
    ground_truth: str | None = None
    output: str | None = None
    num_frames: int | None = None
    frame_width: int | None = None
    frame_height: int | None = None


def parse_config_file(path: str | Path) -> dict[str, Any]:
    """Read a flat key=value file into a typed dict, rejecting unknown keys."""
    values: dict[str, Any] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in ALL_KEYS:
            raise InputError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = _coerce(key, value, f"{path}:{line_no}")
    return values


def _coerce(key: str, value: Any, where: str) -> Any:
    if key in _STR_KEYS:
        return str(value)
    try:
        if key in _INT_KEYS:
            return int(value)
        return float(value)
    except (TypeError, ValueError):
        kind = "integer" if key in _INT_KEYS else "number"
        raise InputError(f"{where}: {key} must be an {kind}, got {value!r}") from None


def build_run_config(*sources: Mapping[str, Any]) -> RunConfig:
    """Merge value sources (later wins) and construct a validated RunConfig.

    ``None`` values are treated as absent so optional CLI flags merge
    cleanly over file-provided values.
    """
    merged: dict[str, Any] = {}
    for source in sources:
        for key, value in source.items():
            if value is None:
                continue
            if key not in ALL_KEYS:
                raise InputError(f"unknown config key {key!r}")
            merged[key] = _coerce(key, value, "config")

    try:
        ssim_params = SsimParams(
            k1=merged.get("ssim_k1", 0.01),
            k2=merged.get("ssim_k2", 0.03),
            dynamic_range=merged.get("ssim_dynamic_range", 255.0),
            mode=merged.get("ssim_mode", "global"),
            window_size=merged.get("ssim_window_size", 8),
            stride=merged.get("ssim_stride", 4),
            downsample_w=merged.get("downsample_w", 160),
            downsample_h=merged.get("downsample_h", 120),
            similarity_threshold=merged.get("similarity_threshold", 0.85),
        )
        iscu = IscuConfig(
            half_window=merged.get("half_window", 3),
            similarity_threshold=merged.get("similarity_threshold", 0.85),
            confidence_gate=merged.get("confidence_gate", 0.3),
            fc_quorum=merged.get("fc_quorum", 3),
            fill_quorum=merged.get("fill_quorum", 3),
            fill_iou=merged.get("fill_iou", 0.5),
            ssim_params=ssim_params,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from None

    return RunConfig(
        iscu=iscu,
        frames_dir=merged.get("frames_dir"),
        detections=merged.get("detections"),
        ground_truth=merged.get("ground_truth"),
        output=merged.get("output"),
        num_frames=merged.get("num_frames"),
        frame_width=merged.get("frame_width"),
        frame_height=merged.get("frame_height"),
    )


def derive_sweep_config(base: IscuConfig, half_window: int) -> IscuConfig:
    """Config for one sweep point: quorums are clamped so they stay within
    the smaller neighbor count."""
    full = 2 * half_window
    return replace(
        base,
        half_window=half_window,
        fc_quorum=min(base.fc_quorum, full),
        fill_quorum=min(base.fill_quorum, full),
    )
