"""Flat key/value run configuration with CLI overrides.

A config file holds ``key = value`` lines (``#`` comments allowed). Its
keys are the field names of :class:`IscuConfig` (except ``ssim_params``)
and of :class:`SsimParams` (``downsample_w``, ``downsample_h``). Each key
has the type of its field's default, and an absent key keeps that default.
Unknown keys are rejected. The file is read by ``formats.read_lines``, so an
error about a line reads ``path: line N: reason``, as in the record files.

A window has ``2*half_window`` neighbours, so a quorum above that can never
be met. A quorum that no source sets is lowered to it; one that a source
sets above it is an error. A sweep lowers every quorum at each narrower
half window it runs (``derive_sweep_config``).
"""

from __future__ import annotations

from dataclasses import fields, replace
from pathlib import Path
from typing import Any, Mapping

from .correlator import IscuConfig
from .errors import InputError
from .formats import read_lines
from .similarity import SsimParams

_ISCU_FIELDS = {f.name: f for f in fields(IscuConfig) if f.name != "ssim_params"}
ISCU_KEYS = tuple(_ISCU_FIELDS)
_QUORUM_KEYS = ("fc_quorum", "fill_quorum")
_SSIM_FIELDS = {f.name: f for f in fields(SsimParams)}
CONFIG_KEYS: dict[str, type] = {
    key: type(f.default) for key, f in {**_ISCU_FIELDS, **_SSIM_FIELDS}.items()
}


def parse_config_file(path: str | Path) -> dict[str, Any]:
    """Read a flat key=value file into a typed dict, rejecting unknown keys."""
    values: dict[str, Any] = {}
    for where, raw in read_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{where}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise InputError(f"{where}: unknown config key {key!r}")
        values[key] = _coerce(key, value.strip(), where)
    return values


def _coerce(key: str, value: Any, where: str) -> Any:
    typ = CONFIG_KEYS[key]
    try:
        return typ(value)
    except (TypeError, ValueError):
        kind = "an integer" if typ is int else "a number"
        raise InputError(f"{where}: {key} must be {kind}, got {value!r}") from None


def build_run_config(*sources: Mapping[str, Any]) -> IscuConfig:
    """Merge value sources (later wins) and construct a validated IscuConfig.

    ``None`` values are treated as absent so optional CLI flags merge
    cleanly over file-provided values.
    """
    merged: dict[str, Any] = {}
    for source in sources:
        for key, value in source.items():
            if value is None:
                continue
            if key not in CONFIG_KEYS:
                raise InputError(f"unknown config key {key!r}")
            merged[key] = _coerce(key, value, "config")

    def present(keyed_fields):
        return {key: merged[key] for key in keyed_fields if key in merged}

    iscu_values = present(_ISCU_FIELDS)
    half_window = iscu_values.get("half_window", _ISCU_FIELDS["half_window"].default)
    quorums = _fit_quorums(
        {key: _ISCU_FIELDS[key].default for key in _QUORUM_KEYS}, half_window
    )
    try:
        ssim_params = SsimParams(**present(_SSIM_FIELDS))
        return IscuConfig(ssim_params=ssim_params, **{**quorums, **iscu_values})
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _fit_quorums(quorums: Mapping[str, int], half_window: int) -> dict[str, int]:
    """Each quorum lowered to the ``2*half_window`` neighbours of a window."""
    return {key: min(q, 2 * half_window) for key, q in quorums.items()}


def derive_sweep_config(base: IscuConfig, half_window: int) -> IscuConfig:
    """Config for one sweep point: ``base`` at ``half_window``, with its
    quorums lowered to fit the smaller window."""
    quorums = {key: getattr(base, key) for key in _QUORUM_KEYS}
    return replace(base, half_window=half_window, **_fit_quorums(quorums, half_window))
