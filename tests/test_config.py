import re
from dataclasses import fields
from pathlib import Path

import pytest

from polypstream import cli
from polypstream.config import (
    CONFIG_KEYS,
    build_run_config,
    derive_sweep_config,
    parse_config_file,
)
from polypstream.correlator import IscuConfig
from polypstream.errors import InputError
from polypstream.similarity import SsimParams


def _tunable_fields():
    """(config key, owning dataclass, field) for every tunable parameter."""
    cases = [(f.name, IscuConfig, f) for f in fields(IscuConfig) if f.name != "ssim_params"]
    cases += [(f.name, SsimParams, f) for f in fields(SsimParams)]
    return cases


def _non_default(f):
    return f.default + 1 if isinstance(f.default, int) else f.default / 2


def _expected(owner, f, value):
    if owner is SsimParams:
        return IscuConfig(ssim_params=SsimParams(**{f.name: value}))
    return IscuConfig(**{f.name: value})


# the paths filter requires before any of its other flags are read; no
# file is opened in these tests
_FILTER_PATHS = ["--frames", "frames", "--detections", "dets.txt", "--output", "out.txt"]

_TUNABLE_FIELDS = _tunable_fields()
_TUNABLES = pytest.mark.parametrize(
    "key, owner, f", _TUNABLE_FIELDS, ids=[key for key, _, _ in _TUNABLE_FIELDS]
)


class TestConfigFile:
    def test_parse_and_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# operating point\n"
            "half_window = 2\n"
            "similarity_threshold = 0.9\n"
        )
        cfg = build_run_config(parse_config_file(path))
        assert cfg.half_window == 2
        assert cfg.similarity_threshold == 0.9
        assert cfg.confidence_gate == 0.3  # default retained

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("window = 3\n")
        with pytest.raises(InputError, match="unknown config key"):
            parse_config_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("half_window = wide\n")
        with pytest.raises(InputError, match="integer"):
            parse_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("half_window 3\n")
        with pytest.raises(InputError, match="key = value"):
            parse_config_file(path)

    def test_line_error_names_path_and_line(self, tmp_path):
        # the record files' form: path, line number, reason
        path = tmp_path / "run.cfg"
        path.write_text("# operating point\nhalf_window = wide\n")
        with pytest.raises(InputError) as info:
            parse_config_file(path)
        assert str(info.value) == f"{path}: line 2: half_window must be an integer, got 'wide'"

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            parse_config_file(tmp_path / "nope.cfg")

    @pytest.mark.parametrize(
        "line", ["ground_truth = nope.txt", "num_frames = -5", "frame_width = 0", "frame_height = 0"]
    )
    def test_removed_keys_rejected(self, tmp_path, line):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        with pytest.raises(InputError, match="unknown config key"):
            parse_config_file(path)

    @pytest.mark.parametrize("key", ["frames_dir", "detections", "output"])
    def test_path_keys_rejected(self, tmp_path, capsys, key):
        # file paths are filter's flags only; the key is refused before
        # any input is opened
        out = tmp_path / "filtered.txt"
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {tmp_path / 'x'}\n")
        args = ["filter", "--config", str(path), "--frames", str(tmp_path / "frames")]
        args += ["--detections", str(tmp_path / "dets.txt"), "--output", str(out)]
        assert cli.run_cli(args) == 1
        captured = capsys.readouterr()
        assert f"unknown config key {key!r}" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestSchema:
    """Every dataclass field is reachable, by its key and by its flag."""

    def test_keys_pinned(self):
        # a new tunable is a deliberate edit here, not a side effect of a field
        assert set(CONFIG_KEYS) == {
            "half_window",
            "similarity_threshold",
            "confidence_gate",
            "fc_quorum",
            "fill_quorum",
            "fill_iou",
            "downsample_w",
            "downsample_h",
        }

    def test_readme_lists_keys_with_defaults(self):
        # README's Configuration section names each key once as `key default`
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = text.split("### Configuration", 1)[1].split("\n#", 1)[0]
        listed = re.findall(r"`([a-z_]+) ([0-9.]+)`", section)
        assert sorted(key for key, _ in listed) == sorted(CONFIG_KEYS)
        defaults = {key: f.default for key, _, f in _TUNABLE_FIELDS}
        assert {key: CONFIG_KEYS[key](value) for key, value in listed} == defaults

    @pytest.mark.parametrize(
        "key", ["ssim_mode", "ssim_window_size", "ssim_stride", "ssim_dynamic_range"]
    )
    def test_removed_similarity_keys_rejected(self, tmp_path, capsys, key):
        flag = "--" + key.replace("_", "-")
        assert cli.run_cli(["filter", *_FILTER_PATHS, flag, "8"]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = 8\n")
        assert cli.run_cli(["ssim", "--config", str(path), "a.pgm", "b.pgm"]) == 1
        assert "unknown config key" in capsys.readouterr().err

    @_TUNABLES
    def test_config_file_line_sets_field(self, tmp_path, key, owner, f):
        value = _non_default(f)
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        assert build_run_config(parse_config_file(path)) == _expected(owner, f, value)

    @_TUNABLES
    def test_filter_flag_sets_field(self, key, owner, f):
        value = _non_default(f)
        flag = "--" + key.replace("_", "-")
        args = cli.build_parser().parse_args(["filter", *_FILTER_PATHS, flag, str(value)])
        assert cli._run_config(args) == _expected(owner, f, value)


class TestMerge:
    def test_defaults_match_reference_operating_point(self):
        cfg = build_run_config()
        assert cfg.half_window == 3
        assert cfg.similarity_threshold == 0.85
        assert cfg.confidence_gate == 0.3
        assert cfg.fc_quorum == 3
        assert cfg.fill_iou == 0.5
        assert cfg.ssim_params.downsample_w == 160
        assert cfg.ssim_params.downsample_h == 120

    def test_later_source_wins_none_ignored(self):
        cfg = build_run_config(
            {"half_window": 2}, {"half_window": 4, "fill_iou": None}
        )
        assert cfg.half_window == 4
        assert cfg.fill_iou == 0.5

    def test_invalid_combination_is_input_error(self):
        with pytest.raises(InputError):
            build_run_config({"half_window": 1, "fc_quorum": 5})

    def test_threshold_sets_iscu_config(self):
        cfg = build_run_config({"similarity_threshold": 0.7})
        assert cfg.similarity_threshold == 0.7


class TestSweepDerivation:
    def test_quorums_clamped(self):
        base = IscuConfig()
        one = derive_sweep_config(base, 1)
        assert one.half_window == 1
        assert one.fc_quorum == 2
        assert one.fill_quorum == 2
        four = derive_sweep_config(base, 4)
        assert four.fc_quorum == 3  # unchanged when already valid
        assert four.half_window == 4
