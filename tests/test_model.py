"""Run configuration, checkpoints and the typed errors of degenerate input."""

import json
import struct

import numpy as np
import pytest

from gatetrack import model as M
from gatetrack import tensor as T
from gatetrack.config import RunConfig, from_dict, load_config, write_resolved
from gatetrack.errors import ConfigError, NumericError, ShapeError


class TestRunConfig:
    def test_json_round_trip(self, tmp_path):
        config = RunConfig(seed=3, channels=16, stem_channels=(8, 16),
                           attention_mode="static", static_branches=("se",),
                           budget=5000.0, budget_sweep=(0.0, 1e4),
                           phase_schedule=(("stable", 4), ("fast", 2)))
        assert from_dict(json.loads(config.to_json())) == config
        write_resolved(config, tmp_path / "out")
        assert load_config(tmp_path / "out" / "config_used.json") == config

    def test_overrides_skip_none(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 5, "tau": 0.5}))
        config = load_config(path, overrides={"seed": 9, "steps": None})
        assert (config.seed, config.tau, config.steps) == (9, 0.5, RunConfig().steps)

    @pytest.mark.parametrize("key", ["figures", "no_such_key"])
    def test_unknown_key_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            from_dict({key: True})

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read"),
        ("{not json", "not valid JSON"),
        ("[1, 2]", "JSON object"),
    ], ids=["missing", "invalid", "not_object"])
    def test_load_config_errors(self, tmp_path, content, message):
        path = tmp_path / "run.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    @pytest.mark.parametrize("overrides", [
        {"crop_size": 63},
        {"attention_mode": "dynamic"},
        {"static_branches": ("se", "eca")},
    ])
    def test_model_fields_validated_at_construction(self, overrides):
        with pytest.raises(ConfigError):
            RunConfig(**overrides)

    def test_model_config_carries_model_fields(self):
        config = RunConfig(seed=4, channels=16, stem_channels=(8, 16), memory_capacity=5,
                           attention_mode="none", steps=10)
        assert config.model_config() == M.ModelConfig(
            channels=16, stem_channels=(8, 16), memory_capacity=5, attention_mode="none")


class TestCheckpoint:
    def test_load_model_restores_values_bitwise(self, tmp_path):
        config = M.ModelConfig()
        saved = M.TrackModel(config, seed=3)
        path = tmp_path / "model.gtck"
        M.save_checkpoint(path, saved.params)
        loaded = M.load_model(config, path)
        assert loaded.params.names() == saved.params.names()
        for name, tensor in saved.params.items():
            assert loaded.params[name].data.tobytes() == tensor.data.tobytes()

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "model.gtck"
        M.save_checkpoint(path, M.TrackModel(M.ModelConfig(key_channels=8)).params)
        with pytest.raises(ShapeError, match="memory.key.w"):
            M.load_model(M.ModelConfig(), path)

    def test_name_mismatch(self, tmp_path):
        renamed = T.ParamSet()
        for name, tensor in M.TrackModel(M.ModelConfig()).params.items():
            renamed.add("head.cls.bias" if name == "head.cls.b3" else name, tensor)
        path = tmp_path / "model.gtck"
        M.save_checkpoint(path, renamed)
        with pytest.raises(ShapeError, match="head.cls.b3"):
            M.load_model(M.ModelConfig(), path)


def dt64_blob(dims, payload=b""):
    return b"DT64" + struct.pack("<4I", *dims) + payload


@pytest.mark.parametrize("content", [
    b"GTCK1 x\n\n",
    b"GTCK1\n\n",
    b"\xff\xfe GTCK1 1\n\n",
    b"GTCK1 1\nw\n\n",
    b"GTCK1 1\nw \xff\n\n",
    b"GTCK1 1\nw -4\n\n",
    b"GTCK1 1\nw 20\n\n" + dt64_blob((4294967295, 0, 0, 0)),
    b"GTCK1 1\nw 28\n\n" + dt64_blob((1, 1, 1, 0), b"\x00" * 8),
    b"GTCK1 1\nw 12\n\n" + dt64_blob((1, 1, 1, 1))[:12],
], ids=["count_not_int", "no_count", "non_ascii_header", "entry_no_size",
        "entry_non_ascii", "entry_negative_size", "dt64_all_zero_extent",
        "dt64_zero_extent", "dt64_truncated_header"])
def test_corrupt_checkpoint_raises_shape_error_naming_path(tmp_path, content):
    path = tmp_path / "bad.gtck"
    path.write_bytes(content)
    with pytest.raises(ShapeError) as err:
        M.load_checkpoint(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("center", [(np.nan, 10.0), (10.0, np.inf), (-np.inf, np.nan)])
def test_crop_at_non_finite_centre_raises_numeric_error(center):
    with pytest.raises(NumericError):
        M.crop_at(np.zeros((1, 1, 32, 32)), center, 16)
