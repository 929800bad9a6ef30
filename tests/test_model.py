"""Run configuration, checkpoints and the typed errors of degenerate input."""

import json
import struct

import numpy as np
import pytest

from gatetrack import head as H
from gatetrack import model as M
from gatetrack import tensor as T
from gatetrack.config import RunConfig, from_dict, load_config, write_resolved
from gatetrack.errors import ConfigError, NumericError, ShapeError


class TestRunConfig:
    def test_json_round_trip(self, tmp_path):
        config = RunConfig(seed=3, channels=16, stem_channels=(8, 16),
                           attention_mode="static", static_branches=("se",),
                           budget=5000.0,
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
        {"tau": 0.0},
        {"tau": -1.0},
        {"tau": float("nan")},
        {"memory_capacity": 0},
        {"key_channels": 0},
        {"value_channels": 0},
        {"crop_size": 64.0},
        {"channels": True},
        {"stem_channels": (16,)},
        {"stem_channels": (16.0, 32)},
        {"write_threshold": "0.6"},
        {"write_threshold": 1.5},
        {"channels": 30, "stem_channels": (16, 30)},
        {"gate_scale": 3},
        {"stem_channels": (16, 8)},
        {"static_branches": (["se"],)},
        {"static_branches": ("se", "se")},
    ])
    def test_model_fields_validated_at_construction(self, overrides):
        with pytest.raises(ConfigError):
            RunConfig(**overrides)
        with pytest.raises(ConfigError):
            M.ModelConfig(**overrides)

    @pytest.mark.parametrize("values, key", [
        ({"crop_size": "64"}, "crop_size"),
        ({"phase_schedule": [["stable"]]}, "phase_schedule"),
        ({"phase_schedule": [["stable", "ten"]]}, "phase_schedule"),
        ({"stem_channels": 5}, "stem_channels"),
        ({"tau": 0}, "tau"),
        ({"memory_capacity": 0}, "memory_capacity"),
        ({"key_channels": 0}, "key_channels"),
        ({"value_channels": 0}, "value_channels"),
        ({"stem_channels": [16, 8]}, "stem_channels"),
    ], ids=["crop_size_str", "schedule_short", "schedule_str", "stem_int", "tau_zero",
            "capacity_zero", "key_zero", "value_zero", "stem_last_width"])
    def test_mistyped_values_raise_config_error_naming_the_key(self, values, key):
        with pytest.raises(ConfigError, match=key):
            from_dict(values)

    @pytest.mark.parametrize("values, key", [
        ({"steps": "2000"}, "steps"),
        ({"lr_start": "0.1"}, "lr_start"),
        ({"momentum": "0.9"}, "momentum"),
        ({"momentum": 1.0}, "momentum"),
        ({"batch": 0}, "batch"),
        ({"n_eval_sequences": 0}, "n_eval_sequences"),
        ({"frame_width": 128.0}, "frame_width"),
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"budget": -5}, "budget"),
        ({"budget": "5000"}, "budget"),
        ({"lambda_cost": float("nan")}, "lambda_cost"),
        ({"weight_decay": -1e-4}, "weight_decay"),
        ({"target_sigma": 0.0}, "target_sigma"),
        ({"occlusion_low": "0.6"}, "occlusion_low"),
    ], ids=["steps_str", "lr_start_str", "momentum_str", "momentum_one", "batch_zero",
            "n_eval_zero", "frame_width_float", "seed_float", "seed_negative",
            "budget_negative", "budget_str", "lambda_cost_nan", "weight_decay_negative",
            "target_sigma_zero", "occlusion_low_str"])
    def test_run_keys_checked_naming_the_key(self, values, key):
        with pytest.raises(ConfigError, match=key):
            from_dict(values)

    def test_run_key_bounds_accepted(self):
        config = from_dict({"seed": 0, "budget": 0, "momentum": 0.0, "lambda_cost": 0})
        assert config.budget == 0

    def test_model_config_carries_model_fields(self):
        config = RunConfig(seed=4, channels=16, stem_channels=(8, 16), memory_capacity=5,
                           attention_mode="none", steps=10)
        assert config.model_config() == M.ModelConfig(
            channels=16, stem_channels=(8, 16), memory_capacity=5, attention_mode="none")


@pytest.mark.parametrize("attention_mode", ["static", "none"])
def test_fixed_attention_modes_train(attention_mode):
    """A fixed mode has no gate weights, so its loss carries no cost term."""
    model = M.TrackModel(M.ModelConfig(attention_mode=attention_mode), seed=0)
    crops = T.Tensor4(np.random.default_rng(0).uniform(0.0, 1.0, (2, 1, 64, 64)))
    memory_feature, memory_weights, _ = model.enhance_soft(model.extract(crops))
    query_feature, query_weights, _ = model.enhance_soft(model.extract(crops))
    out = model.predict(model.read_memory(query_feature, [memory_feature])[0])
    labels = H.stack_labels([H.make_labels(H.BBox(24.0, 24.0, 16.0, 16.0), 4, (16, 16))] * 2)
    loss = H.compute_loss(out, labels, gate_weight_tensors=[query_weights, memory_weights],
                          cost_table=model.cost_table, lambda_cost=0.01)
    assert loss.item() == H.compute_loss(out, labels).item()
    grads = T.backprop(loss, model.params)
    assert all(np.isfinite(g).all() for g in grads.values())


@pytest.mark.parametrize("attention_mode", ["static", "none"])
def test_budget_needs_gated_attention(attention_mode):
    model = M.TrackModel(M.ModelConfig(attention_mode=attention_mode), seed=0)
    with pytest.raises(ConfigError, match="budget"):
        model.enhance_infer(T.zeros((1, 32, 16, 16)), budget=0.0)


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
