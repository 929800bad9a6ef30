"""Run configuration, checkpoints and the typed errors of degenerate input."""

import json
import struct
from dataclasses import fields

import numpy as np
import pytest

from gatetrack import flops
from gatetrack import head as H
from gatetrack import model as M
from gatetrack import tensor as T
from gatetrack.config import RunConfig, from_dict, load_config, write_resolved
from gatetrack.errors import ConfigError, NumericError, ShapeError


class TestRunConfig:
    def test_json_round_trip(self, tmp_path):
        config = RunConfig(channels=16, stem_width=8, attention_mode="static",
                           static_branches=("se",), steps=10, lr_end=0.001)
        assert from_dict(json.loads(config.to_json())) == config
        write_resolved(config, tmp_path / "out")
        assert load_config(tmp_path / "out" / "config_used.json") == config

    def test_overrides_skip_none(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"batch": 5, "tau": 0.5}))
        config = load_config(path, overrides={"batch": 9, "steps": None})
        assert (config.batch, config.tau, config.steps) == (9, 0.5, RunConfig().steps)

    def test_fields(self):
        """13 model fields and the 7 training settings; nothing else is settable."""
        names = [f.name for f in fields(RunConfig)]
        assert names[:13] == [f.name for f in fields(M.ModelConfig)]
        assert names[13:] == ["steps", "batch", "lr_start", "lr_end", "momentum",
                              "weight_decay", "lambda_cost"]

    # removed keys: scenes are configured by ScenarioSpec, the stride is the
    # backbone's and the stem has one free width
    @pytest.mark.parametrize("key", [
        "figures", "no_such_key", "phase_schedule", "seed", "budget", "target_sigma",
        "occlusion_low", "frame_width", "n_eval_sequences", "stride", "stem_channels"])
    def test_unknown_key_rejected(self, key):
        with pytest.raises(ConfigError, match=f"unknown config keys.*{key}"):
            from_dict({key: 8})

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
        {"stem_width": 0},
        {"stem_width": 16.0},
        {"write_threshold": "0.6"},
        {"write_threshold": 1.5},
        {"channels": 30},
        {"gate_scale": 3},
        {"stem_width": True},
        {"static_branches": (["se"],)},
        {"static_branches": ("se", "se")},
        {"static_branches": 5},
        {"static_branches": None},
    ])
    def test_model_fields_validated_at_construction(self, overrides):
        with pytest.raises(ConfigError):
            RunConfig(**overrides)
        with pytest.raises(ConfigError):
            M.ModelConfig(**overrides)

    @pytest.mark.parametrize("values, key", [
        ({"crop_size": "64"}, "crop_size"),
        ({"stem_width": 16.0}, "stem_width"),
        ({"tau": 0}, "tau"),
        ({"memory_capacity": 0}, "memory_capacity"),
        ({"key_channels": 0}, "key_channels"),
        ({"value_channels": 0}, "value_channels"),
        ({"static_branches": 5}, "static_branches"),
    ], ids=["crop_size_str", "stem_int", "tau_zero", "capacity_zero", "key_zero",
            "value_zero", "static_branches_int"])
    def test_mistyped_values_raise_config_error_naming_the_key(self, values, key):
        with pytest.raises(ConfigError, match=key):
            from_dict(values)

    @pytest.mark.parametrize("values, key", [
        ({"steps": "2000"}, "steps"),
        ({"lr_start": "0.1"}, "lr_start"),
        ({"momentum": "0.9"}, "momentum"),
        ({"momentum": 1.0}, "momentum"),
        ({"batch": 0}, "batch"),
        ({"lambda_cost": float("nan")}, "lambda_cost"),
        ({"weight_decay": -1e-4}, "weight_decay"),
    ], ids=["steps_str", "lr_start_str", "momentum_str", "momentum_one", "batch_zero",
            "lambda_cost_nan", "weight_decay_negative"])
    def test_run_keys_checked_naming_the_key(self, values, key):
        with pytest.raises(ConfigError, match=key):
            from_dict(values)

    def test_run_key_bounds_accepted(self):
        config = from_dict({"momentum": 0.0, "weight_decay": 0, "lambda_cost": 0,
                            "lr_start": 0.01, "lr_end": 0.01})
        assert (config.momentum, config.weight_decay, config.lambda_cost) == (0, 0, 0)


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


@pytest.mark.parametrize("attention_mode, weights, name", [
    pytest.param("static", [0.0, 1 / 3, 1 / 3, 1 / 3], "se+ca+cbam", id="static-weights0"),
    pytest.param("none", [1.0, 0.0, 0.0, 0.0], "identity", id="none-weights1")])
def test_fixed_branch_set_is_recorded_as_fixed(attention_mode, weights, name):
    """No gate runs in static or none mode, so the record is not a hard choice:
    it chooses no branch and is named after every branch that ran."""
    model = M.TrackModel(M.ModelConfig(attention_mode=attention_mode), seed=0)
    _, decision, _ = model.enhance_infer(T.zeros((1, 32, 16, 16)), frame_index=3)
    assert decision.mode == "fixed" and decision.frame_index == 3
    assert decision.weights.tolist() == weights
    assert not decision.logits.any()
    assert decision.chosen is None and decision.chosen_name == name


@pytest.mark.parametrize("attention_mode", ["static", "none"])
def test_fixed_soft_enhancement_records_one_decision_per_row(attention_mode):
    """As in gated mode, a batch of n gets n records: here n copies of the
    fixed record that inference gives."""
    model = M.TrackModel(M.ModelConfig(attention_mode=attention_mode), seed=0)
    feature = T.Tensor4(np.random.default_rng(1).standard_normal((2, 32, 16, 16)))
    _, _, decisions = model.enhance_soft(feature, frame_index=4)
    _, decision, _ = model.enhance_infer(feature, frame_index=4)
    assert [(d.mode, d.frame_index, d.chosen_name, d.weights.tolist()) for d in decisions] == 2 * [
        ("fixed", 4, decision.chosen_name, decision.weights.tolist())]


@pytest.mark.parametrize("crop_size", [32, 64, 128])
def test_stride_is_the_backbone_downsampling(crop_size):
    """Features, cost table and box decoding all use the stride the stem applies."""
    config = M.ModelConfig(crop_size=crop_size)
    model = M.TrackModel(config, seed=0)
    assert model.config.stride == 4
    fs = model.extract(T.zeros((1, 1, crop_size, crop_size))).shape[2]
    assert fs == crop_size // config.stride == config.feature_size
    assert model.cost_table is flops.branch_costs(config.channels, config.reduction, fs, fs)


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


def test_checkpoint_layout_is_index_then_dt64_blobs(tmp_path):
    params = T.ParamSet()
    params.add("w", T.Tensor4(np.arange(24.0).reshape(1, 2, 3, 4)))
    path = tmp_path / "one.gtck"
    M.save_checkpoint(path, params)
    assert path.read_bytes() == (b"GTCK1 1\nw 212\n\n" + b"DT64"
                                 + struct.pack("<4I", 1, 2, 3, 4)
                                 + np.arange(24.0).astype("<f8").tobytes())


def dt64_blob(dims, payload=b""):
    return b"DT64" + struct.pack("<4I", *dims) + payload


# an index naming one tensor twice, each entry with a valid blob
REPEATED_TENSOR = (b"GTCK1 2\nbackbone.conv1.w 28\nbackbone.conv1.w 28\n\n"
                   + dt64_blob((1, 1, 1, 1), b"\x00" * 8) * 2)


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
    REPEATED_TENSOR,
    b"GTCK1 1\nw 40\n\n" + dt64_blob((1, 1, 1, 1), struct.pack("<d", 3.0)) + b"\x00" * 12,
    b"GTCK1 1\nw 28\n\n" + dt64_blob((1, 1, 1, 1), struct.pack("<d", 3.0)) + b"\x00",
    b"GTCK1 1\nw %d\n\n" % 2 ** 64 + dt64_blob((1, 1, 1, 1), struct.pack("<d", 3.0)),
    b"GTCK1 1\nw %d\n\n" % 10 ** 15 + dt64_blob((1, 1, 1, 1), struct.pack("<d", 3.0)),
    b"GTCK1 1\nw 28\n\n" + b"XXXX" + dt64_blob((1, 1, 1, 1), b"\x00" * 8)[4:],
    b"GTCK1 1\nw 28\n\n" + dt64_blob((2, 1, 1, 1), b"\x00" * 8),
    b"GTCK1 1\nw 28\n\n" + dt64_blob((4294967295,) * 4, b"\x00" * 8),
], ids=["count_not_int", "no_count", "non_ascii_header", "entry_no_size",
        "entry_non_ascii", "entry_negative_size", "dt64_all_zero_extent",
        "dt64_zero_extent", "dt64_truncated_header", "repeated_tensor",
        "entry_larger_than_dt64", "bytes_after_last_tensor", "entry_size_2_pow_64",
        "entry_size_1e15", "dt64_bad_magic", "dt64_payload_short_of_dims",
        "dt64_huge_extents"])
def test_corrupt_checkpoint_raises_shape_error_naming_path(tmp_path, content):
    path = tmp_path / "bad.gtck"
    path.write_bytes(content)
    with pytest.raises(ShapeError) as err:
        M.load_checkpoint(path)
    assert str(path) in str(err.value)


def test_repeated_checkpoint_tensor_is_named(tmp_path):
    path = tmp_path / "twice.gtck"
    path.write_bytes(REPEATED_TENSOR)
    with pytest.raises(ShapeError, match="backbone.conv1.w twice"):
        M.load_checkpoint(path)


@pytest.mark.parametrize("center", [(np.nan, 10.0), (10.0, np.inf), (-np.inf, np.nan)])
def test_crop_at_non_finite_centre_raises_numeric_error(center):
    with pytest.raises(NumericError):
        M.crop_at(np.zeros((1, 1, 32, 32)), center, 16)
