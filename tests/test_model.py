"""Run configuration, checkpoints and the typed errors of degenerate input."""

import math
import struct
from dataclasses import fields

import numpy as np
import pytest

from gatetrack import flops
from gatetrack import head as H
from gatetrack import model as M
from gatetrack import tensor as T
from gatetrack.config import RunConfig
from gatetrack.errors import ConfigError, NumericError, ShapeError


class TestRunConfig:
    def test_fields(self):
        """5 model settings and 7 training settings; nothing else is settable."""
        assert [f.name for f in fields(M.ModelConfig)] == [
            "memory_capacity", "write_period", "write_threshold", "attention_mode",
            "static_branches"]
        assert [f.name for f in fields(RunConfig)] == [
            "steps", "batch", "lr_start", "lr_end", "momentum", "weight_decay", "lambda_cost"]

    # removed keys: scenes are configured by ScenarioSpec, the stride is the
    # backbone's, and the model's sizes and gate temperature are constants
    @pytest.mark.parametrize("key", [
        "figures", "no_such_key", "phase_schedule", "seed", "budget", "target_sigma",
        "occlusion_low", "frame_width", "n_eval_sequences", "stride", "stem_channels",
        "channels", "stem_width", "reduction", "gate_scale", "tau", "key_channels",
        "value_channels", "crop_size"])
    def test_unknown_key_rejected(self, key):
        for config in (RunConfig, M.ModelConfig):
            with pytest.raises(TypeError, match=key):
                config(**{key: 8})

    @pytest.mark.parametrize("overrides", [
        {"attention_mode": "dynamic"},
        {"static_branches": ("se", "eca")},
        {"memory_capacity": 0},
        {"write_threshold": "0.6"},
        {"write_threshold": 1.5},
        {"static_branches": (["se"],)},
        {"static_branches": ("se", "se")},
        {"static_branches": 5},
        {"static_branches": None},
        {"memory_capacity": True},
        {"memory_capacity": 2.5},
        {"memory_capacity": -1},
        {"write_period": 0},
        {"write_period": 2.5},
        {"write_period": True},
        {"write_threshold": float("nan")},
        {"write_threshold": -0.1},
        {"write_threshold": True},
        {"attention_mode": None},
        {"attention_mode": "GATED"},
        {"static_branches": ["se"]},
        {"static_branches": ("se", "Ca")},
    ])
    def test_model_fields_validated_at_construction(self, overrides):
        with pytest.raises(ConfigError):
            M.ModelConfig(**overrides)

    @pytest.mark.parametrize("values, key", [
        ({"memory_capacity": 0}, "memory_capacity"),
        ({"write_period": "5"}, "write_period"),
        ({"write_threshold": "0.6"}, "write_threshold"),
        ({"static_branches": 5}, "static_branches"),
    ], ids=["capacity_zero", "period_str", "threshold_str", "static_branches_int"])
    def test_mistyped_values_raise_config_error_naming_the_key(self, values, key):
        with pytest.raises(ConfigError, match=key):
            M.ModelConfig(**values)

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
            RunConfig(**values)

    def test_run_key_bounds_accepted(self):
        config = RunConfig(momentum=0.0, weight_decay=0, lambda_cost=0,
                           lr_start=0.01, lr_end=0.01)
        assert (config.momentum, config.weight_decay, config.lambda_cost) == (0, 0, 0)


@pytest.mark.parametrize("attention_mode", ["static", "none"])
def test_fixed_attention_modes_train(attention_mode):
    """A fixed mode has no gate weights, so its loss carries no cost term."""
    model = M.TrackModel(M.ModelConfig(attention_mode=attention_mode), seed=0)
    rng = np.random.default_rng(0)
    crops = T.Tensor4(rng.uniform(0.0, 1.0, (2, 1, 64, 64)).astype(np.float32))
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


@pytest.mark.parametrize("budget", [None, math.inf], ids=["hard", "budgeted"])
def test_nan_gate_input_raises_numeric_error_naming_the_frame(budget):
    """np.argmax takes a NaN for the largest weight, so a NaN feature used to
    be recorded as a clean decision (hard: identity with NaN logits)."""
    model = M.TrackModel(M.ModelConfig(), seed=0)
    feature = T.full((1, 32, 16, 16), math.nan)
    with T.no_grad(), pytest.raises(NumericError, match="gate logits at frame 7"):
        model.enhance_infer(feature, budget=budget, frame_index=7)


def test_nan_soft_gate_input_raises_numeric_error_naming_the_frame():
    """The soft blend's argmax took a NaN for the largest weight too: an
    all-NaN feature was recorded as a clean soft decision for identity."""
    model = M.TrackModel(M.ModelConfig(), seed=0)
    feature = T.full((1, 32, 16, 16), math.nan)
    with pytest.raises(NumericError, match="gate logits at frame 7"):
        model.enhance_soft(feature, frame_index=7)


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
    model = M.TrackModel(M.ModelConfig(), seed=0)
    config = model.config
    assert config.stride == M.STRIDE == 4
    assert (config.crop_size, config.feature_size) == (M.CROP_SIZE, M.FEATURE_SIZE) == (64, 16)
    fs = model.extract(T.zeros((1, 1, crop_size, crop_size))).shape[2]
    assert fs == crop_size // config.stride
    assert model.cost_table is flops.branch_costs(M.CHANNELS, M.REDUCTION, 16, 16)


class TestCheckpoint:
    def test_load_model_restores_values_bitwise(self, tmp_path):
        # inside no_grad too, where a forward runs in float32, parameters stay float64
        config = M.ModelConfig()
        saved = M.TrackModel(config, seed=3)
        path = tmp_path / "model.gtck"
        with T.no_grad():
            M.save_checkpoint(path, saved.params)
            loaded = M.load_model(config, path)
        assert loaded.params.names() == saved.params.names()
        for name, tensor in saved.params.items():
            assert loaded.params[name].data.dtype == np.float64
            assert loaded.params[name].data.tobytes() == tensor.data.tobytes()

    def test_shape_mismatch(self, tmp_path):
        narrowed = T.ParamSet()
        for name, tensor in M.TrackModel(M.ModelConfig()).params.items():
            narrowed.add(name, T.Tensor4(tensor.data[:8]) if name == "memory.key.w" else tensor)
        path = tmp_path / "model.gtck"
        M.save_checkpoint(path, narrowed)
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


@pytest.mark.parametrize("center, origin", [
    ((20.0, 12.0), (12, 4)), ((3.0, 40.0), (0, 22)), ((31.6, 2.4), (14, 0))],
    ids=["inside", "clamped_low_x_high_y", "clamped_high_x_low_y"])
def test_crop_at_returns_a_float32_copy_of_the_clamped_window(center, origin):
    frame = np.random.default_rng(0).random((1, 1, 38, 30))
    before = frame.copy()
    crop, got = M.crop_at(frame, center, 16)
    ox, oy = origin
    assert got == (float(ox), float(oy))
    assert crop.dtype == np.float32 and crop.flags.c_contiguous
    assert np.array_equal(crop, frame[:, :, oy:oy + 16, ox:ox + 16].astype(np.float32))
    crop[...] = -1.0
    assert np.array_equal(frame, before)


@pytest.mark.parametrize("frame, center", [
    (np.zeros((32, 32)), (10.0, 10.0)),
    (np.zeros((1, 32, 32)), (10.0, 10.0)),
    (np.zeros((1, 1, 32, 32)), (10.0,)),
    (np.zeros((1, 1, 32, 32)), "10"),
    (np.zeros((1, 1, 32, 32)), ("10", "10")),
    (np.zeros((1, 1, 32, 32)), (10.0, 10.0, 10.0)),
    (np.zeros((1, 1, 32, 32)), ((10.0, 10.0), 10.0)),
    (np.zeros((1, 1, 32, 32)), (True, False)),
], ids=["rank2_frame", "rank3_frame", "one_element_centre", "string_centre",
        "string_pair_centre", "three_element_centre", "ragged_centre", "bool_centre"])
def test_crop_at_malformed_input_raises_shape_error(frame, center):
    """Unchecked, these raised IndexError or TypeError, or cropped silently."""
    with pytest.raises(ShapeError):
        M.crop_at(frame, center, 16)


@pytest.mark.parametrize("center", [(np.nan, 10.0), (10.0, np.inf), (-np.inf, np.nan)])
def test_crop_at_non_finite_centre_raises_numeric_error(center):
    with pytest.raises(NumericError):
        M.crop_at(np.zeros((1, 1, 32, 32)), center, 16)


@pytest.mark.parametrize("pixel", [np.nan, np.inf, -np.inf, 1e39],
                         ids=["nan", "inf", "minus_inf", "beyond_float32"])
def test_crop_at_non_finite_pixel_in_the_window_raises_numeric_error(pixel):
    """A NaN pixel used to reach attend, which returned NaN rows without an
    error; 1e39 is finite in float64 but infinite in the float32 crop."""
    frame = np.zeros((1, 1, 32, 32))
    frame[0, 0, 17, 9] = pixel
    with pytest.raises(NumericError, match="NaN or infinite pixel"):
        M.crop_at(frame, (10.0, 12.0), 16)


def test_a_nan_outside_the_window_still_tracks():
    frame = np.random.default_rng(0).random((1, 1, 96, 96))
    frame[0, 0, 0, 0] = frame[0, 0, 95, 95] = np.nan
    model = M.TrackModel(M.ModelConfig(), seed=0)
    with T.no_grad():
        crop, origin = M.crop_at(frame, (48.0, 48.0), model.config.crop_size)
        enhanced, _, _ = model.enhance_infer(model.extract(T.Tensor4(crop)))
        fused, attn = model.read_memory(enhanced, [enhanced])
        detection = H.decode_detection(model.predict(fused), model.config.stride, origin)
    assert np.isfinite(attn.data).all()
    assert np.isfinite(detection.box.as_array()).all() and 0 < detection.score < 1


@pytest.mark.parametrize("size", [0, -4, 2.5, True])
def test_crop_at_bad_size_raises_config_error(size):
    """Unchecked, a size of -4 slices an empty (1, 1, 0, 0) crop."""
    with pytest.raises(ConfigError, match="crop size"):
        M.crop_at(np.zeros((1, 1, 32, 32)), (10.0, 10.0), size)
