"""Flat key-value run configuration.

One JSON object fully specifies a run; unknown keys are rejected so stale
configs fail loudly.  :func:`write_resolved` writes the resolved
configuration as ``config_used.json`` next to a run's outputs for
reproducibility.  :class:`RunConfig` extends :class:`ModelConfig`, so the
model keys sit in the same flat object as the run keys.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .model import ModelConfig, _require_real, _require_size
from .scenes import DEFAULT_SCHEDULE


@dataclass
class RunConfig(ModelConfig):
    seed: int = 0

    # scenes
    frame_height: int = 128
    frame_width: int = 128
    phase_schedule: tuple = DEFAULT_SCHEDULE
    target_sigma: float = 6.0
    target_intensity: float = 0.8
    occlusion_low: float = 0.6
    occlusion_high: float = 0.8
    fast_multiplier: float = 6.0
    n_train_sequences: int = 20
    n_eval_sequences: int = 20

    # training
    steps: int = 2000
    batch: int = 4
    lr_start: float = 0.005
    lr_end: float = 0.0001
    momentum: float = 0.9
    weight_decay: float = 0.0001
    lambda_cost: float = 0.01

    # tracking
    budget: float = None  # per-frame attention FLOPs cap; None = unlimited

    def __post_init__(self):
        super().__post_init__()
        for key, low in _RUN_COUNTS.items():
            _require_size(key, getattr(self, key), low)
        for key, rule in _RUN_REALS.items():
            _require_real(key, getattr(self, key), rule)
        if self.lr_start < self.lr_end:
            raise ConfigError(f"lr_start ({self.lr_start}) must be >= lr_end ({self.lr_end})")
        if self.budget is not None:
            _require_real("budget", self.budget, ">= 0")
        if self.occlusion_low > self.occlusion_high:
            raise ConfigError("occlusion range must satisfy 0 <= low <= high <= 1")

    def model_config(self):
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})

    def scene_kwargs(self):
        return dict(
            frame_height=self.frame_height,
            frame_width=self.frame_width,
            schedule=tuple((p, d) for p, d in self.phase_schedule),
            target_sigma=self.target_sigma,
            intensity=self.target_intensity,
            occlusion_range=(self.occlusion_low, self.occlusion_high),
            fast_multiplier=self.fast_multiplier,
        )

    def to_json(self):
        raw = asdict(self)
        raw["stem_channels"] = list(self.stem_channels)
        raw["static_branches"] = list(self.static_branches)
        raw["phase_schedule"] = [[p, d] for p, d in self.phase_schedule]
        return json.dumps(raw, indent=2, sort_keys=True) + "\n"


# run key -> the least value of a count, or the range of a real number
_RUN_COUNTS = {"seed": 0, "frame_height": 1, "frame_width": 1, "n_train_sequences": 1,
               "n_eval_sequences": 1, "steps": 1, "batch": 1}
_RUN_REALS = {"target_sigma": "> 0", "target_intensity": "> 0", "occlusion_low": "in [0, 1]",
              "occlusion_high": "in [0, 1]", "fast_multiplier": "> 0", "lr_start": "> 0",
              "lr_end": "> 0", "momentum": "in [0, 1)", "weight_decay": ">= 0",
              "lambda_cost": ">= 0"}
_TUPLE_KEYS = {"stem_channels", "static_branches"}


def from_dict(values):
    known = {f.name for f in fields(RunConfig)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cleaned = {}
    for key, value in values.items():
        try:
            if key == "phase_schedule":
                value = tuple((str(p), int(d)) for p, d in value)
            elif key in _TUPLE_KEYS and value is not None:
                value = tuple(value)
        except (TypeError, ValueError) as err:
            raise ConfigError(
                f"config key {key!r} has a malformed value {value!r}: {err}") from None
        cleaned[key] = value
    return RunConfig(**cleaned)


def load_config(path=None, overrides=None):
    """Defaults, optionally overlaid with a JSON file and CLI overrides."""
    values = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as err:
            raise ConfigError(f"cannot read config file {path}: {err}") from None
        try:
            loaded = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file {path} is not valid JSON: {err}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        values.update(loaded)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return from_dict(values)


def write_resolved(config: RunConfig, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config_used.json").write_text(config.to_json())
