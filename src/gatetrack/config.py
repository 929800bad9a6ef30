"""Flat key-value run configuration.

One JSON object fully specifies a run; unknown keys are rejected so stale
configs fail loudly.  :func:`write_resolved` writes the resolved
configuration as ``config_used.json`` next to a run's outputs for
reproducibility.  :class:`RunConfig` extends :class:`ModelConfig`, so the
model keys sit in the same flat object as the run keys, and each run key is
a training setting.  Scenes are configured by :class:`scenes.ScenarioSpec`,
not here.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .model import ModelConfig, _require_real, _require_size


@dataclass
class RunConfig(ModelConfig):
    steps: int = 2000
    batch: int = 4
    lr_start: float = 0.005
    lr_end: float = 0.0001
    momentum: float = 0.9
    weight_decay: float = 0.0001
    lambda_cost: float = 0.01

    def __post_init__(self):
        super().__post_init__()
        for key in ("steps", "batch"):
            _require_size(key, getattr(self, key))
        for key, rule in _RUN_REALS.items():
            _require_real(key, getattr(self, key), rule)
        if self.lr_start < self.lr_end:
            raise ConfigError(f"lr_start ({self.lr_start}) must be >= lr_end ({self.lr_end})")

    def model_config(self):
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


# real-valued run key -> its range
_RUN_REALS = {"lr_start": "> 0", "lr_end": "> 0", "momentum": "in [0, 1)",
              "weight_decay": ">= 0", "lambda_cost": ">= 0"}


def from_dict(values):
    known = {f.name for f in fields(RunConfig)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    values = dict(values)
    if "static_branches" in values:  # a JSON list
        branches = values["static_branches"]
        try:
            values["static_branches"] = tuple(branches)
        except TypeError as err:
            raise ConfigError(f"config key 'static_branches' has a malformed value "
                              f"{branches!r}: {err}") from None
    return RunConfig(**values)


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
