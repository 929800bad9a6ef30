"""Training settings of a run.

:class:`RunConfig` holds the seven settings of an SGD run; each is checked
when the config is built, and a bad value raises :class:`ConfigError`
naming its key.  The model's settings are :class:`model.ModelConfig` and a
scene's are :class:`scenes.ScenarioSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, _require_real, _require_size


@dataclass
class RunConfig:
    steps: int = 2000
    batch: int = 4
    lr_start: float = 0.005
    lr_end: float = 0.0001
    momentum: float = 0.9
    weight_decay: float = 0.0001
    lambda_cost: float = 0.01

    def __post_init__(self):
        for key in ("steps", "batch"):
            _require_size(key, getattr(self, key))
        for key, rule in _RUN_REALS.items():
            _require_real(key, getattr(self, key), rule)
        if self.lr_start < self.lr_end:
            raise ConfigError(f"lr_start ({self.lr_start}) must be >= lr_end ({self.lr_end})")


# real-valued run key -> its range
_RUN_REALS = {"lr_start": "> 0", "lr_end": "> 0", "momentum": "in [0, 1)",
              "weight_decay": ">= 0", "lambda_cost": ">= 0"}
