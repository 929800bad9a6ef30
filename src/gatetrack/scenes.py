"""Seeded synthetic tracking sequences: stable drift, occlusion, fast motion.

The target is an anisotropic Gaussian blob moving over a textured noise
background; its ground-truth box is the analytic support box (center plus
or minus two sigmas per axis), clipped to the frame.  The three phase
regimes:

  * ``stable``    — drift of at most 1 px/frame with mild shape jitter.
  * ``occlusion`` — a gray rectangle covers a per-frame fraction of the
                    target box drawn uniformly from the configured range.
  * ``fast``      — displacement is the speed multiplier times the base
                    speed, rendered with 3-point motion-blur averaging.

Motion reflects off the frame borders so the target never leaves the frame.
Everything is generated from a single seeded RNG: the same spec yields a
bitwise-identical sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, _require_real, _require_size
from .head import BBox

PHASES = ("stable", "occlusion", "fast")
SUPPORT_SIGMAS = 2.0  # gt box half-size in units of sigma
BASE_SPEED = 1.0  # px/frame, stable-phase ceiling and fast-phase unit
OCCLUDER_VALUE = 0.55
DEFAULT_SCHEDULE = (("stable", 20), ("occlusion", 15), ("fast", 15))


@dataclass
class ScenarioSpec:
    seed: int
    frame_height: int = 128
    frame_width: int = 128
    schedule: tuple = DEFAULT_SCHEDULE
    target_sigma: float = 6.0
    intensity: float = 0.8
    occlusion_range: tuple = (0.6, 0.8)
    fast_multiplier: float = 6.0

    def __post_init__(self):
        for key, low in (("seed", 0), ("frame_height", 1), ("frame_width", 1)):
            _require_size(key, getattr(self, key), low)
        for key in ("target_sigma", "intensity", "fast_multiplier"):
            _require_real(key, getattr(self, key))
        for phase, duration in self.schedule:
            if phase not in PHASES:
                raise ConfigError(f"unknown phase {phase!r}")
            _require_size("phase duration", duration)
        self.schedule = tuple((str(p), int(d)) for p, d in self.schedule)
        lo, hi = self.occlusion_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ConfigError(f"occlusion range {self.occlusion_range} not within [0, 1]")

    def phase_labels(self):
        labels = []
        for phase, duration in self.schedule:
            labels.extend([phase] * duration)
        return labels


@dataclass
class Sequence:
    frames: list  # list[Tensor4], each (1, 1, H, W) in [0, 1]
    gt: list  # list[BBox]
    phases: list  # list[str]

    def __post_init__(self):
        if not (len(self.frames) == len(self.gt) == len(self.phases)):
            raise ConfigError("frames, gt and phases must have equal lengths")

    def __len__(self):
        return len(self.frames)


def _box_blur_1d(img, radius, axis):
    # Not a true box filter, kept because every frame depends on its bits:
    # output 0 sums the 2r+1 taps around it, each later output j sums only the
    # 2r taps j-r .. j+r-1, and all are divided by 2r+1, so past the first row
    # and column a constant image of 1 comes out as 2r/(2r+1) per axis.
    if radius < 1:
        return img
    pad = [(0, 0), (0, 0)]
    pad[axis] = (radius, radius)
    padded = np.pad(img, pad, mode="edge")
    csum = np.cumsum(padded, axis=axis)
    width = 2 * radius + 1
    lead = np.take(csum, range(width - 1, padded.shape[axis]), axis=axis)
    lag = np.take(csum, range(0, padded.shape[axis] - width + 1), axis=axis)
    first = np.take(csum, [width - 1], axis=axis)
    return np.concatenate([first, lead - lag], axis=axis)[:(img.shape[0]), :(img.shape[1])] / width


def _textured_background(rng, h, w):
    noise = rng.uniform(0.05, 0.5, (h, w))
    smooth = _box_blur_1d(_box_blur_1d(noise, 3, 0), 3, 1)
    grain = rng.uniform(-0.03, 0.03, (h, w))
    return np.clip(smooth + grain, 0.0, 1.0)


def _blob(h, w, cx, cy, sx, sy, amplitude):
    ys = np.arange(h)[:, None]
    xs = np.arange(w)[None, :]
    return amplitude * np.exp(-((xs - cx) ** 2 / (2 * sx ** 2)
                                + (ys - cy) ** 2 / (2 * sy ** 2)))


def _support_box(cx, cy, sx, sy, h, w):
    x0 = max(cx - SUPPORT_SIGMAS * sx, 0.0)
    y0 = max(cy - SUPPORT_SIGMAS * sy, 0.0)
    x1 = min(cx + SUPPORT_SIGMAS * sx, float(w))
    y1 = min(cy + SUPPORT_SIGMAS * sy, float(h))
    return BBox(x0, y0, x1 - x0, y1 - y0)


class _Motion:
    """Reflecting random walk of the blob center with per-phase speeds."""

    def __init__(self, rng, spec: ScenarioSpec):
        self.rng = rng
        self.spec = spec
        margin = SUPPORT_SIGMAS * spec.target_sigma * 1.3 + 2.0
        self.x_range = (margin, spec.frame_width - margin)
        self.y_range = (margin, spec.frame_height - margin)
        if self.x_range[0] >= self.x_range[1] or self.y_range[0] >= self.y_range[1]:
            raise ConfigError("target too large for the frame")
        self.x = float(rng.uniform(*self.x_range))
        self.y = float(rng.uniform(*self.y_range))
        angle = rng.uniform(0, 2 * np.pi)
        self.direction = np.array([np.cos(angle), np.sin(angle)])

    def _step_once(self, speed):
        angle_jitter = self.rng.normal(0.0, 0.3)
        c, s = np.cos(angle_jitter), np.sin(angle_jitter)
        self.direction = np.array([
            c * self.direction[0] - s * self.direction[1],
            s * self.direction[0] + c * self.direction[1],
        ])
        nx = self.x + speed * self.direction[0]
        ny = self.y + speed * self.direction[1]
        if not self.x_range[0] <= nx <= self.x_range[1]:
            self.direction[0] = -self.direction[0]
            nx = np.clip(nx, *self.x_range)
        if not self.y_range[0] <= ny <= self.y_range[1]:
            self.direction[1] = -self.direction[1]
            ny = np.clip(ny, *self.y_range)
        prev = (self.x, self.y)
        self.x, self.y = float(nx), float(ny)
        return prev

    def step(self, phase):
        if phase == "fast":
            speed = BASE_SPEED * self.spec.fast_multiplier
        else:
            speed = BASE_SPEED * float(self.rng.uniform(0.3, 1.0))
        return self._step_once(speed)


def generate(spec: ScenarioSpec) -> Sequence:
    """Render the full sequence described by ``spec``.

    The RNG consumes draws in a fixed order, so two calls with the same
    spec produce bitwise-identical frames, boxes and labels.
    """
    rng = np.random.default_rng(spec.seed)
    h, w = spec.frame_height, spec.frame_width
    background = _textured_background(rng, h, w)
    motion = _Motion(rng, spec)
    base_sigma = spec.target_sigma
    aspect = float(rng.uniform(0.7, 1.4))  # anisotropy, fixed per sequence
    frames, boxes, labels = [], [], []

    for phase in spec.phase_labels():
        prev = motion.step(phase)
        sigma_scale = float(np.clip(1.0 + rng.normal(0.0, 0.04), 0.85, 1.15))
        sx = base_sigma * sigma_scale * aspect
        sy = base_sigma * sigma_scale / aspect

        if phase == "fast":
            # average the blob at three sub-positions of this frame interval
            layer = np.zeros((h, w))
            for frac in (1.0 / 3.0, 2.0 / 3.0, 1.0):
                cx = prev[0] + (motion.x - prev[0]) * frac
                cy = prev[1] + (motion.y - prev[1]) * frac
                layer += _blob(h, w, cx, cy, sx, sy, spec.intensity)
            layer /= 3.0
        else:
            layer = _blob(h, w, motion.x, motion.y, sx, sy, spec.intensity)

        frame = np.clip(background + layer, 0.0, 1.0)
        box = _support_box(motion.x, motion.y, sx, sy, h, w)

        if phase == "occlusion":
            fraction = float(rng.uniform(*spec.occlusion_range))
            frame = _draw_occluder(frame, box, fraction)

        frames.append(T.Tensor4(frame[None, None]))
        boxes.append(box)
        labels.append(phase)

    return Sequence(frames=frames, gt=boxes, phases=labels)


def _draw_occluder(frame, box: BBox, fraction):
    """Cover ``fraction`` of the box area with a flat gray rectangle.

    Full box width, proportional height, anchored at the box top; pixel
    quantization keeps the covered fraction within a small slack.  The flat
    value makes coverage directly countable from the rendered frame.
    """
    x0, y0 = int(round(box.x)), int(round(box.y))
    x1 = int(round(box.x + box.w))
    y_cover = y0 + int(round(fraction * box.h))
    frame = frame.copy()
    frame[y0:y_cover, x0:x1] = OCCLUDER_VALUE
    return frame


def split_benchmark(n_train, n_eval, base_seed):
    """Disjoint seeded train/eval scenario specs; every spec covers all phases."""
    if n_train < 1 or n_eval < 1:
        raise ConfigError("need at least one sequence per split")
    train = [ScenarioSpec(seed=base_seed + 1 + i) for i in range(n_train)]
    eval_ = [ScenarioSpec(seed=base_seed + 100000 + 1 + i) for i in range(n_eval)]
    return train, eval_

