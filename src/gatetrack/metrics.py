"""Tracking evaluation metrics and gate-trace statistics.

Conventions, frozen for golden files: success rates use strict inequality
(IoU > threshold); the overlap success curve is sampled at 101 thresholds
0, 0.01, ..., 1 and the normalized-precision curve at 51 thresholds
0, 0.01, ..., 0.5; trace statistics use the population standard deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .flops import BRANCH_ORDER
from .head import BBox

SUCCESS_THRESHOLDS = np.round(np.linspace(0.0, 1.0, 101), 2)
NORM_PRECISION_THRESHOLDS = np.round(np.linspace(0.0, 0.5, 51), 2)
PRECISION_RADIUS_PX = 20.0
COSTLIEST_BRANCH = "cbam"


@dataclass
class TrackResult:
    """Aligned predicted and ground-truth boxes for one sequence."""

    pred: list  # list[BBox]
    gt: list  # list[BBox]
    valid: list = None  # frames counted in metrics; default all

    def __post_init__(self):
        if len(self.pred) != len(self.gt):
            raise ShapeError(
                f"prediction/gt length mismatch: {len(self.pred)} vs {len(self.gt)}"
            )
        if not self.pred:
            raise ShapeError("empty track result")
        if self.valid is None:
            self.valid = [True] * len(self.pred)
        elif len(self.valid) != len(self.pred):
            raise ShapeError("valid mask length mismatch")

    def __len__(self):
        return len(self.pred)

    def ious(self):
        return np.array([iou(p, g) for p, g in zip(self.pred, self.gt)])

    def counted(self):
        return np.asarray(self.valid, dtype=bool)


@dataclass
class TraceRow:
    frame: int
    phase: str
    weights: np.ndarray  # (B,), sums to 1
    selected: int  # branch index
    flops: float


@dataclass
class GateTrace:
    rows: list = field(default_factory=list)

    def append(self, frame, phase, weights, selected, cost):
        w = np.asarray(weights, dtype=np.float64).ravel()
        if abs(w.sum() - 1.0) > 1e-9:
            raise ShapeError(f"trace weights must sum to 1, got {w.sum()}")
        self.rows.append(TraceRow(int(frame), str(phase), w, int(selected), float(cost)))

    def __len__(self):
        return len(self.rows)

    def phases(self):
        seen = []
        for row in self.rows:
            if row.phase not in seen:
                seen.append(row.phase)
        return seen


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0 whenever the union is empty."""
    if not all(math.isfinite(v) for v in (a.x, a.y, a.w, a.h, b.x, b.y, b.w, b.h)):
        raise NumericError(f"boxes must have finite fields, got {a} and {b}")
    if a.w < 0 or a.h < 0 or b.w < 0 or b.h < 0:
        raise ShapeError("boxes must have nonnegative sizes")
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    inter = max(ix, 0.0) * max(iy, 0.0)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def center_distance(a: BBox, b: BBox) -> float:
    return float(np.hypot(a.cx - b.cx, a.cy - b.cy))


def otb_success_precision(result: TrackResult):
    """Overlap success curve (101 points), its AUC, and precision at 20 px."""
    counted = result.counted()
    if not counted.any():
        raise ShapeError("no counted frames")
    ious = result.ious()[counted]
    curve = np.array([(ious > th).mean() for th in SUCCESS_THRESHOLDS])
    auc = float(curve.mean())
    dists = np.array([center_distance(p, g)
                      for p, g, keep in zip(result.pred, result.gt, counted) if keep])
    precision = float((dists < PRECISION_RADIUS_PX).mean())
    return curve, auc, precision


def normalized_precision(result: TrackResult) -> float:
    """AUC of the size-normalized center-error curve over [0, 0.5]."""
    errors = []
    for p, g, keep in zip(result.pred, result.gt, result.counted()):
        if not keep:
            continue
        if g.w <= 0 or g.h <= 0:
            raise ShapeError("degenerate ground-truth box on a counted frame")
        errors.append(np.hypot((p.cx - g.cx) / g.w, (p.cy - g.cy) / g.h))
    if not errors:
        raise ShapeError("no counted frames")
    errors = np.array(errors)
    curve = np.array([(errors < th).mean() for th in NORM_PRECISION_THRESHOLDS])
    return float(curve.mean())


def got10k_ao_sr(results):
    """Mean overlap and success rates at 0.5/0.75 averaged over sequences.

    Aggregation uses exact summation so reordering sequences can never
    change the result, not even in the last bit.
    """
    if not results:
        raise ShapeError("no sequences to evaluate")
    aos, sr50, sr75 = [], [], []
    for r in results:
        counted = r.counted()
        if not counted.any():
            raise ShapeError("sequence with no counted frames")
        ious = r.ious()[counted]
        aos.append(float(ious.mean()))
        sr50.append(float((ious > 0.5).mean()))
        sr75.append(float((ious > 0.75).mean()))
    n = len(results)
    return math.fsum(aos) / n, math.fsum(sr50) / n, math.fsum(sr75) / n


def vot_accuracy_robustness(result: TrackResult, reinit_skip: int = 5):
    """Simplified reinitializing protocol: accuracy and failure count.

    A failure is a counted frame with IoU exactly 0; the following
    ``reinit_skip`` frames are skipped as the tracker restarts from ground
    truth.  Accuracy averages IoU over evaluated non-failure frames.
    """
    ious = result.ious()
    counted = result.counted()
    failures = 0
    kept = []
    i = 0
    while i < len(ious):
        if not counted[i]:
            i += 1
            continue
        if ious[i] == 0.0:
            failures += 1
            i += 1 + reinit_skip
            continue
        kept.append(ious[i])
        i += 1
    accuracy = float(np.mean(kept)) if kept else 0.0
    return accuracy, failures


def gate_trace_stats(trace: GateTrace):
    """Per-phase mean/std of each branch weight plus the activation rate.

    Returns ``(stats, activation_rate)`` where ``stats`` maps phase ->
    branch name -> (mean, population std), and the activation rate is the
    fraction of all frames whose selected branch is the costliest (CBAM).
    """
    if not trace.rows:
        raise ShapeError("empty gate trace")
    stats = {}
    for phase in trace.phases():
        weights = np.stack([row.weights for row in trace.rows if row.phase == phase])
        stats[phase] = {
            name: (float(weights[:, k].mean()), float(weights[:, k].std()))
            for k, name in enumerate(BRANCH_ORDER)
        }
    costliest = BRANCH_ORDER.index(COSTLIEST_BRANCH)
    rate = float(np.mean([row.selected == costliest for row in trace.rows]))
    return stats, rate
