"""Tracking evaluation metrics and gate-trace statistics.

Every metric counts every frame of a :class:`TrackResult`.  Conventions,
frozen for golden files: success rates use strict inequality
(IoU > threshold); the overlap success curve is sampled at 101 thresholds
0, 0.01, ..., 1 and the normalized-precision curve at 51 thresholds
0, 0.01, ..., 0.5; VOT restarts ``VOT_REINIT_SKIP`` frames after a failure.
The gate trace is the list of per-frame :class:`gate.GateDecision` records;
its statistics use the population standard deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError
from .flops import BRANCH_ORDER
from .head import BBox

SUCCESS_THRESHOLDS = np.round(np.linspace(0.0, 1.0, 101), 2)
NORM_PRECISION_THRESHOLDS = np.round(np.linspace(0.0, 0.5, 51), 2)
PRECISION_RADIUS_PX = 20.0
VOT_REINIT_SKIP = 5  # frames skipped while the tracker restarts after a failure


@dataclass
class TrackResult:
    """Aligned predicted and ground-truth boxes for one sequence."""

    pred: list  # list[BBox]
    gt: list  # list[BBox]

    def __post_init__(self):
        if len(self.pred) != len(self.gt):
            raise ShapeError(
                f"prediction/gt length mismatch: {len(self.pred)} vs {len(self.gt)}"
            )
        if not self.pred:
            raise ShapeError("empty track result")

    def __len__(self):
        return len(self.pred)

    def ious(self):
        return np.array([iou(p, g) for p, g in zip(self.pred, self.gt)])


def _require_finite(a: BBox, b: BBox):
    if not all(math.isfinite(v) for v in (a.x, a.y, a.w, a.h, b.x, b.y, b.w, b.h)):
        raise NumericError(f"boxes must have finite fields, got {a} and {b}")


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0 whenever the union is empty.

    Boxes so large that an edge, an area or the union overflows float64
    raise :class:`NumericError`, as non-finite fields do.
    """
    _require_finite(a, b)
    if a.w < 0 or a.h < 0 or b.w < 0 or b.h < 0:
        raise ShapeError("boxes must have nonnegative sizes")
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    inter = max(ix, 0.0) * max(iy, 0.0)
    union = a.area + b.area - inter
    # an overflowed edge makes inter inf or NaN (inf * 0); an overflowed area
    # with a finite inter makes the union inf
    if not (math.isfinite(inter) and math.isfinite(union)):
        raise NumericError(f"boxes overflow float64 in the IoU: {a} and {b}")
    if union <= 0.0:
        return 0.0
    return inter / union


def _center_offset(a: BBox, b: BBox):
    """``(a.cx - b.cx, a.cy - b.cy)``; a non-finite box, or a centre or a
    difference that overflows float64, raises :class:`NumericError` (inf - inf
    would make a NaN that every threshold test quietly fails)."""
    _require_finite(a, b)
    dx, dy = a.cx - b.cx, a.cy - b.cy
    if not (math.isfinite(dx) and math.isfinite(dy)):
        raise NumericError(f"box centres overflow float64: {a} and {b}")
    return dx, dy


def center_distance(a: BBox, b: BBox) -> float:
    """Distance between the box centres; raises :class:`NumericError` where a
    box is not finite or the centres or their distance overflow float64."""
    dx, dy = _center_offset(a, b)
    with np.errstate(over="ignore"):  # an inf is caught below
        d = float(np.hypot(dx, dy))
    if not math.isfinite(d):
        raise NumericError(f"box centre distance overflows float64: {a} and {b}")
    return d


def otb_success_precision(result: TrackResult):
    """Overlap success curve (101 points), its AUC, and precision at 20 px."""
    ious = result.ious()
    curve = np.array([(ious > th).mean() for th in SUCCESS_THRESHOLDS])
    auc = float(curve.mean())
    dists = np.array([center_distance(p, g) for p, g in zip(result.pred, result.gt)])
    precision = float((dists < PRECISION_RADIUS_PX).mean())
    return curve, auc, precision


def normalized_precision(result: TrackResult) -> float:
    """AUC of the size-normalized center-error curve over [0, 0.5].

    A non-finite box, or centres whose difference overflows float64, raise
    :class:`NumericError`, as in :func:`iou`.
    """
    errors = []
    for p, g in zip(result.pred, result.gt):
        dx, dy = _center_offset(p, g)
        if g.w <= 0 or g.h <= 0:
            raise ShapeError(f"degenerate ground-truth box {g}")
        errors.append(np.hypot(dx / g.w, dy / g.h))
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
        ious = r.ious()
        aos.append(float(ious.mean()))
        sr50.append(float((ious > 0.5).mean()))
        sr75.append(float((ious > 0.75).mean()))
    n = len(results)
    return math.fsum(aos) / n, math.fsum(sr50) / n, math.fsum(sr75) / n


def vot_accuracy_robustness(result: TrackResult):
    """Simplified reinitializing protocol: accuracy and failure count.

    A failure is a frame with IoU exactly 0; the following
    ``VOT_REINIT_SKIP`` frames are skipped as the tracker restarts from
    ground truth.  Accuracy averages IoU over evaluated non-failure frames.
    """
    ious = result.ious()
    failures = 0
    kept = []
    i = 0
    while i < len(ious):
        if ious[i] == 0.0:
            failures += 1
            i += 1 + VOT_REINIT_SKIP
            continue
        kept.append(ious[i])
        i += 1
    accuracy = float(np.mean(kept)) if kept else 0.0
    return accuracy, failures


def gate_trace_stats(decisions, phases, table):
    """Per-phase mean/std of each branch weight plus the activation rate.

    ``decisions`` holds one :class:`gate.GateDecision` per frame and
    ``phases`` each frame's phase.  Returns ``(stats, activation_rate)``:
    ``stats`` maps phase (in first-seen order) -> branch name -> (mean,
    population std) of the recorded weights, and the activation rate is the
    fraction of frames that ran the costliest branch of ``table``: the
    chosen branch, or for a fixed record any branch of its set.
    """
    if len(decisions) != len(phases):
        raise ShapeError(f"{len(decisions)} gate decisions for {len(phases)} phases")
    if not decisions:
        raise ShapeError("empty gate trace")
    stats = {}
    for phase in dict.fromkeys(phases):
        weights = np.stack([d.weights for d, p in zip(decisions, phases) if p == phase])
        stats[phase] = {
            name: (float(weights[:, k].mean()), float(weights[:, k].std()))
            for k, name in enumerate(BRANCH_ORDER)
        }
    costliest = BRANCH_ORDER[int(np.argmax(table.costs))]
    rate = float(np.mean([costliest in d.chosen_name.split("+") for d in decisions]))
    return stats, rate
