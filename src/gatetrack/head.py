"""Anchor-free prediction head: classification, centerness, box regression.

Each branch is two 3x3 convs (pad 1, ReLU) and a final 1x1 conv over the
fused feature map.  The branches' first convs share that input, so they run
as one conv with 3c outputs, and each branch reads its c channels of the
result; the parameters stay per branch.  Regression outputs are distances
(left, top, right, bottom) from each location's mapped center to the box
sides, made positive with an exponential.  Location (i, j) of a stride-s
map corresponds to crop coordinates ((j + 0.5) s, (i + 0.5) s).

Label assignment marks locations whose center falls inside the ground-truth
box shrunk by 0.5 about its center; centerness is the usual geometric mean
of side-distance ratios.  Decoding picks the argmax of
sigmoid(cls) * sigmoid(ctr) (first index on ties), translates by the crop
origin and clamps the box to at least 1 px on each side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import NumericError, ShapeError

SHRINK = 0.5  # positive-region shrink factor about the gt center
MIN_SIDE = 1.0  # decoded boxes never get thinner than this


@dataclass
class BBox:
    """Axis-aligned box, top-left corner plus size, in pixels."""

    x: float
    y: float
    w: float
    h: float

    @property
    def cx(self):
        return self.x + self.w / 2.0

    @property
    def cy(self):
        return self.y + self.h / 2.0

    @property
    def area(self):
        return max(self.w, 0.0) * max(self.h, 0.0)

    def as_array(self):
        return np.array([self.x, self.y, self.w, self.h])


@dataclass
class Detection:
    score: float  # sigmoid(cls) * sigmoid(ctr) at the argmax location
    box: BBox


@dataclass
class HeadOutput:
    cls: T.Tensor4  # (n, 1, hf, wf) logits
    ctr: T.Tensor4  # (n, 1, hf, wf) logits
    reg: T.Tensor4  # (n, 4, hf, wf) positive distances l, t, r, b
    reg_raw: T.Tensor4  # pre-exponential regression output


@dataclass
class HeadParams:
    cls: tuple  # (w1, b1, w2, b2, w3, b3)
    ctr: tuple
    reg: tuple


def init_head(params, rng, channels):
    def branch(name, cout, final_bias):
        w1 = params.add(f"head.{name}.w1", T.he_normal(rng, (channels, channels, 3, 3)))
        b1 = params.add(f"head.{name}.b1", T.zeros((1, channels, 1, 1)), decay=False)
        w2 = params.add(f"head.{name}.w2", T.he_normal(rng, (channels, channels, 3, 3)))
        b2 = params.add(f"head.{name}.b2", T.zeros((1, channels, 1, 1)), decay=False)
        w3 = params.add(f"head.{name}.w3", T.he_normal(rng, (cout, channels, 1, 1)))
        b3 = params.add(f"head.{name}.b3",
                        T.full((1, cout, 1, 1), final_bias), decay=False)
        return (w1, b1, w2, b2, w3, b3)

    # classification starts pessimistic: most locations are negatives
    return HeadParams(
        cls=branch("cls", 1, -2.0),
        ctr=branch("ctr", 1, 0.0),
        reg=branch("reg", 4, 0.0),
    )


def head_forward(fused, p: HeadParams):
    c = p.cls[0].shape[1]
    if fused.shape[1] != c:
        raise ShapeError(f"head expects {c} channels, feature has {fused.shape[1]}")
    branches = (p.cls, p.ctr, p.reg)
    w1 = T.concat([b[0] for b in branches], axis=0)
    b1 = T.concat([b[1] for b in branches], axis=1)
    hidden = T.relu(T.conv2d(fused, w1, b1, stride=1, pad=1))

    def rest(k, weights):
        _, _, w2, b2, w3, b3 = weights
        h = T.relu(T.conv2d(T.narrow(hidden, 1, k * c, (k + 1) * c), w2, b2, stride=1, pad=1))
        return T.conv2d(h, w3, b3)

    cls, ctr, reg_raw = (rest(k, weights) for k, weights in enumerate(branches))
    return HeadOutput(cls=cls, ctr=ctr, reg=T.exp(reg_raw), reg_raw=reg_raw)


def location_centers(hf, wf, stride):
    """Crop-space centers of every feature location: two (hf, wf) arrays."""
    xs = (np.arange(wf) + 0.5) * stride
    ys = (np.arange(hf) + 0.5) * stride
    return np.meshgrid(xs, ys)  # cx (hf, wf), cy (hf, wf)


def decode_detection(out: HeadOutput, stride, crop_origin=(0.0, 0.0)):
    """Best-scoring box of a single-sample head output, in image coordinates.

    A NaN or infinite score or box raises :class:`NumericError` here, at the
    frame that produced it, rather than at the next frame's crop.
    """
    if out.cls.shape[0] != 1:
        raise ShapeError("decode_detection handles one sample at a time")
    score_map = T.sigmoid_array(out.cls.data[0, 0]) * T.sigmoid_array(out.ctr.data[0, 0])
    flat_idx = int(np.argmax(score_map))  # first index on ties
    hf, wf = score_map.shape
    i, j = divmod(flat_idx, wf)
    cx = (j + 0.5) * stride
    cy = (i + 0.5) * stride
    left, top, right, bottom = out.reg.data[0, :, i, j]
    w = max(left + right, MIN_SIDE)
    h = max(top + bottom, MIN_SIDE)
    x = cx - left + float(crop_origin[0])
    y = cy - top + float(crop_origin[1])
    score = float(score_map[i, j])
    if not np.isfinite((score, x, y, w, h)).all():
        raise NumericError(f"head output decodes to a non-finite detection: "
                           f"score {score}, box {(x, y, w, h)}")
    return Detection(score=score, box=BBox(x, y, w, h))


@dataclass
class Labels:
    ctr: np.ndarray  # (1, 1, hf, wf) in [0, 1], zero off positives
    reg: np.ndarray  # (1, 4, hf, wf) distances, zero off positives
    positive: np.ndarray  # (1, 1, hf, wf) in {0, 1}, also the classification target

    @property
    def n_positive(self):
        return int(self.positive.sum())


def make_labels(gt: BBox, stride, shape):
    """Per-location targets for one ground-truth box in crop coordinates.

    A ground truth entirely outside the crop simply yields no positives.
    """
    hf, wf = shape
    cx, cy = location_centers(hf, wf, stride)
    x0, y0 = gt.x, gt.y
    x1, y1 = gt.x + gt.w, gt.y + gt.h
    sx0 = gt.cx - SHRINK * gt.w / 2.0
    sx1 = gt.cx + SHRINK * gt.w / 2.0
    sy0 = gt.cy - SHRINK * gt.h / 2.0
    sy1 = gt.cy + SHRINK * gt.h / 2.0
    inside = (cx >= sx0) & (cx <= sx1) & (cy >= sy0) & (cy <= sy1)
    inside &= (cx >= x0) & (cx <= x1) & (cy >= y0) & (cy <= y1)

    left = cx - x0
    top = cy - y0
    right = x1 - cx
    bottom = y1 - cy
    reg = np.stack([left, top, right, bottom])[None] * inside[None, None]

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_x = np.minimum(left, right) / np.maximum(left, right)
        ratio_y = np.minimum(top, bottom) / np.maximum(top, bottom)
        ctr = np.sqrt(np.clip(ratio_x * ratio_y, 0.0, None))
    ctr = np.where(inside, np.nan_to_num(ctr), 0.0)[None, None]

    positive = inside.astype(np.float64)[None, None]
    return Labels(ctr=ctr, reg=reg, positive=positive)


def stack_labels(label_list):
    """Stack single-sample labels along the batch axis for batched losses."""
    return Labels(
        ctr=np.concatenate([l.ctr for l in label_list]),
        reg=np.concatenate([l.reg for l in label_list]),
        positive=np.concatenate([l.positive for l in label_list]),
    )


def iou_loss_map(reg: T.Tensor4, labels: Labels):
    """Per-location 1 - IoU between predicted and target side distances.

    Zero at non-positive locations (their targets are all zero, so the
    intersection vanishes and only the mask keeps them out of the mean).
    """
    target = T.Tensor4(labels.reg)
    mask = labels.positive

    def width_height(sides):
        """``(l + r, t + b)`` of (n, 4, h, w) side distances (l, t, r, b)."""
        l, t, r, b = (T.narrow(sides, 1, k, k + 1) for k in range(4))
        return T.add(l, r), T.add(t, b)

    inter = T.mul_broadcast(*width_height(T.minimum(reg, target)))
    area_pred = T.mul_broadcast(*width_height(reg))
    area_gt = T.mul_broadcast(*width_height(target))
    union = T.sub(T.add(area_pred, area_gt), inter)
    iou = T.div_broadcast(inter, union)  # union > 0: predicted sides are exp(...)
    one = T.Tensor4(np.ones_like(mask))
    return T.mul_broadcast(T.sub(one, iou), T.Tensor4(mask))


def compute_loss(out: HeadOutput, labels: Labels, gate_weight_tensors=None,
                 cost_table=None, lambda_cost=0.0):
    """Total training loss for one (batched) head output.

    BCE over all locations for classification, BCE over positives for
    centerness, mean (1 - IoU) over positives for regression, plus an
    optional expected-attention-cost regularizer normalized by the cost of
    running every branch.  A ``None`` gate weight tensor, from a fixed
    attention mode, has no decision to regularize and adds no cost term.
    """
    if labels.positive.shape != out.cls.shape:
        raise ShapeError(
            f"labels shape {labels.positive.shape} != head output {out.cls.shape}"
        )
    n_pos = labels.n_positive
    loss = T.bce_with_logits(out.cls, labels.positive)
    if n_pos > 0:
        loss = T.add(loss, T.bce_with_logits(out.ctr, labels.ctr,
                                             mask=labels.positive,
                                             normalizer=n_pos))
        box_term = T.sum_all(iou_loss_map(out.reg, labels))
        loss = T.add(loss, T.scale(box_term, 1.0 / n_pos))
    weight_tensors = [w for w in gate_weight_tensors or () if w is not None]
    if lambda_cost and weight_tensors:
        cost_vec = T.Tensor4(cost_table.costs.reshape(1, -1, 1, 1))
        total = None
        count = 0
        for weights in weight_tensors:
            term = T.sum_all(T.mul_broadcast(weights, cost_vec))
            total = term if total is None else T.add(total, term)
            count += weights.shape[0]
        norm = lambda_cost / (count * cost_table.all_attention)
        loss = T.add(loss, T.scale(total, norm))
    return loss
