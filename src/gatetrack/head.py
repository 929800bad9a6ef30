"""Anchor-free prediction head: classification, centerness, box regression.

Each branch is two 3x3 convs (pad 1, ReLU) and a final 1x1 conv over the
fused feature map.  Regression outputs are distances (left, top, right,
bottom) from each location's mapped center to the box sides, made positive
with an exponential.  Location (i, j) of a stride-s map corresponds to crop
coordinates ((j + 0.5) s, (i + 0.5) s).

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
from .errors import ShapeError

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


def init_head(params, rng, channels, prefix="head"):
    def branch(name, cout, final_bias):
        w1 = params.add(f"{prefix}.{name}.w1", T.he_normal(rng, (channels, channels, 3, 3)))
        b1 = params.add(f"{prefix}.{name}.b1", T.zeros((1, channels, 1, 1)), decay=False)
        w2 = params.add(f"{prefix}.{name}.w2", T.he_normal(rng, (channels, channels, 3, 3)))
        b2 = params.add(f"{prefix}.{name}.b2", T.zeros((1, channels, 1, 1)), decay=False)
        w3 = params.add(f"{prefix}.{name}.w3", T.he_normal(rng, (cout, channels, 1, 1)))
        b3 = params.add(f"{prefix}.{name}.b3",
                        T.full((1, cout, 1, 1), final_bias), decay=False)
        return (w1, b1, w2, b2, w3, b3)

    # classification starts pessimistic: most locations are negatives
    return HeadParams(
        cls=branch("cls", 1, -2.0),
        ctr=branch("ctr", 1, 0.0),
        reg=branch("reg", 4, 0.0),
    )


def _branch_forward(feature, weights):
    w1, b1, w2, b2, w3, b3 = weights
    h = T.relu(T.conv2d(feature, w1, b1, stride=1, pad=1))
    h = T.relu(T.conv2d(h, w2, b2, stride=1, pad=1))
    return T.conv2d(h, w3, b3)


def head_forward(fused, p: HeadParams):
    if fused.shape[1] != p.cls[0].shape[1]:
        raise ShapeError(
            f"head expects {p.cls[0].shape[1]} channels, feature has {fused.shape[1]}"
        )
    cls = _branch_forward(fused, p.cls)
    ctr = _branch_forward(fused, p.ctr)
    reg_raw = _branch_forward(fused, p.reg)
    return HeadOutput(cls=cls, ctr=ctr, reg=T.exp(reg_raw), reg_raw=reg_raw)


def location_centers(hf, wf, stride):
    """Crop-space centers of every feature location: two (hf, wf) arrays."""
    xs = (np.arange(wf) + 0.5) * stride
    ys = (np.arange(hf) + 0.5) * stride
    return np.meshgrid(xs, ys)  # cx (hf, wf), cy (hf, wf)


def decode_detection(out: HeadOutput, stride, crop_origin=(0.0, 0.0)):
    """Best-scoring box of a single-sample head output, in image coordinates."""
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
    return Detection(score=float(score_map[i, j]), box=BBox(x, y, w, h))


@dataclass
class Labels:
    cls: np.ndarray  # (1, 1, hf, wf) in {0, 1}
    ctr: np.ndarray  # (1, 1, hf, wf) in [0, 1], zero off positives
    reg: np.ndarray  # (1, 4, hf, wf) distances, zero off positives
    positive: np.ndarray  # (1, 1, hf, wf) in {0, 1}

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
    return Labels(cls=positive.copy(), ctr=ctr, reg=reg, positive=positive)


def stack_labels(label_list):
    """Stack single-sample labels along the batch axis for batched losses."""
    return Labels(
        cls=np.concatenate([l.cls for l in label_list]),
        ctr=np.concatenate([l.ctr for l in label_list]),
        reg=np.concatenate([l.reg for l in label_list]),
        positive=np.concatenate([l.positive for l in label_list]),
    )


def iou_loss_map(reg: T.Tensor4, labels: Labels):
    """Per-location 1 - IoU between predicted and target side distances.

    Zero at non-positive locations (their targets are all zero, so the
    intersection vanishes and only the mask keeps them out of the mean).
    """
    target = T.constant(labels.reg)
    mask = labels.positive

    def side(tensor, k):
        return T.slice_channels(tensor, k, k + 1)

    inter_w = T.add(T.minimum(side(reg, 0), side(target, 0)),
                    T.minimum(side(reg, 2), side(target, 2)))
    inter_h = T.add(T.minimum(side(reg, 1), side(target, 1)),
                    T.minimum(side(reg, 3), side(target, 3)))
    inter = T.mul_broadcast(inter_w, inter_h)
    area_pred = T.mul_broadcast(T.add(side(reg, 0), side(reg, 2)),
                                T.add(side(reg, 1), side(reg, 3)))
    area_gt = T.constant(((labels.reg[:, 0] + labels.reg[:, 2])
                          * (labels.reg[:, 1] + labels.reg[:, 3]))[:, None])
    union = T.sub(T.add(area_pred, area_gt), inter)
    iou = T.div_broadcast(inter, union)  # union > 0: predicted sides are exp(...)
    one = T.constant(np.ones_like(labels.cls))
    return T.mul_broadcast(T.sub(one, iou), T.constant(mask))


def compute_loss(out: HeadOutput, labels: Labels, gate_weight_tensors=None,
                 cost_table=None, lambda_cost=0.0):
    """Total training loss for one (batched) head output.

    BCE over all locations for classification, BCE over positives for
    centerness, mean (1 - IoU) over positives for regression, plus an
    optional expected-attention-cost regularizer normalized by the cost of
    running every branch.
    """
    if labels.cls.shape != out.cls.shape:
        raise ShapeError(
            f"labels shape {labels.cls.shape} != head output {out.cls.shape}"
        )
    n_pos = labels.n_positive
    loss = T.bce_with_logits(out.cls, labels.cls)
    if n_pos > 0:
        loss = T.add(loss, T.bce_with_logits(out.ctr, labels.ctr,
                                             mask=labels.positive,
                                             normalizer=n_pos))
        box_term = T.sum_all(iou_loss_map(out.reg, labels))
        loss = T.add(loss, T.scale(box_term, 1.0 / n_pos))
    if lambda_cost and gate_weight_tensors:
        cost_vec = T.constant(cost_table.costs.reshape(1, -1, 1, 1))
        total = None
        count = 0
        for weights in gate_weight_tensors:
            term = T.sum_all(T.mul_broadcast(weights, cost_vec))
            total = term if total is None else T.add(total, term)
            count += weights.shape[0]
        norm = lambda_cost / (count * cost_table.all_attention)
        loss = T.add(loss, T.scale(total, norm))
    return loss
