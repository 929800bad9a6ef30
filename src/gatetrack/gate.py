"""Gated selection and weighting of the attention branches.

A small gating unit (global average pool, two fully connected layers with a
ReLU between them) maps each feature map to one logit per branch over the
4-way decision space (identity, SE, CA, CBAM) as one tensor op,
:func:`gate_logits`; the tests keep the same steps composed of separate ops
as its oracle.  A temperature softmax turns
the logits into weights, used in one of two ways:

  * :func:`soft_attention` — training: the output is the weight-blended sum
                             of all branch outputs, one ``T.weighted_sum``,
                             fully differentiable.
  * :func:`decide`         — inference: one branch per feature map.  The
                             decision is hard (the argmax, recorded one-hot)
                             unless a budget is given; then it is budgeted:
                             branches whose cost exceeds the budget are
                             masked and the weights renormalized before the
                             argmax, so the chosen branch always fits.

The identity branch costs nothing and can never be masked, which makes the
budget filter total: even a zero budget yields a valid (identity) decision.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from . import attention
from . import tensor as T
from .errors import NumericError, ParameterError, ShapeError
from .flops import BRANCH_ORDER

N_BRANCHES = len(BRANCH_ORDER)


@dataclass
class GateParams:
    tau: float
    w1: T.Tensor4  # (c/d, c, 1, 1), d = gate_scale
    b1: T.Tensor4
    w2: T.Tensor4  # (B, c/d, 1, 1)
    b2: T.Tensor4


@dataclass
class GateDecision:
    """Record of one enhancement choice for one feature map.

    ``mode`` says how the weights were set: ``soft`` (the training blend),
    ``hard`` (the gate's argmax, recorded one-hot), ``budgeted`` (the gate's
    weights filtered by a FLOPs budget) or ``fixed`` (the configured set of a
    static or none model, weighted evenly; no gate ran, so the logits are
    zero and ``chosen`` is None).  ``chosen_name`` names the chosen branch,
    or for a fixed record every branch that ran, joined by "+" in branch
    order (``"se+ca+cbam"``).
    """

    frame_index: int
    logits: np.ndarray  # (B,)
    weights: np.ndarray  # (B,), sums to 1
    mode: str  # soft | hard | budgeted | fixed
    chosen: int | None  # argmax branch index; None for a fixed record

    @property
    def chosen_name(self):
        if self.chosen is None:
            return "+".join(BRANCH_ORDER[i] for i in np.flatnonzero(self.weights))
        return BRANCH_ORDER[self.chosen]


def init_gate(params, rng, channels, scale, tau):
    """Allocate gate parameters; the output layer starts at zero so the
    initial weights are exactly uniform."""
    mid = attention._bottleneck(channels, scale, "gate_scale")
    return GateParams(
        tau=tau,
        w1=params.add("gate.w1", T.he_normal(rng, (mid, channels, 1, 1))),
        b1=params.add("gate.b1", T.zeros((1, mid, 1, 1)), decay=False),
        w2=params.add("gate.w2", T.zeros((N_BRANCHES, mid, 1, 1))),
        b2=params.add("gate.b2", T.zeros((1, N_BRANCHES, 1, 1)), decay=False),
    )


@functools.cache
def gate_cost(channels, scale, height, width):
    """FLOPs of one gate evaluation on a (1, channels, height, width) feature.

    Counted once per shape on a gate built by :func:`init_gate`.
    """
    p = init_gate(T.ParamSet(), np.random.default_rng(0), channels, scale, tau=1.0)
    with T.no_grad(), T.count_flops() as total:
        T.softmax_tau(gate_logits(T.zeros((1, channels, height, width)), p), p.tau)
    return float(total[0])


def gate_logits(feature, p: GateParams):
    """Branch logits from globally pooled features: (n, B, 1, 1).

    One op: the average pool, then the two fully connected layers as 1x1
    convolutions with the relu applied in place between them; the backward
    runs the convolutions' own backwards in reverse.
    """
    h, w = feature.shape[2:]
    if h * w == 0:
        raise ShapeError(f"gate input {feature.shape} has an empty map")
    parents = (feature, p.w1, p.b1, p.w2, p.b2)
    record = T._recording(parents)
    xd = feature.data
    pooled = xd.sum(axis=(2, 3), keepdims=True)
    pooled /= h * w
    hidden, fc1_backward = T._conv(pooled, p.w1, p.b1, 1, 0, True, record, relu=True)
    logits, fc2_backward = T._conv(hidden, p.w2, p.b2, 1, 0, True, record)

    def backward(g):
        dhidden, dw2, db2 = fc2_backward(g)
        dpooled, dw1, db1 = fc1_backward(dhidden)
        return (np.broadcast_to(dpooled / (h * w), xd.shape), dw1, db1, dw2, db2)

    return T._result(logits, parents, backward, xd.size)  # the pool; _conv counts the rest


def _finite_logits(feature, p: GateParams, frame_index):
    """:func:`gate_logits`, raising :class:`NumericError` naming ``frame_index``
    on a NaN or infinite logit: an argmax would take a NaN for the largest
    weight and record the frame as a clean decision."""
    logits = gate_logits(feature, p)
    if not np.isfinite(logits.data).all():
        raise NumericError(f"gate logits at frame {frame_index} are not finite: "
                           f"{logits.data.ravel().tolist()}")
    return logits


def budget_filter(weights, table, remaining_budget):
    """Zero out weights of branches that do not fit the budget; renormalize.

    Returns a plain (B,) array summing to 1.  If every branch with nonzero
    weight is masked the result is one-hot at identity (always affordable).
    The budget must be a real number >= 0 (bool is not one); inf means
    unlimited.
    """
    if (isinstance(remaining_budget, bool) or not isinstance(remaining_budget, numbers.Real)
            or not remaining_budget >= 0):  # also rejects NaN
        raise ParameterError(f"budget must be a real number >= 0, got {remaining_budget!r}")
    w = np.asarray(weights, dtype=np.float64).ravel().copy()
    if w.size != table.costs.size:
        raise ShapeError(f"{w.size} weights for {table.costs.size} branches")
    w[table.costs > remaining_budget] = 0.0
    total = w.sum()
    if total <= 0.0:
        w = np.zeros_like(w)
        w[0] = 1.0  # identity
        return w
    return w / total


def soft_attention(feature, branches, gate: GateParams, frame_index=0):
    """Training blend: the weight-mixed sum of every branch output.

    ``branches`` maps branch name to its parameter set.  Returns
    ``(output, weights, decisions)``: ``weights`` is the in-graph (n, B, 1, 1)
    tensor, so a loss can regularize the expected cost, and ``decisions``
    holds one soft :class:`GateDecision` per batch row.  A NaN or infinite
    logit raises :class:`NumericError` naming ``frame_index``.
    """
    logits_t = _finite_logits(feature, gate, frame_index)
    weights_t = T.softmax_tau(logits_t, gate.tau)
    out = T.weighted_sum([attention.branch_forward(kind, feature, branches.get(kind))
                          for kind in BRANCH_ORDER], weights_t)
    decisions = []
    for row in range(feature.shape[0]):
        w = weights_t.data[row].ravel().copy()
        decisions.append(GateDecision(
            frame_index=frame_index,
            logits=logits_t.data[row].ravel().copy(),
            weights=w,
            mode="soft",
            chosen=int(np.argmax(w)),
        ))
    return out, weights_t, decisions


def decide(feature, gate: GateParams, table, budget=None, frame_index=0):
    """The one branch to run on a single feature map.

    Without a budget the decision is hard: the argmax branch, recorded
    one-hot.  With a budget it is budgeted: :func:`budget_filter` masks the
    branches whose ``table`` cost does not fit, and the filtered weights are
    recorded.  A NaN or infinite logit raises :class:`NumericError` naming
    ``frame_index``.
    """
    if feature.shape[0] != 1:
        raise ShapeError(f"a decision gates one feature at a time, got batch {feature.shape[0]}")
    logits = _finite_logits(feature, gate, frame_index)
    weights = T.softmax_tau(logits, gate.tau).data.ravel()
    if budget is None:
        chosen = int(np.argmax(weights))
        recorded = np.zeros(N_BRANCHES)
        recorded[chosen] = 1.0
        mode = "hard"
    else:
        recorded = budget_filter(weights, table, budget)
        chosen = int(np.argmax(recorded))
        mode = "budgeted"
    return GateDecision(frame_index=frame_index, logits=logits.data.ravel().copy(),
                        weights=recorded, mode=mode, chosen=chosen)
