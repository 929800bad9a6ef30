"""Gated selection and weighting of the attention branches.

A small gating unit (global average pool, two fully connected layers with a
ReLU between them) maps each feature map to one logit per branch over the
4-way decision space (identity, SE, CA, CBAM).  A temperature softmax turns
the logits into weights:

  * soft mode      — output is the weight-blended sum of all branch outputs;
                     fully differentiable, used during training.
  * hard mode      — only the argmax branch runs; weights are recorded
                     one-hot.  Default at inference.
  * budgeted mode  — weights of branches whose cost exceeds the remaining
                     FLOPs budget are zeroed and renormalized before the
                     hard selection, so the chosen branch always fits.

The identity branch costs nothing and can never be masked, which makes the
budget filter total: even a zero budget yields a valid (identity) decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention
from . import tensor as T
from .errors import ConfigError, ParameterError, ShapeError
from .flops import BRANCH_ORDER

N_BRANCHES = len(BRANCH_ORDER)


@dataclass
class GateParams:
    scale: int  # bottleneck divisor d
    tau: float
    w1: T.Tensor4  # (c/d, c, 1, 1)
    b1: T.Tensor4
    w2: T.Tensor4  # (B, c/d, 1, 1)
    b2: T.Tensor4

    def __post_init__(self):
        if self.tau <= 0:
            raise ParameterError(f"gate temperature must be > 0, got {self.tau}")

    @property
    def channels(self):
        return self.w1.shape[1]

    @property
    def n_branches(self):
        return self.w2.shape[0]


@dataclass
class GateDecision:
    """Record of one gating event for one feature map."""

    frame_index: int
    logits: np.ndarray  # (B,)
    weights: np.ndarray  # (B,), sums to 1
    mode: str  # soft | hard | budgeted
    chosen: int  # argmax branch index

    @property
    def chosen_name(self):
        return BRANCH_ORDER[self.chosen]


def init_gate(params, rng, channels, scale, tau, prefix="gate"):
    """Allocate gate parameters; the output layer starts at zero so the
    initial weights are exactly uniform."""
    if channels % scale:
        raise ConfigError(
            f"gate: channels ({channels}) must be divisible by scale ({scale})"
        )
    mid = channels // scale
    return GateParams(
        scale=scale,
        tau=tau,
        w1=params.add(f"{prefix}.w1", T.he_normal(rng, (mid, channels, 1, 1))),
        b1=params.add(f"{prefix}.b1", T.zeros((1, mid, 1, 1)), decay=False),
        w2=params.add(f"{prefix}.w2", T.zeros((N_BRANCHES, mid, 1, 1))),
        b2=params.add(f"{prefix}.b2", T.zeros((1, N_BRANCHES, 1, 1)), decay=False),
    )


def zero_gate(channels, scale=4, tau=1.0):
    mid = channels // scale
    return GateParams(scale, tau,
                      T.zeros((mid, channels, 1, 1)), T.zeros((1, mid, 1, 1)),
                      T.zeros((N_BRANCHES, mid, 1, 1)), T.zeros((1, N_BRANCHES, 1, 1)))


def gate_logits(feature, p: GateParams):
    """Branch logits from globally pooled features: (n, B, 1, 1)."""
    if feature.shape[1] != p.channels:
        raise ShapeError(
            f"gate expects {p.channels} channels, feature has {feature.shape[1]}"
        )
    pooled = T.pool("global_avg", feature)
    hidden = T.relu(T.linear(pooled, p.w1, p.b1))
    return T.linear(hidden, p.w2, p.b2)


def gate_weights(logits, tau):
    """Temperature softmax over the branch axis."""
    return T.softmax_tau(logits, tau=tau, axis=1)


def budget_filter(weights, table, remaining_budget):
    """Zero out weights of branches that do not fit the budget; renormalize.

    Returns a plain (B,) array summing to 1.  If every branch with nonzero
    weight is masked the result is one-hot at identity (always affordable).
    """
    if remaining_budget < 0:
        raise ParameterError(f"budget must be >= 0, got {remaining_budget}")
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


def _branch_output(index, feature, branches):
    kind = BRANCH_ORDER[index]
    params = None if kind == "identity" else branches[kind]
    return attention.branch_forward(kind, feature, params)


def apply_gated_attention(feature, branches, gate: GateParams, mode="soft",
                          budget=None, frame_index=0, table=None):
    """Enhance ``feature`` through the gated branch mix.

    ``branches`` maps branch name to its parameter set.  Returns
    ``(output, weights_tensor_or_None, decisions)`` where ``decisions`` has
    one :class:`GateDecision` per batch row.  Soft mode keeps the weight
    tensor in the graph so losses can regularize expected cost; hard and
    budgeted modes run single samples and evaluate only the chosen branch.
    """
    logits_t = gate_logits(feature, gate)
    weights_t = gate_weights(logits_t, gate.tau)
    n = feature.shape[0]

    if mode == "soft":
        out = None
        for i in range(N_BRANCHES):
            contrib = T.mul_broadcast(
                _branch_output(i, feature, branches),
                T.slice_channels(weights_t, i, i + 1),
            )
            out = contrib if out is None else T.add(out, contrib)
        decisions = []
        for row in range(n):
            w = weights_t.data[row].ravel().copy()
            decisions.append(GateDecision(
                frame_index=frame_index,
                logits=logits_t.data[row].ravel().copy(),
                weights=w,
                mode="soft",
                chosen=int(np.argmax(w)),
            ))
        return out, weights_t, decisions

    if mode in ("hard", "budgeted"):
        if n != 1:
            raise ShapeError(f"{mode} mode gates one feature at a time, got batch {n}")
        soft = weights_t.data[0].ravel()
        if mode == "budgeted":
            if budget is None:
                raise ConfigError("budgeted mode requires a budget")
            if table is None:
                raise ConfigError("budgeted mode requires a branch cost table")
            filtered = budget_filter(soft, table, budget)
        else:
            filtered = soft
        chosen = int(np.argmax(filtered))
        recorded = np.zeros(N_BRANCHES)
        recorded[chosen] = 1.0
        if mode == "budgeted":
            recorded = filtered
        out = _branch_output(chosen, feature, branches)
        decision = GateDecision(
            frame_index=frame_index,
            logits=logits_t.data[0].ravel().copy(),
            weights=recorded,
            mode=mode,
            chosen=chosen,
        )
        return out, None, [decision]

    raise ConfigError(f"unknown gate mode {mode!r}")


def forced_decision_attention(feature, branches, chosen, frame_index=0):
    """Apply one externally chosen branch (random-decision ablations)."""
    if not 0 <= chosen < N_BRANCHES:
        raise ConfigError(f"branch index {chosen} out of range")
    out = _branch_output(chosen, feature, branches)
    weights = np.zeros(N_BRANCHES)
    weights[chosen] = 1.0
    decision = GateDecision(
        frame_index=frame_index,
        logits=np.zeros(N_BRANCHES),
        weights=weights,
        mode="hard",
        chosen=chosen,
    )
    return out, None, [decision]
