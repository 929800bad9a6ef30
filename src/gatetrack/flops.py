"""Deterministic FLOP accounting for layers, branches and gate decisions.

Conventions (frozen; the budget mechanism and all reports use them):
  * one multiply-accumulate counts as 2 FLOPs,
  * activations and elementwise ops count 1 FLOP per output element,
  * reductions (pooling, softmax, sums) count 1 FLOP per *input* element,
  * layout ops (reshape, concat, slice, transpose) count 0.

The ops and kernels that do the work apply these conventions themselves:
a conv, attention or bottleneck kernel counts its own FLOPs and an op only
the rest.  :func:`gatetrack.tensor.count_flops` sums them, so branch and
gate costs are counted from the code that runs, on blocks built by the
real ``init_*`` functions.  Each shape is counted once; the resulting table is
cached and shared read-only by every model of that shape.
:func:`flops_layer` only prices the rows of ``TrackModel.layer_inventory()``.

Costs depend only on shapes, never on values, so identical configurations
always produce identical numbers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import attention
from . import tensor as T
from .errors import ConfigError

# branch index order used by the gate, cost tables and trace files
BRANCH_ORDER = ("identity",) + tuple(attention.BRANCHES)


def flops_layer(kind, dims):
    """FLOPs of one ``layer_inventory`` row; ``dims`` holds its sizes."""
    try:
        if kind == "conv":
            k = dims["k"]
            return 2.0 * k * k * dims["cin"] * dims["cout"] * dims["hout"] * dims["wout"]
        if kind in ("relu", "elementwise", "softmax"):
            return float(dims["count"])
    except KeyError as missing:
        raise ConfigError(f"flops_layer {kind!r} missing dim {missing}") from None
    raise ConfigError(f"unknown layer kind {kind!r}")


@dataclass
class BranchCostTable:
    """Per-branch attention cost in FLOPs for a fixed feature shape.

    ``costs`` is a read-only copy, so one table can be shared by every model.
    """

    costs: np.ndarray  # aligned with BRANCH_ORDER

    def __post_init__(self):
        self.costs = np.array(self.costs, dtype=np.float64)
        self.costs.flags.writeable = False
        if self.costs.shape != (len(BRANCH_ORDER),):
            raise ConfigError(f"cost table needs {len(BRANCH_ORDER)} entries")
        if self.costs[0] != 0.0 or np.any(self.costs < 0.0):
            raise ConfigError("identity cost must be 0 and all costs >= 0")

    def __getitem__(self, branch):
        if isinstance(branch, str):
            branch = BRANCH_ORDER.index(branch)
        return float(self.costs[branch])

    @property
    def all_attention(self):
        """Cost of running SE, CA and CBAM all at once (the static stack)."""
        return float(self.costs[1:].sum())


@functools.cache
def branch_costs(channels, reduction, height, width):
    """Cost table over BRANCH_ORDER at one feature shape; identity is free.

    Each branch, built by its real ``init_*``, runs once on a zero
    (1, channels, height, width) feature and its ops are counted; the table
    is cached per shape.
    """
    branches = attention.init_branches(T.ParamSet(), np.random.default_rng(0),
                                       channels, reduction)
    feature = T.zeros((1, channels, height, width))
    costs = []
    for kind in BRANCH_ORDER:
        with T.no_grad(), T.count_flops() as total:
            attention.branch_forward(kind, feature, branches.get(kind))
        costs.append(total[0])
    return BranchCostTable(costs)

