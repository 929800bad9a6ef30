"""The three selectable feature-enhancement branches: SE, CA and CBAM.

Each branch maps a feature map to an equally shaped enhanced map by
multiplying it with gates in (0, 1):

  * SE     — channel gate from globally pooled statistics through a
             two-layer bottleneck MLP.
  * CA     — separate height-path and width-path gates computed from
             directional average pools through a shared bottleneck.
  * CBAM   — channel gate (shared MLP over avg- and max-pooled stats)
             followed by a 7x7 spatial gate over channel statistics.

Each branch declares its parameters once, in its ``init_*``; ``BRANCHES``
maps a branch name to that init and its forward.  With all parameters zero
the gates are all sigmoid(0) = 0.5, so SE scales the input by 0.5 and
CA/CBAM (two gates each) by 0.25 — closed forms the tests check on blocks
built by the real ``init_*`` and then zeroed (``zeroed`` in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .errors import ConfigError

SPATIAL_KERNEL = 7  # CBAM spatial gate kernel; padding 3 keeps shape


@dataclass
class SEParams:
    w1: T.Tensor4  # (c/r, c, 1, 1)
    b1: T.Tensor4  # (1, c/r, 1, 1)
    w2: T.Tensor4  # (c, c/r, 1, 1)
    b2: T.Tensor4  # (1, c, 1, 1)


@dataclass
class CAParams:
    w_shared: T.Tensor4  # (c/r, c, 1, 1)
    b_shared: T.Tensor4
    w_h: T.Tensor4  # (c, c/r, 1, 1)
    b_h: T.Tensor4
    w_w: T.Tensor4  # (c, c/r, 1, 1)
    b_w: T.Tensor4


@dataclass
class CBAMParams:
    w1: T.Tensor4  # shared MLP (c/r, c, 1, 1)
    b1: T.Tensor4
    w2: T.Tensor4  # shared MLP (c, c/r, 1, 1)
    b2: T.Tensor4
    w_spatial: T.Tensor4  # (1, 2, 7, 7)
    b_spatial: T.Tensor4  # (1, 1, 1, 1)


def se_forward(x, p: SEParams):
    """Channel reweighting from the global average of each channel."""
    squeezed = T.pool("global_avg", x)
    hidden = T.relu(T.conv2d(squeezed, p.w1, p.b1))
    gate = T.sigmoid(T.conv2d(hidden, p.w2, p.b2))
    return T.mul_broadcast(x, gate)


def ca_forward(x, p: CAParams):
    """Direction-aware gating from pooled height and width profiles.

    The two directional pools are laid end to end on the h axis as a
    (n, c, h+w, 1) tensor, pushed through the shared bottleneck, then split
    back into the per-direction gates.
    """
    n, c, h, w = x.shape
    zh = T.pool("avg_over_w", x)  # (n, c, h, 1)
    # (n, c, 1, w) and (n, c, w, 1) hold the same element order
    zw = T.reshape(T.pool("avg_over_h", x), (n, c, w, 1))
    stacked = T.concat((zh, zw), axis=2)  # (n, c, h+w, 1)
    hidden = T.relu(T.conv2d(stacked, p.w_shared, p.b_shared))
    gate_h = T.sigmoid(T.conv2d(T.narrow(hidden, 2, 0, h), p.w_h, p.b_h))
    gate_w = T.sigmoid(T.conv2d(T.narrow(hidden, 2, h, h + w), p.w_w, p.b_w))
    out = T.mul_broadcast(x, gate_h)  # (n, c, h, 1) broadcasts over w
    return T.mul_broadcast(out, T.reshape(gate_w, (n, c, 1, w)))


def cbam_forward(x, p: CBAMParams):
    """Channel gate from avg+max statistics, then a 7x7 spatial gate."""

    def mlp(pooled):
        return T.conv2d(T.relu(T.conv2d(pooled, p.w1, p.b1)), p.w2, p.b2)

    channel_gate = T.sigmoid(
        T.add(mlp(T.pool("global_avg", x)), mlp(T.pool("global_max", x)))
    )
    gated = T.mul_broadcast(x, channel_gate)
    stats = T.concat((T.pool("mean_over_c", gated), T.pool("max_over_c", gated)), axis=1)
    spatial_gate = T.sigmoid(
        T.conv2d(stats, p.w_spatial, p.b_spatial, stride=1, pad=SPATIAL_KERNEL // 2)
    )
    return T.mul_broadcast(gated, spatial_gate)


def _bottleneck(channels, divisor, key="reduction"):
    """Width ``channels // divisor`` of a bottleneck; ``key`` names the divisor."""
    if channels % divisor:
        raise ConfigError(f"channels ({channels}) must be divisible by {key} ({divisor})")
    return channels // divisor


def init_se(params, rng, channels, reduction):
    """Allocate SE parameters inside ``params`` and return the view."""
    mid = _bottleneck(channels, reduction)
    return SEParams(
        w1=params.add("se.w1", T.he_normal(rng, (mid, channels, 1, 1))),
        b1=params.add("se.b1", T.zeros((1, mid, 1, 1)), decay=False),
        w2=params.add("se.w2", T.he_normal(rng, (channels, mid, 1, 1))),
        b2=params.add("se.b2", T.zeros((1, channels, 1, 1)), decay=False),
    )


def init_ca(params, rng, channels, reduction):
    mid = _bottleneck(channels, reduction)
    return CAParams(
        w_shared=params.add("ca.conv_shared.w", T.he_normal(rng, (mid, channels, 1, 1))),
        b_shared=params.add("ca.conv_shared.b", T.zeros((1, mid, 1, 1)), decay=False),
        w_h=params.add("ca.conv_h.w", T.he_normal(rng, (channels, mid, 1, 1))),
        b_h=params.add("ca.conv_h.b", T.zeros((1, channels, 1, 1)), decay=False),
        w_w=params.add("ca.conv_w.w", T.he_normal(rng, (channels, mid, 1, 1))),
        b_w=params.add("ca.conv_w.b", T.zeros((1, channels, 1, 1)), decay=False),
    )


def init_cbam(params, rng, channels, reduction):
    mid = _bottleneck(channels, reduction)
    k = SPATIAL_KERNEL
    return CBAMParams(
        w1=params.add("cbam.mlp.w1", T.he_normal(rng, (mid, channels, 1, 1))),
        b1=params.add("cbam.mlp.b1", T.zeros((1, mid, 1, 1)), decay=False),
        w2=params.add("cbam.mlp.w2", T.he_normal(rng, (channels, mid, 1, 1))),
        b2=params.add("cbam.mlp.b2", T.zeros((1, channels, 1, 1)), decay=False),
        w_spatial=params.add("cbam.spatial.w", T.he_normal(rng, (1, 2, k, k))),
        b_spatial=params.add("cbam.spatial.b", T.zeros((1, 1, 1, 1)), decay=False),
    )


# branch name -> (init, forward), in gate order after identity
BRANCHES = {"se": (init_se, se_forward), "ca": (init_ca, ca_forward),
            "cbam": (init_cbam, cbam_forward)}


def init_branches(params, rng, channels, reduction):
    """Allocate every branch in ``BRANCHES`` order; returns name -> parameters."""
    return {kind: init(params, rng, channels, reduction)
            for kind, (init, _) in BRANCHES.items()}


def branch_forward(kind, x, params):
    """Dispatch on branch name: ``identity`` or a key of ``BRANCHES``."""
    if kind == "identity":
        return x
    if kind not in BRANCHES:
        raise ConfigError(f"unknown attention branch {kind!r}")
    return BRANCHES[kind][1](x, params)
