"""The three selectable feature-enhancement branches: SE, CA and CBAM.

Each branch maps a feature map to an equally shaped enhanced map by
multiplying it with gates in (0, 1):

  * SE     — channel gate from globally pooled statistics through a
             two-layer bottleneck MLP.
  * CA     — separate height-path and width-path gates computed from
             directional average pools through a shared bottleneck.
  * CBAM   — channel gate (shared MLP over avg- and max-pooled stats)
             followed by a 7x7 spatial gate over channel statistics.

Each forward is one tensor op with its backward written out, one op per
block rather than one per arithmetic step, as operator fusion runs a block
(Chen et al., OSDI 2018).  It computes on plain arrays in its input's dtype.
The pooled vectors go through the bottleneck as matrix products of the
shapes ``T.conv2d`` gives a 1x1 conv (:func:`_fc`); SE and CBAM share one
bottleneck MLP with its backward, :func:`_mlp`.  CBAM's 7x7 spatial conv is
``T.conv2d``'s own kernel, so the forward is bitwise that of the same steps
run as separate tensor ops; the tests keep that composed form as the oracle
of the forward bits and of every gradient.  The FLOPs add up to those the
composed form counts, under the conventions of :mod:`gatetrack.flops`:
``_fc``, ``_mlp`` and the conv kernel count their own, and each op reports
the rest (pools, gating products, sigmoids).

Each branch declares its parameters once, in its ``init_*``; ``BRANCHES``
maps a branch name to that init and its forward.  With all parameters zero
the gates are all sigmoid(0) = 0.5, so SE scales the input by 0.5 and
CA/CBAM (two gates each) by 0.25 — closed forms the tests check on blocks
built by the real ``init_*`` and then zeroed (``zeroed`` in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError

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


def _input(x):
    """``x``'s data, once its map is not empty; the branch's first matrix
    product checks its channels."""
    if x.shape[2] * x.shape[3] == 0:
        raise ShapeError(f"branch input {x.shape} has an empty map")
    return x.data


def _fc(weight, bias, columns):
    """A 1x1 conv of (m, cin, L) ``columns``: the matrix product and bias add
    of ``T.conv2d``, in the same shapes, so the same bits.

    ``weight`` and ``bias`` are checked against the columns as ``T.conv2d``
    checks them and cast to their dtype, and the product's FLOPs go to an
    open ``T.count_flops`` total.  Returns the output and the (cout, cin)
    weight matrix it multiplied, for the backward.
    """
    T._check_conv((*columns.shape, 1), weight.shape, bias.shape, 1, 0)
    wmat = weight.data.astype(columns.dtype, copy=False).reshape(weight.shape[:2])
    out = np.matmul(wmat, columns)
    out += bias.data.astype(out.dtype, copy=False).reshape(1, -1, 1)
    T._count(2 * columns.shape[1] * out.size)
    return out, wmat


def _mlp(pooled, w1, b1, w2, b2):
    """The bottleneck of SE and CBAM, ``fc2(relu(fc1(pooled)))``, on (m, c, 1)
    columns ``pooled``, the relu applied in place.

    Returns ``(logits, backward)``: the (m, c, 1) logits, and
    ``backward(dlogits)``, which maps an (m, c) logit gradient to
    ``(dpooled, dw1, db1, dw2, db2)``, ``dpooled`` (m, c).  It counts its
    FLOPs as :func:`_fc` does.
    """
    hidden, m1 = _fc(w1, b1, pooled)
    np.maximum(hidden, 0.0, out=hidden)
    T._count(hidden.size)
    logits, m2 = _fc(w2, b2, hidden)
    hid, columns = hidden[:, :, 0], pooled[:, :, 0]

    def backward(dlogits):
        dhid = dlogits @ m2
        dhid *= hid > 0.0
        return (dhid @ m1, (dhid.T @ columns)[:, :, None, None],
                dhid.sum(axis=0).reshape(b1.shape), (dlogits.T @ hid)[:, :, None, None],
                dlogits.sum(axis=0).reshape(b2.shape))

    return logits, backward


def _sigmoid_grad(y):
    """The logistic's derivative at the point where it returned ``y``."""
    return y * (1.0 - y)


def se_forward(x, p: SEParams):
    """Channel reweighting from the global average of each channel."""
    xd = _input(x)
    n, c, h, w = xd.shape
    squeezed = xd.sum(axis=(2, 3), keepdims=True)
    squeezed /= h * w
    logits, mlp_backward = _mlp(squeezed.reshape(n, c, 1), p.w1, p.b1, p.w2, p.b2)
    gate = T.sigmoid_array(logits)[:, :, :, None]  # (n, c, 1, 1)

    def backward(g):
        g = g.astype(xd.dtype, copy=False)
        dlogit = np.einsum("nchw,nchw->nc", g, xd)
        dlogit *= _sigmoid_grad(gate[:, :, 0, 0])
        dpooled, *dmlp = mlp_backward(dlogit)
        dx = None
        if x.requires_grad:
            dx = g * gate
            dx += (dpooled / (h * w))[:, :, None, None]
        return (dx, *dmlp)

    # the mean pool, the gating product and the sigmoid; _mlp counts its own
    return T._result(xd * gate, (x, p.w1, p.b1, p.w2, p.b2), backward, 2 * xd.size + n * c)


def ca_forward(x, p: CAParams):
    """Direction-aware gating from pooled height and width profiles.

    The two directional pools are laid end to end as (n, c, h+w) columns,
    pushed through the shared bottleneck, then split back into the
    per-direction gates.
    """
    xd = _input(x)
    n, c, h, w = xd.shape
    dt = xd.dtype
    zh = xd.sum(axis=3)
    zh /= w
    zw = xd.sum(axis=2)
    zw /= h
    pooled = np.concatenate((zh, zw), axis=2)  # (n, c, h+w)
    hidden, ws = _fc(p.w_shared, p.b_shared, pooled)
    np.maximum(hidden, 0.0, out=hidden)  # (n, c/r, h+w)
    logits_h, wh = _fc(p.w_h, p.b_h, hidden[:, :, :h])
    logits_w, ww = _fc(p.w_w, p.b_w, hidden[:, :, h:])
    gate_h = T.sigmoid_array(logits_h)[:, :, :, None]  # (n, c, h, 1)
    gate_w = T.sigmoid_array(logits_w)[:, :, None, :]  # (n, c, 1, w)
    y = xd * gate_h
    y *= gate_w

    def backward(g):
        g = g.astype(dt, copy=False)
        # the sums of g x over w weighted by gate_w, and over h by gate_h,
        # as batched matrix-vector products
        gx = g * xd
        dzh = np.matmul(gx, gate_w.transpose(0, 1, 3, 2))[:, :, :, 0]  # (n, c, h)
        dzh *= _sigmoid_grad(gate_h[:, :, :, 0])
        dzw = np.matmul(gate_h.transpose(0, 1, 3, 2), gx)[:, :, 0, :]  # (n, c, w)
        dzw *= _sigmoid_grad(gate_w[:, :, 0, :])
        hid_h, hid_w = hidden[:, :, :h], hidden[:, :, h:]
        dhid = np.concatenate((np.matmul(wh.T, dzh), np.matmul(ww.T, dzw)), axis=2)
        dhid *= hidden > 0.0
        dx = None
        if x.requires_grad:
            dpooled = np.matmul(ws.T, dhid)  # (n, c, h+w)
            dx = g * gate_h
            dx *= gate_w
            dx += (dpooled[:, :, :h] / w)[:, :, :, None]
            dx += (dpooled[:, :, h:] / h)[:, :, None, :]

        def weight(dz, columns):
            return np.matmul(dz, columns.transpose(0, 2, 1)).sum(axis=0)[:, :, None, None]

        return (dx, weight(dhid, pooled), dhid.sum(axis=(0, 2)).reshape(p.b_shared.shape),
                weight(dzh, hid_h), dzh.sum(axis=(0, 2)).reshape(p.b_h.shape),
                weight(dzw, hid_w), dzw.sum(axis=(0, 2)).reshape(p.b_w.shape))

    # the two directional pools and the two gating products, and per pooled
    # position the relu and the sigmoid; _fc counts the matrix products
    flops = 4 * xd.size + hidden.size + n * c * (h + w)
    return T._result(y, (x, p.w_shared, p.b_shared, p.w_h, p.b_h, p.w_w, p.b_w),
                     backward, flops)


def cbam_forward(x, p: CBAMParams):
    """Channel gate from avg+max statistics, then a 7x7 spatial gate.

    The shared MLP reads the average- and max-pooled vectors as one
    (2n, c, 1) stack, average rows first; the spatial gate is ``T.conv2d``'s
    kernel over the channel mean and max of the channel-gated map.
    """
    xd = _input(x)
    n, c, h, w = xd.shape
    dt = xd.dtype
    avg = xd.sum(axis=(2, 3))
    avg /= h * w
    pooled = np.concatenate((avg, xd.max(axis=(2, 3))))[:, :, None]  # (2n, c, 1)
    logits, mlp_backward = _mlp(pooled, p.w1, p.b1, p.w2, p.b2)
    channel_gate = T.sigmoid_array(logits[:n] + logits[n:])[:, :, :, None]  # (n, c, 1, 1)
    gated = xd * channel_gate
    mean_c = gated.sum(axis=1, keepdims=True)
    mean_c /= c
    stats = np.concatenate((mean_c, gated.max(axis=1, keepdims=True)), axis=1)  # (n, 2, h, w)
    spatial, spatial_backward = T._conv(stats, p.w_spatial, p.b_spatial, 1, SPATIAL_KERNEL // 2,
                                        True)
    spatial_gate = T.sigmoid_array(spatial)  # (n, 1, h, w)

    def backward(g):
        g = g.astype(dt, copy=False)
        dgated = g * spatial_gate
        dspatial = np.einsum("nchw,nchw->nhw", g, gated)[:, None]
        dspatial *= _sigmoid_grad(spatial_gate)
        dstats, dwsp, dbsp = spatial_backward(dspatial)
        dgated += dstats[:, :1] / c
        _add_at_first_max(dgated, gated, stats[:, 1:], dstats[:, 1:], axis=1)
        dlogit = np.einsum("nchw,nchw->nc", dgated, xd)
        dlogit *= _sigmoid_grad(channel_gate[:, :, 0, 0])
        # both MLP passes, (2n, c)
        dpooled, *dmlp = mlp_backward(np.concatenate((dlogit, dlogit)))
        dx = None
        if x.requires_grad:
            dx = dgated * channel_gate
            dx += (dpooled[:n] / (h * w))[:, :, None, None]
            _add_at_first_max(dx.reshape(n, c, h * w), xd.reshape(n, c, h * w), pooled[n:],
                              dpooled[n:, :, None], axis=2)
        return (dx, *dmlp, dwsp, dbsp)

    # the avg and max pools, the channel-gating product, the channel mean and
    # max and the spatial-gating product; per row the sum of the two MLP
    # passes and its sigmoid; per pixel the spatial sigmoid.  _mlp and _conv
    # count their own
    flops = 6 * xd.size + 2 * n * c + spatial.size
    return T._result(gated * spatial_gate,
                     (x, p.w1, p.b1, p.w2, p.b2, p.w_spatial, p.b_spatial), backward, flops)


def _add_at_first_max(grad, data, peak, values, axis):
    """Add ``values`` into the C-contiguous ``grad`` at the first entry of
    ``data`` along ``axis`` that equals its maximum ``peak``: a max pool's
    gradient, in place.  ``peak`` and ``values`` have size 1 along ``axis``.

    The first maximum is the first True of a compare (a float32 ``argmax``
    over 32 channels took about 4 times as long), and the values are added
    at flat indices (``put_along_axis`` took about twice as long).
    """
    outer, size = math.prod(grad.shape[:axis]), grad.shape[axis]
    inner = grad.size // (outer * size)
    first = (data == peak).reshape(outer, size, inner).argmax(axis=1)
    first *= inner
    first += np.arange(0, outer * size * inner, size * inner)[:, None]
    first += np.arange(inner)
    grad.reshape(-1)[first] += values.reshape(outer, inner)


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
