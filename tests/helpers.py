"""Helpers shared by the tests."""

import numpy as np

from gatetrack import attention as A
from gatetrack import model as M
from gatetrack import tensor as T


def zeroed(init, *args):
    """The block ``init(ParamSet, rng, *args)`` builds, every tensor set to zero."""
    params = T.ParamSet()
    block = init(params, np.random.default_rng(0), *args)
    for _, tensor in params.items():
        tensor.data[:] = 0.0
    return block


def zero_bias(weight):
    """A zero (1, cout, 1, 1) bias for a (cout, cin, kh, kw) conv weight."""
    return T.zeros((1, weight.shape[0], 1, 1))


def vector(values):
    """A 1-D sequence laid out along the channel axis: shape (1, k, 1, 1)."""
    return T.Tensor4(np.asarray(values, dtype=np.float64).reshape(1, -1, 1, 1))


def scalar(value):
    """A (1, 1, 1, 1) tensor holding ``value``."""
    return T.Tensor4(np.full((1, 1, 1, 1), float(value)))


def exact_crop(frame, center, size):
    """``M.crop_at``'s window of ``frame`` in the frame's own dtype, the exact
    float64 reference for a float32 crop: the frame sliced at the origin
    ``crop_at`` clamps to.  Returns (crop, origin), as ``crop_at`` does."""
    _, origin = M.crop_at(frame, center, size)
    ox, oy = int(origin[0]), int(origin[1])
    return frame[:, :, oy:oy + size, ox:ox + size], origin


# The attention branches composed of one tensor op per step: the oracle of
# the one-op branches in ``gatetrack.attention``.

def composed_se(x, p):
    hidden = T.relu(T.conv2d(T.pool("global_avg", x), p.w1, p.b1))
    return T.mul_broadcast(x, T.sigmoid(T.conv2d(hidden, p.w2, p.b2)))


def composed_ca(x, p):
    n, c, h, w = x.shape
    zh = T.pool("avg_over_w", x)  # (n, c, h, 1)
    # (n, c, 1, w) and (n, c, w, 1) hold the same element order
    zw = T.reshape(T.pool("avg_over_h", x), (n, c, w, 1))
    hidden = T.relu(T.conv2d(T.concat((zh, zw), axis=2), p.w_shared, p.b_shared))
    gate_h = T.sigmoid(T.conv2d(T.narrow(hidden, 2, 0, h), p.w_h, p.b_h))
    gate_w = T.sigmoid(T.conv2d(T.narrow(hidden, 2, h, h + w), p.w_w, p.b_w))
    out = T.mul_broadcast(x, gate_h)
    return T.mul_broadcast(out, T.reshape(gate_w, (n, c, 1, w)))


def composed_cbam(x, p):
    def mlp(pooled):
        return T.conv2d(T.relu(T.conv2d(pooled, p.w1, p.b1)), p.w2, p.b2)

    channel_gate = T.sigmoid(
        T.add(mlp(T.pool("global_avg", x)), mlp(T.pool("global_max", x)))
    )
    gated = T.mul_broadcast(x, channel_gate)
    stats = T.concat((T.pool("mean_over_c", gated), T.pool("max_over_c", gated)), axis=1)
    pad = A.SPATIAL_KERNEL // 2
    spatial_gate = T.sigmoid(T.conv2d(stats, p.w_spatial, p.b_spatial, stride=1, pad=pad))
    return T.mul_broadcast(gated, spatial_gate)


COMPOSED = {"se": composed_se, "ca": composed_ca, "cbam": composed_cbam}


def composed_blend(terms, weights):
    """The weighted sum of ``terms`` by ``weights`` columns, one ``narrow``,
    ``mul_broadcast`` and ``add`` at a time: the oracle of ``T.weighted_sum``."""
    out = None
    for i, term in enumerate(terms):
        contrib = T.mul_broadcast(term, T.narrow(weights, 1, i, i + 1))
        out = contrib if out is None else T.add(out, contrib)
    return out
