"""Helpers shared by the tests."""

import numpy as np

from gatetrack import attention as A
from gatetrack import head as H
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


# The model's stages composed of one tensor op per step: the oracle of the
# one-op stages ``TrackModel.extract``, ``gate.gate_logits``,
# ``memory.readout`` and ``head.head_forward``.

def composed_extract(stem, crops):
    """The backbone of ``TrackModel.stem`` weights on ``crops``."""
    w1, b1, w2, b2, w3, b3 = stem
    s1, s2, s3 = M.STEM_STRIDES
    h = T.relu(T.conv2d(crops, w1, b1, stride=s1, pad=1))
    h = T.relu(T.conv2d(h, w2, b2, stride=s2, pad=1))
    return T.relu(T.conv2d(h, w3, b3, stride=s3, pad=1))


def composed_gate_logits(feature, p):
    pooled = T.pool("global_avg", feature)
    hidden = T.relu(T.conv2d(pooled, p.w1, p.b1))
    return T.conv2d(hidden, p.w2, p.b2)


def composed_readout(query_feature, memory_features, p):
    n, c, hq, wq = query_feature.shape
    ck, cv = p.key_channels, p.value_channels
    stack = T.concat(
        [T.reshape(m, (n, c, m.shape[2] * m.shape[3], 1)) for m in memory_features], axis=2)
    mem_keys = T.conv2d(stack, p.key_w, p.key_b)
    mem_values = T.conv2d(stack, p.value_w, p.value_b)
    query_keys = T.reshape(T.conv2d(query_feature, p.key_w, p.key_b), (n, ck, hq * wq, 1))
    read, attn = T.attend(query_keys, mem_keys, mem_values, ck ** 0.5)
    read = T.reshape(read, (n, cv, hq, wq))
    fused = T.conv2d(T.concat((read, query_feature), axis=1), p.fuse_w, p.fuse_b)
    return fused, attn


def composed_head(fused, p):
    """The head with its first convs joined by a ``concat`` of the branches'
    weights and each branch reading its ``narrow`` of the joined map."""
    c = p.cls[0].shape[1]
    branches = (p.cls, p.ctr, p.reg)
    w1 = T.concat([b[0] for b in branches], axis=0)
    b1 = T.concat([b[1] for b in branches], axis=1)
    hidden = T.relu(T.conv2d(fused, w1, b1, stride=1, pad=1))

    def rest(k, weights):
        _, _, w2, b2, w3, b3 = weights
        h = T.relu(T.conv2d(T.narrow(hidden, 1, k * c, (k + 1) * c), w2, b2, stride=1, pad=1))
        return T.conv2d(h, w3, b3)

    cls, ctr, reg_raw = (rest(k, weights) for k, weights in enumerate(branches))
    return H.HeadOutput(cls=cls, ctr=ctr, reg=T.exp(reg_raw), reg_raw=reg_raw)
