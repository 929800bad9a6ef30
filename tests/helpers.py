"""Helpers shared by the tests."""

import numpy as np

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
