"""Helpers shared by the tests."""

import numpy as np

from gatetrack import tensor as T


def zeroed(init, *args):
    """The block ``init(ParamSet, rng, *args)`` builds, every tensor set to zero."""
    params = T.ParamSet()
    block = init(params, np.random.default_rng(0), *args)
    for _, tensor in params.items():
        tensor.data[:] = 0.0
    return block
