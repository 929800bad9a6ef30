"""Feature memory and the space-time readout that fuses it with a query.

The bank stores enhanced feature maps for a few past frames.  Reading out
stacks every stored pixel into one column, runs one key and one value
projection over the whole stack and one key projection over the query,
attends from every query pixel over all memory pixels, gathers the
projected values and fuses the read with the query feature through a 1x1
conv.  The readout is one tensor op, its attention and read through
``tensor._attend``; the tests keep the same steps composed of separate ops
as its oracle.  The fused map always has the query's spatial size no matter
how many frames are stored, and is invariant to any permutation of the
memory pixels up to rounding: the read sums over the memory pixels in their
stored order, in float32 and float64 alike, one block of query rows at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, pairwise

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError, _require_real, _require_size


@dataclass
class ReadoutParams:
    key_w: T.Tensor4  # (ck, c, 1, 1), shared by memory and query sides
    key_b: T.Tensor4
    value_w: T.Tensor4  # (cv, c, 1, 1)
    value_b: T.Tensor4
    fuse_w: T.Tensor4  # (c, cv + c, 1, 1)
    fuse_b: T.Tensor4

    @property
    def key_channels(self):
        return self.key_w.shape[0]

    @property
    def value_channels(self):
        return self.value_w.shape[0]


def init_readout(params, rng, channels, key_channels, value_channels):
    return ReadoutParams(
        key_w=params.add("memory.key.w", T.he_normal(rng, (key_channels, channels, 1, 1))),
        key_b=params.add("memory.key.b", T.zeros((1, key_channels, 1, 1)), decay=False),
        value_w=params.add("memory.value.w", T.he_normal(rng, (value_channels, channels, 1, 1))),
        value_b=params.add("memory.value.b", T.zeros((1, value_channels, 1, 1)), decay=False),
        fuse_w=params.add("memory.fuse.w",
                          T.he_normal(rng, (channels, value_channels + channels, 1, 1))),
        fuse_b=params.add("memory.fuse.b", T.zeros((1, channels, 1, 1)), decay=False),
    )


def check_settings(capacity, write_period, write_threshold,
                   keys=("memory capacity", "memory write period", "memory write threshold")):
    """The rules of a bank's settings, raising ``ConfigError`` that names the
    first bad one by its entry in ``keys``.  ``ModelConfig`` checks its
    memory keys here under their own names."""
    _require_size(keys[0], capacity)
    _require_size(keys[1], write_period)
    _require_real(keys[2], write_threshold, "in [0, 1]")


@dataclass
class MemoryBank:
    """Ordered store of enhanced features keyed by frame index.

    Entry 0 is the initial frame: the first write to an empty bank, whatever
    its frame index, so a tracker re-initialised mid-sequence can start a
    fresh bank.  It is always written and never evicted.  Later entries are
    admitted by :meth:`update` on every ``write_period``-th frame whose
    confidence is at least ``write_threshold`` (a NaN confidence never is),
    and evicted first-in-first-out once the bank is full.  The model builds
    its bank from the ``ModelConfig`` keys of the same names.
    """

    capacity: int
    write_period: int
    write_threshold: float
    entries: list = field(default_factory=list)  # (frame_index, Tensor4)

    def __post_init__(self):
        check_settings(self.capacity, self.write_period, self.write_threshold)

    def __len__(self):
        return len(self.entries)

    @property
    def frame_indices(self):
        return [idx for idx, _ in self.entries]

    def features(self):
        return [feat for _, feat in self.entries]

    def update(self, frame_index, feature, confidence):
        """Maybe write one frame's enhanced feature; returns True if written.

        ``frame_index`` must be an integer >= 0, larger than the last entry's.
        """
        _require_size("frame index", frame_index, low=0)
        if self.entries and frame_index <= self.entries[-1][0]:
            raise ConfigError(
                f"frame index must increase: got {frame_index} after {self.entries[-1][0]}"
            )
        if not self.entries:
            self.entries.append((frame_index, feature))
            return True
        if frame_index % self.write_period or not confidence >= self.write_threshold:
            return False
        if len(self.entries) == self.capacity:
            if self.capacity == 1:
                return False  # the initial frame fills the bank and is never evicted
            del self.entries[1]  # evict the oldest non-initial entry
        self.entries.append((frame_index, feature))
        return True


def readout(query_feature, memory_features, p: ReadoutParams):
    """Fuse a query feature with every stored memory pixel.

    ``memory_features`` is a non-empty list of (n, c, hm, wm) tensors; the
    query is (n, c, hq, wq).  Attention logits are scaled by 1/sqrt(ck),
    applied to the query keys; each query pixel's attention row sums to 1.
    Returns the fused map and the graph-free (n, 1, hq wq, P) attention rows.
    """
    if not memory_features:
        raise ShapeError("readout requires a non-empty memory")
    n, c, hq, wq = query_feature.shape
    for m in memory_features:
        if m.shape[0] != n or m.shape[1] != c:
            raise ShapeError(
                f"memory feature {m.shape} incompatible with query {query_feature.shape}"
            )
    ck, cv, q = p.key_channels, p.value_channels, hq * wq
    qd = query_feature.data

    # every stored pixel as one column, so a single key and a single value
    # projection cover the whole memory whatever the size of each map
    columns = [m.data.reshape(n, c, m.shape[2] * m.shape[3], 1) for m in memory_features]
    stack = columns[0] if len(columns) == 1 else np.concatenate(columns, axis=2)
    if stack.shape[2] == 0:
        raise ShapeError(f"readout needs at least one memory pixel, got {stack.shape}")

    parents = (query_feature, *memory_features, p.key_w, p.key_b, p.value_w, p.value_b,
               p.fuse_w, p.fuse_b)
    record = T._recording(parents)

    def project(x, weight, bias):
        return T._conv(x, weight, bias, 1, 0, True, record)

    mem_keys, mem_keys_backward = project(stack, p.key_w, p.key_b)
    mem_values, mem_values_backward = project(stack, p.value_w, p.value_b)
    query_keys, query_keys_backward = project(qd, p.key_w, p.key_b)
    # tau = sqrt(ck) is the 1/sqrt(ck) logit scale; rows over memory pixels
    read, rows, attend_backward = T._attend(query_keys.reshape(n, ck, q), mem_keys[:, :, :, 0],
                                            mem_values[:, :, :, 0], ck ** 0.5)
    # the fuse conv reads the read and the query as one channel stack
    joined = np.empty((n, cv + c, hq, wq), np.result_type(read, qd))
    joined.reshape(n, cv + c, q)[:, :cv] = read
    joined[:, cv:] = qd
    fused, fuse_backward = project(joined, p.fuse_w, p.fuse_b)

    def backward(g):
        djoined, dfuse_w, dfuse_b = fuse_backward(g)
        dquery_keys, dmem_keys, dmem_values = attend_backward(
            djoined[:, :cv].reshape(n, cv, q))
        dquery, dkey_w, dkey_b = query_keys_backward(dquery_keys.reshape(n, ck, hq, wq))
        dquery += djoined[:, cv:]
        dstack, dkey_w_mem, dkey_b_mem = mem_keys_backward(dmem_keys[:, :, :, None])
        dstack_values, dvalue_w, dvalue_b = mem_values_backward(dmem_values[:, :, :, None])
        dstack += dstack_values
        bounds = accumulate((col.shape[2] for col in columns), initial=0)
        dmemory = [dstack[:, :, lo:hi].reshape(m.shape)
                   for (lo, hi), m in zip(pairwise(bounds), memory_features)]
        return (dquery, *dmemory, dkey_w + dkey_w_mem, dkey_b + dkey_b_mem,
                dvalue_w, dvalue_b, dfuse_w, dfuse_b)

    return T._result(fused, parents, backward), T.Tensor4(rows)
