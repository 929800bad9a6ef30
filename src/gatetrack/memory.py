"""Feature memory and the space-time readout that fuses it with a query.

The bank stores enhanced feature maps for a few past frames.  Reading out
stacks every stored pixel into one column, runs one key and one value
projection over the whole stack and one key projection over the query,
attends from every query pixel over all memory pixels (scaled dot product,
softmax rows), gathers the projected values and fuses the read with the
query feature through a 1x1 conv.  The fused map always has the query's
spatial size no matter how many frames are stored, and is invariant to any
permutation of the memory pixels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import tensor as T
from .errors import ConfigError, ShapeError


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


def init_readout(params, rng, channels, key_channels, value_channels, prefix="memory"):
    return ReadoutParams(
        key_w=params.add(f"{prefix}.key.w",
                         T.he_normal(rng, (key_channels, channels, 1, 1))),
        key_b=params.add(f"{prefix}.key.b", T.zeros((1, key_channels, 1, 1)), decay=False),
        value_w=params.add(f"{prefix}.value.w",
                           T.he_normal(rng, (value_channels, channels, 1, 1))),
        value_b=params.add(f"{prefix}.value.b", T.zeros((1, value_channels, 1, 1)), decay=False),
        fuse_w=params.add(f"{prefix}.fuse.w",
                          T.he_normal(rng, (channels, value_channels + channels, 1, 1))),
        fuse_b=params.add(f"{prefix}.fuse.b", T.zeros((1, channels, 1, 1)), decay=False),
    )


@dataclass
class MemoryBank:
    """Ordered store of enhanced features keyed by frame index.

    Entry 0 is the initial frame: the first write to an empty bank, whatever
    its frame index, so a tracker re-initialised mid-sequence can start a
    fresh bank.  It is always written and never evicted.  Later entries are
    admitted by :meth:`update` (periodic, confidence gated) and evicted
    first-in-first-out once the bank is full.
    """

    capacity: int
    write_period: int = 5
    write_threshold: float = 0.6
    entries: list = field(default_factory=list)  # (frame_index, Tensor4)

    def __post_init__(self):
        if self.capacity < 1:
            raise ConfigError(f"memory capacity must be >= 1, got {self.capacity}")

    def __len__(self):
        return len(self.entries)

    @property
    def frame_indices(self):
        return [idx for idx, _ in self.entries]

    def features(self):
        return [feat for _, feat in self.entries]

    def update(self, frame_index, feature, confidence):
        """Maybe write one frame's enhanced feature; returns True if written."""
        if self.entries and frame_index <= self.entries[-1][0]:
            raise ConfigError(
                f"frame index must increase: got {frame_index} after {self.entries[-1][0]}"
            )
        if not self.entries:
            self.entries.append((frame_index, feature))
            return True
        if frame_index % self.write_period != 0:
            return False
        if confidence < self.write_threshold:
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
    query is (n, c, hq, wq).  Attention logits are scaled by 1/sqrt(ck);
    each query pixel's attention row sums to 1.
    """
    if not memory_features:
        raise ShapeError("readout requires a non-empty memory")
    n, c, hq, wq = query_feature.shape
    for m in memory_features:
        if m.shape[0] != n or m.shape[1] != c:
            raise ShapeError(
                f"memory feature {m.shape} incompatible with query {query_feature.shape}"
            )
    ck = p.key_channels
    cv = p.value_channels

    # every stored pixel as one column, so a single key and a single value
    # projection cover the whole memory whatever the size of each map
    stack = T.concat_spatial(
        *[T.reshape(m, (n, c, m.shape[2] * m.shape[3], 1)) for m in memory_features])
    mem_keys = T.linear(stack, p.key_w, p.key_b)
    mem_values = T.linear(stack, p.value_w, p.value_b)
    query_keys = T.reshape(T.linear(query_feature, p.key_w, p.key_b), (n, ck, hq * wq, 1))

    # tau = sqrt(ck) is the 1/sqrt(ck) logit scale; rows over memory pixels
    attn = T.softmax_tau(T.matmul_cc(query_keys, mem_keys), tau=ck ** 0.5, axis=3)
    read = T.reshape(T.apply_attention(mem_values, attn), (n, cv, hq, wq))
    fused = T.linear(T.concat_channel(read, query_feature), p.fuse_w, p.fuse_b)
    return fused, attn
