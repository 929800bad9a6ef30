"""Full tracker model: backbone stem, enhancement branches, gate, readout, head.

The backbone is a small three-conv stem, 1 -> ``STEM_WIDTH`` -> ``CHANNELS``
-> ``CHANNELS`` (1 -> 16 -> 32 -> 32), producing 16x16 feature maps from
64x64 grayscale crops.  Its conv strides are ``STEM_STRIDES`` and ``STRIDE``
is their product, the backbone's downsampling factor.  The backbone is one
tensor op, :meth:`TrackModel.extract`, as the gate's logits, the memory
readout and the head are (see :mod:`gatetrack.tensor`).  These sizes, the
branch and gate bottlenecks, the gate temperature and the readout's key and
value widths are module constants.  :class:`ModelConfig` holds only what a
workload sets: the memory bank's capacity and write rule, and the attention
mode with its static branches.  Its ``crop_size``, ``stride`` and
``feature_size`` read the constants.

Enhancement runs a set of named branches and averages their outputs; the
attention mode fixes how the set is chosen:

  * ``gated``  — the gate picks one branch per feature map, within a FLOPs
                 budget when one is given (training blends all four),
  * ``static`` — the configured ``static_branches``,
  * ``none``   — identity alone (the no-attention baseline), as is static
                 mode with no branches.

The attention FLOPs of a frame are the cost-table sum over its set.

:func:`crop_at` hands the network float32 crops, so tracked frames and
training batches run float32 by the precision rule in
:mod:`gatetrack.tensor`; parameters and checkpoints are float64.  It is the
model's boundary for pixel values: a crop holding a NaN or infinite pixel
raises ``NumericError`` there, since no op checks its data.

Checkpoints are a text index, ``GTCK1 <count>`` then one ``<name> <size>``
line per tensor and a blank line, followed by one DT64 blob per entry (the
magic ``DT64``, four little-endian uint32 extents, float64 data) in parameter
order, so identical parameters give identical bytes.  This module owns the
format; every fault raises ``ShapeError`` naming the file, tensor and reason.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import attention, flops, gate, head, memory
from . import tensor as T
from .errors import ConfigError, NumericError, ShapeError, _require_size

STEM_STRIDES = (2, 2, 1)  # backbone conv1..conv3
STRIDE = math.prod(STEM_STRIDES)  # the backbone's downsampling factor
CROP_SIZE = 64  # side of a memory or search crop, px
FEATURE_SIZE = CROP_SIZE // STRIDE
STEM_WIDTH = 16  # conv1's output width; conv2 and conv3 output ``CHANNELS``
CHANNELS = 32  # feature width of the backbone, branches, readout and head
REDUCTION = 4  # channel bottleneck of the SE, CA and CBAM branches
GATE_SCALE = 4  # channel bottleneck of the gate
TAU = 1.0  # gate softmax temperature
KEY_CHANNELS = 16  # readout key width
VALUE_CHANNELS = 16  # readout value width


@dataclass
class ModelConfig:
    memory_capacity: int = 3
    write_period: int = 5
    write_threshold: float = 0.6
    attention_mode: str = "gated"  # gated | static | none
    static_branches: tuple = ("se", "ca", "cbam")

    # fixed sizes, read through a config by callers that take one
    crop_size = CROP_SIZE
    stride = STRIDE
    feature_size = FEATURE_SIZE

    def __post_init__(self):
        memory.check_settings(self.memory_capacity, self.write_period, self.write_threshold,
                              keys=("memory_capacity", "write_period", "write_threshold"))
        if self.attention_mode not in ("gated", "static", "none"):
            raise ConfigError(f"unknown attention mode {self.attention_mode!r}")
        if not isinstance(self.static_branches, tuple):
            raise ConfigError(f"static_branches must be a tuple of branch names, "
                              f"got {self.static_branches!r}")
        for b in self.static_branches:
            if not isinstance(b, str) or b not in attention.BRANCHES:
                raise ConfigError(f"unknown static branch {b!r}")
        if len(set(self.static_branches)) != len(self.static_branches):
            raise ConfigError(f"static_branches must not repeat a branch, "
                              f"got {self.static_branches!r}")


class TrackModel:
    """Owns the parameter set and the forward pieces of the tracker."""

    def __init__(self, config: ModelConfig, seed=0):
        self.config = config
        self.params = T.ParamSet()
        rng = np.random.default_rng(seed)
        c = CHANNELS
        c1 = STEM_WIDTH

        p = self.params
        self.stem = (
            p.add("backbone.conv1.w", T.he_normal(rng, (c1, 1, 4, 4))),
            p.add("backbone.conv1.b", T.zeros((1, c1, 1, 1)), decay=False),
            p.add("backbone.conv2.w", T.he_normal(rng, (c, c1, 4, 4))),
            p.add("backbone.conv2.b", T.zeros((1, c, 1, 1)), decay=False),
            p.add("backbone.conv3.w", T.he_normal(rng, (c, c, 3, 3))),
            p.add("backbone.conv3.b", T.zeros((1, c, 1, 1)), decay=False),
        )
        self.branches = attention.init_branches(p, rng, c, REDUCTION)
        self.gate = gate.init_gate(p, rng, c, GATE_SCALE, TAU)
        self.readout = memory.init_readout(p, rng, c, KEY_CHANNELS, VALUE_CHANNELS)
        self.head = head.init_head(p, rng, c)
        fs = FEATURE_SIZE
        self.cost_table = flops.branch_costs(c, REDUCTION, fs, fs)
        self.gate_flops = gate.gate_cost(c, GATE_SCALE, fs, fs)
        static = config.static_branches if config.attention_mode == "static" else ()
        self.fixed_branches = tuple(static) or ("identity",)

    # -- forward pieces ----------------------------------------------------

    def extract(self, crops):
        """Backbone features for a (n, 1, s, s) crop batch: (n, c, s/stride, s/stride).

        One op: three pad-1 convolutions, each rectified in place, whose
        backward runs the convolutions' own backwards in reverse.
        """
        parents = (crops, *self.stem)
        record = T._recording(parents)
        h = crops.data
        layers = []
        for w, b, stride in zip(self.stem[::2], self.stem[1::2], STEM_STRIDES):
            # the first conv's input gradient only when the crops need one
            need_dx = bool(layers) or crops.requires_grad
            h, backward = T._conv(h, w, b, stride, 1, need_dx, record, relu=True)
            layers.append(backward)

        def backward(g):
            grads = []
            for layer in reversed(layers):
                g, dw, db = layer(g)
                grads[:0] = (dw, db)
            return (g, *grads)

        return T._result(h, parents, backward)

    def _run(self, feature, names):
        """Run the branches ``names`` on ``feature`` and average their outputs,
        one ``T.weighted_sum`` with even weights.

        Returns ``(enhanced, attention_flops)``, the cost summed from the
        model's cost table over ``names``.
        """
        outs = [attention.branch_forward(n, feature, self.branches.get(n)) for n in names]
        total = outs[0]
        if len(outs) > 1:
            even = T.full((feature.shape[0], len(outs), 1, 1), 1.0 / len(outs))
            total = T.weighted_sum(outs, even)
        return total, sum(self.cost_table[n] for n in names)

    def enhance_soft(self, feature, frame_index=0):
        """Training-time enhancement; returns (enhanced, weights, decisions).

        ``decisions`` holds one record per batch row.  ``weights`` is the
        in-graph (n, B, 1, 1) tensor in gated mode and None otherwise: a
        fixed set of branches has no decision to learn, so it trains exactly
        as it runs at inference.
        """
        if self.config.attention_mode == "gated":
            return gate.soft_attention(feature, self.branches, self.gate, frame_index)
        enhanced, decision, _ = self.enhance_infer(feature, frame_index=frame_index)
        return enhanced, None, [decision] * feature.shape[0]

    def enhance_infer(self, feature, budget=None, frame_index=0):
        """Inference enhancement; returns ``(enhanced, decision, attention_flops)``.

        In gated mode :func:`gate.decide` picks one branch for the single
        feature map, within ``budget`` when one is given.  Static and none
        modes run ``fixed_branches``, recorded as a ``fixed`` decision, and
        take no budget.
        """
        if self.config.attention_mode == "gated":
            decision = gate.decide(feature, self.gate, self.cost_table, budget, frame_index)
            names = (decision.chosen_name,)
        elif budget is not None:
            raise ConfigError(f"a budget needs gated attention, not "
                              f"{self.config.attention_mode!r}")
        else:
            names = self.fixed_branches
            weights = np.array([n in names for n in flops.BRANCH_ORDER]) / len(names)
            decision = gate.GateDecision(frame_index=frame_index,
                                         logits=np.zeros(gate.N_BRANCHES), weights=weights,
                                         mode="fixed", chosen=None)
        enhanced, cost = self._run(feature, names)
        return enhanced, decision, cost

    def read_memory(self, query_feature, memory_features):
        return memory.readout(query_feature, memory_features, self.readout)

    def predict(self, fused):
        return head.head_forward(fused, self.head)

    def new_bank(self):
        return memory.MemoryBank(
            capacity=self.config.memory_capacity,
            write_period=self.config.write_period,
            write_threshold=self.config.write_threshold,
        )

    # -- bookkeeping ---------------------------------------------------------

    def layer_inventory(self):
        """(name, kind, dims) rows for the full per-frame pipeline."""
        s1 = CROP_SIZE // STEM_STRIDES[0]
        c1 = STEM_WIDTH
        c = CHANNELS
        fs = FEATURE_SIZE
        q = fs * fs
        mem_pixels = self.config.memory_capacity * q
        ck, cv = KEY_CHANNELS, VALUE_CHANNELS
        rows = [
            ("backbone.conv1", "conv", {"k": 4, "cin": 1, "cout": c1,
                                        "hout": s1, "wout": s1}),
            ("backbone.relu1", "relu", {"count": c1 * s1 * s1}),
            ("backbone.conv2", "conv", {"k": 4, "cin": c1, "cout": c,
                                        "hout": fs, "wout": fs}),
            ("backbone.relu2", "relu", {"count": c * fs * fs}),
            ("backbone.conv3", "conv", {"k": 3, "cin": c, "cout": c,
                                        "hout": fs, "wout": fs}),
            ("backbone.relu3", "relu", {"count": c * fs * fs}),
            ("memory.keys", "conv", {"k": 1, "cin": c, "cout": ck,
                                     "hout": fs, "wout": fs}),
            ("memory.values", "conv", {"k": 1, "cin": c, "cout": cv,
                                       "hout": fs, "wout": fs}),
            ("memory.attention", "elementwise", {"count": 2 * ck * q * mem_pixels}),
            ("memory.softmax", "softmax", {"count": q * mem_pixels}),
            ("memory.gather", "elementwise", {"count": 2 * cv * q * mem_pixels}),
            ("memory.fuse", "conv", {"k": 1, "cin": cv + c, "cout": c,
                                     "hout": fs, "wout": fs}),
        ]
        for branch in ("cls", "ctr", "reg"):
            cout = 4 if branch == "reg" else 1
            rows += [
                (f"head.{branch}.conv1", "conv", {"k": 3, "cin": c, "cout": c,
                                                  "hout": fs, "wout": fs}),
                (f"head.{branch}.relu1", "relu", {"count": c * q}),
                (f"head.{branch}.conv2", "conv", {"k": 3, "cin": c, "cout": c,
                                                  "hout": fs, "wout": fs}),
                (f"head.{branch}.relu2", "relu", {"count": c * q}),
                (f"head.{branch}.final", "conv", {"k": 1, "cin": c, "cout": cout,
                                                  "hout": fs, "wout": fs}),
            ]
        rows.append(("head.reg.exp", "elementwise", {"count": 4 * q}))
        return rows


# ---------------------------------------------------------------------------
# checkpoints: text index + concatenated DT64 tensors
# ---------------------------------------------------------------------------

_CKPT_HEADER = "GTCK1"
_DT64_HEADER = struct.Struct("<4s4I")  # magic, then the four extents
_DT64_MAGIC = b"DT64"


def _dt64_bytes(tensor):
    """One tensor as a DT64 blob: magic, extents, little-endian float64 data."""
    return (_DT64_HEADER.pack(_DT64_MAGIC, *tensor.shape)
            + np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())


def _dt64_tensor(blob, where):
    """The tensor in one index entry's bytes; ``where`` prefixes every error."""
    if blob[:4] != _DT64_MAGIC:
        raise ShapeError(f"{where}: bad DT64 magic {blob[:4]!r}")
    if len(blob) < _DT64_HEADER.size:
        raise ShapeError(f"{where}: truncated DT64 header")
    dims = _DT64_HEADER.unpack_from(blob)[1:]
    if 0 in dims:
        raise ShapeError(f"{where}: DT64 header has a zero extent: {dims}")
    expected = _DT64_HEADER.size + 8 * math.prod(dims)
    if len(blob) != expected:
        raise ShapeError(f"{where}: index size {len(blob)} != DT64 size {expected}")
    # copied: the data starts 20 bytes in, off float64 alignment
    data = np.frombuffer(blob, dtype="<f8", offset=_DT64_HEADER.size).reshape(dims)
    return T.Tensor4(data.copy())


def save_checkpoint(path, params):
    names = params.names()
    blobs = [_dt64_bytes(params[name]) for name in names]
    with open(path, "wb") as fh:
        fh.write(f"{_CKPT_HEADER} {len(names)}\n".encode("ascii"))
        for name, blob in zip(names, blobs):
            fh.write(f"{name} {len(blob)}\n".encode("ascii"))
        fh.write(b"\n")
        for blob in blobs:
            fh.write(blob)


def _index_line(fh, problem):
    """One ``<word> <count>`` header line; any malformed line raises ``problem``."""
    try:
        word, count = fh.readline().decode("ascii").split()
        count = int(count)
    except ValueError:  # includes UnicodeDecodeError
        raise ShapeError(problem) from None
    if count < 0:
        raise ShapeError(problem)
    return word, count


def load_checkpoint(path):
    with open(path, "rb") as fh:
        magic, count = _index_line(fh, f"not a checkpoint file: {path}")
        if magic != _CKPT_HEADER:
            raise ShapeError(f"not a checkpoint file: {path}")
        corrupt = f"corrupt checkpoint index in {path}"
        index = [_index_line(fh, corrupt) for _ in range(count)]
        if fh.readline() != b"\n":
            raise ShapeError(corrupt)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        tensors = {}
        for name, size in index:
            if name in tensors:
                raise ShapeError(f"checkpoint {path} names tensor {name} twice")
            # checked before reading: a read of a huge size overflows or
            # exhausts memory instead of coming back short
            if size > left:
                raise ShapeError(f"checkpoint {path}, tensor {name}: index size {size} "
                                 f"exceeds the {left} bytes left")
            left -= size
            tensors[name] = _dt64_tensor(fh.read(size), f"checkpoint {path}, tensor {name}")
        if fh.read(1):
            raise ShapeError(f"checkpoint {path} has bytes after its last tensor")
    return tensors


def load_model(config: ModelConfig, path):
    """Build a model with the given config and restore checkpoint values."""
    model = TrackModel(config, seed=0)
    tensors = load_checkpoint(path)
    names = set(model.params.names())
    if set(tensors) != names:
        missing = names - set(tensors)
        extra = set(tensors) - names
        raise ShapeError(
            f"checkpoint mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    for name, tensor in tensors.items():
        target = model.params[name]
        if tensor.shape != target.shape:
            raise ShapeError(
                f"checkpoint tensor {name} has shape {tensor.shape}, expected {target.shape}"
            )
        target.data[:] = tensor.data
    return model


def crop_at(frame_data, center, size):
    """Extract a (1, 1, size, size) crop around ``center``; returns (crop, origin).

    ``frame_data`` is a rank-4 (1, 1, h, w) array and ``center`` the real
    pair (cx, cy).  The crop window is clamped inside the frame, so the origin
    may differ from ``center - size/2`` near the borders.  The crop is a
    C-contiguous float32 copy of the window.  A malformed frame or centre
    raises :class:`ShapeError`; a NaN or infinite centre, or a window that
    holds a NaN or infinite pixel once cast to float32, raises
    :class:`NumericError`: the network's ops do not check their data, and
    the readout would turn a NaN pixel into NaN rows without an error.
    """
    _require_size("crop size", size)
    if np.ndim(frame_data) != 4:
        raise ShapeError(f"crop_at needs a rank-4 frame, got shape {np.shape(frame_data)}")
    try:
        c = np.asarray(center)
    except ValueError:  # a ragged sequence
        c = np.empty(0)
    if c.shape != (2,) or c.dtype.kind not in "iuf":
        raise ShapeError(f"crop centre must be two real numbers (cx, cy), got {center!r}")
    if not np.isfinite(c).all():
        raise NumericError(f"crop centre must be finite, got {tuple(center)}")
    h, w = frame_data.shape[2], frame_data.shape[3]
    if size > h or size > w:
        raise ShapeError(f"crop {size} larger than frame {h}x{w}")
    ox = int(round(c[0])) - size // 2
    oy = int(round(c[1])) - size // 2
    ox = min(max(ox, 0), w - size)
    oy = min(max(oy, 0), h - size)
    # a float64 pixel beyond float32's range becomes inf here and is caught
    with np.errstate(over="ignore"):
        crop = frame_data[:, :, oy:oy + size, ox:ox + size].astype(np.float32, order="C")
    if not np.isfinite(crop).all():
        raise NumericError(f"crop at origin {(ox, oy)} holds a NaN or infinite pixel")
    return crop, (float(ox), float(oy))
