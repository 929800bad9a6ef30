"""Full tracker model: backbone stem, enhancement branches, gate, readout, head.

The backbone is a small three-conv stem (1 -> 16 -> 32 -> 32, stride 4 total)
producing 16x16 feature maps from 64x64 grayscale crops.  Enhancement runs in
one of three modes:

  * ``gated``  — the dynamic gate picks/blends branches per feature map,
  * ``static`` — a fixed subset of branches, averaged when more than one,
  * ``none``   — identity (the no-attention baseline).

Checkpoints are a text index followed by the concatenated binary tensors,
written in parameter order, so identical parameters give identical bytes.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import attention, flops, gate, head, memory
from . import tensor as T
from .errors import ConfigError, NumericError, ShapeError


@dataclass
class ModelConfig:
    channels: int = 32
    stem_channels: tuple = (16, 32)
    reduction: int = 4
    gate_scale: int = 4
    tau: float = 1.0
    key_channels: int = 16
    value_channels: int = 16
    memory_capacity: int = 3
    write_period: int = 5
    write_threshold: float = 0.6
    crop_size: int = 64
    stride: int = 4
    attention_mode: str = "gated"  # gated | static | none
    static_branches: tuple = ("se", "ca", "cbam")

    def __post_init__(self):
        if self.crop_size % self.stride:
            raise ConfigError("crop size must be divisible by the feature stride")
        if self.attention_mode not in ("gated", "static", "none"):
            raise ConfigError(f"unknown attention mode {self.attention_mode!r}")
        for b in self.static_branches:
            if b not in ("se", "ca", "cbam"):
                raise ConfigError(f"unknown static branch {b!r}")

    @property
    def feature_size(self):
        return self.crop_size // self.stride


class TrackModel:
    """Owns the parameter set and the forward pieces of the tracker."""

    def __init__(self, config: ModelConfig, seed=0):
        self.config = config
        self.params = T.ParamSet()
        rng = np.random.default_rng(seed)
        c = config.channels
        c1, c2 = config.stem_channels
        if c2 != c:
            raise ConfigError("last stem width must equal the feature channel count")

        p = self.params
        self.stem = (
            p.add("backbone.conv1.w", T.he_normal(rng, (c1, 1, 4, 4))),
            p.add("backbone.conv1.b", T.zeros((1, c1, 1, 1)), decay=False),
            p.add("backbone.conv2.w", T.he_normal(rng, (c2, c1, 4, 4))),
            p.add("backbone.conv2.b", T.zeros((1, c2, 1, 1)), decay=False),
            p.add("backbone.conv3.w", T.he_normal(rng, (c, c2, 3, 3))),
            p.add("backbone.conv3.b", T.zeros((1, c, 1, 1)), decay=False),
        )
        self.branches = {
            "se": attention.init_se(p, rng, c, config.reduction),
            "ca": attention.init_ca(p, rng, c, config.reduction),
            "cbam": attention.init_cbam(p, rng, c, config.reduction),
        }
        self.gate = gate.init_gate(p, rng, c, config.gate_scale, config.tau)
        self.readout = memory.init_readout(
            p, rng, c, config.key_channels, config.value_channels)
        self.head = head.init_head(p, rng, c)
        fs = config.feature_size
        self.cost_table = flops.branch_costs(c, config.reduction, fs, fs)
        self.gate_flops = flops.gate_cost(c, config.gate_scale, gate.N_BRANCHES, fs, fs)

    # -- forward pieces ----------------------------------------------------

    def extract(self, crops):
        """Backbone features for a (n, 1, s, s) crop batch: (n, c, s/4, s/4)."""
        w1, b1, w2, b2, w3, b3 = self.stem
        h = T.relu(T.conv2d(crops, w1, b1, stride=2, pad=1))
        h = T.relu(T.conv2d(h, w2, b2, stride=2, pad=1))
        return T.relu(T.conv2d(h, w3, b3, stride=1, pad=1))

    def enhance_soft(self, feature, frame_index=0):
        """Training-time enhancement; returns (enhanced, weights, decisions).

        ``weights`` is the in-graph (n, B, 1, 1) tensor in gated mode and
        None otherwise (static combinations carry no decision to learn).
        """
        mode = self.config.attention_mode
        if mode == "gated":
            return gate.apply_gated_attention(
                feature, self.branches, self.gate, mode="soft",
                frame_index=frame_index)
        return self.enhance_static(feature, frame_index)

    def enhance_static(self, feature, frame_index=0):
        names = self.static_branch_names()
        if not names:
            return feature, None, [self._static_decision(frame_index, ())]
        outs = [attention.branch_forward(n, feature, self.branches[n]) for n in names]
        total = outs[0]
        for o in outs[1:]:
            total = T.add(total, o)
        enhanced = T.scale(total, 1.0 / len(outs))
        return enhanced, None, [self._static_decision(frame_index, names)]

    def _static_decision(self, frame_index, names):
        weights = np.zeros(gate.N_BRANCHES)
        if not names:
            weights[0] = 1.0
            chosen = 0
        else:
            for n in names:
                weights[flops.BRANCH_ORDER.index(n)] = 1.0 / len(names)
            chosen = int(np.argmax(weights))
        return gate.GateDecision(frame_index=frame_index,
                                 logits=np.zeros(gate.N_BRANCHES),
                                 weights=weights, mode="hard", chosen=chosen)

    def static_branch_names(self):
        if self.config.attention_mode == "none":
            return ()
        return tuple(self.config.static_branches)

    def enhance_infer(self, feature, mode="hard", budget=None, frame_index=0,
                      forced_choice=None):
        """Inference enhancement for a single feature map.

        ``forced_choice`` overrides everything (random-decision ablations).
        Static and none modes ignore ``mode``/``budget``.  Returns
        ``(enhanced, decision, attention_flops)``.
        """
        if forced_choice is not None:
            out, _, decisions = gate.forced_decision_attention(
                feature, self.branches, forced_choice, frame_index)
            return out, decisions[0], self.cost_table[decisions[0].chosen]
        amode = self.config.attention_mode
        if amode in ("static", "none"):
            out, _, decisions = self.enhance_static(feature, frame_index)
            names = self.static_branch_names()
            cost = sum(self.cost_table[n] for n in names)
            return out, decisions[0], cost
        out, _, decisions = gate.apply_gated_attention(
            feature, self.branches, self.gate, mode=mode, budget=budget,
            frame_index=frame_index, table=self.cost_table)
        decision = decisions[0]
        if mode == "soft":
            cost = flops.expected_cost(decision.weights, self.cost_table)
        else:
            cost = self.cost_table[decision.chosen]
        return out, decision, cost

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

    def is_backbone_param(self, name):
        return name.startswith("backbone.")

    def snapshot(self):
        return self.params.copy_values()

    def layer_inventory(self):
        """(name, kind, dims) rows for the full per-frame pipeline."""
        cfg = self.config
        s = cfg.crop_size
        c1, c2 = cfg.stem_channels
        c = cfg.channels
        fs = cfg.feature_size
        q = fs * fs
        mem_pixels = cfg.memory_capacity * q
        ck, cv = cfg.key_channels, cfg.value_channels
        rows = [
            ("backbone.conv1", "conv", {"k": 4, "cin": 1, "cout": c1,
                                        "hout": s // 2, "wout": s // 2}),
            ("backbone.relu1", "relu", {"count": c1 * (s // 2) ** 2}),
            ("backbone.conv2", "conv", {"k": 4, "cin": c1, "cout": c2,
                                        "hout": fs, "wout": fs}),
            ("backbone.relu2", "relu", {"count": c2 * fs * fs}),
            ("backbone.conv3", "conv", {"k": 3, "cin": c2, "cout": c,
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
                (f"head.{branch}.conv2", "conv", {"k": 3, "cin": c, "cout": c,
                                                  "hout": fs, "wout": fs}),
                (f"head.{branch}.final", "conv", {"k": 1, "cin": c, "cout": cout,
                                                  "hout": fs, "wout": fs}),
            ]
        return rows


# ---------------------------------------------------------------------------
# checkpoints: text index + concatenated DT64 tensors
# ---------------------------------------------------------------------------

_CKPT_HEADER = "GTCK1"


def save_checkpoint(path, params):
    names = params.names()
    blobs = []
    for name in names:
        buf = io.BytesIO()
        T.save_dt64(params[name], buf)
        blobs.append(buf.getvalue())
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
        tensors = {}
        for name, size in index:
            try:
                tensors[name] = T.load_dt64(io.BytesIO(fh.read(size)))
            except ShapeError as err:
                raise ShapeError(f"checkpoint {path}, tensor {name}: {err}") from None
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

    The crop window is clamped inside the frame, so the origin may differ
    from ``center - size/2`` near the borders.  A NaN or infinite centre
    raises :class:`NumericError`.
    """
    if not np.isfinite(center).all():
        raise NumericError(f"crop centre must be finite, got {tuple(center)}")
    h, w = frame_data.shape[2], frame_data.shape[3]
    if size > h or size > w:
        raise ShapeError(f"crop {size} larger than frame {h}x{w}")
    ox = int(round(center[0])) - size // 2
    oy = int(round(center[1])) - size // 2
    ox = min(max(ox, 0), w - size)
    oy = min(max(oy, 0), h - size)
    return frame_data[:, :, oy:oy + size, ox:ox + size], (float(ox), float(oy))
