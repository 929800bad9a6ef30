"""Workloads of the tracker benchmark: set-up, closed loops and checks.

Every workload drives the tracker through its public functions only, one
sequence or one batch at a time, and starts from the seeded-init weights of
``TrackModel(config, seed=0)``.  The workload seed feeds
``scenes.split_benchmark``; the tracker receives only the generated scenes.

* ``track``      eval-split sequences, default ``ModelConfig`` (gated, hard).
* ``track_deep`` the same sequences with every attention branch running
                 (static se+ca+cbam) and an 8-frame memory written on every
                 frame, so the readout does most of the work.
* ``train``      batch-4 soft-gated SGD steps on train-split crops.

The loop functions below call the tracker through module attributes, so
:func:`trace_targets` can wrap them for a traced run without touching the
loops themselves.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gatetrack import memory, metrics, scenes
from gatetrack import head as H
from gatetrack import model as M
from gatetrack import tensor as T
from gatetrack.config import RunConfig
from gatetrack.flops import BRANCH_ORDER, flops_layer

from tracing import clock

WORKLOADS = {
    "track": {},
    "track_deep": {"attention_mode": "static",
                   "static_branches": ("se", "ca", "cbam"),
                   "memory_capacity": 8, "write_period": 1, "write_threshold": 0.0},
    "train": {},
}
RUN = RunConfig()  # batch size, loss weight and optimizer settings of the train workload
N_SEQUENCES = 8  # sequences per workload; the loops cycle through them
JITTER_PX = 8.0  # train crops are centred this far, at most, from the gt centre
SUM_TOL = 1e-9  # softmax rows and gate weights must sum to 1 within this

PROBE_SEED = 2503  # scene seed of the reference probe, fixed across workload seeds
PROBE_FRAMES = (10, 25, 40)  # one frame in each phase of the default schedule
REFERENCE_PATH = Path(__file__).with_name("reference.npz")
# Reference maps must match within atol + rtol * |expected|: loose enough for a
# float32 inference path, tight enough to catch any changed layer.
REFERENCE_RTOL = 1e-3
REFERENCE_ATOL = 1e-4


def model_config(workload):
    return M.ModelConfig(**WORKLOADS[workload])


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

@dataclass
class Setup:
    sequences: list
    times_ms: dict  # scenes.generate, model.init, model.checkpoint
    checkpoint_equal: bool


def setup(workload, seed, scratch_dir):
    """Generate the scenes, build the model and round-trip its checkpoint."""
    config = model_config(workload)
    t0 = clock()
    train_specs, eval_specs = scenes.split_benchmark(N_SEQUENCES, N_SEQUENCES, seed)
    specs = train_specs if workload == "train" else eval_specs
    sequences = [scenes.generate(spec) for spec in specs]
    t1 = clock()
    built = M.TrackModel(config, seed=0)
    t2 = clock()
    path = Path(scratch_dir) / f"checkpoint-{workload}-{seed}.gtck"
    M.save_checkpoint(path, built.params)
    loaded = M.load_model(config, path)
    t3 = clock()
    path.unlink()
    equal = all(built.params[name].data.tobytes() == tensor.data.tobytes()
                for name, tensor in loaded.params.items())
    times = {"scenes.generate": (t1 - t0) / 1e6, "model.init": (t2 - t1) / 1e6,
             "model.checkpoint": (t3 - t2) / 1e6}
    return Setup(sequences, times, equal)


# ---------------------------------------------------------------------------
# tracking
# ---------------------------------------------------------------------------

@dataclass
class FrameResult:
    box: H.BBox
    decision: object
    attention_flops: float
    attn: T.Tensor4 = None  # readout attention, None on the init frame
    out: H.HeadOutput = None
    written: bool = False


def track_frame(model, bank, frame, index, prev_box):
    """One closed-loop frame: crop around the last box, predict the next."""
    crop, origin = M.crop_at(frame.data, (prev_box.cx, prev_box.cy),
                             model.config.crop_size)
    feature = model.extract(T.Tensor4(crop))
    enhanced, decision, cost = model.enhance_infer(feature, frame_index=index)
    if index == 0:
        bank.update(0, enhanced, confidence=1.0)
        return FrameResult(prev_box, decision, cost, written=True)
    fused, attn = model.read_memory(enhanced, bank.features())
    out = model.predict(fused)
    detection = H.decode_detection(out, model.config.stride, origin)
    written = bank.update(index, enhanced, detection.score)
    return FrameResult(detection.box, decision, cost, attn, out, written)


def frame_failures(result, bank):
    """Names of the checks one tracked frame fails."""
    failed = []
    if abs(result.decision.weights.sum() - 1.0) > SUM_TOL:
        failed.append("gate_weights_sum")
    if len(bank) > bank.capacity:
        failed.append("bank_over_capacity")
    if result.out is None:
        return failed
    out = result.out
    if not all(np.isfinite(t.data).all() for t in (out.cls, out.ctr, out.reg, out.reg_raw)):
        failed.append("head_not_finite")
    box = result.box
    if not np.isfinite(box.as_array()).all() or box.w <= 0 or box.h <= 0:
        failed.append("box_invalid")
    if np.abs(result.attn.data.sum(axis=3) - 1.0).max() > SUM_TOL:
        failed.append("attention_rows_sum")
    return failed


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

# On a small shared host the CPU itself changes speed: a fixed numpy loop
# took 1.09 ms per pass, then 0.48 ms a second later, with no steal time
# and the same ratio in CPU time, and such regimes last from under a second
# to minutes.  Wall time per frame moves with them by up to 2x, far more
# than the changes the benchmark must resolve.  So every run times a fixed
# reference kernel right before each frame or step, outside the step's own
# time, and divides the step's wall time by that kernel time: a frame of
# 5 ref_ms costs as much as five passes of the kernel on the same CPU at
# the same moment.  Timing the kernel before every step, rather than every
# 0.25 s, cut the spread (IQR over median) of 2-second windows of one run
# from 0.07 to 0.04 at p50 and 0.11 to 0.03 at p90 on track, and from 0.08
# to 0.03 at p50 and 0.13 to 0.09 at p90 on track_deep.
# Set-up time, gated in seconds, is scaled the same way to a host on which
# one pass of the kernel takes this long (about its median on the 2-CPU
# Xeon host the bounds were set on).
REFERENCE_NOMINAL_MS = 1.0
_ref = np.random.default_rng(0)
_REF_COLS = _ref.random((1024, 144))  # an im2col'd 3x3 conv over 16 channels
_REF_WEIGHT = _ref.random((144, 32))
_REF_KEYS = _ref.random((64, 1024))


def reference_kernel():
    """A fixed mix of what a frame does: small GEMMs, exp, a reduction and
    Python-level looping, in about 1 ms on a 2-CPU Xeon host."""
    total = 0
    for _ in range(2):
        x = _REF_COLS @ _REF_WEIGHT
        y = np.exp(x * -0.01)
        z = _REF_KEYS @ y
        z /= z.sum(axis=0, keepdims=True)
        for i in range(300):
            total += i
    return total


def reference_ms():
    """Wall ms of one pass of :func:`reference_kernel`."""
    t0 = clock()
    reference_kernel()
    return (clock() - t0) / 1e6


@dataclass
class Run:
    """What one measured run saw, for its metrics and checks."""

    step_ms: list = field(default_factory=list)  # wall ms of each frame or training step
    step_ref: list = field(default_factory=list)  # the same steps in ref_ms
    reference_ms: list = field(default_factory=list)  # the kernel's time before each step
    frames_per_step: int = 1
    failures: dict = field(default_factory=dict)  # check name -> count
    failed_steps: int = 0
    counters: dict = field(default_factory=dict)
    results: list = field(default_factory=list)  # metrics.TrackResult per sequence
    eval_ms: list = field(default_factory=list)

    def pace(self):
        """Time the reference kernel; call right before timing each step."""
        self.reference_ms.append(reference_ms())

    def record(self, ns):
        """Record one step of ``ns`` wall nanoseconds, timed after :meth:`pace`."""
        ms = ns / 1e6
        self.step_ms.append(ms)
        self.step_ref.append(ms / self.reference_ms[-1])

    def count(self, name, amount=1.0):
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def fail(self, names):
        for name in names:
            self.failures[name] = self.failures.get(name, 0) + 1
        self.failed_steps += bool(names)


def run_track(model, sequences, seconds, min_steps):
    """Track whole sequences in turn until ``seconds`` and ``min_steps`` are met."""
    run = Run()
    fs = model.config.feature_size
    started = clock()
    i = 0
    with T.no_grad():
        while (clock() - started) / 1e9 < seconds or len(run.step_ms) < min_steps:
            seq = sequences[i % len(sequences)]
            i += 1
            bank = model.new_bank()
            box = seq.gt[0]
            boxes = []
            for index, frame in enumerate(seq.frames):
                run.pace()
                t0 = clock()
                result = track_frame(model, bank, frame, index, box)
                run.record(clock() - t0)
                box = result.box
                boxes.append(box)
                run.fail(frame_failures(result, bank))
                for k, w in enumerate(result.decision.weights):
                    run.count(f"gate.{BRANCH_ORDER[k]}", w)
                run.count("decisions")
                run.count("attention.flops", result.attention_flops)
                if index:
                    run.count("readouts")
                    run.count("memory.depth", result.attn.shape[3] / (fs * fs))
                    run.count("memory.attempts")
                    run.count("memory.writes", result.written)
            t0 = clock()
            track = metrics.TrackResult(boxes, seq.gt)
            _, auc, precision = metrics.otb_success_precision(track)
            _, vot_failures = metrics.vot_accuracy_robustness(track)
            run.eval_ms.append((clock() - t0) / 1e6)
            run.results.append(track)
            run.count("metrics.auc", auc)
            run.count("metrics.precision_20", precision)
            run.count("metrics.vot_failures", vot_failures)
    return run


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    query: T.Tensor4  # (B, 1, s, s) crops around a jittered ground truth
    memory: T.Tensor4  # (B, 1, s, s) frame-0 crops of the same sequences
    labels: H.Labels


def make_batch(sequences, rng, config):
    """Draw a training batch of ``RUN.batch`` crops from ``rng``."""
    size = config.crop_size
    fs = config.feature_size
    picks = rng.integers(len(sequences), size=RUN.batch)
    queries, memories, labels = [], [], []
    for s in picks:
        seq = sequences[s]
        k = int(rng.integers(1, len(seq)))
        gt = seq.gt[k]
        dx, dy = rng.uniform(-JITTER_PX, JITTER_PX, size=2)
        crop, (ox, oy) = M.crop_at(seq.frames[k].data, (gt.cx + dx, gt.cy + dy), size)
        queries.append(crop)
        first = seq.gt[0]
        crop0, _ = M.crop_at(seq.frames[0].data, (first.cx, first.cy), size)
        memories.append(crop0)
        labels.append(H.make_labels(H.BBox(gt.x - ox, gt.y - oy, gt.w, gt.h),
                                    config.stride, (fs, fs)))
    return Batch(T.Tensor4(np.concatenate(queries)),
                 T.Tensor4(np.concatenate(memories)), H.stack_labels(labels))


def forward(model, batch):
    """Soft-gated forward pass; returns (head output, gate weights, attention)."""
    memory_feature, memory_weights, _ = model.enhance_soft(model.extract(batch.memory))
    query_feature, query_weights, _ = model.enhance_soft(model.extract(batch.query))
    fused, attn = model.read_memory(query_feature, [memory_feature])
    return model.predict(fused), [query_weights, memory_weights], attn


def sgd_step(params, grads, velocity, lr):
    """SGD with momentum and weight decay on the decaying parameters."""
    for name, p in params.items():
        g = grads[name]
        if params.decays(name):
            g = g + RUN.weight_decay * p.data
        v = velocity[name]
        v *= RUN.momentum
        v += g
        p.data -= lr * v


def learning_rate(step):
    """Linear decay from ``lr_start`` to ``lr_end`` over ``RUN.steps``."""
    frac = min(step / RUN.steps, 1.0)
    return RUN.lr_start + (RUN.lr_end - RUN.lr_start) * frac


def train_step(model, sequences, rng, velocity, step):
    batch = make_batch(sequences, rng, model.config)
    out, weights, attn = forward(model, batch)
    loss = H.compute_loss(out, batch.labels, gate_weight_tensors=weights,
                          cost_table=model.cost_table, lambda_cost=RUN.lambda_cost)
    grads = T.backprop(loss, model.params)
    sgd_step(model.params, grads, velocity, learning_rate(step))
    return loss.item(), weights, attn


def run_train(model, sequences, seed, seconds, min_steps):
    """Train from ``model`` until ``seconds`` and ``min_steps`` are met."""
    run = Run(frames_per_step=RUN.batch)
    rng = np.random.default_rng(seed)
    velocity = {name: np.zeros_like(p.data) for name, p in model.params.items()}
    started = clock()
    step = 0
    while (clock() - started) / 1e9 < seconds or len(run.step_ms) < min_steps:
        run.pace()
        t0 = clock()
        loss, weights, attn = train_step(model, sequences, rng, velocity, step)
        run.record(clock() - t0)
        step += 1
        failed = [] if math.isfinite(loss) else ["loss_not_finite"]
        if any(np.abs(w.data.sum(axis=1) - 1.0).max() > SUM_TOL for w in weights):
            failed.append("gate_weights_sum")
        if np.abs(attn.data.sum(axis=3) - 1.0).max() > SUM_TOL:
            failed.append("attention_rows_sum")
        run.fail(failed)
        for k, w in enumerate(weights[0].data.mean(axis=0).ravel()):
            run.count(f"gate.{BRANCH_ORDER[k]}", w)
        run.count("decisions")
        run.count("readouts", RUN.batch)
        run.count("memory.depth", RUN.batch)
    return run


def new_model(workload):
    return M.TrackModel(model_config(workload), seed=0)


def measure(workload, model, state, seed, seconds, min_steps):
    """One measured run of ``model``, which holds fresh seeded-init weights."""
    if workload == "train":
        return run_train(model, state.sequences, seed, seconds, min_steps)
    return run_track(model, state.sequences, seconds, min_steps)


def warm_up(workload, state, seed):
    """Run a little of the workload untimed so lazy start-up is paid first."""
    measure(workload, new_model(workload), state, seed, 0.0, 3)


# ---------------------------------------------------------------------------
# analytic FLOPs per stage
# ---------------------------------------------------------------------------

def inventory_flops(model, prefix):
    """FLOPs of the ``layer_inventory`` rows under ``prefix`` for one crop."""
    return sum(flops_layer(kind, dims) for name, kind, dims in model.layer_inventory()
               if name.startswith(prefix))


def readout_flops(model, depth):
    """FLOPs of one readout over ``depth`` memory frames.

    ``layer_inventory`` sizes the readout for a full bank with one key and
    one value projection row; the key projection runs on the query and on
    every memory frame, the value projection on every memory frame, and the
    attention rows scale with the frames actually stored.
    """
    capacity = model.config.memory_capacity
    scale = {"memory.keys": depth + 1, "memory.values": depth,
             "memory.attention": depth / capacity, "memory.softmax": depth / capacity,
             "memory.gather": depth / capacity, "memory.fuse": 1}
    return sum(flops_layer(kind, dims) * scale[name]
               for name, kind, dims in model.layer_inventory() if name in scale)


def stage_flops(workload, run):
    """Mean analytic FLOPs per frame or step of each traced stage."""
    model = new_model(workload)
    steps = len(run.step_ms)
    readouts = run.counters.get("readouts", 0.0)
    depth = run.counters.get("memory.depth", 0.0) / readouts if readouts else 0.0
    gated = model.config.attention_mode == "gated"
    if workload == "train":
        crops = 2 * RUN.batch  # query and memory crops both run the backbone
        attention = crops * (model.cost_table.all_attention + model.gate_flops)
        return {"backbone": crops * inventory_flops(model, "backbone."),
                "attention": attention,
                "memory": RUN.batch * readout_flops(model, depth),
                "head": RUN.batch * inventory_flops(model, "head.")}
    per_readout = readout_flops(model, depth)
    return {"backbone": inventory_flops(model, "backbone."),
            "attention": run.counters["attention.flops"] / steps
            + (model.gate_flops if gated else 0.0),
            "memory": per_readout * readouts / steps,
            "head": inventory_flops(model, "head.") * readouts / steps}


# ---------------------------------------------------------------------------
# tracing targets
# ---------------------------------------------------------------------------

TENSOR_OPS = ("conv2d", "matmul_cc", "apply_attention", "softmax_tau",
              "pool", "sigmoid", "relu", "exp")
ROOT_SPANS = ("frame", "step")


def trace_targets():
    """``(owner, attribute, span name, is_root)`` for every traced call."""
    this = sys.modules[__name__]
    targets = [
        (this, "track_frame", "frame", True),
        (this, "train_step", "step", True),
        (M, "crop_at", "model.crop", False),
        (M.TrackModel, "extract", "backbone.extract", False),
        (M.TrackModel, "enhance_infer", "attention.enhance", False),
        (M.TrackModel, "enhance_soft", "attention.enhance", False),
        (M.TrackModel, "read_memory", "memory.readout", False),
        (M.TrackModel, "predict", "head.predict", False),
        (H, "decode_detection", "head.decode", False),
        (memory.MemoryBank, "update", "memory.update", False),
        (this, "make_batch", "train.batch", False),
        (this, "forward", "train.forward", False),
        (H, "compute_loss", "train.loss", False),
        (T, "backprop", "train.backward", False),
        (this, "sgd_step", "train.sgd", False),
    ]
    skip = {"backprop", "no_grad", "grad_check"}
    for name in T.__all__:
        fn = vars(T)[name]
        if name not in skip and callable(fn) and not isinstance(fn, type):
            targets.append((T, name, f"tensor.{name}", False))
    return targets


# ---------------------------------------------------------------------------
# reference probe
# ---------------------------------------------------------------------------

def probe_maps(workload):
    """Head maps of the seeded-init model on ground-truth-centred crops.

    The memory is frame 0 of the probe sequence; each probe frame is cropped
    around its own ground truth, so no earlier prediction feeds in.
    """
    config = model_config(workload)
    model = new_model(workload)
    _, (spec,) = scenes.split_benchmark(1, 1, PROBE_SEED)
    seq = scenes.generate(spec)

    def enhanced(index):
        gt = seq.gt[index]
        crop, _ = M.crop_at(seq.frames[index].data, (gt.cx, gt.cy), config.crop_size)
        feature = model.extract(T.Tensor4(crop))
        if workload == "train":
            return model.enhance_soft(feature, frame_index=index)[0]
        return model.enhance_infer(feature, frame_index=index)[0]

    maps = {}
    with T.no_grad():
        memory_feature = enhanced(0)
        for index in PROBE_FRAMES:
            fused, _ = model.read_memory(enhanced(index), [memory_feature])
            out = model.predict(fused)
            for part in ("cls", "ctr", "reg"):
                maps[f"{workload}/{index}/{part}"] = getattr(out, part).data
    return maps


def record_reference(path=REFERENCE_PATH):
    maps = {}
    for workload in WORKLOADS:
        maps.update(probe_maps(workload))
    np.savez(path, **maps)
    return sorted(maps)


def reference_error(workload, path=REFERENCE_PATH):
    """Worst ``|got - want| / (atol + rtol |want|)`` over the probe maps; <= 1 passes."""
    got = probe_maps(workload)
    with np.load(path, allow_pickle=False) as want:
        worst = 0.0
        for key, value in got.items():
            expected = want[key]
            if expected.shape != value.shape:
                return math.inf
            ratio = np.abs(value - expected) / (REFERENCE_ATOL + REFERENCE_RTOL * np.abs(expected))
            worst = max(worst, float(np.nan_to_num(ratio, nan=math.inf).max()))
    return worst
