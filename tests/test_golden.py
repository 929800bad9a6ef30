"""Golden outputs of the seeded-init model, compared with exact equality.

The expected values were recorded before the code was simplified, so a
refactor that claims to keep behaviour is checked rather than assumed.  A
float array is pinned by the sha256 of its raw float64 bytes and a scalar by
its exact value.  An intended change of outputs records them again from
:func:`observed`::

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_golden, pprint; pprint.pprint(test_golden.observed())"

The head maps and gradients pass through BLAS matrix products, so their
digests hold for the numpy/OpenBLAS build they were recorded with (numpy
2.4.6 with OpenBLAS 0.3.31 on an x86-64 Xeon, identical with 1 and 2 BLAS
threads); the checkpoint bytes depend on the RNG alone.  With the untrained
gate, whose output layer starts at zero, ``gated`` picks identity on every
frame and so gives the same maps as ``none``.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from gatetrack import flops, gate
from gatetrack import head as H
from gatetrack import model as M
from gatetrack import scenes
from gatetrack import tensor as T
from gatetrack.config import RunConfig

SCENE_SEED = 2503
MEMORY_FRAMES = (0, 5)
PROBE_FRAMES = (10, 25, 40)  # one frame in each phase of the default schedule
DECISION_SEED = 3  # draws a gate output layer whose choice moves with the budget
BATCH_SEED = 7
BATCH = 4
LAMBDA_COST = 0.01

DEEP = {"attention_mode": "static", "static_branches": ("se", "ca", "cbam"),
        "memory_capacity": 8, "write_period": 1, "write_threshold": 0.0}

CHECKPOINT_SHA256 = "a43b42eadf7ab1945ddec6a6f7da5018d9bed1b9ec18ce43f9c1d1ffd8467bd4"

_IDENTITY = {
    10: ("a6edd93e36f725189f0cbd500216b9d98e7fe63e150a8fa5cc66a756f4473ab4", 0.05922793643286029,
         (71.75947376415505, 33.650102264617914, 4.0256388033069115, 2.3951427963742313)),
    25: ("fb03322bad9856eca4c146c35583e5e1bea5c2fa4a9c59c5fe194c20c7dd5dd8", 0.060054540671189476,
         (50.70310404208645, 42.765848703079904, 4.264254869377887, 2.236034304654373)),
    40: ("86b1b778d1f6d5f50525e5605ad5fa45eae9e3b77efa3afe56e7285cc6c6d27e", 0.05983578075904944,
         (48.63452118969904, 64.65314164084889, 4.078347339120264, 2.3997368964440016)),
}
PREDICTIONS = {
    "gated": _IDENTITY,
    "none": _IDENTITY,
    "static": {
        10: ("bcbca64cf71f93bfb63c6403f8f519f0c094fa348c6446b8522fb9811b1cc906", 0.05878921461660779,
             (36.68366871127044, 33.91908946735071, 2.556204246432662, 2.0961354880961647)),
        25: ("f0856042a8ae288991529bcdd97c6f17b2f802d4d454e745ec59eb612a12b665", 0.05879387927497099,
             (47.72575795718339, 42.928451927274324, 2.5375047886961797, 2.060407535216016)),
        40: ("0acf0a163328631a3a2955d79f1e8d5bf709805465da0cf82f10050c20930d7b", 0.05854276652352155,
             (49.68580340359145, 64.91620479935779, 2.5555217681257973, 2.083220006085608)),
    },
}

# (channels, reduction or gate scale, h, w) -> identity/se/ca/cbam costs, gate cost;
# the non-square shape catches an h/w swap in CA
COST_TABLES = {
    (32, 4, 16, 16): ((0.0, 17448.0, 66816.0, 101712.0), 8780.0),
    (16, 2, 8, 12): ((0.0, 3608.0, 16864.0, 29200.0), 1868.0),
    (32, 4, 32, 32): ((0.0, 66600.0, 199168.0, 400464.0), 33356.0),
}

# (probe frame, budget) -> chosen branch, mode, returned cost, recorded weights and
# enhanced-map digest of the drawn gate.  Budgets: "none" is no budget (a hard
# decision), "zero" 0, "se" and "ca" those branches' costs, "inf" unlimited.
DECISIONS = {
    (10, "none"): ("cbam", "hard", 101712.0,
                  (0.0, 0.0, 0.0, 1.0),
                  "9069f4a4624896d9434417c88e449a0a358592f018bd5a6c4926b9ff6333d12f"),
    (10, "zero"): ("identity", "budgeted", 0.0,
                  (1.0, 0.0, 0.0, 0.0),
                  "8058164331ec2987e3f5bd4189a5e8b99ca14b2b312968dbf187eee56f61b0f8"),
    (10, "se"): ("se", "budgeted", 17448.0,
                  (0.4934077321338557, 0.5065922678661444, 0.0, 0.0),
                  "cba1c35623a1c323ee72c5509bb60cd53377aefea029d248dc15b551981b4b17"),
    (10, "ca"): ("ca", "budgeted", 66816.0,
                  (0.27517069861556953, 0.28252363954473925, 0.4423056618396913, 0.0),
                  "882b9819f8ee7ff7ae02cdb33dc32d5d91658256691d785baa5d86b7389569f3"),
    (10, "inf"): ("cbam", "budgeted", 101712.0,
                  (0.16910531308753166, 0.1736240404963627, 0.2718175946861401, 0.38545305172996563),
                  "9069f4a4624896d9434417c88e449a0a358592f018bd5a6c4926b9ff6333d12f"),
    (25, "none"): ("cbam", "hard", 101712.0,
                  (0.0, 0.0, 0.0, 1.0),
                  "7369ace97e4d3be69d117968d30c053a68fc6c503f3293e16b284a9c7a732b97"),
    (25, "zero"): ("identity", "budgeted", 0.0,
                  (1.0, 0.0, 0.0, 0.0),
                  "2d36d9e2a4a975db0b6a613aebfd84d308071572ad60859f84cdd0662ae7c135"),
    (25, "se"): ("se", "budgeted", 17448.0,
                  (0.49260312955025465, 0.5073968704497455, 0.0, 0.0),
                  "a7877a8a9f9947e2291a7fbea8c6087a8edbe6c3859c4d62e372a9d8fd5c0a86"),
    (25, "ca"): ("ca", "budgeted", 66816.0,
                  (0.2734793814643683, 0.28169244968914925, 0.4448281688464825, 0.0),
                  "02c745c45fdc792d81e22f5a7413e4088604ecea36b2cd46ceaa31a8fe1b1d50"),
    (25, "inf"): ("cbam", "budgeted", 101712.0,
                  (0.16786633957658115, 0.17290766185910336, 0.2730431670752532, 0.38618283148906235),
                  "7369ace97e4d3be69d117968d30c053a68fc6c503f3293e16b284a9c7a732b97"),
    (40, "none"): ("cbam", "hard", 101712.0,
                  (0.0, 0.0, 0.0, 1.0),
                  "13664b6263c114dfc4ba3f2a2f55e98524a39ee83ba1a3263afa8269c08138f6"),
    (40, "zero"): ("identity", "budgeted", 0.0,
                  (1.0, 0.0, 0.0, 0.0),
                  "147271ed04003302e8274e25c432dec5053cf5aa3695ea53e88515b6f951a5b2"),
    (40, "se"): ("se", "budgeted", 17448.0,
                  (0.494826619447328, 0.5051733805526719, 0.0, 0.0),
                  "5e28bb0d8cb5109dd46c555b17586aaf9d601f8469036c65b4d923c130a883b4"),
    (40, "ca"): ("ca", "budgeted", 66816.0,
                  (0.2788498392006281, 0.28468055355001975, 0.4364696072493521, 0.0),
                  "2b66b1ad23e921e9fe8140bac0d12e0eafe8044bb26caf96a22abbcca1b054db"),
    (40, "inf"): ("cbam", "budgeted", 101712.0,
                  (0.17218518369980654, 0.1757855537922876, 0.2695127948398789, 0.38251646766802694),
                  "13664b6263c114dfc4ba3f2a2f55e98524a39ee83ba1a3263afa8269c08138f6"),
}

LOSS = 1.8293667210734443
GRADS_SHA256 = "ac79d20201f2acd4580fbc49ffcee5d6bc9def1d4e654a4416c37437a9bdd62f"
N_PARAMS = 50

RUN_CONFIG_JSON = {
    "attention_mode": "gated", "batch": 4, "channels": 32, "crop_size": 64,
    "gate_scale": 4, "key_channels": 16, "lambda_cost": 0.01, "lr_end": 0.0001,
    "lr_start": 0.005, "memory_capacity": 3, "momentum": 0.9, "reduction": 4,
    "static_branches": ["se", "ca", "cbam"], "stem_width": 16, "steps": 2000,
    "tau": 1.0, "value_channels": 16, "weight_decay": 0.0001, "write_period": 5,
    "write_threshold": 0.6,
}


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def checkpoint_sha256(config, tmp_path):
    path = tmp_path / "model.gtck"
    M.save_checkpoint(path, M.TrackModel(config, seed=0).params)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def probe_sequence():
    _, (spec,) = scenes.split_benchmark(1, 1, SCENE_SEED)
    return scenes.generate(spec)


def probe_feature(model, seq, index):
    """Backbone feature of the ground-truth-centred crop of frame ``index``."""
    gt = seq.gt[index]
    crop, origin = M.crop_at(seq.frames[index].data, (gt.cx, gt.cy), model.config.crop_size)
    return model.extract(T.Tensor4(crop)), origin


def predictions(attention_mode):
    """Maps digest, score and box for each ground-truth-centred probe frame."""
    model = M.TrackModel(M.ModelConfig(attention_mode=attention_mode), seed=0)
    seq = probe_sequence()

    def enhanced(index):
        feature, origin = probe_feature(model, seq, index)
        return model.enhance_infer(feature, frame_index=index)[0], origin

    found = {}
    with T.no_grad():
        memory = [enhanced(index)[0] for index in MEMORY_FRAMES]
        for index in PROBE_FRAMES:
            query, origin = enhanced(index)
            fused, _ = model.read_memory(query, memory)
            out = model.predict(fused)
            det = H.decode_detection(out, model.config.stride, origin)
            found[index] = (digest([out.cls.data, out.ctr.data, out.reg.data]),
                            det.score, tuple(float(v) for v in det.box.as_array()))
    return found


def decisions():
    """Hard and budgeted gate decisions on each probe frame.

    The gate's output layer is drawn from ``DECISION_SEED`` (the seeded init
    zeroes it, so every frame would pick identity).  Each row holds the
    chosen branch, the recorded weights, the mode, the returned cost and the
    digest of the enhanced map.
    """
    model = M.TrackModel(M.ModelConfig(), seed=0)
    rng = np.random.default_rng(DECISION_SEED)
    for p in (model.gate.w2, model.gate.b2):
        p.data[:] = rng.standard_normal(p.shape)
    table = model.cost_table
    budgets = {"none": None, "zero": 0.0, "se": table["se"], "ca": table["ca"], "inf": math.inf}
    seq = probe_sequence()
    found = {}
    with T.no_grad():
        for index in PROBE_FRAMES:
            feature, _ = probe_feature(model, seq, index)
            for key, budget in budgets.items():
                out, decision, cost = model.enhance_infer(feature, budget=budget,
                                                          frame_index=index)
                found[index, key] = (decision.chosen_name, decision.mode, cost,
                                     tuple(decision.weights.tolist()), digest([out.data]))
    return found


def fixed_runs(config):
    """Enhanced bytes, decision and cost of both enhancement paths per probe frame."""
    model = M.TrackModel(config, seed=0)
    seq = probe_sequence()
    runs = []
    with T.no_grad():
        for index in PROBE_FRAMES:
            feature, _ = probe_feature(model, seq, index)
            out, decision, cost = model.enhance_infer(feature, frame_index=index)
            soft, weights, (soft_decision,) = model.enhance_soft(feature, frame_index=index)
            runs.append((out.data.tobytes(), soft.data.tobytes(), weights, cost,
                         [(d.chosen, d.weights.tolist(), d.mode, d.logits.tolist())
                          for d in (decision, soft_decision)]))
    return runs


def soft_batch(model):
    """A seeded batch of crops near the ground truth with frame-0 memory crops."""
    size = model.config.crop_size
    fs = model.config.feature_size
    train_specs, _ = scenes.split_benchmark(2, 1, SCENE_SEED)
    sequences = [scenes.generate(spec) for spec in train_specs]
    rng = np.random.default_rng(BATCH_SEED)
    queries, memories, labels = [], [], []
    for _ in range(BATCH):
        seq = sequences[int(rng.integers(len(sequences)))]
        k = int(rng.integers(1, len(seq)))
        gt = seq.gt[k]
        dx, dy = rng.uniform(-8.0, 8.0, size=2)
        crop, (ox, oy) = M.crop_at(seq.frames[k].data, (gt.cx + dx, gt.cy + dy), size)
        queries.append(crop)
        first = seq.gt[0]
        memories.append(M.crop_at(seq.frames[0].data, (first.cx, first.cy), size)[0])
        labels.append(H.make_labels(H.BBox(gt.x - ox, gt.y - oy, gt.w, gt.h),
                                    model.config.stride, (fs, fs)))
    return (T.Tensor4(np.concatenate(queries)), T.Tensor4(np.concatenate(memories)),
            H.stack_labels(labels))


def loss_and_grads():
    """Soft-mode loss and the gradient of every parameter, in parameter order."""
    model = M.TrackModel(M.ModelConfig(), seed=0)
    query, memory, labels = soft_batch(model)
    memory_feature, memory_weights, _ = model.enhance_soft(model.extract(memory))
    query_feature, query_weights, _ = model.enhance_soft(model.extract(query))
    fused, _ = model.read_memory(query_feature, [memory_feature])
    loss = H.compute_loss(model.predict(fused), labels,
                          gate_weight_tensors=[query_weights, memory_weights],
                          cost_table=model.cost_table, lambda_cost=LAMBDA_COST)
    grads = T.backprop(loss, model.params)
    return loss.item(), list(grads), digest(grads.values())


def cost_tables():
    """Branch cost table and gate cost in FLOPs at each pinned shape."""
    return {shape: (tuple(flops.branch_costs(*shape).costs.tolist()),
                    gate.gate_cost(*shape))
            for shape in COST_TABLES}


def run_config_json():
    return json.loads(RunConfig().to_json())


def observed():
    """Every golden value as the current code computes it."""
    loss, names, grads_sha = loss_and_grads()
    return {
        "PREDICTIONS": {mode: predictions(mode) for mode in ("gated", "static", "none")},
        "DECISIONS": decisions(),
        "LOSS": loss,
        "GRADS_SHA256": grads_sha,
        "N_PARAMS": len(names),
        "COST_TABLES": cost_tables(),
        "RUN_CONFIG_JSON": run_config_json(),
    }


@pytest.mark.parametrize("overrides", [{}, DEEP], ids=["track", "track_deep"])
def test_checkpoint_bytes(overrides, tmp_path):
    assert checkpoint_sha256(M.ModelConfig(**overrides), tmp_path) == CHECKPOINT_SHA256


@pytest.mark.parametrize("attention_mode", ["gated", "static", "none"])
def test_predictions(attention_mode):
    assert predictions(attention_mode) == PREDICTIONS[attention_mode]


def test_decisions():
    assert decisions() == DECISIONS


def test_static_without_branches_runs_identity():
    none = fixed_runs(M.ModelConfig(attention_mode="none"))
    assert fixed_runs(M.ModelConfig(attention_mode="static", static_branches=())) == none


def test_soft_loss_and_gradients():
    loss, names, grads_sha = loss_and_grads()
    assert len(names) == N_PARAMS
    assert loss == LOSS
    assert grads_sha == GRADS_SHA256


def test_cost_tables():
    assert cost_tables() == COST_TABLES


def test_run_config_json():
    assert run_config_json() == RUN_CONFIG_JSON
