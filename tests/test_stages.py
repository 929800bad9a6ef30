"""The model's stages, each one tensor op, against the same steps composed of
separate ops: ``composed_*`` in tests/helpers.py is the oracle of their
forward bits, gradients and FLOPs."""

import numpy as np
import pytest

from gatetrack import attention as A
from gatetrack import gate as G
from gatetrack import head as H
from gatetrack import memory as MEM
from gatetrack import model as M
from gatetrack import tensor as T
from gatetrack.errors import ShapeError
from helpers import composed_extract, composed_gate_logits, composed_head, composed_readout

STAGES = ["backbone", "gate", "readout1", "readout3", "head"]


def stage_setup(stage, dtype=np.float64, batch=2, seed=0, small=False):
    """``(params, op, oracle)`` for one stage: ``op()`` and ``oracle()`` run
    the one-op stage and its composed oracle on the same parameters and
    inputs, and return the list of its output tensors.  Every input is a
    parameter too, so its gradient is compared; the parameters get random
    offsets, so a misrouted bias or a zero layer cannot hide a gradient.
    ``small`` shrinks the maps and widths for a finite-difference check."""
    rng = np.random.default_rng(seed)
    params = T.ParamSet()

    def data(name, shape):
        return params.add(name, T.Tensor4(rng.standard_normal(shape).astype(dtype)))

    if stage == "backbone":
        model = M.TrackModel(M.ModelConfig(), seed=seed)
        for name in model.params.names():
            if name.startswith("backbone."):
                params.add(name, model.params[name])
        size = 8 if small else model.config.crop_size
        crops = data("crops", (batch, 1, size, size))
        op = lambda: [model.extract(crops)]
        oracle = lambda: [composed_extract(model.stem, crops)]
    elif stage == "gate":
        c, scale = (8, 2) if small else (M.CHANNELS, M.GATE_SCALE)
        block = G.init_gate(params, rng, c, scale, M.TAU)
        feature = data("feature", (batch, c, 3, 4) if small else (batch, c, 16, 16))
        op = lambda: [G.gate_logits(feature, block)]
        oracle = lambda: [composed_gate_logits(feature, block)]
    elif stage.startswith("readout"):
        c, ck, cv, hw = (4, 2, 2, (2, 3)) if small else (M.CHANNELS, M.KEY_CHANNELS,
                                                          M.VALUE_CHANNELS, (16, 16))
        block = MEM.init_readout(params, rng, c, ck, cv)
        query = data("query", (batch, c, *hw))
        # maps of different sizes, so a misplaced pixel range shows
        frames = [data(f"memory{i}", (batch, c, hw[0] + i, hw[1])) for i in range(int(stage[-1]))]
        op = lambda: list(MEM.readout(query, frames, block))
        oracle = lambda: list(composed_readout(query, frames, block))
    else:
        c = 2 if small else M.CHANNELS
        block = H.init_head(params, rng, c)
        fused = data("fused", (batch, c, 3, 3) if small else (batch, c, 16, 16))

        def maps(out):
            return [out.cls, out.ctr, out.reg, out.reg_raw]

        op = lambda: maps(H.head_forward(fused, block))
        oracle = lambda: maps(composed_head(fused, block))
    for name, t in params.items():
        if name.startswith(("backbone.", "gate.", "memory.", "head.")):
            t.data += 0.1 * rng.standard_normal(t.shape)
    return params, op, oracle


def bce_loss(outs, seed=1):
    """The sum of a bce per output against random targets: bce hands back a
    gradient in the output's dtype, as the training loss does."""
    rng = np.random.default_rng(seed)
    loss = None
    for out in outs:
        if not out.requires_grad:
            continue  # the readout's attention rows
        term = T.bce_with_logits(out, rng.random(out.shape))
        loss = term if loss is None else T.add(loss, term)
    return loss


def probe_loss(outs, seed=1):
    """A linear loss: bce's small gradients would drown in the difference
    quotients' rounding."""
    rng = np.random.default_rng(seed)
    loss = None
    for out in outs:
        if out.requires_grad:
            term = T.sum_all(T.mul_broadcast(out, T.Tensor4(rng.standard_normal(out.shape))))
            loss = term if loss is None else T.add(loss, term)
    return loss


class TestOneOpStages:
    @pytest.mark.parametrize("graph", [True, False], ids=["graph", "graph_free"])
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("stage", STAGES)
    def test_forward_bytes_are_the_oracles(self, stage, dtype, batch, graph):
        _, op, oracle = stage_setup(stage, dtype, batch)
        if graph:
            got, want = op(), oracle()
        else:
            with T.no_grad():
                got, want = op(), oracle()
        assert len(got) == len(want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert g.data.dtype == w.data.dtype and g.shape == w.shape
            assert g.data.tobytes() == w.data.tobytes()
            rows = stage.startswith("readout") and i == 1  # graph-free attention rows
            assert g.requires_grad == w.requires_grad == (graph and not rows)

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("stage", STAGES)
    def test_gradients_are_the_oracles(self, stage, dtype, batch):
        # the written backwards run the kernels' own backwards on the arrays
        # the composed graph hands them, so every gradient is equal, the
        # inputs' included (the crops' for the backbone)
        params, op, oracle = stage_setup(stage, dtype, batch)
        grads = T.backprop(bce_loss(op()), params)
        want = T.backprop(bce_loss(oracle()), params)
        for name, w in want.items():
            g = grads[name]
            assert g.dtype == w.dtype == dtype and g.shape == w.shape, name
            assert g.flags.c_contiguous == w.flags.c_contiguous, name
            assert np.array_equal(g, w), name
            assert np.abs(w).max() > 0, name

    @pytest.mark.parametrize("stage", STAGES)
    def test_grad_check_on_a_small_map(self, stage):
        params, op, _ = stage_setup(stage, small=True)
        if stage == "backbone":
            # every coordinate of the stem's 17.7 k weights would take minutes:
            # the crops, every bias and conv1's weight reach through all layers
            checked = T.ParamSet()
            for name, t in params.items():
                if name.endswith(".b") or name in ("crops", "backbone.conv1.w"):
                    checked.add(name, t)
            params = checked
        err = T.grad_check(lambda ps: probe_loss(op()), params, eps=1e-5)
        assert err < 1e-6, f"{stage}: rel err {err}"

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("stage", STAGES)
    def test_counts_the_oracles_flops(self, stage, batch):
        _, op, oracle = stage_setup(stage, np.float32, batch)
        counts = []
        for forward in (op, oracle):
            with T.no_grad(), T.count_flops() as total:
                forward()
            counts.append(total[0])
        assert counts[0] == counts[1] > 0


class TestHeadJoinedWeights:
    def test_branch_first_convs_are_views_of_the_joined_conv(self):
        p = H.init_head(T.ParamSet(), np.random.default_rng(0), 4)
        for k, branch in enumerate((p.cls, p.ctr, p.reg)):
            w1, b1 = branch[:2]
            assert w1.data.base is p.w1.data and b1.data.base is p.b1.data
            assert np.array_equal(w1.data, p.w1.data[4 * k:4 * (k + 1)])
            assert np.array_equal(b1.data, p.b1.data[:, 4 * k:4 * (k + 1)])

    def test_reads_parameters_updated_in_place(self):
        # an optimiser's in-place update of one branch reaches the joined conv
        params, op, oracle = stage_setup("head", batch=1)
        before = op()[1].data.copy()
        params["head.ctr.w1"].data += 0.5
        params["head.ctr.b1"].data -= 0.5
        got, want = op(), oracle()
        assert not np.array_equal(got[1].data, before)
        assert all(g.data.tobytes() == w.data.tobytes() for g, w in zip(got, want))


class TestStageInputChecks:
    def test_readout_rejects_a_memory_without_pixels(self):
        p = MEM.init_readout(T.ParamSet(), np.random.default_rng(0), 4, 2, 2)
        with pytest.raises(ShapeError, match="memory pixel"):
            MEM.readout(T.zeros((1, 4, 2, 2)), [T.zeros((1, 4, 0, 3))], p)

    def test_gate_rejects_an_empty_map(self):
        p = G.init_gate(T.ParamSet(), np.random.default_rng(0), 8, 2, 1.0)
        with pytest.raises(ShapeError, match="empty map"):
            G.gate_logits(T.zeros((1, 8, 0, 3)), p)


def op_setup(op):
    """``(params, run)`` for a stage or branch op on small inputs: ``params``
    holds every weight and bias the op reads, weights with ``decays``, and
    ``run()`` runs the op.  The head reads its joined first conv, not the
    branches' views of it."""
    rng = np.random.default_rng(0)
    params = T.ParamSet()

    def data(*shape):
        return T.Tensor4(rng.standard_normal(shape))

    if op == "backbone":
        model = M.TrackModel(M.ModelConfig(), seed=0)
        for name, t in model.params.items():
            if name.startswith("backbone."):
                params.add(name, t, model.params.decays(name))
        crops = data(1, 1, 16, 16)
        return params, lambda: model.extract(crops)
    if op == "gate":
        block = G.init_gate(params, rng, 8, 2, 1.0)
        feature = data(1, 8, 3, 4)
        return params, lambda: G.gate_logits(feature, block)
    if op == "readout":
        block = MEM.init_readout(params, rng, 4, 2, 2)
        query, memory = data(1, 4, 2, 3), data(1, 4, 3, 3)
        return params, lambda: MEM.readout(query, [memory], block)
    if op == "head":
        block = H.init_head(T.ParamSet(), rng, 2)
        params.add("head.w1", block.w1)
        params.add("head.b1", block.b1, decay=False)
        for name, branch in (("cls", block.cls), ("ctr", block.ctr), ("reg", block.reg)):
            for part, t in zip(("w2", "b2", "w3", "b3"), branch[2:]):
                params.add(f"head.{name}.{part}", t, decay=part.startswith("w"))
        fused = data(1, 2, 3, 3)
        return params, lambda: H.head_forward(fused, block)
    init, forward = A.BRANCHES[op]
    block = init(params, rng, 8, 4)
    x = data(1, 8, 3, 4)
    return params, lambda: forward(x, block)


class TestMisShapedParameters:
    @pytest.mark.parametrize("op", ["backbone", "gate", "readout", "head", "se", "ca", "cbam"])
    def test_a_parameter_of_the_wrong_width_raises_shape_error(self, op):
        # each weight in turn one output or one input channel too wide, each
        # bias one channel too wide, on a fresh setup
        params, _ = op_setup(op)
        cases = [(name, axis) for name in params.names()
                 for axis in ((0, 1) if params.decays(name) else (1,))]
        wrong = {}
        for name, axis in cases:
            params, run = op_setup(op)
            shape = list(params[name].shape)
            shape[axis] += 1
            params[name].data = np.zeros(shape)
            try:
                run()
            except ShapeError:
                continue
            except ValueError as e:  # numpy's own, naming no parameter
                wrong[name, axis] = repr(e)
            else:
                wrong[name, axis] = "nothing raised"
        assert not wrong
