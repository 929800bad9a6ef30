"""Attention branch tests: closed forms, shape/gate invariants, gradients."""

import math

import numpy as np
import pytest

from gatetrack import attention as A
from gatetrack import tensor as T
from gatetrack.errors import ConfigError, ShapeError
from helpers import COMPOSED, zeroed


class TestZeroParamClosedForms:
    def test_se_half(self):
        rng = np.random.default_rng(0)
        x = T.Tensor4(rng.standard_normal((2, 8, 5, 6)))
        out = A.se_forward(x, zeroed(A.init_se, 8, 4))
        assert np.array_equal(out.data, 0.5 * x.data)

    def test_ca_quarter(self):
        rng = np.random.default_rng(1)
        x = T.Tensor4(rng.standard_normal((2, 8, 5, 6)))
        out = A.ca_forward(x, zeroed(A.init_ca, 8, 4))
        assert np.array_equal(out.data, 0.25 * x.data)

    def test_ca_quarter_hand_grid(self):
        x = T.Tensor4(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out = A.ca_forward(x, zeroed(A.init_ca, 1, 1))
        assert np.array_equal(out.data[0, 0], [[0.25, 0.5], [0.75, 1.0]])

    def test_cbam_quarter(self):
        rng = np.random.default_rng(2)
        x = T.Tensor4(rng.standard_normal((1, 2, 3, 3)))
        out = A.cbam_forward(x, zeroed(A.init_cbam, 2, 2))
        assert np.max(np.abs(out.data - 0.25 * x.data)) < 1e-15

    def test_zero_input_zero_output(self):
        x = T.zeros((1, 8, 4, 4))
        for kind, p in A.init_branches(T.ParamSet(), np.random.default_rng(3), 8, 4).items():
            assert np.array_equal(A.branch_forward(kind, x, p).data, x.data)


class TestSECrafted:
    def test_logits_ln3_and_zero(self):
        # W1 = 0, b1 = 0 -> hidden = 0; b2 = (ln 3, 0) -> gates (0.75, 0.5)
        p = zeroed(A.init_se, 2, 2)
        p.b2.data[0, 0, 0, 0] = math.log(3.0)
        x = T.Tensor4(np.ones((1, 2, 2, 2)))
        out = A.se_forward(x, p)
        assert np.allclose(out.data[0, 0], 0.75, atol=1e-12)
        assert np.allclose(out.data[0, 1], 0.5, atol=1e-12)


class TestInvariants:
    def test_shape_preserved(self):
        rng = np.random.default_rng(4)
        branches = A.init_branches(T.ParamSet(), rng, 8, 4)
        for shape in [(1, 8, 4, 4), (3, 8, 2, 7), (2, 8, 6, 3)]:
            x = T.Tensor4(rng.standard_normal(shape))
            for kind, p in branches.items():
                assert A.branch_forward(kind, x, p).shape == shape

    def test_gates_contract_magnitudes(self):
        # every output element is the input element times gates in (0, 1)
        rng = np.random.default_rng(5)
        for trial in range(5):
            branches = A.init_branches(T.ParamSet(), rng, 8, 4)
            x = T.Tensor4(rng.standard_normal((2, 8, 4, 4)) * 3)
            for kind, p in branches.items():
                out = A.branch_forward(kind, x, p).data
                assert np.all(np.abs(out) <= np.abs(x.data) + 1e-15)
                assert np.all(np.sign(out) == np.sign(x.data))

    def test_se_spatial_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        se = A.init_branches(T.ParamSet(), rng, 8, 4)["se"]
        x = rng.standard_normal((1, 8, 4, 4))
        perm = rng.permutation(16)
        x_perm = x.reshape(1, 8, 16)[:, :, perm].reshape(1, 8, 4, 4)
        out = A.se_forward(T.Tensor4(x), se).data.reshape(1, 8, 16)
        out_perm = A.se_forward(T.Tensor4(x_perm), se).data.reshape(1, 8, 16)
        assert np.allclose(out[:, :, perm], out_perm, atol=1e-12)

    def test_ca_constant_input_constant_gates(self):
        rng = np.random.default_rng(7)
        ca = A.init_branches(T.ParamSet(), rng, 8, 4)["ca"]
        per_channel = rng.standard_normal((1, 8, 1, 1))
        x = T.Tensor4(np.broadcast_to(per_channel, (1, 8, 4, 6)).copy())
        out = A.ca_forward(x, ca).data
        # constant per channel in, constant per channel out
        assert np.allclose(out, out[:, :, :1, :1], atol=1e-12)

    def test_channel_mismatch(self):
        rng = np.random.default_rng(8)
        x = T.zeros((1, 4, 4, 4))
        for kind, p in A.init_branches(T.ParamSet(), rng, 8, 4).items():
            with pytest.raises(ShapeError):
                A.branch_forward(kind, x, p)

    def test_bad_reduction(self):
        with pytest.raises(ConfigError):
            zeroed(A.init_se, 6, 4)


class TestGradients:
    @pytest.mark.parametrize("kind", ["se", "ca", "cbam"])
    def test_grad_check(self, kind):
        rng = np.random.default_rng(9)
        params = T.ParamSet()
        branch = A.BRANCHES[kind][0](params, rng, 4, 2)
        params.add("x", T.Tensor4(rng.standard_normal((1, 4, 3, 3))))

        def loss(ps):
            out = A.branch_forward(kind, ps["x"], branch)
            return T.sum_all(T.mul_broadcast(out, out))

        err = T.grad_check(loss, params, eps=1e-5)
        assert err < 1e-4, f"{kind}: rel err {err}"


# The one-op branches against the composed oracle in tests/helpers.py: the
# forward bit for bit, and each gradient within GRAD_TOL of the oracle's max
# |g| (measured at most 1.3e-15 in float64 and 1.1e-6 in float32 over seeds
# 0 to 4 of these setups).  The maps are batch 2: non-square and the model's.
GRAD_TOL = {np.float64: 1e-14, np.float32: 4e-6}
ORACLE_SHAPES = [(2, 8, 5, 7), (2, 32, 16, 16)]


def branch_setup(kind, shape, dtype, seed=0, ties=False):
    """Parameters (with nonzero biases, so a misrouted bias shows), the branch
    block, the input ``x`` (a parameter too) and bce targets.  With ``ties``,
    row 0 of ``x`` is zero in every channel and channel 0 is otherwise
    constant, so the max pools tie along both channels and pixels."""
    rng = np.random.default_rng(seed)
    params = T.ParamSet()
    block = A.BRANCHES[kind][0](params, rng, shape[1], 4)
    for _, t in params.items():
        t.data += 0.1 * rng.standard_normal(t.shape)
    data = rng.standard_normal(shape)
    if ties:
        data[:, 0] = 0.25
        data[:, :, 0, :] = 0.0
    x = params.add("x", T.Tensor4(data.astype(dtype)))
    return params, block, x, rng.random(shape)


def forward_and_grads(forward, params, block, x, targets):
    out = forward(x, block)
    # bce hands back a gradient in the output's dtype, as the training loss does
    return out.data, T.backprop(T.bce_with_logits(out, targets), params)


class TestOneOpBranches:
    @pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=["5x7", "16x16"])
    @pytest.mark.parametrize("kind", ["se", "ca", "cbam"])
    def test_matches_the_composed_oracle(self, kind, shape, dtype, ties):
        setup = branch_setup(kind, shape, dtype, ties=ties)
        out, grads = forward_and_grads(A.BRANCHES[kind][1], *setup)
        want_out, want_grads = forward_and_grads(COMPOSED[kind], *setup)
        assert out.dtype == dtype and out.tobytes() == want_out.tobytes()
        assert list(grads) == list(want_grads)
        for name, want in want_grads.items():
            got = grads[name]
            assert got.dtype == dtype and got.shape == want.shape, name
            assert got.flags.c_contiguous, name
            assert np.abs(got - want).max() <= GRAD_TOL[dtype] * np.abs(want).max(), name

    @pytest.mark.parametrize("kind", ["se", "ca", "cbam"])
    def test_grad_check_on_a_non_square_map(self, kind):
        params, block, _, probe = branch_setup(kind, (2, 8, 5, 7), np.float64, seed=1)

        def loss(ps):
            # a linear loss: bce's small gradients would drown in the
            # difference quotients' rounding
            out = A.branch_forward(kind, ps["x"], block)
            return T.sum_all(T.mul_broadcast(out, T.Tensor4(probe)))

        err = T.grad_check(loss, params, eps=1e-5)
        assert err < 1e-6, f"{kind}: rel err {err}"

    @pytest.mark.parametrize("shape, reduction", [
        ((1, 32, 16, 16), 4), ((2, 8, 5, 7), 4), ((3, 16, 8, 12), 2)])
    @pytest.mark.parametrize("kind", ["se", "ca", "cbam"])
    def test_counts_the_oracles_flops(self, kind, shape, reduction):
        block = A.BRANCHES[kind][0](T.ParamSet(), np.random.default_rng(2), shape[1], reduction)
        x = T.zeros(shape)
        counts = []
        for forward in (A.BRANCHES[kind][1], COMPOSED[kind]):
            with T.no_grad(), T.count_flops() as total:
                forward(x, block)
            counts.append(total[0])
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("kind", ["se", "ca", "cbam"])
    def test_graph_free_forward_gives_the_graph_forward_bytes(self, kind, dtype):
        _, block, x, _ = branch_setup(kind, (2, 32, 16, 16), dtype, seed=3)
        graph = A.branch_forward(kind, x, block)
        with T.no_grad():
            free = A.branch_forward(kind, x, block)
        assert graph.requires_grad and not free.requires_grad
        assert free.data.tobytes() == graph.data.tobytes()

    @pytest.mark.parametrize("kind", ["se", "ca", "cbam"])
    def test_empty_map_raises(self, kind):
        block = A.BRANCHES[kind][0](T.ParamSet(), np.random.default_rng(4), 8, 4)
        with pytest.raises(ShapeError):
            A.branch_forward(kind, T.zeros((1, 8, 0, 3)), block)
