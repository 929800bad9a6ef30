"""Attention branch tests: closed forms, shape/gate invariants, gradients."""

import math

import numpy as np
import pytest

from gatetrack import attention as A
from gatetrack import tensor as T
from gatetrack.errors import ConfigError, ShapeError
from helpers import zeroed


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
