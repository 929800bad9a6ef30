"""Tests for the rank-4 tensor engine: forward rules, gradients, DT64 files."""

import io
import math

import numpy as np
import pytest

from gatetrack import tensor as T
from gatetrack.errors import ConfigError, ParameterError, ShapeError


def rand4(rng, shape):
    return T.Tensor4(rng.standard_normal(shape))


def as_param(rng, params, name, shape, scale=1.0):
    t = T.Tensor4(rng.standard_normal(shape) * scale)
    params.add(name, t)
    return t


class TestConstruction:
    def test_rejects_non_rank4(self):
        with pytest.raises(ShapeError):
            T.Tensor4(np.zeros((2, 3)))

    def test_vector_layout(self):
        v = T.vector([1.0, 2.0, 3.0])
        assert v.shape == (1, 3, 1, 1)

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            T.zeros((1, 2, 1, 1)).item()


class TestConv2d:
    def test_hand_example_2x2_ones_kernel(self):
        x = T.Tensor4(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
        w = T.Tensor4(np.ones((1, 1, 2, 2)))
        y = T.conv2d(x, w, None, stride=1, pad=0)
        assert np.array_equal(y.data[0, 0], [[12.0, 16.0], [24.0, 28.0]])

    def test_identity_1x1_kernel(self):
        rng = np.random.default_rng(0)
        x = rand4(rng, (2, 3, 4, 5))
        w = T.Tensor4(np.eye(3).reshape(3, 3, 1, 1))
        y = T.conv2d(x, w)
        assert np.array_equal(y.data, x.data)

    def test_zero_input_gives_bias(self):
        x = T.zeros((1, 2, 4, 4))
        rng = np.random.default_rng(1)
        w = rand4(rng, (3, 2, 3, 3))
        b = T.vector([0.5, -1.0, 2.0])
        y = T.conv2d(x, w, b, stride=1, pad=1)
        for c, beta in enumerate([0.5, -1.0, 2.0]):
            assert np.allclose(y.data[:, c], beta)

    def test_linearity_superposition(self):
        rng = np.random.default_rng(2)
        x1 = rand4(rng, (1, 2, 4, 4))
        x2 = rand4(rng, (1, 2, 4, 4))
        w = rand4(rng, (3, 2, 3, 3))
        both = T.conv2d(T.Tensor4(x1.data + x2.data), w, stride=1, pad=1)
        sep = T.conv2d(x1, w, stride=1, pad=1).data + T.conv2d(x2, w, stride=1, pad=1).data
        assert np.max(np.abs(both.data - sep)) < 1e-10

    def test_channel_mismatch_raises(self):
        x = T.zeros((1, 2, 4, 4))
        w = T.zeros((3, 3, 3, 3))
        with pytest.raises(ShapeError):
            T.conv2d(x, w)

    def test_non_integral_output_raises(self):
        x = T.zeros((1, 1, 5, 5))
        w = T.zeros((1, 1, 2, 2))
        with pytest.raises(ConfigError):
            T.conv2d(x, w, stride=2)

    def test_strided_shapes(self):
        x = T.zeros((2, 3, 9, 9))
        w = T.zeros((4, 3, 3, 3))
        y = T.conv2d(x, w, stride=2, pad=1)
        assert y.shape == (2, 4, 5, 5)

    def test_nested_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rand4(rng, (2, 3, 5, 7))
        w = rand4(rng, (4, 3, 3, 3))
        b = T.Tensor4(rng.standard_normal((1, 4, 1, 1)))
        stride, pad = 2, 1
        y = T.conv2d(x, w, b, stride=stride, pad=pad)
        xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        expect = np.zeros(y.shape)
        for n in range(2):
            for o in range(4):
                for i in range(y.shape[2]):
                    for j in range(y.shape[3]):
                        acc = b.data[0, o, 0, 0]
                        for c in range(3):
                            for ki in range(3):
                                for kj in range(3):
                                    acc += (
                                        xp[n, c, i * stride + ki, j * stride + kj]
                                        * w.data[o, c, ki, kj]
                                    )
                        expect[n, o, i, j] = acc
        assert np.max(np.abs(y.data - expect)) < 1e-12


class TestLinear:
    def test_identity(self):
        x = T.vector([0.3, -1.2, 4.0])
        w = T.Tensor4(np.eye(3).reshape(3, 3, 1, 1))
        assert np.array_equal(T.linear(x, w).data, x.data)

    def test_hand_matrix_vector(self):
        x = T.vector([1.0, 2.0])
        w = T.Tensor4(np.array([[1.0, 1.0], [0.0, 1.0]]).reshape(2, 2, 1, 1))
        b = T.vector([0.0, 1.0])
        y = T.linear(x, w, b)
        assert np.array_equal(y.data.ravel(), [3.0, 3.0])

    def test_zero_input_gives_bias(self):
        w = T.Tensor4(np.random.default_rng(4).standard_normal((2, 3, 1, 1)))
        b = T.vector([5.0, -7.0])
        y = T.linear(T.zeros((1, 3, 1, 1)), w, b)
        assert np.array_equal(y.data.ravel(), [5.0, -7.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            T.linear(T.zeros((1, 3, 1, 1)), T.zeros((2, 4, 1, 1)))


class TestActivations:
    def test_relu_values(self):
        y = T.relu(T.vector([-1.0, 0.0, 2.0]))
        assert np.array_equal(y.data.ravel(), [0.0, 0.0, 2.0])

    def test_sigmoid_zero(self):
        assert T.sigmoid(T.scalar(0.0)).item() == 0.5

    def test_sigmoid_ln3(self):
        assert T.sigmoid(T.scalar(math.log(3.0))).item() == pytest.approx(0.75, abs=1e-12)

    def test_relu_subgradient_at_zero(self):
        x = T.Tensor4(np.zeros((1, 1, 1, 1)), requires_grad=True)
        T.sum_all(T.relu(x)).backward()
        assert x.grad[0, 0, 0, 0] == 0.0

    def test_sigmoid_extreme_inputs_finite(self):
        y = T.sigmoid(T.vector([-1e4, 1e4]))
        assert np.all(np.isfinite(y.data))


class TestSoftmaxTau:
    def test_uniform_on_equal_logits(self):
        y = T.softmax_tau(T.vector([0.0, 0.0, 0.0]), tau=1.0)
        assert np.allclose(y.data.ravel(), 1.0 / 3.0, atol=1e-15)

    def test_direct_evaluation(self):
        y = T.softmax_tau(T.vector([1.0, 2.0, 3.0]), tau=1.0)
        e = np.exp([1.0, 2.0, 3.0])
        assert np.allclose(y.data.ravel(), e / e.sum(), atol=1e-12)
        assert y.data.ravel() == pytest.approx([0.09003, 0.24473, 0.66524], abs=5e-6)

    def test_low_temperature_one_hot(self):
        y = T.softmax_tau(T.vector([1.0, 2.0, 3.0]), tau=1e-6)
        assert np.max(np.abs(y.data.ravel() - [0.0, 0.0, 1.0])) < 1e-9

    def test_high_temperature_uniform(self):
        y = T.softmax_tau(T.vector([1.0, 2.0, 3.0]), tau=1e6)
        assert np.max(np.abs(y.data.ravel() - 1.0 / 3.0)) < 1e-6

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ParameterError):
            T.softmax_tau(T.vector([1.0]), tau=0.0)

    def test_sum_one_and_positive_over_tau_range(self):
        rng = np.random.default_rng(5)
        for tau in [1e-6, 1e-3, 1.0, 1e3, 1e6]:
            for _ in range(20):
                s = T.vector(rng.standard_normal(6) * 10)
                y = T.softmax_tau(s, tau=tau).data.ravel()
                assert abs(y.sum() - 1.0) <= 1e-12
                assert np.all(y > 0.0)

    def test_argmax_preserved(self):
        rng = np.random.default_rng(6)
        for tau in [1e-3, 0.5, 1.0, 50.0]:
            for _ in range(20):
                s = rng.standard_normal(5)
                s[rng.integers(5)] += 3.0  # unique max
                y = T.softmax_tau(T.vector(s), tau=tau).data.ravel()
                assert np.argmax(y) == np.argmax(s)

    def test_shift_invariance_exact(self):
        # dyadic values keep s + c exact in floating point
        rng = np.random.default_rng(7)
        for shift in [1.0, -2.0, 0.5, 4.0]:
            s = rng.integers(-16, 16, size=5) / 8.0
            a = T.softmax_tau(T.vector(s), tau=0.7).data
            b = T.softmax_tau(T.vector(s + shift), tau=0.7).data
            assert np.array_equal(a, b)

    def test_entropy_nondecreasing_in_tau(self):
        rng = np.random.default_rng(8)
        taus = np.logspace(-2, 2, 9)
        for _ in range(100):
            s = T.vector(rng.standard_normal(4) * 3)
            ent = []
            for tau in taus:
                k = T.softmax_tau(s, tau=tau).data.ravel()
                ent.append(float(-(k * np.log(k)).sum()))
            assert all(b >= a - 1e-12 for a, b in zip(ent, ent[1:]))


class TestPooling:
    def test_global_avg(self):
        x = T.Tensor4(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        assert T.pool("global_avg", x).item() == 2.5

    def test_global_max(self):
        x = T.Tensor4(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        assert T.pool("global_max", x).item() == 4.0

    def test_avg_over_w(self):
        x = T.Tensor4(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        y = T.pool("avg_over_w", x)
        assert y.shape == (1, 1, 2, 1)
        assert np.array_equal(y.data.ravel(), [1.5, 3.5])

    def test_avg_over_h_and_channel_pools(self):
        rng = np.random.default_rng(9)
        x = rand4(rng, (2, 3, 4, 5))
        assert np.allclose(T.pool("avg_over_h", x).data, x.data.mean(axis=2, keepdims=True))
        assert np.allclose(T.pool("mean_over_c", x).data, x.data.mean(axis=1, keepdims=True))
        assert np.allclose(T.pool("max_over_c", x).data, x.data.max(axis=1, keepdims=True))

    def test_max_tie_routes_to_first_index(self):
        x = T.Tensor4(np.array([[2.0, 2.0], [1.0, 2.0]]).reshape(1, 1, 2, 2), requires_grad=True)
        T.sum_all(T.pool("global_max", x)).backward()
        assert np.array_equal(x.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            T.pool("sum", T.zeros((1, 1, 1, 1)))


class TestCombine:
    def test_add_inverse(self):
        rng = np.random.default_rng(10)
        x = rand4(rng, (1, 2, 3, 3))
        assert np.array_equal(T.sub(x, x).data, np.zeros_like(x.data))
        assert np.array_equal(T.sub(T.add(x, x), x).data, x.data)

    def test_mul_broadcast_ones_identity(self):
        rng = np.random.default_rng(11)
        x = rand4(rng, (2, 3, 4, 4))
        y = T.mul_broadcast(x, T.full((1, 3, 1, 1), 1.0))
        assert np.array_equal(y.data, x.data)

    def test_concat_channel_shape(self):
        y = T.concat_channel(T.zeros((1, 2, 4, 4)), T.zeros((1, 3, 4, 4)))
        assert y.shape == (1, 5, 4, 4)

    def test_concat_spatial_shape(self):
        y = T.concat_spatial(T.zeros((1, 2, 3, 4)), T.zeros((1, 2, 5, 4)))
        assert y.shape == (1, 2, 8, 4)
        parts = [T.full((1, 2, k, 4), k) for k in (1, 2, 3)]
        y = T.concat_spatial(*parts)
        assert y.shape == (1, 2, 6, 4)
        assert np.array_equal(y.data[0, 0, :, 0], [1, 2, 2, 3, 3, 3])

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            T.add(T.zeros((1, 1, 2, 2)), T.zeros((1, 1, 3, 3)))
        with pytest.raises(ShapeError):
            T.mul_broadcast(T.zeros((1, 2, 2, 2)), T.zeros((1, 3, 1, 1)))

    def test_minimum_tie_break(self):
        a = T.Tensor4(np.full((1, 1, 1, 2), 1.0), requires_grad=True)
        b = T.Tensor4(np.array([1.0, 2.0]).reshape(1, 1, 1, 2), requires_grad=True)
        T.sum_all(T.minimum(a, b)).backward()
        assert np.array_equal(a.grad.ravel(), [1.0, 1.0])
        assert np.array_equal(b.grad.ravel(), [0.0, 0.0])


class TestBackprop:
    def test_sum_gradient_is_ones(self):
        x = T.Tensor4(np.random.default_rng(12).standard_normal((1, 1, 2, 2)), requires_grad=True)
        T.sum_all(x).backward()
        assert np.array_equal(x.grad, np.ones((1, 1, 2, 2)))

    def test_hand_quadratic(self):
        x = T.Tensor4(np.array([1.0, 2.0]).reshape(1, 2, 1, 1), requires_grad=True)
        T.sum_all(T.mul_broadcast(x, x)).backward()
        assert np.array_equal(x.grad.ravel(), [2.0, 4.0])

    def test_backprop_returns_named_grads(self):
        params = T.ParamSet()
        rng = np.random.default_rng(13)
        w = as_param(rng, params, "w", (2, 3, 1, 1))
        x = T.Tensor4(rng.standard_normal((1, 3, 1, 1)))
        grads = T.backprop(T.sum_all(T.linear(x, w)), params)
        assert set(grads) == {"w"}
        assert grads["w"].shape == (2, 3, 1, 1)

    def test_repeated_backprop_bitwise_identical(self):
        params = T.ParamSet()
        rng = np.random.default_rng(14)
        w = as_param(rng, params, "w", (3, 3, 3, 3))
        x = T.Tensor4(rng.standard_normal((1, 3, 4, 4)))

        def loss():
            return T.sum_all(T.relu(T.conv2d(x, w, stride=1, pad=1)))

        g1 = T.backprop(loss(), params)["w"].copy()
        g2 = T.backprop(loss(), params)["w"].copy()
        assert np.array_equal(g1, g2)

    def test_backward_requires_scalar(self):
        x = T.Tensor4(np.zeros((1, 1, 2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            x.backward()

    def test_shared_parameter_accumulates(self):
        params = T.ParamSet()
        w = params.add("w", T.Tensor4(np.full((1, 1, 1, 1), 2.0)))
        x = T.scalar(3.0)
        # y = w*x + w*x -> dy/dw = 2x
        y = T.add(T.mul_broadcast(x, w), T.mul_broadcast(x, w))
        grads = T.backprop(T.sum_all(y), params)
        assert grads["w"].ravel()[0] == 6.0

    def test_no_grad_blocks_recording(self):
        x = T.Tensor4(np.ones((1, 1, 1, 1)), requires_grad=True)
        with T.no_grad():
            y = T.relu(x)
        assert y._backward_fn is None and not y.requires_grad


def _op_cases(rng):
    """One scalar-valued closure per differentiable op, on random small shapes."""
    shapes = [(1, 2, 3, 3), (2, 3, 2, 4), (1, 4, 4, 2)]
    shape = shapes[rng.integers(len(shapes))]
    cases = []

    def p1(params):
        return next(iter(params.values()))

    cases.append(("relu", shape, lambda ps: T.sum_all(T.relu(p1(ps)))))
    cases.append(("sigmoid", shape, lambda ps: T.sum_all(T.sigmoid(p1(ps)))))
    cases.append(("exp", shape, lambda ps: T.sum_all(T.exp(p1(ps)))))
    cases.append(("softmax", shape, lambda ps: T.sum_all(
        T.mul_broadcast(T.softmax_tau(p1(ps), tau=0.7), p1(ps)))))
    for kind in ["global_avg", "global_max", "avg_over_w", "avg_over_h",
                 "mean_over_c", "max_over_c"]:
        cases.append((f"pool_{kind}", shape, lambda ps, k=kind: T.sum_all(
            T.mul_broadcast(p1(ps), T.pool(k, p1(ps))))))
    cases.append(("transpose", shape, lambda ps: T.sum_all(
        T.mul_broadcast(T.transpose_hw(T.transpose_hw(p1(ps))), p1(ps)))))
    cases.append(("reshape", shape, lambda ps: T.sum_all(T.mul_broadcast(
        T.reshape(p1(ps), (shape[0], shape[1], shape[2] * shape[3], 1)),
        T.reshape(p1(ps), (shape[0], shape[1], shape[2] * shape[3], 1))))))
    return cases


class TestGradCheck:
    def test_constant_function_zero_error(self):
        params = T.ParamSet()
        params.add("w", T.Tensor4(np.ones((1, 2, 1, 1))))
        assert T.grad_check(lambda ps: T.scalar(3.0), params) == 0.0

    def test_linear_layer(self):
        rng = np.random.default_rng(15)
        params = T.ParamSet()
        as_param(rng, params, "w", (3, 4, 1, 1))
        params.add("b", T.Tensor4(rng.standard_normal((1, 3, 1, 1))), decay=False)
        x = T.Tensor4(rng.standard_normal((2, 4, 1, 1)))

        def loss(ps):
            y = T.linear(x, ps["w"], ps["b"])
            return T.sum_all(T.mul_broadcast(y, y))

        assert T.grad_check(loss, params, eps=1e-5) < 1e-6

    def test_elementwise_and_pool_ops(self):
        rng = np.random.default_rng(16)
        for name, shape, fn in _op_cases(rng):
            params = T.ParamSet()
            as_param(rng, params, "x", shape)
            err = T.grad_check(fn, params, eps=1e-5)
            assert err < 1e-4, f"{name}: rel err {err}"

    def test_conv_and_attention_contractions(self):
        rng = np.random.default_rng(17)

        params = T.ParamSet()
        as_param(rng, params, "x", (1, 3, 4, 4))
        as_param(rng, params, "w", (2, 3, 3, 3))
        params.add("b", T.Tensor4(rng.standard_normal((1, 2, 1, 1))), decay=False)

        def conv_loss(ps):
            y = T.conv2d(ps["x"], ps["w"], ps["b"], stride=1, pad=1)
            return T.sum_all(T.mul_broadcast(y, y))

        assert T.grad_check(conv_loss, params, eps=1e-5) < 1e-4

        params = T.ParamSet()
        as_param(rng, params, "q", (1, 3, 4, 1))
        as_param(rng, params, "k", (1, 3, 5, 1))
        as_param(rng, params, "v", (1, 2, 5, 1))

        def attn_loss(ps):
            logits = T.matmul_cc(ps["q"], ps["k"])
            attn = T.softmax_tau(logits, tau=1.0, axis=3)
            read = T.apply_attention(ps["v"], attn)
            return T.sum_all(T.mul_broadcast(read, read))

        assert T.grad_check(attn_loss, params, eps=1e-5) < 1e-4

    def test_bce_and_div_and_minimum(self):
        rng = np.random.default_rng(18)
        params = T.ParamSet()
        as_param(rng, params, "z", (1, 1, 3, 3))
        targets = (rng.random((1, 1, 3, 3)) > 0.5).astype(float)
        mask = np.ones((1, 1, 3, 3))

        assert T.grad_check(
            lambda ps: T.bce_with_logits(ps["z"], targets, mask), params, eps=1e-5
        ) < 1e-4

        params = T.ParamSet()
        as_param(rng, params, "a", (1, 2, 2, 2))
        b = T.Tensor4(rng.random((1, 2, 2, 2)) + 1.5)

        def frac_loss(ps):
            y = T.div_broadcast(ps["a"], b)
            return T.sum_all(T.minimum(y, ps["a"]))

        assert T.grad_check(frac_loss, params, eps=1e-5) < 1e-4


class TestDeterminism:
    def test_forward_bitwise_repeatable(self):
        rng = np.random.default_rng(19)
        x = rand4(rng, (2, 3, 6, 6))
        w = rand4(rng, (4, 3, 3, 3))
        a = T.conv2d(x, w, stride=1, pad=1).data
        b = T.conv2d(x, w, stride=1, pad=1).data
        assert np.array_equal(a, b)

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(20)
        x = T.Tensor4(rng.standard_normal((1, 3, 4, 4)) * 100)
        for fn in [T.relu, T.sigmoid, T.exp,
                   lambda t: T.softmax_tau(t, tau=1e-6),
                   lambda t: T.pool("global_avg", t)]:
            assert np.all(np.isfinite(fn(x).data))


class TestDT64:
    def test_roundtrip(self):
        rng = np.random.default_rng(21)
        t = rand4(rng, (2, 3, 4, 5))
        buf = io.BytesIO()
        T.save_dt64(t, buf)
        buf.seek(0)
        back = T.load_dt64(buf)
        assert back.shape == t.shape
        assert np.array_equal(back.data, t.data)

    def test_header_layout(self):
        t = T.zeros((1, 2, 3, 4))
        buf = io.BytesIO()
        T.save_dt64(t, buf)
        raw = buf.getvalue()
        assert raw[:4] == b"DT64"
        assert np.array_equal(np.frombuffer(raw[4:20], dtype="<u4"), [1, 2, 3, 4])
        assert len(raw) == 20 + 8 * 24

    def test_bad_magic_rejected(self):
        with pytest.raises(ShapeError):
            T.load_dt64(io.BytesIO(b"XXXX" + b"\x00" * 16))
