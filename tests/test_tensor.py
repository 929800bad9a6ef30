"""Tests for the rank-4 tensor engine: forward rules, gradients, FLOP counts."""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from gatetrack import head as H
from gatetrack import model as M
from gatetrack import tensor as T
from gatetrack.errors import ConfigError, ParameterError, ShapeError
from helpers import scalar, vector, zero_bias


def rand4(rng, shape):
    return T.Tensor4(rng.standard_normal(shape))


def as_param(rng, params, name, shape, scale=1.0):
    t = T.Tensor4(rng.standard_normal(shape) * scale)
    params.add(name, t)
    return t


# (cout, cin, k, stride, pad) of a conv whose input gradient takes each form:
# a convolution of the padded output gradient (stride 1, cout <= cin) or the
# col2im scatter (strided, or more outputs than inputs)
DX_PATHS = [
    pytest.param(3, 3, 3, 1, 1, "transposed", id="transposed_k3p1"),
    pytest.param(1, 2, 7, 1, 3, "transposed", id="transposed_k7p3"),
    pytest.param(4, 3, 4, 2, 1, "col2im", id="col2im_k4s2p1"),
    pytest.param(4, 3, 3, 1, 1, "col2im", id="col2im_k3_cout_gt_cin"),
]


def sliding_window_columns(data, kh, kw, stride, pad):
    """im2col columns built the way conv2d used to: sliding_window_view, then
    a transposing copy into (n, c kh kw, oh ow)."""
    n, c = data.shape[:2]
    xp = np.pad(data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    oh, ow = windows.shape[2:4]
    return np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3)).reshape(
        n, c * kh * kw, oh * ow)


class TestConstruction:
    def test_rejects_non_rank4(self):
        with pytest.raises(ShapeError):
            T.Tensor4(np.zeros((2, 3)))

    def test_vector_layout(self):
        v = vector([1.0, 2.0, 3.0])
        assert v.shape == (1, 3, 1, 1)

    def test_public_names_are_tensor_callables(self):
        # a traced run wraps vars(T)[name] for every listed name
        for name in T.__all__:
            obj = vars(T).get(name)
            assert callable(obj) and obj.__module__ == T.__name__, name

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            T.zeros((1, 2, 1, 1)).item()


class TestConv2d:
    def test_hand_example_2x2_ones_kernel(self):
        x = T.Tensor4(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
        w = T.Tensor4(np.ones((1, 1, 2, 2)))
        y = T.conv2d(x, w, zero_bias(w), stride=1, pad=0)
        assert np.array_equal(y.data[0, 0], [[12.0, 16.0], [24.0, 28.0]])

    def test_identity_1x1_kernel(self):
        rng = np.random.default_rng(0)
        x = rand4(rng, (2, 3, 4, 5))
        w = T.Tensor4(np.eye(3).reshape(3, 3, 1, 1))
        y = T.conv2d(x, w, zero_bias(w))
        assert np.array_equal(y.data, x.data)

    def test_zero_input_gives_bias(self):
        x = T.zeros((1, 2, 4, 4))
        rng = np.random.default_rng(1)
        w = rand4(rng, (3, 2, 3, 3))
        b = vector([0.5, -1.0, 2.0])
        y = T.conv2d(x, w, b, stride=1, pad=1)
        for c, beta in enumerate([0.5, -1.0, 2.0]):
            assert np.allclose(y.data[:, c], beta)

    def test_linearity_superposition(self):
        rng = np.random.default_rng(2)
        x1 = rand4(rng, (1, 2, 4, 4))
        x2 = rand4(rng, (1, 2, 4, 4))
        w = rand4(rng, (3, 2, 3, 3))
        b = zero_bias(w)
        both = T.conv2d(T.Tensor4(x1.data + x2.data), w, b, stride=1, pad=1)
        sep = T.conv2d(x1, w, b, stride=1, pad=1).data + T.conv2d(x2, w, b, stride=1, pad=1).data
        assert np.max(np.abs(both.data - sep)) < 1e-10

    def test_channel_mismatch_raises(self):
        x = T.zeros((1, 2, 4, 4))
        w = T.zeros((3, 3, 3, 3))
        with pytest.raises(ShapeError):
            T.conv2d(x, w, zero_bias(w))

    def test_non_integral_output_raises(self):
        x = T.zeros((1, 1, 5, 5))
        w = T.zeros((1, 1, 2, 2))
        with pytest.raises(ConfigError):
            T.conv2d(x, w, zero_bias(w), stride=2)

    def test_strided_shapes(self):
        x = T.zeros((2, 3, 9, 9))
        w = T.zeros((4, 3, 3, 3))
        y = T.conv2d(x, w, zero_bias(w), stride=2, pad=1)
        assert y.shape == (2, 4, 5, 5)

    @pytest.mark.parametrize("k, stride, pad", [(3, 1, 1), (3, 2, 1), (7, 1, 3), (1, 1, 0)],
                             ids=["k3s1p1", "k3s2p1", "k7s1p3", "k1s1p0"])
    @pytest.mark.parametrize("batch", [1, 2], ids=["batch1", "batch2"])
    @pytest.mark.parametrize("cout", [1, 4], ids=["cout1", "cout4"])
    def test_nested_loop_oracle(self, cout, batch, k, stride, pad):
        # cout == 1 is the matrix-vector branch of the k x k path; k == 1 is
        # the 1x1 path, here on a non-square input
        rng = np.random.default_rng(3)
        x = rand4(rng, (batch, 3, 5, 7))
        w = rand4(rng, (cout, 3, k, k))
        b = T.Tensor4(rng.standard_normal((1, cout, 1, 1)))
        y = T.conv2d(x, w, b, stride=stride, pad=pad)
        xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        expect = np.zeros(y.shape)
        for n in range(batch):
            for o in range(cout):
                for i in range(y.shape[2]):
                    for j in range(y.shape[3]):
                        acc = b.data[0, o, 0, 0]
                        for c in range(3):
                            for ki in range(k):
                                for kj in range(k):
                                    acc += (
                                        xp[n, c, i * stride + ki, j * stride + kj]
                                        * w.data[o, c, ki, kj]
                                    )
                        expect[n, o, i, j] = acc
        assert np.max(np.abs(y.data - expect)) < 1e-12


    @pytest.mark.parametrize("k, stride, pad, cout", [
        (3, 1, 1, 4), (3, 2, 1, 1), (1, 1, 0, 4)], ids=["k3", "k3_cout1_strided", "k1"])
    def test_weight_gradients_ignore_input_grad_flag(self, k, stride, pad, cout):
        # an input that needs no gradient gets none, and the weight
        # gradients it feeds are byte-equal to those of one that does
        rng = np.random.default_rng(30)
        data = rng.standard_normal((2, 3, 5, 5))
        w = T.Tensor4(rng.standard_normal((cout, 3, k, k)), requires_grad=True)
        b = T.Tensor4(rng.standard_normal((1, cout, 1, 1)), requires_grad=True)
        grads = []
        for requires_grad in (True, False):
            x = T.Tensor4(data, requires_grad=requires_grad)
            w.grad = b.grad = None
            y = T.conv2d(x, w, b, stride=stride, pad=pad)
            T.sum_all(T.mul_broadcast(y, y)).backward()
            assert (x.grad is not None) == requires_grad
            grads.append((w.grad.tobytes(), b.grad.tobytes()))
        assert grads[0] == grads[1]


    @pytest.mark.parametrize("cout, cin, k, stride, pad, path", DX_PATHS)
    def test_input_gradient_nested_loop_oracle(self, monkeypatch, cout, cin, k, stride, pad,
                                               path):
        # the gradient of sum(y * gy) by x, summed pixel by pixel; the number
        # of im2col calls tells which form the backward pass took
        calls = []
        im2col = T._im2col
        monkeypatch.setattr(T, "_im2col", lambda *a: calls.append(a) or im2col(*a))
        rng = np.random.default_rng(31)
        x = T.Tensor4(rng.standard_normal((2, cin, 8, 8)), requires_grad=True)
        w = rand4(rng, (cout, cin, k, k))
        y = T.conv2d(x, w, zero_bias(w), stride=stride, pad=pad)
        gy = rng.standard_normal(y.shape)
        T.sum_all(T.mul_broadcast(y, T.Tensor4(gy))).backward()
        assert len(calls) == {"transposed": 2, "col2im": 1}[path]
        dxp = np.zeros((2, cin, 8 + 2 * pad, 8 + 2 * pad))
        for n in range(2):
            for o in range(cout):
                for i in range(y.shape[2]):
                    for j in range(y.shape[3]):
                        for c in range(cin):
                            for ki in range(k):
                                for kj in range(k):
                                    dxp[n, c, i * stride + ki, j * stride + kj] += (
                                        gy[n, o, i, j] * w.data[o, c, ki, kj])
        expect = dxp[:, :, pad:pad + 8, pad:pad + 8]
        assert np.max(np.abs(x.grad - expect)) <= 1e-12 * np.max(np.abs(expect))

    @pytest.mark.parametrize("batch", [1, 4])
    def test_im2col_matches_sliding_window_columns_on_model_shapes(self, monkeypatch, batch):
        # every im2col call of a tracked frame and of a training step, input
        # gradients included, gives the columns byte for byte
        seen = {}
        im2col = T._im2col

        def spy(data, kh, kw, stride, pad, oh, ow):
            cols = im2col(data, kh, kw, stride, pad, oh, ow)
            key = (data.shape, kh, stride, pad)
            seen[key] = cols.tobytes() == sliding_window_columns(data, kh, kw, stride,
                                                                 pad).tobytes()
            return cols

        monkeypatch.setattr(T, "_im2col", spy)
        model = M.TrackModel(M.ModelConfig(), seed=0)
        rng = np.random.default_rng(32)
        crops = T.Tensor4(rng.random((batch, 1, 64, 64)))
        feature, _, _ = model.enhance_soft(model.extract(crops))
        out = model.predict(model.read_memory(feature, [feature])[0])
        T.add(T.add(T.sum_all(out.cls), T.sum_all(out.ctr)), T.sum_all(out.reg)).backward()
        assert set(seen) == {
            ((batch, 1, 64, 64), 4, 2, 1),  # backbone conv1
            ((batch, 16, 32, 32), 4, 2, 1),  # backbone conv2
            ((batch, 32, 16, 16), 3, 1, 1),  # conv3 and the head, forward and dx
            ((batch, 2, 16, 16), 7, 1, 3),  # CBAM's spatial conv
            ((batch, 1, 16, 16), 7, 1, 3),  # its dx
        }
        assert all(seen.values())


class TestLinear:
    """A 1x1 conv2d on a (1, in, 1, 1) vector: the fully connected layer of
    the gate, the SE/CA/CBAM bottlenecks and the readout projections."""

    def test_identity(self):
        x = vector([0.3, -1.2, 4.0])
        w = T.Tensor4(np.eye(3).reshape(3, 3, 1, 1))
        assert np.array_equal(T.conv2d(x, w, zero_bias(w)).data, x.data)

    def test_hand_matrix_vector(self):
        x = vector([1.0, 2.0])
        w = T.Tensor4(np.array([[1.0, 1.0], [0.0, 1.0]]).reshape(2, 2, 1, 1))
        b = vector([0.0, 1.0])
        y = T.conv2d(x, w, b)
        assert np.array_equal(y.data.ravel(), [3.0, 3.0])

    def test_zero_input_gives_bias(self):
        w = T.Tensor4(np.random.default_rng(4).standard_normal((2, 3, 1, 1)))
        b = vector([5.0, -7.0])
        y = T.conv2d(T.zeros((1, 3, 1, 1)), w, b)
        assert np.array_equal(y.data.ravel(), [5.0, -7.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            T.conv2d(T.zeros((1, 3, 1, 1)), T.zeros((2, 4, 1, 1)), T.zeros((1, 2, 1, 1)))


class TestActivations:
    def test_relu_values(self):
        y = T.relu(vector([-1.0, 0.0, 2.0]))
        assert np.array_equal(y.data.ravel(), [0.0, 0.0, 2.0])

    def test_sigmoid_zero(self):
        assert T.sigmoid(scalar(0.0)).item() == 0.5

    def test_sigmoid_ln3(self):
        assert T.sigmoid(scalar(math.log(3.0))).item() == pytest.approx(0.75, abs=1e-12)

    def test_relu_subgradient_at_zero(self):
        x = T.Tensor4(np.zeros((1, 1, 1, 1)), requires_grad=True)
        T.sum_all(T.relu(x)).backward()
        assert x.grad[0, 0, 0, 0] == 0.0

    def test_sigmoid_extreme_inputs_finite(self):
        y = T.sigmoid(vector([-1e4, 1e4]))
        assert np.all(np.isfinite(y.data))


class TestSoftmaxTau:
    def test_uniform_on_equal_logits(self):
        y = T.softmax_tau(vector([0.0, 0.0, 0.0]), tau=1.0)
        assert np.allclose(y.data.ravel(), 1.0 / 3.0, atol=1e-15)

    def test_direct_evaluation(self):
        y = T.softmax_tau(vector([1.0, 2.0, 3.0]), tau=1.0)
        e = np.exp([1.0, 2.0, 3.0])
        assert np.allclose(y.data.ravel(), e / e.sum(), atol=1e-12)
        assert y.data.ravel() == pytest.approx([0.09003, 0.24473, 0.66524], abs=5e-6)

    def test_low_temperature_one_hot(self):
        y = T.softmax_tau(vector([1.0, 2.0, 3.0]), tau=1e-6)
        assert np.max(np.abs(y.data.ravel() - [0.0, 0.0, 1.0])) < 1e-9

    def test_high_temperature_uniform(self):
        y = T.softmax_tau(vector([1.0, 2.0, 3.0]), tau=1e6)
        assert np.max(np.abs(y.data.ravel() - 1.0 / 3.0)) < 1e-6

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ParameterError):
            T.softmax_tau(vector([1.0]), tau=0.0)

    def test_positive_with_ties_far_above_an_underflowed_entry(self):
        # three entries of 1 sum to 3; the smallest subnormal / 3 would round to 0
        y = T.softmax_tau(vector([0.0, 0.0, -1e4, 0.0]), tau=1.0).data.ravel()
        assert np.all(y > 0.0)
        assert abs(y.sum() - 1.0) <= 1e-15

    def test_sum_one_and_positive_over_tau_range(self):
        rng = np.random.default_rng(5)
        for tau in [1e-6, 1e-3, 1.0, 1e3, 1e6]:
            for _ in range(20):
                s = vector(rng.standard_normal(6) * 10)
                y = T.softmax_tau(s, tau=tau).data.ravel()
                assert abs(y.sum() - 1.0) <= 1e-12
                assert np.all(y > 0.0)

    def test_argmax_preserved(self):
        rng = np.random.default_rng(6)
        for tau in [1e-3, 0.5, 1.0, 50.0]:
            for _ in range(20):
                s = rng.standard_normal(5)
                s[rng.integers(5)] += 3.0  # unique max
                y = T.softmax_tau(vector(s), tau=tau).data.ravel()
                assert np.argmax(y) == np.argmax(s)

    def test_shift_invariance_exact(self):
        # dyadic values keep s + c exact in floating point
        rng = np.random.default_rng(7)
        for shift in [1.0, -2.0, 0.5, 4.0]:
            s = rng.integers(-16, 16, size=5) / 8.0
            a = T.softmax_tau(vector(s), tau=0.7).data
            b = T.softmax_tau(vector(s + shift), tau=0.7).data
            assert np.array_equal(a, b)

    def test_entropy_nondecreasing_in_tau(self):
        rng = np.random.default_rng(8)
        taus = np.logspace(-2, 2, 9)
        for _ in range(100):
            s = vector(rng.standard_normal(4) * 3)
            ent = []
            for tau in taus:
                k = T.softmax_tau(s, tau=tau).data.ravel()
                ent.append(float(-(k * np.log(k)).sum()))
            assert all(b >= a - 1e-12 for a, b in zip(ent, ent[1:]))


def softmax_rows_reference(q, k, tau):
    """Attention rows the way the readout used to compute them: the channel
    product, the max subtracted, then divided by tau, exp'd, floored at the
    smallest subnormal and row-normalised.  ``attend``'s floor is the row
    length L times that subnormal, which moves no entry above L * 1e-307;
    no row of these random inputs reaches below that."""
    logits = np.matmul(q[:, :, :, 0].transpose(0, 2, 1), k[:, :, :, 0])[:, None]
    y = (logits - logits.max(axis=3, keepdims=True)) / tau
    y = np.exp(y) + 5e-324
    return y / y.sum(axis=3, keepdims=True)


class TestAttend:
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("tau", [1.0, 2.0, 4.0])
    def test_power_of_two_tau_is_bitwise_the_reference(self, n, tau):
        rng = np.random.default_rng(30)
        q = rng.standard_normal((n, 5, 12, 1))
        k = rng.standard_normal((n, 5, 20, 1))
        y = T.attend(T.Tensor4(q), T.Tensor4(k), tau).data
        assert y.tobytes() == softmax_rows_reference(q, k, tau).tobytes()

    def test_readout_shape_is_bitwise_the_reference(self):
        # track_deep: 16 key channels, a 16x16 query over 8 stored 16x16 maps
        rng = np.random.default_rng(31)
        q = rng.standard_normal((1, 16, 256, 1))
        k = rng.standard_normal((1, 16, 2048, 1))
        y = T.attend(T.Tensor4(q), T.Tensor4(k), 16 ** 0.5).data
        assert y.tobytes() == softmax_rows_reference(q, k, 4.0).tobytes()

    @pytest.mark.parametrize("n", [1, 4])
    def test_other_tau_within_a_few_ulp(self, n):
        # q / 3 rounds once per element, so the rows differ in the last bits
        rng = np.random.default_rng(32)
        q = rng.standard_normal((n, 4, 32, 1))
        k = rng.standard_normal((n, 4, 48, 1))
        y = T.attend(T.Tensor4(q), T.Tensor4(k), 3.0).data
        ref = softmax_rows_reference(q, k, 3.0)
        assert np.max(np.abs(y - ref) / np.spacing(ref)) <= 32

    def test_rows_sum_to_one_and_stay_positive_far_below_the_max(self):
        keys = np.zeros((1, 1, 6, 1))
        keys[0, 0, 2, 0] = -1e4  # exp underflows to 0 before the floor
        y = T.attend(T.Tensor4(np.ones((1, 1, 3, 1))), T.Tensor4(keys), 1.0).data
        assert np.all(y > 0.0)
        assert np.allclose(y.sum(axis=3), 1.0, rtol=0, atol=1e-15)
        assert np.all(y[:, :, :, 2] < 1e-300)

    @pytest.mark.parametrize("q_shape, k_shape", [
        ((1, 3, 4, 1), (1, 2, 5, 1)),
        ((1, 3, 4, 1), (2, 3, 5, 1)),
        ((1, 3, 4, 2), (1, 3, 5, 1)),
    ], ids=["channels", "batch", "not_columns"])
    def test_mismatched_operands_raise_shape_error(self, q_shape, k_shape):
        with pytest.raises(ShapeError):
            T.attend(T.zeros(q_shape), T.zeros(k_shape), 1.0)

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ParameterError):
            T.attend(T.zeros((1, 1, 2, 1)), T.zeros((1, 1, 3, 1)), 0.0)


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

        # over channels, batch 2: each pixel's gradient goes to its first tied channel
        pixels = np.array([[[1.0, 4.0], [5.0, 4.0], [5.0, 4.0]],
                           [[2.0, 0.0], [1.0, 3.0], [2.0, 3.0]]])  # (n, c, w)
        x = T.Tensor4(pixels[:, :, None, :], requires_grad=True)
        y = T.pool("max_over_c", x)
        assert np.array_equal(y.data[:, 0, 0], [[5.0, 4.0], [2.0, 3.0]])
        T.sum_all(y).backward()
        assert np.array_equal(x.grad[:, :, 0], [[[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]],
                                                [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]])

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
        y = T.concat((T.zeros((1, 2, 4, 4)), T.zeros((1, 3, 4, 4))), axis=1)
        assert y.shape == (1, 5, 4, 4)

    def test_concat_spatial_shape(self):
        y = T.concat((T.zeros((1, 2, 3, 4)), T.zeros((1, 2, 5, 4))), axis=2)
        assert y.shape == (1, 2, 8, 4)
        parts = [T.full((1, 2, k, 4), k) for k in (1, 2, 3)]
        y = T.concat(parts, axis=2)
        assert y.shape == (1, 2, 6, 4)
        assert np.array_equal(y.data[0, 0, :, 0], [1, 2, 2, 3, 3, 3])

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_narrow_inverts_concat(self, axis):
        rng = np.random.default_rng(29)
        a, b = rand4(rng, (2, 3, 4, 5)), rand4(rng, (2, 3, 4, 5))
        joined = T.concat((a, b), axis=axis)
        size = a.shape[axis]
        assert np.array_equal(T.narrow(joined, axis, 0, size).data, a.data)
        assert np.array_equal(T.narrow(joined, axis, size, 2 * size).data, b.data)

    @pytest.mark.parametrize("lo, hi", [(-1, 2), (2, 2), (3, 2), (0, 4)])
    def test_narrow_out_of_range(self, lo, hi):
        with pytest.raises(ShapeError):
            T.narrow(T.zeros((1, 3, 2, 2)), 1, lo, hi)

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            T.add(T.zeros((1, 1, 2, 2)), T.zeros((1, 1, 3, 3)))
        with pytest.raises(ShapeError):
            T.mul_broadcast(T.zeros((1, 2, 2, 2)), T.zeros((1, 3, 1, 1)))
        with pytest.raises(ShapeError):
            T.concat((T.zeros((1, 2, 3, 4)), T.zeros((1, 3, 3, 4))), axis=2)

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
        grads = T.backprop(T.sum_all(T.conv2d(x, w, zero_bias(w))), params)
        assert set(grads) == {"w"}
        assert grads["w"].shape == (2, 3, 1, 1)

    def test_repeated_backprop_bitwise_identical(self):
        params = T.ParamSet()
        rng = np.random.default_rng(14)
        w = as_param(rng, params, "w", (3, 3, 3, 3))
        x = T.Tensor4(rng.standard_normal((1, 3, 4, 4)))

        def loss():
            return T.sum_all(T.relu(T.conv2d(x, w, zero_bias(w), stride=1, pad=1)))

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
        x = scalar(3.0)
        # y = w*x + w*x -> dy/dw = 2x
        y = T.add(T.mul_broadcast(x, w), T.mul_broadcast(x, w))
        grads = T.backprop(T.sum_all(y), params)
        assert grads["w"].ravel()[0] == 6.0

    @pytest.mark.parametrize("other_first", [True, False])
    @pytest.mark.parametrize("other, expect", [
        (lambda u: T.narrow(u, 1, 0, 1), [2.0, 1.0]),
        (lambda u: u, [2.0, 2.0]),
    ], ids=["narrow", "whole"])
    def test_accumulation_never_writes_a_shared_gradient(self, other, expect, other_first):
        # add hands one gradient array to both operands; u's second gradient
        # is added to its own buffer and must not reach v's
        u = T.Tensor4(np.zeros((1, 2, 2, 2)), requires_grad=True)
        v = T.Tensor4(np.zeros((1, 2, 2, 2)), requires_grad=True)
        both = T.sum_all(T.scale(T.add(u, v), 1.0))
        part = T.sum_all(T.scale(other(u), 1.0))
        T.add(*((part, both) if other_first else (both, part))).backward()
        assert np.array_equal(v.grad, np.ones((1, 2, 2, 2)))
        assert np.array_equal(u.grad[0, :, 0, 0], expect)

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

    def attend_read(ps):
        # every pixel attends over every pixel of the same map and reads it
        cols = T.reshape(p1(ps), (shape[0], shape[1], shape[2] * shape[3], 1))
        read = T.apply_attention(cols, T.attend(cols, cols, 2.5))
        return T.sum_all(T.mul_broadcast(read, cols))

    cases.append(("attend", shape, attend_read))
    for kind in ["global_avg", "global_max", "avg_over_w", "avg_over_h",
                 "mean_over_c", "max_over_c"]:
        cases.append((f"pool_{kind}", shape, lambda ps, k=kind: T.sum_all(
            T.mul_broadcast(p1(ps), T.pool(k, p1(ps))))))
    for axis in (1, 2, 3):
        # concat rotates x by one step along the axis, weighted by x * x
        cases.append((f"concat_axis{axis}", shape, lambda ps, a=axis: T.sum_all(T.mul_broadcast(
            T.concat((T.narrow(p1(ps), a, 1, shape[a]), T.narrow(p1(ps), a, 0, 1)), axis=a),
            T.mul_broadcast(p1(ps), p1(ps))))))
        cases.append((f"narrow_axis{axis}", shape, lambda ps, a=axis: T.sum_all(T.mul_broadcast(
            T.narrow(p1(ps), a, 1, shape[a]), T.narrow(p1(ps), a, 0, shape[a] - 1)))))
    cases.append(("reshape", shape, lambda ps: T.sum_all(T.mul_broadcast(
        T.reshape(p1(ps), (shape[0], shape[1], shape[2] * shape[3], 1)),
        T.reshape(p1(ps), (shape[0], shape[1], shape[2] * shape[3], 1))))))
    return cases


class TestGradCheck:
    def test_constant_function_zero_error(self):
        params = T.ParamSet()
        params.add("w", T.Tensor4(np.ones((1, 2, 1, 1))))
        assert T.grad_check(lambda ps: scalar(3.0), params) == 0.0

    def test_linear_layer(self):
        rng = np.random.default_rng(15)
        params = T.ParamSet()
        as_param(rng, params, "w", (3, 4, 1, 1))
        params.add("b", T.Tensor4(rng.standard_normal((1, 3, 1, 1))), decay=False)
        x = T.Tensor4(rng.standard_normal((2, 4, 1, 1)))

        def loss(ps):
            y = T.conv2d(x, ps["w"], ps["b"])
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

        # a single output channel takes the matrix-vector branch
        params = T.ParamSet()
        as_param(rng, params, "x", (2, 2, 5, 5))
        as_param(rng, params, "w", (1, 2, 3, 3))
        params.add("b", T.Tensor4(rng.standard_normal((1, 1, 1, 1))), decay=False)

        def conv_one_loss(ps):
            y = T.conv2d(ps["x"], ps["w"], ps["b"], stride=2, pad=1)
            return T.sum_all(T.mul_broadcast(y, y))

        assert T.grad_check(conv_one_loss, params, eps=1e-5) < 1e-4

        # a batch, and a tau whose 1/tau is inexact
        params = T.ParamSet()
        as_param(rng, params, "q", (2, 3, 4, 1))
        as_param(rng, params, "k", (2, 3, 5, 1))
        as_param(rng, params, "v", (2, 2, 5, 1))

        def attn_loss(ps):
            attn = T.attend(ps["q"], ps["k"], 2.5)
            read = T.apply_attention(ps["v"], attn)
            return T.sum_all(T.mul_broadcast(read, read))

        assert T.grad_check(attn_loss, params, eps=1e-5) < 1e-4

        # a batch through the 1x1 path, input gradient included
        params = T.ParamSet()
        as_param(rng, params, "x", (2, 3, 3, 5))
        as_param(rng, params, "w", (4, 3, 1, 1))
        params.add("b", T.Tensor4(rng.standard_normal((1, 4, 1, 1))), decay=False)

        def conv_1x1_loss(ps):
            y = T.conv2d(ps["x"], ps["w"], ps["b"])
            return T.sum_all(T.mul_broadcast(y, y))

        assert T.grad_check(conv_1x1_loss, params, eps=1e-5) < 1e-4

    @pytest.mark.parametrize("cout, cin, k, stride, pad, path", DX_PATHS)
    def test_conv_input_gradient_paths(self, cout, cin, k, stride, pad, path):
        rng = np.random.default_rng(19)
        params = T.ParamSet()
        as_param(rng, params, "x", (1, cin, 6, 6))
        as_param(rng, params, "w", (cout, cin, k, k))
        params.add("b", T.Tensor4(rng.standard_normal((1, cout, 1, 1))), decay=False)

        def conv_loss(ps):
            y = T.conv2d(ps["x"], ps["w"], ps["b"], stride=stride, pad=pad)
            return T.sum_all(T.mul_broadcast(y, y))

        assert T.grad_check(conv_loss, params, eps=1e-5) < 1e-4

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


class TestInputsUntouched:
    """The kernels work in place on their own temporaries, never on an input."""

    @pytest.mark.parametrize("op", [
        lambda x, w: T.conv2d(x, w["k3"], w["b4"], stride=1, pad=1),
        lambda x, w: T.conv2d(x, w["k3_one"], w["b1"], stride=2, pad=1),
        lambda x, w: T.conv2d(x, w["k1"], w["b4"]),
        lambda x, w: T.attend(T.reshape(x, (2, 3, 25, 1)), w["keys"], 2.0),
        lambda x, w: T.softmax_tau(x, tau=0.3),
        lambda x, w: T.relu(x),
    ], ids=["conv_k3", "conv_k3_cout1_strided", "conv_1x1", "attend", "softmax_tau",
            "relu"])
    def test_input_bytes_untouched(self, op):
        rng = np.random.default_rng(24)
        x = T.Tensor4(rng.standard_normal((2, 3, 5, 5)), requires_grad=True)
        weights = {
            "k3": T.Tensor4(rng.standard_normal((4, 3, 3, 3)), requires_grad=True),
            "k3_one": T.Tensor4(rng.standard_normal((1, 3, 3, 3)), requires_grad=True),
            "k1": T.Tensor4(rng.standard_normal((4, 3, 1, 1)), requires_grad=True),
            "b4": T.Tensor4(rng.standard_normal((1, 4, 1, 1)), requires_grad=True),
            "b1": T.Tensor4(rng.standard_normal((1, 1, 1, 1)), requires_grad=True),
            "keys": T.Tensor4(rng.standard_normal((2, 3, 7, 1)), requires_grad=True),
        }
        before = {name: t.data.tobytes() for name, t in [("x", x), *weights.items()]}
        y = op(x, weights)
        T.sum_all(T.mul_broadcast(y, y)).backward()
        after = {name: t.data.tobytes() for name, t in [("x", x), *weights.items()]}
        assert after == before

    @pytest.mark.parametrize("cout, cin, k, stride, pad, path", DX_PATHS)
    def test_conv_backward_leaves_gradient_and_weight(self, cout, cin, k, stride, pad, path):
        rng = np.random.default_rng(26)
        x = T.Tensor4(rng.standard_normal((2, cin, 8, 8)), requires_grad=True)
        w = T.Tensor4(rng.standard_normal((cout, cin, k, k)), requires_grad=True)
        y = T.conv2d(x, w, zero_bias(w), stride=stride, pad=pad)
        g = rng.standard_normal(y.shape)
        before = (g.tobytes(), w.data.tobytes())
        y._backward_fn(g)
        assert (g.tobytes(), w.data.tobytes()) == before

    def test_head_forward(self):
        # the head joins its first-layer weights and narrows the joined map
        rng = np.random.default_rng(25)
        params = T.ParamSet()
        p = H.init_head(params, rng, 4)
        for _, t in params.items():
            t.data[:] = rng.standard_normal(t.shape)
        fused = T.Tensor4(rng.standard_normal((2, 4, 5, 5)), requires_grad=True)
        tensors = [("fused", fused), *params.items()]
        before = {name: t.data.tobytes() for name, t in tensors}
        out = H.head_forward(fused, p)
        loss = T.add(T.add(T.sum_all(out.cls), T.sum_all(out.ctr)), T.sum_all(out.reg))
        loss.backward()
        assert {name: t.data.tobytes() for name, t in tensors} == before


class TestDeterminism:
    def test_forward_bitwise_repeatable(self):
        rng = np.random.default_rng(19)
        x = rand4(rng, (2, 3, 6, 6))
        w = rand4(rng, (4, 3, 3, 3))
        a = T.conv2d(x, w, zero_bias(w), stride=1, pad=1).data
        b = T.conv2d(x, w, zero_bias(w), stride=1, pad=1).data
        assert np.array_equal(a, b)

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(20)
        x = T.Tensor4(rng.standard_normal((1, 3, 4, 4)) * 100)
        for fn in [T.relu, T.sigmoid, T.exp,
                   lambda t: T.softmax_tau(t, tau=1e-6),
                   lambda t: T.pool("global_avg", t)]:
            assert np.all(np.isfinite(fn(x).data))


class TestCountFlops:
    """Each op reports its forward FLOPs; count_flops sums them for a block."""

    @staticmethod
    def counted(fn, *args):
        with T.count_flops() as total:
            fn(*args)
        return total[0]

    @pytest.mark.parametrize("op, expect", [
        (lambda x, w: T.conv2d(x, w["k3"], w["b4"], stride=1, pad=1), 2 * 3 * 9 * 2 * 4 * 25),
        (lambda x, w: T.conv2d(x, w["k3"], w["b4"], stride=2, pad=1), 2 * 3 * 9 * 2 * 4 * 9),
        (lambda x, w: T.conv2d(x, w["k1"], w["b4"]), 2 * 3 * 2 * 4 * 25),
        (lambda x, w: T.pool("global_max", x), 150),
        (lambda x, w: T.pool("avg_over_w", x), 150),
        (lambda x, w: T.softmax_tau(x, tau=0.5), 150),
        (lambda x, w: T.mul_broadcast(x, w["c3"]), 150),
        (lambda x, w: T.sum_all(x), 150),
        # the query-key product and the softmax over its rows
        (lambda x, w: T.attend(T.reshape(x, (2, 3, 25, 1)), T.reshape(x, (2, 3, 25, 1)), 2.0),
         2 * 3 * 2 * 25 * 25 + 2 * 25 * 25),
        (lambda x, w: T.apply_attention(T.reshape(x, (2, 3, 25, 1)), w["attn"]),
         2 * 25 * 2 * 3 * 7),
    ], ids=["conv_k3", "conv_strided", "linear", "pool_max", "pool_avg", "softmax",
            "mul_broadcast", "sum_all", "attend", "apply_attention"])
    def test_op_counts_follow_conventions(self, op, expect):
        rng = np.random.default_rng(25)
        x = rand4(rng, (2, 3, 5, 5))
        weights = {"k3": rand4(rng, (4, 3, 3, 3)), "k1": rand4(rng, (4, 3, 1, 1)),
                   "b4": rand4(rng, (1, 4, 1, 1)), "c3": rand4(rng, (1, 3, 1, 1)),
                   "attn": rand4(rng, (2, 1, 7, 25))}
        assert self.counted(op, x, weights) == expect

    def test_same_count_with_and_without_no_grad(self):
        rng = np.random.default_rng(26)
        x = T.Tensor4(rng.standard_normal((1, 3, 6, 6)), requires_grad=True)
        w = T.Tensor4(rng.standard_normal((2, 3, 3, 3)), requires_grad=True)

        def forward(x, w):
            return T.sum_all(T.sigmoid(T.conv2d(x, w, zero_bias(w), stride=1, pad=1)))

        with T.no_grad():
            inference = self.counted(forward, x, w)
        assert inference == self.counted(forward, x, w) == 2 * 3 * 9 * 72 + 72 + 72

    def test_batch_two_conv_counts_twice_batch_one(self):
        rng = np.random.default_rng(27)
        x = rand4(rng, (2, 3, 6, 6))
        w = rand4(rng, (4, 3, 3, 3))
        b = zero_bias(w)
        one = self.counted(T.conv2d, T.Tensor4(x.data[:1]), w, b, 1, 1)
        assert self.counted(T.conv2d, x, w, b, 1, 1) == 2 * one > 0

    @pytest.mark.parametrize("op", [
        lambda x: T.reshape(x, (1, 4, 12, 1)),
        lambda x: T.concat((x, x), axis=1),
        lambda x: T.concat((x, x, x), axis=2),
        lambda x: T.concat((x, x), axis=3),
        lambda x: T.narrow(x, 1, 1, 3),
        lambda x: T.narrow(x, 2, 0, 2),
        lambda x: T.narrow(x, 3, 1, 4),
    ], ids=["reshape", "concat_channel", "concat_spatial", "concat_columns", "slice_channels",
            "slice_rows", "slice_columns"])
    def test_layout_ops_count_zero(self, op):
        assert self.counted(op, rand4(np.random.default_rng(28), (1, 4, 3, 4))) == 0

    def test_nested_block_does_not_leak_into_outer(self):
        x = T.zeros((1, 2, 3, 3))
        with T.count_flops() as outer:
            T.relu(x)
            with T.count_flops() as inner:
                T.exp(x)
                T.sigmoid(x)
            T.relu(x)
        assert (outer[0], inner[0]) == (36, 36)

    def test_counter_restored_after_exception(self):
        x = T.zeros((1, 2, 3, 3))
        with pytest.raises(ShapeError):
            with T.count_flops() as total:
                T.relu(x)
                T.add(x, T.zeros((1, 2, 3, 4)))
        T.relu(x)
        assert total[0] == 18
