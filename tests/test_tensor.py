"""Tests for the rank-4 tensor engine: forward rules, gradients, FLOP counts."""

import math
import threading

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from gatetrack import head as H
from gatetrack import model as M
from gatetrack import tensor as T
from gatetrack.errors import ConfigError, ParameterError, ShapeError
from helpers import composed_blend, scalar, vector, zero_bias


def rand4(rng, shape, dtype=np.float64):
    return T.Tensor4(rng.standard_normal(shape).astype(dtype))


def as_param(rng, params, name, shape, scale=1.0):
    t = T.Tensor4(rng.standard_normal(shape) * scale)
    params.add(name, t)
    return t


# (cout, cin, k, stride, pad) of a conv whose input gradient takes each form:
# the stride phases of the output gradient, each a convolution with a flipped
# sub-kernel, where cout <= cin s^2 ("transposed" at stride 1: one phase, the
# whole flipped kernel), or the col2im scatter (more outputs than that)
DX_PATHS = [
    pytest.param(3, 3, 3, 1, 1, "transposed", id="transposed_k3p1"),
    pytest.param(1, 2, 7, 1, 3, "transposed", id="transposed_k7p3"),
    pytest.param(4, 3, 4, 2, 1, "phases", id="phases_k4s2p1"),
    pytest.param(4, 3, 2, 2, 0, "phases", id="phases_k2s2p0"),
    pytest.param(4, 3, 3, 1, 1, "col2im", id="col2im_k3_cout_gt_cin"),
    pytest.param(13, 3, 4, 2, 1, "col2im", id="col2im_k4s2_cout_gt_4cin"),
]
# im2col calls of a forward and backward pass: the forward's, plus one of the
# output gradient unless col2im scatters the input gradient
IM2COL_CALLS = {"transposed": 2, "phases": 2, "col2im": 1}


def conv_oracle(x, w, b, stride, pad):
    """Nested-loop cross-correlation of plain arrays, in float64."""
    batch, cin = x.shape[:2]
    cout, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (xp.shape[2] - k) // stride + 1
    ow = (xp.shape[3] - k) // stride + 1
    expect = np.zeros((batch, cout, oh, ow))
    for n in range(batch):
        for o in range(cout):
            for i in range(oh):
                for j in range(ow):
                    acc = b[0, o, 0, 0]
                    for c in range(cin):
                        for ki in range(k):
                            for kj in range(k):
                                acc += xp[n, c, i * stride + ki, j * stride + kj] * w[o, c, ki, kj]
                    expect[n, o, i, j] = acc
    return expect


def input_gradient_oracle(gy, w, x_shape, stride, pad):
    """The gradient of sum(conv(x) * gy) by x, summed pixel by pixel in float64."""
    batch, cin, h, wd = x_shape
    cout, _, k, _ = w.shape
    dxp = np.zeros((batch, cin, h + 2 * pad, wd + 2 * pad))
    for n in range(batch):
        for o in range(cout):
            for i in range(gy.shape[2]):
                for j in range(gy.shape[3]):
                    for c in range(cin):
                        for ki in range(k):
                            for kj in range(k):
                                dxp[n, c, i * stride + ki, j * stride + kj] += (
                                    gy[n, o, i, j] * w[o, c, ki, kj])
    return dxp[:, :, pad:pad + h, pad:pad + wd]


# largest float32-path error allowed against a float64 oracle, relative to the
# oracle's largest entry: float32 rounds at 6e-8, and these sums have at most
# a few hundred terms
FLOAT32_TOL = 1e-5


def masked_sigmoid(z):
    """The logistic function the way sigmoid_array used to compute it: each
    stable formula on its own boolean-mask gather, scattered back."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def argmax_pool(x, axes):
    """A max pool the way pool used to compute it: the first-occurrence argmax
    over the merged reduced axes, then a gather through it.  Returns the pooled
    array and the argmax, which also marks where the gradient goes."""
    lo, hi = axes[0], axes[-1] + 1
    flat = x.reshape(x.shape[:lo] + (-1,) + x.shape[hi:])
    idx = np.expand_dims(flat.argmax(axis=lo), lo)
    kept = x.shape[:lo] + (1,) * (hi - lo) + x.shape[hi:]
    return np.take_along_axis(flat, idx, axis=lo).reshape(kept), idx


def assert_bitwise(actual, expect):
    """Same dtype, shape and bits; a NaN matches any NaN, whatever its sign bit."""
    assert actual.dtype == expect.dtype and actual.shape == expect.shape
    nan = np.isnan(expect)
    assert np.array_equal(np.isnan(actual), nan)
    assert actual[~nan].tobytes() == expect[~nan].tobytes()


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

    @pytest.mark.parametrize("dtype, stored", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float16, np.float64), (np.int64, np.float64)])
    def test_keeps_float32_and_stores_other_data_as_float64(self, dtype, stored):
        values = np.arange(4).reshape(1, 4, 1, 1)
        t = T.Tensor4(values.astype(dtype))
        assert t.data.dtype == stored
        assert np.array_equal(t.data, values)

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
        # exact in float32 too: each output is one input times 1 plus zeros
        rng = np.random.default_rng(0)
        x = rand4(rng, (2, 3, 4, 5), np.float32)
        w = T.Tensor4(np.eye(3).reshape(3, 3, 1, 1))
        y = T.conv2d(x, w, zero_bias(w))
        assert y.data.dtype == np.float32
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
        sep = (T.conv2d(x1, w, b, stride=1, pad=1).data
               + T.conv2d(x2, w, b, stride=1, pad=1).data)
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
        # a single output channel and a 1x1 kernel, whose im2col columns are
        # the input itself, on a non-square input
        rng = np.random.default_rng(3)
        x = rand4(rng, (batch, 3, 5, 7))
        w = rand4(rng, (cout, 3, k, k))
        b = T.Tensor4(rng.standard_normal((1, cout, 1, 1)))
        y = T.conv2d(x, w, b, stride=stride, pad=pad)
        assert y.data.dtype == np.float64
        expect = conv_oracle(x.data, w.data, b.data, stride, pad)
        assert np.max(np.abs(y.data - expect)) < 1e-12

    @pytest.mark.parametrize("k, stride, pad, cout", [
        (3, 1, 1, 4), (3, 2, 1, 4), (7, 1, 3, 1), (1, 1, 0, 4)],
        ids=["k3s1p1", "k3s2p1", "k7s1p3_cout1", "k1s1p0"])
    def test_no_grad_multiplies_in_float32(self, k, stride, pad, cout):
        # each kernel path; float32 sums of up to 147 products of standard
        # normals err here by 2e-6 at most, far below any wrong term
        rng = np.random.default_rng(3)
        x = rand4(rng, (2, 3, 5, 7), np.float32)
        w = rand4(rng, (cout, 3, k, k))
        b = T.Tensor4(rng.standard_normal((1, cout, 1, 1)))
        with T.no_grad():
            y = T.conv2d(x, w, b, stride=stride, pad=pad)
        assert y.data.dtype == np.float32
        expect = conv_oracle(x.data, w.data, b.data, stride, pad)
        assert np.max(np.abs(y.data - expect)) < 1e-4

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
        assert len(calls) == IM2COL_CALLS[path]
        expect = input_gradient_oracle(gy, w.data, x.shape, stride, pad)
        assert x.grad.dtype == np.float64
        assert np.max(np.abs(x.grad - expect)) <= 1e-12 * np.max(np.abs(expect))

    @pytest.mark.parametrize("k, stride, pad, h, w, path", [
        (4, 2, 2, 8, 6, "phases"),  # a phase row lies wholly in the padding
        (6, 3, 2, 8, 11, "phases"),
        (4, 4, 0, 8, 12, "phases"),  # 1 x 1 sub-kernels
        (3, 2, 1, 9, 7, "col2im"),  # the stride does not divide the kernel
    ], ids=["k4s2p2", "k6s3p2", "k4s4p0", "k3s2p1"])
    def test_stride_phases_on_uneven_shapes(self, monkeypatch, k, stride, pad, h, w, path):
        # every phase lands on its own input rows and columns, none past the
        # input's edge, whatever the padding, stride and aspect
        calls = []
        im2col = T._im2col
        monkeypatch.setattr(T, "_im2col", lambda *a: calls.append(a) or im2col(*a))
        rng = np.random.default_rng(34)
        x = T.Tensor4(rng.standard_normal((2, 3, h, w)), requires_grad=True)
        wt = rand4(rng, (4, 3, k, k))
        y = T.conv2d(x, wt, zero_bias(wt), stride=stride, pad=pad)
        gy = rng.standard_normal(y.shape)
        T.sum_all(T.mul_broadcast(y, T.Tensor4(gy))).backward()
        assert len(calls) == IM2COL_CALLS[path]
        expect = input_gradient_oracle(gy, wt.data, x.shape, stride, pad)
        assert np.max(np.abs(x.grad - expect)) <= 1e-12 * np.max(np.abs(expect))

    @pytest.mark.parametrize("cout, cin, k, stride, pad, path", DX_PATHS + [
        pytest.param(4, 3, 1, 1, 0, "1x1", id="1x1")])
    def test_float32_matches_nested_loop_oracles(self, cout, cin, k, stride, pad, path):
        # a float32 input makes the forward and every gradient multiply in
        # float32; each is held to the float64 oracle at FLOAT32_TOL of its
        # largest entry (measured: at most 1.7e-7 here)
        rng = np.random.default_rng(33)
        x = T.Tensor4(rng.standard_normal((2, cin, 8, 8)).astype(np.float32),
                      requires_grad=True)
        w = T.Tensor4(rng.standard_normal((cout, cin, k, k)), requires_grad=True)
        b = T.Tensor4(rng.standard_normal((1, cout, 1, 1)), requires_grad=True)
        y = T.conv2d(x, w, b, stride=stride, pad=pad)
        gy = rng.standard_normal(y.shape)
        T.sum_all(T.mul_broadcast(y, T.Tensor4(gy))).backward()
        xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        oh, ow = y.shape[2:]
        dw = np.zeros(w.shape)
        for ki in range(k):
            for kj in range(k):
                window = xp[:, :, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride]
                dw[:, :, ki, kj] = np.einsum("nohw,nchw->oc", gy, window)
        for got, want in ((y.data, conv_oracle(x.data, w.data, b.data, stride, pad)),
                          (x.grad, input_gradient_oracle(gy, w.data, x.shape, stride, pad)),
                          (w.grad, dw),
                          (b.grad, gy.sum(axis=(0, 2, 3)).reshape(b.shape))):
            assert got.dtype == np.float32
            # a digest or np.linalg.norm reads a gradient in memory order
            assert got.flags.c_contiguous
            assert np.max(np.abs(got - want)) <= FLOAT32_TOL * np.max(np.abs(want))

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
        crops = T.Tensor4(rng.random((batch, 1, 64, 64)).astype(np.float32))
        feature, _, _ = model.enhance_soft(model.extract(crops))
        out = model.predict(model.read_memory(feature, [feature])[0])
        T.add(T.add(T.sum_all(out.cls), T.sum_all(out.ctr)), T.sum_all(out.reg)).backward()
        assert set(seen) == {
            ((batch, 1, 64, 64), 4, 2, 1),  # backbone conv1
            ((batch, 16, 32, 32), 4, 2, 1),  # backbone conv2
            ((batch, 32, 16, 16), 2, 1, 1),  # its dx, by stride phase
            ((batch, 32, 16, 16), 3, 1, 1),  # conv3 and the head, forward and dx
            ((batch, 2, 16, 16), 7, 1, 3),  # CBAM's spatial conv
            ((batch, 1, 16, 16), 7, 1, 3),  # its dx
            # 1x1 convs: forward, and dx where cout <= cin
            ((batch, 32, 1, 1), 1, 1, 0),  # the gate's first FC
            ((batch, 8, 1, 1), 1, 1, 0),  # its second FC, and the first FC's dx
            ((batch, 4, 1, 1), 1, 1, 0),  # the second FC's dx
            ((batch, 32, 256, 1), 1, 1, 0),  # the readout's memory key and value convs
            ((batch, 16, 256, 1), 1, 1, 0),  # their dx
            ((batch, 32, 16, 16), 1, 1, 0),  # its query key conv, the head's last convs, fuse dx
            ((batch, 16, 16, 16), 1, 1, 0),  # the query key conv's dx
            ((batch, 48, 16, 16), 1, 1, 0),  # the readout's fuse conv
            ((batch, 1, 16, 16), 1, 1, 0),  # the head's cls and ctr last convs' dx
            ((batch, 4, 16, 16), 1, 1, 0),  # the head's reg last conv's dx
        }
        assert all(seen.values())

    def test_im2col_of_a_1x1_conv_is_the_input_itself(self):
        # a 1x1, stride-1, pad-0 conv's columns are a view of its input, not a copy
        x = np.random.default_rng(34).standard_normal((2, 3, 4, 5)).astype(np.float32)
        cols = T._im2col(x, 1, 1, 1, 0, 4, 5)
        assert cols.shape == (2, 3, 20) and cols.flags.c_contiguous
        assert np.shares_memory(cols, x)


class TestPrecision:
    @pytest.mark.parametrize("k, pad", [(3, 1), (1, 0)], ids=["k3", "k1"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv2d_computes_in_its_input_dtype(self, dtype, k, pad):
        # with or without a graph: the output, the input gradient and the
        # float64 weight's and bias's gradients all take the input's dtype
        rng = np.random.default_rng(40)
        x = T.Tensor4(rng.standard_normal((1, 2, 4, 4)).astype(dtype), requires_grad=True)
        w = T.Tensor4(rng.standard_normal((3, 2, k, k)), requires_grad=True)
        b = T.Tensor4(rng.standard_normal((1, 3, 1, 1)), requires_grad=True)
        with T.no_grad():
            assert T.conv2d(x, w, b, pad=pad).data.dtype == dtype
        y = T.conv2d(x, w, b, pad=pad)
        assert y.data.dtype == dtype and y.requires_grad
        T.sum_all(T.mul_broadcast(y, y)).backward()
        assert x.grad.dtype == w.grad.dtype == b.grad.dtype == dtype
        assert w.data.dtype == b.data.dtype == np.float64


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_is_bitwise_the_masked_form(self, dtype):
        # signed zeros, infinities, NaN, the edge of float32's exp range
        # (88.7), where its exp underflows (-104) and where float64's does (745)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 88.7, -88.7, -104.0, 745.0, -745.0]
        spread = np.random.default_rng(33).standard_normal(502) * 30
        z = np.concatenate([special, spread]).astype(dtype)
        assert_bitwise(T.sigmoid_array(z), masked_sigmoid(z))
        x = T.Tensor4(z.reshape(2, 8, 4, 8))
        assert_bitwise(T.sigmoid(x).data, masked_sigmoid(x.data))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_masks_multiply_as_the_selects_did(self, dtype):
        # relu's and exp's masks multiply the gradient; they equal the
        # np.where selects they replace up to the sign of a masked zero
        rng = np.random.default_rng(35)
        values = np.concatenate([[0.0, -0.0, 50.0, -50.0, 49.9, -60.0],
                                 rng.standard_normal(58) * 30]).reshape(1, 4, 4, 4)
        g = rng.standard_normal(values.shape).astype(dtype)
        x = T.Tensor4(values.astype(dtype), requires_grad=True)
        for op, select in (
                (T.relu, lambda y: np.where(x.data > 0.0, g, 0.0)),
                (T.exp, lambda y: np.where(np.abs(x.data) < 50.0, g * y, 0.0))):
            y = op(x)
            (got,) = y._backward_fn(g)
            expect = select(y.data)
            assert got.dtype == expect.dtype == dtype
            assert np.array_equal(got, expect)

    def test_exp_gradient_is_zero_from_the_clamp_on(self):
        values = np.array([-60.0, -50.0, -49.5, 0.0, 49.5, 50.0, 60.0])
        x = T.Tensor4(values.reshape(1, -1, 1, 1), requires_grad=True)
        T.sum_all(T.exp(x)).backward()
        inside = np.exp(values[[2, 3, 4]])
        assert np.array_equal(x.grad.ravel(), [0.0, 0.0, *inside, 0.0, 0.0])


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
        # NaN fails every comparison, so it must fail ``tau > 0`` too
        for tau in (0.0, math.nan):
            with pytest.raises(ParameterError):
                T.softmax_tau(vector([1.0]), tau=tau)

    @pytest.mark.parametrize("tau", ["1", True, None, 1j], ids=["str", "bool", "none", "complex"])
    def test_non_real_tau_rejected(self, tau):
        with pytest.raises(ParameterError, match="real"):
            T.softmax_tau(vector([1.0, 2.0]), tau=tau)

    def test_infinite_tau_gives_uniform_rows(self):
        y = T.softmax_tau(vector([1.0, 2.0, 30.0]), tau=math.inf)
        assert np.all(y.data == 1.0 / 3.0)

    def test_positive_with_ties_far_above_an_underflowed_entry(self):
        # three entries of 1 sum to 3; the smallest subnormal / 3 would round to 0
        y = T.softmax_tau(vector([0.0, 0.0, -1e4, 0.0]), tau=1.0).data.ravel()
        assert np.all(y > 0.0)
        assert abs(y.sum() - 1.0) <= 1e-15

    def test_float32_floor_keeps_an_underflowed_entry_positive(self):
        # a gate's logits are float32; the underflowed entry is clamped at the
        # float32 floor before exp, and the rows are normalised in float64
        logits = T.Tensor4(np.array([0.0, 0.0, -1e4, 0.0], np.float32).reshape(1, 4, 1, 1))
        with T.no_grad():
            y = T.softmax_tau(logits, tau=1.0).data.ravel()
        assert y.dtype == np.float64
        assert np.all(y > 0.0)
        assert abs(y.sum() - 1.0) <= 1e-15

    def test_float32_rows_sum_to_one_in_float64(self):
        # the soft gate's rows of 4 entries: normalised in float32 they miss a
        # sum of 1 within 1e-9 on most rows, which the training bench checks
        rng = np.random.default_rng(12)
        logits = rng.standard_normal((256, 4, 1, 1)).astype(np.float32)
        y = T.softmax_tau(T.Tensor4(logits), tau=1.0).data
        ref = np.exp(logits.astype(np.float64))
        ref /= ref.sum(axis=1, keepdims=True)
        assert y.dtype == np.float64
        assert np.abs(y.sum(axis=1) - 1.0).max() <= 1e-15
        assert np.max(np.abs(y - ref) / ref) <= 1e-6

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


def attend_rows(q, k, tau):
    """The rows ``attend`` returns for plain arrays, read through one value channel."""
    v = np.zeros((k.shape[0], 1, k.shape[2], 1), k.dtype)
    return T.attend(T.Tensor4(q), T.Tensor4(k), T.Tensor4(v), tau)[1].data


# a read sums its products in the operands' dtype: each read entry lies
# within this many epsilons of that dtype of rows @ values in float64,
# relative to rows @ |values| (the error bound's scale); measured at most
# 0.85 in float32 and 1.2 in float64 below
READ_EPS = 8


class TestAttend:
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("tau", [1.0, 2.0, 4.0])
    def test_power_of_two_tau_is_bitwise_the_reference(self, n, tau):
        # the logits are bitwise those of dividing by tau; the rows are
        # scaled by reciprocal row sums, within 1 ulp of dividing by the sums
        rng = np.random.default_rng(30)
        q = rng.standard_normal((n, 5, 12, 1))
        k = rng.standard_normal((n, 5, 20, 1))
        y = attend_rows(q, k, tau)
        ref = softmax_rows_reference(q, k, tau)
        assert np.max(np.abs(y - ref) / np.spacing(ref)) <= 1

    def test_readout_shape_is_bitwise_the_reference(self):
        # track_deep: 16 key channels, a 16x16 query over 8 stored 16x16 maps
        rng = np.random.default_rng(31)
        q = rng.standard_normal((1, 16, 256, 1))
        k = rng.standard_normal((1, 16, 2048, 1))
        y = attend_rows(q, k, 16 ** 0.5)
        ref = softmax_rows_reference(q, k, 4.0)
        assert np.max(np.abs(y - ref) / np.spacing(ref)) <= 1

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("rows_per_block", [2, 4, 5],
                             ids=["blocks_of_2", "blocks_of_4", "blocks_of_5"])
    def test_row_blocks_are_bitwise_one_pass(self, monkeypatch, n, rows_per_block):
        # 13 query rows: blocks of 2 and of 4 leave one row over, which joins
        # the last block; blocks of 5 end in a ragged block of 3.  The rows and
        # the gradients must match the one-block op; the read sums each block
        # in the order BLAS picks for its size, so it is bounded instead
        rng = np.random.default_rng(33)
        q = rng.standard_normal((n, 5, 13, 1))
        k = rng.standard_normal((n, 5, 20, 1))
        v = rng.standard_normal((n, 3, 20, 1))
        g = rng.standard_normal((n, 3, 13, 1))

        def read_rows_and_grads():
            qt, kt, vt = (T.Tensor4(a, requires_grad=True) for a in (q, k, v))
            read, rows = T.attend(qt, kt, vt, 2.0)
            T.sum_all(T.mul_broadcast(read, T.Tensor4(g))).backward()
            return read.data, rows.data, qt.grad, kt.grad, vt.grad

        one_pass = read_rows_and_grads()
        monkeypatch.setattr(T, "_ATTEND_BLOCK_BYTES", rows_per_block * 8 * n * 20)
        blocked = read_rows_and_grads()
        a = blocked[1][:, 0].transpose(0, 2, 1)
        want = np.matmul(v[:, :, :, 0], a)[:, :, :, None]
        scale = np.matmul(np.abs(v[:, :, :, 0]), a)[:, :, :, None]
        assert np.all(np.abs(blocked[0] - want) <= READ_EPS * np.finfo(np.float64).eps * scale)
        for got, want in zip(blocked[1:], one_pass[1:]):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("rows, blocks, callers", [
        (6, 2, 2), (9, 3, 2), (21, 7, 4), (24, 8, 5), (22, 7, 4),
    ], ids=["2_blocks", "3_blocks", "7_blocks", "8_blocks", "leftover_row"])
    def test_two_cores_are_bitwise_one_core(self, monkeypatch, rows, blocks, callers, n,
                                            dtype):
        # blocks of 3 rows; 22 rows leave one over, which joins the seventh
        # block.  The caller runs its first blocks, one more than half, and
        # the helper the rest (none of two), as one thread would run them
        rng = np.random.default_rng(39)
        q = rng.standard_normal((n, 5, rows, 1)).astype(dtype)
        k, v = (rng.standard_normal((n, c, 20, 1)).astype(dtype) for c in (5, 3))
        g = rng.standard_normal((n, 3, rows, 1)).astype(dtype)
        monkeypatch.setattr(T, "_ATTEND_BLOCK_BYTES", 3 * 8 * n * 20)
        run_blocks = T._attend_blocks
        calls = []
        monkeypatch.setattr(T, "_attend_blocks", lambda blocks, *a: calls.append(
            (threading.get_ident(), blocks)) or run_blocks(blocks, *a))

        def read_rows_and_grads(cpus):
            monkeypatch.setattr(T, "_CPUS", cpus)
            qt, kt, vt = (T.Tensor4(a, requires_grad=True) for a in (q, k, v))
            read, attn = T.attend(qt, kt, vt, 2.0)
            T.sum_all(T.mul_broadcast(read, T.Tensor4(g))).backward()
            return read.data, attn.data, qt.grad, kt.grad, vt.grad

        one_core = read_rows_and_grads(1)
        (only, every), = calls
        assert only == threading.get_ident() and len(every) == blocks
        assert every[-1] == ((18, 22) if rows == 22 else (rows - 3, rows))
        two_cores = read_rows_and_grads(2)
        # the two threads log their shares in either order
        shares = sorted(calls[1:], key=lambda call: call[1])
        split = [every[:callers], every[callers:]] if callers < blocks else [every]
        assert [share for _, share in shares] == split
        assert shares[0][0] == only and all(thread != only for thread, _ in shares[1:])
        for got, want in zip(two_cores, one_core):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_one_helper_thread_serves_every_call(self, monkeypatch):
        monkeypatch.setattr(T, "_CPUS", 2)
        monkeypatch.setattr(T, "_ATTEND_BLOCK_BYTES", 2 * 8 * 20)
        rng = np.random.default_rng(40)
        q, k, v = (T.Tensor4(rng.standard_normal((1, 4, m, 1))) for m in (8, 20, 20))
        before = threading.active_count()
        for _ in range(50):
            T.attend(q, k, v, 2.0)
        assert threading.active_count() <= before + 1

    def test_a_forked_child_makes_its_own_helper(self, monkeypatch):
        # a forked child inherits the executor object but not its thread, so
        # a call in another process must not queue work on it
        monkeypatch.setattr(T, "_CPUS", 2)
        monkeypatch.setattr(T, "_ATTEND_BLOCK_BYTES", 2 * 8 * 20)
        rng = np.random.default_rng(41)
        q, k, v = (T.Tensor4(rng.standard_normal((1, 4, m, 1))) for m in (8, 20, 20))
        want = T.attend(q, k, v, 2.0)[0].data
        parent = T._helper_thread()
        monkeypatch.setattr(T.os, "getpid", lambda: -1)
        assert T.attend(q, k, v, 2.0)[0].data.tobytes() == want.tobytes()
        assert T._helper_thread() is not parent

    @pytest.mark.parametrize("cpus", [1, 2], ids=["one_core", "two_cores"])
    def test_callers_errstate_reaches_the_helpers_blocks(self, monkeypatch, cpus):
        # an infinite query row sums inf and -inf products into NaN logits.
        # It lies in the last block, which the helper runs on two cores
        monkeypatch.setattr(T, "_CPUS", cpus)
        monkeypatch.setattr(T, "_ATTEND_BLOCK_BYTES", 2 * 8 * 20)
        rng = np.random.default_rng(42)
        q = rng.standard_normal((1, 4, 8, 1))
        k, v = (rng.standard_normal((1, 4, 20, 1)) for _ in range(2))
        q[0, :, 7, 0] = math.inf
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            T.attend(T.Tensor4(q), T.Tensor4(k), T.Tensor4(v), 2.0)

    @pytest.mark.parametrize("shape, rows_per_block", [
        ((2, 5, 13, 20, 3), 4),  # blocks of 4, 4 and 5: the leftover row joins the last
        ((2, 5, 13, 20, 3), 5),  # blocks of 5, 5 and a ragged 3
        ((1, 16, 256, 2048, 16), None),  # the track_deep readout, at the op's own blocks
    ], ids=["leftover_row", "ragged_block", "readout"])
    def test_float32_read_is_close_to_the_float64_product(self, monkeypatch, shape,
                                                          rows_per_block):
        n, c, rows, pixels, cv = shape
        rng = np.random.default_rng(35)
        q, k = (rng.standard_normal((n, c, m, 1)).astype(np.float32) for m in (rows, pixels))
        v = rng.standard_normal((n, cv, pixels, 1)).astype(np.float32)
        if rows_per_block:
            monkeypatch.setattr(T, "_ATTEND_BLOCK_BYTES", rows_per_block * 8 * n * pixels)
        read, attn = T.attend(T.Tensor4(q), T.Tensor4(k), T.Tensor4(v), 4.0)
        a = attn.data[:, 0].transpose(0, 2, 1)
        want = np.matmul(v[:, :, :, 0].astype(np.float64), a)[:, :, :, None]
        scale = np.matmul(np.abs(v[:, :, :, 0]).astype(np.float64), a)[:, :, :, None]
        assert read.data.dtype == np.float32
        assert np.all(np.abs(read.data - want) <= READ_EPS * np.finfo(np.float32).eps * scale)

    def test_rows_are_graph_free_and_the_read_carries_the_graph(self):
        rng = np.random.default_rng(36)
        q, k, v = (T.Tensor4(rng.standard_normal(s), requires_grad=True)
                   for s in ((1, 2, 3, 1), (1, 2, 4, 1), (1, 3, 4, 1)))
        read, rows = T.attend(q, k, v, 2.0)
        assert rows._parents == () and not rows.requires_grad
        assert read._parents == (q, k, v) and read.requires_grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_keep_the_operands_dtype(self, dtype):
        # float32 operands take float32 copies of the float64 rows in the
        # backward, so every product there runs in float32
        rng = np.random.default_rng(37)
        q, k, v = (T.Tensor4(rng.standard_normal(s).astype(dtype), requires_grad=True)
                   for s in ((2, 3, 6, 1), (2, 3, 9, 1), (2, 4, 9, 1)))
        read, rows = T.attend(q, k, v, 2.0)
        T.sum_all(T.mul_broadcast(read, read)).backward()
        assert read.data.dtype == dtype and rows.data.dtype == np.float64
        assert q.grad.dtype == k.grad.dtype == v.grad.dtype == dtype

    def test_float32_operands_give_float64_rows_close_to_their_values(self):
        # a float32 crop makes a readout's keys float32: the logits and exp
        # run in float32, the row sums and normalisation in float64, so rows
        # still sum to 1 within 1e-12, which float32 rows of 2048 entries miss
        rng = np.random.default_rng(31)
        q = rng.standard_normal((1, 16, 256, 1)).astype(np.float32)
        k = rng.standard_normal((1, 16, 2048, 1)).astype(np.float32)
        y = attend_rows(q, k, 16 ** 0.5)
        ref = softmax_rows_reference(q.astype(np.float64), k.astype(np.float64), 4.0)
        assert y.dtype == np.float64
        assert np.abs(y.sum(axis=3) - 1.0).max() <= 1e-12
        assert np.max(np.abs(y - ref) / ref) <= 1e-5

    def test_float32_rows_stay_positive_where_exp_underflows(self):
        keys = np.array([0.0, -300.0, -1000.0], dtype=np.float32).reshape(1, 1, 3, 1)
        y = attend_rows(np.ones((1, 1, 2, 1), np.float32), keys, 1.0)
        assert y.dtype == np.float64
        assert np.all(y > 0.0)
        assert np.abs(y.sum(axis=3) - 1.0).max() <= 1e-12

    def test_float32_rows_clamp_logits_where_exp_would_be_subnormal(self):
        # float32 exp is subnormal from 87.3 to 103.9 below the row max, and
        # about 12 times slower there; such logits are clamped at the log of
        # the smallest normal float32, so they all come out equal and positive
        gaps = np.array([0.0, -80.0, -87.0, -90.0, -95.0, -100.0, -104.0], np.float32)
        y = attend_rows(np.ones((1, 1, 2, 1), np.float32), gaps.reshape(1, 1, 7, 1), 1.0)[0, 0]
        tiny = float(np.finfo(np.float32).tiny)
        assert y.dtype == np.float64
        assert np.abs(y.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.allclose(y[:, :3], np.exp(gaps[:3].astype(np.float64)), rtol=1e-5, atol=0)
        assert np.all(y[:, 3:] == y[:, 3:4])
        assert tiny <= y[0, 3] <= 1.0001 * tiny

    @pytest.mark.parametrize("key, clamps", [(43.0, False), (44.0, True)])
    def test_clamp_runs_only_where_the_norms_let_a_row_reach_it(self, monkeypatch, key,
                                                                clamps):
        # a row's logits spread by at most 2 max|q| max|k| / tau, here 2 * key
        # exactly; only past 87.3 can a float32 entry reach the clamp
        seen = []
        rows = T._softmax_rows
        monkeypatch.setattr(T, "_softmax_rows",
                            lambda y, axis, out=None, clamp=True:
                            seen.append(clamp) or rows(y, axis, out, clamp))
        keys = np.array([key, -key], np.float32).reshape(1, 1, 2, 1)
        y = attend_rows(np.ones((1, 1, 2, 1), np.float32), keys, 1.0)
        assert seen == [clamps]
        low = max(np.exp(-2 * key), float(np.finfo(np.float32).tiny))
        assert np.allclose(y[0, 0, :, 1], low, rtol=1e-5, atol=0)

    def test_empty_key_set_raises_shape_error(self):
        with pytest.raises(ShapeError):
            T.attend(T.zeros((1, 2, 3, 1)), T.zeros((1, 2, 0, 1)), T.zeros((1, 2, 0, 1)), 1.0)

    @pytest.mark.parametrize("n", [1, 4])
    def test_other_tau_within_a_few_ulp(self, n):
        # q / 3 rounds once per element, so the rows differ in the last bits
        rng = np.random.default_rng(32)
        q = rng.standard_normal((n, 4, 32, 1))
        k = rng.standard_normal((n, 4, 48, 1))
        y = attend_rows(q, k, 3.0)
        ref = softmax_rows_reference(q, k, 3.0)
        assert np.max(np.abs(y - ref) / np.spacing(ref)) <= 32

    def test_rows_sum_to_one_and_stay_positive_far_below_the_max(self):
        keys = np.zeros((1, 1, 6, 1))
        keys[0, 0, 2, 0] = -1e4  # exp underflows to 0 before the floor
        y = attend_rows(np.ones((1, 1, 3, 1)), keys, 1.0)
        assert np.all(y > 0.0)
        assert np.allclose(y.sum(axis=3), 1.0, rtol=0, atol=1e-15)
        assert np.all(y[:, :, :, 2] < 1e-300)

    @pytest.mark.parametrize("q_shape, k_shape, v_shape", [
        ((1, 3, 4, 1), (1, 2, 5, 1), (1, 2, 5, 1)),
        ((1, 3, 4, 1), (2, 3, 5, 1), (2, 2, 5, 1)),
        ((1, 3, 4, 2), (1, 3, 5, 1), (1, 2, 5, 1)),
        ((1, 3, 4, 1), (1, 3, 5, 1), (2, 2, 5, 1)),
        ((1, 3, 4, 1), (1, 3, 5, 1), (1, 2, 4, 1)),
        ((1, 3, 4, 1), (1, 3, 5, 1), (1, 2, 5, 2)),
    ], ids=["channels", "batch", "not_columns", "values_batch", "values_pixels",
            "values_not_columns"])
    def test_mismatched_operands_raise_shape_error(self, q_shape, k_shape, v_shape):
        with pytest.raises(ShapeError):
            T.attend(T.zeros(q_shape), T.zeros(k_shape), T.zeros(v_shape), 1.0)

    def test_nonpositive_tau_rejected(self):
        for tau in (0.0, math.nan):
            with pytest.raises(ParameterError):
                T.attend(T.zeros((1, 1, 2, 1)), T.zeros((1, 1, 3, 1)), T.zeros((1, 1, 3, 1)), tau)

    @pytest.mark.parametrize("tau", ["4", True, None, 1j], ids=["str", "bool", "none", "complex"])
    def test_non_real_tau_rejected(self, tau):
        with pytest.raises(ParameterError, match="real"):
            T.attend(T.zeros((1, 1, 2, 1)), T.zeros((1, 1, 3, 1)), T.zeros((1, 1, 3, 1)), tau)

    def test_infinite_tau_gives_uniform_rows(self):
        rng = np.random.default_rng(38)
        q, k = (rng.standard_normal((1, 3, m, 1)) for m in (4, 5))
        assert np.all(attend_rows(q, k, math.inf) == 0.2)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["global_max", "max_over_c"])
    def test_max_pools_equal_the_argmax_gather(self, kind, dtype):
        # non-negative, as the model's max pools see them (relu outputs and
        # positively gated ones), with ties and an all-zero column
        rng = np.random.default_rng(34)
        x = rng.integers(0, 4, (2, 5, 3, 4)).astype(dtype)
        x[0, :, 0, 0] = 0.0
        x[1] += rng.random((5, 3, 4)).astype(dtype)
        axes = T._POOLS[kind][1]
        expect, idx = argmax_pool(x, axes)
        assert_bitwise(T.pool(kind, T.Tensor4(x)).data, expect)

        # the gradient goes to the first maximum on ties
        xt = T.Tensor4(x, requires_grad=True)
        T.sum_all(T.pool(kind, xt)).backward()
        lo = axes[0]
        grad = np.zeros(x.shape).reshape(idx.shape[:lo] + (-1,) + idx.shape[lo + 1:])
        np.put_along_axis(grad, idx, 1.0, axis=lo)
        assert np.array_equal(xt.grad, grad.reshape(x.shape))

    @pytest.mark.parametrize("kind", ["global_max", "max_over_c"])
    def test_max_pools_propagate_nan(self, kind):
        x = np.ones((2, 3, 2, 2))
        x[0, 1, 1, 0] = np.nan
        y = T.pool(kind, T.Tensor4(x)).data
        expect, _ = argmax_pool(x, T._POOLS[kind][1])
        assert np.isnan(y).sum() == 1
        assert_bitwise(y, expect)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 32, 16, 16), (2, 5, 7, 9)])
    @pytest.mark.parametrize("kind", ["global_avg", "avg_over_w", "avg_over_h", "mean_over_c"])
    def test_mean_pools_are_bitwise_np_mean(self, kind, shape, dtype):
        x = (np.random.default_rng(35).standard_normal(shape) * 3).astype(dtype)
        y = T.pool(kind, T.Tensor4(x)).data
        assert_bitwise(y, x.mean(axis=T._POOLS[kind][1], keepdims=True))

    @pytest.mark.parametrize("kind", list(T._POOLS))
    def test_gradient_keeps_the_dtype_it_receives(self, kind):
        # a float32 conv after the pool hands back a float32 gradient, and
        # the pool's input gradient stays float32, as CBAM's pools need it
        rng = np.random.default_rng(36)
        x = T.Tensor4(rng.standard_normal((2, 3, 4, 4)).astype(np.float32), requires_grad=True)
        pooled = T.pool(kind, x)
        w = rand4(rng, (2, pooled.shape[1], 1, 1))
        T.sum_all(T.conv2d(pooled, w, zero_bias(w))).backward()
        assert x.grad.dtype == np.float32

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
        x = T.zeros((1, 4, 3, 3))
        with pytest.raises(ShapeError):
            T.concat([], 1)
        with pytest.raises(ShapeError):
            T.concat([x, x], 5)
        for axis in (4, -1):
            with pytest.raises(ShapeError):
                T.narrow(x, axis, 0, 1)
        with pytest.raises(ShapeError):
            T.reshape(x, (-1, -4, 3, 3))  # the sizes multiply out to x's
        with pytest.raises(ShapeError):
            T.reshape(x, (1, 4, 9))
        # a size or a bound must be an integer: 4.9 is not truncated to 4
        for size in (4.9, 4.0, True, "4"):
            with pytest.raises(ShapeError, match=repr(size)):
                T.reshape(T.zeros((1, 4, 1, 1)), (1, size, 1, 1))
        for lo, hi in ((0.5, 2), (0, 2.0), (False, 2), (0, None)):
            with pytest.raises(ShapeError, match="narrow bounds"):
                T.narrow(x, 1, lo, hi)
        for axis in (1.0, True):
            with pytest.raises(ShapeError, match="narrow axis"):
                T.narrow(x, axis, 0, 1)
            with pytest.raises(ShapeError, match="concat axis"):
                T.concat([x, x], axis)
        assert T.reshape(x, (np.int64(1), 4, 9, 1)).shape == (1, 4, 9, 1)
        assert T.narrow(x, 1, np.int64(1), 3).shape == (1, 2, 3, 3)

    def test_minimum_tie_break(self):
        a = T.Tensor4(np.full((1, 1, 1, 2), 1.0), requires_grad=True)
        b = T.Tensor4(np.array([1.0, 2.0]).reshape(1, 1, 1, 2), requires_grad=True)
        T.sum_all(T.minimum(a, b)).backward()
        assert np.array_equal(a.grad.ravel(), [1.0, 1.0])
        assert np.array_equal(b.grad.ravel(), [0.0, 0.0])


class TestWeightedSum:
    """``weighted_sum`` against its oracle, ``narrow``, ``mul_broadcast`` and
    ``add`` one term at a time: the forward and the terms' gradients bit for
    bit, the weights' gradient within GRAD_TOL of its max (its sums run in
    another order; measured at most 2.6e-16 in float64 and 1.4e-7 in float32)."""

    GRAD_TOL = {np.float64: 1e-14, np.float32: 1e-6}

    @staticmethod
    def blend_setup(dtype, k=4, shape=(2, 8, 5, 7)):
        rng = np.random.default_rng(40)
        params = T.ParamSet()
        terms = [params.add(f"t{i}", rand4(rng, shape, dtype)) for i in range(k)]
        logits = rng.standard_normal((shape[0], k, 1, 1))
        weights = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        params.add("w", T.Tensor4(weights))
        return params, terms, rng.random(shape)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    def test_matches_the_composed_blend(self, dtype):
        params, terms, targets = self.blend_setup(dtype)
        runs = []
        for blend in (T.weighted_sum, composed_blend):
            out = blend(terms, params["w"])
            runs.append((out.data, T.backprop(T.bce_with_logits(out, targets), params)))
        (out, grads), (want_out, want_grads) = runs
        assert out.dtype == dtype and out.tobytes() == want_out.tobytes()
        for name, want in want_grads.items():
            got = grads[name]
            assert got.dtype == want.dtype and got.flags.c_contiguous, name
            if name == "w":
                assert np.abs(got - want).max() <= self.GRAD_TOL[dtype] * np.abs(want).max()
            else:
                assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_counts_the_oracles_flops(self, k):
        params, terms, _ = self.blend_setup(np.float64, k)
        counts = []
        for blend in (T.weighted_sum, composed_blend):
            with T.count_flops() as total:
                blend(terms, params["w"])
            counts.append(total[0])
        assert counts[0] == counts[1] == (2 * k - 1) * terms[0].size

    def test_constant_weights_take_no_gradient(self):
        rng = np.random.default_rng(41)
        x = T.Tensor4(rng.standard_normal((1, 2, 3, 3)), requires_grad=True)
        out = T.weighted_sum([x, x], T.full((1, 2, 1, 1), 0.5))
        T.sum_all(out).backward()
        assert np.array_equal(x.grad, np.ones(x.shape))

    def test_bad_shapes(self):
        x = T.zeros((2, 3, 4, 4))
        with pytest.raises(ShapeError):
            T.weighted_sum([], T.zeros((2, 0, 1, 1)))
        with pytest.raises(ShapeError):
            T.weighted_sum([x, T.zeros((2, 3, 4, 5))], T.zeros((2, 2, 1, 1)))
        for shape in ((2, 3, 1, 1), (1, 2, 1, 1), (2, 2, 4, 4)):
            with pytest.raises(ShapeError):
                T.weighted_sum([x, x], T.zeros(shape))


class TestBceWithLogits:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_keeps_the_logits_dtype(self, dtype):
        # float64 targets and mask do not widen a float32 gradient
        rng = np.random.default_rng(36)
        z = T.Tensor4(rng.standard_normal((2, 1, 4, 4)).astype(dtype), requires_grad=True)
        targets = (rng.random(z.shape) > 0.5).astype(float)
        mask = (rng.random(z.shape) > 0.25).astype(float)
        T.bce_with_logits(z, targets, mask, normalizer=3.0).backward()
        expect = mask * (1.0 / (1.0 + np.exp(-z.data.astype(float))) - targets) / 3.0
        assert z.grad.dtype == dtype
        assert np.max(np.abs(z.grad - expect)) <= 4 * np.finfo(dtype).eps

    @pytest.mark.parametrize("normalizer", [0, -2.0, math.nan, math.inf])
    def test_normalizer_must_be_finite_and_positive(self, normalizer):
        z = T.zeros((1, 1, 2, 2))
        with pytest.raises(ParameterError, match="normalizer"):
            T.bce_with_logits(z, np.ones(z.shape), normalizer=normalizer)


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

    @pytest.mark.parametrize("part", [lambda y: y, lambda y: T.narrow(y, 1, 0, 1)],
                             ids=["whole", "narrow"])
    def test_repeated_backprop_on_one_graph_gives_the_same_bytes(self, part):
        # the first sweep's gradients of the op results must not add into the
        # second's: dw read 6, then 24
        params = T.ParamSet()
        w = params.add("w", T.Tensor4(np.full((1, 2, 1, 1), 2.0)))
        y = part(T.mul_broadcast(T.Tensor4(np.full((1, 2, 1, 1), 3.0)), w))
        loss = T.sum_all(T.scale(T.add(y, y), 1.0))
        first = T.backprop(loss, params)["w"].copy()
        assert first[0, 0, 0, 0] == 6.0
        assert T.backprop(loss, params)["w"].tobytes() == first.tobytes()

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
        read, _ = T.attend(cols, cols, cols, 2.5)
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

    @pytest.mark.parametrize("eps", [0.0, -1e-5, math.nan])
    def test_nonpositive_eps_rejected(self, eps):
        params = T.ParamSet()
        params.add("w", T.Tensor4(np.ones((1, 2, 1, 1))))
        with pytest.raises(ParameterError):
            T.grad_check(lambda ps: scalar(3.0), params, eps=eps)

    def test_float32_gradient_rejected(self):
        # a float32 input makes conv2d's weight gradient float32, whose
        # rounding would swamp a central difference at eps=1e-5
        rng = np.random.default_rng(18)
        params = T.ParamSet()
        as_param(rng, params, "w", (2, 3, 3, 3))
        x = T.Tensor4(rng.standard_normal((1, 3, 4, 4)).astype(np.float32))

        def loss(ps):
            return T.sum_all(T.conv2d(x, ps["w"], zero_bias(ps["w"]), pad=1))

        with pytest.raises(ParameterError, match="'w' is float32"):
            T.grad_check(loss, params)

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

        # a single output channel, strided
        params = T.ParamSet()
        as_param(rng, params, "x", (2, 2, 5, 5))
        as_param(rng, params, "w", (1, 2, 3, 3))
        params.add("b", T.Tensor4(rng.standard_normal((1, 1, 1, 1))), decay=False)

        def conv_one_loss(ps):
            y = T.conv2d(ps["x"], ps["w"], ps["b"], stride=2, pad=1)
            return T.sum_all(T.mul_broadcast(y, y))

        assert T.grad_check(conv_one_loss, params, eps=1e-5) < 1e-4

        # a batch, a tau whose 1/tau is inexact, and more keys than queries
        params = T.ParamSet()
        as_param(rng, params, "q", (2, 3, 4, 1))
        as_param(rng, params, "k", (2, 3, 5, 1))
        as_param(rng, params, "v", (2, 2, 5, 1))

        def attn_loss(ps):
            read, _ = T.attend(ps["q"], ps["k"], ps["v"], 2.5)
            return T.sum_all(T.mul_broadcast(read, read))

        assert T.grad_check(attn_loss, params, eps=1e-5) < 1e-4

        # a batch through a 1x1 conv, input gradient included
        params = T.ParamSet()
        as_param(rng, params, "x", (2, 3, 3, 5))
        as_param(rng, params, "w", (4, 3, 1, 1))
        params.add("b", T.Tensor4(rng.standard_normal((1, 4, 1, 1))), decay=False)

        def conv_1x1_loss(ps):
            y = T.conv2d(ps["x"], ps["w"], ps["b"])
            return T.sum_all(T.mul_broadcast(y, y))

        assert T.grad_check(conv_1x1_loss, params, eps=1e-5) < 1e-4

    def test_attention_through_row_blocks(self, monkeypatch):
        # blocks of 2 query rows: 7 rows run as blocks of 2, 2 and 3, the
        # last taking the leftover row
        monkeypatch.setattr(T, "_ATTEND_BLOCK_BYTES", 2 * 8 * 2 * 5)
        rng = np.random.default_rng(18)
        params = T.ParamSet()
        as_param(rng, params, "q", (2, 3, 7, 1))
        as_param(rng, params, "k", (2, 3, 5, 1))
        as_param(rng, params, "v", (2, 2, 5, 1))

        def attn_loss(ps):
            read, _ = T.attend(ps["q"], ps["k"], ps["v"], 2.5)
            return T.sum_all(T.mul_broadcast(read, read))

        assert T.grad_check(attn_loss, params, eps=1e-5) < 1e-4

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
        lambda x, w: T.attend(T.reshape(x, (2, 3, 25, 1)), w["keys"], w["values"], 2.0)[0],
        lambda x, w: T.softmax_tau(x, tau=0.3),
        lambda x, w: T.relu(x),
        lambda x, w: T.pool("global_avg", x),
        lambda x, w: T.pool("max_over_c", x),
    ], ids=["conv_k3", "conv_k3_cout1_strided", "conv_1x1", "attend", "softmax_tau",
            "relu", "mean_pool", "max_pool"])
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
            "values": T.Tensor4(rng.standard_normal((2, 2, 7, 1)), requires_grad=True),
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
        # the head's branch weights are views of its joined first conv, whose
        # gradient the backward hands back in slices
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
        # the query-key product, the softmax over its rows and the read of
        # 2 value channels through them
        (lambda x, w: T.attend(T.reshape(x, (2, 3, 25, 1)), T.reshape(x, (2, 3, 25, 1)),
                               w["values"], 2.0),
         2 * 3 * 2 * 25 * 25 + 2 * 25 * 25 + 2 * 25 * 2 * 2 * 25),
    ], ids=["conv_k3", "conv_strided", "linear", "pool_max", "pool_avg", "softmax",
            "mul_broadcast", "sum_all", "attend"])
    def test_op_counts_follow_conventions(self, op, expect):
        rng = np.random.default_rng(25)
        x = rand4(rng, (2, 3, 5, 5))
        weights = {"k3": rand4(rng, (4, 3, 3, 3)), "k1": rand4(rng, (4, 3, 1, 1)),
                   "b4": rand4(rng, (1, 4, 1, 1)), "c3": rand4(rng, (1, 3, 1, 1)),
                   "values": rand4(rng, (2, 2, 25, 1))}
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
