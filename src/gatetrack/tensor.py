"""Dense rank-4 tensors with reverse-mode automatic differentiation.

Every value in the tracker flows through :class:`Tensor4`: a ``(n, c, h, w)``
float64 array that optionally records the operations applied to it so that
gradients can be pushed back through the graph.  The op set is deliberately
small — convolution, fully connected layers, activations, pooling, softmax
with temperature, broadcasting arithmetic and the two attention contractions —
which keeps every backward rule short enough to verify against the
finite-difference oracle in :func:`grad_check`.

Design notes:
  * float64 everywhere, so gradients stay checkable.  The hot kernels
    (k x k convolution, softmax) avoid full-size temporaries: im2col keeps
    the output pixels innermost and softmax works in place on one array.
  * summation order is part of the output: numpy sums a matrix-vector
    product in an order set by the operand layout, so a kernel picks its
    operand layouts to keep the bits that ``tests/test_golden.py`` pins.
  * all forward ops are deterministic; max pooling breaks ties by the first
    (lowest flat index) occurrence and relu's subgradient at 0 is 0.
  * graphs are built through closures; ``backward`` runs a deterministic
    topological order so repeated calls produce bitwise-identical gradients.
  * every op reports its own forward FLOPs to :func:`_result`, under the
    conventions in :mod:`gatetrack.flops`; :func:`count_flops` sums them for
    a block, so branch and gate costs are counted, not restated by hand.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ParameterError, ShapeError

__all__ = [
    "Tensor4",
    "ParamSet",
    "no_grad",
    "constant",
    "vector",
    "scalar",
    "zeros",
    "full",
    "he_normal",
    "relu",
    "sigmoid",
    "exp",
    "softmax_tau",
    "pool",
    "add",
    "sub",
    "scale",
    "mul_broadcast",
    "div_broadcast",
    "minimum",
    "concat_channel",
    "concat_spatial",
    "slice_channels",
    "slice_rows",
    "transpose_hw",
    "reshape",
    "conv2d",
    "linear",
    "matmul_cc",
    "apply_attention",
    "bce_with_logits",
    "sum_all",
    "backprop",
    "grad_check",
    "save_dt64",
    "load_dt64",
]

_grad_enabled = True
_flops = None  # [total] of the innermost open count_flops() block

# exp() clamps its argument here so finite inputs can never produce Inf
_EXP_CLAMP = 50.0


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / oracles)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextmanager
def count_flops():
    """Count the forward FLOPs of every op run inside the block.

    Yields a one-element list whose entry is the running total.  A nested
    block counts its ops only in its own total.  Left out of ``__all__``,
    which lists the Tensor4 API.
    """
    global _flops
    prev = _flops
    _flops = [0]
    try:
        yield _flops
    finally:
        _flops = prev


class Tensor4:
    """A ``(n, c, h, w)`` float64 array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim != 4:
            raise ShapeError(f"Tensor4 requires rank-4 data, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got {self.shape}")
        return float(self.data.reshape(()))

    def backward(self):
        """Reverse-mode sweep from a scalar output.

        Gradients accumulate into ``.grad`` of every reachable tensor with
        ``requires_grad``.  The traversal order is fixed by the recorded
        parent order, so repeated runs are bitwise identical.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar output, got {self.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones((1, 1, 1, 1))
        for node in reversed(topo):
            if node._backward_fn is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._backward_fn(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g

    def __repr__(self):
        return f"Tensor4(shape={self.shape}, requires_grad={self.requires_grad})"


def _result(data, parents, backward_fn, flops=0):
    """Wrap an op result, recording the graph edge only when needed and
    adding the op's forward ``flops`` to an open :func:`count_flops` total."""
    if _flops is not None:
        _flops[0] += flops
    needs = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor4(data, requires_grad=needs)
    if needs:
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def constant(values):
    """A non-tracked tensor from any rank-4 array-like."""
    return Tensor4(values, requires_grad=False)


def vector(values, requires_grad=False):
    """Lay a 1-D sequence out along the channel axis: shape (1, k, 1, 1)."""
    arr = np.asarray(values, dtype=np.float64).reshape(1, -1, 1, 1)
    return Tensor4(arr, requires_grad=requires_grad)


def scalar(value, requires_grad=False):
    return Tensor4(np.full((1, 1, 1, 1), float(value)), requires_grad=requires_grad)


def zeros(shape, requires_grad=False):
    return Tensor4(np.zeros(shape), requires_grad=requires_grad)


def full(shape, value, requires_grad=False):
    return Tensor4(np.full(shape, float(value)), requires_grad=requires_grad)


def he_normal(rng, shape):
    """He-normal weights for a (cout, cin, kh, kw) kernel: N(0, 2 / (cin kh kw))."""
    fan_in = shape[1] * shape[2] * shape[3]
    return Tensor4(rng.standard_normal(shape) * (2.0 / fan_in) ** 0.5)


class ParamSet:
    """Named, insertion-ordered collection of parameter tensors.

    ``decay`` marks parameters subject to weight decay; biases are added
    with ``decay=False`` so the optimizer can skip them.
    """

    def __init__(self):
        self._params = {}
        self._decay = {}

    def add(self, name, tensor, decay=True):
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        if not isinstance(tensor, Tensor4):
            raise ShapeError(f"parameter {name!r} must be a Tensor4")
        tensor.requires_grad = True
        self._params[name] = tensor
        self._decay[name] = bool(decay)
        return tensor

    def __getitem__(self, name):
        return self._params[name]

    def __len__(self):
        return len(self._params)

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def values(self):
        return self._params.values()

    def decays(self, name):
        return self._decay[name]

    def zero_grad(self):
        for p in self._params.values():
            p.grad = None


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(x):
    y = np.maximum(x.data, 0.0)

    def backward(g):
        return (np.where(x.data > 0.0, g, 0.0),)

    return _result(y, (x,), backward, y.size)


def sigmoid_array(z):
    """Overflow-free logistic function of a plain array.

    The array-level form behind :func:`sigmoid` and :func:`bce_with_logits`,
    for callers that decode outputs outside the graph.  It is left out of
    ``__all__``, which lists the Tensor4 API.
    """
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(x):
    y = sigmoid_array(x.data)

    def backward(g):
        return (g * y * (1.0 - y),)

    return _result(y, (x,), backward, y.size)


def exp(x):
    """Elementwise exp, argument clamped to ±50 to keep outputs finite."""
    clamped = np.clip(x.data, -_EXP_CLAMP, _EXP_CLAMP)
    y = np.exp(clamped)
    inside = np.abs(x.data) < _EXP_CLAMP

    def backward(g):
        return (np.where(inside, g * y, 0.0),)

    return _result(y, (x,), backward, y.size)


def softmax_tau(x, tau, axis=1):
    """Temperature softmax along one axis (default: channels).

    Computes ``exp(x_i/tau) / sum_j exp(x_j/tau)`` with max-subtraction,
    so the output is shift-invariant, strictly positive and sums to 1.
    Small tau approaches one-hot, large tau approaches uniform.
    """
    if tau <= 0:
        raise ParameterError(f"softmax temperature must be > 0, got {tau}")
    # subtract the max before dividing so that adding a constant to the
    # logits cannot change the result even at the last bit; every later step
    # works in place on this one temporary (x / 1 is exact, so it is skipped)
    y = x.data - x.data.max(axis=axis, keepdims=True)
    if tau != 1:
        y /= tau
    np.exp(y, out=y)
    # floor underflowed entries at the smallest subnormal: keeps the output
    # strictly positive without perturbing any representable ratio
    y += 5e-324
    y /= y.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return ((g - inner) * y / tau,)

    return _result(y, (x,), backward, y.size)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

_MEAN_POOL_AXES = {
    "global_avg": (2, 3),
    "avg_over_w": (3,),
    "avg_over_h": (2,),
    "mean_over_c": (1,),
}
_MAX_POOL_AXES = {
    "global_max": (2, 3),
    "max_over_c": (1,),
}


def pool(kind, x):
    """Reduce the named axes, keeping rank 4 with size-1 reduced dims."""
    if kind in _MEAN_POOL_AXES:
        axes = _MEAN_POOL_AXES[kind]
        for ax in axes:
            if x.shape[ax] == 0:
                raise ShapeError(f"pool {kind!r} over empty axis {ax}")
        count = 1
        for ax in axes:
            count *= x.shape[ax]
        y = x.data.mean(axis=axes, keepdims=True)
        shape = x.shape

        def backward_mean(g):
            return (np.broadcast_to(g / count, shape),)

        return _result(y, (x,), backward_mean, x.size)

    if kind == "global_max":
        n, c, h, w = x.shape
        if h * w == 0:
            raise ShapeError("pool 'global_max' over empty spatial axes")
        flat = x.data.reshape(n, c, h * w)
        idx = flat.argmax(axis=2)  # first occurrence on ties
        y = np.take_along_axis(flat, idx[:, :, None], axis=2).reshape(n, c, 1, 1)

        def backward_gmax(g):
            dflat = np.zeros((n, c, h * w))
            np.put_along_axis(dflat, idx[:, :, None], g.reshape(n, c, 1), axis=2)
            return (dflat.reshape(n, c, h, w),)

        return _result(y, (x,), backward_gmax, x.size)

    if kind == "max_over_c":
        if x.shape[1] == 0:
            raise ShapeError("pool 'max_over_c' over empty channel axis")
        idx = x.data.argmax(axis=1)  # (n, h, w), first occurrence on ties
        y = np.take_along_axis(x.data, idx[:, None], axis=1)
        shape = x.shape

        def backward_cmax(g):
            dx = np.zeros(shape)
            np.put_along_axis(dx, idx[:, None], g, axis=1)
            return (dx,)

        return _result(y, (x,), backward_cmax, x.size)

    raise ConfigError(f"unknown pool kind {kind!r}")


# ---------------------------------------------------------------------------
# arithmetic and structural ops
# ---------------------------------------------------------------------------

def add(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")

    def backward(g):
        return (g, g)

    return _result(a.data + b.data, (a, b), backward, a.size)


def sub(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"sub shapes differ: {a.shape} vs {b.shape}")

    def backward(g):
        return (g, -g)

    return _result(a.data - b.data, (a, b), backward, a.size)


def scale(x, factor):
    """Multiply by a plain Python float."""
    factor = float(factor)

    def backward(g):
        return (g * factor,)

    return _result(x.data * factor, (x,), backward, x.size)


def _check_broadcast(a_shape, b_shape):
    for ax in range(4):
        if b_shape[ax] != a_shape[ax] and b_shape[ax] != 1:
            raise ShapeError(
                f"operand shape {b_shape} does not broadcast onto {a_shape}"
            )


def _reduce_to(b_shape, full_grad):
    axes = tuple(ax for ax in range(4) if b_shape[ax] == 1 and full_grad.shape[ax] != 1)
    if axes:
        return full_grad.sum(axis=axes, keepdims=True)
    return full_grad


def mul_broadcast(a, b):
    """Elementwise product; size-1 axes of ``b`` broadcast over ``a``."""
    _check_broadcast(a.shape, b.shape)
    b_shape = b.shape

    def backward(g):
        return (g * b.data, _reduce_to(b_shape, g * a.data))

    return _result(a.data * b.data, (a, b), backward, a.size)


def div_broadcast(a, b):
    """Elementwise quotient; size-1 axes of ``b`` broadcast over ``a``."""
    _check_broadcast(a.shape, b.shape)
    b_shape = b.shape
    y = a.data / b.data

    def backward(g):
        return (g / b.data, _reduce_to(b_shape, -g * y / b.data))

    return _result(y, (a, b), backward, y.size)


def minimum(a, b):
    """Elementwise min; ties route the gradient to the first operand."""
    if a.shape != b.shape:
        raise ShapeError(f"minimum shapes differ: {a.shape} vs {b.shape}")
    take_a = a.data <= b.data

    def backward(g):
        return (np.where(take_a, g, 0.0), np.where(take_a, 0.0, g))

    return _result(np.where(take_a, a.data, b.data), (a, b), backward, a.size)


def _concat(tensors, axis):
    sizes = [t.shape[axis] for t in tensors]
    ref = tensors[0].shape
    for t in tensors:
        for ax in range(4):
            if ax != axis and t.shape[ax] != ref[ax]:
                raise ShapeError(
                    f"concat along axis {axis}: shape {t.shape} incompatible with {ref}"
                )
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        slicer = [slice(None)] * 4
        grads = []
        for i in range(len(tensors)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return _result(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def concat_channel(a, b):
    return _concat((a, b), axis=1)


def concat_spatial(*tensors):
    """Stack tensors along the h axis (pixel columns of several maps)."""
    return _concat(tensors, axis=2)


def slice_channels(x, lo, hi):
    if not (0 <= lo < hi <= x.shape[1]):
        raise ShapeError(f"channel slice [{lo}:{hi}] out of range for {x.shape}")
    shape = x.shape

    def backward(g):
        dx = np.zeros(shape)
        dx[:, lo:hi] = g
        return (dx,)

    return _result(x.data[:, lo:hi], (x,), backward)


def slice_rows(x, lo, hi):
    """Slice along the h axis (used to split concatenated spatial paths)."""
    if not (0 <= lo < hi <= x.shape[2]):
        raise ShapeError(f"row slice [{lo}:{hi}] out of range for {x.shape}")
    shape = x.shape

    def backward(g):
        dx = np.zeros(shape)
        dx[:, :, lo:hi] = g
        return (dx,)

    return _result(x.data[:, :, lo:hi], (x,), backward)


def transpose_hw(x):
    def backward(g):
        return (g.transpose(0, 1, 3, 2),)

    return _result(x.data.transpose(0, 1, 3, 2), (x,), backward)


def reshape(x, shape):
    shape = tuple(int(s) for s in shape)
    if len(shape) != 4:
        raise ShapeError(f"reshape target must be rank 4, got {shape}")
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} into {shape}")
    old = x.shape

    def backward(g):
        return (g.reshape(old),)

    return _result(x.data.reshape(shape), (x,), backward)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def conv2d(x, weight, bias=None, stride=1, pad=0):
    """2-D cross-correlation with optional bias.

    ``x``: (n, cin, h, w); ``weight``: (cout, cin, kh, kw); ``bias``:
    (1, cout, 1, 1) or None.  The output size must come out integral:
    ``(h + 2 pad - kh) / stride + 1``; anything else is a config error.
    """
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d input has {cin} channels, weight expects {cin_w}")
    if stride < 1:
        raise ConfigError(f"conv2d stride must be >= 1, got {stride}")
    if pad < 0:
        raise ConfigError(f"conv2d pad must be >= 0, got {pad}")
    if bias is not None and bias.shape != (1, cout, 1, 1):
        raise ShapeError(f"conv2d bias shape {bias.shape} != (1, {cout}, 1, 1)")
    span_h = h + 2 * pad - kh
    span_w = w + 2 * pad - kw
    if span_h < 0 or span_w < 0 or span_h % stride or span_w % stride:
        raise ConfigError(
            f"conv2d output size not integral for input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {stride}, pad {pad}"
        )
    oh = span_h // stride + 1
    ow = span_w // stride + 1

    if kh == 1 and kw == 1 and stride == 1 and pad == 0:
        w2d = weight.data[:, :, 0, 0]
        y = np.tensordot(x.data, w2d, axes=([1], [1])).transpose(0, 3, 1, 2)
        if bias is not None:
            y = y + bias.data

        def backward_1x1(g):
            dx = np.tensordot(g, w2d, axes=([1], [0])).transpose(0, 3, 1, 2)
            dw = np.tensordot(g, x.data, axes=([0, 2, 3], [0, 2, 3]))[:, :, None, None]
            db = None
            if bias is not None:
                db = g.sum(axis=(0, 2, 3)).reshape(1, cout, 1, 1)
            return (dx, dw, db)

        parents = (x, weight) if bias is None else (x, weight, bias)
        return _result(y, parents, backward_1x1, 2 * cin * y.size)

    if pad:
        xp = np.zeros((n, cin, h + 2 * pad, w + 2 * pad))
        xp[:, :, pad:pad + h, pad:pad + w] = x.data
    else:
        xp = x.data
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    # im2col with the output pixels innermost: the copy runs along contiguous
    # rows and wmat @ cols lands in NCHW order without a transpose.  A
    # matrix-vector product (cout == 1) and dw sum in an order set by the
    # operand layout, so both take a pixel-major (n, P, K) copy: that order
    # is the one the pinned golden maps and gradients hold.
    cols = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3)).reshape(
        n, cin * kh * kw, oh * ow
    )
    wmat = weight.data.reshape(cout, cin * kh * kw)
    if cout == 1:
        y = np.matmul(_pixel_major(cols), wmat.T).reshape(n, 1, oh, ow)
    else:
        y = np.matmul(wmat, cols).reshape(n, cout, oh, ow)
    if bias is not None:
        y += bias.data

    def backward(g):
        gmat = g.reshape(n, cout, oh * ow)
        dw = np.matmul(gmat, _pixel_major(cols)).sum(axis=0).reshape(cout, cin, kh, kw)
        dcols = np.matmul(wmat.T, gmat).reshape(n, cin, kh, kw, oh, ow)
        dxp = np.zeros((n, cin, h + 2 * pad, w + 2 * pad))
        for ki in range(kh):
            for kj in range(kw):
                dxp[:, :, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride] += (
                    dcols[:, :, ki, kj]
                )
        dx = np.ascontiguousarray(dxp[:, :, pad:pad + h, pad:pad + w])
        db = None
        if bias is not None:
            db = g.sum(axis=(0, 2, 3)).reshape(1, cout, 1, 1)
        return (dx, dw, db)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(y, parents, backward, 2 * cin * kh * kw * y.size)


def _pixel_major(cols):
    """A contiguous (n, P, K) copy of channel-major (n, K, P) im2col columns."""
    return np.ascontiguousarray(cols.transpose(0, 2, 1))


def linear(x, weight, bias=None):
    """Fully connected layer along channels: y = W x + b per position.

    ``weight`` is stored as (out, in, 1, 1); with a (1, in, 1, 1) input this
    is a plain matrix-vector product.
    """
    if weight.shape[2] != 1 or weight.shape[3] != 1:
        raise ShapeError(f"linear weight must be (out, in, 1, 1), got {weight.shape}")
    return conv2d(x, weight, bias, stride=1, pad=0)


def matmul_cc(a, b):
    """Contract two pixel-column tensors over channels.

    ``a``: (n, c, A, 1) and ``b``: (n, c, B, 1) give (n, 1, A, B) with
    ``out[q, p] = sum_c a[c, q] * b[c, p]`` — the similarity matrix between
    two sets of projected pixels.
    """
    if a.shape[0] != b.shape[0] or a.shape[1] != b.shape[1]:
        raise ShapeError(f"matmul_cc batch/channel mismatch: {a.shape} vs {b.shape}")
    if a.shape[3] != 1 or b.shape[3] != 1:
        raise ShapeError("matmul_cc operands must be pixel columns (w == 1)")
    a3 = a.data[:, :, :, 0]
    b3 = b.data[:, :, :, 0]
    y = np.matmul(a3.transpose(0, 2, 1), b3)[:, None]

    def backward(g):
        g3 = g[:, 0]
        da = np.matmul(b3, g3.transpose(0, 2, 1))[:, :, :, None]
        db = np.matmul(a3, g3)[:, :, :, None]
        return (da, db)

    return _result(y, (a, b), backward, 2 * a.shape[1] * y.size)


def apply_attention(values, attn):
    """Weighted read of value pixels: (n, cv, P, 1) x (n, 1, Q, P) -> (n, cv, Q, 1)."""
    n, cv, p, one = values.shape
    if one != 1 or attn.shape[1] != 1 or attn.shape[3] != p or attn.shape[0] != n:
        raise ShapeError(f"apply_attention shapes incompatible: {values.shape} vs {attn.shape}")
    v3 = values.data[:, :, :, 0]
    a3 = attn.data[:, 0]
    y = np.matmul(v3, a3.transpose(0, 2, 1))[:, :, :, None]

    def backward(g):
        g3 = g[:, :, :, 0]
        dv = np.matmul(g3, a3)[:, :, :, None]
        da = np.matmul(g3.transpose(0, 2, 1), v3)[:, None]
        return (dv, da)

    return _result(y, (values, attn), backward, 2 * p * y.size)


def bce_with_logits(logits, targets, mask=None, normalizer=None):
    """Scalar binary cross-entropy from logits.

    ``targets`` and ``mask`` are plain arrays (no gradient).  The per-element
    stable form max(z,0) - z*y + log1p(exp(-|z|)) is summed over ``mask`` and
    divided by ``normalizer`` (defaults to the number of counted elements).
    """
    z = logits.data
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != z.shape:
        raise ShapeError(f"bce targets shape {y.shape} != logits shape {z.shape}")
    if mask is None:
        m = np.ones_like(z)
    else:
        m = np.asarray(mask, dtype=np.float64)
        if m.shape != z.shape:
            raise ShapeError(f"bce mask shape {m.shape} != logits shape {z.shape}")
    if normalizer is None:
        normalizer = max(1.0, float(m.sum()))
    normalizer = float(normalizer)
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    total = float((per * m).sum()) / normalizer
    sig = sigmoid_array(z)

    def backward(g):
        return (g.reshape(()) * m * (sig - y) / normalizer,)

    return _result(np.full((1, 1, 1, 1), total), (logits,), backward, z.size)


def sum_all(x):
    shape = x.shape

    def backward(g):
        return (np.broadcast_to(g, shape),)

    return _result(np.full((1, 1, 1, 1), x.data.sum()), (x,), backward, x.size)


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

def backprop(output, params):
    """Run backward from a scalar output; return gradients by parameter name."""
    params.zero_grad()
    output.backward()
    grads = {}
    for name, p in params.items():
        grads[name] = np.zeros_like(p.data) if p.grad is None else p.grad
    return grads


def grad_check(fn, params, eps=1e-5):
    """Max relative error between analytic and central-difference gradients.

    ``fn(params)`` must rebuild its graph on every call and return a scalar
    Tensor4.  Every coordinate of every parameter is perturbed by ±eps; the
    relative error is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    if eps <= 0:
        raise ParameterError(f"grad_check eps must be > 0, got {eps}")
    analytic = backprop(fn(params), params)
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        ana = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            with no_grad():
                hi = fn(params).item()
            flat[i] = orig - eps
            with no_grad():
                lo = fn(params).item()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(ana[i] - numeric) / max(1e-8, abs(ana[i]) + abs(numeric))
            if err > worst:
                worst = err
    return worst


# ---------------------------------------------------------------------------
# DT64 binary tensor files
# ---------------------------------------------------------------------------

_DT64_MAGIC = b"DT64"


def save_dt64(tensor, fh):
    """Write one tensor: magic, four little-endian uint32 dims, float64 data."""
    n, c, h, w = tensor.shape
    fh.write(_DT64_MAGIC)
    fh.write(struct.pack("<4I", n, c, h, w))
    fh.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())


def load_dt64(fh):
    magic = fh.read(4)
    if magic != _DT64_MAGIC:
        raise ShapeError(f"bad DT64 magic: {magic!r}")
    header = fh.read(16)
    if len(header) != 16:
        raise ShapeError("truncated DT64 header")
    dims = struct.unpack("<4I", header)
    if 0 in dims:
        raise ShapeError(f"DT64 header has a zero extent: {dims}")
    count = math.prod(dims)
    raw = fh.read(8 * count)
    if len(raw) != 8 * count:
        raise ShapeError("truncated DT64 payload")
    data = np.frombuffer(raw, dtype="<f8").reshape(dims)
    return Tensor4(data)
