"""Dense rank-4 tensors with reverse-mode automatic differentiation.

Every value in the tracker flows through :class:`Tensor4`: a ``(n, c, h, w)``
float64 array that optionally records the operations applied to it so that
gradients can be pushed back through the graph.  The op set is deliberately
small, one op per operation, each with one backward rule short enough to
verify against the finite-difference oracle in :func:`grad_check`:

  * ``conv2d`` with bias; a 1x1 kernel runs as one matrix product, which
    serves the fully connected layers of the gate, the attention blocks
    and the readout;
  * ``relu``, ``sigmoid``, ``exp`` and ``softmax_tau`` (softmax with
    temperature over channels);
  * ``pool``: mean or max over the axes its kind names;
  * ``add``, ``sub``, ``scale``, ``mul_broadcast``, ``div_broadcast`` and
    ``minimum``;
  * layout: ``concat`` and ``narrow`` along one axis, and ``reshape``;
  * attention: ``attend`` (the query-key product and its softmax rows in
    one op) and ``apply_attention`` (the weighted read of values);
  * the losses' ``bce_with_logits`` and ``sum_all``.

Design notes:
  * float64 everywhere, so gradients stay checkable.  The hot kernels
    (k x k convolution, softmax, attention) avoid full-size temporaries:
    im2col keeps the output pixels innermost, softmax works in place on one
    array, and ``attend`` writes the query-key product into the array it
    returns and runs the softmax in place on it.  Its temperature scales the
    small query columns instead of the (Q, P) logits, which is exact for a
    power-of-two tau such as the readout's ``sqrt(16)``.
  * im2col is one strided view of the padded input, already in
    ``(n, c, kh, kw, oh, ow)`` order, copied once into the columns.
  * a k x k input gradient takes one of two exact forms.  With stride 1,
    ``cout <= cin`` and ``pad <= k - 1`` it is the convolution of the
    output gradient, padded by ``k - 1 - pad``, with the kernel flipped in
    both spatial axes and its channel axes swapped: one im2col and one GEMM
    (the backbone's conv3, the head's second convs, CBAM's spatial conv).
    Otherwise col2im scatters the GEMM's columns in k*k strided adds.  The
    rule keeps the columns no larger than col2im's: the transposed form
    builds ``cout k k`` rows per input pixel where col2im builds ``cin k k``
    per output pixel, so a strided conv or one with more outputs than inputs
    (the head's joined 32 -> 96 first conv) keeps col2im, and so does a
    non-square kernel.
  * summation order is part of the output: numpy sums a matrix-vector
    product in an order set by the operand layout, so the ``cout == 1``
    k x k convolution keeps the pixel-major layout whose bits
    ``tests/test_golden.py`` pins.  Every other product, forward or
    backward, reads its operands in place, through transposed views where
    needed.
  * all forward ops are deterministic; max pooling breaks ties by the first
    (lowest flat index) occurrence and relu's subgradient at 0 is 0.
  * graphs are built through closures; ``backward`` runs a deterministic
    topological order so repeated calls produce bitwise-identical gradients.
    It adds a node's gradients into one buffer per node that the sweep
    allocates itself, and ``narrow`` hands it only its range, so slices of
    one map share one zeroed buffer; an array an op returned is never
    written, since another node may hold it too.
  * every op reports its own forward FLOPs to :func:`_result`, under the
    conventions in :mod:`gatetrack.flops`; :func:`count_flops` sums them for
    a block, so branch and gate costs are counted, not restated by hand.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, ParameterError, ShapeError

__all__ = [
    "Tensor4",
    "ParamSet",
    "no_grad",
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
    "concat",
    "narrow",
    "reshape",
    "conv2d",
    "attend",
    "apply_attention",
    "bce_with_logits",
    "sum_all",
    "backprop",
    "grad_check",
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
        owned = set()  # ids of the nodes whose .grad this sweep allocated
        for node in reversed(topo):
            if node._backward_fn is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._backward_fn(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                # a returned array may be held by another node too (add hands
                # the same one to both operands), so only an owned one is
                # written in place
                if isinstance(g, _Range):
                    if id(parent) not in owned:
                        parent.grad = (np.zeros(parent.shape) if parent.grad is None
                                       else parent.grad.copy())
                        owned.add(id(parent))
                    parent.grad[g.index] += g.grad
                elif parent.grad is None:
                    parent.grad = g
                elif id(parent) in owned:
                    parent.grad += g
                else:
                    parent.grad = parent.grad + g
                    owned.add(id(parent))

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

def zeros(shape):
    return Tensor4(np.zeros(shape))


def full(shape, value):
    return Tensor4(np.full(shape, float(value)))


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


def _softmax_rows(y, axis):
    """Finish a softmax in place on max-subtracted, scaled logits ``y``.

    After ``exp`` every entry is at most 1, so a row sums to at most its
    length L.  Entries are floored at L times the smallest subnormal: an
    underflowed entry then stays positive after the division by the row
    sum, and no entry above L * 1e-307 moves.
    """
    np.exp(y, out=y)
    y += y.shape[axis] * 5e-324
    y /= y.sum(axis=axis, keepdims=True)


def _softmax_grad(g, y, axis):
    """Gradient with respect to the scaled logits of softmax rows ``y``."""
    ds = g - (g * y).sum(axis=axis, keepdims=True)
    ds *= y
    return ds


def softmax_tau(x, tau):
    """Temperature softmax over channels.

    Computes ``exp(x_i/tau) / sum_j exp(x_j/tau)`` with max-subtraction,
    so the output is shift-invariant, strictly positive and sums to 1.
    Small tau approaches one-hot, large tau approaches uniform.
    """
    if tau <= 0:
        raise ParameterError(f"softmax temperature must be > 0, got {tau}")
    # subtract the max before dividing so that adding a constant to the
    # logits cannot change the result even at the last bit; every later step
    # works in place on this one temporary (x / 1 is exact, so it is skipped)
    y = x.data - x.data.max(axis=1, keepdims=True)
    if tau != 1:
        y /= tau
    _softmax_rows(y, 1)

    def backward(g):
        dx = _softmax_grad(g, y, 1)
        dx /= tau
        return (dx,)

    return _result(y, (x,), backward, y.size)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

# kind -> (reduction, reduced axes); the reduced axes of every kind are adjacent
_POOLS = {
    "global_avg": ("mean", (2, 3)),
    "avg_over_w": ("mean", (3,)),
    "avg_over_h": ("mean", (2,)),
    "mean_over_c": ("mean", (1,)),
    "global_max": ("max", (2, 3)),
    "max_over_c": ("max", (1,)),
}


def pool(kind, x):
    """Reduce the named axes, keeping rank 4 with size-1 reduced dims."""
    if kind not in _POOLS:
        raise ConfigError(f"unknown pool kind {kind!r}")
    reduction, axes = _POOLS[kind]
    shape = x.shape
    count = math.prod(shape[ax] for ax in axes)
    if count == 0:
        raise ShapeError(f"pool {kind!r} over empty axes {axes} of {shape}")

    if reduction == "mean":
        y = x.data.mean(axis=axes, keepdims=True)

        def backward_mean(g):
            return (np.broadcast_to(g / count, shape),)

        return _result(y, (x,), backward_mean, x.size)

    # one axis of ``count`` entries stands for the reduced axes, so one argmax
    # (first occurrence on ties) serves every kind without a copy
    lo, hi = axes[0], axes[-1] + 1
    merged = shape[:lo] + (count,) + shape[hi:]
    flat = x.data.reshape(merged)
    idx = np.expand_dims(flat.argmax(axis=lo), lo)
    kept = shape[:lo] + (1,) * (hi - lo) + shape[hi:]
    y = np.take_along_axis(flat, idx, axis=lo).reshape(kept)

    def backward_max(g):
        dflat = np.zeros(merged)
        np.put_along_axis(dflat, idx, g.reshape(idx.shape), axis=lo)
        return (dflat.reshape(shape),)

    return _result(y, (x,), backward_max, x.size)


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


def _along(axis, lo, hi):
    """Index of the ``lo:hi`` range along ``axis`` of a rank-4 array."""
    index = [slice(None)] * 4
    index[axis] = slice(lo, hi)
    return tuple(index)


def concat(tensors, axis):
    """Join tensors along ``axis``; every other extent must match."""
    tensors = tuple(tensors)
    ref = tensors[0].shape
    for t in tensors:
        if any(t.shape[ax] != ref[ax] for ax in range(4) if ax != axis):
            raise ShapeError(f"concat along axis {axis}: shape {t.shape} incompatible with {ref}")
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def backward(g):
        return tuple(g[_along(axis, lo, hi)] for lo, hi in zip(offsets[:-1], offsets[1:]))

    return _result(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def narrow(x, axis, lo, hi):
    """The ``lo:hi`` range of ``x`` along ``axis``."""
    index = _along(axis, lo, hi)
    if not (0 <= lo < hi <= x.shape[axis]):
        raise ShapeError(f"slice [{lo}:{hi}] along axis {axis} out of range for {x.shape}")

    def backward(g):
        return (_Range(index, g),)

    return _result(x.data[index], (x,), backward)


class _Range:
    """The gradient of one range of a parent, as ``narrow`` returns it: the
    backward sweep adds it into one zeroed buffer per parent."""

    __slots__ = ("index", "grad")

    def __init__(self, index, grad):
        self.index = index
        self.grad = grad


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

def conv2d(x, weight, bias, stride=1, pad=0):
    """2-D cross-correlation plus a per-channel bias.

    ``x``: (n, cin, h, w); ``weight``: (cout, cin, kh, kw); ``bias``:
    (1, cout, 1, 1).  The output size must come out integral:
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
    if bias.shape != (1, cout, 1, 1):
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
        x3 = x.data.reshape(n, cin, h * w)
        y = np.matmul(w2d, x3).reshape(n, cout, h, w)
        y += bias.data

        def backward_1x1(g):
            g3 = g.reshape(n, cout, h * w)
            dx = np.matmul(w2d.T, g3).reshape(n, cin, h, w) if x.requires_grad else None
            dw = np.matmul(g3, x3.transpose(0, 2, 1)).sum(axis=0)[:, :, None, None]
            return (dx, dw, g.sum(axis=(0, 2, 3)).reshape(1, cout, 1, 1))

        return _result(y, (x, weight, bias), backward_1x1, 2 * cin * y.size)

    # im2col with the output pixels innermost: wmat @ cols lands in NCHW
    # order without a transpose, and dw reads a transposed view of the same
    # columns.  A matrix-vector product (cout == 1) sums in an order set by
    # the operand layout, so that forward takes a pixel-major (n, P, K) copy:
    # the order the pinned golden maps hold.
    cols = _im2col(x.data, kh, kw, stride, pad, oh, ow)
    wmat = weight.data.reshape(cout, cin * kh * kw)
    if cout == 1:
        y = np.matmul(_pixel_major(cols), wmat.T).reshape(n, 1, oh, ow)
    else:
        y = np.matmul(wmat, cols).reshape(n, cout, oh, ow)
    y += bias.data
    # the input gradient's form, by the rule in the design notes
    transposed = stride == 1 and kh == kw and pad <= kh - 1 and cout <= cin

    def backward(g):
        gmat = g.reshape(n, cout, oh * ow)
        dw = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(cout, cin, kh, kw)
        dx = None
        if x.requires_grad and transposed:
            wflip = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gcols = _im2col(g, kh, kw, 1, kh - 1 - pad, h, w)
            dx = np.matmul(wflip.reshape(cin, cout * kh * kw), gcols).reshape(n, cin, h, w)
        elif x.requires_grad:
            dcols = np.matmul(wmat.T, gmat).reshape(n, cin, kh, kw, oh, ow)
            dxp = np.zeros((n, cin, h + 2 * pad, w + 2 * pad))
            for ki in range(kh):
                for kj in range(kw):
                    dxp[:, :, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride] += (
                        dcols[:, :, ki, kj]
                    )
            dx = np.ascontiguousarray(dxp[:, :, pad:pad + h, pad:pad + w])
        return (dx, dw, g.sum(axis=(0, 2, 3)).reshape(1, cout, 1, 1))

    return _result(y, (x, weight, bias), backward, 2 * cin * kh * kw * y.size)


def _im2col(data, kh, kw, stride, pad, oh, ow):
    """The ``(n, c kh kw, oh ow)`` im2col columns of ``data`` zero-padded by
    ``pad``: one strided view in ``(n, c, kh, kw, oh, ow)`` order, copied once."""
    n, c, h, w = data.shape
    if pad:
        xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
        xp[:, :, pad:pad + h, pad:pad + w] = data
    else:
        xp = np.ascontiguousarray(data)
    sn, sc, sh, sw = xp.strides
    windows = np.ndarray((n, c, kh, kw, oh, ow), np.float64, xp, 0,
                         (sn, sc, sh, sw, stride * sh, stride * sw))
    return windows.reshape(n, c * kh * kw, oh * ow)


def _pixel_major(cols):
    """A contiguous (n, P, K) copy of channel-major (n, K, P) im2col columns,
    the layout of the ``cout == 1`` forward."""
    return np.ascontiguousarray(cols.transpose(0, 2, 1))


def attend(q, k, tau):
    """Attention rows of query pixels over key pixels, temperature ``tau``.

    ``q``: (n, c, Q, 1) and ``k``: (n, c, P, 1) give (n, 1, Q, P) with row
    ``i`` the softmax over ``j`` of ``sum_c q[c, i] k[c, j] / tau``.  The
    small query columns are scaled by ``1/tau`` and the product lands in the
    returned array, on which the max subtraction, ``exp``, the subnormal
    floor and the row normalisation of :func:`softmax_tau` run in place.
    For a power-of-two ``tau`` (the readout's ``sqrt(16) = 4``) the scaling
    is exact, so the rows are bitwise those of dividing the logits.
    """
    if tau <= 0:
        raise ParameterError(f"softmax temperature must be > 0, got {tau}")
    if q.shape[0] != k.shape[0] or q.shape[1] != k.shape[1]:
        raise ShapeError(f"attend batch/channel mismatch: {q.shape} vs {k.shape}")
    if q.shape[3] != 1 or k.shape[3] != 1:
        raise ShapeError("attend operands must be pixel columns (w == 1)")
    qs = q.data[:, :, :, 0] / tau
    k3 = k.data[:, :, :, 0]
    y = np.matmul(qs.transpose(0, 2, 1), k3)[:, None]
    y -= y.max(axis=3, keepdims=True)
    _softmax_rows(y, 3)

    def backward(g):
        # the logits' 1/tau reaches dk through the scaled query and dq here
        ds3 = _softmax_grad(g, y, 3)[:, 0]
        dq = np.matmul(k3, ds3.transpose(0, 2, 1))
        dq /= tau
        dk = np.matmul(qs, ds3)
        return (dq[:, :, :, None], dk[:, :, :, None])

    return _result(y, (q, k), backward, (2 * q.shape[1] + 1) * y.size)


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
