"""Dense rank-4 tensors with reverse-mode automatic differentiation.

Every value in the tracker flows through :class:`Tensor4`: a ``(n, c, h, w)``
float32 or float64 array that optionally records the operations applied to
it so that gradients can be pushed back through the graph.  The op set is deliberately
small, one op per operation, each with one backward rule short enough to
verify against the finite-difference oracle in :func:`grad_check`:

  * ``conv2d`` with bias, one matrix product over im2col columns; a 1x1
    kernel's columns are its input's own memory;
  * ``relu``, ``sigmoid``, ``exp`` and ``softmax_tau`` (softmax with
    temperature over channels);
  * ``pool``: mean or max over the axes its kind names;
  * ``add``, ``sub``, ``scale``, ``mul_broadcast``, ``div_broadcast`` and
    ``minimum``;
  * ``weighted_sum``: terms scaled by per-row weights and added in order,
    the gate's soft blend and the static average of branches in one op;
  * layout: ``concat`` and ``narrow`` along one axis, and ``reshape``;
  * attention: ``attend``, the query-key product, its softmax rows and
    the read of values through them in one op;
  * the losses' ``bce_with_logits`` and ``sum_all``.

The model's blocks are ops of their own, each computing on plain arrays,
wrapping its result with :func:`_result` and writing its backward out in
full: the SE, CA and CBAM branches of :mod:`gatetrack.attention`, and the
backbone (``model.TrackModel.extract``), the gate's logits
(``gate.gate_logits``), the memory readout (``memory.readout``) and the head
(``head.head_forward``).  Their convolutions call :func:`_conv`, the kernel
behind ``conv2d``, which checks and casts the weight and bias it is handed,
rectifies its output in place where a relu follows, and returns its
backward; the readout's attention calls :func:`_attend`, the kernel behind
``attend``.  A stage's backward runs these kernels' backwards in reverse on
the arrays the separate ops would have handed them, so its gradients are
theirs bit for bit; it keeps them only when it records a graph.  The head's
four maps are views of its one result (:func:`_view`).

Design notes:
  * one rule sets the precision, whether or not a graph is recorded:
    ``conv2d`` multiplies in its input's dtype, casting weight and bias to
    it, forward and backward, and every other op computes in its operands'
    dtype.  ``model.crop_at`` hands the network float32 crops, so a tracked
    frame or a training batch runs float32 throughout, gradients included
    (single-precision GEMMs run about twice as fast).  A float64 input runs
    float64 all the way through: the exact reference of the tests and of
    :func:`grad_check`.
  * rows that must sum to 1 are normalised in float64: ``attend`` and
    ``softmax_tau`` run their logits and ``exp`` in the operands' dtype but
    widen, sum and normalise their rows in float64, so float32 rows still
    sum to 1 within 1e-12.  ``attend`` reads the values in the operands'
    dtype and scales the read by the same float64 reciprocal row sums, and
    its backward multiplies float32 copies of the rows, so float32 keys give
    a float32 read and float32 gradients.  ``mul_broadcast`` casts its
    broadcast operand to the other's dtype, so float64 gate weights scale a
    float32 branch output in float32.
  * parameters stay float64 as master weights: a ``Tensor4`` keeps float32
    data as float32 and stores any other data as float64, so parameters,
    checkpoints and loaded tensors are float64, while the gradients that a
    float32 ``conv2d`` hands them are float32.  An optimiser's update adds
    them into float64.
  * the hot kernels (convolution, softmax, attention) avoid full-size
    temporaries: im2col keeps the output pixels innermost, softmax runs its
    ``exp`` in place on one temporary, and ``attend`` works through its
    query rows in blocks of about ``_ATTEND_BLOCK_BYTES`` of output, so each
    pass over a block runs from cache.  A block runs in one reused scratch
    block in the operands' dtype, is widened into the rows, where it is
    summed and scaled, and multiplies the values while it is still in
    cache, as FlashAttention reads its tiles (Dao et al., NeurIPS 2022).
    The temperature scales the small query columns instead of the (Q, P)
    logits, which is exact for a power-of-two tau such as the readout's
    ``sqrt(16)``.
  * ``attend`` runs on two cores where it can: when the process may use two
    or more CPUs (``_CPUS``), the caller runs the first ``n // 2 + 1`` of a
    call's n row blocks while one long-lived helper thread runs the rest,
    each in a scratch block of its own, into disjoint rows of the output.
    The blocks are those of one thread, so every bit is too: a read's
    summation order depends on its block's size.  The caller takes the
    extra block because the helper starts late by its wake-up: with an even
    split the caller waited for it on most calls, and on a 2-vCPU VM the
    caller's work after such a wait ran up to 45 % slower.  A call of one
    or two blocks runs serially (halving the ``track`` readout's one block
    measured slower), as does every call with one CPU and every backward.
    The helper's share runs in a copy of the caller's context, so
    ``np.errstate`` reaches it, and its exceptions re-raise in the caller.
  * im2col is one strided view of the padded input, already in
    ``(n, c, kh, kw, oh, ow)`` order, copied once into the columns.  A 1x1,
    stride-1, pad-0 conv's columns are its input reshaped, which copies
    nothing from a contiguous input.
  * an input gradient takes one of two exact forms.  Where the stride
    s divides k, ``pad < k`` and ``cout <= cin s^2``, it is computed by
    stride phase: the s*s phases of the padded input gradient are stride-1
    convolutions of the output gradient with the flipped (k/s) x (k/s)
    sub-kernels, all from one im2col and one GEMM, written into the gradient
    by s*s strided assignments.  At stride 1 that is the convolution with
    the flipped kernel (the backbone's conv3, the head's second convs,
    CBAM's spatial conv, and ``w^T g`` for a 1x1 conv); the backbone's
    conv2 takes 4 phases.  Otherwise col2im scatters the GEMM's columns in
    k*k strided adds.  The rule keeps the columns no larger than col2im's:
    the phase form builds ``cout (k/s)^2`` rows per phase pixel, about one
    per output pixel, where col2im builds ``cin k k``, so a conv with more
    outputs than that (the first conv of the head, 32 -> 96, the three
    branches' joined) keeps col2im,
    and so do a non-square kernel and a stride that does not divide it.
  * a weight gradient is ``cols @ g^T``, (cin k k, cout) per image, then
    transposed and copied contiguous: that orientation of the GEMM ran
    up to a third faster than ``g @ cols^T`` on the model's k x k shapes and
    gives the same bits.  The copy matters, since a digest or
    ``np.linalg.norm`` reads a gradient in memory order.
  * a data-dependent mask multiplies instead of selecting: relu's and
    ``exp``'s backward multiply the gradient by a boolean mask (a relu
    applied in place reads its mask from its output, ``y > 0``, which is
    the input's), and
    ``sigmoid_array`` divides ``max(e, z >= 0)`` by ``1 + e``, so no op
    branches per element on the data (on a (4, 32, 16, 16) map the
    ``np.where`` forms took 1.6 to 10 times as long).
  * a forward computes only what it returns.  What only the backward reads
    is computed in the backward closure: the max pools' argmax, ``exp``'s
    clamp mask, ``bce_with_logits``' sigmoid and ``concat``'s range bounds,
    so a graph-free frame never pays for them.  Shape bookkeeping stays in
    Python ints.
  * all forward ops are deterministic; a max pool's gradient goes to the
    first (lowest flat index) maximum on ties and relu's subgradient at 0 is 0.
  * graphs are built through closures; ``backward`` runs a deterministic
    topological order and clears the op results' gradients of an earlier
    sweep, so repeated calls produce bitwise-identical gradients.  It adds a
    node's gradients into one buffer per node that the sweep allocates
    itself, and ``narrow`` hands it only its range, so slices of one map
    share one zeroed buffer; an array an op returned is never written,
    since another node may hold it too.
  * kernels count their own forward FLOPs, under the conventions in
    :mod:`gatetrack.flops`: ``_conv``, ``_attend`` and the attention
    branches' bottleneck add theirs to the open total (:func:`_count`), and
    each op reports only its own remaining work to :func:`_result`;
    :func:`count_flops` sums them for a block, so branch and gate costs are
    counted, not restated by hand.
"""

from __future__ import annotations

import contextvars
import math
import numbers
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from itertools import accumulate, pairwise

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
    "weighted_sum",
    "concat",
    "narrow",
    "reshape",
    "conv2d",
    "attend",
    "bce_with_logits",
    "sum_all",
    "backprop",
    "grad_check",
]

_grad_enabled = True
_flops = None  # [total] of the innermost open count_flops() block

# exp() clamps its argument here so finite inputs can never produce Inf
_EXP_CLAMP = 50.0

# _softmax_rows() clamps max-subtracted logits here before exp: the log of the
# smallest normal number, rounded toward 0, so exp never returns 0 or a
# subnormal (a float32 exp with subnormal results ran about 12x slower, numpy
# 2.4.6 on an x86-64 Xeon)
_EXP_FLOOR = {dt: np.nextafter(dt(np.log(np.finfo(dt).tiny)), dt(0))
              for dt in (np.float32, np.float64)}

# attend() takes its query rows in blocks of about this many bytes of float64
# output, so a block's passes run from a core's cache rather than memory
_ATTEND_BLOCK_BYTES = 512 * 1024

# CPUs this process may run on, read once: with two or more, attend() hands
# part of a call's row blocks to one helper thread
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
_helper = None  # (pid, executor) of attend()'s helper thread


@contextmanager
def no_grad():
    """Disable graph recording inside the block, for inference."""
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
    """A ``(n, c, h, w)`` float32 or float64 array with optional gradient
    tracking.  Float32 data stays float32; any other data is stored as float64."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False):
        dtype = np.float32 if getattr(data, "dtype", None) == np.float32 else np.float64
        arr = np.ascontiguousarray(data, dtype=dtype)
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

        Gradients accumulate into ``.grad`` of every reachable leaf with
        ``requires_grad``; an op's result gets this sweep's gradient only,
        so a second sweep over the same graph hands the leaves the same
        gradients again.  The traversal order is fixed by the recorded
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
            if node._parents:
                node.grad = None  # the previous sweep's gradient of an op's result
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
                        parent.grad = (np.zeros(parent.shape, parent.data.dtype)
                                       if parent.grad is None else parent.grad.copy())
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
    _count(flops)
    needs = _recording(parents)
    out = Tensor4(data, requires_grad=needs)
    if needs:
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _count(flops):
    """Add ``flops`` to the open :func:`count_flops` total, if there is one:
    each op and kernel counts its own work."""
    if _flops is not None:
        _flops[0] += flops


def _recording(parents):
    """Whether :func:`_result` records a graph edge to ``parents``."""
    return _grad_enabled and any(p.requires_grad for p in parents)


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
        return (g * (x.data > 0.0),)

    return _result(y, (x,), backward, y.size)


def sigmoid_array(z):
    """Overflow-free logistic function of a plain array.

    The array-level form behind :func:`sigmoid` and :func:`bce_with_logits`,
    for callers that decode outputs outside the graph.  It is left out of
    ``__all__``, which lists the Tensor4 API.
    """
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    # the numerator is 1 where z >= 0 and e (at most 1) below: one division
    # and no per-element select
    return np.maximum(e, z >= 0) / d


def sigmoid(x):
    y = sigmoid_array(x.data)

    def backward(g):
        return (g * y * (1.0 - y),)

    return _result(y, (x,), backward, y.size)


def exp(x):
    """Elementwise exp, argument clamped to ±50 to keep outputs finite."""
    y = np.exp(np.clip(x.data, -_EXP_CLAMP, _EXP_CLAMP))

    def backward(g):
        return (g * y * (np.abs(x.data) < _EXP_CLAMP),)

    return _result(y, (x,), backward, y.size)


def _softmax_rows(y, axis, out, clamp=True):
    """Finish a softmax on max-subtracted, scaled logits ``y`` into the
    float64 array ``out``; returns the reciprocal row sums.

    The clamp at ``_EXP_FLOOR`` and ``exp`` run in place on ``y``, so every
    entry lies between the smallest normal number of its dtype (about 1e-38
    in float32, 2e-308 in float64) and 1; only entries that ``exp`` would
    take below that move.  A caller that knows no entry lies below the floor
    passes ``clamp=False`` to skip that pass.  A row then sums to at most
    its length L, so each entry stays positive after the normalisation.  The
    rows are copied into ``out``, summed there and scaled by the reciprocals
    of their sums, which is within 2 ulp of the division, while ``y`` keeps
    the unnormalised ``exp``.
    """
    if clamp:
        np.maximum(y, _EXP_FLOOR[y.dtype.type], out=y)
    np.exp(y, out=y)
    # widen once: mixed-dtype ufuncs cast in small buffers, which made
    # attend's loop at 256 x 2048 about 25 % slower; scaling by the
    # reciprocals takes that loop about 8 % less time than dividing
    out[...] = y
    recip = 1.0 / out.sum(axis=axis, keepdims=True)
    out *= recip
    return recip


def _check_tau(tau):
    """A temperature must be a real number > 0 (bool is not one); an
    infinite one gives uniform rows."""
    if isinstance(tau, bool) or not isinstance(tau, numbers.Real) or not tau > 0:
        raise ParameterError(f"softmax temperature must be a real number > 0, got {tau!r}")


def _softmax_grad(g, y, axis):
    """Gradient with respect to the scaled logits of softmax rows ``y``."""
    ds = g - (g * y).sum(axis=axis, keepdims=True)
    ds *= y
    return ds


def softmax_tau(x, tau):
    """Temperature softmax over channels.

    Computes ``exp(x_i/tau) / sum_j exp(x_j/tau)`` with max-subtraction,
    so the output is shift-invariant, strictly positive and sums to 1.
    Small tau approaches one-hot, large tau approaches uniform.  The rows
    are float64 whatever the logits' dtype.
    """
    _check_tau(tau)
    # subtract the max before dividing so that adding a constant to the
    # logits cannot change the result even at the last bit; the scaling and
    # exp work in place on this one temporary (x / 1 is exact, so it is skipped)
    z = x.data - x.data.max(axis=1, keepdims=True)
    if tau != 1:
        z /= tau
    # as in attend, exp runs in the logits' dtype and the rows are then
    # widened once, summed and normalised in float64: float32 rows of only 4
    # entries already miss a sum of 1 within 1e-9
    y = np.empty(z.shape)
    _softmax_rows(z, 1, y)

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
    """Reduce the named axes, keeping rank 4 with size-1 reduced dims.

    A max pool returns ``max`` over the axes, which propagates NaN; where +0
    and -0 tie, it may return either, while its gradient goes to the first
    maximum.  The model max-pools only relu outputs and positively gated
    ones, which hold no -0.
    """
    if kind not in _POOLS:
        raise ConfigError(f"unknown pool kind {kind!r}")
    reduction, axes = _POOLS[kind]
    shape = x.shape
    count = math.prod(shape[ax] for ax in axes)
    if count == 0:
        raise ShapeError(f"pool {kind!r} over empty axes {axes} of {shape}")

    if reduction == "mean":
        # bitwise np.mean, without its Python wrapper
        y = x.data.sum(axis=axes, keepdims=True)
        y /= count

        def backward_mean(g):
            return (np.broadcast_to(g / count, shape),)

        return _result(y, (x,), backward_mean, x.size)

    y = x.data.max(axis=axes, keepdims=True)

    def backward_max(g):
        # one axis of ``count`` entries stands for the reduced axes, so one
        # argmax (first occurrence on ties) serves every kind without a copy
        lo, hi = axes[0], axes[-1] + 1
        merged = shape[:lo] + (count,) + shape[hi:]
        idx = np.expand_dims(x.data.reshape(merged).argmax(axis=lo), lo)
        dflat = np.zeros(merged, g.dtype)
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
    """Elementwise product; size-1 axes of ``b`` broadcast over ``a``.

    ``b`` is cast to ``a``'s dtype, so float64 gate weights scale a float32
    branch output in float32 and its gradients stay float32.
    """
    _check_broadcast(a.shape, b.shape)
    b_shape = b.shape
    bd = b.data.astype(a.data.dtype, copy=False)

    def backward(g):
        return (g * bd, _reduce_to(b_shape, g * a.data))

    return _result(a.data * bd, (a, b), backward, a.size)


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


def weighted_sum(terms, weights):
    """``sum_i terms[i] * weights[:, i]``: the (n, k, 1, 1) ``weights`` scale
    the k equally shaped ``terms`` per batch row.

    The weights are cast to the first term's dtype, which the sum takes, and
    the products are added in term order, so the result is bitwise that of
    ``mul_broadcast`` by each weight column followed by ``add``.
    """
    terms = tuple(terms)
    if not terms:
        raise ShapeError("weighted_sum needs at least one term")
    shape = terms[0].shape
    for t in terms:
        if t.shape != shape:
            raise ShapeError(f"weighted_sum terms differ in shape: {t.shape} vs {shape}")
    k = len(terms)
    if weights.shape != (shape[0], k, 1, 1):
        raise ShapeError(f"weighted_sum of {k} terms of shape {shape} needs "
                         f"({shape[0]}, {k}, 1, 1) weights, got {weights.shape}")
    dtype = terms[0].data.dtype
    wd = weights.data.astype(dtype, copy=False)
    out = terms[0].data * wd[:, :1]
    for i, t in enumerate(terms[1:], 1):
        out += t.data * wd[:, i:i + 1]

    def backward(g):
        g = g.astype(dtype, copy=False)
        grads = [g * wd[:, i:i + 1] if t.requires_grad else None
                 for i, t in enumerate(terms)]
        dw = None
        if weights.requires_grad:
            dw = np.empty(weights.shape, weights.data.dtype)
            for i, t in enumerate(terms):
                dw[:, i, 0, 0] = np.einsum("nchw,nchw->n", g, t.data)
        return (*grads, dw)

    # a product per term and an add per term after the first
    return _result(out, (*terms, weights), backward, (2 * k - 1) * out.size)


def _ints(what, values):
    """``values`` as a tuple of Python ints, or ``ShapeError`` naming them: an
    axis, index or size must be an integer (a float is not truncated, and bool
    is not one)."""
    values = tuple(values)
    try:
        ints = tuple(map(operator.index, values))
    except TypeError:
        ints = None
    if ints is None or bool in map(type, values):
        raise ShapeError(f"{what} must be integers, got {values!r}")
    return ints


def _check_axis(op, axis):
    """``axis`` as a Python int, or ``ShapeError`` unless it is 0, 1, 2 or 3."""
    (axis,) = _ints(f"{op} axis", (axis,))
    if axis not in range(4):
        raise ShapeError(f"{op} axis must be 0, 1, 2 or 3, got {axis!r}")
    return axis


def _along(axis, lo, hi):
    """Index of the ``lo:hi`` range along ``axis`` of a rank-4 array."""
    index = [slice(None)] * 4
    index[axis] = slice(lo, hi)
    return tuple(index)


def concat(tensors, axis):
    """Join tensors along ``axis``; every other extent must match."""
    tensors = tuple(tensors)
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    axis = _check_axis("concat", axis)
    ref = tensors[0].shape
    for t in tensors:
        if t.shape[:axis] != ref[:axis] or t.shape[axis + 1:] != ref[axis + 1:]:
            raise ShapeError(f"concat along axis {axis}: shape {t.shape} incompatible with {ref}")

    def backward(g):
        bounds = accumulate((t.shape[axis] for t in tensors), initial=0)
        return tuple(g[_along(axis, lo, hi)] for lo, hi in pairwise(bounds))

    return _result(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def narrow(x, axis, lo, hi):
    """The ``lo:hi`` range of ``x`` along ``axis``."""
    axis = _check_axis("narrow", axis)
    lo, hi = _ints("narrow bounds", (lo, hi))
    if not (0 <= lo < hi <= x.shape[axis]):
        raise ShapeError(f"slice [{lo}:{hi}] along axis {axis} out of range for {x.shape}")
    return _view(x, _along(axis, lo, hi))


class _Range:
    """The gradient of one range of a parent, as ``narrow`` returns it: the
    backward sweep adds it into one zeroed buffer per parent."""

    __slots__ = ("index", "grad")

    def __init__(self, index, grad):
        self.index = index
        self.grad = grad


def _view(x, index):
    """``x.data[index]`` as a tensor whose gradient is that range of ``x``'s:
    :func:`narrow`'s result, and each output of an op with several (the
    head's maps), which records them as one node ``x``."""
    out = Tensor4(x.data[index], _recording((x,)))
    if out.requires_grad:
        out._parents = (x,)
        out._backward_fn = lambda g: (_Range(index, g),)
    return out


def reshape(x, shape):
    shape = _ints("reshape sizes", shape)
    if len(shape) != 4 or min(shape) < 0:
        raise ShapeError(f"reshape target must be 4 sizes >= 0, got {shape}")
    if math.prod(shape) != x.size:
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
    It computes in ``x``'s dtype, forward and backward, casting ``weight``
    and ``bias`` to it.
    """
    y, backward = _conv(x.data, weight, bias, stride, pad, x.requires_grad)
    return _result(y, (x, weight, bias), backward)


def _check_conv(x_shape, w_shape, b_shape, stride, pad):
    """:func:`conv2d`'s checks of its operands' shapes and settings."""
    _, cin, h, w = x_shape
    cout, cin_w, kh, kw = w_shape
    if cin != cin_w:
        raise ShapeError(f"conv2d input has {cin} channels, weight expects {cin_w}")
    if stride < 1:
        raise ConfigError(f"conv2d stride must be >= 1, got {stride}")
    if pad < 0:
        raise ConfigError(f"conv2d pad must be >= 0, got {pad}")
    if b_shape != (1, cout, 1, 1):
        raise ShapeError(f"conv2d bias shape {b_shape} != (1, {cout}, 1, 1)")
    span_h = h + 2 * pad - kh
    span_w = w + 2 * pad - kw
    if span_h < 0 or span_w < 0 or span_h % stride or span_w % stride:
        raise ConfigError(
            f"conv2d output size not integral for input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {stride}, pad {pad}"
        )


def _conv(xd, weight, bias, stride, pad, need_dx, record=True, relu=False):
    """:func:`conv2d`'s kernel on the plain array ``xd``, with the relu
    applied in place on its output when ``relu`` is set.

    ``weight`` and ``bias`` are tensors, checked against ``xd`` and cast to
    its dtype; the convolution's FLOPs, and the relu's, go to an open
    :func:`count_flops` total.  Returns ``(y, backward)``: ``backward(g)``
    maps an output gradient to ``(dx, dw, db)`` in that dtype, with ``dx``
    None unless ``need_dx``.  Ops built on a convolution (CBAM's spatial
    gate and the model's stages) call it.  Without ``relu`` it never reads
    ``y`` again, so a caller may overwrite it; with it, ``backward`` masks
    the gradient by ``y > 0``, which is the mask of the relu's input, so the
    bits are those of ``conv2d`` and ``relu``.  With ``record`` false, for
    an op that records no graph, ``backward`` is None and the columns are
    freed on return: a graph-free backbone that held each conv's columns
    while the next conv allocated its own ran about 60 % slower (numpy
    2.4.6, glibc malloc, x86-64 Xeon).
    """
    _check_conv(xd.shape, weight.shape, bias.shape, stride, pad)
    dtype = xd.dtype
    wd, bd = (t.data.astype(dtype, copy=False) for t in (weight, bias))
    n, cin, h, w = xd.shape
    cout, _, kh, kw = wd.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1

    # im2col with the output pixels innermost: wmat @ cols lands in NCHW
    # order without a transpose, and dw reads a transposed view of the same
    # columns
    cols = _im2col(xd, kh, kw, stride, pad, oh, ow)
    wmat = wd.reshape(cout, cin * kh * kw)
    y = np.matmul(wmat, cols).reshape(n, cout, oh, ow)
    y += bd
    if relu:
        np.maximum(y, 0.0, out=y)
    # a multiply and an add per weight and output, and the relu's compare
    _count((2 * cin * kh * kw + relu) * y.size)
    if not record:
        return y, None
    # the input gradient's form, by the rule in the design notes
    phases = kh == kw and kh % stride == 0 and pad < kh and cout <= cin * stride * stride

    def backward(g):
        if relu:
            g = g * (y > 0.0)
        g = g.astype(dtype, copy=False)
        gmat = g.reshape(n, cout, oh * ow)
        # (K, cout) is the faster GEMM orientation; the copy makes dw contiguous
        dw = np.matmul(cols, gmat.transpose(0, 2, 1)).sum(axis=0).T
        dw = np.ascontiguousarray(dw).reshape(cout, cin, kh, kw)
        dx = None
        if need_dx and phases:
            dx = _phase_input_gradient(g, wd, h, w, stride, pad)
        elif need_dx:
            dcols = np.matmul(wmat.T, gmat).reshape(n, cin, kh, kw, oh, ow)
            dxp = np.zeros((n, cin, h + 2 * pad, w + 2 * pad), dtype)
            for ki in range(kh):
                for kj in range(kw):
                    dxp[:, :, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride] += (
                        dcols[:, :, ki, kj]
                    )
            dx = np.ascontiguousarray(dxp[:, :, pad:pad + h, pad:pad + w])
        return (dx, dw, g.sum(axis=(0, 2, 3)).reshape(1, cout, 1, 1))

    return y, backward


def _im2col(data, kh, kw, stride, pad, oh, ow):
    """The ``(n, c kh kw, oh ow)`` im2col columns of ``data`` zero-padded by
    ``pad``: one strided view in ``(n, c, kh, kw, oh, ow)`` order, copied once."""
    n, c, h, w = data.shape
    if kh == kw == stride == 1 and not pad:
        return data.reshape(n, c, h * w)
    if pad:
        xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), data.dtype)
        xp[:, :, pad:pad + h, pad:pad + w] = data
    else:
        xp = np.ascontiguousarray(data)
    sn, sc, sh, sw = xp.strides
    windows = np.ndarray((n, c, kh, kw, oh, ow), xp.dtype, xp, 0,
                         (sn, sc, sh, sw, stride * sh, stride * sw))
    return windows.reshape(n, c * kh * kw, oh * ow)


def _phase_input_gradient(g, wd, h, w, stride, pad):
    """The (n, cin, h, w) input gradient of a k x k conv with weight ``wd``
    from its output gradient ``g``, one stride phase at a time.

    Input row ``s a + r`` of the padded input takes the kernel rows ``r``,
    ``r + s``, ... from output rows ``a``, ``a - 1``, ...: phase ``(r, r')`` is
    a stride-1 correlation of ``g`` with that flipped (k/s) x (k/s) sub-kernel
    (Shi et al., CVPR 2016).  All s*s phases share one im2col of ``g``, padded
    by k/s - 1 less the phase rows that lie wholly in the padding, and one
    GEMM with the sub-kernels stacked as (s s cin, cout (k/s)^2) rows.  At
    s = 1 it is the convolution of ``g`` with the flipped kernel.
    """
    n, cout, oh, ow = g.shape
    cin, k = wd.shape[1], wd.shape[2]
    s, ks, trim = stride, k // stride, pad // stride
    gh, gw = oh + ks - 1 - 2 * trim, ow + ks - 1 - 2 * trim
    gcols = _im2col(g, ks, ks, 1, ks - 1 - trim, gh, gw)
    # sub[o, c, j, r, j', r'] = wd[o, c, s (ks - 1 - j) + r, s (ks - 1 - j') + r']
    sub = wd.reshape(cout, cin, ks, s, ks, s)[:, :, ::-1, :, ::-1, :]
    wmat = sub.transpose(3, 5, 1, 0, 2, 4).reshape(s * s * cin, cout * ks * ks)
    out = np.matmul(wmat, gcols).reshape(n, s, s, cin, gh, gw)
    if s == 1:
        return out.reshape(n, cin, h, w)

    def phase(r, size):
        # the input rows of phase r, and their rows in its grid: grid rows
        # past the input's edge are dropped
        first = (r - pad) % s
        start = (first + pad - r) // s - trim
        return slice(first, None, s), slice(start, start + len(range(first, size, s)))

    dx = np.empty((n, cin, h, w), g.dtype)
    for r in range(s):
        rows, grid_rows = phase(r, h)
        for rr in range(s):
            cols, grid_cols = phase(rr, w)
            dx[:, :, rows, cols] = out[:, r, rr, :, grid_rows, grid_cols]
    return dx


def _helper_thread():
    """The executor of attend()'s one helper thread, made on first use and
    again in a forked child, which inherits the executor but not its thread."""
    global _helper
    if _helper is None or _helper[0] != os.getpid():
        _helper = (os.getpid(), ThreadPoolExecutor(1, "attend"))
    return _helper[1]


def _attend_blocks(blocks, qt, k3, vt, y, read_t, clamp):
    """Run attend()'s row blocks ``blocks``, ``(lo, hi)`` pairs, into their
    rows of ``y`` and ``read_t``, in one scratch block of this call's own."""
    n, p = k3.shape[0], k3.shape[2]
    scratch = np.empty((n, max((hi - lo for lo, hi in blocks), default=0), p), qt.dtype)
    for lo, hi in blocks:
        block = scratch[:, :hi - lo]
        np.matmul(qt[:, lo:hi], k3, out=block)
        block -= block.max(axis=2, keepdims=True)
        recip = _softmax_rows(block, 2, y[:, 0, lo:hi], clamp)
        np.matmul(block, vt, out=read_t[:, lo:hi])
        read_t[:, lo:hi] *= recip


def attend(q, k, v, tau):
    """Read of values through attention rows of query pixels over key pixels.

    ``q``: (n, c, Q, 1), ``k``: (n, c, P, 1) and ``v``: (n, cv, P, 1).  Row
    ``i`` of the float64 (n, 1, Q, P) rows is the softmax over ``j`` of
    ``sum_c q[c, i] k[c, j] / tau``; the read is the (n, cv, Q, 1) weighted
    sum of the value pixels by each row, in the operands' dtype.  Returns
    ``(read, rows)``: the graph runs through the read to ``q``, ``k`` and
    ``v``, and ``rows`` is a graph-free tensor for inspection.  The small
    query columns are scaled by ``1/tau``; for a power-of-two ``tau`` (the
    readout's ``sqrt(16) = 4``) that is exact, so the logits are bitwise
    those of dividing the product.

    The rows are computed in blocks of about ``_ATTEND_BLOCK_BYTES`` of
    output, whatever the dtype.  Each block's product, max subtraction,
    clamp and ``exp`` (see :func:`_softmax_rows`) run in the operands' dtype
    in one reused scratch block; the clamp runs only when the operands'
    norms let a row's logits spread beyond it.  The block is then widened
    into the rows, summed and scaled by the reciprocal row sums there; while
    it is still in cache it multiplies the values, and that read is scaled
    by the same reciprocals.  So rows sum to 1 within 1e-12 and stay
    strictly positive; float32 rows of 256 or more entries would not sum to
    1 within 1e-9.  With two or more usable CPUs, a helper thread runs all
    but the first ``n // 2 + 1`` of the n blocks, bit for bit as one thread
    would.  The backward runs in the operands' dtype too: float32 operands
    take float32 copies of the rows.
    """
    _check_tau(tau)
    if q.shape[0] != k.shape[0] or q.shape[1] != k.shape[1]:
        raise ShapeError(f"attend batch/channel mismatch: {q.shape} vs {k.shape}")
    if q.shape[3] != 1 or k.shape[3] != 1 or v.shape[3] != 1:
        raise ShapeError("attend operands must be pixel columns (w == 1)")
    if v.shape[0] != k.shape[0] or v.shape[2] != k.shape[2]:
        raise ShapeError(f"attend values {v.shape} do not match keys {k.shape}")
    if k.size == 0:
        raise ShapeError(f"attend needs at least one key, got shape {k.shape}")
    read, rows, backward3 = _attend(q.data[:, :, :, 0], k.data[:, :, :, 0],
                                    v.data[:, :, :, 0], tau)

    def backward(g):
        return tuple(d[:, :, :, None] for d in backward3(g[:, :, :, 0]))

    return _result(read[:, :, :, None], (q, k, v), backward), Tensor4(rows)


def _attend(q3, k3, v3, tau):
    """:func:`attend`'s kernel on the plain (n, c, Q) queries, (n, c, P) keys
    and (n, cv, P) values, shapes and ``tau`` checked.

    Returns ``(read, rows, backward)``: the (n, cv, Q) read, the float64
    (n, 1, Q, P) rows, and ``backward(g)``, which maps a read gradient to
    ``(dq, dk, dv)`` of the operands' shapes.  Ops built on attention (the
    memory readout) call it; it adds its FLOPs to an open
    :func:`count_flops` total.
    """
    dtype = np.result_type(q3, k3)
    qs = np.divide(q3, tau, dtype=dtype)
    qt = qs.transpose(0, 2, 1)
    v3 = v3.astype(dtype, copy=False)
    (n, cv, p), rows = v3.shape, q3.shape[2]
    y = np.empty((n, 1, rows, p))
    step = max(2, _ATTEND_BLOCK_BYTES // (8 * n * p))
    # numpy runs a one-row product as a matrix-vector product, which rounds
    # differently from the matrix product, so no block is one row unless the
    # whole array is: a single leftover row joins the block before it
    bounds = [0]
    while bounds[-1] < rows:
        lo = bounds[-1]
        bounds.append(rows if lo + step >= rows - 1 else lo + step)
    blocks = list(pairwise(bounds))
    vt = np.ascontiguousarray(v3.transpose(0, 2, 1))
    read_t = np.empty((n, rows, cv), dtype)  # the read, (n, Q, cv)
    # by Cauchy-Schwarz no two logits of a row differ by more than
    # 2 max|q_i| max|k_j| / tau; below log(1 / tiny) no entry can reach the
    # clamp, so the blocks skip its pass, which took about twice as long as
    # an add (numpy 2.4.6, x86-64) and 10 % of a 256 x 2048 float32 attend
    spread = 2.0 * math.sqrt(float((qs * qs).sum(axis=1).max(initial=0.0))
                             * float((k3 * k3).sum(axis=1).max(initial=0.0)))
    clamp = not spread < -_EXP_FLOOR[dtype.type]
    # the caller runs one block more than half, so it seldom has to wait for
    # the helper, which starts late by its wake-up (see the module notes)
    mine = len(blocks) // 2 + 1
    if _CPUS < 2 or mine >= len(blocks):
        _attend_blocks(blocks, qt, k3, vt, y, read_t, clamp)
    else:
        helper = _helper_thread().submit(contextvars.copy_context().run, _attend_blocks,
                                         blocks[mine:], qt, k3, vt, y, read_t, clamp)
        try:
            _attend_blocks(blocks[:mine], qt, k3, vt, y, read_t, clamp)
        finally:
            helper.result()
    # per row entry the query-key product and the softmax, then the read
    _count((2 * q3.shape[1] + 1 + 2 * cv) * y.size)
    a3 = y[:, 0]

    def backward(g):
        a = a3.astype(dtype, copy=False)
        g3 = g.astype(dtype, copy=False)
        dv = np.matmul(g3, a)
        ds = _softmax_grad(np.matmul(g3.transpose(0, 2, 1), v3), a, 2)
        # the logits' 1/tau reaches dk through the scaled query and dq here
        dq = np.matmul(k3, ds.transpose(0, 2, 1))
        dq /= tau
        dk = np.matmul(qs, ds)
        return dq, dk, dv

    return read_t.transpose(0, 2, 1), y, backward


def bce_with_logits(logits, targets, mask=None, normalizer=None):
    """Scalar binary cross-entropy from logits.

    ``targets`` and ``mask`` are plain arrays (no gradient).  The per-element
    stable form max(z,0) - z*y + log1p(exp(-|z|)) is summed over ``mask`` and
    divided by ``normalizer`` (defaults to the number of counted elements,
    at least 1; a given one must be finite and positive).  The loss is
    summed in float64; the gradient keeps the logits' dtype.
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
    if not 0 < normalizer < math.inf:
        raise ParameterError(f"bce normalizer must be finite and > 0, got {normalizer}")
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    total = float((per * m).sum()) / normalizer

    def backward(g):
        # in the logits' dtype: float32 logits get a float32 gradient
        dt = z.dtype.type
        diff = sigmoid_array(z) - y.astype(dt)
        return (dt(g.item()) * m.astype(dt, copy=False) * diff / normalizer,)

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
    Every analytic gradient must be float64, so ``fn`` must take float64
    inputs: float32 rounding would swamp a difference quotient at that step.
    """
    if not eps > 0:
        raise ParameterError(f"grad_check eps must be > 0, got {eps}")
    analytic = backprop(fn(params), params)
    for name, g in analytic.items():
        if g.dtype != np.float64:
            raise ParameterError(f"grad_check needs float64 gradients, {name!r} is {g.dtype}")
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        ana = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = fn(params).item()
            flat[i] = orig - eps
            lo = fn(params).item()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(ana[i] - numeric) / max(1e-8, abs(ana[i]) + abs(numeric))
            if err > worst:
                worst = err
    return worst
