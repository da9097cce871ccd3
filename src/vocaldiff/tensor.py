"""Dense float tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array (float32 by default, float64 for the
gradient-check tooling).  One rule decides what a tape tracks: a tensor is
tracked by a tape if and only if it has a node on that tape.  A tensor
created with ``requires_grad=True`` is a leaf that wants a gradient; the
active tape gives it a node the first time a primitive reads it.  A
primitive records itself, and gives its output a node, only when some input
has a node on the active tape; op outputs never carry ``requires_grad``.
``backward`` replays the records in reverse and returns a gradient for
every leaf the loss depends on.  With no tape active the primitives run as
plain numpy and do no autodiff bookkeeping, so a value computed there is a
constant to any later tape.

A backward rule returns one gradient per input.  The weight gradient of
``matmul``, the convolutions and ``unet.film`` is a sum of per-row outer
products, so those rules return it as ``Factored`` row stacks instead of
multiplying it out.  The sweep collects every factored contribution a node
receives and multiplies them out as one GEMM over the stacked rows when the
node's gradient is first needed: when the sweep reaches the node's record,
or, for a leaf, when the sweep ends.

Only the operations the model actually needs are provided; broadcasting is
supported for the elementwise ops (gradients are summed back to the input
shapes).  The convolutions, ``group_norm``, ``transpose`` and ``matmul``'s
left operand take optional leading batch axes in front of their 2-d
(channels, length) or (rows, features) shape; the 2-d call is the case with
none.  Parameter gradients sum over the batch axes: a factored weight
gradient folds them into its rows, the other rules sum them.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, ContractError, DimensionError

_STATE = threading.local()


def _tape_stack() -> list:
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = []
        _STATE.stack = stack
    return stack


def active_tape() -> Optional["Tape"]:
    """The innermost tape on this thread, or None outside any ``with Tape()``."""
    stack = _tape_stack()
    return stack[-1] if stack else None


class _Record:
    """One recorded primitive: output node, input nodes, backward rule."""

    __slots__ = ("out_id", "in_ids", "backward")

    def __init__(self, out_id, in_ids, backward):
        self.out_id = out_id
        self.in_ids = in_ids
        self.backward = backward


class Factored:
    """A weight gradient ``a.T @ b`` that the sweep multiplies out.

    ``a`` holds K rows of m = shape[0] entries and ``b`` K rows of
    n = prod(shape[1:]) entries, each in C order over any number of leading
    axes (a strided view is fine); the gradient is the (m, n) product
    reshaped to ``shape``.
    """

    __slots__ = ("a", "b", "shape")

    def __init__(self, a: np.ndarray, b: np.ndarray, shape: tuple[int, ...]):
        self.a = a
        self.b = b
        self.shape = shape


def _stack_rows(parts: list, width: int) -> np.ndarray:
    """The rows of every array in ``parts`` as one (K, width) matrix.

    The matrix is column-major, so each part is copied along its rows: for
    a convolution's factors that is the contiguous output-position axis,
    where a row-major copy would step through K-entry windows.
    """
    if len(parts) == 1:
        return parts[0].reshape(-1, width)
    rows = sum(p.size for p in parts) // width
    out = np.empty((rows, width), np.result_type(*parts), order="F")
    start = 0
    for p in parts:
        stop = start + p.size // width
        out[start:stop].reshape(p.shape, copy=False)[...] = p
        start = stop
    return out


def _multiply_out(dense: Optional[np.ndarray], parts: list) -> np.ndarray:
    """The sum of ``dense`` (or nothing) and every ``Factored`` in ``parts``,
    with the factored sum computed as one GEMM over the stacked rows."""
    shape = parts[0].shape
    m = shape[0]
    # np.dot, not np.matmul: matmul skips BLAS when K is 1 (an unbatched
    # FiLM weight gradient) and runs several times slower there
    product = np.dot(_stack_rows([f.a for f in parts], m).T,
                     _stack_rows([f.b for f in parts], math.prod(shape[1:]))
                     ).reshape(shape)
    # dense + product promotes as the sweep's acc + gin does
    return product if dense is None else dense + product


class Tape:
    """Wengert list of primitive applications for one forward pass.

    Records are appended in execution order, so every node's inputs precede
    it; the backward sweep walks the list once, in reverse, and releases
    each rule (with the arrays it saved) as soon as it has run, so a tape is
    swept at most once.  A tape is confined to the thread that opened it.
    """

    def __init__(self):
        self._records: list[_Record] = []
        self._next_id = 0
        self._swept = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape_stack().pop()
        return False

    def __len__(self) -> int:
        return len(self._records)

    def _node(self, tensor: "Tensor") -> Optional[int]:
        """The tensor's node on this tape, or None if it is a constant here.

        A grad-requiring tensor not yet on this tape becomes a leaf node.
        """
        if tensor._tape is self:
            return tensor.node_id
        if not tensor.requires_grad:
            return None
        node_id = self._next_id
        self._next_id += 1
        tensor.node_id = node_id
        tensor._tape = self
        return node_id

    def _record(self, in_ids, backward) -> int:
        out_id = self._next_id
        self._next_id += 1
        self._records.append(_Record(out_id, in_ids, backward))
        return out_id

    def gradients(self, loss: "Tensor") -> dict[int, "Tensor"]:
        """Reverse sweep from ``loss``; see the module-level ``backward``."""
        if loss._tape is not self:
            raise ContractError("loss is not connected to this tape")
        if loss.data.size != 1:
            raise ContractError(
                f"backward needs a scalar loss, got shape {loss.shape}"
            )
        if self._swept:
            raise ContractError("this tape has been swept already")
        self._swept = True
        grads: dict[int, np.ndarray] = {
            loss.node_id: np.ones_like(loss.data)
        }
        # nodes whose gradient is an array this sweep allocated; only those
        # are added into in place, never an array a backward rule returned
        # (add's rule hands the same array to both of its inputs)
        owned: set[int] = set()
        # Factored contributions per node, multiplied out when its gradient
        # is first needed
        factored: dict[int, list[Factored]] = {}
        for rec in reversed(self._records):
            rule, rec.backward = rec.backward, None
            gout = grads.pop(rec.out_id, None)
            parts = factored.pop(rec.out_id, None)
            if parts is not None:
                gout = _multiply_out(gout, parts)
            if gout is None:
                continue
            for in_id, gin in zip(rec.in_ids, rule(gout)):
                if in_id is None or gin is None:
                    continue
                if isinstance(gin, Factored):
                    factored.setdefault(in_id, []).append(gin)
                    continue
                acc = grads.get(in_id)
                if acc is None:
                    grads[in_id] = gin
                elif (in_id in owned and gin.shape == acc.shape
                      and gin.dtype == acc.dtype):
                    acc += gin
                else:
                    # asarray: a 0-d sum arrives as a numpy scalar, which
                    # cannot be added into
                    grads[in_id] = np.asarray(acc + gin)
                    owned.add(in_id)
        # each record is visited after every record that reads its output
        # and pops its own entries, so only leaves, which have no record, remain
        for node_id, parts in factored.items():
            grads[node_id] = _multiply_out(grads.get(node_id), parts)
        return {node_id: Tensor(g) for node_id, g in grads.items()}


ArrayLike = Union[np.ndarray, float, int, Sequence]


class Tensor:
    """Dense n-dimensional float array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "node_id", "_tape")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 dtype=None):
        if isinstance(data, (np.ndarray, np.generic)):
            # 0-d results of numpy ops arrive as scalars; keep their dtype
            arr = np.asarray(data)
            if dtype is not None and arr.dtype != dtype:
                arr = arr.astype(dtype)
            elif arr.dtype not in (np.float32, np.float64):
                arr = arr.astype(np.float32)
        else:
            arr = np.asarray(data, dtype=dtype or np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.node_id: Optional[int] = None
        self._tape: Optional[Tape] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad})"

    # operator sugar; constants are adopted at the tensor's dtype
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_wrap(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None):
        return tensor_sum(self, axis=axis)

    def mean(self, axis=None):
        return tensor_mean(self, axis=axis)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self):
        return transpose(self)


def _wrap(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _apply(out_data: np.ndarray, inputs: Sequence[Tensor],
           backward: Callable) -> Tensor:
    """Wrap an op result, recording it when an input is on the active tape."""
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None:
        in_ids = [tape._node(t) for t in inputs]
        if any(i is not None for i in in_ids):
            out.node_id = tape._record(in_ids, backward)
            out._tape = tape
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original input shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    b = _wrap(b, a.dtype)
    out = a.data + b.data
    ash, bsh = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, ash), _unbroadcast(g, bsh)

    return _apply(out, (a, b), bwd)


def sub(a: Tensor, b) -> Tensor:
    b = _wrap(b, a.dtype)
    out = a.data - b.data
    ash, bsh = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, ash), _unbroadcast(-g, bsh)

    return _apply(out, (a, b), bwd)


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(b, a.dtype)
    out = a.data * b.data
    ad, bd = a.data, b.data

    def bwd(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _apply(out, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    return _apply(-a.data, (a,), lambda g: (-g,))


def silu(x: Tensor) -> Tensor:
    """Elementwise x * sigmoid(x)."""
    sig = 1.0 / (1.0 + np.exp(-x.data))
    out = x.data * sig
    xd = x.data

    def bwd(g):
        return (g * (sig * (1.0 + xd * (1.0 - sig))),)

    return _apply(out, (x,), bwd)


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------

def tensor_sum(x: Tensor, axis=None) -> Tensor:
    # accumulate in float64 for accuracy, return at the input dtype
    out = np.sum(x.data, axis=axis, dtype=np.float64).astype(x.dtype)
    shape = x.shape

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        ge = np.expand_dims(g, axis)
        return (np.broadcast_to(ge, shape).copy(),)

    return _apply(np.asarray(out), (x,), bwd)


def tensor_mean(x: Tensor, axis=None) -> Tensor:
    n = x.data.size if axis is None else x.shape[axis]
    return mul(tensor_sum(x, axis=axis), 1.0 / n)


def reshape(x: Tensor, shape) -> Tensor:
    old = x.shape

    def bwd(g):
        return (g.reshape(old),)

    return _apply(x.data.reshape(shape), (x,), bwd)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes of a (..., M, N) tensor."""
    if x.data.ndim < 2:
        raise DimensionError(
            f"transpose expects a (..., M, N) tensor, got {x.shape}")

    def bwd(g):
        return (g.swapaxes(-1, -2).copy(),)

    return _apply(x.data.swapaxes(-1, -2).copy(), (x,), bwd)


def permute(x: Tensor, axes) -> Tensor:
    """Reorder axes; the result is materialized contiguous."""
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise DimensionError(
            f"permute axes {axes} do not index a rank-{x.data.ndim} tensor"
        )
    inverse = np.argsort(axes)

    def bwd(g):
        return (np.ascontiguousarray(g.transpose(inverse)),)

    return _apply(np.ascontiguousarray(x.data.transpose(axes)), (x,), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _apply(out, tuple(tensors), bwd)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    if start < 0 or start + length > x.shape[axis]:
        raise DimensionError(
            f"narrow [{start}:{start + length}) out of range for axis {axis} "
            f"of shape {x.shape}"
        )
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    shape = x.shape

    def bwd(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[index] = g
        return (full,)

    return _apply(x.data[index].copy(), (x,), bwd)


# ---------------------------------------------------------------------------
# matmul / conv
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., M, K) @ (K, N) -> (..., M, N); dA = dC @ B^T, dB = A^T @ dC.

    The leading axes of a fold into its rows, so forward and dA are one 2-d
    GEMM each; dB is returned ``Factored`` over those rows.
    """
    if a.data.ndim < 2 or b.data.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise DimensionError(
            f"matmul shape mismatch: {a.shape} @ {b.shape}"
        )
    ad, bd = a.data, b.data
    a2 = ad.reshape(-1, ad.shape[-1])
    n = bd.shape[1]

    def bwd(g):
        g2 = g.reshape(-1, n)
        return np.dot(g2, bd.T).reshape(ad.shape), Factored(a2, g2, bd.shape)

    return _apply(np.dot(a2, bd).reshape(ad.shape[:-1] + (n,)), (a, b), bwd)


def _windows(xp: np.ndarray, k: int, stride: int, l_out: int) -> np.ndarray:
    """(..., C, K, L_out) read-only view of a padded (..., C, L) input:
    entry [..., c, j, i] is xp[..., c, i*stride + j]."""
    return np.lib.stride_tricks.as_strided(
        xp, xp.shape[:-1] + (k, l_out), xp.strides + (xp.strides[-1] * stride,),
        writeable=False)


def _columns(xp: np.ndarray, k: int, stride: int, l_out: int) -> np.ndarray:
    """(..., C*K, L_out) im2col matrices of a padded (..., C, L) input: row
    c*K + j, column i holds xp[..., c, i*stride + j]."""
    return _windows(xp, k, stride, l_out).reshape(xp.shape[:-2] + (-1, l_out))


def _column_rows(xp: np.ndarray, k: int, stride: int, l_out: int):
    """The im2col matrices transposed, as a view: (..., L_out, C, K) whose
    row i (C*K entries) is column i of ``_columns``."""
    return np.moveaxis(_windows(xp, k, stride, l_out), -1, -3)


def _overlap_add(cols: np.ndarray, k: int, stride: int, length: int):
    """Adjoint of ``_columns``: add each entry of (..., C*K, L_out) matrices
    back onto the (..., C, length) position it was read from."""
    c_k, l_out = cols.shape[-2:]
    out = np.zeros(cols.shape[:-2] + (c_k // k, length), cols.dtype)
    for j in range(k):
        out[..., j:j + stride * l_out:stride] += cols[..., j::k, :]
    return out


def conv1d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1,
           padding: int = 0) -> Tensor:
    """Cross-correlation over (..., C_in, L) with weight (C_out, C_in, K).

    Leading axes of x batch independent inputs; the output is
    (..., C_out, L_out) with L_out = floor((L + 2*padding - K) / stride) + 1.
    One GEMM per item on the ``_columns`` of the zero-padded input; backward,
    one more gives dx (through ``_overlap_add``), and dw is returned
    ``Factored`` over the output-gradient rows of every item and position,
    its B rows a view of the padded input.
    """
    if x.data.ndim < 2 or w.data.ndim != 3:
        raise DimensionError(
            f"conv1d expects x (..., C_in, L) and w (C_out, C_in, K), "
            f"got {x.shape} and {w.shape}"
        )
    c_out, c_in, k = w.shape
    if x.shape[-2] != c_in:
        raise DimensionError(
            f"conv1d channel mismatch: x has {x.shape[-2]}, w expects {c_in}"
        )
    length = x.shape[-1]
    if length + 2 * padding < k:
        raise DimensionError(
            f"conv1d kernel {k} larger than padded input {length + 2 * padding}"
        )
    if b.shape != (c_out,):
        raise DimensionError(f"conv1d bias must be ({c_out},), got {b.shape}")
    l_out = (length + 2 * padding - k) // stride + 1
    xp = np.zeros(x.shape[:-1] + (length + 2 * padding,), x.dtype)
    xp[..., padding:padding + length] = x.data
    w2 = w.data.reshape(c_out, c_in * k)
    out = w2 @ _columns(xp, k, stride, l_out) + b.data[:, None]

    def bwd(g):
        dxp = _overlap_add(w2.T @ g, k, stride, xp.shape[-1])
        return (np.ascontiguousarray(dxp[..., padding:padding + length]),
                Factored(g.swapaxes(-1, -2),
                         _column_rows(xp, k, stride, l_out), (c_out, c_in, k)),
                _unbroadcast(g.sum(axis=-1), (c_out,)))

    return _apply(out, (x, w, b), bwd)


def conv_transpose1d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1,
                     padding: int = 0) -> Tensor:
    """Transposed convolution of (..., C_in, L); weight is (C_in, C_out, K).

    Leading axes of x batch independent inputs; the output is
    (..., C_out, L_out) with L_out = (L - 1) * stride - 2 * padding + K.  The
    adjoint of ``conv1d`` under the same weight, stride and padding: a GEMM
    then ``_overlap_add`` forward; backward, a GEMM on the ``_columns`` of the
    padded gradient gives dx, and dw is returned ``Factored`` over the input
    rows of every item and position, its B rows a view of that gradient.
    """
    if x.data.ndim < 2 or w.data.ndim != 3:
        raise DimensionError(
            f"conv_transpose1d expects x (..., C_in, L) and w "
            f"(C_in, C_out, K), got {x.shape} and {w.shape}"
        )
    c_in, c_out, k = w.shape
    if x.shape[-2] != c_in:
        raise DimensionError(
            f"conv_transpose1d channel mismatch: x has {x.shape[-2]}, "
            f"w expects {c_in}"
        )
    length = x.shape[-1]
    l_out = (length - 1) * stride - 2 * padding + k
    if l_out < 1:
        raise DimensionError(
            f"conv_transpose1d output length {l_out} < 1 for input {x.shape}"
        )
    full = (length - 1) * stride + k
    w2 = w.data.reshape(c_in, c_out * k)
    xd = x.data
    out = (_overlap_add(w2.T @ xd, k, stride, full)[..., padding:padding + l_out]
           + b.data[:, None])

    def bwd(g):
        gp = np.zeros(g.shape[:-1] + (full,), g.dtype)
        gp[..., padding:padding + l_out] = g
        return (w2 @ _columns(gp, k, stride, length),
                Factored(xd.swapaxes(-1, -2),
                         _column_rows(gp, k, stride, length), (c_in, c_out, k)),
                _unbroadcast(g.sum(axis=-1), (c_out,)))

    return _apply(out, (x, w, b), bwd)


# ---------------------------------------------------------------------------
# softmax / normalization
# ---------------------------------------------------------------------------

def softmax_rows(s: np.ndarray) -> np.ndarray:
    """In-place softmax over the last axis: max shift, exp, float64 sums."""
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= np.sum(s, axis=-1, keepdims=True, dtype=np.float64).astype(s.dtype)
    return s


def softmax_rows_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Softmax input gradient from its output y and output gradient g."""
    return y * (g - np.sum(g * y, axis=-1, keepdims=True))


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis; see ``softmax_rows``."""
    y = softmax_rows(x.data.copy())
    return _apply(y, (x,), lambda g: (softmax_rows_grad(y, g),))


def group_norm(x: Tensor, groups: int, gamma: Tensor, beta: Tensor,
               eps: float = 1e-5) -> Tensor:
    """GroupNorm over (..., C, L): normalize per group of each item (leading
    axes batch items), affine per channel; dgamma and dbeta sum over the
    batch."""
    if x.data.ndim < 2:
        raise DimensionError(f"group_norm expects (..., C, L), got {x.shape}")
    c = x.shape[-2]
    if groups < 1 or c % groups != 0:
        raise ConfigurationError(
            f"groups={groups} must divide channel count {c}"
        )
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"group_norm affine must be ({c},), got {gamma.shape} / {beta.shape}"
        )
    grouped = x.shape[:-2] + (groups, -1)
    xg = x.data.reshape(grouped)
    n = xg.shape[-1]
    # np.add.reduce and / n are what .mean computes, without its wrapper
    mean = np.add.reduce(xg, axis=-1, dtype=np.float64, keepdims=True) / n
    dev = xg.astype(np.float64)
    dev -= mean
    dev *= dev
    var = np.add.reduce(dev, axis=-1, keepdims=True) / n
    inv_std = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    mean = mean.astype(x.dtype)
    xhat = ((xg - mean) * inv_std).reshape(x.shape)
    out = gamma.data[:, None] * xhat + beta.data[:, None]
    gd = gamma.data

    def bwd(g):
        dgamma = _unbroadcast((g * xhat).sum(axis=-1), gd.shape)
        dbeta = _unbroadcast(g.sum(axis=-1), gd.shape)
        dxhat = (g * gd[:, None]).reshape(grouped)
        xh = xhat.reshape(grouped)
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / n
        m2 = np.add.reduce(dxhat * xh, axis=-1, keepdims=True) / n
        dx = (inv_std * (dxhat - m1 - xh * m2)).reshape(xhat.shape)
        return dx, dgamma, dbeta

    return _apply(out, (x, gamma, beta), bwd)


# ---------------------------------------------------------------------------
# backward entry point
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> dict[int, Tensor]:
    """Gradients of a scalar ``loss`` for every leaf it depends on.

    Returns {node_id -> gradient Tensor}, keyed by exactly the node ids of
    the grad-requiring leaves that reached the loss on its tape; look a leaf
    up by the ``node_id`` it got there, after checking that its ``_tape`` is
    that tape.  Fan-out is accumulated.  Constants (tensors with no node on
    the tape: untracked inputs, and values computed with no tape active)
    never appear.

    A backward rule may return a weight gradient as ``Factored`` row stacks
    instead of an array.  The sweep keeps every such contribution to a node
    and multiplies them out as one GEMM over all their rows when the node's
    gradient is first needed: when the sweep reaches the node's record, or
    at the end of the sweep for a leaf.  A node that also has dense
    contributions gets their sum plus the product.
    """
    tape = loss._tape
    if tape is None:
        raise ContractError("loss is not connected to a tape")
    return tape.gradients(loss)
