"""Dense float64 tensors with tape-based reverse-mode differentiation.

The tape is define-by-run: ops executed while a ``Tape`` is active are
recorded and can be replayed backwards to accumulate gradients. Tensors
created outside a tape (or plain numpy arrays / floats passed to ops) are
treated as constants. Everything is float64 and row-major.

The stack of open tapes is per thread, so threads record and sweep their own
tapes. A tape keeps its leaves (the Tensors it reads but did not compute, such
as parameters) in its own table and never writes to them, so one parameter can
be read by several threads' tapes at once.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "Tape",
    "AdamState",
    "adam_init",
    "adam_step",
    "matmul",
    "linear",
    "attention",
    "time_embedding",
    "segment_time_attention",
    "add",
    "sub",
    "mul",
    "neg",
    "sin",
    "sigmoid",
    "relu",
    "reduce_sum",
    "reduce_mean",
    "concat",
    "narrow",
    "reshape",
    "swapaxes",
    "transpose",
    "gather_rows",
    "layer_norm",
    "softmax",
    "masked_softmax",
    "causal_conv1d",
    "bce_with_logits",
    "finite_difference_gradients",
    "relative_error",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class _TapeStack(threading.local):
    """The tapes open in the calling thread, innermost last: each thread
    records onto its own tapes only."""

    def __init__(self) -> None:
        self.tapes: list[Tape] = []


_TAPE_STACK = _TapeStack()


def _active_tape() -> "Tape | None":
    tapes = _TAPE_STACK.tapes
    return tapes[-1] if tapes else None


class Tensor:
    """A dense float64 array, optionally tracked on the active tape."""

    __slots__ = ("data", "_tape", "_node")

    def __init__(self, data) -> None:
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.size == 0:
            raise ShapeError(f"tensor dimensions must be >= 1, got {arr.shape}")
        self.data = arr
        self._tape: Tape | None = None
        self._node: int | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def node_id(self) -> int | None:
        """Node handle on the tape that computed this tensor; None for a
        tensor made outside a tape (a leaf's node is ``Tape.node_of``)."""
        return self._node

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    # arithmetic sugar; scalars and ndarrays are treated as constants
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return mul(self, 1.0 / float(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


@dataclass
class _Node:
    op: str
    input_ids: tuple[int, ...]
    backward: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None


_SPENT = _Node("spent", (), None)  # stands in for an interior node once backward has passed it


class Tape:
    """Ordered record of ops; replaying it backwards accumulates gradients.

    Node ids are topological by construction (inputs always precede their
    consumers), so one reverse sweep visits each node exactly once.
    """

    def __init__(self) -> None:
        self.nodes: list[_Node] = []
        self.gradients: dict[int, np.ndarray] = {}
        # id(leaf) -> (node, leaf); holding the leaf keeps its id from being reused
        self._leaves: dict[int, tuple[int, Tensor]] = {}
        self._swept = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.tapes.pop()
        assert popped is self

    def node_of(self, t: Tensor) -> int | None:
        """``t``'s node on this tape: the op that computed it, or its leaf
        node; None if this tape never read it."""
        if t._tape is self:
            return t._node
        entry = self._leaves.get(id(t))
        return None if entry is None else entry[0]

    def _ensure_leaf(self, t: Tensor) -> int:
        node = self.node_of(t)
        if node is None:
            node = len(self.nodes)
            self._leaves[id(t)] = (node, t)
            self.nodes.append(_Node("leaf", (), None))
        return node

    def record(
        self,
        out: Tensor,
        inputs: Sequence[Tensor],
        backward: Callable[[np.ndarray], tuple[np.ndarray, ...]],
        op: str,
    ) -> None:
        ids = tuple(self._ensure_leaf(t) for t in inputs)
        out._tape = self
        out._node = len(self.nodes)
        self.nodes.append(_Node(op, ids, backward))

    def backward(self, loss: Tensor, into: dict[Tensor, np.ndarray] | None = None) -> None:
        """Populate ``gradients`` for every leaf contributing to ``loss``.

        The sweep frees as it goes: once a node's gradient has been passed on
        to its inputs, the gradient and the node's saved backward closure
        (and with it the activations the closure holds) are dropped. Only
        leaf gradients stay readable, and a tape can be swept only once.

        ``into`` maps leaves to arrays of their shape that their gradients
        are added to in place; ``grad`` then returns those arrays. It lets a
        caller sum gradients over several tapes without a second buffer.
        """
        if loss.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        if loss._tape is not self or loss._node is None:
            raise ValueError("loss tensor was not recorded on this tape")
        if self._swept:
            raise RuntimeError("backward() already ran on this tape; record a new one")
        self._swept = True
        self.gradients = {loss._node: np.ones_like(loss.data)}
        grads = self.gradients
        for leaf, acc in (into or {}).items():
            node = self.node_of(leaf)
            if node is not None:
                grads[node] = acc
        nodes = self.nodes
        for node_id in range(loss._node, -1, -1):
            node = nodes[node_id]
            if node.backward is None:
                continue
            nodes[node_id] = _SPENT
            g = grads.pop(node_id, None)
            if g is None:
                continue
            input_grads = node.backward(g)
            g_free = True  # g is dead after this node, so one input may take it over
            for in_id, ig in zip(node.input_ids, input_grads):
                if ig is None:
                    continue
                acc = grads.get(in_id)
                if acc is not None:
                    acc += ig
                elif ig is g and g_free:
                    grads[in_id] = g
                    g_free = False
                else:
                    # a view may alias a saved activation, and g may be taken
                    grads[in_id] = ig.copy() if ig.base is not None or ig is g else ig

    def grad(self, t: Tensor) -> np.ndarray:
        """Gradient of the last backward() loss w.r.t. ``t`` (zeros if unused)."""
        g = self.grad_or_none(t)
        return np.zeros_like(t.data) if g is None else g

    def grad_or_none(self, t: Tensor) -> np.ndarray | None:
        return self.gradients.get(self.node_of(t))


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _as_const(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unary(x: Tensor, out_data: np.ndarray, backward, op: str) -> Tensor:
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None:
        tape.record(out, (x,), backward, op)
    return out


def _binary(a, b, forward, grad_a, grad_b, op: str) -> Tensor:
    """Elementwise op with broadcasting. ``grad_a(g, bv)`` and ``grad_b(g, av)``
    map the output gradient to each operand's; either may be None for an op
    whose gradients do not read the operands, and then the backward closure
    keeps no operand values alive."""
    a_t = isinstance(a, Tensor)
    b_t = isinstance(b, Tensor)
    av = a.data if a_t else _as_const(a)
    bv = b.data if b_t else _as_const(b)
    out = Tensor(forward(av, bv))
    tape = _active_tape()
    if tape is not None and (a_t or b_t):
        inputs = tuple(t for t, is_t in ((a, a_t), (b, b_t)) if is_t)
        a_shape, b_shape = av.shape, bv.shape
        keep_a = av if b_t and grad_b is not None else None
        keep_b = bv if a_t and grad_a is not None else None

        def backward(g: np.ndarray):
            grads = []
            if a_t:
                grads.append(_reduce_to(g if grad_a is None else grad_a(g, keep_b), a_shape))
            if b_t:
                grads.append(_reduce_to(g if grad_b is None else grad_b(g, keep_a), b_shape))
            return tuple(grads)

        tape.record(out, inputs, backward, op)
    return out


def add(a, b) -> Tensor:
    return _binary(a, b, np.add, None, None, "add")


def sub(a, b) -> Tensor:
    return _binary(a, b, np.subtract, None, lambda g, _: -g, "sub")


def mul(a, b) -> Tensor:
    return _binary(a, b, np.multiply, np.multiply, np.multiply, "mul")


def neg(x: Tensor) -> Tensor:
    return _unary(x, -x.data, lambda g: (-g,), "neg")


def sin(x: Tensor) -> Tensor:
    xd = x.data
    return _unary(x, np.sin(xd), lambda g: (g * np.cos(xd),), "sin")


def _time2vec_rows(times) -> np.ndarray:
    """The rows (t, 1) of n times, [n x 2]."""
    t = np.asarray(times, dtype=np.float64).reshape(-1)
    return np.stack((t, np.ones_like(t)), axis=1)


def _time2vec_angles(tk: np.ndarray, od: np.ndarray, pd: np.ndarray) -> np.ndarray:
    """Time2Vec angles omega * t + phi of n times under V heads, [V x n x d_v],
    as one [n x 2] @ [V x 2 x d_v] product of the rows (t, 1)."""
    return tk @ np.stack((od, pd), axis=1)


def _time2vec(tk: np.ndarray, od: np.ndarray, pd: np.ndarray) -> np.ndarray:
    """The Time2Vec embedding: the angles, with sin taken on the periodic columns."""
    theta = _time2vec_angles(tk, od, pd)
    np.sin(theta[..., 1:], out=theta[..., 1:])
    return theta


def _time2vec_backward(tk: np.ndarray, od: np.ndarray, pd: np.ndarray, g: np.ndarray):
    """(omega, phi) gradients of Time2Vec for the output gradient ``g``
    [V x n x d_v]: the angle gradient is g (linear column) or g * cos(angle),
    and one [2 x n] product per head sums it against the rows (t, 1)."""
    slope = _time2vec_angles(tk, od, pd)
    np.cos(slope[..., 1:], out=slope[..., 1:])
    slope[..., 0] = 1.0
    slope *= g  # d loss / d angle
    g_bank = tk.T @ slope  # [V x 2 x d_v]
    return g_bank[:, 0], g_bank[:, 1]


def time_embedding(times, omega: Tensor, phi: Tensor) -> Tensor:
    """Time2Vec of n times under V heads at once: [V x n x d_v] for omega and
    phi [V x d_v]. Column 0 is omega[:, 0] * t + phi[:, 0] (linear); column
    i >= 1 is sin(omega[:, i] * t + phi[:, i]). Backward recomputes the
    angles from the times instead of keeping them."""
    od, pd = omega.data, phi.data
    if od.ndim != 2 or pd.shape != od.shape:
        raise ShapeError(f"omega and phi must both be [V x d_v], got {od.shape} and {pd.shape}")
    tk = _time2vec_rows(times)
    out = Tensor(_time2vec(tk, od, pd))
    tape = _active_tape()
    if tape is not None:
        od, pd = od.copy(), pd.copy()
        tape.record(out, (omega, phi), lambda g: _time2vec_backward(tk, od, pd, g), "time_embedding")
    return out


def segment_time_attention(
    queries: Tensor, key_times, omega: Tensor, phi: Tensor, segments, n_segments: int, values
) -> Tensor:
    """mTAND time attention over keys split into segments, as one tape node.

    ``key_times`` [n] are embedded with Time2Vec under the V heads of
    ``omega``/``phi`` [V x d_v] (as in ``time_embedding``), scored against
    ``queries`` [V x a x d_v] (already projected and scaled), and each query
    takes a softmax over the keys of each segment separately. ``segments``
    [n] gives every key's segment in [0, n_segments); it must be
    nondecreasing, so a segment's keys are contiguous. ``values`` [n] or
    [n x c] are constants. Returns [V x a x n_segments x c]: row (v, i, s)
    mixes segment s's values by query i's weights under head v, and a
    segment without keys gives zero rows.

    Nothing is padded: the work and the memory kept for backward (keys and
    weights, [V x n x d_v] and [V x n x a]) are linear in the key count. The
    segment reductions run along the key axis with ``reduceat`` at the
    segment starts.
    """
    qd, od, pd = queries.data, omega.data, phi.data
    if od.ndim != 2 or pd.shape != od.shape or qd.ndim != 3 or qd.shape[::2] != od.shape:
        raise ShapeError(f"queries [V x a x d_v], omega and phi [V x d_v]; got {qd.shape}, {od.shape}, {pd.shape}")
    tk = _time2vec_rows(key_times)
    n = tk.shape[0]
    seg = np.asarray(segments, dtype=np.intp).reshape(-1)
    vals = np.asarray(values, dtype=np.float64)
    vals = vals[:, None] if vals.ndim == 1 else vals
    if seg.shape != (n,) or vals.ndim != 2 or vals.shape[0] != n:
        raise ShapeError(f"{seg.size} segment ids and values {vals.shape} for {n} keys")
    if n and (seg[0] < 0 or seg[-1] >= n_segments or np.any(seg[1:] < seg[:-1])):
        raise ValueError(f"segment ids must be nondecreasing in [0, {n_segments})")
    v, a, _ = qd.shape
    c = vals.shape[1]
    out = np.zeros((v, a, n_segments, c))
    if n == 0:
        return Tensor(out)
    starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
    counts = np.diff(np.r_[starts, n])
    present = seg[starts]  # the segments that have keys, in order

    def spread(x: np.ndarray) -> np.ndarray:  # per-segment [V x S x ...] -> per-key [V x n x ...]
        return np.repeat(x, counts, axis=1)

    keys = _time2vec(tk, od, pd)
    w = keys @ np.swapaxes(qd, 1, 2)  # scores [V x n x a], key-major so segments are row blocks
    w -= spread(np.maximum.reduceat(w, starts, axis=1))
    np.exp(w, out=w)
    w /= spread(np.add.reduceat(w, starts, axis=1))
    mixed = np.add.reduceat(w[..., None] * vals[:, None, :], starts, axis=1)  # [V x S x a x c]
    out[:, :, present, :] = np.swapaxes(mixed, 1, 2)
    result = Tensor(out)
    tape = _active_tape()
    if tape is not None:
        od, pd = od.copy(), pd.copy()

        def backward(g: np.ndarray):
            g_mixed = spread(np.swapaxes(g[:, :, present, :], 1, 2))  # [V x n x a x c]
            g_w = (g_mixed * vals[:, None, :]).sum(axis=-1)
            g_s = g_w * w
            g_s -= w * spread(np.add.reduceat(g_s, starts, axis=1))  # softmax within each segment
            g_q = np.swapaxes(g_s, 1, 2) @ keys
            g_keys = g_s @ qd
            return (g_q, *_time2vec_backward(tk, od, pd, g_keys))

        tape.record(result, (queries, omega, phi), backward, "segment_time_attention")
    return result


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # piecewise form avoids overflow in exp for large |x|
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    return _unary(x, s, lambda g: (g * s * (1.0 - s),), "sigmoid")


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)  # backward reads the output, which the next op usually keeps anyway
    return _unary(x, out, lambda g: (g * (out > 0.0),), "relu")


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    a_t = isinstance(a, Tensor)
    b_t = isinstance(b, Tensor)
    av = a.data if a_t else _as_const(a)
    bv = b.data if b_t else _as_const(b)
    if av.ndim < 2 or bv.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {av.shape} and {bv.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {av.shape} x {bv.shape}")
    out = Tensor(av @ bv)
    tape = _active_tape()
    if tape is not None and (a_t or b_t):
        inputs = tuple(t for t, is_t in ((a, a_t), (b, b_t)) if is_t)

        def backward(g: np.ndarray):
            grads = []
            if a_t:
                grads.append(_reduce_to(g @ np.swapaxes(bv, -1, -2), av.shape))
            if b_t:
                grads.append(_reduce_to(np.swapaxes(av, -1, -2) @ g, bv.shape))
            return tuple(grads)

        tape.record(out, inputs, backward, "matmul")
    return out


def linear(x, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for x [... x k], w [k x n], b [n]: all leading rows of x
    go through one [rows x k] @ [k x n] product, forward and backward. An x
    that is not a Tensor is a constant and gets no gradient."""
    x_t = isinstance(x, Tensor)
    xd = x.data if x_t else _as_const(x)
    wd, bd = w.data, b.data
    if wd.ndim != 2 or xd.ndim < 1 or xd.shape[-1] != wd.shape[0] or bd.shape != wd.shape[1:]:
        raise ShapeError(f"linear expects x [..,k], w [k,n], b [n]; got {xd.shape}, {wd.shape}, {bd.shape}")
    x2 = xd.reshape(-1, wd.shape[0])
    out2 = x2 @ wd
    out2 += bd
    out = Tensor(out2.reshape(xd.shape[:-1] + wd.shape[1:]))
    tape = _active_tape()
    if tape is not None:

        def backward(g: np.ndarray):
            g2 = g.reshape(-1, wd.shape[1])
            grads = ()
            if x_t:
                gx = np.empty(xd.shape)  # a fresh array, so the tape need not copy it
                np.matmul(g2, wd.T, out=gx.reshape(x2.shape))
                grads = (gx,)
            return grads + (x2.T @ g2, g2.sum(axis=0))

        tape.record(out, (x, w, b) if x_t else (w, b), backward, "linear")
    return out


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    xshape = x.shape

    def backward(g: np.ndarray):
        if axis is None:
            return (np.broadcast_to(g, xshape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, xshape).copy(),)

    return _unary(x, np.sum(x.data, axis=axis, keepdims=keepdims), backward, "sum")


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    xshape = x.shape
    if axis is None:
        n = x.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        n = 1
        for ax in axes:
            n *= xshape[ax]

    def backward(g: np.ndarray):
        if axis is None:
            return (np.broadcast_to(g / n, xshape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / n, xshape).copy(),)

    return _unary(x, np.mean(x.data, axis=axis, keepdims=keepdims), backward, "mean")


def concat(parts: Iterable[Tensor], axis: int = -1) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    datas = [p.data for p in parts]
    out = Tensor(np.concatenate(datas, axis=axis))
    tape = _active_tape()
    if tape is not None:
        sizes = [d.shape[axis] for d in datas]
        offsets = np.cumsum([0] + sizes)

        def backward(g: np.ndarray):
            return tuple(
                np.take(g, range(offsets[i], offsets[i + 1]), axis=axis) for i in range(len(sizes))
            )

        tape.record(out, parts, backward, "concat")
    return out


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    xshape = x.shape

    def backward(g: np.ndarray):
        full = np.zeros(xshape)
        full[idx] = g
        return (full,)

    return _unary(x, x.data[idx].copy(), backward, "narrow")


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    xshape = x.shape
    return _unary(x, x.data.reshape(shape).copy(), lambda g: (g.reshape(xshape),), "reshape")


def swapaxes(x: Tensor, ax1: int, ax2: int) -> Tensor:
    return _unary(
        x,
        np.ascontiguousarray(np.swapaxes(x.data, ax1, ax2)),
        lambda g: (np.swapaxes(g, ax1, ax2),),
        "swapaxes",
    )


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    """Permute axes: output axis i is input axis ``axes[i]``."""
    inverse = tuple(int(i) for i in np.argsort(axes))
    return _unary(
        x,
        np.ascontiguousarray(np.transpose(x.data, axes)),
        lambda g: (np.transpose(g, inverse),),
        "transpose",
    )


def gather_rows(x: Tensor, rows) -> Tensor:
    """Pick one row of each matrix in ``x`` [... x T x d]: ``rows`` is an int,
    or ints shaped like the leading axes. Returns [... x 1 x d]; for T = 1
    that is ``x`` itself, with no new tape node."""
    xd = x.data
    if xd.ndim < 2:
        raise ShapeError(f"gather_rows needs a >=2-d tensor, got {xd.shape}")
    lead, (steps, d) = xd.shape[:-2], xd.shape[-2:]
    r = np.broadcast_to(np.asarray(rows, dtype=np.intp), lead)
    if np.any((r < 0) | (r >= steps)):
        raise ShapeError(f"row indices {r} outside [0, {steps})")
    if steps == 1:
        return x
    idx = np.broadcast_to(r[..., None, None], lead + (1, d))
    xshape = xd.shape

    def backward(g: np.ndarray):
        full = np.zeros(xshape)
        np.put_along_axis(full, idx, g, axis=-2)
        return (full,)

    return _unary(x, np.take_along_axis(xd, idx, axis=-2), backward, "gather_rows")


_LN_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then apply gain and bias."""
    xd = x.data
    d = xd.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    # the same operations, in the same order, as xd.mean and xd.var, but the
    # centred values are computed once and reused for the output
    xhat = xd - xd.sum(axis=-1, keepdims=True) / d
    var = np.square(xhat).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    out_data = xhat * gain.data
    out_data += bias.data
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None:
        gd = gain.data

        def backward(g: np.ndarray):
            g2 = g.reshape(-1, d)
            xhat2 = xhat.reshape(-1, d)
            g_gain = (g2 * xhat2).sum(axis=0)
            g_bias = g2.sum(axis=0)
            gh = g * gd
            proj = (gh * xhat).sum(axis=-1, keepdims=True)
            proj /= d
            gx = gh - gh.sum(axis=-1, keepdims=True) / d
            gx -= xhat * proj
            gx *= inv
            return gx, g_gain, g_bias

        tape.record(out, (x, gain, bias), backward, "layer_norm")
    return out


def _softmax_weights(sd: np.ndarray, mask: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Masked softmax of an array over its last axis, and the [... x 1] flag of
    rows with at least one valid entry; a row without one comes back all zero."""
    if mask is None:
        e = sd - sd.max(axis=-1, keepdims=True)
        any_valid = np.ones(e.shape[:-1] + (1,), dtype=bool)
    else:
        m = np.broadcast_to(np.asarray(mask, dtype=bool), sd.shape)
        any_valid = m.any(axis=-1, keepdims=True)
        e = np.where(m, sd, -np.inf)
        e -= np.where(any_valid, e.max(axis=-1, keepdims=True, initial=-np.inf), 0.0)
    np.exp(e, out=e)  # masked entries: exp(-inf) = 0
    denom = e.sum(axis=-1, keepdims=True)
    e /= np.where(any_valid, denom, 1.0)
    return e, any_valid


def masked_softmax(scores: Tensor, mask: np.ndarray | None) -> tuple[Tensor, np.ndarray]:
    """Softmax over the last axis with optional boolean validity mask.

    ``mask`` must broadcast to ``scores.shape``; False entries get weight 0.
    Rows with no valid entry come back all-zero and are flagged in the
    returned boolean ``degenerate`` array (shape = row shape).
    """
    w, any_valid = _softmax_weights(scores.data, mask)
    out = Tensor(w)
    tape = _active_tape()
    if tape is not None:
        wd = out.data

        def backward(g: np.ndarray):
            dot = (g * wd).sum(axis=-1, keepdims=True)
            return (wd * (g - dot),)

        tape.record(out, (scores,), backward, "masked_softmax")
    return out, ~any_valid[..., 0]


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, key_mask=None) -> Tensor:
    """Multi-head scaled dot-product attention as one tape node.

    q [... x a x d], k and v [... x l x d] share their leading axes; the width
    d splits into ``heads`` heads of d/heads columns each. ``key_mask`` (bool,
    broadcast to [... x l]) hides keys, and a query with no valid key gets a
    zero output row. The node keeps the softmax weights [... x H x a x l] for
    backward instead of recomputing them from q and k.
    """
    qd, kd, vd = q.data, k.data, v.data
    *lead, a, d = qd.shape
    l = kd.shape[-2]
    if kd.shape != vd.shape or kd.shape[:-2] != tuple(lead) or kd.shape[-1] != d:
        raise ShapeError(f"attention needs q [..,a,d], k and v [..,l,d]; got {qd.shape}, {kd.shape}, {vd.shape}")
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"head count {heads} must divide width {d}")
    dk = d // heads
    scale = dk**-0.5
    mask = None
    if key_mask is not None:
        mask = np.broadcast_to(np.asarray(key_mask, dtype=bool), (*lead, l))[..., None, None, :]

    def split(x: np.ndarray, rows: int) -> np.ndarray:  # [... x rows x d] -> [... x H x rows x dk]
        return np.swapaxes(x.reshape(*lead, rows, heads, dk), -3, -2)

    def merge(x: np.ndarray, rows: int) -> np.ndarray:  # the inverse of split, as a fresh array
        out = np.empty((*lead, rows, d))
        split(out, rows)[...] = x
        return out

    qh, kh, vh = split(qd, a), split(kd, l), split(vd, l)
    w = _softmax_weights(qh @ np.swapaxes(kh, -1, -2) * scale, mask)[0]  # [... x H x a x l]
    out = Tensor(merge(w @ vh, a))
    tape = _active_tape()
    if tape is not None:

        def backward(g: np.ndarray):
            gh = split(g, a)
            g_v = np.swapaxes(w, -1, -2) @ gh
            g_w = gh @ np.swapaxes(vh, -1, -2)
            g_s = w * (g_w - (g_w * w).sum(axis=-1, keepdims=True))
            g_s *= scale
            return merge(g_s @ kh, a), merge(np.swapaxes(g_s, -1, -2) @ qh, l), merge(g_v, l)

        tape.record(out, (q, k, v), backward, "attention")
    return out


def softmax(scores: Tensor) -> Tensor:
    out, _ = masked_softmax(scores, None)
    return out


def causal_conv1d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """1-D convolution over time with left zero-padding of (k-1) rows.

    x: [... x T x c_in], kernel: [k x c_in x c_out], bias: [c_out]. Output
    row t depends only on input rows <= t of the same sequence.
    """
    xd, kd, bd = x.data, kernel.data, bias.data
    if xd.ndim < 2 or kd.ndim != 3 or xd.shape[-1] != kd.shape[1]:
        raise ShapeError(f"conv expects x [..,T,c_in], kernel [k,c_in,c_out]; got {xd.shape}, {kd.shape}")
    lead, (steps, c_in) = xd.shape[:-2], xd.shape[-2:]
    k, _, c_out = kd.shape
    if bd.shape != (c_out,):
        raise ShapeError(f"bias must have shape ({c_out},), got {bd.shape}")
    padded = np.zeros(lead + (steps + k - 1, c_in))
    padded[..., k - 1 :, :] = xd
    out_data = np.broadcast_to(bd, lead + (steps, c_out)).copy()
    for i in range(k):
        out_data += padded[..., i : i + steps, :] @ kd[i]
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None:

        def backward(g: np.ndarray):
            g_pad = np.zeros_like(padded)
            g_k = np.empty_like(kd)
            g_rows = g.reshape(-1, c_out)
            for i in range(k):
                g_pad[..., i : i + steps, :] += g @ kd[i].T
                g_k[i] = padded[..., i : i + steps, :].reshape(-1, c_in).T @ g_rows
            return g_pad[..., k - 1 :, :], g_k, g_rows.sum(axis=0)

        tape.record(out, (x, kernel, bias), backward, "causal_conv1d")
    return out


def bce_with_logits(logits: Tensor, targets, pos_weight: float = 1.0) -> Tensor:
    """Mean binary cross-entropy of sigmoid(logits) against {0,1} targets."""
    xd = logits.data
    y = np.broadcast_to(_as_const(targets), xd.shape)
    # stable: max(x,0) - x*y + log1p(exp(-|x|)), positives optionally reweighted
    base = np.maximum(xd, 0.0) - xd * y + np.log1p(np.exp(-np.abs(xd)))
    if pos_weight != 1.0:
        weight = np.where(y > 0.5, pos_weight, 1.0)
        base = base * weight
    out = Tensor(base.mean())
    tape = _active_tape()
    if tape is not None:
        n = xd.size
        s = _sigmoid(xd)

        def backward(g: np.ndarray):
            gx = (s - y) / n
            if pos_weight != 1.0:
                gx = gx * np.where(y > 0.5, pos_weight, 1.0)
            return (g * gx,)

        tape.record(out, (logits,), backward, "bce_with_logits")
    return out


@dataclass
class AdamState:
    """Per-parameter first/second moments plus hyperparameters."""

    lr: float = 4e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)


def adam_init(params: dict[str, Tensor], lr: float = 4e-4, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    """Fresh optimizer state. Moments are allocated per parameter at its first
    gradient, so parameters that never get one cost no memory."""
    return AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    skip: set[str] | None = None,
) -> tuple[dict[str, Tensor], AdamState]:
    """One bias-corrected Adam update, in place; missing grads count as zero.

    A parameter that has never had a gradient has zero moments, so its update
    is exactly zero: it is skipped and gets no moment arrays.
    """
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for name, p in params.items():
        if skip is not None and name in skip:
            continue
        g = grads.get(name)
        m = state.first_moment.get(name)
        if m is None:
            if g is None:
                continue
            m = state.first_moment[name] = np.zeros_like(p.data)
            state.second_moment[name] = np.zeros_like(p.data)
        if g is None:
            g = np.zeros_like(p.data)
        v = state.second_moment[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.data -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return params, state


def finite_difference_gradients(
    f: Callable[[], float],
    params: dict[str, Tensor],
    step: float = 1e-5,
) -> dict[str, np.ndarray]:
    """Central-difference gradients of a re-runnable scalar function.

    ``f`` must recompute the loss from the current contents of ``params``;
    entries are perturbed in place and restored.
    """
    out: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f()
            flat[i] = orig - step
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        out[name] = g
    return out


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Worst-case elementwise |a-b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
