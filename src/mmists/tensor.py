"""Dense float64 tensors with tape-based reverse-mode differentiation.

The tape is define-by-run: ops executed while a ``Tape`` is active are
recorded and can be replayed backwards to accumulate gradients. Tensors
created outside a tape (or plain numpy arrays / floats passed to ops) are
treated as constants. Everything is float64 and row-major.

The stack of open tapes is per thread, so threads record and sweep their own
tapes. Only ops are tape nodes; a node refers to a leaf (an input its tape
did not compute, such as a parameter) by the Tensor itself. A tape never
writes to a leaf, so one parameter can be read by several threads' tapes.

``ParamInit`` makes parameter tensors as consecutive views of one flat
buffer; ``buffer_views`` cuts a flat buffer into consecutive shaped views.
Adam sweeps the model's flat parameter buffer, its gradient and moments in
cache-sized chunks.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "Tape",
    "AdamState",
    "ParamInit",
    "buffer_views",
    "adam_init",
    "adam_step",
    "linear",
    "attention",
    "segment_time_attention",
    "add",
    "sub",
    "mul",
    "neg",
    "sigmoid",
    "relu",
    "reduce_mean",
    "concat",
    "reshape",
    "gather_rows",
    "layer_norm",
    "causal_conv1d",
    "bce_with_logits",
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


@dataclass
class _Node:
    op: str
    # one per input: its node id if this tape computed it, else the leaf Tensor
    inputs: tuple[int | Tensor, ...]
    backward: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None


_SPENT = _Node("spent", (), None)  # stands in for a node once backward has passed it


class Tape:
    """Ordered record of ops; replaying it backwards accumulates gradients.

    Node ids are topological by construction (inputs always precede their
    consumers), so one reverse sweep visits each node exactly once.
    """

    def __init__(self) -> None:
        self.nodes: list[_Node] = []
        # node id -> gradient while sweeping; leaf Tensor -> gradient after
        self.gradients: dict[int | Tensor, np.ndarray] = {}
        self._swept = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.tapes.pop()
        assert popped is self

    def record(
        self,
        out: Tensor,
        inputs: Sequence[Tensor],
        backward: Callable[[np.ndarray], tuple[np.ndarray, ...]],
        op: str,
    ) -> None:
        refs = tuple(t._node if t._tape is self else t for t in inputs)
        out._tape = self
        out._node = len(self.nodes)
        self.nodes.append(_Node(op, refs, backward))

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
        into = into or {}
        nodes = self.nodes
        for node_id in range(loss._node, -1, -1):
            node = nodes[node_id]
            nodes[node_id] = _SPENT
            g = grads.pop(node_id, None)
            if g is None:
                continue
            input_grads = node.backward(g)
            g_free = True  # g is dead after this node, so one input may take it over
            for ref, ig in zip(node.inputs, input_grads):
                if ig is None:
                    continue
                acc = grads.get(ref)
                if acc is None and ref in into:  # a leaf's first gradient
                    acc = grads[ref] = into[ref]
                if acc is not None:
                    acc += ig
                elif ig is g and g_free:
                    grads[ref] = g
                    g_free = False
                else:
                    # a view may alias a saved activation, and g may be taken
                    grads[ref] = ig.copy() if ig.base is not None or ig is g else ig

    def grad(self, t: Tensor) -> np.ndarray:
        """Gradient of the last backward() loss w.r.t. ``t`` (zeros if unused)."""
        g = self.grad_or_none(t)
        return np.zeros_like(t.data) if g is None else g

    def grad_or_none(self, t: Tensor) -> np.ndarray | None:
        return self.gradients.get(t)


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


def _time2vec_rows(times) -> np.ndarray:
    """The rows (t, 1) of n times, [n x 2]."""
    t = np.asarray(times, dtype=np.float64).reshape(-1)
    return np.stack((t, np.ones_like(t)), axis=1)


def _from_tangents(tangents: np.ndarray, linear_column: np.ndarray, sin=None, cos=None) -> None:
    """From the half-angle tangents tau [V x n x d_v], one head at a time:
    sin = 2 tau / (1 + tau^2) into ``sin``, whose column 0 becomes the linear
    column, and the slope cos = (1 - tau^2) / (1 + tau^2) into ``cos``, whose
    column 0 becomes 1. Either may be ``tangents`` itself. The forward and the
    backward rebuild both run through here, so a rebuilt value equals the
    forward's bit for bit."""
    tau_sq = np.empty_like(tangents[0])  # one head at a time: no second full-size array
    for v, tau in enumerate(tangents):
        np.multiply(tau, tau, out=tau_sq)
        if sin is not None:
            np.add(tau, tau, out=sin[v])
        if cos is not None:
            np.subtract(1.0, tau_sq, out=cos[v])
        tau_sq += 1.0
        if sin is not None:
            sin[v] /= tau_sq
        if cos is not None:
            cos[v] /= tau_sq
    if sin is not None:
        sin[..., 0] = linear_column
    if cos is not None:
        cos[..., 0] = 1.0


def _time2vec(tk: np.ndarray, od: np.ndarray, pd: np.ndarray, keep: bool = False):
    """Time2Vec of n times under V heads, [V x n x d_v]: the angles
    omega * t + phi as one [n x 2] @ [V x 2 x d_v] product of the rows (t, 1),
    with sin taken on the periodic columns. Returns (embedding, kept); ``kept``
    is None unless ``keep``, and then holds a copy of the half-angle tangents
    [V x n x d_v] and the linear column [V x n], from which
    ``_time2vec_rebuild`` gives back the embedding and its slope.

    sin and cos come from one tangent of the half angle, tau = tan(angle / 2):
    sin = 2 tau / (1 + tau^2) and cos = (1 - tau^2) / (1 + tau^2). numpy runs
    float64 ``tan`` as a SIMD loop where the CPU has one (AVX-512 on x86),
    while its float64 ``sin``/``cos`` go through scalar libm, several times
    slower. Both forms are within about 2.2e-16 of the true values. tan is
    finite at every double, since no double is an odd multiple of pi / 2, so
    the poles of tau at odd multiples of pi give sin of about 1e-16 and cos of
    -1, as they should.
    """
    emb = tk @ np.stack((od, pd), axis=1)
    linear_column = emb[..., 0].copy()
    emb *= 0.5
    # in place on every column, one contiguous SIMD pass (tan is finite, so
    # column 0 squares safely before it is overwritten)
    np.tan(emb, out=emb)
    kept = (emb.copy(), linear_column) if keep else None
    _from_tangents(emb, linear_column, sin=emb)
    return emb, kept


def _time2vec_rebuild(kept) -> tuple[np.ndarray, np.ndarray]:
    """(embedding, slope) from what a taped ``_time2vec`` kept, by the
    forward's own operations. The slope, d embedding / d angle, is 1 on the
    linear column and cos on the others; it overwrites the kept tangents,
    which a tape's single sweep reads once. The embedding is a fresh array."""
    tangents, linear_column = kept
    emb = np.empty_like(tangents)
    _from_tangents(tangents, linear_column, sin=emb, cos=tangents)
    return emb, tangents


def _time2vec_backward(tk: np.ndarray, slope: np.ndarray, g: np.ndarray):
    """(omega, phi) gradients of Time2Vec for the output gradient ``g``
    [V x n x d_v] and the rebuilt slope: the angle gradient is g * slope, and
    one [2 x n] product per head sums it against the rows (t, 1). Overwrites
    ``slope``."""
    slope *= g  # d loss / d angle
    g_bank = tk.T @ slope  # [V x 2 x d_v]
    return g_bank[:, 0], g_bank[:, 1]


def segment_time_attention(
    query_times, w_query: Tensor, w_key: Tensor, omega: Tensor, phi: Tensor, key_times, key_mask, values
) -> Tensor:
    """mTAND time attention of a query grid over padded series, as one tape
    node.

    ``query_times`` [a] and the keys' ``key_times`` are embedded with Time2Vec
    under the V heads of ``omega``/``phi`` [V x d_v]: column 0 is
    omega[:, 0] * t + phi[:, 0] (linear), column i >= 1 is
    sin(omega[:, i] * t + phi[:, i]). Under head v, query embedding e_q and
    key embedding e_k score (e_q W_q)(e_k W_k)^T / sqrt(d_v), with W_q and W_k
    that head's [d_v x d_v] of ``w_query`` and ``w_key`` [V x d_v x d_v]. The
    scores are taken as (((e_q W_q) W_k^T) / sqrt(d_v)) e_k^T, so the key
    projection is applied once to the a queries instead of to every key.

    ``key_times`` and ``key_mask`` are [*lead x m x L] and ``values``
    [*lead x m x L x c], all constants: m series of up to L keys per leading
    index, True mask entries being the valid keys. Each query takes a softmax
    over each series' own valid keys. Returns [*lead x a x V*m*c], C-order,
    so that ``linear`` reads it without a copy: entry v*m*c + j*c + k of row
    (*lead, i) mixes channel k of series j's values by query i's weights under
    head v, and a series without keys gives zeros (with no keys at all, the
    output is a constant and nothing is recorded).

    Nothing is padded: the work and the memory kept for backward (the
    Time2Vec tangents [V x n x d_v] and linear column [V x n], and the
    weights [V x n x a], for the n valid keys) are linear in the key count.
    The keys are dropped once scored; backward rebuilds them, the query
    embeddings and both Time2Vec slopes from the tangents, bit for bit, so it
    computes no transcendental. The bank gradients are the keys' share plus
    the queries'. The valid keys are taken in C order, so each series' keys
    are contiguous, and the series reductions run along the key axis with
    ``reduceat`` at the series starts.
    """
    od, pd, wqd, wkd = omega.data, phi.data, w_query.data, w_key.data
    if od.ndim != 2 or pd.shape != od.shape or wqd.shape != od.shape + od.shape[1:] or wkd.shape != wqd.shape:
        shapes = " ".join(str(x.shape) for x in (od, pd, wqd, wkd))
        raise ShapeError(f"omega, phi [V x d_v], w_query, w_key [V x d_v x d_v]; got {shapes}")
    mask = np.asarray(key_mask, dtype=bool)
    times, vals = _as_const(key_times), _as_const(values)
    if mask.ndim < 2 or times.shape != mask.shape or vals.shape[:-1] != mask.shape:
        raise ShapeError(
            f"key_times, key_mask [*lead x m x L], values [*lead x m x L x c]; "
            f"got {times.shape} {mask.shape} {vals.shape}"
        )
    *lead, m, length = mask.shape
    n_lead = math.prod(lead)
    tq = _time2vec_rows(query_times)
    v, d_v = od.shape
    a, c = tq.shape[0], vals.shape[-1]
    out = np.zeros((*lead, a, v * m * c))
    seg = np.nonzero(mask.reshape(n_lead * m, length))[0]  # each valid key's series, nondecreasing
    n = seg.size
    if n == 0:
        return Tensor(out)
    tk, vals = _time2vec_rows(times[mask]), vals[mask]
    starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
    counts = np.diff(np.r_[starts, n])
    lead_of, series_of = np.divmod(seg[starts], m)  # the series that have keys, in order
    # the output as [V x prod(lead) x m x a x c], a view: a series' rows are (lead_of, series_of)
    rows = out.reshape(n_lead, a, v, m, c).transpose(2, 0, 3, 1, 4)

    def spread(x: np.ndarray) -> np.ndarray:  # per-series [V x S x ...] -> per-key [V x n x ...]
        return np.repeat(x, counts, axis=1)

    tape = _active_tape()
    scale = d_v**-0.5
    emb_q, kept_q = _time2vec(tq, od, pd, keep=tape is not None)
    proj = emb_q @ wqd  # e_q W_q [V x a x d_v]
    qd = proj @ np.ascontiguousarray(np.swapaxes(wkd, 1, 2))
    qd *= scale  # the queries [V x a x d_v]
    keys, kept = _time2vec(tk, od, pd, keep=tape is not None)
    w = keys @ np.swapaxes(qd, 1, 2)  # scores [V x n x a], key-major so series are row blocks
    del keys
    w -= spread(np.maximum.reduceat(w, starts, axis=1))
    np.exp(w, out=w)
    w /= spread(np.add.reduceat(w, starts, axis=1))
    rows[:, lead_of, series_of] = np.add.reduceat(w[..., None] * vals[:, None, :], starts, axis=1)
    result = Tensor(out)
    if tape is not None:

        def backward(g: np.ndarray):
            g_rows = g.reshape(n_lead, a, v, m, c).transpose(2, 0, 3, 1, 4)
            g_mixed = spread(g_rows[:, lead_of, series_of])  # [V x n x a x c]
            g_w = (g_mixed * vals[:, None, :]).sum(axis=-1)
            g_s = g_w * w
            g_s -= w * spread(np.add.reduceat(g_s, starts, axis=1))  # softmax within each series
            keys, slope = _time2vec_rebuild(kept)
            g_q = np.swapaxes(g_s, 1, 2) @ keys
            g_keys = np.matmul(g_s, qd, out=keys)  # the keys are spent
            g_omega, g_phi = _time2vec_backward(tk, slope, g_keys)
            g_q *= scale  # back through the queries' projections and Time2Vec
            g_wk = np.swapaxes(g_q, 1, 2) @ proj
            g_proj = g_q @ wkd
            emb_q, slope_q = _time2vec_rebuild(kept_q)
            g_wq = np.swapaxes(emb_q, 1, 2) @ g_proj
            g_emb_q = g_proj @ np.swapaxes(wqd, 1, 2)
            return g_wq, g_wk, g_omega, g_phi, *_time2vec_backward(tq, slope_q, g_emb_q)

        # the bank is read twice, by the keys and by the queries: the tape adds
        # the two shares in that order, into its own gradient or a caller's
        tape.record(result, (w_query, w_key, omega, phi, omega, phi), backward, "segment_time_attention")
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


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    xshape = x.shape
    return _unary(x, x.data.reshape(shape).copy(), lambda g: (g.reshape(xshape),), "reshape")


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


def _softmax_weights(sd: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Softmax of a fresh array over its last axis, where ``mask`` (bool,
    broadcast to the array) marks the valid entries; a row without one comes
    back all zero. Without a mask the weights overwrite ``sd``."""
    if mask is None:
        # initial= takes numpy's faster reduction path for a short last axis
        e = sd
        e -= sd.max(axis=-1, keepdims=True, initial=-np.inf)
        any_valid = True
    else:
        m = np.broadcast_to(np.asarray(mask, dtype=bool), sd.shape)
        any_valid = m.any(axis=-1, keepdims=True)
        e = np.where(m, sd, -np.inf)
        e -= np.where(any_valid, e.max(axis=-1, keepdims=True, initial=-np.inf), 0.0)
    np.exp(e, out=e)  # masked entries: exp(-inf) = 0
    e /= np.where(any_valid, e.sum(axis=-1, keepdims=True), 1.0)
    return e


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
    scores = qh @ np.swapaxes(kh, -1, -2)
    scores *= scale
    w = _softmax_weights(scores, mask)  # [... x H x a x l]
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


def buffer_views(buffer: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views of the 1-d ``buffer`` with the given shapes, which
    must cover it whole."""
    sizes = [math.prod(shape) for shape in shapes]
    if sum(sizes) != buffer.size:
        raise ShapeError(f"shapes cover {sum(sizes)} values, the buffer holds {buffer.size}")
    ends = np.cumsum([0] + sizes).tolist()
    return [buffer[a:b].reshape(shape) for a, b, shape in zip(ends, ends[1:], shapes)]


class ParamInit:
    """Makes parameter Tensors as consecutive views of one flat ``buffer``, in
    the order they are made; ``size`` counts their values. With ``fill``, each
    view (or, with no buffer, an array of its own) gets ``draw(rng)``.
    Without, the views keep the buffer's values, and past its end, or with no
    buffer, tensors view one scratch array: only their shapes are real."""

    def __init__(self, buffer: np.ndarray | None = None, rng=None, fill: bool = True) -> None:
        self.buffer, self.rng, self.fill, self.size, self._scratch = buffer, rng, fill, 0, np.empty(0)

    def tensor(self, shape: tuple[int, ...], draw: Callable) -> Tensor:
        n = math.prod(shape)
        start, self.size = self.size, self.size + n
        if self.buffer is not None and self.size <= self.buffer.size:
            data = self.buffer[start : self.size].reshape(shape)
        elif self.fill:
            data = np.empty(shape)
        else:
            self._scratch = self._scratch if self._scratch.size >= n else np.empty(n)
            data = self._scratch[:n].reshape(shape)
        if self.fill:
            data[...] = draw(self.rng)
        return Tensor(data)

    def normal(self, scale: float, shape: tuple[int, ...]) -> Tensor:
        return self.tensor(shape, lambda rng: rng.normal(0.0, scale, size=shape))

    def full(self, value: float, shape: tuple[int, ...]) -> Tensor:
        return self.tensor(shape, lambda _rng: value)


# Adam's moment decay rates and denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """The parameters' flat buffer, a gradient buffer and the first/second
    moments in the same layout, plus the learning rate."""

    param_buffer: np.ndarray
    grad_buffer: np.ndarray
    lr: float = 4e-4
    step_count: int = 0
    # allocated, zero, at the first step: a state that never steps holds none
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None


def adam_init(param_buffer: np.ndarray, lr: float = 4e-4) -> AdamState:
    """Fresh optimizer state over the flat ``param_buffer``, kept as it is and
    updated in place, with a zero gradient buffer of its size."""
    return AdamState(param_buffer, np.zeros(param_buffer.size), lr)


# Elements per Adam pass: the chunk's parameter, gradient, moments and two
# scratch arrays (6 x 256 KB) stay in cache across the update's 12 passes.
_ADAM_CHUNK = 1 << 15


def adam_step(params: dict[str, Tensor], state: AdamState) -> tuple[dict[str, Tensor], AdamState]:
    """One bias-corrected Adam update, in place, from ``state.grad_buffer``.

    ``params`` maps names to the tensors that view ``state.param_buffer``;
    the caller writes their gradients into ``state.grad_buffer`` in the same
    layout (zero for a parameter without one). The update sweeps the flat parameter, gradient and moment buffers in chunks of
    ``_ADAM_CHUNK`` elements. Every parameter has zero moments before its
    first gradient, so until then its update is exactly zero.

    The operations and their order are those of the textbook expressions
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g^2`` and
    ``p -= lr (m / c1) / (sqrt(v / c2) + eps)``, so the result is bit-identical.
    """
    size = state.param_buffer.size
    if state.first_moment is None:
        state.first_moment, state.second_moment = np.zeros(size), np.zeros(size)
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    step_buf, denom_buf = np.empty(min(size, _ADAM_CHUNK)), np.empty(min(size, _ADAM_CHUNK))
    for a in range(0, size, _ADAM_CHUNK):
        b = min(a + _ADAM_CHUNK, size)
        m, v, g = state.first_moment[a:b], state.second_moment[a:b], state.grad_buffer[a:b]
        step, denom = step_buf[: b - a], denom_buf[: b - a]
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=step)
        v *= ADAM_BETA2
        np.multiply(g, g, out=step)
        v += np.multiply(1.0 - ADAM_BETA2, step, out=step)
        np.divide(m, c1, out=step)
        step *= state.lr
        np.divide(v, c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        state.param_buffer[a:b] -= step
    return params, state
