"""Gradient-check helpers the tests share: three tape ops the model does not
run, and central finite differences to compare tape gradients against.

``sin``, ``reduce_sum`` and ``transpose`` record on the package's ``Tape``
through ``tensor._unary``, like the shipped unary ops.
"""

from typing import Callable

import numpy as np

from mmists.tensor import Tensor, _unary


def sin(x: Tensor) -> Tensor:
    xd = x.data
    return _unary(x, np.sin(xd), lambda g: (g * np.cos(xd),), "sin")


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    xshape = x.shape

    def backward(g: np.ndarray):
        if axis is None:
            return (np.broadcast_to(g, xshape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, xshape).copy(),)

    return _unary(x, np.sum(x.data, axis=axis, keepdims=keepdims), backward, "sum")


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    """Permute axes: output axis i is input axis ``axes[i]``."""
    inverse = tuple(int(i) for i in np.argsort(axes))
    return _unary(
        x,
        np.ascontiguousarray(np.transpose(x.data, axes)),
        lambda g: (np.transpose(g, inverse),),
        "transpose",
    )


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
