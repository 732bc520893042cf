"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Provides exactly the operations the concept head needs: matrix products,
layer norm, pointwise arithmetic, exp, a floored log (the only log),
reductions, and a way to record a hand-written fused op (`record`; the
head's slot-refinement step and its three readback ops are such ops). The
operation record is rebuilt on every forward pass (define-by-run) and
`backward` consumes it: the walk runs in reverse topological order and
drops each node's closure, inputs and delta as soon as it has passed the
node, so memory falls as the walk goes.
A second `backward` over a walked record raises RecordConsumedError; a
fresh gradient needs a fresh forward. Inside `no_grad()` no record is kept
at all, and that is also the one way to stop a gradient: a tensor made
there is a constant to the ops recorded after it.

Finite values: every Tensor holds finite values, so a non-finite op output
raises the NumericError that names the op ("matmul produced non-finite
values"), recorded or not. An op's output is checked unless the op cannot
make a non-finite value from finite inputs: pick copies values, clamped_log
takes the log of a value of at least LOG_FLOOR, and log_sum_exp adds a log
in [0, log n] to the row max. A fused op checks only the values where a
non-finite value could vanish before it reaches the op's output: IEEE +, -,
*, / and matmul never turn a NaN finite, and ±inf vanishes only in a
saturating function (exp of -inf, a sigmoid, a tanh). head.slot_step checks
its scaled scores and its three gate and candidate pre-activations. The
readback's maps check their scaled scores only: a non-finite query or key
makes a whole row or column of scores non-finite (inf * 0 is NaN), and the
softmax gives values in [0, 1] from finite scores. Its logits check only
themselves: a non-finite value, map product or merged row reaches them
through matmuls with the maps and the output matrix and through the row
mean, none of which turns it finite, and the head mean of maps in [0, 1] is
finite. A fused op's output is then finite, so it is not checked. On a
failed check it runs again with a check at every step of the chain it
fuses, so its error names the chain's first op that made a non-finite
value.

The record is slim: it holds the graph, not the op outputs. A recorded op
output carries a `_Node` with its parents' record entries (a parent's node,
or the parent tensor itself when it is a leaf or a constant), its VJP and
its shape. Each VJP keeps only the arrays or shapes it reads, so an
intermediate no VJP reads (an `add` or `sub` output) is freed as soon
as the code that made it drops it. Whether each input takes a gradient is
also decided when the op is recorded: a VJP gives None for an input that
does not (a constant such as the features or the slot noise), and computes
nothing for it.

Axis convention: the last two axes of a tensor are one matrix (rows,
columns) and any axes before them are leading axes, one index per sample
(and, inside the readback, per head). Every op acts on the last axis or the
last two, so a (B, ...) stack gives the same numbers as B separate calls on
its slices. A parameter is a plain 2-D (or (1, n) row) tensor that all
samples share: matmul, add and mul broadcast it over the leading axes, and
the walk sums its gradient back over them. With one sample (a leading axis
of length 1) that sum is the lone slice itself.

Per-sample walk: `backward(loss, per_sample=True)` takes a (B,) loss, one
entry per sample of a stack, and gives every leaf the gradient that B
one-sample walks in sample order would give, bit for bit. Each record entry
knows from its making whether it is shared, i.e. carries no sample axis: a
leaf that requires grad (a parameter) is, a constant never is, and an op
output is when all its inputs are, such as exp(log_sigma). A shared tensor
is made per-sample by combining it with a per-sample constant, as mu +
sigma * eps does (boqsa adds its queries to zeros). A shared tensor's delta
keeps the sample axis, (B, *shape): each broadcast sums within its sample
only, and a leaf adds its B slices into .grad in sample order, which is the
order of B one-sample walks.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable

import numpy as np

from .errors import NumericError, RecordConsumedError, ShapeError

# no_grad is the one gradient stop and clamped_log the one log. no_grad,
# grad_enabled and the arithmetic helpers of fused ops (checked,
# normalize_rows, layer_norm_dx) are not listed. perfbench traces every
# listed function and counts its calls, also those under no_grad, as tape
# nodes: a fused op counts once, through `record`.
__all__ = [
    "Tensor",
    "matmul",
    "add",
    "sub",
    "mul",
    "scale",
    "exp",
    "LOG_FLOOR",
    "clamped_log",
    "layer_norm",
    "reduce_mean_axis",
    "reduce_sum",
    "log_sum_exp",
    "pick",
    "vecmat",
    "record",
    "backward",
]

# Off inside no_grad(): ops then keep no parents or closures.
_grad_enabled = True


def grad_enabled() -> bool:
    """Whether ops are recorded here: False inside no_grad()."""
    return _grad_enabled


@contextlib.contextmanager
def no_grad():
    """Forward-only region: op outputs never require grad and keep no record.

    Values and finite checks are those of a recorded pass (see the module
    docstring for which values are checked). Regions nest; the
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

    A recorded operation output holds its `_Node` (see _Node); every other
    tensor (a leaf or a constant) has none and is its own record entry, one
    with no parents and no VJP, shared exactly when it requires grad.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")
    # a tensor as a record entry: always a leaf
    _parents: tuple = ()
    _vjp = None

    def __init__(self, data, requires_grad: bool = False, finite: bool = False):
        """finite=True: the caller has checked that data is finite, so it is
        not checked again."""
        arr = np.asarray(data, dtype=np.float64, order="C")
        if not (finite or np.isfinite(arr).all()):
            raise NumericError("tensor holds non-finite values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def shared(self) -> bool:
        """Whether the tensor carries no sample axis (see the module docstring)."""
        return self._node.shared if self._node is not None else self.requires_grad

    def reset_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    """The record entry of one recorded op output: its parents' entries, its
    VJP, its shape and whether it is shared (all its parents are), but not
    its value. The walk sets both parents and vjp to None once it has passed
    the node."""

    __slots__ = ("_parents", "_vjp", "shape", "shared")
    requires_grad = True

    def __init__(self, parents: tuple, vjp: Callable[[np.ndarray], tuple],
                 shape: tuple[int, ...]):
        self._parents: tuple | None = parents
        self._vjp: Callable[[np.ndarray], tuple] | None = vjp
        self.shape = shape
        self.shared = all(p.shared for p in parents)

    def __repr__(self) -> str:
        return f"_Node(shape={self.shape})"


def checked(data: np.ndarray, op: str) -> np.ndarray:
    """data itself when every value is finite; otherwise the NumericError
    that names op, as an op's output check raises it. A fused op calls it
    where a non-finite value could vanish before its output check (see the
    module docstring)."""
    if not np.isfinite(data).all():
        raise NumericError(f"{op} produced non-finite values")
    return data


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp, op: str,
          finite: bool = False) -> Tensor:
    """The op's output tensor. Its values are checked unless the op passes
    finite=True: an output that is finite for every finite input."""
    if not finite:
        checked(data, op)
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64, order="C")
    out.grad = None
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    out._node = (_Node(tuple(p._node or p for p in parents), vjp, out.data.shape)
                 if out.requires_grad else None)
    return out


def record(data: np.ndarray, parents: tuple[Tensor, ...],
           vjp: Callable[[np.ndarray], Iterable], op: str, finite: bool = False) -> Tensor:
    """Record a hand-written op whose output data the caller computed from
    the parents' values.

    vjp(g) gives one contribution per parent, in parents order, or None for
    a parent that takes no gradient; a parent listed twice gets its two
    contributions added in that order. It may be a generator: the walk then
    takes each contribution in before it asks for the next. A non-finite
    output raises the NumericError that names op, unless the caller passes
    finite=True, as _make takes it: an output its own checks have already
    shown to be finite.
    """
    return _make(data, parents, vjp, op, finite)


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    """b may broadcast over a: equal shapes, a tensor matching a's trailing
    axes (positions (C, d) over (B, C, d)), or a (1, n) row over (..., m, n)."""
    if (a.shape == b.shape
            or (0 < b.data.ndim < a.data.ndim and a.shape[-b.data.ndim:] == b.shape)
            or (b.data.ndim == 2 and b.shape[0] == 1 and a.data.ndim >= 2
                and a.shape[-1] == b.shape[1])):
        return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not match (only a (1, n) "
                     "row or a tensor matching the trailing axes broadcasts)")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...], samples: int = 0) -> np.ndarray:
    """Sum the gradient of a broadcast operand back down to its shape.

    A tensor shared over leading axes sums over them in sample order; with
    one sample that is the lone slice. A (1, n) row sums over all rows, which
    for a 2-D g is g.sum(axis=0, keepdims=True) itself. With samples=B the
    first axis of g is the sample axis of a per-sample walk and the sums run
    within each sample only, giving (B, *shape).
    """
    lead = (samples,) if samples else ()
    if g.shape == lead + shape:
        return g
    axis = len(lead)
    if g.shape[-len(shape):] == shape:
        g = g.reshape(lead + (-1,) + shape)
        return g.sum(axis=axis) if g.shape[axis] > 1 else g.squeeze(axis)
    return g.reshape(lead + (-1, shape[-1])).sum(axis=axis, keepdims=True)


def _swap_last(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., m, k) @ (..., k, n) with equal leading axes, or with one side a
    2-D matrix that every leading index shares."""
    if (a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]
            or (a.data.ndim > 2 and b.data.ndim > 2 and a.shape[:-2] != b.shape[:-2])):
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    # each input's gradient reads the other input only
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def vjp(g):
        return (None if b_data is None else g @ _swap_last(b_data),
                None if a_data is None else _swap_last(a_data) @ g)

    return _make(a.data @ b.data, (a, b), vjp, "matmul")


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b; b may broadcast over a (see _check_broadcast)."""
    _check_broadcast(a, b, "add")

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
    """a * b elementwise; b may broadcast over a (see _check_broadcast)."""
    _check_broadcast(a, b, "mul")
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def vjp(g):
        return (None if b_data is None else g * b_data,
                None if a_data is None else g * a_data)

    return _make(a.data * b.data, (a, b), vjp, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    def vjp(g):
        return (g * c,)

    return _make(a.data * c, (a,), vjp, "scale")


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow surfaces as NumericError below
        out_data = np.exp(a.data)

    def vjp(g):
        return (g * out_data,)

    return _make(out_data, (a,), vjp, "exp")


# The one log floor: clamped_log's output never falls below log(LOG_FLOOR).
LOG_FLOOR = 1e-9


def clamped_log(a: Tensor) -> Tensor:
    """log(max(x, LOG_FLOOR)): finite at zero, gradient bounded by 1/LOG_FLOOR
    and zero at and below the floor."""
    a_data = a.data
    clamped = np.maximum(a_data, LOG_FLOOR)

    def vjp(g):
        return (np.where(a_data > LOG_FLOOR, g / clamped, 0.0),)

    # the log of a value in [LOG_FLOOR, max double] is finite
    return _make(np.log(clamped), (a,), vjp, "clamped_log", finite=True)


def normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """layer_norm's normalized rows, (x - mean) / sqrt(var + 1e-5) over the
    last axis with the population variance, and the 1 / sqrt(var + 1e-5)
    of each row."""
    centered = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-5)
    centered *= inv_std
    return centered, inv_std


def layer_norm_dx(dxhat: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray) -> np.ndarray:
    """layer_norm's input gradient from the delta of its normalized rows."""
    return inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                      - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization over the last axis (see normalize_rows),
    followed by an affine gain/bias that every row shares."""
    if x.data.ndim < 2:
        raise ShapeError(f"layer_norm: expected at least 2 axes, got shape {x.shape}")
    d = x.shape[-1]
    if d < 1:
        raise ShapeError("layer_norm: rows must have at least one element")
    xhat, inv_std = normalize_rows(x.data)
    g_row = gain.data.reshape(1, d)
    b_row = bias.data.reshape(1, d)
    need_x, need_gain, need_bias = x.requires_grad, gain.requires_grad, bias.requires_grad

    def vjp(g):
        return (layer_norm_dx(g * g_row, xhat, inv_std) if need_x else None,
                g * xhat if need_gain else None, g if need_bias else None)

    return _make(xhat * g_row + b_row, (x, gain, bias), vjp, "layer_norm")


def reduce_mean_axis(a: Tensor, axis: int) -> Tensor:
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"reduce_mean_axis: axis {axis} invalid for shape {a.shape}")
    shape = a.shape
    n = shape[axis]
    if n == 0:
        raise ShapeError("reduce_mean_axis: zero-length axis")

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g, axis) / n, shape),)

    return _make(a.data.mean(axis=axis), (a,), vjp, "reduce_mean_axis")


def reduce_sum(a: Tensor, keep: int = 0) -> Tensor:
    """Sum over every axis after the first `keep`: keep=0 sums all entries to
    a scalar, keep=1 gives one sum per sample of a (B, ...) stack."""
    if not 0 <= keep <= a.data.ndim:
        raise ShapeError(f"reduce_sum: cannot keep {keep} axes of shape {a.shape}")
    shape = a.shape
    lead = shape[:keep]

    def vjp(g):
        return (np.broadcast_to(g.reshape(lead + (1,) * (len(shape) - keep)), shape),)

    return _make(np.asarray(a.data.reshape(lead + (-1,)).sum(axis=-1)), (a,), vjp, "reduce_sum")


def log_sum_exp(a: Tensor) -> Tensor:
    """Stable log(sum(exp(x))) over the last axis: a scalar for a 1-D vector,
    one value per row otherwise."""
    if a.data.ndim < 1:
        raise ShapeError(f"log_sum_exp: expected at least 1 axis, got shape {a.shape}")
    m = a.data.max(axis=-1, keepdims=True)
    e = np.exp(a.data - m)
    z = e.sum(axis=-1, keepdims=True)
    # math.log once per row: np.log differs from it in the last bit on some inputs
    logs = np.array([math.log(v) for v in z.ravel().tolist()]).reshape(z.shape)

    def vjp(g):
        return (np.expand_dims(g, -1) * e / z,)

    # the row max plus a log in [0, log n]: finite (each sum lies in [1, n])
    return _make((m + logs)[..., 0], (a,), vjp, "log_sum_exp", finite=True)


def pick(a: Tensor, index) -> Tensor:
    """Entry `index` of a 1-D vector (scalar output), or one entry per row of
    (..., n) rows, index holding one position per row."""
    idx = np.asarray(index)
    if a.data.ndim < 1 or idx.shape != a.shape[:-1]:
        raise ShapeError(f"pick: index shape {idx.shape} does not match the rows of {a.shape}")
    n = a.shape[-1]
    if np.any((idx < 0) | (idx >= n)):
        raise IndexError(f"pick: index {index} out of range for length {n}")
    flat = idx + n * np.arange(idx.size).reshape(idx.shape)
    shape, size = a.shape, a.data.size

    def vjp(g):
        out = np.zeros(size)
        out[flat] = g
        return (out.reshape(shape),)

    # a copy of finite values
    return _make(np.asarray(a.data.reshape(-1)[flat]), (a,), vjp, "pick", finite=True)


def vecmat(v: Tensor, m: Tensor) -> Tensor:
    """(n,) vector times (n, k) matrix -> (k,) vector."""
    if v.data.ndim != 1 or m.data.ndim != 2 or v.shape[0] != m.shape[0]:
        raise ShapeError(f"vecmat: incompatible shapes {v.shape} and {m.shape}")
    v_data, m_data = v.data, m.data

    def vjp(g):
        return m_data @ g, np.outer(v_data, g)

    return _make(v_data @ m_data, (v, m), vjp, "vecmat")


def _ordered_record(root: Tensor | _Node) -> tuple[list[Tensor | _Node], dict[int, int]]:
    """Record entries in forward (topological) order, producers before
    consumers, and for each leaf that requires grad (by id) how many times
    the record's nodes list it as a parent."""
    order: list[Tensor | _Node] = []
    uses: dict[int, int] = {}
    visited: set[int] = set()
    stack: list[tuple[Tensor | _Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node._parents is None:
            raise RecordConsumedError(
                f"backward already walked the record behind {node!r}; "
                "run the forward again for a new gradient")
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent._vjp is None and parent.requires_grad:
                uses[id(parent)] = uses.get(id(parent), 0) + 1
            if id(parent) not in visited:
                stack.append((parent, False))
    return order, uses


def _fold(leaf: Tensor, delta: np.ndarray, samples: int) -> None:
    """Add a leaf's complete delta into its .grad: .grad, then the delta's
    samples in sample order (a scalar walk's delta is one sample)."""
    slices = delta if samples else delta[None]
    if leaf.grad is None:
        # the bits of adding the slices to zeros: + 0.0 turns a sum of -0.0
        # terms into 0.0
        leaf.grad = np.add.reduce(slices, axis=0) + 0.0
    else:
        leaf.grad = np.add.reduce(np.concatenate([leaf.grad[None], slices]), axis=0)


def backward(loss: Tensor, per_sample: bool = False) -> None:
    """Accumulate d(loss)/d(leaf) into .grad of every participating leaf.

    Leaves are the tensors that require grad but no op made (parameters,
    inputs built with requires_grad=True); op outputs get no .grad.
    Gradients add across calls, so reset grads first for fresh values.

    The loss is a scalar, or with per_sample=True a (B,) vector of per-sample
    losses of one stacked forward, seeded with ones. The caller says which:
    a (B,) loss's shape does not tell. A per-sample loss must not be shared,
    i.e. its sample axis must come from a constant (ShapeError otherwise,
    before any .grad changes). Each leaf then gets the gradient of B
    one-sample walks run in sample order, bit for bit (see the module
    docstring); a scalar walk adds its delta as one sample.

    The walk consumes the record: each node's closure, inputs and delta are
    dropped once the walk has passed it, and a leaf's delta is added into its
    .grad as soon as the last node that lists it has given its contribution.
    Walking a loss, or any tensor recorded before it, a second time raises
    RecordConsumedError.
    """
    if per_sample:
        if loss.data.ndim != 1:
            raise ShapeError(f"per-sample backward requires a (B,) loss, got shape {loss.shape}")
    elif loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    root = loss._node or loss
    order, uses = _ordered_record(root)
    if not loss.requires_grad:
        return
    if per_sample and root.shared:
        raise ShapeError("per-sample backward needs a loss whose sample axis comes from a "
                         "constant; the leaves that require grad are taken as shared")
    samples = loss.shape[0] if per_sample else 0
    deltas: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    while order:
        node = order.pop()
        delta = deltas.pop(id(node), None)
        if node._vjp is None:
            # a leaf (the root itself, or one a contribution skipped)
            if delta is not None and node.requires_grad:
                _fold(node, delta, samples)
            continue
        if delta is not None:
            for parent, contrib in zip(node._parents, node._vjp(delta)):
                if contrib is None or not parent.requires_grad:
                    continue
                contrib = _unbroadcast(contrib, parent.shape, samples if parent.shared else 0)
                key = id(parent)
                prev = deltas.get(key)
                # No stored delta is changed in place: a VJP may hand one array
                # to two parents, so a later contribution adds out of place.
                if prev is None:
                    deltas[key] = np.asarray(contrib, dtype=np.float64, order="C")
                else:
                    deltas[key] = prev + contrib
                if parent._vjp is None:  # a leaf: fold once its last consumer gave
                    uses[key] -= 1
                    if not uses[key]:
                        _fold(parent, deltas.pop(key), samples)
        node._vjp = None
        node._parents = None
