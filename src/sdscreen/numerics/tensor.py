"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

Every differentiable operation validates its inputs, checks the result for
NaN/Inf (a numeric error, never a silent value), and, when a tape is active
and an input requires gradients, records a backward closure. Replaying the
tape in reverse populates ``grad`` on every leaf that requires gradients.

Replay consumes the tape: each entry is popped before its closure runs and
the output's ``grad`` is taken off it, so a closure, the arrays it captured
and the intermediate gradient it received are freed as soon as the backward
pass moves past them. Afterwards the tape is empty and only leaves (the
parameters and any input tensor created with ``requires_grad``) keep a
``grad``; intermediates do not.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import ContractError, NumericError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "tensor",
    "backward",
    "add",
    "sub",
    "mul",
    "div",
    "add_scalar",
    "mul_scalar",
    "matmul",
    "dot",
    "exp",
    "log",
    "relu",
    "sigmoid",
    "clip",
    "tsum",
    "sum_sorted",
    "mean_over_set",
    "concat",
    "stack",
    "reshape",
    "transpose",
    "glorot_uniform",
]


def _as_float64(data) -> np.ndarray:
    """Contiguous float64 view-or-copy that keeps 0-d arrays 0-d."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


class Tensor:
    """A row-major float64 array with an optional gradient accumulator."""

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = _as_float64(data)
        if any(extent <= 0 for extent in arr.shape):
            raise ShapeError(f"tensor extents must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor holds non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, contribution: np.ndarray) -> None:
        if contribution.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {contribution.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += contribution

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


class Tape:
    """Ordered record of executed differentiable ops.

    Used as a context manager around a forward pass; ``backward`` replays the
    record once, in reverse, accumulating into each input exactly once per
    recorded use. The replay pops every entry and clears each intermediate's
    ``grad`` as it goes, so the tape is empty afterwards and keeps nothing
    alive; leaves keep their accumulated ``grad``.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def record(self, out: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
        out._tape = self
        self._entries.append((out, backward_fn))

    def __len__(self) -> int:
        return len(self._entries)

    def backward(self, loss: Tensor) -> None:
        if self._consumed:
            raise ContractError("tape already replayed; build a fresh tape per backward pass")
        if loss.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._tape is not self:
            raise ContractError("loss was not recorded on this tape")
        self._consumed = True
        loss.grad = np.ones((), dtype=np.float64)
        entries = self._entries
        while entries:
            out, backward_fn = entries.pop()
            grad, out.grad = out.grad, None
            if grad is not None:  # None: not an ancestor of the loss
                backward_fn(grad)
            del out, backward_fn, grad


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def backward(loss: Tensor) -> None:
    """Populate grads of every requires_grad tensor the loss depends on."""
    if loss._tape is None:
        raise ContractError("loss is not attached to a tape; run the forward pass inside `with Tape()`")
    loss._tape.backward(loss)


def _finish(op: str, data: np.ndarray, inputs: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], None] | None) -> Tensor:
    """Wrap an op result: finiteness check, grad flag, tape registration."""
    if not np.all(np.isfinite(data)):
        raise NumericError(f"{op} produced non-finite values")
    requires = any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = _as_float64(data)
    out.requires_grad = requires
    out.grad = None
    out._tape = None
    tape = _active_tape()
    if requires and tape is not None and backward_fn is not None:
        tape.record(out, backward_fn)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> tuple[int, ...]:
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not compatible") from None


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    data = a.data + b.data

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return _finish("add", data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)
    data = a.data - b.data

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g, b.shape))

    return _finish("sub", data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    data = a.data * b.data
    a_data, b_data = a.data, b.data

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b_data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a_data, b.shape))

    return _finish("mul", data, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("div", a, b)
    if np.any(b.data == 0.0):
        raise NumericError("div: denominator contains zeros")
    data = a.data / b.data
    b_data, out_data = b.data, data

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g / b_data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g * out_data / b_data, b.shape))

    return _finish("div", data, (a, b), bwd)


def add_scalar(a: Tensor, c: float) -> Tensor:
    data = a.data + float(c)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g)

    return _finish("add_scalar", data, (a,), bwd)


def mul_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    data = a.data * c

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * c)

    return _finish("mul_scalar", data, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow surfaces as NumericError below
        data = np.exp(a.data)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * data)

    return _finish("exp", data, (a,), bwd)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise NumericError("log: input must be strictly positive")
    data = np.log(a.data)
    a_data = a.data

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g / a_data)

    return _finish("log", data, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * (a.data > 0.0))

    return _finish("relu", data, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    # Branch on sign so neither exponential can overflow.
    x = a.data
    data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * data * (1.0 - data))

    return _finish("sigmoid", data, (a,), bwd)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    if not lo < hi:
        raise ContractError(f"clip: lo={lo} must be < hi={hi}")
    data = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * inside)

    return _finish("clip", data, (a,), bwd)


# ---------------------------------------------------------------------------
# contractions and reductions


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim not in (1, 2) or b.data.ndim not in (1, 2):
        raise ShapeError(f"matmul supports rank 1 or 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != (b.shape[0] if b.data.ndim >= 1 else None):
        raise ShapeError(f"matmul: inner extents differ ({a.shape} @ {b.shape})")
    data = a.data @ b.data
    a_data, b_data = a.data, b.data

    def bwd(g: np.ndarray) -> None:
        ga = g
        if a.requires_grad:
            if a_data.ndim == 2 and b_data.ndim == 2:
                a.accumulate_grad(ga @ b_data.T)
            elif a_data.ndim == 2 and b_data.ndim == 1:
                a.accumulate_grad(np.outer(ga, b_data))
            elif a_data.ndim == 1 and b_data.ndim == 2:
                a.accumulate_grad(b_data @ ga)
            else:  # 1-D @ 1-D
                a.accumulate_grad(ga * b_data)
        if b.requires_grad:
            if a_data.ndim == 2 and b_data.ndim == 2:
                b.accumulate_grad(a_data.T @ ga)
            elif a_data.ndim == 2 and b_data.ndim == 1:
                b.accumulate_grad(a_data.T @ ga)
            elif a_data.ndim == 1 and b_data.ndim == 2:
                b.accumulate_grad(np.outer(a_data, ga))
            else:
                b.accumulate_grad(ga * a_data)

    return _finish("matmul", data, (a, b), bwd)


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or b.data.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"dot needs two equal-length vectors, got {a.shape} and {b.shape}")
    data = np.array(a.data @ b.data)
    a_data, b_data = a.data, b.data

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * b_data)
        if b.requires_grad:
            b.accumulate_grad(g * a_data)

    return _finish("dot", data, (a, b), bwd)


def tsum(a: Tensor) -> Tensor:
    data = np.array(a.data.sum())

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, float(g)))

    return _finish("tsum", data, (a,), bwd)


def sum_sorted(a: Tensor, axis: int) -> Tensor:
    """Sum along one axis after value-sorting it.

    The sorted order depends only on the multiset of values, so the result is
    bitwise invariant to permutations of the input along that axis. Used where
    permutation equivariance must hold exactly, not merely to rounding.
    """
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"sum_sorted: axis {axis} out of range for shape {a.shape}")
    data = np.sort(a.data, axis=axis).sum(axis=axis)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(np.broadcast_to(np.expand_dims(g, axis % a.data.ndim), a.shape).copy())

    return _finish("sum_sorted", data, (a,), bwd)


def mean_over_set(tensors: Sequence[Tensor]) -> Tensor:
    """Elementwise mean of a nonempty set of same-shape tensors."""
    if len(tensors) == 0:
        raise ContractError("mean_over_set needs at least one tensor")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise ShapeError(f"mean_over_set: mixed shapes {shape} and {t.shape}")
    n = len(tensors)
    acc = np.zeros(shape, dtype=np.float64)
    for t in tensors:
        acc += t.data
    data = acc / n

    def bwd(g: np.ndarray) -> None:
        share = g / n
        for t in tensors:
            if t.requires_grad:
                t.accumulate_grad(share)

    return _finish("mean_over_set", data, tuple(tensors), bwd)


# ---------------------------------------------------------------------------
# structural ops


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate 1-D tensors into one vector."""
    if len(tensors) == 0:
        raise ContractError("concat needs at least one tensor")
    for t in tensors:
        if t.data.ndim != 1:
            raise ShapeError(f"concat handles 1-D tensors, got shape {t.shape}")
    data = np.concatenate([t.data for t in tensors])
    offsets = np.cumsum([0] + [t.size for t in tensors])

    def bwd(g: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t.accumulate_grad(g[start:stop])

    return _finish("concat", data, tuple(tensors), bwd)


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack same-shape tensors along a new leading axis."""
    if len(tensors) == 0:
        raise ContractError("stack needs at least one tensor")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise ShapeError(f"stack: mixed shapes {shape} and {t.shape}")
    data = np.stack([t.data for t in tensors])

    def bwd(g: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t.accumulate_grad(g[i])

    return _finish("stack", data, tuple(tensors), bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    data = a.data.reshape(shape)
    old_shape = a.shape

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g.reshape(old_shape))

    return _finish("reshape", data, (a,), bwd)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose handles rank-2 tensors, got {a.shape}")
    data = a.data.T

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g.T)

    return _finish("transpose", data, (a,), bwd)


# ---------------------------------------------------------------------------
# initialization


def glorot_uniform(shape: tuple[int, ...], fan_in: int, fan_out: int,
                   rng: np.random.Generator) -> Tensor:
    """Learnable-weight init: uniform in +/- sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
