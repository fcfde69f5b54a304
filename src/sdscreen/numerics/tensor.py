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

``recomputed`` trades compute for memory (gradient checkpointing): it maps a
function over items with no tape, on a pool of threads, and records one entry
per output, which re-runs the function under a local tape in backward. This
module owns those threads and holds glibc's malloc to one arena; when they
run is described in ``recomputed``.

The stack of active tapes is per thread: an op records on a tape only when
its own thread entered it, so ops a worker thread runs are untaped unless the
worker entered a tape of its own.
"""

from __future__ import annotations

import ctypes
import itertools
import os
import threading
from contextlib import contextmanager
from functools import cache
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from ..errors import ContractError, NumericError, ShapeError

if TYPE_CHECKING:
    from concurrent.futures import Executor

# mallopt's parameter number for the arena count (glibc's malloc.h).
M_ARENA_MAX = -8

__all__ = [
    "Tensor",
    "Tape",
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
    "sum_sorted",
    "mean_over_set",
    "concat",
    "stack",
    "reshape",
    "transpose",
    "recomputed",
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

    def accumulate_grad(self, contribution: np.ndarray, at: tuple | None = None) -> None:
        """Add ``contribution`` to ``grad``, or to the part ``grad[at]`` of it
        (a basic index); a part added before any other gradient lands on zeros.
        A tensor that takes no gradient ignores every contribution."""
        if not self.requires_grad:
            return
        shape = self.data.shape if at is None else self.data[at].shape
        if contribution.shape != shape:
            raise ShapeError(
                f"gradient shape {contribution.shape} does not match tensor shape {shape}"
            )
        if at is not None:
            if self.grad is None:
                # zeros + contribution: the bits of a first whole contribution
                self.grad = np.zeros_like(self.data)
            self.grad[at] += contribution
        elif self.grad is None:
            # One pass into a fresh array; adding 0.0 gives the bits of
            # zeros + contribution (-0.0 becomes 0.0) and keeps 0-d arrays 0-d.
            self.grad = np.add(contribution, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += contribution

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


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
        _TAPES.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPES.stack.pop()
        assert popped is self

    def record(self, out: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
        out._tape = self
        self._entries.append((out, backward_fn))

    def __len__(self) -> int:
        return len(self._entries)

    def backward(self, loss: Tensor) -> None:
        """Replay the tape from ``loss``. A scalar loss is seeded with 1; any
        other output must already hold its seed gradient in ``grad``."""
        if self._consumed:
            raise ContractError("tape already replayed; build a fresh tape per backward pass")
        if loss.grad is None and loss.shape != ():
            raise ShapeError(f"backward needs a scalar loss or a seed gradient, got shape {loss.shape}")
        if loss.grad is not None and loss.grad.shape != loss.shape:
            raise ShapeError(f"seed gradient shape {loss.grad.shape} does not match {loss.shape}")
        if loss._tape is not self:
            raise ContractError("loss was not recorded on this tape")
        self._consumed = True
        if loss.grad is None:
            loss.grad = np.ones((), dtype=np.float64)
        entries = self._entries
        while entries:
            out, backward_fn = entries.pop()
            grad, out.grad = out.grad, None
            if grad is not None:  # None: not an ancestor of the loss
                backward_fn(grad)
            del out, backward_fn, grad


# Each thread's stack of entered tapes; ops record on the innermost.
class _ThreadTapes(threading.local):
    def __init__(self) -> None:
        self.stack: list[Tape] = []


_TAPES = _ThreadTapes()


def _active_tape() -> Tape | None:
    stack = _TAPES.stack
    return stack[-1] if stack else None


@cache
def _libc(name: str, *argtypes):
    """The C library's int-returning function ``name``, or None where it
    has none (not glibc)."""
    fn = getattr(ctypes.CDLL(None), name, None)
    if fn is not None:
        fn.argtypes, fn.restype = argtypes, ctypes.c_int
    return fn


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _threads(workers: int) -> Iterator[Executor]:
    """An executor of ``workers`` threads, shut down when the block exits.

    Every thread allocates from glibc's main arena: memory a worker frees
    would otherwise stay in that thread's own arena and lift every later
    peak. Once the workers stop, the arena's free pages go back to the
    system, so they do not add to the next peak either. The shutdown drops
    the work not yet started and waits for the work running."""
    # Imported here: concurrent.futures adds about 0.7 MB to a process that
    # never makes a pool, such as one that trains at desk geometry.
    from concurrent.futures import ThreadPoolExecutor

    mallopt = _libc("mallopt", ctypes.c_int, ctypes.c_int)
    trim = _libc("malloc_trim", ctypes.c_size_t)
    if mallopt is not None:
        mallopt(M_ARENA_MAX, 1)
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)
        if trim is not None:
            trim(0)


def recomputed(fn: Callable[..., Tensor], items: Sequence, *shared) -> list[Tensor]:
    """``[fn(item, *shared) for item in items]``, each output recorded on the
    active tape as one entry, in item order; with no tape active nothing is
    recorded.

    ``fn`` runs with no tape, on a pool of one thread per usable core
    (``os.sched_getaffinity``) and at most one per item, made for this call:
    numpy's GEMMs release the GIL, so the threads overlap, and a process
    forked later copies none of them. An error in any item is raised here
    once every thread has stopped, and the items not yet started are
    dropped.

    In backward the output of each entry is rebuilt: ``fn`` re-runs under a
    local tape, which is replayed with the output's gradient (Chen et al.,
    *Training Deep Nets with Sublinear Memory Cost*, arXiv 1604.06174).
    Whatever uses an output was recorded after every entry, so all of the
    call's gradients are known when its first entry replays, the last one
    with a gradient. That entry replays every entry with a gradient, in
    reverse item order, in one loop that owns one prefetch worker: the loop
    rebuilds its first entry on the calling thread, and before it replays
    an entry it hands the rebuild of the next to the worker. It takes each
    output's gradient off as it replays it, so the tape skips the call's
    other entries, and an entry with no gradient is never rebuilt. The
    worker stops when the loop ends, also when a rebuild or a replay
    raises. ``fn`` must be deterministic: every replay runs on the calling
    thread and visits its ops in the reverse order of a plain tape, so
    every input receives the same contributions in the same order and the
    gradients are the same bits as without recomputation.
    """
    items = list(items)  # a slot is let go once its entry is rebuilt
    with _threads(min(_usable_cores(), len(items))) as pool:
        outs = list(pool.map(fn, items, *(itertools.repeat(s) for s in shared)))
    tape = _active_tape()
    if tape is None:
        return outs

    def rebuild(i: int) -> tuple[Tape, Tensor]:
        item, items[i] = items[i], None
        with Tape() as local:
            out = fn(item, *shared)
        return local, out

    def replay(last: int, g: np.ndarray) -> None:
        outs[last].grad = g  # the tape took it off; the loop takes each one alike
        order = [i for i in range(last, -1, -1) if outs[i].grad is not None]
        with _threads(1) as prefetch:
            for n, i in enumerate(order):
                local, out = ahead.result() if n else rebuild(i)
                if n + 1 < len(order):
                    ahead = prefetch.submit(rebuild, order[n + 1])
                out.grad, outs[i].grad = outs[i].grad, None
                local.backward(out)

    for i, out in enumerate(outs):
        if out.requires_grad:
            # A function made here, not a partial: the benchmark's tracer
            # names an entry's backward span after its __qualname__.
            tape.record(out, lambda g, i=i: replay(i, g))
    return outs


def _finish(op: str, data: np.ndarray, inputs: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], None]) -> Tensor:
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
    if requires and tape is not None:
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
        a.accumulate_grad(_unbroadcast(g, a.shape))
        b.accumulate_grad(_unbroadcast(g, b.shape))

    return _finish("add", data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)
    data = a.data - b.data

    def bwd(g: np.ndarray) -> None:
        a.accumulate_grad(_unbroadcast(g, a.shape))
        b.accumulate_grad(_unbroadcast(-g, b.shape))

    return _finish("sub", data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    data = a.data * b.data
    a_data, b_data = a.data, b.data

    def bwd(g: np.ndarray) -> None:
        a.accumulate_grad(_unbroadcast(g * b_data, a.shape))
        b.accumulate_grad(_unbroadcast(g * a_data, b.shape))

    return _finish("mul", data, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("div", a, b)
    if np.any(b.data == 0.0):
        raise NumericError("div: denominator contains zeros")
    data = a.data / b.data
    b_data, out_data = b.data, data

    def bwd(g: np.ndarray) -> None:
        a.accumulate_grad(_unbroadcast(g / b_data, a.shape))
        b.accumulate_grad(_unbroadcast(-g * out_data / b_data, b.shape))

    return _finish("div", data, (a, b), bwd)


def add_scalar(a: Tensor, c: float) -> Tensor:
    data = a.data + float(c)

    def bwd(g: np.ndarray) -> None:
        a.accumulate_grad(g)

    return _finish("add_scalar", data, (a,), bwd)


def mul_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    data = a.data * c

    def bwd(g: np.ndarray) -> None:
        a.accumulate_grad(g * c)

    return _finish("mul_scalar", data, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow surfaces as NumericError below
        data = np.exp(a.data)

    def bwd(g: np.ndarray) -> None:
        a.accumulate_grad(g * data)

    return _finish("exp", data, (a,), bwd)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise NumericError("log: input must be strictly positive")
    data = np.log(a.data)
    a_data = a.data

    def bwd(g: np.ndarray) -> None:
        a.accumulate_grad(g / a_data)

    return _finish("log", data, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def bwd(g: np.ndarray) -> None:
        a.accumulate_grad(g * (a.data > 0.0))

    return _finish("relu", data, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    # Branch on sign so neither exponential can overflow.
    x = a.data
    data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def bwd(g: np.ndarray) -> None:
        a.accumulate_grad(g * data * (1.0 - data))

    return _finish("sigmoid", data, (a,), bwd)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    if not lo < hi:
        raise ContractError(f"clip: lo={lo} must be < hi={hi}")
    data = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)

    def bwd(g: np.ndarray) -> None:
        a.accumulate_grad(g * inside)

    return _finish("clip", data, (a,), bwd)


# ---------------------------------------------------------------------------
# contractions and reductions


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix @ matrix or matrix @ vector; ``dot`` takes vector . vector."""
    if a.data.ndim != 2 or b.data.ndim not in (1, 2):
        raise ShapeError(f"matmul needs a 2-D left and a 1-D or 2-D right operand, "
                         f"got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner extents differ ({a.shape} @ {b.shape})")
    data = a.data @ b.data
    a_data, b_data = a.data, b.data

    def bwd(g: np.ndarray) -> None:
        a.accumulate_grad(g @ b_data.T if b_data.ndim == 2 else np.outer(g, b_data))
        b.accumulate_grad(a_data.T @ g)

    return _finish("matmul", data, (a, b), bwd)


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or b.data.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"dot needs two equal-length vectors, got {a.shape} and {b.shape}")
    data = np.array(a.data @ b.data)
    a_data, b_data = a.data, b.data

    def bwd(g: np.ndarray) -> None:
        a.accumulate_grad(g * b_data)
        b.accumulate_grad(g * a_data)

    return _finish("dot", data, (a, b), bwd)


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
            t.accumulate_grad(g[i])

    return _finish("stack", data, tuple(tensors), bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    data = a.data.reshape(shape)
    old_shape = a.shape

    def bwd(g: np.ndarray) -> None:
        a.accumulate_grad(g.reshape(old_shape))

    return _finish("reshape", data, (a,), bwd)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose handles rank-2 tensors, got {a.shape}")
    data = a.data.T

    def bwd(g: np.ndarray) -> None:
        a.accumulate_grad(g.T)

    return _finish("transpose", data, (a,), bwd)


# ---------------------------------------------------------------------------
# initialization


def glorot_uniform(shape: tuple[int, ...], fan_in: int, fan_out: int,
                   rng: np.random.Generator) -> Tensor:
    """Learnable-weight init: uniform in +/- sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
