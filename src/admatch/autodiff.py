"""Dense float64 tensors with taped reverse-mode gradients.

The op set is exactly what the matching model needs: matmul, broadcast
arithmetic, activations, softmax over an axis, embedding gathers and
padded segment sums, concatenation and slicing along an axis,
reductions, row-wise cosine, and clipping. Every op computes its value
eagerly with numpy; while a Tape is active and an input needs a
gradient, it also records one closure that routes the output gradient
back to its inputs. With no active tape, ops are plain forward
evaluation (inference mode).

All arithmetic is float64. Tapes are per-thread: distinct tapes may run
concurrently over shared read-only parameter values, but gradient
accumulation into one ParamStore must not be concurrent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class DeterminismError(RuntimeError):
    """Two forward evaluations of the same function disagreed."""


_LOCAL = threading.local()


def active_tape() -> "Tape | None":
    """The tape ops currently record onto, or None outside a Tape block."""
    return getattr(_LOCAL, "tape", None)


class Tape:
    """Backward-closure recorder for one forward pass.

    Use as a context manager around the forward computation, then call
    ``backward`` once on a scalar output. The tape is spent afterwards;
    build a new one for the next pass.
    """

    def __init__(self) -> None:
        self._records: list[Callable[[], None]] = []
        self._spent = False
        self._prev: Tape | None = None

    def __enter__(self) -> "Tape":
        self._prev = active_tape()
        _LOCAL.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _LOCAL.tape = self._prev
        self._prev = None
        return False

    def record(self, backward_fn: Callable[[], None]) -> None:
        self._records.append(backward_fn)

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, root: "Tensor") -> None:
        """Seed d(root)=1 and run recorded closures newest-first.

        The record list is discarded afterwards; a second call raises.
        """
        if self._spent:
            raise RuntimeError("tape already consumed by a backward pass")
        if root.data.size != 1:
            raise ShapeError(
                f"backward root must be scalar, got shape {root.data.shape}"
            )
        self._spent = True
        root._accumulate(np.ones_like(root.data), fresh=True)
        for fn in reversed(self._records):
            fn()
        self._records.clear()


class Tensor:
    """A float64 array plus a gradient buffer of the same shape."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def _accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add g to the gradient; the first gradient is stored, not added.

        ``fresh`` says no other tensor will ever accumulate into g's
        memory: g is a new array, or a view of the gradient of a tensor
        whose backward has already run. Such a g is kept as it is;
        anything else (a shared array, a read-only broadcast) is copied.
        """
        if self.grad is None:
            self.grad = g if fresh else np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

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

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _op(
    value: np.ndarray, backward: Callable[[np.ndarray], None], *inputs: Tensor
) -> Tensor:
    """The output tensor of one op over ``inputs``.

    The output needs a gradient when any input does. Only then, and only
    while a tape is active, one closure is recorded; once the output has
    a gradient it runs ``backward(out.grad)``, which routes it to the
    inputs. An output no gradient reaches passes nothing back.
    """
    out = Tensor(value)
    for t in inputs:  # a plain loop, not any(): serving runs ops on every request
        if t.requires_grad:
            out.requires_grad = True
            tape = active_tape()
            if tape is not None:

                def run() -> None:
                    if out.grad is not None:
                        backward(out.grad)

                tape.record(run)
            break
    return out


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g: np.ndarray) -> None:
        # out is done, so one operand may keep g; the other takes a copy
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape), fresh=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape), fresh=not a.requires_grad)

    return _op(a.data + b.data, backward, a, b)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape), fresh=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape), fresh=True)

    return _op(a.data - b.data, backward, a, b)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _op(-a.data, lambda g: a._accumulate(-g, fresh=True), a)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape), fresh=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape), fresh=True)

    return _op(a.data * b.data, backward, a, b)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul needs 2-d operands with matching inner dimension, "
            f"got {a.data.shape} x {b.data.shape}"
        )

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g @ b.data.T, fresh=True)
        if b.requires_grad:
            b._accumulate(a.data.T @ g, fresh=True)

    return _op(a.data @ b.data, backward, a, b)


def sigmoid(x) -> Tensor:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never
    overflows; both branches share e = exp(-|x|)."""
    x = as_tensor(x)
    d = x.data
    e = np.exp(-np.abs(d))
    y = np.where(d >= 0, 1.0, e)
    y /= 1.0 + e
    return _op(y, lambda g: x._accumulate(g * y * (1.0 - y), fresh=True), x)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    y = np.tanh(x.data)
    return _op(y, lambda g: x._accumulate(g * (1.0 - y * y), fresh=True), x)


def relu(x) -> Tensor:
    x = as_tensor(x)
    y = np.maximum(x.data, 0.0)
    return _op(y, lambda g: x._accumulate(g * (x.data > 0), fresh=True), x)


def softmax(x, axis: int = -1) -> Tensor:
    """Softmax over one axis, stabilized by subtracting the max along it."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> None:
        inner = (g * y).sum(axis=axis, keepdims=True)
        x._accumulate(y * (g - inner), fresh=True)

    return _op(y, backward, x)


def log(x) -> Tensor:
    x = as_tensor(x)
    return _op(np.log(x.data), lambda g: x._accumulate(g / x.data, fresh=True), x)


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only where unclipped."""
    x = as_tensor(x)
    mask = (x.data >= lo) & (x.data <= hi)
    y = np.clip(x.data, lo, hi)
    return _op(y, lambda g: x._accumulate(g * mask, fresh=True), x)


def sum_all(x) -> Tensor:
    x = as_tensor(x)

    def backward(g: np.ndarray) -> None:
        x._accumulate(np.broadcast_to(g, x.data.shape))

    return _op(x.data.sum(), backward, x)


def sum_axis(x, axis: int) -> Tensor:
    """Sum over one axis, which is dropped from the shape."""
    x = as_tensor(x)

    def backward(g: np.ndarray) -> None:
        x._accumulate(np.broadcast_to(np.expand_dims(g, axis), x.data.shape))

    return _op(x.data.sum(axis=axis), backward, x)


def mean_all(x) -> Tensor:
    x = as_tensor(x)
    if x.data.size == 0:
        raise ShapeError("mean of an empty tensor")
    inv = 1.0 / x.data.size

    def backward(g: np.ndarray) -> None:
        x._accumulate(np.broadcast_to(g * inv, x.data.shape))

    return _op(x.data.mean(), backward, x)


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    y = x.data.reshape(shape)
    return _op(y, lambda g: x._accumulate(g.reshape(x.data.shape), fresh=True), x)


def _axis(ndim: int, axis: int) -> int:
    if not -ndim <= axis < ndim:
        raise ShapeError(f"axis {axis} out of range for {ndim} dimensions")
    return axis % ndim


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate tensors along one axis; their other axes must match."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of an empty tensor list")
    first = tensors[0].data.shape
    ax = _axis(len(first), axis)
    for t in tensors:
        shape = t.data.shape
        if len(shape) != len(first) or shape[:ax] + shape[ax + 1 :] != (
            first[:ax] + first[ax + 1 :]
        ):
            raise ShapeError(
                f"concat along axis {axis} needs matching shapes, "
                f"got {first} and {shape}"
            )
    sizes = [t.data.shape[ax] for t in tensors]

    def backward(g: np.ndarray) -> None:
        offset = 0
        for t, n in zip(tensors, sizes):
            if t.requires_grad:
                part = (slice(None),) * ax + (slice(offset, offset + n),)
                t._accumulate(g[part], fresh=True)
            offset += n

    return _op(np.concatenate([t.data for t in tensors], axis=ax), backward, *tensors)


def take(x, start: int, stop: int, axis: int) -> Tensor:
    """Entries [start, stop) along one axis."""
    x = as_tensor(x)
    index = (slice(None),) * _axis(x.data.ndim, axis) + (slice(start, stop),)

    def backward(g: np.ndarray) -> None:
        # add into the slice in place, without a full-size temporary
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[index] += g

    return _op(x.data[index].copy(), backward, x)


def _check_ids(ids: np.ndarray, rows: int) -> None:
    # numpy would wrap a negative id silently; viewed unsigned, it is huge
    if ids.size and ids.view(np.uintp).max() >= rows:
        raise IndexError(f"row id out of range [0, {rows}) in embedding gather")


def _scatter_rows(table: Tensor, idx: np.ndarray, g: np.ndarray) -> None:
    """table.grad[idx[i]] += g[i] for every i, in order.

    One 1-d ``np.add.at`` over flat element offsets: each element gets
    the same additions in the same order as a row-wise scatter, so the
    result is bit-identical to it, without the row-wise slow path.
    """
    if table.grad is None:
        table.grad = np.zeros(table.data.shape)
    elif not table.grad.flags.c_contiguous:
        table.grad = np.ascontiguousarray(table.grad)  # so reshape is a view
    width = table.data.shape[1]
    flat = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    np.add.at(table.grad.reshape(-1), flat, g.reshape(-1))


def gather_rows(table: Tensor, ids) -> Tensor:
    """Rows table[ids] for a 1-d integer id array; scatter-add backward."""
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows needs 1-d ids, got shape {idx.shape}")
    _check_ids(idx, table.data.shape[0])
    return _op(table.data[idx], lambda g: _scatter_rows(table, idx, g), table)


def segment_sum(table: Tensor, ids) -> Tensor:
    """Per-row sums of table rows over a zero-padded id array: for
    [rows x L] ids, out[r] = sum(table[i] for i in ids[r] if i != 0).

    Id 0 is the pad id. Its slots add nothing and receive no gradient,
    so variable-length lists padded to a common width L sum exactly their
    own ids, and an all-pad row is a zero row. L may be 0.
    """
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 2:
        raise ShapeError(f"segment_sum needs [rows x L] ids, got shape {idx.shape}")
    _check_ids(idx, table.data.shape[0])
    slots = idx.T  # slot-major: the sum runs over contiguous [n x d] blocks
    rows = table.data[slots]
    rows[slots == 0] = 0.0

    def backward(g: np.ndarray) -> None:
        real = slots != 0
        _scatter_rows(table, slots[real], g[np.nonzero(real)[1]])

    return _op(rows.sum(axis=0), backward, table)


def cosine_rows(u: Tensor, v: Tensor) -> Tensor:
    """Row-wise cosine similarity of two [n x d] tensors, in [-1, 1].

    A row where either vector has zero norm has no direction: its cosine
    is 0 and it passes no gradient. Every other row is unaffected.
    """
    u, v = as_tensor(u), as_tensor(v)
    if u.data.shape != v.data.shape or u.data.ndim != 2:
        raise ShapeError(
            f"cosine_rows needs equal 2-d shapes, got {u.data.shape} x {v.data.shape}"
        )
    nu = np.sqrt((u.data * u.data).sum(axis=1))
    nv = np.sqrt((v.data * v.data).sum(axis=1))
    live = nu * nv != 0.0
    # unit norms keep a zero row's arithmetic finite; its value and gradient are masked
    nu, nv = np.where(live, nu, 1.0), np.where(live, nv, 1.0)
    c = np.where(live, (u.data * v.data).sum(axis=1) / (nu * nv), 0.0)

    def backward(g: np.ndarray) -> None:
        gcol = (g * live)[:, None]
        inv = (1.0 / (nu * nv))[:, None]
        if u.requires_grad:
            gu = gcol * (v.data * inv - (c / (nu * nu))[:, None] * u.data)
            u._accumulate(gu, fresh=True)
        if v.requires_grad:
            gv = gcol * (u.data * inv - (c / (nv * nv))[:, None] * v.data)
            v._accumulate(gv, fresh=True)

    return _op(c, backward, u, v)


@dataclass
class ParamEntry:
    """One named parameter: value tensor and frozen rows."""

    value: Tensor
    frozen_rows: tuple[int, ...]


class ParamStore:
    """Named trainable parameter tensors with persistent gradient buffers.

    Gradient buffers always exist and match the value shape. Rows listed
    in ``frozen_rows`` are zeroed at registration and are kept at zero
    by the optimizer (reserved pad/OOV embedding rows).
    """

    def __init__(self) -> None:
        self._entries: dict[str, ParamEntry] = {}

    def add(self, name: str, value, frozen_rows: Sequence[int] = ()) -> Tensor:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name {name!r}")
        arr = np.array(value, dtype=np.float64)
        for r in frozen_rows:
            arr[r] = 0.0
        t = Tensor(arr, requires_grad=True)
        t.grad = np.zeros_like(arr)
        self._entries[name] = ParamEntry(t, tuple(frozen_rows))
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name].value

    def entry(self, name: str) -> ParamEntry:
        return self._entries[name]

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        return self._entries.items()

    def zero_grads(self) -> None:
        for entry in self._entries.values():
            entry.value.grad[...] = 0.0

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of all parameter values, keyed by name."""
        return {name: e.value.data.copy() for name, e in self._entries.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite values in place (tensor identities are preserved)."""
        missing = set(self._entries) - set(arrays)
        extra = set(arrays) - set(self._entries)
        if missing or extra:
            raise ValueError(
                f"parameter set mismatch: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}"
            )
        for name, arr in arrays.items():
            dest = self._entries[name].value.data
            if dest.shape != np.shape(arr):
                raise ShapeError(
                    f"parameter {name!r}: stored shape {np.shape(arr)} "
                    f"!= expected {dest.shape}"
                )
            dest[...] = arr


def grad_check(
    f: Callable[[ParamStore], Tensor],
    store: ParamStore,
    epsilon: float = 1e-5,
) -> float:
    """Compare reverse-mode gradients against central finite differences.

    ``f`` must be a deterministic scalar-valued function of the store.
    For each entry the error is ||a - n|| / (||a|| + ||n||)
    over the flattened gradient; the worst entry's error is returned.
    The denominator is floored at 1e-8: gradients below that are not
    resolvable by central differences at the permitted epsilon range,
    so such entries score by absolute difference (0 when both vanish).
    """
    if not (1e-6 <= epsilon <= 1e-4):
        raise ValueError(f"epsilon {epsilon} outside [1e-6, 1e-4]")
    v1 = f(store).item()
    v2 = f(store).item()
    if v1 != v2:
        raise DeterminismError(
            f"two forward evaluations disagree: {v1!r} vs {v2!r}"
        )

    store.zero_grads()
    with Tape() as tape:
        out = f(store)
        tape.backward(out)
    analytic = {name: e.value.grad.copy() for name, e in store.items()}

    worst = 0.0
    for name, entry in store.items():
        arr = entry.value.data
        numeric = np.zeros_like(arr)
        flat = arr.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            fp = f(store).item()
            flat[i] = orig - epsilon
            fm = f(store).item()
            flat[i] = orig
            num_flat[i] = (fp - fm) / (2.0 * epsilon)
        a = analytic[name]
        denom = max(np.linalg.norm(a) + np.linalg.norm(numeric), 1e-8)
        err = float(np.linalg.norm(a - numeric) / denom)
        worst = max(worst, err)
    return worst
