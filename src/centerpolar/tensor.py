"""Dense float64 tensors with tape-based reverse-mode differentiation.

A tensor's `data` is a float64 array in the tensor's own shape, and each
gradient has the shape of its tensor.  Ops record onto the active tape
(see `record`) when any operand participates in it; `backward` replays the
tape in reverse execution order, which makes gradients bitwise
reproducible for a fixed graph.  The active tape is per thread and per
async context, so concurrent runs in one process keep separate graphs.

Lifetime.  Outputs hold their tape weakly, so a graph lives as long as
its tape, and reference counting frees it when its `record` block ends.
`backward` runs inside the block; once the tape is gone it raises TapeError.

Recording.  Every op computes its output, then returns it through
`_record` with its tensor inputs and a vjp.  An input takes part when it
requires a gradient or was itself recorded on the active tape; `_record`
stores which inputs do as `needs`, and records nothing when none does.
`backward` calls `vjp(g, needs)`, which returns one gradient per input,
None where `needs` is false.  A plain-number operand of an arithmetic op
becomes a constant 0-d tensor, which takes no gradient.

Rows.  The leading axis of a 2-D tensor is the sample: a (B, k) tensor is
a batch of B rows, and every op gives each row exactly the bits it gives
that row alone as a 1-D (k,) tensor, gradients included, so one graph
over a batch replaces B per-sample graphs.  `dense` is a whole layer,
matrix, bias and activation, applied to every row; `sum(axis=-1)`
reduces each row to one value and keeps it as a column (B, 1); `mean`
averages over the leading axis, adding rows left to right;
`losses.loss_dom` measures every pair of rows.  `len` is the row count.

Broadcasting.  Elementwise ops take equal shapes, or a scalar () against
any shape.  A bias shared by every row is `dense`'s own operand.

Order of gradient sums.  Floating-point addition is not associative, so
each input sums its gradient contributions in the order the per-sample
graphs, recorded one row after another, would sum them.  An input that is
shared by all rows takes the per-row contributions one at a time, from the
last row to the first.  A row of `loss_dom` takes one contribution per
partner, in descending partner index.  Such an op hands `backward` an
ordered `Fold` of contributions for that one input; a single pre-summed
array would round differently.

Every `Fold` is summed under one rule: part after part, from the first,
with the sign of a zero kept, as a loop of `acc + part` from the first
part does.  Starting from -0.0 is the same, since -0.0 + x is x for every
x; starting from +0.0 is not, since +0.0 + -0.0 is +0.0.  A `Fold` comes
in two forms:

- A slot `Fold` is a (1 + parts, *shape) array whose first part is a free
  slot.  `backward` writes the input's running gradient into it and adds
  the array down its leading axis with one
  `np.add.reduce(stack, axis=0, initial=-0.0)`.  Along the slow axis of a
  C-contiguous array numpy adds part after part onto the initial value
  (pairwise summation, which regroups the terms, runs only along the
  contiguous axis; see the Notes of `numpy.sum`).  When each part holds
  one element the leading axis is that contiguous axis, so `backward`
  adds those parts in a loop instead.
- A factor `Fold` carries two row factors instead, the gradient rows
  (B, m) and the input rows (B, n), last row first; part r is the outer
  product of their rows r, the weight gradient of `dense`.  When the
  input has no running gradient yet and a part holds more than one
  element, `backward` sums the parts with one `np.einsum("ri,rj->ij")`,
  without building them: with the output's contiguous axis innermost and
  the row axis outside it, einsum adds row after row, which rounds as the
  reduction does, but onto an output it has zeroed (even with `out=`),
  so a sum of -0.0 parts comes out +0.0.  `backward` sums the entries
  that come out zero again, with the slot rule.  Otherwise (a running
  gradient, or one element per part, where einsum reduces inside its
  inner loop and rounds differently) `backward` builds the parts as a
  slot `Fold`.  Like `np.tanh`, `np.arccos` and the BLAS products,
  einsum's loop is a kernel whose bits a CPU dispatch could change
  (ROADMAP item 10); in numpy's X86_V2-baseline wheel it multiplies,
  then adds, with no fused multiply-add.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache

import numpy as np

EPS_ACOS = 1e-7  # arccos gradient is treated as flat for |cos| >= 1-eps


class ShapeError(ValueError):
    pass


class TapeError(RuntimeError):
    pass


class DomainError(ValueError):
    pass


class Tape:
    """Ordered record of primitive ops: (output, inputs, needs, vjp, name).
    Outputs hold the tape through `_ref`, its one weak reference."""

    __slots__ = ("_entries", "_ref", "__weakref__")

    def __init__(self):
        self._entries = []
        self._ref = weakref.ref(self)

    def __len__(self):
        return len(self._entries)


class Fold:
    """Gradient contributions of one op to one input, which `backward` adds
    to the input's running gradient in order, first part first: either a
    slot `stack` (1 + parts, *shape) whose parts follow a free first slot,
    or the factor `rows` (B, m) and (B, n), last row first, whose row r
    gives the outer product that is part r (see the module docstring)."""

    __slots__ = ("stack", "rows")

    def __init__(self, stack=None, rows=None):
        self.stack = stack
        self.rows = rows

    @classmethod
    def empty(cls, parts: int, shape: tuple) -> "Fold":
        """A slot `Fold` of `parts` parts of `shape`, for the caller to fill."""
        return cls(np.empty((parts + 1, *shape)))

    @property
    def parts(self) -> np.ndarray:
        return self.stack[1:]


_ACTIVE: ContextVar[Tape | None] = ContextVar("centerpolar_active_tape", default=None)


@contextmanager
def record():
    """Make a fresh tape the active tape within the block, and yield it.

    The active tape belongs to the calling thread and async context, so
    blocks in other threads neither see nor replace it.  Ops run outside
    any active tape are pure and record nothing, so inference never
    allocates graph state.
    """
    tape = Tape()
    token = _ACTIVE.set(tape)
    try:
        yield tape
    finally:
        _ACTIVE.reset(token)


def _record(out: "Tensor", inputs: tuple, vjp, name: str) -> "Tensor":
    """Record `out = name(*inputs)` on the active tape if any input takes part."""
    tape = _ACTIVE.get()
    if tape is not None:
        ref = tape._ref
        needs = [t.requires_grad or t._tape is ref for t in inputs]
        if True in needs:
            out._tape = ref
            tape._entries.append((out, inputs, needs, vjp, name))
    return out


def _check_broadcast(op: str, sa: tuple, sb: tuple) -> None:
    if sa != sb and sa != () and sb != ():
        raise ShapeError(f"{op}: shapes {sa} and {sb} are incompatible (equal shapes or a scalar)")


def _reduce_to(g: np.ndarray, shape: tuple):
    """Gradient of an operand of `shape` from the output gradient `g`."""
    if g.shape == shape:
        return g
    if shape == ():
        return g.sum()
    if len(shape) == g.ndim:
        return g.sum(axis=-1, keepdims=True)  # a column: one sum per row
    fold = Fold.empty(len(g), g.shape[1:])  # a shared row: per-row contributions,
    fold.parts[...] = g[::-1]  # last row first
    return fold


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # each row's dot product as np.dot computes it, in the row shape:
    # (k,) -> (), (R, k) -> (R, 1); einsum and (a * b).sum(-1) round differently
    if a.ndim == 1:
        return a @ b
    return (a[:, None, :] @ b[:, :, None])[:, 0]


def _row_norm(A: np.ndarray) -> np.ndarray:
    # each row's Euclidean norm: (k,) -> (), (R, k) -> (R, 1)
    if A.ndim not in (1, 2):
        raise ShapeError(f"row norm: shape {A.shape} is not 1-D or 2-D")
    return np.sqrt(_rowdot(A, A))


def _norm_grad(g, norm, rows: np.ndarray) -> np.ndarray:
    # gradient of each row's norm, with subgradient 0 at the cone tip
    zero = norm == 0.0
    grad = g / np.where(zero, 1.0, norm) * rows
    np.copyto(grad, 0.0, where=zero)
    return grad


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, values, requires_grad: bool = False):
        self.data = np.array(values, dtype=np.float64, order="C")
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._tape: weakref.ref | None = None  # the recording tape's `_ref`

    @classmethod
    def _wrap(cls, data) -> "Tensor":
        # internal: takes ownership of `data`, no copy, no validation; a
        # ufunc on 0-d arrays returns a numpy scalar, kept as a 0-d array
        t = object.__new__(cls)
        t.data = np.asarray(data)
        t.requires_grad = False
        t.grad = None
        t._tape = None
        return t

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        return self.data.copy()

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item: tensor of shape {self.shape} is not a scalar")
        return self.data.item()

    def detach(self) -> "Tensor":
        # shares storage, drops grad tracking; ops never mutate inputs
        return Tensor._wrap(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __len__(self) -> int:
        """Length of the leading axis: the number of rows of a stack."""
        if self.shape == ():
            raise TypeError("len() of a 0-d tensor")
        return len(self.data)

    # -- binary arithmetic ------------------------------------------------

    def _binary(self, other, name: str, fn, vjp) -> "Tensor":
        if not isinstance(other, Tensor):
            other = Tensor(float(other))  # a constant: it never needs a gradient
        a, b = self.data, other.data
        _check_broadcast(name, a.shape, b.shape)

        def back(g, needs):
            ga, gb = vjp(g, a, b)
            return (
                _reduce_to(ga, a.shape) if needs[0] else None,
                _reduce_to(gb, b.shape) if needs[1] else None,
            )

        return _record(Tensor._wrap(fn(a, b)), (self, other), back, name)

    def __add__(self, other):
        return self._binary(other, "add", np.add, lambda g, a, b: (g, g))

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, "sub", np.subtract, lambda g, a, b: (g, -g))

    def __rsub__(self, other):
        return Tensor(float(other)) - self

    def __mul__(self, other):
        return self._binary(other, "mul", np.multiply, lambda g, a, b: (g * b, g * a))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    # -- reductions --------------------------------------------------------

    def sum(self, axis: int | None = None) -> "Tensor":
        """Sum of all elements, or with axis=-1 of each row (a column for rows)."""
        A = self.data
        if axis is None:
            total = A.sum()
        elif axis == -1 and A.ndim in (1, 2):
            total = A.sum(axis=-1, keepdims=A.ndim == 2)
        else:
            raise ShapeError(f"sum: axis {axis} of shape {A.shape} (None or -1 only)")
        return _record(Tensor._wrap(total), (self,), lambda g, _: (np.full(A.shape, g),), "sum")

    def mean(self) -> "Tensor":
        """Mean over the leading axis, adding rows left to right."""
        A = self.data
        if A.ndim == 0:
            raise ShapeError("mean: tensor has no leading axis")
        n = float(len(A))
        if n == 0:
            raise ShapeError("mean: tensor has no elements")
        total = np.add.accumulate(A, axis=0)[-1]  # a running sum, row by row
        return _record(
            Tensor._wrap(total / n), (self,), lambda g, _: (np.full(A.shape, g / n),), "mean"
        )


def _acos(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """arccos of `c` and the mask of the inputs with a gradient."""
    if not np.isfinite(c).all():
        raise DomainError("acos: input contains non-finite values")
    # flat cap: inputs within EPS_ACOS of an endpoint snap to the exact
    # endpoint value and carry zero gradient, so near-collinear cosines
    # produced by unit-vector round-off land on 0 / pi exactly
    snapped = np.where(c >= 1.0 - EPS_ACOS, 1.0, np.where(c <= -1.0 + EPS_ACOS, -1.0, c))
    return np.arccos(snapped), np.abs(c) < 1.0 - EPS_ACOS


def _acos_grad(g, c: np.ndarray, mask: np.ndarray) -> np.ndarray:
    gc = np.zeros_like(c)
    np.divide(-g, np.sqrt(np.where(mask, 1.0 - c * c, 1.0)), out=gc, where=mask)
    return gc


def dense(weight: Tensor, x: Tensor, bias: Tensor, activation: str) -> Tensor:
    """One dense layer as one op: `weight` times each row of `x`, plus
    `bias`, then "tanh", "relu" or "identity".  Each row gets the bits of
    that chain of 1-D ops on the row alone, gradients included (the
    chain's reference is `tests/scalar_oracle.py`).  `bias` holds one value
    per weight row."""
    W, X, b = weight.data, x.data, bias.data
    if W.ndim != 2 or X.ndim not in (1, 2) or X.shape[-1] != W.shape[1] or b.shape != W.shape[:1]:
        raise ShapeError(
            f"dense: shapes {W.shape}, {X.shape} and {b.shape} do not give a matrix, "
            "rows and one bias per matrix row"
        )
    # a stack of matrix-vector products, one gemv per row, so each row gets
    # the bits of W @ x; one X @ W.T gemm rounds differently
    z = (W @ X[..., None])[..., 0]
    z += b
    if activation == "tanh":
        y = np.tanh(z)
    elif activation == "relu":
        y = np.where(z > 0.0, z, 0.0)
    elif activation == "identity":
        y = z
    else:
        raise ValueError(f"dense: unknown activation {activation!r}")

    def vjp(g, needs):
        if activation == "tanh":
            g = g * (1.0 - y * y)
        elif activation == "relu":
            g = g * (z > 0.0)  # subgradient at 0 is 0
        gw = gx = gb = None
        if needs[0]:
            gw = np.outer(g, X) if X.ndim == 1 else Fold(rows=(g[::-1], X[::-1]))
        if needs[1]:
            gx = (W.T @ g[..., None])[..., 0]
        if needs[2]:
            gb = _reduce_to(g, b.shape)
        return gw, gx, gb

    return _record(Tensor._wrap(y), (weight, x, bias), vjp, "dense")


# index arrays depend on the row count alone; a training run meets a few
# batch sizes, so a small cache serves every batch after the first
_INDEX_CACHE = 64


def _frozen(*arrays: np.ndarray) -> tuple:
    # cached arrays are shared by every later call: make them read-only
    out = tuple(np.ascontiguousarray(a) for a in arrays)
    for a in out:
        a.flags.writeable = False
    return out


@lru_cache(maxsize=_INDEX_CACHE)
def pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row indices (i, j) of the unordered pairs i < j of n rows,
    in row-major order: `np.triu_indices(n, 1)`.  The one definition of
    the pair order, for `losses.loss_dom` and its references."""
    return _frozen(*np.triu_indices(n, 1))


@lru_cache(maxsize=_INDEX_CACHE)
def _partner_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (n - 1, n) arrays: at [s, r], the s-th partner q of row r
    in descending order (q != r) as the row-major pair index of (min, max),
    and +1 where r < q, else -1."""
    r = np.arange(n)[:, None]
    q = np.broadcast_to(np.arange(n - 1, -1, -1), (n, n))
    q = q[q != r].reshape(n, n - 1)
    a, b = np.minimum(r, q), np.maximum(r, q)
    pair = a * n - a * (a + 1) // 2 + (b - a - 1)
    return _frozen(pair.T, np.where(r < q, 1.0, -1.0).T)


def backward(out: Tensor) -> None:
    """Replay the tape backward from scalar `out`, populating `.grad`.

    Gradients of requires_grad tensors reachable from `out` are overwritten.
    """
    if out._tape is None:
        raise TapeError("backward: output was not produced under an active tape")
    tape = out._tape()
    if tape is None:
        raise TapeError("backward: the output's tape is gone (backward runs inside its block)")
    if out.size != 1:
        raise TapeError(f"backward: output must be a scalar, got shape {out.shape}")
    grads: dict[int, np.ndarray] = {id(out): np.ones(out.shape)}
    holders: dict[int, Tensor] = {}
    if out.requires_grad:
        holders[id(out)] = out
    for entry_out, inputs, needs, vjp, _name in reversed(tape._entries):
        g = grads.get(id(entry_out))
        if g is None:
            continue
        for t, ig in zip(inputs, vjp(g, needs)):
            if ig is None:
                continue
            acc = grads.get(id(t))
            if type(ig) is not Fold:
                grads[id(t)] = ig if acc is None else acc + ig
            else:
                grads[id(t)] = _add_fold(acc, ig)
        for t in inputs:
            if t.requires_grad:
                holders[id(t)] = t
    for t in holders.values():
        new = grads.get(id(t))
        if new is not None:
            t.grad = np.array(new)  # a copy, and an array for a 0-d input too


def _add_fold(acc: np.ndarray | None, fold: Fold) -> np.ndarray:
    """`acc` plus the parts of `fold`, first part first; None for `acc` is
    an input with no gradient yet."""
    if fold.rows is not None:
        a, b = (np.ascontiguousarray(f) for f in fold.rows)
        if acc is None and a.shape[1] * b.shape[1] > 1:
            total = np.einsum("ri,rj->ij", a, b)
            if not total.all():  # einsum adds onto +0.0: sum the zeros again, signed
                i, j = np.nonzero(total == 0.0)
                total[i, j] = _sum_parts(a[:, i] * b[:, j])
            return total
        fold = Fold.empty(len(a), (a.shape[1], b.shape[1]))
        np.multiply(a[:, :, None], b[:, None, :], out=fold.parts)
    if acc is None:
        return _sum_parts(fold.parts)
    fold.stack[0] = acc
    return _sum_parts(fold.stack)


def _sum_parts(stack: np.ndarray) -> np.ndarray:
    """The parts along the leading axis of `stack`, added in order from the
    first, with the sign of a zero kept."""
    if stack[0].size > 1:
        return np.add.reduce(stack, axis=0, initial=-0.0)
    total = stack[0]  # parts of one element, which reduce would sum pairwise
    for part in stack[1:]:
        total = total + part
    return total
