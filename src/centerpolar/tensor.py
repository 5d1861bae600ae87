"""Dense float64 tensors with tape-based reverse-mode differentiation.

Storage is a flat row-major float64 array plus a shape tuple.  Ops record
onto the active tape (see `record`) when any operand participates in it;
`backward` replays the tape in reverse execution order, which makes
gradients bitwise reproducible for a fixed graph.  The active tape is per
thread and per async context, so concurrent runs in one process keep
separate graphs.

Recording.  Every op computes its output, then returns it through
`_record` with its tensor inputs and a vjp.  An input takes part when it
requires a gradient or was itself recorded on the active tape; `_record`
stores which inputs do as `needs`, and records nothing when none does.
`backward` calls `vjp(g, needs)`, which returns one gradient per input,
None where `needs` is false.  A plain-number operand is a constant: it
is not an input and takes no gradient.

Rows.  The leading axis of a 2-D tensor is the sample: a (B, k) tensor is
a batch of B rows, and every op gives each row exactly the bits it gives
that row alone as a 1-D (k,) tensor, gradients included, so one graph
over a batch replaces B per-sample graphs.  `matvec` applies a matrix to
every row; `dot`, `l2_norm` and `sum(axis=-1)` reduce each row to one
value and keep it as a column (B, 1); `mean` averages over the leading
axis, adding rows left to right; `take` selects rows and
`pair_distances` measures every pair of them.  `len` is the row count.

Broadcasting.  Elementwise ops take equal shapes or one of three
broadcasts: a scalar () against any shape; a column (B, 1) against rows
(B, k), one value per row; and a single row (k,) against rows (B, k),
shared by every row as a bias is.

Order of gradient sums.  Floating-point addition is not associative, so
each input sums its gradient contributions in the order the per-sample
graphs, recorded one row after another, would sum them.  An input that is
shared by all rows takes the per-row contributions one at a time, from the
last row to the first.  A row of `pair_distances` takes one contribution
per partner, in descending partner index.  Such an op hands `backward` an
ordered `Fold` of contributions for that one input, a (parts, n) array;
a single pre-summed array would round differently.  `backward` stacks the
input's running gradient on top of the parts and adds the stack down its
leading axis with one `np.add.reduce`.  Along the slow axis of a
C-contiguous array numpy adds row after row, left to right, as a loop of
`acc + part` does (pairwise summation, which regroups the terms, runs only
along the contiguous axis; see the Notes of `numpy.sum`).  A Fold of one
column is that contiguous axis, so `backward` adds its parts in a loop.
"""

from __future__ import annotations

import math
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
    """Ordered record of primitive ops: (output, inputs, needs, vjp, name)."""

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries = []

    def __len__(self):
        return len(self._entries)


class Fold:
    """Gradient contributions of one op to one input: a (parts, n) array
    whose rows `backward` adds to the input's running gradient, first row
    first."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts


_ACTIVE: ContextVar[Tape | None] = ContextVar("centerpolar_active_tape", default=None)


@contextmanager
def record(tape: Tape | None = None):
    """Make `tape` (or a fresh one) the active tape within the block.

    The active tape belongs to the calling thread and async context, so
    blocks in other threads neither see nor replace it.  Ops run outside
    any active tape are pure and record nothing, so inference never
    allocates graph state.
    """
    active = tape if tape is not None else Tape()
    token = _ACTIVE.set(active)
    try:
        yield active
    finally:
        _ACTIVE.reset(token)


def _record(out: "Tensor", inputs: tuple, vjp, name: str) -> "Tensor":
    """Record `out = name(*inputs)` on the active tape if any input takes part."""
    tape = _ACTIVE.get()
    if tape is not None:
        needs = [t.requires_grad or t._tape is tape for t in inputs]
        if True in needs:
            out._tape = tape
            tape._entries.append((out, inputs, needs, vjp, name))
    return out


def _broadcast(op: str, sa: tuple, sb: tuple) -> tuple:
    if sa == sb or sb == ():
        return sa
    if sa == ():
        return sb
    if len(sa) == len(sb) == 2 and sa[0] == sb[0] and 1 in (sa[1], sb[1]):
        return (sa[0], max(sa[1], sb[1]))  # a column against rows
    if len(sa) == 2 and sb == sa[1:]:
        return sa  # one row shared by all rows
    if len(sb) == 2 and sa == sb[1:]:
        return sb
    raise ShapeError(
        f"{op}: shapes {sa} and {sb} are incompatible (equal shapes, a scalar, "
        "a column against rows, or one row against rows)"
    )


def _reduce_to(g: np.ndarray, shape: tuple):
    """Gradient of an operand of `shape` from the output gradient `g`."""
    if g.shape == shape:
        return g.ravel()
    if shape == ():
        return np.array([g.sum()])
    if len(shape) == g.ndim:
        return g.sum(axis=-1)  # a column: one sum per row
    return Fold(g[::-1])  # a shared row: per-row contributions, last row first


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (R, k) x (R, k) -> (R,): each row as np.dot computes it; einsum and
    # (a * b).sum(1) round differently
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_shape(shape: tuple) -> tuple:
    # a per-row value: a scalar for one row, a column for a stack of rows
    return () if len(shape) == 1 else (shape[0], 1)


def _scatter_rows(n_rows: int, index, values: np.ndarray) -> np.ndarray:
    # -0.0 is the additive identity (x + -0.0 == x for every x, +0.0
    # included), so the padding leaves each row's gradient bits unchanged
    out = np.full((n_rows, values.shape[-1]), -0.0)
    np.add.at(out, index, values)
    return out.ravel()


class Tensor:
    __slots__ = ("shape", "data", "requires_grad", "grad", "_tape")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.array(values, dtype=np.float64, order="C")
        self.shape = arr.shape
        self.data = arr.reshape(-1)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._tape: Tape | None = None

    @classmethod
    def _wrap(cls, data: np.ndarray, shape: tuple) -> "Tensor":
        # internal: takes ownership of `data`, no copy, no validation
        t = object.__new__(cls)
        t.shape = shape
        t.data = data if data.ndim == 1 else data.ravel()
        t.requires_grad = False
        t.grad = None
        t._tape = None
        return t

    @property
    def size(self) -> int:
        return self.data.shape[0]

    def numpy(self) -> np.ndarray:
        return self.data.reshape(self.shape).copy()

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item: tensor of shape {self.shape} is not a scalar")
        return float(self.data[0])

    def detach(self) -> "Tensor":
        # shares storage, drops grad tracking; ops never mutate inputs
        return Tensor._wrap(self.data, self.shape)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __len__(self) -> int:
        """Length of the leading axis: the number of rows of a stack."""
        if self.shape == ():
            raise TypeError("len() of a 0-d tensor")
        return self.shape[0]

    def _row_matrix(self) -> np.ndarray:
        # the data as (rows, row length); a 1-D tensor is one row
        return self.data.reshape(-1, self.shape[-1])

    # -- binary arithmetic ------------------------------------------------

    def _binary(self, other: "Tensor", name: str, fn, vjp) -> "Tensor":
        oshape = _broadcast(name, self.shape, other.shape)
        a = self.data.reshape(self.shape)
        b = other.data.reshape(other.shape)
        out = Tensor._wrap(np.asarray(fn(a, b)).ravel(), oshape)
        sa, sb = self.shape, other.shape

        def back(g, needs):
            ga, gb = vjp(g.reshape(oshape), a, b)
            return (
                _reduce_to(ga, sa) if needs[0] else None,
                _reduce_to(gb, sb) if needs[1] else None,
            )

        return _record(out, (self, other), back, name)

    def _scalar(self, data: np.ndarray, name: str, vjp) -> "Tensor":
        # an op with a plain-number operand: self is its one input
        return _record(Tensor._wrap(data, self.shape), (self,), vjp, name)

    def __add__(self, other):
        if isinstance(other, Tensor):
            return self._binary(other, "add", np.add, lambda g, a, b: (g, g))
        return self._scalar(self.data + float(other), "add", lambda g, _: (g,))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return self._binary(other, "sub", np.subtract, lambda g, a, b: (g, -g))
        return self._scalar(self.data - float(other), "sub", lambda g, _: (g,))

    def __rsub__(self, other):
        return self._scalar(float(other) - self.data, "rsub", lambda g, _: (-g,))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return self._binary(other, "mul", np.multiply, lambda g, a, b: (g * b, g * a))
        c = float(other)
        return self._scalar(self.data * c, "mul", lambda g, _: (g * c,))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return self._binary(
                other, "div", np.divide, lambda g, a, b: (g / b, -g * a / (b * b))
            )
        c = float(other)
        return self._scalar(self.data / c, "div", lambda g, _: (g / c,))

    def __neg__(self):
        return self * -1.0

    def matmul(self, v: "Tensor") -> "Tensor":
        """(m, n) matrix times a (n,) vector, as one numpy matrix product."""
        if not isinstance(v, Tensor):
            raise TypeError("matmul: both operands must be tensors")
        sa, sb = self.shape, v.shape
        if len(sa) != 2 or len(sb) != 1 or sa[1] != sb[0]:
            raise ShapeError(f"matmul: shapes {sa} and {sb} are not (m, n) and (n,)")
        A = self.data.reshape(sa)
        B = v.data
        out = Tensor._wrap(A @ B, (sa[0],))

        def vjp(g, needs):
            ga = np.outer(g, B).ravel() if needs[0] else None
            gb = (A.T @ g).ravel() if needs[1] else None
            return ga, gb

        return _record(out, (self, v), vjp, "matmul")

    def matvec(self, x: "Tensor") -> "Tensor":
        """(m, n) matrix times each row of x: (n,) -> (m,), (B, n) -> (B, m)."""
        if not isinstance(x, Tensor):
            raise TypeError("matvec: both operands must be tensors")
        sw, sx = self.shape, x.shape
        if len(sw) != 2 or len(sx) not in (1, 2) or sx[-1] != sw[1]:
            raise ShapeError(f"matvec: shapes {sw} and {sx} do not give a matrix and rows")
        W = self.data.reshape(sw)
        X = x._row_matrix()
        # a stack of matrix-vector products, one gemv per row, so each row
        # gets the bits of W @ x; one X @ W.T gemm rounds differently
        Y = np.matmul(W, X[:, :, None])[:, :, 0]
        out = Tensor._wrap(Y.ravel(), sx[:-1] + (sw[0],))

        def vjp(g, needs):
            G = g.reshape(-1, sw[0])
            gw = None
            if needs[0]:  # outer products, last row first
                outer = G[::-1, :, None] * X[::-1, None, :]
                gw = Fold(outer.reshape(len(G), -1))
            gx = np.matmul(W.T, G[:, :, None])[:, :, 0].ravel() if needs[1] else None
            return gw, gx

        return _record(out, (self, x), vjp, "matvec")

    def dot(self, other: "Tensor") -> "Tensor":
        """Row-wise dot product: (k,) -> (), (B, k) -> (B, 1)."""
        if not isinstance(other, Tensor):
            raise TypeError("dot: both operands must be tensors")
        if len(self.shape) not in (1, 2) or self.shape != other.shape:
            raise ShapeError(
                f"dot: shapes {self.shape} and {other.shape} must be equal 1-D or 2-D"
            )
        A, B = self._row_matrix(), other._row_matrix()
        out = Tensor._wrap(_rowdot(A, B), _row_shape(self.shape))

        def vjp(g, needs):
            G = g[:, None]
            return ((G * B).ravel() if needs[0] else None, (G * A).ravel() if needs[1] else None)

        return _record(out, (self, other), vjp, "dot")

    # -- reductions --------------------------------------------------------

    def sum(self, axis: int | None = None) -> "Tensor":
        """Sum of all elements, or with axis=-1 of each row (a column for rows)."""
        if axis is None:
            out = Tensor._wrap(np.array([self.data.sum()]), ())
            n = self.size

            def vjp(g, _):
                return (np.full(n, g[0]),)

        elif axis == -1 and len(self.shape) in (1, 2):
            A = self._row_matrix()
            out = Tensor._wrap(A.sum(axis=-1), _row_shape(self.shape))
            k = A.shape[1]

            def vjp(g, _):
                return (np.repeat(g, k),)

        else:
            raise ShapeError(f"sum: axis {axis} of shape {self.shape} (None or -1 only)")
        return _record(out, (self,), vjp, "sum")

    def mean(self) -> "Tensor":
        """Mean over the leading axis, adding rows left to right."""
        if self.shape == ():
            raise ShapeError("mean: tensor has no leading axis")
        n = self.shape[0]
        if n == 0:
            raise ShapeError("mean: tensor has no elements")
        A = self.data.reshape(n, -1)
        total = np.add.accumulate(A, axis=0)[-1]  # a running sum, row by row
        out = Tensor._wrap(total / float(n), self.shape[1:])

        def vjp(g, _):
            return (np.tile(g / float(n), n),)

        return _record(out, (self,), vjp, "mean")

    def l2_norm(self) -> "Tensor":
        """Row-wise Euclidean norm: (k,) -> (), (B, k) -> (B, 1)."""
        if len(self.shape) not in (1, 2):
            raise ShapeError(f"l2_norm: shape {self.shape} is not 1-D or 2-D")
        A = self._row_matrix()
        norm = np.sqrt(_rowdot(A, A))
        out = Tensor._wrap(norm, _row_shape(self.shape))

        def vjp(g, _):
            zero = norm == 0.0
            ga = (g / np.where(zero, 1.0, norm))[:, None] * A
            ga[zero] = 0.0  # subgradient 0 at the cone tip
            return (ga.ravel(),)

        return _record(out, (self,), vjp, "l2_norm")

    def take(self, index) -> "Tensor":
        """Rows (or elements, for 1-D) at `index` along the leading axis."""
        if self.shape == ():
            raise ShapeError("take: tensor has no leading axis")
        index = np.asarray(index, dtype=np.intp)
        n = self.shape[0]
        A = self.data.reshape(n, -1)
        out = Tensor._wrap(A[index].ravel(), (len(index),) + self.shape[1:])

        def vjp(g, _):
            return (_scatter_rows(n, index, g.reshape(len(index), -1)),)

        return _record(out, (self,), vjp, "take")

    # -- elementwise unaries -----------------------------------------------

    def relu(self) -> "Tensor":
        mask = self.data > 0.0  # subgradient at 0 is 0
        out = Tensor._wrap(np.where(mask, self.data, 0.0), self.shape)

        def vjp(g, _):
            return (g * mask,)

        return _record(out, (self,), vjp, "relu")

    def tanh(self) -> "Tensor":
        y = np.tanh(self.data)
        out = Tensor._wrap(y, self.shape)

        def vjp(g, _):
            return (g * (1.0 - y * y),)

        return _record(out, (self,), vjp, "tanh")

    def square(self) -> "Tensor":
        ad = self.data
        out = Tensor._wrap(ad * ad, self.shape)

        def vjp(g, _):
            return (g * (2.0 * ad),)

        return _record(out, (self,), vjp, "square")

    def acos(self) -> "Tensor":
        ad = self.data
        if not np.isfinite(ad).all():
            raise DomainError("acos: input contains non-finite values")
        # flat cap: inputs within EPS_ACOS of an endpoint snap to the exact
        # endpoint value and carry zero gradient, so near-collinear cosines
        # produced by unit-vector round-off land on 0 / pi exactly
        snapped = np.where(
            ad >= 1.0 - EPS_ACOS, 1.0, np.where(ad <= -1.0 + EPS_ACOS, -1.0, ad)
        )
        out = Tensor._wrap(np.arccos(snapped), self.shape)
        mask = np.abs(ad) < 1.0 - EPS_ACOS

        def vjp(g, _):
            ga = np.zeros_like(ad)
            np.divide(-g, np.sqrt(np.where(mask, 1.0 - ad * ad, 1.0)), out=ga, where=mask)
            return (ga,)

        return _record(out, (self,), vjp, "acos")


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
    the pair order, for `pair_distances` and whoever reads its output."""
    return _frozen(*np.triu_indices(n, 1))


def pair_distances(rows: Tensor) -> Tensor:
    """Euclidean distance of every unordered pair of rows of a (B, k)
    tensor, as a (P,) tensor.

    Pairs (i, j), i < j, come in row-major order, the order of the loop
    `for i: for j > i`.  Each distance is `(e_i - e_j).l2_norm()` of the
    rows alone to the bit, and row i takes its gradient contributions one
    per partner, in descending partner index, as that loop's reversed tape
    would add them.
    """
    if len(rows.shape) != 2:
        raise ShapeError(f"pair_distances: shape {rows.shape} is not (B, k)")
    n = rows.shape[0]
    if n < 2:
        raise ShapeError(f"pair_distances: need 2 or more rows, got {n}")
    E = rows._row_matrix()
    i, j = pair_index(n)
    diff = E[i] - E[j]
    norm = np.sqrt(_rowdot(diff, diff))
    out = Tensor._wrap(norm, norm.shape)

    def vjp(g, _):
        zero = norm == 0.0
        contrib = (g / np.where(zero, 1.0, norm))[:, None] * diff
        contrib[zero] = 0.0  # subgradient 0 at the cone tip
        # as the first operand of e_i - e_j a row takes +c, as the second
        # -c; step s adds every row's s-th partner
        pair, sign = _partner_order(n)
        steps = contrib[pair] * sign[:, :, None]
        return (Fold(steps.reshape(n - 1, -1)),)

    return _record(out, (rows,), vjp, "pair_distances")


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
    tape = out._tape
    if tape is None:
        raise TapeError("backward: output was not produced under an active tape")
    if out.size != 1:
        raise TapeError(f"backward: output must be a scalar, got shape {out.shape}")
    grads: dict[int, np.ndarray] = {id(out): np.ones(1)}
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
                acc = ig if acc is None else acc + ig
            elif ig.parts.shape[1] > 1:
                parts = ig.parts if acc is None else np.concatenate((acc[None], ig.parts))
                acc = np.add.reduce(np.ascontiguousarray(parts), axis=0)
            else:  # one column: reduce would sum it pairwise
                for part in ig.parts:
                    acc = part if acc is None else acc + part
            grads[id(t)] = acc
        for t in inputs:
            if t.requires_grad:
                holders[id(t)] = t
    for t in holders.values():
        new = grads.get(id(t))
        if new is not None:
            t.grad = new.copy()


def grad_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative disagreement between reverse-mode and central differences.

    Returns max_i |analytic_i - numeric_i| / max(1, |analytic_i|).  `f` must
    map a tensor to a scalar tensor and be evaluated away from non-smooth
    points for the comparison to be meaningful.
    """
    if not isinstance(x, Tensor):
        raise TypeError("grad_check: x must be a Tensor")
    x.requires_grad = True
    with record():
        y = f(x)
        if not isinstance(y, Tensor) or y.size != 1:
            raise TapeError("grad_check: f must return a scalar tensor")
        if y._tape is None:
            analytic = np.zeros(x.size)  # f is constant in x
        else:
            backward(y)
            analytic = x.grad.copy() if x.grad is not None else np.zeros(x.size)
    if not np.isfinite(float(y.data[0])):
        raise FloatingPointError("grad_check: f returned a non-finite value")
    numeric = np.empty(x.size)
    for i in range(x.size):
        orig = x.data[i]
        x.data[i] = orig + h
        hi = float(f(x).data[0])
        x.data[i] = orig - h
        lo = float(f(x).data[0])
        x.data[i] = orig
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise FloatingPointError(
                f"grad_check: f returned a non-finite value at coordinate {i}"
            )
        numeric[i] = (hi - lo) / (2.0 * h)
    err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(err.max()) if err.size else 0.0
