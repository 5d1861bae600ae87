"""Dense float64 tensors with tape-based reverse-mode differentiation.

Storage is a flat row-major float64 array plus a shape tuple.  Ops record
onto the active tape (see `record`) when any operand participates in it;
`backward` replays the tape in reverse execution order, which makes
gradients bitwise reproducible for a fixed graph.  The active tape is per
thread and per async context, so concurrent runs in one process keep
separate graphs.

Elementwise ops support equal shapes or scalar broadcast only.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

EPS_ACOS = 1e-7  # arccos gradient is treated as flat for |cos| >= 1-eps


class ShapeError(ValueError):
    pass


class TapeError(RuntimeError):
    pass


class DomainError(ValueError):
    pass


class Tape:
    """Ordered record of primitive ops: (output, inputs, vjp, name)."""

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries = []

    def __len__(self):
        return len(self._entries)


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


def _size(shape) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


def _binary_shape(op: str, sa: tuple, sb: tuple) -> tuple:
    if sa == sb:
        return sa
    if sa == ():
        return sb
    if sb == ():
        return sa
    raise ShapeError(
        f"{op}: shapes {sa} and {sb} are incompatible (equal shapes or scalar broadcast only)"
    )


def _reduce_to(g: np.ndarray, target_shape: tuple, out_shape: tuple) -> np.ndarray:
    # scalar operand in a broadcast op collects the sum of its output grads
    if target_shape == out_shape:
        return g
    return np.array([g.sum()])


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

    # -- binary arithmetic ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            oshape = _binary_shape("add", self.shape, other.shape)
            out = Tensor._wrap(self.data + other.data, oshape)
            tape = _ACTIVE.get()
            if tape is not None:
                na, nb = _part(self, tape), _part(other, tape)
                if na or nb:
                    sa, sb = self.shape, other.shape

                    def vjp(g):
                        return (
                            _reduce_to(g, sa, oshape) if na else None,
                            _reduce_to(g, sb, oshape) if nb else None,
                        )

                    _push(tape, out, (self, other), vjp, "add")
            return out
        out = Tensor._wrap(self.data + float(other), self.shape)
        _push_unary_passthrough(self, out, "add")
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            oshape = _binary_shape("sub", self.shape, other.shape)
            out = Tensor._wrap(self.data - other.data, oshape)
            tape = _ACTIVE.get()
            if tape is not None:
                na, nb = _part(self, tape), _part(other, tape)
                if na or nb:
                    sa, sb = self.shape, other.shape

                    def vjp(g):
                        return (
                            _reduce_to(g, sa, oshape) if na else None,
                            -_reduce_to(g, sb, oshape) if nb else None,
                        )

                    _push(tape, out, (self, other), vjp, "sub")
            return out
        out = Tensor._wrap(self.data - float(other), self.shape)
        _push_unary_passthrough(self, out, "sub")
        return out

    def __rsub__(self, other):
        out = Tensor._wrap(float(other) - self.data, self.shape)
        tape = _ACTIVE.get()
        if tape is not None and _part(self, tape):
            _push(tape, out, (self,), lambda g: (-g,), "rsub")
        return out

    def __mul__(self, other):
        if isinstance(other, Tensor):
            oshape = _binary_shape("mul", self.shape, other.shape)
            out = Tensor._wrap(self.data * other.data, oshape)
            tape = _ACTIVE.get()
            if tape is not None:
                na, nb = _part(self, tape), _part(other, tape)
                if na or nb:
                    sa, sb = self.shape, other.shape
                    ad, bd = self.data, other.data

                    def vjp(g):
                        return (
                            _reduce_to(g * bd, sa, oshape) if na else None,
                            _reduce_to(g * ad, sb, oshape) if nb else None,
                        )

                    _push(tape, out, (self, other), vjp, "mul")
            return out
        c = float(other)
        out = Tensor._wrap(self.data * c, self.shape)
        tape = _ACTIVE.get()
        if tape is not None and _part(self, tape):
            _push(tape, out, (self,), lambda g: (g * c,), "mul")
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            oshape = _binary_shape("div", self.shape, other.shape)
            out = Tensor._wrap(self.data / other.data, oshape)
            tape = _ACTIVE.get()
            if tape is not None:
                na, nb = _part(self, tape), _part(other, tape)
                if na or nb:
                    sa, sb = self.shape, other.shape
                    ad, bd = self.data, other.data

                    def vjp(g):
                        ga = _reduce_to(g / bd, sa, oshape) if na else None
                        gb = (
                            _reduce_to(-g * ad / (bd * bd), sb, oshape)
                            if nb
                            else None
                        )
                        return ga, gb

                    _push(tape, out, (self, other), vjp, "div")
            return out
        c = float(other)
        out = Tensor._wrap(self.data / c, self.shape)
        tape = _ACTIVE.get()
        if tape is not None and _part(self, tape):
            _push(tape, out, (self,), lambda g: (g / c,), "div")
        return out

    def __rtruediv__(self, other):
        c = float(other)
        out = Tensor._wrap(c / self.data, self.shape)
        tape = _ACTIVE.get()
        if tape is not None and _part(self, tape):
            ad = self.data

            def vjp(g):
                return (-g * c / (ad * ad),)

            _push(tape, out, (self,), vjp, "rdiv")
        return out

    def __neg__(self):
        return self * -1.0

    def __matmul__(self, other):
        return self.matmul(other)

    def matmul(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            raise TypeError("matmul: both operands must be tensors")
        sa, sb = self.shape, other.shape
        if len(sa) == 0 or len(sb) == 0 or len(sa) > 2 or len(sb) > 2:
            raise ShapeError(f"matmul: shapes {sa} and {sb} are not 1-D/2-D")
        if sa[-1] != sb[0]:
            raise ShapeError(f"matmul: shapes {sa} and {sb} have mismatched inner dims")
        A = self.data.reshape(sa)
        B = other.data.reshape(sb)
        out_nd = A @ B
        out = Tensor._wrap(out_nd, out_nd.shape)
        tape = _ACTIVE.get()
        if tape is not None:
            na, nb = _part(self, tape), _part(other, tape)
            if na or nb:

                def vjp(g):
                    G = g.reshape(out_nd.shape)
                    if len(sa) == 2 and len(sb) == 2:
                        ga = (G @ B.T).ravel() if na else None
                        gb = (A.T @ G).ravel() if nb else None
                    elif len(sa) == 1:  # (n,) @ (n,p) -> (p,)
                        ga = (B @ G).ravel() if na else None
                        gb = np.outer(A, G).ravel() if nb else None
                    else:  # (m,n) @ (n,) -> (m,)
                        ga = np.outer(G, B).ravel() if na else None
                        gb = (A.T @ G).ravel() if nb else None
                    return ga, gb

                _push(tape, out, (self, other), vjp, "matmul")
        return out

    def dot(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            raise TypeError("dot: both operands must be tensors")
        if len(self.shape) != 1 or self.shape != other.shape:
            raise ShapeError(
                f"dot: shapes {self.shape} and {other.shape} must be equal 1-D"
            )
        out = Tensor._wrap(np.array([np.dot(self.data, other.data)]), ())
        tape = _ACTIVE.get()
        if tape is not None:
            na, nb = _part(self, tape), _part(other, tape)
            if na or nb:
                ad, bd = self.data, other.data

                def vjp(g):
                    gv = g[0]
                    return (gv * bd if na else None, gv * ad if nb else None)

                _push(tape, out, (self, other), vjp, "dot")
        return out

    # -- reductions --------------------------------------------------------

    def sum(self) -> "Tensor":
        out = Tensor._wrap(np.array([self.data.sum()]), ())
        tape = _ACTIVE.get()
        if tape is not None and _part(self, tape):
            n = self.size

            def vjp(g):
                return (np.full(n, g[0]),)

            _push(tape, out, (self,), vjp, "sum")
        return out

    def mean(self) -> "Tensor":
        n = self.size
        if n == 0:
            raise ShapeError("mean: tensor has no elements")
        out = Tensor._wrap(np.array([self.data.sum() / n]), ())
        tape = _ACTIVE.get()
        if tape is not None and _part(self, tape):

            def vjp(g):
                return (np.full(n, g[0] / n),)

            _push(tape, out, (self,), vjp, "mean")
        return out

    def l2_norm(self) -> "Tensor":
        norm = math.sqrt(np.dot(self.data, self.data))
        out = Tensor._wrap(np.array([norm]), ())
        tape = _ACTIVE.get()
        if tape is not None and _part(self, tape):
            ad = self.data

            def vjp(g):
                # subgradient 0 at the cone tip
                if norm == 0.0:
                    return (np.zeros_like(ad),)
                return ((g[0] / norm) * ad,)

            _push(tape, out, (self,), vjp, "l2_norm")
        return out

    # -- elementwise unaries -----------------------------------------------

    def relu(self) -> "Tensor":
        mask = self.data > 0.0  # subgradient at 0 is 0
        out = Tensor._wrap(np.where(mask, self.data, 0.0), self.shape)
        tape = _ACTIVE.get()
        if tape is not None and _part(self, tape):

            def vjp(g):
                return (g * mask,)

            _push(tape, out, (self,), vjp, "relu")
        return out

    def tanh(self) -> "Tensor":
        y = np.tanh(self.data)
        out = Tensor._wrap(y, self.shape)
        tape = _ACTIVE.get()
        if tape is not None and _part(self, tape):

            def vjp(g):
                return (g * (1.0 - y * y),)

            _push(tape, out, (self,), vjp, "tanh")
        return out

    def sqrt(self) -> "Tensor":
        y = np.sqrt(self.data)
        out = Tensor._wrap(y, self.shape)
        tape = _ACTIVE.get()
        if tape is not None and _part(self, tape):

            def vjp(g):
                return (g * (0.5 / y),)

            _push(tape, out, (self,), vjp, "sqrt")
        return out

    def square(self) -> "Tensor":
        out = Tensor._wrap(self.data * self.data, self.shape)
        tape = _ACTIVE.get()
        if tape is not None and _part(self, tape):
            ad = self.data

            def vjp(g):
                return (g * (2.0 * ad),)

            _push(tape, out, (self,), vjp, "square")
        return out

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
        tape = _ACTIVE.get()
        if tape is not None and _part(self, tape):
            mask = np.abs(ad) < 1.0 - EPS_ACOS

            def vjp(g):
                ga = np.zeros_like(ad)
                np.divide(-g, np.sqrt(1.0 - ad * ad), out=ga, where=mask)
                return (ga,)

            _push(tape, out, (self,), vjp, "acos")
        return out

    def clamp(self, lo: float, hi: float) -> "Tensor":
        lo, hi = float(lo), float(hi)
        if not lo <= hi:
            raise ValueError(f"clamp: lo={lo} exceeds hi={hi}")
        ad = self.data
        out = Tensor._wrap(np.clip(ad, lo, hi), self.shape)
        tape = _ACTIVE.get()
        if tape is not None and _part(self, tape):
            mask = (ad > lo) & (ad < hi)  # subgradient 0 at exact bounds

            def vjp(g):
                return (g * mask,)

            _push(tape, out, (self,), vjp, "clamp")
        return out


def _part(t: Tensor, tape: Tape) -> bool:
    return t.requires_grad or t._tape is tape


def _push(tape: Tape, out: Tensor, inputs: tuple, vjp, name: str) -> None:
    out._tape = tape
    tape._entries.append((out, inputs, vjp, name))


def _push_unary_passthrough(src: Tensor, out: Tensor, name: str) -> None:
    # add/sub with a plain-number operand: grad passes straight through
    tape = _ACTIVE.get()
    if tape is not None and _part(src, tape):
        _push(tape, out, (src,), lambda g: (g,), name)


def backward(out: Tensor, accumulate: bool = False) -> None:
    """Replay the tape backward from scalar `out`, populating `.grad`.

    Gradients of requires_grad tensors reachable from `out` are overwritten
    unless `accumulate` is set.
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
    for entry_out, inputs, vjp, _name in reversed(tape._entries):
        g = grads.get(id(entry_out))
        if g is None:
            continue
        for t, ig in zip(inputs, vjp(g)):
            if ig is None:
                continue
            prev = grads.get(id(t))
            grads[id(t)] = ig if prev is None else prev + ig
            if t.requires_grad:
                holders[id(t)] = t
    for t in holders.values():
        new = grads.get(id(t))
        if new is None:
            continue
        if accumulate and t.grad is not None:
            t.grad = t.grad + new
        else:
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
