"""Hypersphere geometry: distances and class centroids.

Distance helpers accept tensors or array-likes, one vector (k,) or a stack
of rows (B, k), and return a scalar tensor or a (B, 1) column, so they
can sit inside a differentiable graph or be evaluated standalone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    Fold,
    ShapeError,
    Tensor,
    _acos,
    _acos_grad,
    _norm_grad,
    _record,
    _reduce_to,
    _row_norm,
    _rowdot,
)

EPS_PROJECTION = 1e-12  # vectors at or below this norm have no direction


class DegenerateVectorError(ValueError):
    pass


def as_tensor(v) -> Tensor:
    return v if isinstance(v, Tensor) else Tensor(v)


def _check_direction(norm: np.ndarray) -> None:
    short = norm <= EPS_PROJECTION
    if short.any():
        raise DegenerateVectorError(
            f"cannot project vector with norm {norm[short][0]:.3e} (<= {EPS_PROJECTION})"
        )


def euclidean_distance(u, v) -> Tensor:
    u, v = as_tensor(u), as_tensor(v)
    return (u - v).l2_norm()


def geodesic_distance(u, v) -> Tensor:
    """Arc distance between the directions of u and v, scaled to [0, 1].

    0 for parallel, 1/2 for orthogonal, 1 for antipodal vectors.  u and v
    must have equal shapes, 1-D or 2-D.  One recorded op with the values and
    gradients of the chain `acos(dot(u / |u|, v / |v|)) / pi` of 1-D ops on
    each row, bit for bit: each input takes its two contributions, through
    the projection and through the norm, as one `Fold`, v's before u's, in
    the order the reversed chain adds them.  A vector too short to carry a
    direction raises DegenerateVectorError.
    """
    u, v = as_tensor(u), as_tensor(v)
    distance, grad = _geodesic(u.data, v.data)

    def vjp(g, needs):
        folds = [Fold.empty(2, t.shape) if need else None for t, need in zip((v, u), needs)]
        grad(g, *(None if fold is None else fold.parts for fold in folds))
        return folds

    return _record(Tensor._wrap(distance), (v, u), vjp, "geodesic_distance")


def _geodesic(U: np.ndarray, V: np.ndarray):
    """The arithmetic of `geodesic_distance` on arrays: the distances, and
    `grad(g, parts_v, parts_u)`, which writes the two contributions that a
    distance gradient `g` passes to V, and to U, into the given (2, *shape)
    arrays (None skips that input)."""
    if U.ndim not in (1, 2) or U.shape != V.shape:
        raise ShapeError(
            f"geodesic_distance: shapes {U.shape} and {V.shape} must be equal 1-D or 2-D"
        )
    nu = _row_norm(U)
    _check_direction(nu)
    pu = U / nu
    nv = _row_norm(V)
    _check_direction(nv)
    pv = V / nv
    c = _rowdot(pu, pv)
    angle, mask = _acos(c)

    def grad(g, parts_v, parts_u):
        gc = _acos_grad(g / _PI, c, mask)
        if parts_v is not None:
            _projection_parts(gc * pu, V, nv, parts_v)
        if parts_u is not None:
            _projection_parts(gc * pv, U, nu, parts_u)

    return angle / _PI, grad


_PI = np.array(math.pi)  # the chain divides by a constant tensor of pi


def _projection_parts(g: np.ndarray, rows: np.ndarray, norm: np.ndarray, parts) -> None:
    # the gradients that `rows / norm` with `norm = rows.l2_norm()` passes
    # to `rows`, in the reversed chain's order: the quotient's, then the norm's
    np.divide(g, norm, out=parts[0])
    gnorm = _reduce_to(-g * rows / (norm * norm), norm.shape)
    parts[1] = _norm_grad(gnorm, norm, rows)


@dataclass(frozen=True)
class CentroidTable:
    """Per-class mean vectors: row i of `matrix` is the centroid of class
    `classes[i]`, and `classes` ascends.  Both arrays are read-only."""

    classes: np.ndarray
    matrix: np.ndarray

    def vectors(self, class_ids) -> np.ndarray:
        """The centroid of each class in `class_ids`, as rows."""
        wanted = np.asarray(class_ids)
        rows = np.searchsorted(self.classes, wanted).clip(max=len(self.classes) - 1)
        missing = self.classes[rows] != wanted
        if missing.any():
            raise KeyError(f"no centroid for class {wanted[missing.argmax()]}")
        return self.matrix[rows]


def compute_centroids(labels, embeddings) -> CentroidTable:
    """Mean row of `embeddings` (n, k) per class in `labels` (n,).

    Other shapes raise ShapeError, and n = 0 raises ValueError.  Each class's
    rows are added in input order, so results are reproducible for a fixed
    ordering and agree across reorderings up to float associativity.
    """
    labels = np.asarray(labels)
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if labels.ndim != 1 or embeddings.ndim != 2 or len(labels) != len(embeddings):
        raise ShapeError(
            f"compute_centroids: shapes {labels.shape} and {embeddings.shape} are not (n,) and (n, k)"
        )
    if not len(labels):
        raise ValueError("compute_centroids: empty input")
    classes, counts = np.unique(labels, return_counts=True)
    # each class's rows in input order, one class after another; accumulate
    # adds row after row, also for one column, where a reduction would add pairwise
    groups = np.split(embeddings[np.argsort(labels, kind="stable")], np.cumsum(counts)[:-1])
    matrix = np.stack([np.add.accumulate(g, axis=0)[-1] for g in groups]) / counts[:, None]
    classes.flags.writeable = matrix.flags.writeable = False
    return CentroidTable(classes, matrix)
