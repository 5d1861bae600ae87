"""Hypersphere geometry: projection, distances, class centroids.

Distance helpers accept tensors or array-likes, one vector (k,) or a stack
of rows (B, k), and return a scalar tensor or a (B, 1) column, so they
can sit inside a differentiable graph or be evaluated standalone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import ShapeError, Tensor

EPS_PROJECTION = 1e-12  # vectors at or below this norm have no direction


class DegenerateVectorError(ValueError):
    pass


def as_tensor(v) -> Tensor:
    return v if isinstance(v, Tensor) else Tensor(v)


def project_to_sphere(v) -> Tensor:
    """v / ||v|| for a vector or each row, rejecting vectors too short to
    carry a direction."""
    v = as_tensor(v)
    n = v.l2_norm()
    short = n.data <= EPS_PROJECTION
    if short.any():
        raise DegenerateVectorError(
            f"cannot project vector with norm {n.data[short.argmax()]:.3e} (<= {EPS_PROJECTION})"
        )
    return v / n


def euclidean_distance(u, v) -> Tensor:
    u, v = as_tensor(u), as_tensor(v)
    return (u - v).l2_norm()


def geodesic_distance(u, v) -> Tensor:
    """Arc distance between the directions of u and v, scaled to [0, 1].

    0 for parallel, 1/2 for orthogonal, 1 for antipodal vectors.
    """
    u, v = as_tensor(u), as_tensor(v)
    c = project_to_sphere(u).dot(project_to_sphere(v))
    return c.acos() / math.pi


@dataclass(frozen=True)
class CentroidTable:
    """Per-class mean vectors, frozen at construction.

    The centroids are stacked once, in ascending class order, into one
    read-only matrix; `centroids` maps each class to its row.
    """

    centroids: dict[int, np.ndarray]
    counts: dict[int, int]
    _classes: np.ndarray = field(init=False, repr=False, compare=False)
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        classes = sorted(self.centroids)
        matrix = np.stack([self.centroids[c] for c in classes])
        matrix.flags.writeable = False
        object.__setattr__(self, "_classes", np.array(classes))
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "centroids", dict(zip(classes, matrix)))

    def vector(self, class_id: int) -> np.ndarray:
        if class_id not in self.centroids:
            raise KeyError(f"no centroid for class {class_id}")
        return self.centroids[class_id]

    def vectors(self, class_ids) -> np.ndarray:
        """The centroid of each class in `class_ids`, as rows."""
        wanted = np.asarray(class_ids)
        rows = np.searchsorted(self._classes, wanted).clip(max=len(self._classes) - 1)
        missing = self._classes[rows] != wanted
        if missing.any():
            raise KeyError(f"no centroid for class {wanted[missing.argmax()]}")
        return self._matrix[rows]


def compute_centroids(items) -> CentroidTable:
    """Mean vector per class over `items` = iterable of (class_id, vector).

    Summation runs in input order, so results are reproducible for a fixed
    ordering and agree across reorderings up to float associativity.
    """
    sums: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    dim = None
    n = 0
    for class_id, vec in items:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.ndim != 1:
            raise ShapeError(f"compute_centroids: vector for class {class_id} is not 1-D")
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise ShapeError(
                f"compute_centroids: mixed dims {dim} and {vec.shape[0]}"
            )
        if class_id in sums:
            sums[class_id] = sums[class_id] + vec
            counts[class_id] += 1
        else:
            sums[class_id] = vec.copy()
            counts[class_id] = 1
        n += 1
    if n == 0:
        raise ValueError("compute_centroids: empty input")
    centroids = {c: sums[c] / counts[c] for c in sums}
    return CentroidTable(centroids=centroids, counts=counts)
