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
            f"cannot project vector with norm {n.data[short][0]:.3e} (<= {EPS_PROJECTION})"
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
    pairs = list(items)
    if not pairs:
        raise ValueError("compute_centroids: empty input")
    vectors = [np.asarray(vec, dtype=np.float64) for _, vec in pairs]
    if len({vec.shape for vec in vectors}) != 1 or vectors[0].ndim != 1:
        # name the first vector that is not 1-D or not of the first one's size
        for (class_id, _), vec in zip(pairs, vectors):
            if vec.ndim != 1:
                raise ShapeError(f"compute_centroids: vector for class {class_id} is not 1-D")
            if vec.shape != vectors[0].shape:
                raise ShapeError(
                    f"compute_centroids: mixed dims {len(vectors[0])} and {len(vec)}"
                )
    members: dict = {}
    for (class_id, _), vec in zip(pairs, vectors):
        members.setdefault(class_id, []).append(vec)
    # each class's rows in input order, one class after another
    rows = np.concatenate([vec for group in members.values() for vec in group])
    rows = rows.reshape(len(pairs), len(vectors[0]))
    counts = [len(group) for group in members.values()]
    ends = np.cumsum(counts).tolist()
    # accumulate adds row after row, also for one column, where a reduction
    # would add pairwise
    sums = [np.add.accumulate(rows[end - n : end], axis=0)[-1] for end, n in zip(ends, counts)]
    centroids = dict(zip(members, np.stack(sums) / np.array(counts)[:, None]))
    return CentroidTable(centroids=centroids, counts=dict(zip(members, counts)))
