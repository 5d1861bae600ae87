"""Hypersphere geometry: projection, distances, class centroids.

Distance helpers accept tensors or array-likes, one vector (k,) or a stack
of rows (B, k), and return a scalar tensor or a (B, 1) column, so they
can sit inside a differentiable graph or be evaluated standalone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
