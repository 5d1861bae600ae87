"""Objectives for the two training phases, one graph per batch.

Phase one perturbs inputs: each sample is pushed away from its class
centroid on the embedding sphere (`loss_geo`) while two semantic terms
tether it, a quadratic one in input space (`loss_sem_low`) and a hinge on
embedding-space drift past a margin (`_drift_hinge`).  `c3e_objective`
sums the three with unit weights, one value per row, and is
differentiated with respect to the input only; the encoder and centroids
stay frozen.

Phase two updates the encoder: a margin contrastive term over sample pairs
(`loss_dom`) plus a weighted centripetal term pulling every embedding back
toward its class centroid along the sphere (`loss_dis`), combined in
`loss_c4`.

The per-row terms take one sample as 1-D tensors or a batch as rows (see
`tensor`); `loss_dom` and `loss_c4` take a batch as a row matrix and a
class-id vector.  Each row gets exactly the value and gradient of that row
computed alone; batch means add rows left to right.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import schema
from .geometry import CentroidTable, as_tensor, euclidean_distance, geodesic_distance
from .tensor import Tensor, pair_distances, pair_index

@dataclass(frozen=True)
class LossConfig:
    margin_m: float = field(default=1.0, metadata={"above": 0})  # expansion drift margin
    lam: float = field(default=0.75, metadata={"key": "lambda", "min": 0})  # centripetal weight
    margin_pos: float = field(default=0.0, metadata={"min": 0})
    margin_neg: float = 1.0

    def __post_init__(self):
        schema.check_fields(self)
        if not self.margin_pos < self.margin_neg:
            raise ValueError(
                f"need margin_pos < margin_neg, got {self.margin_pos}, {self.margin_neg}"
            )


def loss_geo(x_tilde_embed: Tensor, centroid) -> Tensor:
    """Negated sphere distance to the centroid; minimizing drives expansion."""
    return -geodesic_distance(centroid, x_tilde_embed)


def loss_sem_low(x, x_tilde) -> Tensor:
    """Squared input-space displacement, the energy of the straight path."""
    return (as_tensor(x) - as_tensor(x_tilde)).square().sum(axis=-1)


def _drift_hinge(d_tilde: Tensor, d_orig, margin: float) -> Tensor:
    """Hinge on embedding drift past the original sample's centroid distance
    `d_orig`: exactly zero, with exactly zero gradient, once the perturbed
    embedding's distance `d_tilde` is below `d_orig - margin`."""
    return (d_tilde - as_tensor(d_orig) + float(margin)).relu()


def c3e_reference(x, centroid, model) -> np.ndarray:
    """Hinge reference of `c3e_objective`: the centroid distance of the
    unperturbed input's embedding, fixed while that input is expanded."""
    return euclidean_distance(Tensor(centroid), model.forward(x, frozen=True)).numpy()


def c3e_objective(x, x_tilde, centroid, d_orig, model, margin: float) -> Tensor:
    """Expansion objective per row: geo + sem_low + sem_high (the drift
    hinge), unit weights.

    `d_orig` is `c3e_reference(x, centroid, model)`.  The encoder is applied
    frozen, so gradients flow to `x_tilde` only when `x` is constant.
    """
    mu = Tensor(centroid)
    e_tilde = model.forward(x_tilde, frozen=True)
    return (
        loss_geo(e_tilde, mu)
        + loss_sem_low(x, x_tilde)
        + _drift_hinge(euclidean_distance(mu, e_tilde), d_orig, margin)
    )


def loss_dom(embeddings: Tensor, class_ids, config: LossConfig) -> Tensor:
    """Margin contrastive loss over the unordered pairs of rows of the
    (B, k) `embeddings`, row r of class `class_ids[r]`.

    Same-class pairs pay [d - margin_pos]+, cross-class pairs pay
    [margin_neg - d]+; each group is averaged over its pair count, and a
    group with no pairs contributes zero.
    """
    n = len(embeddings)
    if len(class_ids) != n:
        raise ValueError(f"loss_dom: {n} embedding rows but {len(class_ids)} class ids")
    if n < 2:
        raise ValueError(f"loss_dom: need at least 2 samples, got {n}")
    d = pair_distances(embeddings)
    labels = np.asarray(class_ids)
    i, j = pair_index(n)  # the pairs of `d`, in its order
    same = labels[i] == labels[j]
    total = None
    if same.any():
        total = (d.take(np.flatnonzero(same)) - config.margin_pos).relu().mean()
    if not same.all():
        neg_term = (config.margin_neg - d.take(np.flatnonzero(~same))).relu().mean()
        total = neg_term if total is None else total + neg_term
    return total


def loss_dis(embedding: Tensor, centroid) -> Tensor:
    """Sphere distance to the class centroid; minimizing pulls inward."""
    return geodesic_distance(centroid, embedding)


def loss_c4(x, class_ids, model, centroids: CentroidTable | None, config: LossConfig) -> Tensor:
    """Contrastive term plus lambda-weighted centripetal term over a batch.

    `x` holds the (B, d) inputs, originals and expanded samples alike, and
    `class_ids` their classes; expanded samples inherit the centroids of
    their class, and at lambda 0 the table is not read and may be None.
    Both terms read the one embedding stack; the centripetal term is
    recorded last, so each row sums its centripetal gradient first and its
    pair gradients onto it, as per-sample graphs do.
    """
    if len(x) < 2:
        raise ValueError(f"loss_c4: need at least 2 samples, got {len(x)}")
    embeddings = model.forward(x)
    total = loss_dom(embeddings, class_ids, config)
    if config.lam != 0.0:  # lambda = 0 reduces to the contrastive term exactly
        dis = loss_dis(embeddings, centroids.vectors(class_ids))
        total = total + config.lam * dis.mean()
    return total
