"""Objectives for the two training phases.

Phase one perturbs inputs: each sample is pushed away from its class
centroid on the embedding sphere (`loss_geo`) while two semantic terms
tether it, a quadratic one in input space (`loss_sem_low`) and a hinge on
embedding-space drift past a margin (`loss_sem_high`).  `c3e_objective`
sums the three with unit weights for one sample and is differentiated with
respect to the input only; the encoder and centroids stay frozen.
`loss_c3e` is its batch mean.

Phase two updates the encoder: a margin contrastive term over sample pairs
(`loss_dom`) plus a weighted centripetal term pulling every embedding back
toward its class centroid along the sphere (`loss_dis`), combined in
`loss_c4`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import CentroidTable, euclidean_distance, geodesic_distance
from .tensor import Tensor

@dataclass(frozen=True)
class LossConfig:
    margin_m: float = 1.0  # expansion drift margin
    lam: float = field(default=0.75, metadata={"key": "lambda"})  # centripetal weight
    margin_pos: float = 0.0
    margin_neg: float = 1.0

    def __post_init__(self):
        if not self.margin_m > 0:
            raise ValueError(f"margin_m must be positive, got {self.margin_m}")
        if not self.lam >= 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")
        if not 0 <= self.margin_pos < self.margin_neg:
            raise ValueError(
                f"need 0 <= margin_pos < margin_neg, got {self.margin_pos}, {self.margin_neg}"
            )


def loss_geo(x_tilde_embed: Tensor, centroid) -> Tensor:
    """Negated sphere distance to the centroid; minimizing drives expansion."""
    return -geodesic_distance(centroid, x_tilde_embed)


def loss_sem_low(x, x_tilde) -> Tensor:
    """Squared input-space displacement, the energy of the straight path."""
    a = x if isinstance(x, Tensor) else Tensor(x)
    b = x_tilde if isinstance(x_tilde, Tensor) else Tensor(x_tilde)
    return (a - b).square().sum()


def loss_sem_high(x_embed, x_tilde_embed, centroid, margin: float) -> Tensor:
    """Hinge on embedding drift past the original sample's centroid distance.

    Exactly zero, with exactly zero gradient, once the perturbed embedding
    is closer than `original distance - margin`.
    """
    d_tilde = euclidean_distance(centroid, x_tilde_embed)
    return _drift_hinge(d_tilde, euclidean_distance(centroid, x_embed), margin)


def _drift_hinge(d_tilde: Tensor, d_orig, margin: float) -> Tensor:
    return (d_tilde - d_orig + float(margin)).relu()


def c3e_reference(x, centroid, model) -> float:
    """Hinge reference of `c3e_objective`: the centroid distance of the
    unperturbed input's embedding, fixed while that input is expanded."""
    return euclidean_distance(Tensor(centroid), model.forward(x, frozen=True)).item()


def c3e_objective(x, x_tilde, centroid, d_orig: float, model, margin: float) -> Tensor:
    """Expansion objective of one sample: geo + sem_low + sem_high, unit weights.

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


def loss_c3e(batch, model, centroids: CentroidTable, config: LossConfig) -> Tensor:
    """Mean of `c3e_objective` over a batch of (x, x_tilde, class_id).

    Gradients flow to the x_tilde entries only: the encoder is applied
    frozen and the original-sample branch is constant.
    """
    if not batch:
        raise ValueError("loss_c3e: empty batch")
    terms = []
    for x, x_tilde, class_id in batch:
        x_const = (x if isinstance(x, Tensor) else Tensor(x)).detach()
        mu = centroids.vector(class_id)
        d_orig = c3e_reference(x_const, mu, model)
        terms.append(c3e_objective(x_const, x_tilde, mu, d_orig, model, config.margin_m))
    return _mean_scalars(terms)


def loss_dom(batch, config: LossConfig) -> Tensor:
    """Margin contrastive loss over unordered pairs of (embedding, class_id).

    Same-class pairs pay [d - margin_pos]+, cross-class pairs pay
    [margin_neg - d]+; each group is averaged over its pair count, and a
    group with no pairs contributes zero.
    """
    if len(batch) < 2:
        raise ValueError(f"loss_dom: need at least 2 samples, got {len(batch)}")
    pos_sum = None
    neg_sum = None
    n_pos = 0
    n_neg = 0
    for i in range(len(batch)):
        e_i, y_i = batch[i]
        for j in range(i + 1, len(batch)):
            e_j, y_j = batch[j]
            d = (e_i - e_j).l2_norm()
            if y_i == y_j:
                h = (d - config.margin_pos).relu()
                pos_sum = h if pos_sum is None else pos_sum + h
                n_pos += 1
            else:
                h = (config.margin_neg - d).relu()
                neg_sum = h if neg_sum is None else neg_sum + h
                n_neg += 1
    total = None
    if pos_sum is not None:
        total = pos_sum / n_pos
    if neg_sum is not None:
        neg_term = neg_sum / n_neg
        total = neg_term if total is None else total + neg_term
    return total


def loss_dis(embedding: Tensor, centroid) -> Tensor:
    """Sphere distance to the class centroid; minimizing pulls inward."""
    return geodesic_distance(centroid, embedding)


def loss_c4(batch, model, centroids: CentroidTable, config: LossConfig) -> Tensor:
    """Contrastive term plus lambda-weighted centripetal term over a batch.

    `batch` holds (x, class_id) drawn from originals and expanded samples
    alike; expanded samples inherit the centroids of their class.
    """
    if len(batch) < 2:
        raise ValueError(f"loss_c4: need at least 2 samples, got {len(batch)}")
    embeds = []
    for x, class_id in batch:
        embeds.append((model.forward(x), class_id))
    total = loss_dom(embeds, config)
    if config.lam != 0.0:  # lambda = 0 reduces to the contrastive term exactly
        dis_terms = [loss_dis(e, centroids.vector(cid)) for e, cid in embeds]
        total = total + config.lam * _mean_scalars(dis_terms)
    return total


def _mean_scalars(terms: list[Tensor]) -> Tensor:
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc / float(len(terms))
