"""Objectives for the two training phases, one graph per batch.

Phase one perturbs inputs: each sample is pushed away from its class
centroid on the embedding sphere while two semantic terms tether it, a
quadratic one in input space and a hinge on embedding-space drift past a
margin.  `c3e_objective` sums the three with unit weights, one value per
row, and is differentiated with respect to the input only.

Phase two updates the encoder: a margin contrastive term over sample pairs
(`loss_dom`) plus a weighted centripetal term pulling every embedding back
toward its class centroid along the sphere (`loss_dis`), combined in
`loss_c4`.

Each objective is one recorded op with the values and gradients of its
chain of small ops, bit for bit; the unfused chains live in
`tests/scalar_oracle.py`.  Each row gets exactly the value and gradient
of that row computed alone, and batch means add rows left to right.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import schema
from .geometry import CentroidTable, _geodesic, as_tensor, geodesic_distance
from .tensor import (
    Fold,
    ShapeError,
    Tensor,
    _check_broadcast,
    _norm_grad,
    _partner_order,
    _record,
    _row_norm,
    _rowdot,
    pair_index,
)

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


def c3e_reference(x, centroid, model) -> np.ndarray:
    """Hinge reference of `c3e_objective`: the centroid distance of the
    unperturbed input's embedding, fixed while that input is expanded."""
    E = model.forward(x, frozen=True).data
    return _row_norm(np.asarray(centroid, dtype=np.float64) - E)


def c3e_objective(x, x_tilde, centroid, d_orig, model, margin: float) -> tuple:
    """Expansion objective per row, unit weights: geo + sem_low + sem_high,
    -geodesic(mu, e) + |x - x_tilde|^2 + [|mu - e| - d_orig + margin]+, with
    e the frozen encoder's embedding of `x_tilde`, mu the `centroid` and
    `d_orig` from `c3e_reference`.

    Returns `(objective, d_geo, d_euclid)`: the objective tensor and, as
    arrays in its shape, the two centroid distances it reads,
    geodesic(mu, e) and |mu - e|.  The head is one op over (e, x_tilde),
    so gradients flow to `x_tilde` only.  e adds the hinge's gradient
    first, then the geodesic's two parts, and `x_tilde` takes the
    quadratic term's before the encoder's.
    """
    x_tilde = as_tensor(x_tilde)
    e_tilde = model.forward(x_tilde, frozen=True)
    X, mu, d_orig = (np.asarray(a, dtype=np.float64) for a in (x, centroid, d_orig))
    Xt, E = x_tilde.data, e_tilde.data
    geo, geo_grad = _geodesic(mu, E)
    delta = mu - E
    dist = _row_norm(delta)
    _check_broadcast("c3e_objective", X.shape, Xt.shape)
    _check_broadcast("c3e_objective", dist.shape, d_orig.shape)
    step = X - Xt
    drift = dist - d_orig + float(margin)
    active = drift > 0.0
    value = -geo + (step * step).sum(axis=-1, keepdims=step.ndim == 2)
    value = value + np.where(active, drift, 0.0)

    def vjp(g, needs):
        ge = gx = None
        if needs[0]:
            ge = Fold.empty(3, E.shape)
            np.negative(_norm_grad(g * active, dist, delta), out=ge.parts[0])
            geo_grad(-g, ge.parts[1:], None)
        if needs[1]:
            gx = -(g * (2.0 * step))
        return ge, gx

    objective = _record(Tensor._wrap(value), (e_tilde, x_tilde), vjp, "c3e_objective")
    return objective, geo, dist


def loss_dom(embeddings: Tensor, class_ids, config: LossConfig) -> Tensor:
    """Margin contrastive loss over the unordered pairs of rows of the
    (B, k) `embeddings`, row r of class `class_ids[r]`.

    Same-class pairs pay [d - margin_pos]+, cross-class pairs pay
    [margin_neg - d]+; each group is averaged over its pair count, and a
    group with no pairs contributes zero.  Each d is the chain
    `l2_norm(e_i - e_j)` of `tests/scalar_oracle.py` on the rows alone, and
    row i takes its gradient contributions one per partner, in descending
    partner index, as that chain's tape adds them.
    """
    n = len(embeddings)
    if len(class_ids) != n:
        raise ValueError(f"loss_dom: {n} embedding rows but {len(class_ids)} class ids")
    if n < 2:
        raise ValueError(f"loss_dom: need at least 2 samples, got {n}")
    E = embeddings.data
    if E.ndim != 2:
        raise ShapeError(f"loss_dom: shape {E.shape} is not (B, k)")
    i, j = pair_index(n)
    diff = E[i] - E[j]
    d = np.sqrt(_rowdot(diff, diff))[:, 0]
    flat = d == 0.0
    diff[flat] = 0.0  # no direction: its rows take a zero, signed as each row's side
    labels = np.asarray(class_ids)
    same = labels[i] == labels[j]
    groups = []  # (pairs, active hinges, slope of the hinge in d)
    total = None
    for pairs, slope in ((np.flatnonzero(same), 1.0), (np.flatnonzero(~same), -1.0)):
        if not len(pairs):
            continue
        hinge = d[pairs] - config.margin_pos if slope > 0 else config.margin_neg - d[pairs]
        active = hinge > 0.0
        term = np.add.accumulate(np.where(active, hinge, 0.0))[-1] / float(len(pairs))
        total = term if total is None else total + term
        groups.append((pairs, active, slope))

    def vjp(g, _):
        gd = np.empty(len(d))
        for pairs, active, slope in groups:
            gd[pairs] = (g / float(len(pairs))) * active * slope
        scale = np.divide(gd, d, out=np.zeros(len(d)), where=~flat)
        # as the first operand of e_i - e_j a row takes +c, as the second
        # -c; step s adds every row's s-th partner
        pair, sign = _partner_order(n)
        fold = Fold.empty(n - 1, E.shape)
        # `pair` is in range by construction; mode="clip" writes straight
        # into `out`, which the default mode fills through a buffered copy
        parts = np.take(diff, pair, axis=0, out=fold.parts, mode="clip")
        parts *= (scale[pair] * sign)[:, :, None]
        return (fold,)

    return _record(Tensor._wrap(total), (embeddings,), vjp, "loss_dom")


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
