"""Per-sample reference for the batched training graphs.

Every sample is its own graph here, and every pair in `oracle_loss_dom` is
its own chain of scalar ops, summed left to right: the way the training
losses were written before they ran on row-stacked tensors.  The batched
code in `centerpolar.losses` and `centerpolar.expansion` must give the
same values and gradients bit for bit.  The oracles take the columns the
batched functions take, but use only 1-D tensor ops, apart from `take`,
which splits an embedding stack into single rows.
"""

from __future__ import annotations

import math

import numpy as np

from centerpolar.expansion import ExpansionDivergedError
from centerpolar.geometry import EPS_PROJECTION, DegenerateVectorError
from centerpolar.tensor import DomainError, Tensor, backward, record


def _t(v) -> Tensor:
    return v if isinstance(v, Tensor) else Tensor(v)


def oracle_forward(model, x, frozen: bool = False) -> Tensor:
    h = _t(x)
    for layer in model.layers:
        w = layer.weight.detach() if frozen else layer.weight
        b = layer.bias.detach() if frozen else layer.bias
        h = w.matvec(h) + b
        if layer.activation == "tanh":
            h = h.tanh()
        elif layer.activation == "relu":
            h = h.relu()
    return h


def _project(v) -> Tensor:
    v = _t(v)
    n = v.l2_norm()
    if n.item() <= EPS_PROJECTION:
        raise DegenerateVectorError(f"cannot project vector with norm {n.item():.3e}")
    return v / n


def oracle_geodesic(u, v) -> Tensor:
    return _project(u).dot(_project(v)).acos() / math.pi


def oracle_euclidean(u, v) -> Tensor:
    return (_t(u) - _t(v)).l2_norm()


def _mean_scalars(terms: list[Tensor]) -> Tensor:
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc / float(len(terms))


def oracle_c3e_objective(x, x_tilde, centroid, d_orig: float, model, margin: float) -> Tensor:
    mu = Tensor(centroid)
    e_tilde = oracle_forward(model, x_tilde, frozen=True)
    geo = -oracle_geodesic(mu, e_tilde)
    sem_low = (_t(x) - _t(x_tilde)).square().sum()
    hinge = (oracle_euclidean(mu, e_tilde) - d_orig + float(margin)).relu()
    return geo + sem_low + hinge


def _reference(x, centroid, model) -> float:
    return oracle_euclidean(Tensor(centroid), oracle_forward(model, x, frozen=True)).item()


def oracle_c3e_mean(x, x_tildes, class_ids, model, centroids, margin: float) -> Tensor:
    """Mean expansion objective of the rows of `x`, expanded to the 1-D
    tensors `x_tildes`."""
    terms = []
    for x_r, x_tilde, class_id in zip(x, x_tildes, class_ids):
        mu = centroids.vectors([class_id])[0]
        d_orig = _reference(x_r, mu, model)
        terms.append(oracle_c3e_objective(x_r, x_tilde, mu, d_orig, model, margin))
    return _mean_scalars(terms)


def _rows(embeddings) -> list:
    # a (B, k) stack becomes B (1, k) rows, each carrying its 1-D row's bits
    if isinstance(embeddings, Tensor):
        return [embeddings.take([r]) for r in range(len(embeddings))]
    return list(embeddings)


def oracle_loss_dom(embeddings, class_ids, config) -> Tensor:
    """`embeddings` is a (B, k) stack or a list of 1-D rows."""
    rows = _rows(embeddings)
    pos_sum = neg_sum = None
    n_pos = n_neg = 0
    for i in range(len(rows)):
        e_i, y_i = rows[i], class_ids[i]
        for j in range(i + 1, len(rows)):
            e_j, y_j = rows[j], class_ids[j]
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


def oracle_loss_c4(x, class_ids, model, centroids, config) -> Tensor:
    embeds = [oracle_forward(model, x_r) for x_r in x]
    total = oracle_loss_dom(embeds, class_ids, config)
    if config.lam != 0.0:
        dis = [oracle_geodesic(centroids.vectors([cid])[0], e) for e, cid in zip(embeds, class_ids)]
        total = total + config.lam * _mean_scalars(dis)
    return total


def oracle_expand_sample(x, class_id, model, centroids, iterations, step_size, margin, sample_id=0):
    x0 = np.array(x, dtype=np.float64).reshape(-1)
    mu = centroids.vectors([class_id])[0]
    d_orig = _reference(x0, mu, model)
    x_cur = x0.copy()
    for t in range(1, iterations + 1):
        try:
            with record():
                xt = Tensor(x_cur, requires_grad=True)
                backward(oracle_c3e_objective(x0, xt, mu, d_orig, model, margin))
        except DomainError as e:
            raise ExpansionDivergedError(
                f"expansion diverged at sample {sample_id}, iteration {t}: {e}"
            ) from e
        x_cur = x_cur - step_size * xt.grad
    return x_cur


def oracle_expand_batch(batch, model, centroids, econfig, lconfig, trajectory_sink=None):
    ids, x, class_ids = batch
    return np.array(
        [
            oracle_expand_sample(
                x_r, int(class_id), model, centroids, econfig.iterations_te,
                econfig.step_size, lconfig.margin_m, int(sample_id),
            )
            for sample_id, x_r, class_id in zip(ids, x, class_ids)
        ]
    )
