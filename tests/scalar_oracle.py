"""Per-sample reference for the batched training graphs.

Every sample is its own graph here, and every pair in `oracle_loss_dom` is
its own chain of scalar ops, summed left to right: the way the training
losses were written before they ran on row-stacked tensors.  The batched
code in `centerpolar.losses` and `centerpolar.expansion` must give the
same values and gradients bit for bit.  The oracles take the columns the
batched functions take, but use only 1-D tensor ops, apart from `take`,
which splits an embedding stack into single rows.

The unfused 1-D ops that `tensor.dense` and `geometry.geodesic_distance`
replace live here, recorded through `tensor._record`: `matvec`, `dot`,
`tanh`, `acos` and `div`, and with them `project_to_sphere` and the
unbatched `loss_sem_high`.  The ops that only tests use live here too:
`relu`, `square`, `take`, `l2_norm` and `euclidean_distance`.

So do the batched chains of small ops that the one-op heads of
`centerpolar.losses` replace: `pair_distances`, `loss_geo`, `loss_sem_low`
and `_drift_hinge`, combined in `chain_loss_dom` and `chain_c3e_objective`.
"""

from __future__ import annotations

import math

import numpy as np

from centerpolar.expansion import ExpansionDivergedError
from centerpolar.geometry import _check_direction, as_tensor, geodesic_distance
from centerpolar.tensor import (
    DomainError,
    Fold,
    ShapeError,
    Tensor,
    _acos,
    _acos_grad,
    _norm_grad,
    _partner_order,
    _record,
    _row_norm,
    _rowdot,
    backward,
    pair_index,
    record,
)

# -- the unfused 1-D ops --------------------------------------------------------


def _t(v) -> Tensor:
    return v if isinstance(v, Tensor) else Tensor(v)


def matvec(w: Tensor, x: Tensor) -> Tensor:
    """(m, n) matrix times an (n,) vector, as one gemv: the bits of W @ x."""
    W, X = w.data, x.data
    if W.ndim != 2 or X.shape != W.shape[1:]:
        raise ShapeError(f"matvec: shapes {W.shape} and {X.shape} are not (m, n) and (n,)")

    def vjp(g, needs):
        return (
            np.outer(g, X) if needs[0] else None,
            (W.T @ g[:, None])[:, 0] if needs[1] else None,
        )

    return _record(Tensor._wrap((W @ X[:, None])[:, 0]), (w, x), vjp, "matvec")


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Dot product of two (k,) vectors, as np.dot computes it."""
    A, B = a.data, b.data
    if A.ndim != 1 or A.shape != B.shape:
        raise ShapeError(f"dot: shapes {A.shape} and {B.shape} must be equal 1-D")

    def vjp(g, needs):
        return (g * B if needs[0] else None, g * A if needs[1] else None)

    return _record(Tensor._wrap(A @ B), (a, b), vjp, "dot")


def tanh(t: Tensor) -> Tensor:
    y = np.tanh(t.data)
    return _record(Tensor._wrap(y), (t,), lambda g, _: (g * (1.0 - y * y),), "tanh")


def take(t: Tensor, index) -> Tensor:
    """Rows (or elements, for 1-D) at `index` along the leading axis."""
    A = t.data
    if A.ndim == 0:
        raise ShapeError("take: tensor has no leading axis")
    index = np.asarray(index, dtype=np.intp)

    def vjp(g, _):
        # -0.0 is the additive identity (x + -0.0 == x for every x, +0.0
        # included), so the padding leaves each row's gradient bits unchanged
        ga = np.full(A.shape, -0.0)
        np.add.at(ga, index, g)
        return (ga,)

    return _record(Tensor._wrap(A[index]), (t,), vjp, "take")


def relu(t: Tensor) -> Tensor:
    mask = t.data > 0.0  # subgradient at 0 is 0
    out = Tensor._wrap(np.where(mask, t.data, 0.0))
    return _record(out, (t,), lambda g, _: (g * mask,), "relu")


def square(t: Tensor) -> Tensor:
    ad = t.data
    return _record(Tensor._wrap(ad * ad), (t,), lambda g, _: (g * (2.0 * ad),), "square")


def l2_norm(t: Tensor) -> Tensor:
    """Row-wise Euclidean norm: (k,) -> (), (B, k) -> (B, 1)."""
    A = t.data
    norm = _row_norm(A)
    return _record(Tensor._wrap(norm), (t,), lambda g, _: (_norm_grad(g, norm, A),), "l2_norm")


def euclidean_distance(u, v) -> Tensor:
    return l2_norm(as_tensor(u) - as_tensor(v))


def acos(t: Tensor) -> Tensor:
    """arccos with the flat cap of `tensor._acos` next to the endpoints."""
    c = t.data
    angle, mask = _acos(c)
    return _record(Tensor._wrap(angle), (t,), lambda g, _: (_acos_grad(g, c, mask),), "acos")


def div(a: Tensor, b) -> Tensor:
    """a / b for equal shapes or a scalar on either side; a number `b` is a
    constant."""
    return _t(a)._binary(b, "div", np.divide, lambda g, a, b: (g / b, -g * a / (b * b)))


def project_to_sphere(v) -> Tensor:
    """v / ||v||, rejecting a vector too short to carry a direction."""
    v = _t(v)
    n = l2_norm(v)
    _check_direction(n.data)
    return div(v, n)


def _drift_hinge(d_tilde: Tensor, d_orig, margin: float) -> Tensor:
    """Hinge on embedding drift past the original sample's centroid distance
    `d_orig`: exactly zero, with exactly zero gradient, once the perturbed
    embedding's distance `d_tilde` is below `d_orig - margin`."""
    return relu(d_tilde - as_tensor(d_orig) + float(margin))


def loss_sem_high(x_embed, x_tilde_embed, centroid, margin: float) -> Tensor:
    """The drift hinge of one sample, from its original and perturbed
    embeddings: zero, with zero gradient, once the perturbed embedding is
    closer to the centroid than the original distance less the margin."""
    d_tilde = euclidean_distance(centroid, x_tilde_embed)
    return _drift_hinge(d_tilde, euclidean_distance(centroid, x_embed), margin)


# -- the batched chains ---------------------------------------------------------


def pair_distances(rows: Tensor) -> Tensor:
    """Euclidean distance of every unordered pair of rows of a (B, k)
    tensor, as a (P,) tensor.

    Pairs (i, j), i < j, come in row-major order, the order of the loop
    `for i: for j > i`.  Each distance is `l2_norm(e_i - e_j)` of the
    rows alone to the bit, and row i takes its gradient contributions one
    per partner, in descending partner index, as that loop's reversed tape
    would add them.
    """
    E = rows.data
    if E.ndim != 2:
        raise ShapeError(f"pair_distances: shape {E.shape} is not (B, k)")
    n = len(E)
    if n < 2:
        raise ShapeError(f"pair_distances: need 2 or more rows, got {n}")
    i, j = pair_index(n)
    diff = E[i] - E[j]
    norm = np.sqrt(_rowdot(diff, diff))

    def vjp(g, _):
        contrib = _norm_grad(g[:, None], norm, diff)
        # as the first operand of e_i - e_j a row takes +c, as the second
        # -c; step s adds every row's s-th partner
        pair, sign = _partner_order(n)
        fold = Fold.empty(n - 1, E.shape)
        parts = np.take(contrib, pair, axis=0, out=fold.parts)
        parts *= sign[:, :, None]
        return (fold,)

    return _record(Tensor._wrap(norm[:, 0]), (rows,), vjp, "pair_distances")


def chain_loss_dom(embeddings: Tensor, class_ids, config) -> Tensor:
    """`losses.loss_dom` as a chain: pair distances, then per group a
    take, a subtraction, a relu and a mean, then an add."""
    d = pair_distances(embeddings)
    labels = np.asarray(class_ids)
    i, j = pair_index(len(embeddings))
    same = labels[i] == labels[j]
    total = None
    if same.any():
        total = relu(take(d, np.flatnonzero(same)) - config.margin_pos).mean()
    if not same.all():
        neg_term = relu(config.margin_neg - take(d, np.flatnonzero(~same))).mean()
        total = neg_term if total is None else total + neg_term
    return total


def loss_geo(x_tilde_embed: Tensor, centroid) -> Tensor:
    """Negated sphere distance to the centroid; minimizing drives expansion."""
    return -geodesic_distance(centroid, x_tilde_embed)


def loss_sem_low(x, x_tilde) -> Tensor:
    """Squared input-space displacement, the energy of the straight path."""
    return square(as_tensor(x) - as_tensor(x_tilde)).sum(axis=-1)


def chain_c3e_objective(x, x_tilde, centroid, d_orig, model, margin: float) -> Tensor:
    """`losses.c3e_objective` as a chain: geo + sem_low + the drift hinge."""
    mu = Tensor(centroid)
    e_tilde = model.forward(x_tilde, frozen=True)
    return (
        loss_geo(e_tilde, mu)
        + loss_sem_low(x, x_tilde)
        + _drift_hinge(euclidean_distance(mu, e_tilde), d_orig, margin)
    )


# -- the per-sample graphs ------------------------------------------------------


def oracle_forward(model, x, frozen: bool = False) -> Tensor:
    h = _t(x)
    for layer in model.layers:
        w = layer.weight.detach() if frozen else layer.weight
        b = layer.bias.detach() if frozen else layer.bias
        h = matvec(w, h) + b
        if layer.activation == "tanh":
            h = tanh(h)
        elif layer.activation == "relu":
            h = relu(h)
    return h


def oracle_geodesic(u, v) -> Tensor:
    return div(acos(dot(project_to_sphere(u), project_to_sphere(v))), math.pi)


def mean_scalars(terms: list[Tensor]) -> Tensor:
    """The terms added left to right, over their count: `Tensor.mean`'s order."""
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return div(acc, float(len(terms)))


def oracle_c3e_objective(x, x_tilde, centroid, d_orig: float, model, margin: float) -> Tensor:
    mu = Tensor(centroid)
    e_tilde = oracle_forward(model, x_tilde, frozen=True)
    geo = -oracle_geodesic(mu, e_tilde)
    sem_low = square(_t(x) - _t(x_tilde)).sum()
    hinge = relu(euclidean_distance(mu, e_tilde) - d_orig + float(margin))
    return geo + sem_low + hinge


def _reference(x, centroid, model) -> float:
    return euclidean_distance(Tensor(centroid), oracle_forward(model, x, frozen=True)).item()


def oracle_c3e_mean(x, x_tildes, class_ids, model, centroids, margin: float) -> Tensor:
    """Mean expansion objective of the rows of `x`, expanded to the 1-D
    tensors `x_tildes`."""
    terms = []
    for x_r, x_tilde, class_id in zip(x, x_tildes, class_ids):
        mu = centroids.vectors([class_id])[0]
        d_orig = _reference(x_r, mu, model)
        terms.append(oracle_c3e_objective(x_r, x_tilde, mu, d_orig, model, margin))
    return mean_scalars(terms)


def _rows(embeddings) -> list:
    # a (B, k) stack becomes B (1, k) rows, each carrying its 1-D row's bits
    if isinstance(embeddings, Tensor):
        return [take(embeddings, [r]) for r in range(len(embeddings))]
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
            d = l2_norm(e_i - e_j)
            if y_i == y_j:
                h = relu(d - config.margin_pos)
                pos_sum = h if pos_sum is None else pos_sum + h
                n_pos += 1
            else:
                h = relu(config.margin_neg - d)
                neg_sum = h if neg_sum is None else neg_sum + h
                n_neg += 1
    total = None
    if pos_sum is not None:
        total = div(pos_sum, n_pos)
    if neg_sum is not None:
        neg_term = div(neg_sum, n_neg)
        total = neg_term if total is None else total + neg_term
    return total


def oracle_loss_c4(x, class_ids, model, centroids, config) -> Tensor:
    embeds = [oracle_forward(model, x_r) for x_r in x]
    total = oracle_loss_dom(embeds, class_ids, config)
    if config.lam != 0.0:
        dis = [oracle_geodesic(centroids.vectors([cid])[0], e) for e, cid in zip(embeds, class_ids)]
        total = total + config.lam * mean_scalars(dis)
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
