"""The batched training graphs against the per-sample oracle, bit for bit.

`scalar_oracle` builds one graph per sample and one scalar chain per pair,
as the losses did before they ran on row-stacked tensors, and keeps the
batched chains of small ops that each one-op loss head replaces.  Values and
gradients must match it exactly, as bytes (`tobytes()`), not within a
tolerance and not with `np.array_equal`, which takes -0.0 for +0.0: the
trained checksums, the criterion-4 convergence epochs and the README
table rest on these bits.
"""

import math

import numpy as np
import pytest
from grad_oracle import grad_check
from scalar_oracle import (
    chain_c3e_objective,
    chain_loss_dom,
    matvec,
    mean_scalars,
    oracle_c3e_mean,
    oracle_expand_batch,
    oracle_forward,
    oracle_loss_c4,
    oracle_loss_dom,
    pair_distances,
    square,
    take,
)
from test_trainer import small_config, toy_dataset

from centerpolar import expansion, trainer
from centerpolar.encoder import EncoderModel
from centerpolar.expansion import ExpansionConfig, ExpansionDivergedError, expand_batch
from centerpolar.geometry import compute_centroids
from centerpolar.losses import LossConfig, c3e_objective, c3e_reference, loss_c4, loss_dom
from centerpolar.tensor import ShapeError, Tensor, backward, dense, record
from centerpolar.trainer import ABLATIONS, train

BATCHES = [2, 3, 8, 32]
LAMBDAS = [0.0, 0.75]
# encoders as (in_dim, embed_dim, hidden_dim); in the two thin ones some
# parameter takes its per-row gradients as a Fold of one column, which
# numpy's one-call reduction would sum pairwise: the output bias when
# embed_dim = 1, the first weight and bias when in_dim = hidden_dim = 1
WIDE = (5, 4, 7)
THIN = [(5, 1, 7), (1, 4, 1)]
THIN_BATCHES = [8, 32, 33]


def _grads(build, leaves):
    """Value of build() and the gradient of every leaf, on a fresh tape."""
    for t in leaves:
        t.grad = None
    with record():
        out = build()
        backward(out)
    return out.data.tobytes(), [t.grad.copy() for t in leaves]


def _assert_same(got, want):
    # gradients compare as one flat array: a stacked leaf against its rows
    (v1, g1), (v2, g2) = got, want
    assert v1 == v2
    assert np.concatenate([g.ravel() for g in g1]).tobytes() == (
        np.concatenate([g.ravel() for g in g2]).tobytes()
    )


def _leaves(X):
    # the stack as one leaf and its rows as 1-D leaves
    return Tensor(X, requires_grad=True), [Tensor(x, requires_grad=True) for x in X]


def _labels(gen, n):
    # a mix of classes; every batch has a same-class and a cross-class pair
    labels = gen.integers(0, max(2, n // 4), size=n)
    labels[:2] = (0, 0)
    labels[-1] = 1
    return labels.tolist()


def _model(gen, in_dim=5, embed_dim=4, hidden_dim=7):
    seed = int(gen.integers(1000))
    return EncoderModel.default(in_dim, embed_dim=embed_dim, hidden_dim=hidden_dim, seed=seed)


def _dims_id(dims):
    return "x".join(map(str, dims))


@pytest.mark.parametrize("n", BATCHES)
def test_loss_dom_matches_pair_loop(n):
    gen = np.random.default_rng(n)
    labels = _labels(gen, n)
    E = gen.normal(size=(n, 3))
    E[1] = E[0]  # a zero-distance pair
    stacked, rows = _leaves(E)
    cfg = LossConfig(margin_pos=0.1, margin_neg=1.5)
    _assert_same(
        _grads(lambda: loss_dom(stacked, labels, cfg), [stacked]),
        _grads(lambda: oracle_loss_dom(rows, labels, cfg), rows),
    )


def _coincident(E):
    E[-1] = E[0]


def _underflowing(E):
    # coordinates 1e-170 apart: each square underflows, so d == 0 while the
    # difference is not zero, with both signs in it
    E[0] = [1e-170, -2e-170, 0.0]
    E[-1] = [-1e-170, 1e-170, 3e-170]


@pytest.mark.parametrize("place", [_coincident, _underflowing], ids=lambda f: f.__name__[1:])
@pytest.mark.parametrize("n", BATCHES)
def test_loss_dom_zero_distance_cross_class_pair(n, place):
    # rows 0 and n - 1 are of different classes, so the hinge is active at d = 0
    gen = np.random.default_rng(50 + n)
    labels = _labels(gen, n)
    E = gen.normal(size=(n, 3))
    place(E)
    stacked, rows = _leaves(E)
    cfg = LossConfig(margin_pos=0.1, margin_neg=1.5)
    got = _grads(lambda: loss_dom(stacked, labels, cfg), [stacked])
    assert np.linalg.norm(E[0] - E[-1]) == 0.0 and labels[0] != labels[-1]
    _assert_same(got, _grads(lambda: oracle_loss_dom(rows, labels, cfg), rows))


@pytest.mark.parametrize("n", BATCHES + [33])
def test_loss_dom_matches_its_chain(n):
    gen = np.random.default_rng(60 + n)
    labels = _labels(gen, n)
    E = gen.normal(size=(n, 4))
    _coincident(E)
    for cfg in (LossConfig(), LossConfig(margin_pos=0.5, margin_neg=2.0)):
        stacked = Tensor(E, requires_grad=True)
        _assert_same(
            _grads(lambda: loss_dom(stacked, labels, cfg) * 3.0, [stacked]),
            _grads(lambda: chain_loss_dom(stacked, labels, cfg) * 3.0, [stacked]),
        )


@pytest.mark.parametrize("n", BATCHES)
def test_c3e_objective_matches_its_chain(n):
    gen = np.random.default_rng(250 + n)
    model = _model(gen)
    X = gen.normal(size=(n, 5))
    x_tilde = Tensor(X + 0.1 * gen.normal(size=(n, 5)), requires_grad=True)
    mu = model.embed_many(X) + gen.normal(size=(n, 4))
    mu[0] = model.forward(x_tilde.data[0]).data  # row 0 sits on its centroid
    d_orig = c3e_reference(X, mu, model)
    weights = Tensor(gen.normal(size=(n, 1)))
    for margin in (0.0, 0.4, 5.0):

        def weighted(objective, margin=margin):
            return lambda: (objective(X, x_tilde, mu, d_orig, model, margin) * weights).sum()

        _assert_same(
            _grads(weighted(c3e_objective), [x_tilde]),
            _grads(weighted(chain_c3e_objective), [x_tilde]),
        )


def test_loss_dom_single_group():
    E = np.random.default_rng(1).normal(size=(3, 3))
    cfg = LossConfig()
    for labels in ([0, 0, 0], [0, 1, 2]):  # no cross-class pair, no same-class pair
        stacked, rows = _leaves(E)
        _assert_same(
            _grads(lambda: loss_dom(stacked, labels, cfg), [stacked]),
            _grads(lambda: oracle_loss_dom(rows, labels, cfg), rows),
        )


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize(
    "n, dims",
    [pytest.param(n, WIDE, id=str(n)) for n in BATCHES]
    + [pytest.param(n, d, id=f"{n}-{_dims_id(d)}") for d in THIN for n in THIN_BATCHES],
)
def test_loss_c4_matches_per_sample_graphs(n, dims, lam):
    gen = np.random.default_rng(100 + n)
    model = _model(gen, *dims)
    labels = _labels(gen, n)
    X = gen.normal(size=(n, dims[0]))
    table = compute_centroids(labels, model.embed_many(X))
    cfg = LossConfig(lam=lam)
    params = model.parameters()
    _assert_same(
        _grads(lambda: loss_c4(X, labels, model, table, cfg), params),
        _grads(lambda: oracle_loss_c4(X, labels, model, table, cfg), params),
    )


@pytest.mark.parametrize("n", BATCHES)
def test_c3e_objective_matches_per_sample_graphs(n):
    gen = np.random.default_rng(200 + n)
    model = _model(gen)
    labels = _labels(gen, n)
    X = gen.normal(size=(n, 5))
    table = compute_centroids(labels, model.embed_many(X) + 0.3)
    stacked, rows = _leaves(X + 0.1 * gen.normal(size=(n, 5)))
    mu = table.vectors(labels)
    d_orig = c3e_reference(X, mu, model)
    _assert_same(
        _grads(lambda: c3e_objective(X, stacked, mu, d_orig, model, 0.4).mean(), [stacked]),
        _grads(lambda: oracle_c3e_mean(X, rows, labels, model, table, 0.4), rows),
    )


@pytest.mark.parametrize("n", BATCHES)
def test_forward_rows_match_rows_alone(n):
    gen = np.random.default_rng(300 + n)
    model = _model(gen, in_dim=6, embed_dim=3)
    X = gen.normal(size=(n, 6))
    G = gen.normal(size=(n, 3))
    params = model.parameters()

    def per_sample():
        return mean_scalars([(oracle_forward(model, x) * Tensor(g)).sum() for x, g in zip(X, G)])

    _assert_same(
        _grads(lambda: (model.forward(X) * Tensor(G)).sum(axis=-1).mean(), params),
        _grads(per_sample, params),
    )
    E = model.forward(X).numpy()
    for x, e in zip(X, E):
        assert e.tobytes() == oracle_forward(model, x).data.tobytes()


@pytest.mark.parametrize("n", BATCHES)
def test_expansion_matches_per_sample_descent(n):
    gen = np.random.default_rng(400 + n)
    model = _model(gen)
    labels = _labels(gen, n)
    X = gen.normal(size=(n, 5))
    table = compute_centroids(labels, model.embed_many(X))
    batch = (np.arange(10, 10 + n), X, labels)
    econf = ExpansionConfig(iterations_te=3, step_size=0.05)
    lconf = LossConfig(margin_m=0.5)
    assert (
        expand_batch(batch, model, table, econf, lconf).tobytes()
        == oracle_expand_batch(batch, model, table, econf, lconf).tobytes()
    )


def test_expansion_blocks_give_rows_their_alone_bits():
    # 300 rows: more than one block, and not a multiple of the block size
    assert 300 > expansion._BLOCK_ROWS and 300 % expansion._BLOCK_ROWS
    gen = np.random.default_rng(7)
    model = EncoderModel.default(4, embed_dim=3, hidden_dim=6, seed=3)
    labels = gen.integers(0, 3, size=300).tolist()
    X = gen.normal(size=(300, 4))
    table = compute_centroids(labels, model.embed_many(X))
    econf = ExpansionConfig(iterations_te=2, step_size=0.05)
    together = expand_batch((np.arange(300), X, labels), model, table, econf, LossConfig())
    for i, row in enumerate(together):
        one = ([i], X[i : i + 1], labels[i : i + 1])
        (alone,) = expand_batch(one, model, table, econf, LossConfig())
        assert row.tobytes() == alone.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_in_a_block_names_the_first_sample_alone():
    model = EncoderModel.default(2, embed_dim=2, hidden_dim=3, seed=0)
    table = compute_centroids([0], [[1.0, 0.0]])
    batch = ([5, 42], np.array([[0.5, 0.5], [2.0, -1.0]]), [0, 0])
    econf = ExpansionConfig(iterations_te=10, step_size=1e155)
    with pytest.raises(ExpansionDivergedError) as alone:
        expand_batch([column[:1] for column in batch], model, table, econf, LossConfig())
    with pytest.raises(ExpansionDivergedError) as together:
        expand_batch(batch, model, table, econf, LossConfig())
    assert str(together.value) == str(alone.value)
    assert "sample 5" in str(alone.value)


def _assert_trains_like_the_oracle(monkeypatch, dataset, cfg):
    batched = train(dataset, cfg)
    monkeypatch.setattr(trainer, "loss_c4", oracle_loss_c4)
    monkeypatch.setattr(trainer, "loss_dom", oracle_loss_dom)
    monkeypatch.setattr(trainer, "expand_batch", oracle_expand_batch)
    per_sample = train(dataset, cfg)
    assert batched.model.checksum() == per_sample.model.checksum()
    assert batched.epoch_losses == per_sample.epoch_losses


@pytest.mark.parametrize("lam", [0.0, 0.75])
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_train_with_oracle_losses_gives_the_same_model(monkeypatch, ablation, lam):
    cfg = small_config(ablation=ablation, loss=LossConfig(lam=lam))
    _assert_trains_like_the_oracle(monkeypatch, toy_dataset(), cfg)


@pytest.mark.parametrize("batch_size", THIN_BATCHES)
@pytest.mark.parametrize("dims", THIN, ids=_dims_id)
def test_train_thin_encoder_with_oracle_losses_gives_the_same_model(
    monkeypatch, dims, batch_size
):
    in_dim, embed_dim, hidden_dim = dims
    centers = [np.linspace(-1.0, 1.0, in_dim) * c for c in (-1.0, 1.0, 0.2)]
    dataset = toy_dataset(n_per_class=12, centers=centers)
    cfg = small_config(batch_size=batch_size, embed_dim=embed_dim, hidden_dim=hidden_dim)
    _assert_trains_like_the_oracle(monkeypatch, dataset, cfg)


# -- signed zeros ---------------------------------------------------------------


@pytest.mark.parametrize("m, n", [(3, 4), (1, 1)], ids=["3x4", "1x1"])
@pytest.mark.parametrize("B", [2, 5, 33])
def test_parts_that_are_all_negative_zero_sum_to_negative_zero(B, m, n):
    # the first output's gradient is -0.0 in every row, and the inputs are
    # positive, so that output's bias entry and its weight row take only
    # -0.0 parts; each is -0.0, as the per-sample graphs give it
    gen = np.random.default_rng(B * 10 + m)
    X = gen.uniform(0.5, 1.5, size=(B, n))
    G = gen.normal(size=(B, m))
    G[:, 0] = -0.0
    W = Tensor(gen.normal(size=(m, n)), requires_grad=True)
    b = Tensor(gen.normal(size=m), requires_grad=True)

    def per_sample():
        return mean_scalars([((matvec(W, Tensor(x)) + b) * Tensor(g)).sum() for x, g in zip(X, G)])

    def batched():
        return (dense(W, Tensor(X), b, "identity") * Tensor(G)).sum(axis=-1).mean()

    got = _grads(batched, [W, b])
    _assert_same(got, _grads(per_sample, [W, b]))
    gw, gb = got[1]
    assert gb[0] == 0.0 and np.signbit(gb[0])
    assert (gw[0] == 0.0).all() and np.signbit(gw[0]).all()


# -- row primitives -----------------------------------------------------------


def test_row_reductions_match_one_dimensional_formulas():
    gen = np.random.default_rng(11)
    for k in (1, 2, 3, 7, 16, 33, 64):
        X = gen.normal(size=(9, k))
        W = gen.normal(size=(5, k))
        norms = Tensor(X).l2_norm().numpy()
        sums = Tensor(X).sum(axis=-1).numpy()
        mapped = dense(Tensor(W), Tensor(X), Tensor(np.zeros(5)), "identity").numpy()
        assert norms.shape == sums.shape == (9, 1)
        for r, x in enumerate(X):
            assert norms[r, 0] == math.sqrt(np.dot(x, x))
            assert sums[r, 0] == x.sum()
            assert mapped[r].tobytes() == (W @ x).tobytes()


def test_mean_adds_rows_left_to_right():
    gen = np.random.default_rng(12)
    col = gen.normal(size=(40, 1)) * 10.0 ** gen.integers(-8, 8, size=(40, 1))
    acc = col[0, 0]
    for v in col[1:, 0]:
        acc = acc + v
    assert Tensor(col).mean().item() == acc / 40.0


def test_broadcasting_rules():
    rows = Tensor(np.arange(6.0).reshape(3, 2))
    assert (rows + 10.0).numpy().tolist() == [[10, 11], [12, 13], [14, 15]]
    assert (Tensor(2.0) * rows).numpy().tolist() == [[0, 2], [4, 6], [8, 10]]
    with pytest.raises(ShapeError, match="add"):
        rows + Tensor([10.0, 20.0])  # a shared row is dense's bias, not a broadcast
    with pytest.raises(ShapeError, match="mul"):
        rows * Tensor([[1.0], [2.0], [4.0]])  # nor is a column
    with pytest.raises(ShapeError):
        rows + Tensor(np.ones((2, 2)))


def test_shared_row_takes_rows_last_to_first():
    # a bias added to every row sums its gradient from the last row back
    g = np.array([[1e16], [1.0], [-1e16], [1.0]])
    with record():
        b = Tensor([0.0], requires_grad=True)
        out = dense(Tensor(np.zeros((1, 1))), Tensor(np.zeros((4, 1))), b, "identity")
        backward((out * Tensor(g)).sum())
    acc = g[3]
    for r in (2, 1, 0):
        acc = acc + g[r]
    assert b.grad.tobytes() == acc.tobytes()
    assert not np.array_equal(b.grad, np.array([g.sum()]))


def _grad_check_rows(f, shape, seed):
    gen = np.random.default_rng(seed)
    return grad_check(f, Tensor(gen.normal(size=shape) + 0.5))


def _layer(w, x, b, activation="identity"):
    return dense(*(v if isinstance(v, Tensor) else Tensor(v) for v in (w, x, b)), activation)


@pytest.mark.parametrize(
    "f, shape",
    [
        (lambda t: (t.l2_norm() * (t * (t + 1.0)).sum(axis=-1)).mean().sum(), (5, 3)),
        (lambda t: square(t.l2_norm() * t.sum(axis=-1)).mean().sum(), (4, 3)),
        (lambda t: _layer(np.ones((3, 2)), take(t, [2, 0, 2]), np.zeros(3), "tanh").sum(), (4, 2)),
        (lambda t: square(_layer(t, np.arange(12.0).reshape(4, 3), np.zeros(2))).sum(), (2, 3)),
        (lambda t: _layer(np.eye(3, 2) / 4.0, np.ones((4, 2)), t, "tanh").sum(), (3,)),
        (lambda t: square(pair_distances(t)).mean(), (5, 3)),
    ],
)
def test_row_primitives_grad_check(f, shape):
    assert _grad_check_rows(f, shape, seed=len(shape) + shape[0]) < 1e-5


def test_pair_distances_order_and_values():
    rows = Tensor([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
    assert pair_distances(rows).numpy().tolist() == [5.0, 1.0, math.sqrt(18.0)]
    with pytest.raises(ShapeError):
        pair_distances(take(rows, [0]))
    with pytest.raises(ShapeError):
        pair_distances(Tensor([1.0, 2.0]))
