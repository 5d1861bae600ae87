import math

import numpy as np
import pytest

from centerpolar.encoder import EncoderModel, Layer
from centerpolar.geometry import compute_centroids
from centerpolar.losses import (
    LossConfig,
    c3e_objective,
    c3e_reference,
    loss_c4,
    loss_dis,
    loss_dom,
)
from centerpolar.tensor import Tensor, backward, record
from grad_oracle import grad_check
from scalar_oracle import loss_geo, loss_sem_high, loss_sem_low


def identity_encoder(dim=2):
    return EncoderModel(
        [
            Layer(
                weight=Tensor(np.eye(dim), requires_grad=True),
                bias=Tensor(np.zeros(dim), requires_grad=True),
                activation="identity",
            )
        ]
    )


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(margin_m=0.0)
    with pytest.raises(ValueError):
        LossConfig(lam=-0.1)
    with pytest.raises(ValueError):
        LossConfig(margin_pos=1.0, margin_neg=1.0)
    cfg = LossConfig()
    assert cfg.margin_pos == 0.0 and cfg.margin_neg == 1.0


# -- expansion-side terms ---------------------------------------------------------


def test_loss_geo_reference_points():
    assert loss_geo(Tensor([2.0, 0.0]), [1.0, 0.0]).item() == 0.0
    assert loss_geo(Tensor([-1.0, 0.0]), [1.0, 0.0]).item() == -1.0
    assert loss_geo(Tensor([0.0, 3.0]), [1.0, 0.0]).item() == -0.5


def test_loss_sem_low_values():
    assert loss_sem_low([1.0, 2.0], [1.0, 2.0]).item() == 0.0
    assert loss_sem_low([0.0, 0.0], [1.0, 1.0]).item() == 2.0
    assert loss_sem_low([1.0], [4.0]).item() == 9.0


def test_loss_sem_high_hinge_arithmetic():
    mu = Tensor([0.0, 0.0])
    # equal distances, margin 1 -> hinge argument is exactly the margin
    assert loss_sem_high(Tensor([1.0, 0.0]), Tensor([0.0, 1.0]), mu, 1.0).item() == 1.0
    # drift argument -2 + 1 < 0 -> inactive
    assert loss_sem_high(Tensor([0.0, 4.0]), Tensor([1.0, 0.0]), mu, 1.0).item() == 0.0
    # drift 0.5 + margin 1
    assert loss_sem_high(Tensor([1.0, 0.0]), Tensor([1.5, 0.0]), mu, 1.0).item() == 1.5


def test_loss_sem_high_zero_gradient_when_inactive():
    mu = Tensor([0.0, 0.0])
    with record():
        e_tilde = Tensor([1.0, 0.0], requires_grad=True)
        out = loss_sem_high(Tensor([0.0, 4.0]), e_tilde, mu, 1.0)
        backward(out)
    assert e_tilde.grad.tolist() == [0.0, 0.0]


def c3e_mean(x, x_tilde, class_ids, model, cents, margin=1.0):
    # the mean expansion objective over a batch, as expansion descends it
    mu = cents.vectors(class_ids)
    return c3e_objective(x, x_tilde, mu, c3e_reference(x, mu, model), model, margin)[0].mean()


def test_c3e_objective_identity_case_equals_margin():
    model = identity_encoder()
    cents = compute_centroids([0], [[2.0, 0.0]])  # parallel to the embedding
    x = np.array([[1.0, 0.0]])
    assert c3e_mean(x, Tensor(x), [0], model, cents).item() == 1.0


def test_c3e_objective_two_element_mean():
    model = identity_encoder()
    cents = compute_centroids([0], [[1.0, 0.0]])
    x = np.array([[1.0, 0.0], [1.0, 0.0]])
    # rows: term 1.0, and -0.25 + 1 + 2 = 2.75
    x_tilde = Tensor([[1.0, 0.0], [1.0, 1.0]])
    assert c3e_mean(x, x_tilde, [0, 0], model, cents).item() == pytest.approx(1.875, abs=1e-12)


def test_c3e_objective_gradient_reaches_x_tilde_only():
    model = identity_encoder()
    cents = compute_centroids([0], [[1.0, 0.5]])
    x = np.array([[0.3, 0.8]])
    before = model.checksum()
    with record():
        x_tilde = Tensor([[0.4, 0.7]], requires_grad=True)
        backward(c3e_mean(x, x_tilde, [0], model, cents))
    assert x_tilde.grad is not None and np.isfinite(x_tilde.grad).all()
    assert all(p.grad is None for p in model.parameters())
    assert model.checksum() == before


def test_c3e_objective_grad_check():
    model = EncoderModel.build([4, 6, 3], ["tanh", "identity"], seed=5)
    mu = np.array([0.4, -0.2, 0.7])
    x = np.array([0.5, -0.1, 0.3, 0.9])

    def f(t):
        return c3e_objective(x, t, mu, c3e_reference(x, mu, model), model, 1.0)[0]

    assert grad_check(f, Tensor([0.6, 0.1, 0.2, 0.8])) < 1e-4


# -- constraint-side terms --------------------------------------------------------


def test_loss_dom_single_group_cases():
    cfg = LossConfig()
    assert loss_dom(Tensor([[0.0, 0.0], [0.4, 0.0]]), [0, 0], cfg).item() == pytest.approx(
        0.4, abs=1e-12
    )
    assert loss_dom(Tensor([[0.0, 0.0], [0.3, 0.0]]), [0, 1], cfg).item() == pytest.approx(
        0.7, abs=1e-12
    )
    assert loss_dom(Tensor([[0.0, 0.0], [5.0, 0.0]]), [0, 1], cfg).item() == 0.0  # far
    assert loss_dom(Tensor([[1.0, 1.0], [1.0, 1.0]]), [0, 0], cfg).item() == 0.0  # touching


def test_loss_dom_four_sample_hand_value():
    # A: (0,0), (0.4,0);  B: (0,0.3), (0.4,0.3)
    # positive pairs: 0.4, 0.4 -> mean 0.4
    # negative pairs: 0.3, 0.5, 0.5, 0.3 -> hinges 0.7, 0.5, 0.5, 0.7 -> mean 0.6
    E = Tensor([[0.0, 0.0], [0.4, 0.0], [0.0, 0.3], [0.4, 0.3]])
    assert loss_dom(E, [0, 0, 1, 1], LossConfig()).item() == pytest.approx(1.0, abs=1e-12)


def test_loss_dom_margins_respected():
    cfg = LossConfig(margin_pos=0.1, margin_neg=0.5)
    E = Tensor([[0.0], [0.4]])
    assert loss_dom(E, [0, 0], cfg).item() == pytest.approx(0.3, abs=1e-12)
    assert loss_dom(E, [0, 1], cfg).item() == pytest.approx(0.1, abs=1e-12)


def test_loss_dom_batch_too_small():
    with pytest.raises(ValueError, match="at least 2"):
        loss_dom(Tensor([[1.0]]), [0], LossConfig())


@pytest.mark.parametrize("n_rows, n_ids", [(3, 2), (2, 3), (1, 2)])
def test_loss_dom_rejects_mismatched_lengths(n_rows, n_ids):
    with pytest.raises(ValueError, match=f"{n_rows} embedding rows but {n_ids} class ids"):
        loss_dom(Tensor(np.zeros((n_rows, 2))), [0] * n_ids, LossConfig())


def test_loss_dom_permutation_invariant():
    gen = np.random.default_rng(4)
    E = gen.normal(size=(8, 3))
    labels = np.arange(8) % 3
    base = loss_dom(Tensor(E), labels, LossConfig()).item()
    for _ in range(5):
        perm = gen.permutation(8)
        assert abs(loss_dom(Tensor(E[perm]), labels[perm], LossConfig()).item() - base) < 1e-12


def test_loss_dis_negates_loss_geo():
    gen = np.random.default_rng(8)
    for _ in range(20):
        e = Tensor(gen.normal(size=4))
        mu = gen.normal(size=4)
        assert loss_dis(e, mu).item() + loss_geo(e, mu).item() == 0.0


def test_loss_c4_lambda_zero_is_loss_dom_exactly():
    model = identity_encoder(3)
    gen = np.random.default_rng(6)
    X = gen.normal(size=(6, 3))
    labels = [i % 2 for i in range(6)]
    cents = compute_centroids(labels, X)
    cfg = LossConfig(lam=0.0)
    combined = loss_c4(X, labels, model, cents, cfg).item()
    plain = loss_dom(model.forward(X), labels, cfg).item()
    assert combined == plain


def test_loss_c4_all_at_centroid_single_class():
    model = identity_encoder()
    x = np.array([1.0, 1.0])
    cents = compute_centroids([0], [x])
    out = loss_c4(np.stack([x, x]), [0, 0], model, cents, LossConfig(lam=0.5))
    assert out.item() == 0.0


def test_loss_c4_four_sample_hand_value():
    # embeddings on axes, centroids on the diagonals: loss_dom = sqrt(2)
    # (negative hinges all inactive), centripetal term = 0.25 everywhere
    model = identity_encoder()
    X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    cents = compute_centroids([0, 1], [[1.0, 1.0], [-1.0, -1.0]])
    out = loss_c4(X, [0, 0, 1, 1], model, cents, LossConfig(lam=0.8))
    assert out.item() == pytest.approx(math.sqrt(2.0) + 0.2, abs=1e-12)


def test_loss_c4_batch_too_small():
    with pytest.raises(ValueError):
        loss_c4(np.array([[1.0, 0.0]]), [0], identity_encoder(),
                compute_centroids([0], [[1.0, 0.0]]), LossConfig())


def test_loss_c4_gradient_reaches_parameters():
    model = EncoderModel.build([3, 4, 2], ["tanh", "identity"], seed=1)
    gen = np.random.default_rng(2)
    X = gen.normal(size=(4, 3))
    labels = [i % 2 for i in range(4)]
    cents = compute_centroids(labels, model.forward(X).numpy())
    with record():
        out = loss_c4(X, labels, model, cents, LossConfig())
        backward(out)
    for p in model.parameters():
        assert p.grad is not None and np.isfinite(p.grad).all()


def test_loss_c4_grad_check_through_one_weight():
    # reparametrize the first-layer weight matrix and differentiate through it
    gen = np.random.default_rng(3)
    X = gen.normal(size=(4, 2))
    labels = [i % 2 for i in range(4)]
    cents = compute_centroids([0, 1], [[1.0, 0.3], [-0.8, -0.5]])

    def f(w):
        model = EncoderModel(
            [Layer(weight=w, bias=Tensor(np.zeros(2)), activation="identity")]
        )
        return loss_c4(X, labels, model, cents, LossConfig())

    w0 = Tensor([[0.9, 0.2], [-0.1, 1.1]])
    assert grad_check(f, w0) < 1e-4


def _tape_size(build) -> int:
    with record() as tape:
        build()
    return len(tape)


def test_tape_entries_per_graph_pinned():
    # ops recorded by one graph of each kind; a change here changes the
    # amount of work every backward does
    model = EncoderModel.default(4, 3, 5, seed=0)
    x = np.random.default_rng(0).normal(size=(8, 4))
    labels = [0, 0, 1, 1, 0, 1, 0, 1]
    cents = compute_centroids(labels, model.embed_many(x))
    assert _tape_size(lambda: loss_c4(x, labels, model, cents, LossConfig(lam=0.0))) == 3
    assert _tape_size(lambda: loss_c4(x, labels, model, cents, LossConfig(lam=0.75))) == 7
    assert _tape_size(lambda: loss_dom(model.forward(x), labels, LossConfig())) == 3
    mu = cents.vectors(labels)
    d_orig = c3e_reference(x, mu, model)

    def expansion_step():
        x_tilde = Tensor(x, requires_grad=True)
        c3e_objective(x, x_tilde, mu, d_orig, model, LossConfig().margin_m)[0].sum()

    assert _tape_size(expansion_step) == 4
