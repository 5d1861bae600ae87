import re

import numpy as np
import pytest

from centerpolar import expansion
from centerpolar.encoder import EncoderModel, Layer
from centerpolar.expansion import ExpansionConfig, ExpansionDivergedError, expand_batch
from centerpolar.geometry import compute_centroids, geodesic_distance
from centerpolar.losses import LossConfig, c3e_objective, c3e_reference
from centerpolar.tensor import Tensor, backward, record


def one(sample_id, x, class_id):
    # a batch of one sample, as columns
    return [sample_id], [x], [class_id]


def linear_encoder(W):
    W = np.asarray(W, dtype=np.float64)
    return EncoderModel(
        [
            Layer(
                weight=Tensor(W, requires_grad=True),
                bias=Tensor(np.zeros(W.shape[0]), requires_grad=True),
                activation="identity",
            )
        ]
    )


def test_config_validation_and_normalization():
    with pytest.raises(ValueError):
        ExpansionConfig(iterations_te=0)
    with pytest.raises(ValueError):
        ExpansionConfig(step_size=0.0)
    with pytest.raises(ValueError):
        ExpansionConfig(expansion_epochs=(0, 1))
    cfg = ExpansionConfig(expansion_epochs=(7, 1, 4, 1))
    assert cfg.expansion_epochs == (1, 4, 7)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"iterations_te": 2.0}, "iterations_te"),
        ({"iterations_te": True}, "iterations_te"),
        ({"expansion_epochs": (1.5, 2.9)}, "expansion_epochs[0]"),
        ({"expansion_epochs": (1, True)}, "expansion_epochs[1]"),
        ({"expansion_epochs": (1, "4")}, "expansion_epochs[1]"),
    ],
)
def test_integer_fields_reject_non_integers(kwargs, field):
    with pytest.raises(ValueError, match=re.escape(field)):
        ExpansionConfig(**kwargs)


def test_integer_fields_store_numpy_integers_as_int():
    cfg = ExpansionConfig(iterations_te=np.int64(3), expansion_epochs=(np.int32(4), 1))
    assert cfg.iterations_te == 3 and type(cfg.iterations_te) is int
    assert cfg.expansion_epochs == (1, 4)
    assert all(type(e) is int for e in cfg.expansion_epochs)


def test_single_step_matches_analytic_gradient():
    # one gradient step on e = W x, hand-derived:
    #   g = W^T [ (mu_hat - c e_hat) / (pi sqrt(1-c^2) ||e||) + (e-mu)/||e-mu|| ]
    # for W=[[2,1],[0,1]], x0=[0.8,-0.3], mu=[0.5,0.4], margin 1, step 0.05
    model = linear_encoder([[2.0, 1.0], [0.0, 1.0]])
    cents = compute_centroids([0], [[0.5, 0.4]])
    out = expand_batch(
        one(7, np.array([0.8, -0.3]), 0),
        model,
        cents,
        ExpansionConfig(iterations_te=1, step_size=0.05, expansion_epochs=(1,)),
        LossConfig(),
    )
    got = out[0]
    expected = np.array([0.71937755716666407, -0.31900966664231306])
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_expanded_set_provenance():
    model = linear_encoder(np.eye(2))
    cents = compute_centroids([0, 1], [[1.0, 0.0], [0.0, 1.0]])
    ids, X, labels = [10, 11], np.array([[0.9, 0.1], [0.2, 1.1]]), [0, 1]
    cfg = ExpansionConfig(iterations_te=3)
    out = expand_batch((ids, X, labels), model, cents, cfg, LossConfig())
    # one row per sample, in batch order: row i grew from sample i
    assert out.shape == (2, 2)
    assert np.isfinite(out).all()
    for r, row in enumerate(out):
        (alone,) = expand_batch(one(ids[r], X[r], labels[r]), model, cents, cfg, LossConfig())
        assert np.array_equal(row, alone)
    swapped = expand_batch((ids[::-1], X[::-1], labels[::-1]), model, cents, cfg, LossConfig())
    assert np.array_equal(swapped, out[::-1])


def test_model_untouched_by_expansion():
    model = EncoderModel.build([3, 4, 2], ["tanh", "identity"], seed=2)
    before = model.checksum()
    cents = compute_centroids([0], [[0.5, 0.5]])
    expand_batch(
        one(0, np.array([0.1, 0.2, 0.3]), 0),
        model,
        cents,
        ExpansionConfig(iterations_te=5),
        LossConfig(),
    )
    assert model.checksum() == before


def test_expansion_deterministic_bitwise():
    model = EncoderModel.build([3, 4, 2], ["tanh", "identity"], seed=4)
    cents = compute_centroids([0], [[0.3, -0.4]])
    batch = one(0, np.array([0.5, -0.2, 0.8]), 0)
    cfg = ExpansionConfig(iterations_te=8, step_size=5e-3)
    a = expand_batch(batch, model, cents, cfg, LossConfig())
    b = expand_batch(batch, model, cents, cfg, LossConfig())
    assert np.array_equal(a, b)


def test_samples_expand_independently():
    model = EncoderModel.build([2, 3, 2], ["tanh", "identity"], seed=6)
    cents = compute_centroids([0, 1], [[0.4, 0.1], [-0.3, 0.5]])
    cfg = ExpansionConfig(iterations_te=4)
    b1 = one(0, np.array([0.7, 0.2]), 0)
    b2 = one(1, np.array([-0.1, 0.6]), 1)
    both = tuple(c1 + c2 for c1, c2 in zip(b1, b2))
    together = expand_batch(both, model, cents, cfg, LossConfig())
    alone = np.concatenate(
        [
            expand_batch(b1, model, cents, cfg, LossConfig()),
            expand_batch(b2, model, cents, cfg, LossConfig()),
        ]
    )
    assert np.array_equal(together, alone)


def test_centrifugal_ascent_small_steps():
    # With a small-gain encoder, a distant centroid, and a small starting
    # angle, the push away from the centroid outweighs the drift hinge
    # (angular rates 1/(pi ||e||) versus ||mu|| sin(psi) / ||mu - e||), so the
    # sphere distance must not decrease beyond tolerance at small steps.
    gen = np.random.default_rng(17)
    for _ in range(10):
        W = 0.15 * (np.eye(3) + 0.1 * gen.normal(size=(3, 3)))
        model = linear_encoder(W)
        x = gen.normal(size=3)
        e0 = W @ x
        e0_hat = e0 / np.linalg.norm(e0)
        perp = gen.normal(size=3)
        perp -= (perp @ e0_hat) * e0_hat
        perp /= np.linalg.norm(perp)
        mu = 3.0 * np.linalg.norm(e0) * (np.cos(0.17) * e0_hat + np.sin(0.17) * perp)
        cents = compute_centroids([0], [mu])
        sink = []
        expand_batch(
            one(0, x, 0),
            model,
            cents,
            ExpansionConfig(iterations_te=10, step_size=1e-3),
            LossConfig(),
            trajectory_sink=sink,
        )
        assert sink[-1][2] >= sink[0][2] - 1e-6


def test_semantic_tether_linear_in_step_size():
    model = EncoderModel.build([3, 4, 2], ["tanh", "identity"], seed=9)
    cents = compute_centroids([0], [[0.6, -0.2]])
    x0 = np.array([0.4, 0.1, -0.5])

    def drift(step):
        out = expand_batch(
            one(0, x0, 0),
            model,
            cents,
            ExpansionConfig(iterations_te=3, step_size=step),
            LossConfig(),
        )
        return np.linalg.norm(out[0] - x0)

    ratio = drift(1e-5) / drift(1e-6)
    assert ratio == pytest.approx(10.0, rel=1e-2)


def test_trajectory_length_and_initial_row():
    model = linear_encoder(np.eye(2))
    cents = compute_centroids([0], [[1.0, 0.0]])
    x0 = np.array([0.8, 0.4])
    cfg = ExpansionConfig(iterations_te=6, step_size=1e-2)
    rows = []
    expand_batch(one(5, x0, 0), model, cents, cfg, LossConfig(margin_m=1.0), trajectory_sink=rows)
    assert len(rows) == 7
    assert [r[:2] for r in rows] == [(5, t) for t in range(7)]
    _sid, it0, d_geo0, d_euc0, loss0 = rows[0]
    # before any update: sem term 0, hinge argument exactly the margin
    assert loss0 == pytest.approx(-d_geo0 + 1.0, abs=1e-12)
    assert d_euc0 == pytest.approx(np.linalg.norm([0.8, 0.4] - np.array([1.0, 0.0])), abs=1e-12)


def test_trajectory_consistent_with_expand_batch():
    model = EncoderModel.build([2, 3, 2], ["tanh", "identity"], seed=12)
    cents = compute_centroids([0], [[0.5, 0.3]])
    x0 = np.array([0.2, -0.7])
    cfg = ExpansionConfig(iterations_te=5, step_size=1e-2)
    rows = []
    out = expand_batch(one(0, x0, 0), model, cents, cfg, LossConfig(), trajectory_sink=rows)
    e = model.forward(Tensor(out[0]), frozen=True)
    d_final = geodesic_distance(Tensor(cents.vectors([0])[0]), e).item()
    assert rows[-1][2] == pytest.approx(d_final, abs=1e-15)


def test_trajectories_of_blocks_are_the_rows_alone_in_order():
    # 300 rows span three blocks; each row's sink rows are those it gets alone
    gen = np.random.default_rng(3)
    model = EncoderModel.build([3, 4, 2], ["tanh", "identity"], seed=3)
    cents = compute_centroids([0, 1], [[0.6, -0.2], [-0.3, 0.5]])
    ids, X, labels = list(range(100, 400)), gen.normal(size=(300, 3)), [i % 2 for i in range(300)]
    cfg = ExpansionConfig(iterations_te=2, step_size=1e-2)
    together = []
    expand_batch((ids, X, labels), model, cents, cfg, LossConfig(), trajectory_sink=together)
    alone = []
    for r in range(300):
        expand_batch(
            one(ids[r], X[r], labels[r]), model, cents, cfg, LossConfig(), trajectory_sink=alone
        )
    assert len(together) == 300 * 3
    assert together == alone


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_names_sample_and_iteration():
    # an absurd step size launches the iterate out of the representable range
    model = linear_encoder(np.eye(2))
    cents = compute_centroids([0], [[1.0, 0.0]])
    with pytest.raises(ExpansionDivergedError) as exc:
        expand_batch(
            one(42, np.array([0.5, 0.5]), 0),
            model,
            cents,
            ExpansionConfig(iterations_te=10, step_size=1e155),
            LossConfig(),
        )
    msg = str(exc.value)
    assert "42" in msg and "iteration" in msg


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_in_a_block_names_the_diverged_sample():
    # sample 7 sits on its centroid, so its gradient is 0 and it never moves;
    # sample 42 diverges, and only sample 7's trajectory reaches the sink
    model = linear_encoder(np.eye(2))
    cents = compute_centroids([0], [[1.0, 0.0]])
    batch = [7, 42], [[1.0, 0.0], [0.5, 0.5]], [0, 0]
    sink = []
    with pytest.raises(ExpansionDivergedError, match="sample 42, iteration"):
        expand_batch(
            batch,
            model,
            cents,
            ExpansionConfig(iterations_te=10, step_size=1e155),
            LossConfig(),
            trajectory_sink=sink,
        )
    assert [r[:2] for r in sink] == [(7, t) for t in range(11)]


def _overflowing_case():
    # a gain of 1e10 overflows the embedding once the iterate is near 1e300
    model = linear_encoder(1e10 * np.eye(2))
    cents = compute_centroids([0], [[1.0, 0.0]])
    return ([7], [[0.5, 0.5]], [0]), model, cents


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("sink", [None, []], ids=["no-sink", "sink"])
def test_divergence_with_a_sink_is_the_divergence_without(sink):
    batch, model, cents = _overflowing_case()
    cfg = ExpansionConfig(iterations_te=3, step_size=1e290)
    with pytest.raises(ExpansionDivergedError, match="sample 7, iteration 2"):
        expand_batch(batch, model, cents, cfg, LossConfig(), trajectory_sink=sink)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_last_iterate_that_overflows_diverges_with_a_sink():
    # no step reads the last iterate, so only its trajectory row overflows
    batch, model, cents = _overflowing_case()
    cfg = ExpansionConfig(iterations_te=1, step_size=1e290)
    (out,) = expand_batch(batch, model, cents, cfg, LossConfig())
    assert np.isfinite(out).all()
    sink = []
    with pytest.raises(ExpansionDivergedError, match="sample 7, iteration 1"):
        expand_batch(batch, model, cents, cfg, LossConfig(), trajectory_sink=sink)
    assert sink == []


def test_a_sink_costs_one_forward_per_block(monkeypatch):
    # the trajectory reads what each step computed, plus the last iterate once
    monkeypatch.setattr(expansion, "_BLOCK_ROWS", 4)
    calls = []
    forward = EncoderModel.forward

    def counted(self, *args, **kwargs):
        calls.append(1)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(EncoderModel, "forward", counted)
    gen = np.random.default_rng(8)
    model = EncoderModel.build([3, 4, 2], ["tanh", "identity"], seed=8)
    cents = compute_centroids([0, 1], [[0.6, -0.2], [-0.3, 0.5]])
    batch = list(range(10)), gen.normal(size=(10, 3)), [i % 2 for i in range(10)]
    cfg = ExpansionConfig(iterations_te=3, step_size=1e-2)
    expand_batch(batch, model, cents, cfg, LossConfig())
    without = len(calls)
    calls.clear()
    expand_batch(batch, model, cents, cfg, LossConfig(), trajectory_sink=[])
    assert without == 3 * (1 + cfg.iterations_te)  # three blocks: 4, 4 and 2 rows
    assert len(calls) == without + 3


@pytest.mark.parametrize(
    "batch, shape",
    [
        (([0, 1], np.zeros((4, 1)), [0, 0]), "(4, 1)"),
        (([0, 1], np.zeros(4), [0, 0]), "(4,)"),
        (([0, 1], np.zeros((2, 2)), [0]), "(2, 2)"),
    ],
)
def test_mismatched_columns_rejected(batch, shape):
    model = linear_encoder(np.eye(2))
    cents = compute_centroids([0], [[1.0, 0.0]])
    with pytest.raises(ValueError, match=re.escape(f"ids but inputs of shape {shape}")):
        expand_batch(batch, model, cents, ExpansionConfig(), LossConfig())


@pytest.mark.parametrize("seed", range(5))
def test_one_step_is_a_gradient_step_on_c3e_objective(seed):
    # expansion descends exactly the objective that c3e_objective evaluates
    gen = np.random.default_rng(seed)
    model = EncoderModel.default(4, embed_dim=3, hidden_dim=5, seed=seed)
    cents = compute_centroids([0, 1], [gen.normal(size=3), gen.normal(size=3)])
    econf = ExpansionConfig(iterations_te=1, step_size=0.05)
    lconf = LossConfig(margin_m=0.5)
    for sid in range(10):
        x, c = gen.normal(size=4), sid % 2
        (out,) = expand_batch(one(sid, x, c), model, cents, econf, lconf)
        mu = cents.vectors([c])[0]
        with record():
            xt = Tensor(x, requires_grad=True)
            d_orig = c3e_reference(x, mu, model)
            backward(c3e_objective(x, xt, mu, d_orig, model, lconf.margin_m)[0])
        assert np.array_equal(out, x - econf.step_size * xt.grad)
