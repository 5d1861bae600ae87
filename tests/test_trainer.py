"""Trainer: config plumbing, Adam, the two-phase loop, probe, checkpoints."""

import dataclasses
import gc
import json
import math
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from centerpolar import rng, schema
from centerpolar.data import DataSet, generate_benchmark
from centerpolar.encoder import EncoderModel, Layer
from centerpolar.expansion import ExpansionConfig
from centerpolar.experiments import benchmark_train_config, default_benchmark_spec
from centerpolar.geometry import compute_centroids
from centerpolar.losses import LossConfig
from centerpolar.tensor import ShapeError, Tensor
from grad_oracle import c4_equilibrium_probe
from schema_paths import object_paths
from centerpolar.trainer import (
    ABLATIONS,
    AdamState,
    CheckpointError,
    TrainConfig,
    TrainingDivergedError,
    _class_balanced_batches,
    adam_step,
    load_checkpoint,
    save_checkpoint,
    train,
)


def toy_dataset(seed=0, n_per_class=10, centers=((-1.0, 0.0), (1.0, 0.0))):
    gen = np.random.default_rng(seed)
    rows = [center for center in centers for _ in range(n_per_class)]
    return DataSet(
        ids=np.arange(len(rows)),
        labels=np.repeat(np.arange(len(centers)), n_per_class),
        domains=["source"] * len(rows),
        features=[np.asarray(c) + 0.25 * gen.normal(size=len(c)) for c in rows],
    )


def small_config(**overrides):
    kwargs = dict(
        total_epochs=3,
        batch_size=8,
        seed=0,
        embed_dim=4,
        hidden_dim=8,
        expansion=ExpansionConfig(iterations_te=2, step_size=1e-2, expansion_epochs=(1, 3)),
    )
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


# model checksums of each ablation on the reference benchmark at seed 0
REFERENCE_CHECKSUMS = {
    "baseline": "49d4fb42f2066e1852900e30e8a8e3a4cc09be0a0c3a3185ad95a40aa2d102e3",
    "c4_only": "e6fa3558749f8bb5f04026521c5d7d146228e09999e08c58069599dd33eec2ba",
    "c3e_only": "179132a5746440a155fbd8cb1d150f70638c644b10ef9c34f05b27869e9d8fa6",
    "full": "08d38160a3538230058fbe4a4b4de19d1dd1217ae6a4125a3205e4d4fc7a8832",
}

positive_floats = st.floats(min_value=1e-9, max_value=1e3)
unit_floats = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
train_configs = st.builds(
    TrainConfig,
    total_epochs=st.integers(0, 100),
    batch_size=st.integers(2, 512),
    lr_theta=positive_floats,
    adam_beta1=unit_floats,
    adam_beta2=unit_floats,
    adam_eps=positive_floats,
    seed=st.integers(0, 2**64 - 1),
    ablation=st.sampled_from(ABLATIONS),
    embed_dim=st.integers(1, 64),
    hidden_dim=st.integers(1, 64),
    eval_every=st.integers(1, 10),
    loss=st.builds(
        LossConfig,
        margin_m=positive_floats,
        lam=st.floats(min_value=0.0, max_value=1e3),
        margin_pos=st.floats(min_value=0.0, max_value=1.0),
        margin_neg=st.floats(min_value=1.5, max_value=10.0),
    ),
    expansion=st.builds(
        ExpansionConfig,
        iterations_te=st.integers(1, 100),
        step_size=positive_floats,
        expansion_epochs=st.lists(st.integers(1, 50), max_size=5).map(tuple),
    ),
)

# a checkpoint exactly as the hand-written serializer wrote it
PARENT_CHECKPOINT = """{
  "config": {
    "ablation": "c4_only",
    "adam_beta1": 0.9,
    "adam_beta2": 0.999,
    "adam_eps": 1e-08,
    "batch_size": 8,
    "embed_dim": 2,
    "eval_every": 2,
    "expansion": {
      "expansion_epochs": [
        1
      ],
      "iterations_te": 2,
      "step_size": 0.05
    },
    "hidden_dim": 3,
    "loss": {
      "lambda": 0.5,
      "margin_m": 1.0,
      "margin_neg": 1.0,
      "margin_pos": 0.0
    },
    "lr_theta": 0.001,
    "seed": 5,
    "total_epochs": 3
  },
  "epoch": 3,
  "layers": [
    {
      "activation": "tanh",
      "bias": "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",
      "weight": "eA3IJ90Izz98JK2vEAPuv+BB2LWNTaE/zpmMGGoI5D8gbR9fJejYPwB41xCQukg/",
      "weight_shape": [
        3,
        2
      ]
    },
    {
      "activation": "identity",
      "bias": "AAAAAAAAAAAAAAAAAAAAAA==",
      "weight": "EDF8XCxI5z9Q8RVZaQC1v0gn99l6zNa/lG+VKfRA1T+Olggy7ZrhP5htuUWuoMI/",
      "weight_shape": [
        2,
        3
      ]
    }
  ],
  "seed": 5
}
"""


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"total_epochs": -1},
            {"batch_size": 1},
            {"lr_theta": 0.0},
            {"lr_theta": -1e-3},
            {"adam_beta1": 1.0},
            {"adam_beta2": -0.1},
            {"adam_eps": 0.0},
            {"ablation": "everything"},
            {"embed_dim": 0},
            {"eval_every": 0},
            {"total_epochs": 1.5},
            {"batch_size": 8.0},
            {"seed": True},
            {"embed_dim": "4"},
            {"hidden_dim": 8.0},
            {"eval_every": False},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError, match="|".join(kwargs)):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "build, key",
        [
            (lambda v: TrainConfig(adam_eps=v), "adam_eps"),
            (lambda v: TrainConfig(lr_theta=v), "lr_theta"),
            (lambda v: TrainConfig(adam_beta1=v), "adam_beta1"),
            (lambda v: LossConfig(lam=v), "lambda"),
            (lambda v: LossConfig(margin_neg=v), "margin_neg"),
            (lambda v: ExpansionConfig(step_size=v), "step_size"),
        ],
        ids=["adam_eps", "lr_theta", "adam_beta1", "lambda", "margin_neg", "step_size"],
    )
    def test_non_finite_floats_rejected(self, build, key, value):
        with pytest.raises(ValueError, match=f"^{key}: expected a finite number"):
            build(value)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: TrainConfig(lr_theta=True), "lr_theta: expected a number, got boolean True"),
            (lambda: TrainConfig(lr_theta="0.1"), "lr_theta: expected a number, got string '0.1'"),
            (lambda: TrainConfig(adam_eps=None), "adam_eps: expected a number, got null None"),
            (lambda: LossConfig(lam=False), "lambda: expected a number, got boolean False"),
            (lambda: ExpansionConfig(step_size=[0.1]), "step_size: expected a number, got array"),
        ],
        ids=["lr_theta-bool", "lr_theta-str", "adam_eps-none", "lambda-bool", "step_size-list"],
    )
    def test_float_fields_reject_booleans_and_non_numbers(self, build, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            build()

    def test_float_fields_store_floats_whatever_number_they_get(self):
        cfg = TrainConfig(lr_theta=1, adam_beta1=np.float32(0.5), loss=LossConfig(lam=2))
        assert type(cfg.lr_theta) is float and type(cfg.loss.lam) is float
        assert type(cfg.adam_beta1) is float and cfg.adam_beta1 == 0.5
        # the JSON a config writes does not depend on how it was built
        from_json = TrainConfig.from_dict({"lr_theta": 1, "adam_beta1": 0.5, "loss": {"lambda": 2}})
        assert json.dumps(cfg.to_dict()) == json.dumps(from_json.to_dict())

    def test_integer_fields_store_numpy_integers_as_int(self):
        cfg = TrainConfig(total_epochs=np.int64(3), batch_size=np.int32(8), seed=np.uint64(5))
        assert (cfg.total_epochs, cfg.batch_size, cfg.seed) == (3, 8, 5)
        assert {type(cfg.total_epochs), type(cfg.batch_size), type(cfg.seed)} == {int}

    def test_round_trip(self):
        cfg = small_config(
            ablation="c4_only",
            lr_theta=5e-4,
            loss=LossConfig(margin_m=0.3, lam=0.5),
        )
        back = TrainConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_to_dict_uses_lambda_key(self):
        d = TrainConfig().to_dict()
        assert "lambda" in d["loss"]
        assert "lam" not in d["loss"]

    def test_from_dict_rejects_unknown_fields(self):
        d = TrainConfig().to_dict()
        d["momentum"] = 0.9
        with pytest.raises(ValueError, match="momentum"):
            TrainConfig.from_dict(d)

    def test_from_dict_partial_uses_defaults(self):
        cfg = TrainConfig.from_dict({"total_epochs": 7})
        assert cfg.total_epochs == 7
        assert cfg.batch_size == TrainConfig().batch_size

    @given(cfg=train_configs)
    def test_json_round_trip_property(self, cfg):
        assert TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @given(cfg=train_configs, data=st.data())
    def test_unknown_key_at_any_depth_named(self, cfg, data):
        d = cfg.to_dict()
        path, obj = data.draw(st.sampled_from(object_paths(d)))
        obj["typo"] = 1
        dotted = f"{path}.typo" if path else "typo"
        with pytest.raises(ValueError, match=re.escape(dotted)):
            TrainConfig.from_dict(d)

    @pytest.mark.parametrize(
        "d, key",
        [
            ({"loss": {"lamda": 0.1}}, "loss.lamda"),
            ({"expansion": {"stepsize": 0.1}}, "expansion.stepsize"),
            ({"total_epochs": "3"}, "total_epochs"),
            ({"total_epochs": 1.5}, "total_epochs"),
            ({"batch_size": 8.0}, "batch_size"),
            ({"seed": True}, "seed"),
            ({"lr_theta": False}, "lr_theta"),
            ({"ablation": 1}, "ablation"),
            ({"loss": [1, 2]}, "loss"),
            ({"loss": None}, "loss"),
            ({"expansion": {"expansion_epochs": 1}}, "expansion.expansion_epochs"),
            ({"expansion": {"expansion_epochs": [1, 2.5]}}, "expansion.expansion_epochs[1]"),
            ({"adam_eps": math.inf}, "adam_eps: expected a finite number"),
            ({"loss": {"lambda": math.inf}}, "loss.lambda: expected a finite number"),
            ({"expansion": {"step_size": math.nan}}, "expansion.step_size: expected a finite"),
        ],
    )
    def test_from_dict_rejects_bad_values_by_key(self, d, key):
        with pytest.raises(ValueError, match=re.escape(key)):
            TrainConfig.from_dict(d)

    def test_integer_too_large_for_a_float_names_the_field(self):
        message = "^lr_theta: expected a finite number, got an integer too large for a float$"
        with pytest.raises(ValueError, match=message):
            TrainConfig(lr_theta=10**400)
        with pytest.raises(ValueError, match=message):
            TrainConfig.from_dict(json.loads('{"lr_theta": 1' + "0" * 400 + "}"))

    def test_from_dict_stores_json_integers_as_floats(self):
        cfg = TrainConfig.from_dict({"lr_theta": 1, "loss": {"lambda": 2}})
        assert type(cfg.lr_theta) is float and type(cfg.loss.lam) is float


# TrainConfig's Adam defaults
ADAM = {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8}


def per_parameter_adam_step(params, grads, m, v, t, lr, beta1, beta2, eps):
    """Step `t` of `adam_step`, one parameter at a time, with moment arrays
    `m` and `v` per parameter: the reference for the flat moment vectors."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for p, g, m_p, v_p in zip(params, grads, m, v):
        m_p *= beta1
        m_p += (1.0 - beta1) * g
        v_p *= beta2
        v_p += (1.0 - beta2) * (g * g)
        p.data -= lr * (m_p / c1) / (np.sqrt(v_p / c2) + eps)


class TestAdam:
    def test_first_step_frozen_value(self):
        # p0 = 0, g = 1, lr = 0.1: the bias-corrected update is
        # lr * g / (|g| + eps) = 0.1 / (1 + 1e-8)
        p = Tensor(np.array([0.0]), requires_grad=True)
        state = AdamState.init([p])
        adam_step([p], [np.array([1.0])], state, lr=0.1, **ADAM)
        assert p.data[0] == -0.09999999900000002
        assert state.t == 1

    def test_zero_gradient_is_noop(self):
        p = Tensor(np.array([1.5, -2.5]), requires_grad=True)
        before = p.data.copy()
        state = AdamState.init([p])
        adam_step([p], [np.zeros(2)], state, lr=0.1, **ADAM)
        assert np.array_equal(p.data, before)

    def test_state_carries_between_steps(self):
        # two steps with the same gradient are not one step at double lr
        def run(steps, lr):
            p = Tensor(np.array([0.0]), requires_grad=True)
            state = AdamState.init([p])
            for _ in range(steps):
                adam_step([p], [np.array([1.0])], state, lr=lr, **ADAM)
            return p.data[0]

        assert run(2, 0.1) != run(1, 0.2)
        assert abs(run(2, 0.1) + 0.2) < 1e-7  # both steps move ~lr for constant grad

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
        state = AdamState.init([p])
        with pytest.raises(ValueError, match="shape"):
            adam_step([p], [np.zeros(3)], state, lr=0.1, **ADAM)

    def test_flat_moments_match_the_per_parameter_loop(self):
        flat, loop = (EncoderModel.default(5, 3, 4, seed=2).parameters() for _ in range(2))
        state = AdamState.init(flat)
        m, v = [np.zeros_like(p.data) for p in loop], [np.zeros_like(p.data) for p in loop]
        gen = np.random.default_rng(9)
        for t in range(1, 8):
            grads = [gen.normal(size=p.shape) * 10.0 ** gen.integers(-9, 3) for p in flat]
            grads[t % len(grads)][...] = -0.0
            adam_step(flat, grads, state, lr=1e-2, **ADAM)
            per_parameter_adam_step(loop, grads, m, v, t, lr=1e-2, **ADAM)
            for a, b in zip(flat, loop):
                assert a.data.tobytes() == b.data.tobytes()
            assert state.m.tobytes() == np.concatenate([a.ravel() for a in m]).tobytes()
            assert state.v.tobytes() == np.concatenate([a.ravel() for a in v]).tobytes()

    def test_rejected_step_changes_nothing(self):
        p, q = (Tensor(np.array(v), requires_grad=True) for v in ([0.0, 0.0], [1.0]))
        state = AdamState.init([p, q])
        with pytest.raises(ValueError, match="align"):
            adam_step([p], [np.ones(2)], state, lr=0.1, **ADAM)
        with pytest.raises(ValueError, match="gradient"):
            adam_step([p, q], [np.ones(2), None], state, lr=0.1, **ADAM)
        assert p.data.tolist() == [0.0, 0.0] and state.t == 0 and not state.m.any()

    def test_missing_gradient_rejected(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        state = AdamState.init([p])
        with pytest.raises(ValueError, match="gradient"):
            adam_step([p], [None], state, lr=0.1, **ADAM)


class TestEncoderForward:
    def test_identity_layer_passes_through(self):
        model = EncoderModel(
            [
                Layer(
                    weight=Tensor(np.eye(3), requires_grad=True),
                    bias=Tensor(np.zeros(3), requires_grad=True),
                    activation="identity",
                )
            ]
        )
        x = np.array([0.3, -1.2, 4.0])
        assert np.array_equal(model.forward(Tensor(x)).data, x)
        assert np.array_equal(model.embed_many(x[None, :])[0], x)

    def test_known_tanh_layer(self):
        W = np.array([[0.5, -0.25], [1.0, 0.75]])
        b = np.array([0.1, -0.2])
        model = EncoderModel(
            [
                Layer(
                    weight=Tensor(W, requires_grad=True),
                    bias=Tensor(b, requires_grad=True),
                    activation="tanh",
                )
            ]
        )
        out = model.forward(Tensor(np.array([1.0, 2.0]))).data
        # pre-activations: 0.5 - 0.5 + 0.1 = 0.1 and 1.0 + 1.5 - 0.2 = 2.3
        assert out[0] == math.tanh(0.1)
        assert out[1] == math.tanh(2.3)

    def test_input_dim_mismatch(self):
        model = EncoderModel.default(input_dim=4, embed_dim=2, hidden_dim=3, seed=0)
        with pytest.raises(ShapeError, match="input shape"):
            model.forward(Tensor(np.zeros(5)))

    @pytest.mark.parametrize(
        "shapes, activation, message",
        [
            (
                [((3, 2), 3), ((2, 3), 2)],
                "sigmoid",
                r"layers\[1\]\.activation: unknown activation 'sigmoid'",
            ),
            (
                [((3, 2), 3), ((2, 3), 1)],
                "tanh",
                r"layers\[1\]\.bias: 1 values, weight has 2 rows",
            ),
            (
                [((3, 2), 3), ((2, 4), 2)],
                "tanh",
                r"layers\[1\]\.weight: 4 inputs, layers\[0\] has 3",
            ),
            ([((3, 2, 1), 3)], "tanh", r"layers\[0\]\.weight: expected two dims"),
            (
                [((3, 0), 3)],
                "tanh",
                r"layers\[0\]\.weight: each dim must be >= 1, got shape \(3, 0\)",
            ),
            ([((3, 2), 3), ((0, 3), 0)], "tanh", r"layers\[1\]\.weight: each dim must be >= 1"),
        ],
    )
    def test_layer_contract_names_the_layer(self, shapes, activation, message):
        layers = [
            Layer(weight=Tensor(np.zeros(w)), bias=Tensor(np.zeros(b)), activation="tanh")
            for w, b in shapes
        ]
        layers[-1].activation = activation
        with pytest.raises(ValueError, match=message):
            EncoderModel(layers)

    def test_an_empty_layer_stack_is_named(self):
        with pytest.raises(ValueError, match="^layers: encoder needs at least one layer"):
            EncoderModel([])

    def test_build_is_seed_deterministic(self):
        a = EncoderModel.default(input_dim=3, embed_dim=32, hidden_dim=64, seed=7)
        b = EncoderModel.default(input_dim=3, embed_dim=32, hidden_dim=64, seed=7)
        c = EncoderModel.default(input_dim=3, embed_dim=32, hidden_dim=64, seed=8)
        assert a.checksum() == b.checksum()
        assert a.checksum() != c.checksum()


@pytest.mark.parametrize(
    "seed, stream_id, message",
    [
        (-1, 0, "seed: must be >= 0, got -1"),
        (0, 2**64, "stream_id: must be < 18446744073709551616"),
        (True, 0, "seed: expected an integer, got boolean True"),
    ],
)
def test_stream_names_the_bad_half_of_its_key(seed, stream_id, message):
    with pytest.raises(schema.FieldError) as info:
        rng.stream(seed, stream_id)
    assert str(info.value).startswith(message)


def test_stream_keys_reach_the_ends_of_the_seed_range():
    def draws(seed, stream_id):
        return rng.stream(seed, stream_id).integers(0, 2**63, size=2)

    top = draws(2**64 - 1, 2**64 - 1)
    assert np.array_equal(top, draws(np.uint64(2**64 - 1), 2**64 - 1))
    assert not np.array_equal(top, draws(0, 2**64 - 1))


class TestTrainLoop:
    def test_baseline_skips_both_phases(self):
        report = train(toy_dataset(), small_config(ablation="baseline"))
        assert report.call_counts["expand_batch"] == 0
        assert report.call_counts["loss_c4"] == 0
        assert report.call_counts["loss_dis"] == 0
        assert report.call_counts["loss_dom"] > 0

    def test_c3e_only_expands_without_centripetal(self):
        report = train(toy_dataset(), small_config(ablation="c3e_only"))
        assert report.call_counts["expand_batch"] == 2  # epochs 1 and 3
        # one objective evaluation per sample, iteration and round
        assert report.call_counts["loss_c3e"] == 20 * 2 * 2
        assert report.call_counts["loss_c4"] == 0
        assert report.call_counts["loss_dis"] == 0
        assert report.call_counts["loss_dom"] > 0

    def test_c4_only_constrains_without_expansion(self):
        report = train(toy_dataset(), small_config(ablation="c4_only"))
        assert report.call_counts["expand_batch"] == 0
        assert report.call_counts["loss_c4"] > 0
        assert report.call_counts["loss_dis"] > 0

    def test_full_runs_both(self):
        report = train(toy_dataset(), small_config(ablation="full"))
        assert report.call_counts["expand_batch"] == 2
        assert report.call_counts["loss_c4"] > 0

    def test_zero_epochs_returns_initial_model(self):
        cfg = small_config(total_epochs=0)
        report = train(toy_dataset(), cfg)
        fresh = EncoderModel.build(
            [2, cfg.hidden_dim, cfg.embed_dim], ["tanh", "identity"], cfg.seed
        )
        assert report.model.checksum() == fresh.checksum()
        assert report.epoch_losses == []
        assert report.eval_snapshots == {}

    def test_repeat_runs_bitwise_identical(self):
        r1 = train(toy_dataset(), small_config())
        r2 = train(toy_dataset(), small_config())
        assert r1.model.checksum() == r2.model.checksum()
        assert r1.epoch_losses == r2.epoch_losses

    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_reference_benchmark_checksums_pinned(self, ablation):
        # the model bits every later change to training is held to
        train_set, _tests = generate_benchmark(default_benchmark_spec(seed=0))
        report = train(train_set, benchmark_train_config(0, ablation))
        assert report.model.checksum() == REFERENCE_CHECKSUMS[ablation]

    @pytest.mark.parametrize(
        "ablation, lam, tables",
        [
            ("baseline", 0.75, 0),
            ("c3e_only", 0.75, 1),  # the expansion epoch only
            ("c4_only", 0.0, 0),  # lambda 0 reads no table
            ("c4_only", 0.75, 2),
            ("full", 0.0, 1),
            ("full", 0.75, 2),
        ],
    )
    def test_centroids_only_for_epochs_that_read_them(self, monkeypatch, ablation, lam, tables):
        # the reference config: two epochs, expansion in the first
        from centerpolar import trainer

        calls = []

        def counted(labels, embeddings):
            calls.append(1)
            return compute_centroids(labels, embeddings)

        monkeypatch.setattr(trainer, "compute_centroids", counted)
        train_set, _tests = generate_benchmark(default_benchmark_spec(seed=0))
        report = train(train_set, benchmark_train_config(0, ablation, lam))
        assert len(calls) == tables
        if lam == 0.75:
            assert report.model.checksum() == REFERENCE_CHECKSUMS[ablation]

    def test_learns_to_separate_toy_clusters(self):
        ds = toy_dataset()
        report = train(ds, small_config(total_epochs=6))
        E = report.model.embed_many(ds.features)
        labels = ds.labels
        intra, inter = [], []
        for i in range(len(E)):
            for j in range(i + 1, len(E)):
                d = float(np.linalg.norm(E[i] - E[j]))
                (intra if labels[i] == labels[j] else inter).append(d)
        assert np.mean(intra) < np.mean(inter)

    def test_expansion_buffer_carries_between_rounds(self):
        # with a vanishing encoder lr the model is bitwise frozen, so the
        # first diagnostic row of round two must match the last row of
        # round one exactly: expansion resumes from the expanded points
        sink = []
        cfg = small_config(
            total_epochs=2,
            ablation="c3e_only",
            lr_theta=1e-300,
            expansion=ExpansionConfig(
                iterations_te=3, step_size=1e-2, expansion_epochs=(1, 2)
            ),
        )
        train(toy_dataset(), cfg, trajectory_sink=sink)
        rows = [r for r in sink if r[0] == 0]  # sample 0: 4 rows per round
        assert len(rows) == 8
        round1, round2 = rows[:4], rows[4:]
        assert round2[0][2] == round1[3][2]  # d_geo resumes exactly
        assert round2[0][2] != round1[0][2]  # and did move from the start

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_raises_typed_error(self):
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            train(toy_dataset(), small_config(ablation="c4_only", lr_theta=1e160))

    def test_rejects_singleton_class(self):
        toy = toy_dataset(n_per_class=3)
        ds = DataSet(
            np.append(toy.ids, 99),
            np.append(toy.labels, 5),
            [*toy.domains, "source"],
            np.vstack([toy.features, np.zeros(2)]),
        )
        with pytest.raises(ValueError, match="class 5"):
            train(ds, small_config())

    def test_rejects_tiny_dataset(self):
        ds = DataSet([0], [0], ["source"], np.zeros((1, 2)))
        with pytest.raises(ValueError, match="at least 2"):
            train(ds, small_config())

    @pytest.mark.parametrize(
        "rows, message",
        [
            (1, "domain 'tiny': recall k=2 exceeds gallery size 0"),
            (2, "domain 'tiny': recall k=2 exceeds gallery size 1"),
        ],
    )
    def test_unscorable_test_domain_rejected_before_the_first_epoch(
        self, monkeypatch, rows, message
    ):
        from centerpolar import trainer

        holdout = toy_dataset(seed=3)
        tiny = DataSet(
            holdout.ids[:rows], holdout.labels[:rows], ["tiny"] * rows, holdout.features[:rows]
        )
        monkeypatch.setattr(trainer, "_class_balanced_batches", lambda *a: pytest.fail("trained"))
        with pytest.raises(ValueError, match=message):
            train(toy_dataset(), small_config(), tests={"holdout": holdout, "tiny": tiny})

    @pytest.mark.parametrize("ablation", ["c4_only", "full"])
    def test_leaves_no_cyclic_garbage(self, ablation):
        # each step's graph is freed by reference counting when its record
        # block ends; the first run only warms up lazy imports (numpy.ma)
        cfg = small_config(ablation=ablation)
        train(toy_dataset(), cfg)
        gc.collect()
        gc.disable()
        try:
            train(toy_dataset(), cfg)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_snapshot_schedule(self):
        ds = toy_dataset()
        tests = {"holdout": toy_dataset(seed=3)}
        report = train(ds, small_config(total_epochs=5, eval_every=2), tests=tests)
        assert sorted(report.eval_snapshots) == [2, 4, 5]

    def test_no_tests_means_no_snapshots(self):
        report = train(toy_dataset(), small_config(total_epochs=4, eval_every=2))
        assert report.eval_snapshots == {}

    def test_report_dict_shape(self):
        report = train(toy_dataset(), small_config())
        d = report.to_dict()
        assert set(d) == {
            "epoch_losses",
            "eval_snapshots",
            "config",
            "call_counts",
            "final_checksum",
        }
        assert d["final_checksum"] == report.model.checksum()
        json.dumps(d)  # serializable as-is


class TestBatching:
    def test_partition_and_coverage(self):
        labels = np.array([0] * 5 + [1] * 4 + [2] * 2)
        gen = np.random.default_rng(0)
        batches = _class_balanced_batches(labels, batch_size=8, gen=gen)
        seen = [row for batch in batches for row in batch]
        assert sorted(seen) == list(range(11))
        for batch in batches:
            per_class = {}
            for cid in labels[batch]:
                per_class[cid] = per_class.get(cid, 0) + 1
            assert all(v >= 2 for v in per_class.values())

    def test_order_depends_on_generator(self):
        labels = np.arange(18) % 3
        b1 = _class_balanced_batches(labels, 8, np.random.default_rng(1))
        b2 = _class_balanced_batches(labels, 8, np.random.default_rng(2))
        rows1 = [row for b in b1 for row in b]
        rows2 = [row for b in b2 for row in b]
        assert sorted(rows1) == sorted(rows2)
        assert rows1 != rows2


class TestRunState:
    """Each `train` call keeps its own tape and counts."""

    def test_threaded_runs_match_solo_runs(self):
        ds = toy_dataset(n_per_class=16)
        configs = [small_config(ablation="full"), small_config(ablation="c4_only")]
        solo = [train(ds, cfg) for cfg in configs]
        with ThreadPoolExecutor(max_workers=len(configs)) as pool:
            futures = [pool.submit(train, ds, cfg) for cfg in configs]
        for alone, future in zip(solo, futures):
            together = future.result()
            assert together.model.checksum() == alone.model.checksum()
            assert together.call_counts == alone.call_counts

    def test_trajectory_sink_leaves_report_unchanged(self):
        tests = {"holdout": toy_dataset(seed=3)}
        sink = []
        with_sink = train(toy_dataset(), small_config(), tests=tests, trajectory_sink=sink)
        without = train(toy_dataset(), small_config(), tests=tests)
        assert sink  # diagnostics were recorded
        assert with_sink.to_dict() == without.to_dict()

    @pytest.mark.parametrize(
        "ablation, lam",
        [(a, 0.75) for a in ABLATIONS] + [("c4_only", 0.0), ("full", 0.0)],
    )
    def test_call_counts_equal_real_calls(self, monkeypatch, ablation, lam):
        from centerpolar import expansion, losses, trainer

        calls = dict.fromkeys(("loss_c3e", "loss_dom", "loss_dis", "loss_c4", "expand_batch"), 0)

        def rows(value):  # an array or tensor of one row (k,) or of rows (n, k)
            return value.shape[0] if len(value.shape) == 2 else 1

        def counted(key, fn):
            # the per-row objectives count the rows they evaluate
            def wrapper(*args, **kwargs):
                calls[key] += rows(args[0]) if key in ("loss_c3e", "loss_dis") else 1
                return fn(*args, **kwargs)

            return wrapper

        for module, attr, key in (
            (expansion, "c3e_objective", "loss_c3e"),
            (losses, "loss_dom", "loss_dom"),
            (trainer, "loss_dom", "loss_dom"),
            (losses, "loss_dis", "loss_dis"),
            (trainer, "loss_c4", "loss_c4"),
            (trainer, "expand_batch", "expand_batch"),
        ):
            monkeypatch.setattr(module, attr, counted(key, getattr(module, attr)))
        cfg = small_config(ablation=ablation, loss=LossConfig(lam=lam))
        report = train(toy_dataset(), cfg)
        assert report.call_counts == calls
        assert calls["loss_dom"] > 0


class TestEquilibriumProbe:
    def _setup(self):
        ds = toy_dataset(n_per_class=4)
        model = EncoderModel.default(input_dim=2, embed_dim=4, hidden_dim=8, seed=0)
        E = model.embed_many(ds.features)
        centroids = compute_centroids(ds.labels, E)
        return model, ds.features, ds.labels.tolist(), centroids

    def test_lambda_zero_row(self):
        model, x, class_ids, centroids = self._setup()
        rows = c4_equilibrium_probe(model, x, class_ids, centroids, LossConfig(), [0.0])
        (row,) = rows
        assert row["grad_norm_centripetal_term"] == 0.0
        assert row["grad_norm_total"] == row["grad_norm_contrastive"]

    def test_centripetal_column_linear_in_lambda(self):
        model, x, class_ids, centroids = self._setup()
        rows = c4_equilibrium_probe(
            model, x, class_ids, centroids, LossConfig(), [0.25, 0.5, 1.0]
        )
        base = rows[0]["grad_norm_centripetal_term"]
        assert base > 0
        assert abs(rows[1]["grad_norm_centripetal_term"] - 2 * base) < 1e-12
        assert abs(rows[2]["grad_norm_centripetal_term"] - 4 * base) < 1e-12

    def test_total_obeys_triangle_bounds(self):
        # the centripetal column is unaveraged; the total mixes in 1/batch of it
        model, x, class_ids, centroids = self._setup()
        rows = c4_equilibrium_probe(
            model, x, class_ids, centroids, LossConfig(), [0.0, 0.25, 0.5, 0.75, 1.0]
        )
        for row in rows:
            a = row["grad_norm_contrastive"]
            b = row["grad_norm_centripetal_term"] / len(x)
            t = row["grad_norm_total"]
            assert t <= a + b + 1e-9
            assert t >= abs(a - b) - 1e-9

    def test_negative_lambda_rejected(self):
        model, x, class_ids, centroids = self._setup()
        with pytest.raises(ValueError, match="lambda"):
            c4_equilibrium_probe(model, x, class_ids, centroids, LossConfig(), [-0.1])

    @pytest.mark.parametrize(
        "lambdas",
        [[-0.1], [0.5, math.nan], [math.inf], [0.5, -math.inf], []],
        ids=["negative", "nan", "inf", "-inf", "empty"],
    )
    def test_bad_lambdas_rejected_before_any_gradient(self, monkeypatch, lambdas):
        import grad_oracle

        calls = []
        real = grad_oracle._param_grad

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(grad_oracle, "_param_grad", counted)
        model, x, class_ids, centroids = self._setup()
        with pytest.raises(ValueError, match="lambdas must be non-empty, finite and >= 0"):
            c4_equilibrium_probe(model, x, class_ids, centroids, LossConfig(), lambdas)
        assert calls == []
        c4_equilibrium_probe(model, x, class_ids, centroids, LossConfig(), [0.0, 0.5])
        assert len(calls) == 2  # one pass per term, whatever the number of lambdas


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        path = tmp_path / "ckpt.json"
        report = train(toy_dataset(), small_config())
        save_checkpoint(path, report.model, report.config, epoch=3)
        model, config, epoch = load_checkpoint(path)
        assert model.checksum() == report.model.checksum()
        assert config == report.config
        assert epoch == 3

    def test_reload_continues_identically(self, tmp_path):
        # embeddings from the reloaded model are bit-identical
        path = tmp_path / "ckpt.json"
        report = train(toy_dataset(), small_config())
        save_checkpoint(path, report.model, report.config, epoch=3)
        model, _config, _epoch = load_checkpoint(path)
        X = toy_dataset().features
        assert np.array_equal(model.embed_many(X), report.model.embed_many(X))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(path)

    @pytest.mark.parametrize("missing", ["config", "epoch", "seed", "layers"])
    def test_missing_field_named(self, tmp_path, missing):
        path = tmp_path / "ckpt.json"
        report = train(toy_dataset(), small_config(total_epochs=0))
        save_checkpoint(path, report.model, report.config, epoch=0)
        payload = json.loads(path.read_text())
        del payload[missing]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=missing):
            load_checkpoint(path)

    def test_parent_format_loads_bit_exact(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(PARENT_CHECKPOINT)
        model, config, epoch = load_checkpoint(path)
        assert config == TrainConfig(
            total_epochs=3,
            batch_size=8,
            seed=5,
            ablation="c4_only",
            embed_dim=2,
            hidden_dim=3,
            loss=LossConfig(lam=0.5),
            expansion=ExpansionConfig(iterations_te=2, step_size=0.05, expansion_epochs=(1,)),
        )
        assert epoch == 3
        assert model.checksum() == EncoderModel.default(2, 2, 3, seed=5).checksum()
        resaved = tmp_path / "resaved.json"
        save_checkpoint(resaved, model, config, epoch)
        assert resaved.read_text() == PARENT_CHECKPOINT

    @pytest.mark.parametrize("key", ["embed_dim", "hidden_dim"])
    def test_layer_sizes_must_match_config(self, tmp_path, key):
        path = tmp_path / "ckpt.json"
        report = train(toy_dataset(), small_config(total_epochs=0))
        config = dataclasses.replace(report.config, **{key: getattr(report.config, key) + 1})
        save_checkpoint(path, report.model, config, epoch=0)
        with pytest.raises(CheckpointError, match=f"config.{key}"):
            load_checkpoint(path)

    def test_invalid_config_wrapped(self, tmp_path):
        path = tmp_path / "ckpt.json"
        report = train(toy_dataset(), small_config(total_epochs=0))
        save_checkpoint(path, report.model, report.config, epoch=0)
        payload = json.loads(path.read_text())
        payload["config"]["batch_size"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="config"):
            load_checkpoint(path)
