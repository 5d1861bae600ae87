"""Release acceptance suite.

Each test enforces one release criterion end to end at its stated tolerance
and prints one `ACCEPTANCE criterion N: PASS/FAIL` line (run with -s to see
them live).  Budgets are wall-clock asserted, so keep this file running on an
unloaded core.
"""

import itertools
import json
import time
from fractions import Fraction

import numpy as np

from centerpolar.cli import main
from centerpolar.data import DataSet
from centerpolar.encoder import EncoderModel, Layer
from centerpolar.evaluation import evaluate, map_at_r, r_precision, recall_at_k
from centerpolar.expansion import ExpansionConfig, expand_batch
from centerpolar.experiments import (
    benchmark_train_config,
    default_benchmark_spec,
    run_ablation_grid,
    run_lambda_sweep,
)
from centerpolar.geometry import compute_centroids, geodesic_distance
from centerpolar.losses import (
    LossConfig,
    c3e_objective,
    c3e_reference,
    loss_c4,
    loss_dis,
    loss_dom,
)
from centerpolar.tensor import Tensor, backward, record
from centerpolar.trainer import TrainConfig, train

from grad_oracle import c4_equilibrium_probe, grad_check
from metric_oracle import (
    oracle_map_at_r,
    oracle_r_precision,
    oracle_recall_at_k,
    relevance_rows,
)
from scalar_oracle import loss_geo, loss_sem_high, loss_sem_low


def _report(criterion: int, body) -> None:
    try:
        body()
    except BaseException:
        print(f"\nACCEPTANCE criterion {criterion}: FAIL")
        raise
    print(f"\nACCEPTANCE criterion {criterion}: PASS")


# -- criterion 1: gradient correctness ----------------------------------------

_KINK_BAND = 1e-3  # rejection band around hinge arguments and |cos| = 1
_N_INSTANCES = 50


def _unit_cos(u, v):
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def _away_from_cos_band(u, v):
    return abs(_unit_cos(u, v)) <= 1.0 - _KINK_BAND


def _sample_until(gen, make, valid, needed=_N_INSTANCES, attempts=20000):
    out = []
    for _ in range(attempts):
        inst = make(gen)
        if valid(inst):
            out.append(inst)
            if len(out) == needed:
                return out
    raise AssertionError(f"rejection sampling starved: {len(out)}/{needed}")


def _check_wrt_params(f, model, bound=1e-4):
    for p in model.parameters():
        assert grad_check(f, p) < bound


def test_criterion_1_gradient_correctness():
    def body():
        t0 = time.perf_counter()

        # loss_geo w.r.t. the perturbed embedding
        def mk_geo(gen):
            dim = int(gen.integers(2, 17))
            return gen.normal(size=dim), gen.normal(size=dim)

        for mu, e in _sample_until(
            np.random.default_rng(101),
            mk_geo,
            lambda inst: _away_from_cos_band(*inst),
        ):
            assert grad_check(lambda t, mu=mu: loss_geo(t, Tensor(mu)), Tensor(e)) < 1e-4

        # loss_sem_low w.r.t. the perturbed input (smooth everywhere)
        gen = np.random.default_rng(102)
        for _ in range(_N_INSTANCES):
            dim = int(gen.integers(1, 17))
            x = gen.normal(size=dim)
            xt = gen.normal(size=dim)
            assert grad_check(lambda t, x=x: loss_sem_low(x, t), Tensor(xt)) < 1e-4

        # loss_sem_high w.r.t. the perturbed embedding, active and inactive
        def mk_sem_high(gen):
            dim = int(gen.integers(2, 17))
            return (
                gen.normal(size=dim),  # centroid
                gen.normal(size=dim),  # original embedding
                gen.normal(size=dim),  # perturbed embedding
                float(gen.uniform(0.1, 1.0)),
            )

        def sem_high_ok(inst):
            mu, e0, et, m = inst
            d_t = np.linalg.norm(mu - et)
            d_0 = np.linalg.norm(mu - e0)
            arg = d_t - d_0 + m
            return d_t > _KINK_BAND and d_0 > _KINK_BAND and abs(arg) > _KINK_BAND

        for mu, e0, et, m in _sample_until(
            np.random.default_rng(103), mk_sem_high, sem_high_ok
        ):
            assert (
                grad_check(
                    lambda t, mu=mu, e0=e0, m=m: loss_sem_high(
                        Tensor(e0), t, Tensor(mu), m
                    ),
                    Tensor(et),
                )
                < 1e-4
            )

        # c3e_objective w.r.t. the perturbed input through a small frozen encoder
        def mk_c3e(gen):
            in_dim = int(gen.integers(2, 9))
            out_dim = int(gen.integers(2, 9))
            seed = int(gen.integers(0, 2**31))
            model = EncoderModel.build([in_dim, out_dim], ["tanh"], seed=seed)
            x = gen.normal(size=in_dim)
            xt = gen.normal(size=in_dim)
            mu = gen.normal(size=out_dim)
            return model, x, xt, mu

        def c3e_ok(inst):
            model, x, xt, mu = inst
            et = model.embed_many(xt[None, :])[0]
            e0 = model.embed_many(x[None, :])[0]
            if min(np.linalg.norm(et), np.linalg.norm(e0), np.linalg.norm(mu)) < _KINK_BAND:
                return False
            if not _away_from_cos_band(mu, et):
                return False
            arg = np.linalg.norm(mu - et) - np.linalg.norm(mu - e0) + 1.0
            return (
                abs(arg) > _KINK_BAND
                and np.linalg.norm(mu - et) > _KINK_BAND
                and np.linalg.norm(mu - e0) > _KINK_BAND
            )

        lconf = LossConfig()
        for model, x, xt, mu in _sample_until(
            np.random.default_rng(104), mk_c3e, c3e_ok
        ):
            assert (
                grad_check(
                    lambda t, model=model, x=x, mu=mu: c3e_objective(
                        x, t, mu, c3e_reference(x, mu, model), model, lconf.margin_m
                    ),
                    Tensor(xt),
                )
                < 1e-4
            )

        # parameter-space losses share a sampler: small encoder + labeled batch
        def mk_batch(gen):
            in_dim = int(gen.integers(2, 7))
            out_dim = int(gen.integers(2, 7))
            seed = int(gen.integers(0, 2**31))
            model = EncoderModel.build(
                [in_dim, 6, out_dim], ["tanh", "identity"], seed=seed
            )
            X = gen.normal(size=(4, in_dim))
            labels = [0, 0, 1, 1]
            return model, X, labels

        def batch_ok(inst, need_cos=False):
            model, X, labels = inst
            E = model.embed_many(X)
            if np.linalg.norm(E, axis=1).min() < _KINK_BAND:
                return False
            for i in range(len(E)):
                for j in range(i + 1, len(E)):
                    d = np.linalg.norm(E[i] - E[j])
                    if d < _KINK_BAND:
                        return False
                    arg = d - 0.0 if labels[i] == labels[j] else 1.0 - d
                    if abs(arg) < _KINK_BAND:
                        return False
            if need_cos:
                table = _batch_centroids(model, X, labels)
                for i, e in enumerate(E):
                    if not _away_from_cos_band(table.vectors([labels[i]])[0], e):
                        return False
            return True

        def _batch_centroids(model, X, labels):
            E = model.embed_many(X)
            return compute_centroids(labels, E)

        # loss_dom w.r.t. encoder parameters
        for model, X, labels in _sample_until(
            np.random.default_rng(105), mk_batch, batch_ok
        ):
            def f_dom(_t, model=model, X=X, labels=labels):
                return loss_dom(model.forward(Tensor(X)), labels, lconf)

            _check_wrt_params(f_dom, model)

        # loss_dis w.r.t. encoder parameters
        def dis_ok(inst):
            model, X, labels = inst
            E = model.embed_many(X)
            if np.linalg.norm(E, axis=1).min() < _KINK_BAND:
                return False
            table = _batch_centroids(model, X, labels)
            return all(
                _away_from_cos_band(table.vectors([y])[0], e) for e, y in zip(E, labels)
            )

        for model, X, labels in _sample_until(
            np.random.default_rng(106), mk_batch, dis_ok
        ):
            mu = _batch_centroids(model, X, labels).vectors([labels[0]])[0]

            def f_dis(_t, model=model, x=X[0], mu=mu):
                return loss_dis(model.forward(Tensor(x)), Tensor(mu))

            _check_wrt_params(f_dis, model)

        # loss_c4 w.r.t. encoder parameters
        for model, X, labels in _sample_until(
            np.random.default_rng(107),
            mk_batch,
            lambda inst: batch_ok(inst, need_cos=True),
        ):
            table = _batch_centroids(model, X, labels)

            def f_c4(_t, model=model, X=X, labels=labels, table=table):
                return loss_c4(X, labels, model, table, lconf)

            _check_wrt_params(f_c4, model)

        assert time.perf_counter() - t0 < 60.0

    _report(1, body)


# -- criterion 2: geometry exactness ------------------------------------------


def test_criterion_2_geometry_exactness():
    def body():
        t0 = time.perf_counter()
        gen = np.random.default_rng(201)
        for _ in range(200):
            dim = int(gen.integers(2, 17))
            v = gen.normal(size=dim)
            while np.linalg.norm(v) < 1e-6:
                v = gen.normal(size=dim)
            w = gen.normal(size=dim)
            w -= (np.dot(w, v) / np.dot(v, v)) * v  # orthogonalize
            if np.linalg.norm(w) < 1e-6:
                continue
            a, b = float(gen.uniform(0.1, 5.0)), float(gen.uniform(0.1, 5.0))
            assert abs(geodesic_distance(Tensor(v), Tensor(a * v)).item() - 0.0) < 1e-9
            assert abs(geodesic_distance(Tensor(v), Tensor(b * w)).item() - 0.5) < 1e-9
            assert abs(geodesic_distance(Tensor(v), Tensor(-a * v)).item() - 1.0) < 1e-9

        for _ in range(1000):
            dim = int(gen.integers(2, 17))
            u, v = gen.normal(size=dim), gen.normal(size=dim)
            if min(np.linalg.norm(u), np.linalg.norm(v)) < 1e-6:
                continue
            duv = geodesic_distance(Tensor(u), Tensor(v)).item()
            dvu = geodesic_distance(Tensor(v), Tensor(u)).item()
            assert abs(duv - dvu) < 1e-12
            a, b = float(gen.uniform(0.1, 10.0)), float(gen.uniform(0.1, 10.0))
            scaled = geodesic_distance(Tensor(a * u), Tensor(b * v)).item()
            assert abs(duv - scaled) < 1e-12

        for _ in range(1000):
            dim = int(gen.integers(2, 17))
            u, v, w = (gen.normal(size=dim) for _ in range(3))
            if min(np.linalg.norm(u), np.linalg.norm(v), np.linalg.norm(w)) < 1e-6:
                continue
            duw = geodesic_distance(Tensor(u), Tensor(w)).item()
            duv = geodesic_distance(Tensor(u), Tensor(v)).item()
            dvw = geodesic_distance(Tensor(v), Tensor(w)).item()
            assert duw <= duv + dvw + 1e-9

        assert time.perf_counter() - t0 < 5.0

    _report(2, body)


# -- criterion 3: bounded expansion -------------------------------------------


def test_criterion_3_bounded_expansion():
    def body():
        t0 = time.perf_counter()

        # (a) the drift hinge has an exactly zero gradient while inactive
        gen = np.random.default_rng(301)
        checked = 0
        while checked < 100:
            dim = int(gen.integers(2, 17))
            mu = gen.normal(size=dim)
            e0 = gen.normal(size=dim)
            margin = float(gen.uniform(0.1, 1.0))
            # place the perturbed embedding well inside the hinge's dead zone
            direction = gen.normal(size=dim)
            direction /= np.linalg.norm(direction)
            d0 = np.linalg.norm(mu - e0)
            radius = max(d0 - margin - float(gen.uniform(0.05, 0.5)), 0.0)
            if radius <= 1e-3:
                continue
            et = mu + radius * direction
            arg = np.linalg.norm(mu - et) - d0 + margin
            if arg > -1e-6:
                continue
            with record():
                t = Tensor(et, requires_grad=True)
                val = loss_sem_high(Tensor(e0), t, Tensor(mu), margin)
                backward(val)
            assert val.item() == 0.0
            assert np.array_equal(t.grad, np.zeros(dim))
            checked += 1

        # (b) expansion trajectories never outrun the margin by more than 10%
        lconf = LossConfig()  # margin_m = 1.0
        econf = ExpansionConfig(iterations_te=200, step_size=1e-2)
        worst = 0.0
        for seed in range(20):
            model = EncoderModel.build([8, 8], ["identity"], seed=seed)
            gen = np.random.default_rng(1000 + seed)
            anchors = gen.normal(size=(5, 8))
            table = compute_centroids(np.zeros(len(anchors), dtype=np.int64), anchors)
            x0 = gen.normal(size=8)
            rows = []
            expand_batch(([0], [x0], [0]), model, table, econf, lconf, trajectory_sink=rows)
            d0 = rows[0][3]
            growth = max(r[3] for r in rows) - d0
            worst = max(worst, growth)
        assert worst <= 1.1 * lconf.margin_m

        assert time.perf_counter() - t0 < 30.0

    _report(3, body)


# -- criterion 4: controlled constraint equilibrium ---------------------------

# first epoch at which the toy run's loss delta drops below 1e-5, past a
# burn-in of 250 epochs; derived once from the seeded scan and frozen
_C4_CONVERGENCE_EPOCH = {0: 391, 1: 394, 2: 366, 3: 287, 4: 258}


def _c4_toy(seed: int, n: int = 8) -> DataSet:
    gen = np.random.default_rng(seed)
    centers = [(-1.0, 0.0)] * n + [(1.0, 0.0)] * n
    return DataSet(
        ids=np.arange(2 * n),
        labels=np.repeat([0, 1], n),
        domains=["source"] * (2 * n),
        features=[np.array(c) + 0.25 * gen.normal(size=2) for c in centers],
    )


def test_criterion_4_equilibrium():
    def body():
        t0 = time.perf_counter()
        lconf = LossConfig()
        for seed, epochs in _C4_CONVERGENCE_EPOCH.items():
            ds = _c4_toy(seed)
            config = TrainConfig(
                total_epochs=epochs,
                batch_size=16,
                lr_theta=1e-3,
                seed=seed,
                ablation="full",
                embed_dim=4,
                hidden_dim=8,
                loss=lconf,
                expansion=ExpansionConfig(
                    iterations_te=10, step_size=0.05, expansion_epochs=(1,)
                ),
            )
            report = train(ds, config)
            delta = abs(report.epoch_losses[-1] - report.epoch_losses[-2])
            assert delta < 1e-5, f"seed {seed} not converged: delta {delta:.2e}"
            model = report.model
            E = model.embed_many(ds.features)
            table = compute_centroids(ds.labels, E)
            (row,) = c4_equilibrium_probe(
                model, ds.features, ds.labels.tolist(), table, lconf, [lconf.lam]
            )
            denom = max(
                row["grad_norm_contrastive"], row["grad_norm_centripetal_term"]
            )
            assert denom > 0
            ratio = row["grad_norm_total"] / denom
            assert ratio < 0.2, f"seed {seed} ratio {ratio:.4f}"
        assert time.perf_counter() - t0 < 120.0

    _report(4, body)


# -- criterion 5: metric oracle equivalence -----------------------------------


def test_criterion_5_metric_oracle():
    def body():
        t0 = time.perf_counter()

        # exhaustive: every relevance configuration of every gallery size <= 8,
        # as the one-row relevance matrices the metrics read, bit for bit
        for n in range(1, 9):
            for bits in itertools.product((False, True), repeat=n):
                rel = list(bits)
                relevant, within, R = relevance_rows(rel)
                for k in range(1, n + 1):
                    assert recall_at_k(relevant, k)[0] == oracle_recall_at_k(rel, k)
                if R[0] == 0:
                    continue
                assert r_precision(within, R)[0] == oracle_r_precision(rel)
                assert map_at_r(within, R)[0] == oracle_map_at_r(rel)

        # committed ten-sample hand table on the identity encoder
        positions = [0.0, 1.0, 2.0, 3.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0]
        labels = [0] * 5 + [1] * 5
        ds = DataSet(range(10), labels, ["hand"] * 10, np.reshape(positions, (10, 1)))
        model = EncoderModel(
            [
                Layer(
                    weight=Tensor(np.eye(1), requires_grad=True),
                    bias=Tensor(np.zeros(1), requires_grad=True),
                    activation="identity",
                )
            ]
        )
        rep = evaluate(model, {"hand": ds})
        dom = rep.domains["hand"]
        assert dom.recall_at[1] == 0.8
        assert dom.recall_at[2] == 0.9
        assert dom.r_precision == float(Fraction(17, 20))
        assert abs(dom.map_at_r - float(Fraction(49, 60))) < 1e-15

        # closed-form checks over random rankings
        gen = np.random.default_rng(501)
        for _ in range(10_000):
            n = int(gen.integers(1, 12))
            ranked = gen.integers(0, 2, size=n).tolist()
            relevant, within, R = relevance_rows(ranked)
            prev = 0.0
            for k in range(1, n + 1):
                r = recall_at_k(relevant, k)[0]
                assert r >= prev
                prev = r
            if R[0]:
                assert map_at_r(within, R)[0] <= r_precision(within, R)[0] + 1e-12

        assert time.perf_counter() - t0 < 30.0

    _report(5, body)


# -- criterion 6: ablation direction ------------------------------------------


def test_criterion_6_ablation_direction():
    def body():
        t0 = time.perf_counter()
        results = run_ablation_grid(range(5))
        means = {a: sum(v) / len(v) for a, v in results.items()}
        print("\nablation means:", {a: round(m, 4) for a, m in means.items()})
        assert means["full"] >= means["baseline"] + 0.01
        assert means["full"] >= means["c4_only"] - 0.005
        assert means["full"] >= means["c3e_only"] - 0.005
        assert time.perf_counter() - t0 < 300.0

    _report(6, body)


# -- criterion 7: determinism of the train command -----------------------------


def test_criterion_7_cli_determinism(tmp_path):
    def body():
        spec = default_benchmark_spec(seed=0, samples_per_class=8).to_dict()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(data_dir)]) == 0

        config = benchmark_train_config(seed=0, ablation="full", total_epochs=3)
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps(config.to_dict()))

        outs = []
        for name in ("run_a", "run_b"):
            out_dir = tmp_path / name
            assert (
                main(
                    [
                        "train",
                        "--data",
                        str(data_dir),
                        "--config",
                        str(config_path),
                        "--out",
                        str(out_dir),
                    ]
                )
                == 0
            )
            outs.append(out_dir)
        for artifact in ("report.json", "checkpoint.json"):
            a = (outs[0] / artifact).read_bytes()
            b = (outs[1] / artifact).read_bytes()
            assert a == b, f"{artifact} differs between identical runs"

    _report(7, lambda: body())


# -- criterion 8: lambda sweep shape -------------------------------------------


def test_criterion_8_lambda_sweep_shape():
    def body():
        curve = run_lambda_sweep(range(5))
        lambdas = sorted(curve)
        print("\nlambda curve:")
        for lam in lambdas:
            scores = curve[lam]
            print(
                f"  lambda={lam:<5g} mean={sum(scores) / len(scores):.4f}  "
                + " ".join(f"{s:.4f}" for s in scores)
            )
        interior = 0
        zero_unique_max = 0
        n_seeds = len(curve[lambdas[0]])
        for i in range(n_seeds):
            per_seed = [curve[lam][i] for lam in lambdas]
            best = max(range(len(lambdas)), key=lambda j: per_seed[j])
            if 0 < best < len(lambdas) - 1:
                interior += 1
            if best == 0 and per_seed[0] > max(per_seed[1:]):
                zero_unique_max += 1
        print(f"  interior-max seeds: {interior}/{n_seeds}")
        if interior < 3:
            print("  SOFT CHECK: fewer than 3 interior-max seeds; curve above")
        # hard failure only in the degenerate case: lambda 0 wins everywhere
        assert zero_unique_max < n_seeds

    _report(8, body)
