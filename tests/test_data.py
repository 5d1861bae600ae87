"""Data layer: synthetic benchmark generation, domain transforms, CSV I/O."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from centerpolar.data import (
    BenchmarkSpec,
    CsvFormatError,
    DataSet,
    DomainTransform,
    GenerationError,
    generate_benchmark,
    load_csv,
    save_csv,
)
from centerpolar import data as data_module
from centerpolar import rng, schema
from centerpolar.experiments import default_benchmark_spec
from csv_oracle import oracle_write_csv
from schema_paths import object_paths


def small_spec(**overrides):
    kwargs = dict(
        n_classes_total=4,
        n_classes_seen=2,
        samples_per_class=5,
        input_dim=4,
        class_separation=2.0,
        intra_std=0.1,
        domain_transforms=(
            DomainTransform(name="near"),
            DomainTransform(name="rot", rotation_seed=11),
            DomainTransform(name="far", scale=1.5, rotation_seed=12, bias_seed=13, bias_std=0.5),
        ),
        seed=0,
    )
    kwargs.update(overrides)
    return BenchmarkSpec(**kwargs)


seeds = st.integers(0, 2**32 - 1)
domain_transforms = st.builds(
    DomainTransform,
    name=st.text(min_size=1, max_size=8).filter(lambda n: n not in ("source", "expanded")),
    scale=st.floats(min_value=1e-3, max_value=10.0),
    rotation_seed=st.none() | seeds,
    rotation_angles=st.none() | st.lists(st.floats(-7.0, 7.0), max_size=4).map(tuple),
    bias_seed=st.none() | seeds,
    bias_std=st.floats(min_value=0.0, max_value=5.0),
)


@st.composite
def benchmark_specs(draw):
    transforms = draw(st.lists(domain_transforms, max_size=3, unique_by=lambda t: t.name))
    seen = draw(st.integers(1, 10))
    input_dim = draw(st.integers(2, 32))
    signal_dim = draw(st.integers(0, input_dim))
    return BenchmarkSpec(
        n_classes_total=seen + draw(st.integers(1 if transforms else 0, 10)),
        n_classes_seen=seen,
        samples_per_class=draw(st.integers(2, 50)),
        input_dim=input_dim,
        class_separation=draw(st.floats(min_value=1e-3, max_value=10.0)),
        intra_std=draw(st.floats(min_value=0.0, max_value=5.0)),
        domain_transforms=tuple(transforms),
        seed=draw(seeds),
        signal_dim=signal_dim,
        nuisance_std=draw(st.floats(0.0, 5.0)) if signal_dim else 0.0,
    )


# a spec as the hand-written serializer read it: no subspace fields and
# no keys for a transform's unset optional fields
PARENT_SPEC = """{
  "n_classes_total": 4,
  "n_classes_seen": 2,
  "samples_per_class": 5,
  "input_dim": 4,
  "class_separation": 2.0,
  "intra_std": 0.1,
  "domain_transforms": [
    {"name": "angles", "scale": 1.0, "bias_std": 0.0, "rotation_angles": [0.3, 0.7]},
    {"name": "rot", "scale": 1.5, "bias_std": 0.2, "rotation_seed": 11, "bias_seed": 4}
  ],
  "seed": 0
}"""


def columns(**overrides):
    cols = dict(
        ids=[5, 2, 7],
        labels=[1, 0, 1],
        domains=["a", "a", "b"],
        features=np.arange(6.0).reshape(3, 2),
    )
    cols.update(overrides)
    return cols


class TestDataSet:
    def test_coerces_columns(self):
        ds = DataSet(**columns(features=[[1, 2], [3, 4], [5, 6]]))
        assert ds.ids.dtype == ds.labels.dtype == np.int64
        assert ds.features.dtype == np.float64 and ds.features.shape == (3, 2)
        assert ds.ids.tolist() == [5, 2, 7]  # row order preserved
        assert ds.labels.tolist() == [1, 0, 1]
        assert ds.domains.tolist() == ["a", "a", "b"]
        assert len(ds) == 3

    def test_columns_are_read_only_copies(self):
        X = np.zeros((3, 2))
        ds = DataSet(**columns(features=X))
        X[0, 0] = 1.0
        assert ds.features[0, 0] == 0.0
        for column in (ds.ids, ds.labels, ds.domains, ds.features):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]

    def test_empty(self):
        ds = DataSet([], [], [], np.zeros((0, 4)))
        assert len(ds) == 0 and ds.ids.dtype == np.int64 and ds.features.shape == (0, 4)

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(features=[[0, 1], [np.nan, 0], [0, 0]]), "sample 2: non-finite"),
            (dict(features=[[0, 1], [0, 0], [0, -np.inf]]), "sample 7: non-finite"),
            (dict(ids=[5, -2, 7]), "sample -2: ids and class ids must be >= 0"),
            (dict(labels=[1, 0, -1]), "sample 7: ids and class ids must be >= 0"),
            (dict(domains=["a", "", "b"]), "sample 2: empty domain tag"),
            (dict(ids=[5, 2, 5]), "duplicate sample id 5"),
            (dict(ids=[5, 1.5, 7]), "sample 1.5: ids and class ids must be 64-bit integers"),
            (dict(labels=[1, "0", 1]), "sample 2: ids and class ids must be 64-bit integers"),
            # bools mixed into integers still make an int64 array
            (dict(labels=[1, 0, True]), "sample 7: ids and class ids must be 64-bit integers"),
            (dict(ids=[5, True, 7]), "sample True: ids and class ids must be 64-bit integers"),
            (dict(ids=[5, 2, 2**63]), f"sample {2**63}: ids and class ids must be 64-bit"),
            # the first offending row wins over the order of the rules
            (dict(ids=[5, 2, 5], features=[[0, 1], [0, np.nan], [0, 0]]), "sample 2: non-finite"),
        ],
    )
    def test_rule_names_first_offending_sample(self, change, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            DataSet(**columns(**change))

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(labels=[1, 0]), "differ in length"),
            (dict(domains=["a"] * 4), "differ in length"),
            (dict(features=np.zeros(3)), "(n, d) matrix"),
            (dict(ids=[[5, 2, 7]]), "vectors"),
            (dict(domains=["a", None, "b"]), "domain tags must be strings"),
        ],
    )
    def test_rejects_malformed_columns(self, change, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            DataSet(**columns(**change))


class TestBenchmarkSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_classes_seen": 5},  # seen > total
            {"n_classes_seen": 0},
            {"n_classes_seen": 4},  # transforms but no unseen classes
            {"samples_per_class": 1},
            {"input_dim": 1},
            {"class_separation": 0.0},
            {"intra_std": -0.1},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            small_spec(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("key", ["class_separation", "intra_std", "nuisance_std"])
    def test_non_finite_floats_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key}: expected a finite number"):
            small_spec(**{key: value})

    def test_integer_fields_checked(self):
        with pytest.raises(ValueError, match="^n_classes_total: expected an integer"):
            small_spec(n_classes_total=4.0)
        spec = small_spec(input_dim=np.int64(4))
        assert type(spec.input_dim) is int

    def test_duplicate_transform_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            small_spec(
                domain_transforms=(
                    DomainTransform(name="same"),
                    DomainTransform(name="same", scale=2.0),
                )
            )

    def test_round_trip(self):
        spec = small_spec(
            domain_transforms=(
                DomainTransform(name="angles", rotation_angles=(0.3, 0.7)),
                DomainTransform(name="rot", rotation_seed=11, bias_seed=4, bias_std=0.2),
            )
        )
        assert BenchmarkSpec.from_dict(spec.to_dict()) == spec

    def test_from_json(self):
        spec = small_spec()
        assert BenchmarkSpec.from_json(json.dumps(spec.to_dict())) == spec

    def test_missing_field_named(self):
        d = small_spec().to_dict()
        del d["intra_std"]
        with pytest.raises(ValueError, match="intra_std"):
            BenchmarkSpec.from_dict(d)

    @given(spec=benchmark_specs())
    def test_json_round_trip_property(self, spec):
        assert BenchmarkSpec.from_json(json.dumps(spec.to_dict())) == spec

    @given(spec=benchmark_specs(), data=st.data())
    def test_unknown_key_at_any_depth_named(self, spec, data):
        d = spec.to_dict()
        path, obj = data.draw(st.sampled_from(object_paths(d)))
        obj["typo"] = 1
        dotted = f"{path}.typo" if path else "typo"
        with pytest.raises(ValueError, match=re.escape(dotted)):
            BenchmarkSpec.from_dict(d)

    def test_parent_format_loads(self):
        assert BenchmarkSpec.from_json(PARENT_SPEC) == small_spec(
            domain_transforms=(
                DomainTransform(name="angles", rotation_angles=(0.3, 0.7)),
                DomainTransform(
                    name="rot", scale=1.5, rotation_seed=11, bias_seed=4, bias_std=0.2
                ),
            )
        )

    def test_to_dict_lists_unset_transform_fields_as_null(self):
        entry = small_spec().to_dict()["domain_transforms"][0]
        assert entry == {
            "name": "near",
            "scale": 1.0,
            "rotation_seed": None,
            "rotation_angles": None,
            "bias_seed": None,
            "bias_std": 0.0,
        }

    @pytest.mark.parametrize(
        "change, key",
        [
            (lambda d: d.update(nuisance_sd=1.0), "nuisance_sd"),
            (lambda d: d["domain_transforms"][1].update(scael=2.0), "domain_transforms[1].scael"),
            (lambda d: d.update(samples_per_class=2.9), "samples_per_class"),
            (lambda d: d.update(input_dim="4"), "input_dim"),
            (lambda d: d.update(intra_std=None), "intra_std"),
            (lambda d: d.update(domain_transforms={}), "domain_transforms"),
            (lambda d: d["domain_transforms"].append(3), "domain_transforms[3]"),
            (lambda d: d["domain_transforms"][0].pop("name"), "domain_transforms[0].name"),
            (lambda d: d["domain_transforms"][2].update(bias_seed=1.0), "domain_transforms[2].bias_seed"),
            (
                lambda d: d["domain_transforms"][0].update(rotation_angles=[0.1, "x"]),
                "domain_transforms[0].rotation_angles[1]",
            ),
            (lambda d: d.update(nuisance_std=math.nan), "nuisance_std: expected a finite"),
            (
                lambda d: d["domain_transforms"][0].update(rotation_angles=[math.inf]),
                "domain_transforms[0].rotation_angles[0]: expected a finite",
            ),
        ],
    )
    def test_from_dict_rejects_bad_values_by_key(self, change, key):
        d = small_spec().to_dict()
        change(d)
        with pytest.raises(ValueError, match=re.escape(key)):
            BenchmarkSpec.from_dict(d)


def givens_product(angles, dim):
    """Oracle for `DomainTransform.rotation_matrix`: one full dim x dim Givens
    rotation per plane (0,1), (2,3), ..., multiplied onto the identity."""
    R = np.eye(dim)
    for i, angle in enumerate(angles):
        a, b = 2 * i, 2 * i + 1
        c, s = math.cos(angle), math.sin(angle)
        G = np.eye(dim)
        G[a, a] = c
        G[a, b] = -s
        G[b, a] = s
        G[b, b] = c
        R = G @ R
    return R


class TestDomainTransform:
    @pytest.mark.parametrize("name", ["source", "expanded"])
    def test_reserved_names_rejected(self, name):
        with pytest.raises(ValueError, match="reserved"):
            DomainTransform(name=name)

    def test_plane_rotation_values(self):
        t = DomainTransform(name="a", rotation_angles=(0.3,))
        R = t.rotation_matrix(4)
        out = R @ np.array([1.0, 0.0, 0.0, 0.0])
        assert abs(out[0] - math.cos(0.3)) < 1e-15
        assert abs(out[1] - math.sin(0.3)) < 1e-15
        assert out[2] == 0.0 and out[3] == 0.0

    @given(
        angles=st.lists(st.floats(-7.0, 7.0) | st.sampled_from([0.0, -0.0, math.pi]), max_size=6),
        extra=st.integers(0, 3),
    )
    def test_plane_rotation_is_the_givens_product(self, angles, extra):
        # same bytes as the plane rotations multiplied out, signed zeros included
        t = DomainTransform(name="a", rotation_angles=tuple(angles))
        dim = max(1, 2 * len(angles) + extra)
        assert t.rotation_matrix(dim).tobytes() == givens_product(angles, dim).tobytes()

    def test_reference_rotations_are_the_givens_product(self):
        for t in default_benchmark_spec().domain_transforms:
            expected = givens_product(t.rotation_angles, 16)
            assert t.rotation_matrix(16).tobytes() == expected.tobytes()

    def test_plane_rotation_needs_room(self):
        t = DomainTransform(name="a", rotation_angles=(0.1, 0.2, 0.3))
        with pytest.raises(ValueError, match="dimension >= 6"):
            t.rotation_matrix(4)

    def test_seeded_rotation_is_orthogonal_and_deterministic(self):
        t = DomainTransform(name="a", rotation_seed=5)
        R1 = t.rotation_matrix(6)
        R2 = t.rotation_matrix(6)
        assert np.array_equal(R1, R2)
        assert np.abs(R1 @ R1.T - np.eye(6)).max() < 1e-12

    def test_no_rotation_is_identity(self):
        t = DomainTransform(name="a")
        assert np.array_equal(t.rotation_matrix(3), np.eye(3))
        assert np.array_equal(t.bias_vector(3), np.zeros(3))

    def test_pairwise_distances_scale_exactly(self):
        # orthogonal R and constant bias preserve distances up to the scale
        gen = np.random.default_rng(0)
        X = gen.normal(size=(10, 6))
        t = DomainTransform(name="a", scale=2.5, rotation_seed=3, bias_seed=4, bias_std=1.0)
        Y = t.apply(X)
        for i in range(10):
            for j in range(i + 1, 10):
                dx = np.linalg.norm(X[i] - X[j])
                dy = np.linalg.norm(Y[i] - Y[j])
                assert abs(dy - 2.5 * dx) < 1e-9

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="scale"):
            DomainTransform(name="a", scale=0.0)

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(scale=math.inf), "scale: expected a finite number"),
            (dict(bias_std=math.nan), "bias_std: expected a finite number"),
            (dict(rotation_angles=(0.5, -math.inf)), "rotation_angles[1]: expected a finite number"),
            (dict(rotation_seed=1.5), "rotation_seed: expected an integer"),
        ],
        ids=["scale", "bias_std", "rotation_angles", "rotation_seed"],
    )
    def test_non_finite_floats_and_non_integers_rejected(self, change, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            DomainTransform(name="a", **change)

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(scale=True), "scale: expected a number, got boolean True"),
            (dict(bias_std="0.5"), "bias_std: expected a number, got string '0.5'"),
            (dict(rotation_angles=(0.5, True)), "rotation_angles[1]: expected a number"),
        ],
        ids=["scale", "bias_std", "rotation_angles"],
    )
    def test_float_fields_reject_booleans_and_non_numbers(self, change, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            DomainTransform(name="a", **change)

    def test_float_fields_are_written_as_floats(self):
        t = DomainTransform(name="a", scale=2, rotation_angles=(1, np.float64(0.5)))
        d = schema.to_dict(t)
        assert (d["scale"], d["rotation_angles"]) == (2.0, [1.0, 0.5])
        assert type(d["scale"]) is float and {type(a) for a in d["rotation_angles"]} == {float}

    def test_set_optional_fields_are_stored_as_given(self):
        t = DomainTransform(name="a", rotation_seed=np.int64(3), rotation_angles=[1, 0.5])
        assert type(t.rotation_seed) is int and t.rotation_angles == (1.0, 0.5)


class TestGenerateBenchmark:
    def test_regeneration_is_bitwise(self):
        t1, d1 = generate_benchmark(small_spec())
        t2, d2 = generate_benchmark(small_spec())
        assert np.array_equal(t1.features, t2.features)
        assert sorted(d1) == sorted(d2)
        for name in d1:
            assert np.array_equal(d1[name].features, d2[name].features)

    def test_seed_changes_data(self):
        t1, _ = generate_benchmark(small_spec(seed=0))
        t2, _ = generate_benchmark(small_spec(seed=1))
        assert not np.array_equal(t1.features, t2.features)

    def test_class_split_is_disjoint(self):
        train, tests = generate_benchmark(small_spec())
        assert np.unique(train.labels).tolist() == [0, 1]
        for ds in tests.values():
            assert np.unique(ds.labels).tolist() == [2, 3]

    def test_ids_sequential_and_disjoint(self):
        train, tests = generate_benchmark(small_spec())
        all_ids = train.ids.tolist()
        for name in ("near", "rot", "far"):  # insertion order of the transforms
            all_ids.extend(tests[name].ids.tolist())
        assert all_ids == list(range(len(all_ids)))

    def test_domain_tags(self):
        train, tests = generate_benchmark(small_spec())
        assert set(train.domains.tolist()) == {"source"}
        for name, ds in tests.items():
            assert set(ds.domains.tolist()) == {name}

    def test_counts(self):
        spec = small_spec()
        train, tests = generate_benchmark(spec)
        assert len(train) == 2 * 5
        for ds in tests.values():
            assert len(ds) == 2 * 5
            assert np.unique(ds.labels, return_counts=True)[1].tolist() == [5, 5]

    def test_zero_noise_puts_samples_on_prototypes(self):
        spec = small_spec(intra_std=0.0)
        train, tests = generate_benchmark(spec)
        X, labels = train.features, train.labels
        # all samples of a class coincide and sit on the separation shell
        for cid in np.unique(labels):
            rows = X[labels == cid]
            assert np.array_equal(rows, np.tile(rows[0], (len(rows), 1)))
            assert abs(np.linalg.norm(rows[0]) - spec.class_separation) < 1e-12
        # the identity domain leaves unseen prototypes untouched as well
        Xi = tests["near"].features
        for cid in np.unique(tests["near"].labels):
            rows = Xi[tests["near"].labels == cid]
            assert np.array_equal(rows, np.tile(rows[0], (len(rows), 1)))
            assert abs(np.linalg.norm(rows[0]) - spec.class_separation) < 1e-12

    def test_prototypes_respect_separation(self):
        spec = small_spec(intra_std=0.0)
        train, tests = generate_benchmark(spec)
        protos = {}
        for ds in (train, tests["near"]):
            protos.update(zip(ds.labels.tolist(), ds.features))
        keys = sorted(protos)
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                assert np.linalg.norm(protos[a] - protos[b]) >= spec.class_separation

    @pytest.mark.parametrize(
        "overrides",
        [{}, dict(signal_dim=2), dict(signal_dim=2, nuisance_std=1.5), dict(signal_dim=4, nuisance_std=1.5)],
    )
    def test_block_draws_equal_per_sample_draws(self, overrides):
        # reference: each sample draws its intra-class noise, then its
        # nuisance noise, from the split's stream, one sample at a time
        spec = small_spec(**overrides)
        protos = data_module._draw_prototypes(spec)
        nuisance = spec.input_dim - spec.signal_dim if spec.nuisance_std > 0 else 0

        def per_sample(classes, gen):
            rows = []
            for c in classes:
                x = protos[c] + spec.intra_std * gen.standard_normal(spec.input_dim)
                if nuisance:
                    x[spec.signal_dim :] += spec.nuisance_std * gen.standard_normal(nuisance)
                rows.append(x)
            return np.array(rows)

        train, tests = generate_benchmark(spec)
        seen = np.repeat([0, 1], spec.samples_per_class)
        gen = rng.stream(spec.seed, rng.STREAM_TRAIN_NOISE)
        assert np.array_equal(train.features, per_sample(seen, gen))
        for k, t in enumerate(spec.domain_transforms):
            gen = rng.stream(spec.seed, rng.STREAM_DOMAIN_BASE + k)
            expected = t.apply(per_sample(seen + 2, gen))
            assert np.array_equal(tests[t.name].features, expected)

    def test_infeasible_packing_raises(self):
        spec = small_spec(
            n_classes_total=50,
            n_classes_seen=25,
            input_dim=2,
            samples_per_class=2,
            domain_transforms=(),
        )
        with pytest.raises(GenerationError, match="50 prototypes"):
            generate_benchmark(spec)

    @pytest.mark.parametrize(
        "dim, bound", [(1, 2), (2, 6), (3, 12), (4, 24), (5, 44), (6, 78), (7, 134), (8, 240)]
    )
    def test_more_prototypes_than_kissing_number_fail_before_drawing(self, monkeypatch, dim, bound):
        # with no attempts left, only the up-front bound can name the cause
        monkeypatch.setattr(data_module, "_PROTOTYPE_ATTEMPTS", 0)
        n = bound + 1
        spec = small_spec(
            n_classes_total=n, n_classes_seen=1, input_dim=8, signal_dim=dim,
            samples_per_class=2, domain_transforms=(),
        )
        with pytest.raises(GenerationError, match="kissing number") as exc:
            generate_benchmark(spec)
        assert f"{n} prototypes" in str(exc.value) and f"dimension {dim}" in str(exc.value)

    @pytest.mark.parametrize("seed", [157, 252])
    def test_reference_spec_seeds_that_need_many_attempts(self, seed):
        # these seeds place the 8 reference prototypes only after 1000+ draws
        train, tests = generate_benchmark(default_benchmark_spec(seed, samples_per_class=2))
        assert np.unique(train.labels).tolist() == [0, 1, 2, 3]
        assert sorted(tests) == ["shift", "tilt_down", "tilt_up"]

    def test_no_transforms_means_no_tests(self):
        spec = small_spec(domain_transforms=(), n_classes_seen=4)
        train, tests = generate_benchmark(spec)
        assert tests == {}
        assert np.unique(train.labels).tolist() == [0, 1, 2, 3]


class TestSignalSubspace:
    def test_prototypes_confined_to_subspace(self):
        spec = small_spec(intra_std=0.0, signal_dim=2)
        train, tests = generate_benchmark(spec)
        for ds in [train, tests["near"]]:
            X = ds.features
            assert np.array_equal(X[:, 2:], np.zeros_like(X[:, 2:]))
            # shell radius still holds inside the subspace
            for row in X:
                assert abs(np.linalg.norm(row[:2]) - spec.class_separation) < 1e-12

    def test_nuisance_only_on_complement(self):
        spec = small_spec(
            intra_std=0.0, signal_dim=2, nuisance_std=2.0, samples_per_class=100
        )
        train, _ = generate_benchmark(spec)
        X, labels = train.features, train.labels
        for cid in np.unique(labels):
            rows = X[labels == cid]
            # signal coordinates stay exactly on the prototype
            assert np.array_equal(rows[:, :2], np.tile(rows[0, :2], (len(rows), 1)))
        spread = X[:, 2:].std()
        assert 1.0 < spread < 3.0

    def test_nuisance_is_class_independent(self):
        spec = small_spec(intra_std=0.0, signal_dim=2, nuisance_std=1.5)
        train, _ = generate_benchmark(spec)
        X = train.features
        assert not np.array_equal(X[0, 2:], X[1, 2:])

    def test_round_trip_keeps_subspace_fields(self):
        spec = small_spec(signal_dim=3, nuisance_std=0.7)
        assert BenchmarkSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_defaults_to_full_dim(self):
        d = small_spec().to_dict()
        del d["signal_dim"], d["nuisance_std"]
        spec = BenchmarkSpec.from_dict(d)
        assert spec.signal_dim == 0
        assert spec.nuisance_std == 0.0

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(signal_dim=-1), "signal_dim"),
            (dict(signal_dim=5), "signal_dim"),
            (dict(nuisance_std=-0.1), "nuisance_std"),
            (dict(nuisance_std=1.0), "signal subspace"),
        ],
    )
    def test_validation(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            small_spec(**overrides)

    def test_infeasible_subspace_packing_names_subspace_dim(self):
        spec_kwargs = dict(
            n_classes_total=50,
            n_classes_seen=25,
            samples_per_class=2,
            domain_transforms=(),
            signal_dim=2,
            input_dim=16,
        )
        with pytest.raises(GenerationError, match="dimension 2"):
            generate_benchmark(small_spec(**spec_kwargs))


class TestCsv:
    def test_round_trip_bitwise(self, tmp_path):
        train, tests = generate_benchmark(small_spec())
        for ds in [train, *tests.values()]:
            path = tmp_path / "data.csv"
            save_csv(ds, path)
            back = load_csv(path)
            assert np.array_equal(back.features, ds.features)
            assert np.array_equal(back.ids, ds.ids)
            assert np.array_equal(back.labels, ds.labels)
            assert np.array_equal(back.domains, ds.domains)

    @pytest.mark.parametrize("tag", ["a,b", 'say "hi"', "two\nlines", "plain"])
    def test_bytes_match_the_csv_writer_oracle(self, tmp_path, tag):
        # quoting of each tag and the extremes of float64 formatting
        features = np.array(
            [[-0.0, 5e-324, 1.7976931348623157e308], [0.1, -2.5e-310, -1.7976931348623157e308]]
        )
        ds = DataSet([7, 3], [0, 12], [tag, "other"], features)
        path, oracle = tmp_path / "fast.csv", tmp_path / "oracle.csv"
        save_csv(ds, path)
        oracle_write_csv(
            oracle, ["id", "label", "domain", "f0", "f1", "f2"], ds.ids, ds.labels, ds.domains,
            ds.features,
        )
        assert path.read_bytes() == oracle.read_bytes()
        back = load_csv(path)
        assert back.domains.tolist() == [tag, "other"]
        assert back.features.tobytes() == features.tobytes()  # -0.0 keeps its sign
        assert np.array_equal(back.ids, ds.ids) and np.array_equal(back.labels, ds.labels)

    def test_empty_dataset_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_csv(DataSet([], [], [], np.zeros((0, 4))), path)
        assert path.read_text() == "id,label,domain\n"
        assert len(load_csv(path)) == 0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="line 1"):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,class,domain,f0\n0,0,a,1.0\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            load_csv(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,domain,f0,f1\n0,0,a,1.0,2.0\n1,1,a,3.0\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            load_csv(path)

    def test_non_integer_id_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,domain,f0\nx,0,a,1.0\n")
        with pytest.raises(CsvFormatError, match="line 2.*integer"):
            load_csv(path)

    def test_unparseable_feature_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,domain,f0\n0,0,a,oops\n")
        with pytest.raises(CsvFormatError, match="line 2.*feature"):
            load_csv(path)

    def test_nan_feature_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,domain,f0\n0,0,a,nan\n")
        with pytest.raises(CsvFormatError, match="line 2.*non-finite"):
            load_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,1,a,2.0", "duplicate sample id 0"),
            ("-1,1,a,2.0", "sample -1: ids and class ids must be >= 0"),
            ("1,-1,a,2.0", "sample 1: ids and class ids must be >= 0"),
            ("1,1,,2.0", "sample 1: empty domain tag"),
        ],
    )
    def test_rule_violation_names_line(self, tmp_path, row, message):
        # the blank line counts: errors name physical lines
        path = tmp_path / "bad.csv"
        path.write_text(f"id,label,domain,f0\n0,0,a,1.0\n\n{row}\n2,0,a,3.0\n")
        with pytest.raises(CsvFormatError, match=re.escape(f"line 4: {message}")):
            load_csv(path)

    def test_feature_header_names_not_enforced(self, tmp_path):
        # embedding exports reuse the schema with e0,e1,... columns
        path = tmp_path / "emb.csv"
        path.write_text("id,label,domain,e0,e1\n0,0,a,1.0,2.0\n")
        ds = load_csv(path)
        assert np.array_equal(ds.features, [[1.0, 2.0]])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("id,label,domain,f0\n0,0,a,1.0\n\n1,0,a,2.0\n")
        assert len(load_csv(path)) == 2
