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
    LabeledSample,
    generate_benchmark,
    load_csv,
    save_csv,
)
from centerpolar import data as data_module
from centerpolar.experiments import default_benchmark_spec
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


class TestLabeledSample:
    def test_coerces_to_float64(self):
        s = LabeledSample(id=0, features=[1, 2, 3], class_id=0, domain_tag="source")
        assert s.features.dtype == np.float64

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"features": np.array([[1.0]])},
            {"features": np.array([np.nan])},
            {"features": np.array([np.inf])},
            {"id": -1},
            {"class_id": -2},
            {"domain_tag": ""},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = dict(id=0, features=np.zeros(2), class_id=0, domain_tag="source")
        base.update(kwargs)
        with pytest.raises(ValueError):
            LabeledSample(**base)


class TestDataSet:
    def test_duplicate_ids_rejected(self):
        ds = DataSet()
        ds.add(LabeledSample(id=3, features=np.zeros(2), class_id=0, domain_tag="a"))
        with pytest.raises(ValueError, match="duplicate sample id 3"):
            ds.add(LabeledSample(id=3, features=np.ones(2), class_id=1, domain_tag="a"))

    def test_accessors(self):
        ds = DataSet(
            [
                LabeledSample(id=5, features=np.array([1.0, 2.0]), class_id=1, domain_tag="a"),
                LabeledSample(id=2, features=np.array([3.0, 4.0]), class_id=0, domain_tag="a"),
            ]
        )
        assert list(ds.ids()) == [5, 2]  # insertion order preserved
        assert list(ds.labels()) == [1, 0]
        assert ds.classes() == [0, 1]
        assert ds.class_counts() == {0: 1, 1: 1}
        assert ds.features_matrix().shape == (2, 2)


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
        ],
    )
    def test_from_dict_rejects_bad_values_by_key(self, change, key):
        d = small_spec().to_dict()
        change(d)
        with pytest.raises(ValueError, match=re.escape(key)):
            BenchmarkSpec.from_dict(d)


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


class TestGenerateBenchmark:
    def test_regeneration_is_bitwise(self):
        t1, d1 = generate_benchmark(small_spec())
        t2, d2 = generate_benchmark(small_spec())
        assert np.array_equal(t1.features_matrix(), t2.features_matrix())
        assert sorted(d1) == sorted(d2)
        for name in d1:
            assert np.array_equal(d1[name].features_matrix(), d2[name].features_matrix())

    def test_seed_changes_data(self):
        t1, _ = generate_benchmark(small_spec(seed=0))
        t2, _ = generate_benchmark(small_spec(seed=1))
        assert not np.array_equal(t1.features_matrix(), t2.features_matrix())

    def test_class_split_is_disjoint(self):
        train, tests = generate_benchmark(small_spec())
        assert train.classes() == [0, 1]
        for ds in tests.values():
            assert ds.classes() == [2, 3]

    def test_ids_sequential_and_disjoint(self):
        train, tests = generate_benchmark(small_spec())
        all_ids = list(train.ids())
        for name in ("near", "rot", "far"):  # insertion order of the transforms
            all_ids.extend(tests[name].ids())
        assert all_ids == list(range(len(all_ids)))

    def test_domain_tags(self):
        train, tests = generate_benchmark(small_spec())
        assert {s.domain_tag for s in train} == {"source"}
        for name, ds in tests.items():
            assert {s.domain_tag for s in ds} == {name}

    def test_counts(self):
        spec = small_spec()
        train, tests = generate_benchmark(spec)
        assert len(train) == 2 * 5
        for ds in tests.values():
            assert len(ds) == 2 * 5
            assert set(ds.class_counts().values()) == {5}

    def test_zero_noise_puts_samples_on_prototypes(self):
        spec = small_spec(intra_std=0.0)
        train, tests = generate_benchmark(spec)
        X = train.features_matrix()
        labels = train.labels()
        # all samples of a class coincide and sit on the separation shell
        for cid in train.classes():
            rows = X[labels == cid]
            assert np.array_equal(rows, np.tile(rows[0], (len(rows), 1)))
            assert abs(np.linalg.norm(rows[0]) - spec.class_separation) < 1e-12
        # the identity domain leaves unseen prototypes untouched as well
        Xi = tests["near"].features_matrix()
        for cid in tests["near"].classes():
            rows = Xi[tests["near"].labels() == cid]
            assert np.array_equal(rows, np.tile(rows[0], (len(rows), 1)))
            assert abs(np.linalg.norm(rows[0]) - spec.class_separation) < 1e-12

    def test_prototypes_respect_separation(self):
        spec = small_spec(intra_std=0.0)
        train, tests = generate_benchmark(spec)
        protos = {}
        for s in train:
            protos[s.class_id] = s.features
        for s in tests["near"]:
            protos[s.class_id] = s.features
        keys = sorted(protos)
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                assert np.linalg.norm(protos[a] - protos[b]) >= spec.class_separation

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
        assert train.classes() == [0, 1, 2, 3]
        assert sorted(tests) == ["shift", "tilt_down", "tilt_up"]

    def test_no_transforms_means_no_tests(self):
        spec = small_spec(domain_transforms=(), n_classes_seen=4)
        train, tests = generate_benchmark(spec)
        assert tests == {}
        assert train.classes() == [0, 1, 2, 3]


class TestSignalSubspace:
    def test_prototypes_confined_to_subspace(self):
        spec = small_spec(intra_std=0.0, signal_dim=2)
        train, tests = generate_benchmark(spec)
        for ds in [train, tests["near"]]:
            X = ds.features_matrix()
            assert np.array_equal(X[:, 2:], np.zeros_like(X[:, 2:]))
            # shell radius still holds inside the subspace
            for row in X:
                assert abs(np.linalg.norm(row[:2]) - spec.class_separation) < 1e-12

    def test_nuisance_only_on_complement(self):
        spec = small_spec(
            intra_std=0.0, signal_dim=2, nuisance_std=2.0, samples_per_class=100
        )
        train, _ = generate_benchmark(spec)
        X = train.features_matrix()
        labels = train.labels()
        for cid in train.classes():
            rows = X[labels == cid]
            # signal coordinates stay exactly on the prototype
            assert np.array_equal(rows[:, :2], np.tile(rows[0, :2], (len(rows), 1)))
        spread = X[:, 2:].std()
        assert 1.0 < spread < 3.0

    def test_nuisance_is_class_independent(self):
        spec = small_spec(intra_std=0.0, signal_dim=2, nuisance_std=1.5)
        train, _ = generate_benchmark(spec)
        X = train.features_matrix()
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
            assert np.array_equal(back.features_matrix(), ds.features_matrix())
            assert np.array_equal(back.ids(), ds.ids())
            assert np.array_equal(back.labels(), ds.labels())
            assert [s.domain_tag for s in back] == [s.domain_tag for s in ds]

    def test_empty_dataset_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_csv(DataSet(), path)
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

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,domain,f0\n0,0,a,1.0\n0,1,a,2.0\n")
        with pytest.raises(CsvFormatError, match="line 3.*duplicate"):
            load_csv(path)

    def test_feature_header_names_not_enforced(self, tmp_path):
        # embedding exports reuse the schema with e0,e1,... columns
        path = tmp_path / "emb.csv"
        path.write_text("id,label,domain,e0,e1\n0,0,a,1.0,2.0\n")
        ds = load_csv(path)
        assert np.array_equal(ds.features_matrix(), [[1.0, 2.0]])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("id,label,domain,f0\n0,0,a,1.0\n\n1,0,a,2.0\n")
        assert len(load_csv(path)) == 2
