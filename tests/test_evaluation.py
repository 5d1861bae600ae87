"""Retrieval metrics against hand values, the pure-python oracle and the
full-sort reference ranking."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from centerpolar import data, evaluation, experiments, trainer
from centerpolar.data import DataSet
from centerpolar.encoder import EncoderModel, Layer
from centerpolar.evaluation import (
    _BLOCK_ENTRIES,
    _distances,
    _euclidean_slack,
    _first_columns,
    evaluate,
    map_at_r,
    r_precision,
    recall_at_k,
)
from centerpolar.geometry import DegenerateVectorError
from centerpolar.tensor import ShapeError, Tensor

from metric_oracle import (
    oracle_distance,
    oracle_leave_one_out,
    oracle_map_at_r,
    oracle_map_at_r_exact,
    oracle_r_precision,
    oracle_r_precision_exact,
    oracle_rank,
    oracle_recall_at_k,
    reference_evaluate_domain,
)


def identity_model(dim):
    return EncoderModel(
        [
            Layer(
                weight=Tensor(np.eye(dim), requires_grad=True),
                bias=Tensor(np.zeros(dim), requires_grad=True),
                activation="identity",
            )
        ]
    )


def line_dataset(positions, labels, domain="probe", ids=None):
    n = len(positions)
    return DataSet(
        ids=range(n) if ids is None else ids,
        labels=labels,
        domains=[domain] * n,
        features=np.reshape(positions, (n, 1)),
    )


class TestMetricHandValues:
    def test_recall_hit_and_miss(self):
        ranked = [1, 1, 3, 5]
        assert recall_at_k(ranked, 3, 2) == 0.0
        assert recall_at_k(ranked, 3, 3) == 1.0
        assert recall_at_k(ranked, 1, 1) == 1.0

    def test_r_precision_three_of_four(self):
        assert r_precision([1, 1, 0, 1, 0], 1, 4) == 0.75

    def test_map_two_relevant_at_ranks_one_and_three(self):
        # hits at ranks 1 and 3, R = 2: only the rank-1 hit lands in the
        # top R, contributing 1/1, so MAP is 1/2
        assert map_at_r([1, 0, 1, 0], 1, 2) == 0.5

    def test_map_three_relevant_at_ranks_two_three_five(self):
        got = map_at_r([0, 1, 1, 0, 1], 1, 3)
        expected = 0.0
        expected += 1 / 2
        expected += 2 / 3
        assert got == expected / 3
        assert abs(got - float(Fraction(7, 18))) < 1e-15

    @pytest.mark.parametrize("fn", [recall_at_k, r_precision, map_at_r])
    @pytest.mark.parametrize("k", [0, -1, 5])
    def test_rank_cutoff_out_of_range(self, fn, k):
        with pytest.raises(ValueError):
            fn([1, 1, 0, 0], 1, k)


class TestRanking:
    """The ranking rule, on `oracle_rank` and through `evaluate`'s metrics."""

    def test_single_item_gallery(self):
        assert oracle_rank([0.0, 0.0], [[1.0, 1.0]], [0]) == [0]
        ds = DataSet([0, 1], [0, 0], ["d"] * 2, [[0.0, 0.0], [1.0, 1.0]])
        assert evaluate(identity_model(2), {"d": ds}, recall_ks=(1,)).average.recall_at[1] == 1.0

    def test_orders_by_distance(self):
        gallery = [[2.0], [1.0], [3.0]]
        assert oracle_rank([0.0], gallery, [0, 1, 2]) == [1, 0, 2]
        # only the query at 2.2 misses: its nearest is the label-0 item at 1
        ds = line_dataset([0.0, 2.2, 1.0, 3.5], [0, 1, 0, 1])
        m = evaluate(identity_model(1), {"d": ds}, recall_ks=(1,)).domains["d"]
        assert m.recall_at[1] == 0.75

    def test_ties_break_by_id(self):
        gallery = [[1.0, 0.0], [1.0, 0.0]]
        assert oracle_rank([0.0, 0.0], gallery, [0, 1]) == [0, 1]
        assert oracle_rank([0.0, 0.0], gallery, [9, 4]) == [4, 9]
        # the query at the origin has two tied neighbors: the label-0 one
        # comes first only when its id is the smaller; the two tied items
        # see each other at distance 0 and miss
        points = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
        for ids, hits in (([0, 4, 9], 1), ([0, 9, 4], 0)):
            ds = DataSet(ids, [0, 0, 1], ["d"] * 3, points)
            m = evaluate(identity_model(2), {"d": ds}, recall_ks=(1,)).domains["d"]
            assert m.recall_at[1] == hits / 3

    def test_dim_mismatch(self):
        ds = line_dataset([0.0, 1.0, 2.0], [0, 0, 0])
        with pytest.raises(ShapeError, match="does not match"):
            evaluate(identity_model(2), {"d": ds})


class TestAgainstOracle:
    def test_distance_bitwise_equal_to_evaluation(self):
        # 20,000 random 16-d pairs: `(a - b) ** 2` summed with sum() misses
        # the last bit on 12 of them, so the oracle must square with e * e
        gen = np.random.default_rng(1)
        Q = gen.normal(size=(200, 16))
        G = gen.normal(size=(100, 16))
        D = _distances(Q, G.T, "euclidean")
        oracle = [[oracle_distance(q, g) for g in G.tolist()] for q in Q.tolist()]
        assert np.array_equal(D, np.array(oracle))

    def test_exhaustive_small_galleries(self):
        # every relevance configuration up to gallery size 8, bit for bit,
        # one ranked list at a time and all of them as one 2-D call
        for n in range(1, 9):
            rels = [[(mask >> i) & 1 == 1 for i in range(n)] for mask in range(2**n)]
            for rel in rels:
                ranked = [1 if r else 0 for r in rel]
                for k in range(1, n + 1):
                    assert recall_at_k(ranked, 1, k) == oracle_recall_at_k(rel, k)
                R = sum(rel)
                if R == 0:
                    continue
                rp = r_precision(ranked, 1, R)
                assert rp == oracle_r_precision(rel)
                assert rp == float(oracle_r_precision_exact(rel))
                mp = map_at_r(ranked, 1, R)
                assert mp == oracle_map_at_r(rel)
                assert abs(mp - float(oracle_map_at_r_exact(rel))) < 1e-12
            # the same rows as one 2-D call, each with its own query label
            rel2d = np.array(rels, dtype=bool).reshape(len(rels), n)
            query = np.arange(len(rels)) % 3
            ranked2d = np.where(rel2d, query[:, None], query[:, None] + 1)
            for k in range(1, n + 1):
                got = recall_at_k(ranked2d, query, k)
                assert got.tolist() == [oracle_recall_at_k(rel, k) for rel in rels]
            scored = rel2d.any(axis=1)
            R = rel2d.sum(axis=1)[scored]
            rp = r_precision(ranked2d[scored], query[scored], R)
            mp = map_at_r(ranked2d[scored], query[scored], R)
            expected = [rel for rel in rels if any(rel)]
            assert rp.tolist() == [oracle_r_precision(rel) for rel in expected]
            assert mp.tolist() == [oracle_map_at_r(rel) for rel in expected]

    def test_recall_monotone_and_map_bounded_by_rp(self):
        gen = np.random.default_rng(0)
        for _ in range(1000):
            n = int(gen.integers(2, 21))
            rel = gen.integers(0, 2, size=n).astype(bool).tolist()
            ranked = [1 if r else 0 for r in rel]
            prev = 0.0
            for k in range(1, n + 1):
                cur = recall_at_k(ranked, 1, k)
                assert cur >= prev
                prev = cur
            R = sum(rel)
            if R:
                assert map_at_r(ranked, 1, R) <= r_precision(ranked, 1, R) + 1e-12

    def test_leave_one_out_random_data_matches(self):
        # integer features keep every distance exact; the real-valued cases
        # carry exact ties (mirrored pairs), ids out of sample order, and a
        # domain of more than one query block, not a multiple of it
        gen = np.random.default_rng(7)
        cases = [
            (
                gen.integers(-5, 6, size=(30, 4)).astype(np.float64),
                gen.integers(0, 3, size=30),
                np.array([2 * i + 5 for i in range(30)]),
            )
        ]
        for _ in range(10):
            X = mirrored_pairs(gen, 8, 6)
            cases.append((X, gen.integers(0, 3, size=24), np.arange(24)))
            cases.append((X, gen.integers(0, 3, size=24), gen.permutation(100)[:24]))
        X = np.vstack([mirrored_pairs(gen, 20, 6), gen.normal(1.5, 0.2, size=(241, 6))])
        n = len(X)
        rows = _BLOCK_ENTRIES // n
        assert 1 <= rows < n and n % rows
        cases.append((X, gen.integers(0, 5, size=n), gen.permutation(10 * n)[:n]))
        for X, labels, ids in cases:
            ds = DataSet(ids, labels, ["d"] * len(ids), X)
            report = evaluate(identity_model(X.shape[1]), {"d": ds})
            vectors = [row.tolist() for row in X]
            _rows, means = oracle_leave_one_out(
                vectors, labels.tolist(), ids.tolist(), recall_ks=(1, 2)
            )
            m = report.domains["d"]
            assert m.recall_at[1] == means["recall_at"][1]
            assert m.recall_at[2] == means["recall_at"][2]
            assert m.r_precision == means["r_precision"]
            assert m.map_at_r == means["map_at_r"]
            assert m.skipped_zero_relevant == means["skipped_zero_relevant"]
            if len(X) <= 30:  # and every query's whole ranking, on the small domains
                by_id = np.argsort(ids, kind="stable")
                G = X[by_id].T.copy()
                order = _first_columns(X, G, np.einsum("ij,ij->j", G, G), "euclidean", len(X))
                for q in range(len(X)):
                    rest = [i for i in range(len(X)) if i != q]
                    got = [int(ids[by_id[c]]) for c in order[q] if by_id[c] != q]
                    assert got == oracle_rank(
                        vectors[q], [vectors[i] for i in rest], ids[rest].tolist()
                    )


def mirrored_pairs(gen, centers, dim):
    """Triples q, q + v, q - v whose two neighbors are at exactly equal direct
    distance from q: q lies in [1.25, 1.75) and v is a multiple of 2**-10
    below 2**-5, so q + v, q - v and the differences back to q are exact."""
    q = gen.uniform(1.25, 1.75, size=(centers, dim))
    v = gen.integers(-32, 33, size=(centers, dim)) / 1024.0
    return np.stack([q, q + v, q - v], axis=1).reshape(-1, dim)


class TestTenSampleTable:
    # two classes on a line: 0,1,2,3,9 labeled 0 and 10..14 labeled 1;
    # the class-0 outlier at 9 retrieves only wrong-class neighbors
    POSITIONS = [0, 1, 2, 3, 9, 10, 11, 12, 13, 14]
    LABELS = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]

    def _report(self):
        ds = line_dataset(self.POSITIONS, self.LABELS)
        return evaluate(identity_model(1), {"probe": ds})

    def test_recall_means(self):
        m = self._report().domains["probe"]
        assert m.recall_at[1] == 0.8
        assert m.recall_at[2] == 0.9

    def test_r_precision_mean(self):
        assert self._report().domains["probe"].r_precision == 0.85

    def test_map_mean(self):
        # per-query values: queries 0-3 and 7-9 retrieve perfectly, the
        # outlier gets 0, query 5 gets (1/2 + 2/3 + 3/4)/4, query 6 gets 11/16
        q5 = 0.0
        q5 += 1 / 2
        q5 += 2 / 3
        q5 += 3 / 4
        q5 /= 4
        vals = [1.0, 1.0, 1.0, 1.0, 0.0, q5, 11 / 16, 1.0, 1.0, 1.0]
        m = self._report().domains["probe"]
        assert m.map_at_r == sum(vals) / 10
        assert abs(m.map_at_r - float(Fraction(49, 60))) < 1e-15

    def test_no_queries_skipped(self):
        m = self._report().domains["probe"]
        assert m.queries == 10
        assert m.skipped_zero_relevant == 0

    def test_matches_oracle_per_query(self):
        vectors = [[float(p)] for p in self.POSITIONS]
        rows, _means = oracle_leave_one_out(vectors, self.LABELS, list(range(10)))
        by_id = {sid: (rp, mp) for sid, _r, rp, mp in rows}
        assert by_id[4] == (0.0, 0.0)
        assert by_id[5][0] == 0.75
        assert abs(by_id[5][1] - float(Fraction(23, 48))) < 1e-15
        assert by_id[6] == (0.75, 0.6875)


class TestEvaluate:
    def test_two_samples_same_class(self):
        ds = line_dataset([0.0, 1.0], [7, 7])
        report = evaluate(identity_model(1), {"d": ds}, recall_ks=(1,))
        m = report.domains["d"]
        assert m.recall_at[1] == 1.0
        assert m.r_precision == 1.0
        assert m.map_at_r == 1.0
        assert m.skipped_zero_relevant == 0

    def test_two_samples_different_classes(self):
        ds = line_dataset([0.0, 1.0], [0, 1])
        report = evaluate(identity_model(1), {"d": ds}, recall_ks=(1,))
        m = report.domains["d"]
        assert m.recall_at[1] == 0.0
        assert m.r_precision == 0.0  # no scoreable queries
        assert m.map_at_r == 0.0
        assert m.skipped_zero_relevant == 2

    def test_singleton_class_skipped_but_counted_in_recall(self):
        ds = line_dataset([0.0, 1.0, 10.0, 11.0, 100.0], [0, 0, 1, 1, 2])
        report = evaluate(identity_model(1), {"d": ds}, recall_ks=(1,))
        m = report.domains["d"]
        assert m.skipped_zero_relevant == 1
        assert m.recall_at[1] == 0.8  # the singleton query misses
        assert m.r_precision == 1.0  # the other four retrieve perfectly
        assert m.map_at_r == 1.0

    def test_average_over_domains(self):
        perfect = line_dataset([0.0, 1.0], [7, 7], domain="a")
        hopeless = line_dataset([0.0, 1.0], [0, 1], domain="b", ids=(10, 11))
        report = evaluate(
            identity_model(1), {"a": perfect, "b": hopeless}, recall_ks=(1,)
        )
        assert report.average.recall_at[1] == 0.5
        assert report.average.queries == 4
        assert report.query_count == 4

    def test_recall_ks_deduplicated_and_sorted(self):
        ds = line_dataset([0.0, 1.0, 2.0], [0, 0, 0])
        report = evaluate(identity_model(1), {"d": ds}, recall_ks=(2, 1, 2))
        assert sorted(report.domains["d"].recall_at) == [1, 2]

    def test_geodesic_ranks_by_angle(self):
        # (10,0) ties with the query direction, (1.2,0.5) is nearer in
        # euclidean terms but angularly farther
        pts = [[1.0, 0.0], [10.0, 0.0], [1.2, 0.5]]
        ds = DataSet([0, 1, 2], [0, 0, 1], ["d"] * 3, pts)
        model = identity_model(2)
        eu = evaluate(model, {"d": ds}, recall_ks=(1,), metric="euclidean")
        geo = evaluate(model, {"d": ds}, recall_ks=(1,), metric="geodesic")
        assert eu.domains["d"].recall_at[1] == 0.0
        assert geo.domains["d"].recall_at[1] == pytest.approx(2 / 3, abs=1e-15)
        assert eu.metric == "euclidean"
        assert geo.metric == "geodesic"

    def test_geodesic_rejects_zero_embedding(self):
        ds = line_dataset([0.0, 1.0, 2.0], [0, 0, 0], ids=(3, 4, 5))
        with pytest.raises(DegenerateVectorError, match="sample 3"):
            evaluate(identity_model(1), {"d": ds}, recall_ks=(1,), metric="geodesic")

    def test_bad_metric_name(self):
        ds = line_dataset([0.0, 1.0], [0, 0])
        with pytest.raises(ValueError, match="metric"):
            evaluate(identity_model(1), {"d": ds}, metric="cosine")

    def test_empty_tests_rejected(self):
        with pytest.raises(ValueError, match="no test sets"):
            evaluate(identity_model(1), {})

    def test_tiny_domain_rejected(self):
        ds = line_dataset([0.0], [0])
        with pytest.raises(ValueError, match="at least 2"):
            evaluate(identity_model(1), {"d": ds})

    def test_recall_k_exceeding_gallery_rejected(self):
        ds = line_dataset([0.0, 1.0, 2.0], [0, 0, 0])
        with pytest.raises(ValueError, match="exceeds gallery"):
            evaluate(identity_model(1), {"d": ds}, recall_ks=(3,))


class TestReportShapes:
    def _report(self):
        ds = line_dataset([0.0, 1.0, 10.0, 11.0], [0, 0, 1, 1])
        return evaluate(identity_model(1), {"probe": ds})

    def test_to_dict(self):
        d = self._report().to_dict()
        assert set(d) == {"domains", "average", "query_count", "metric"}
        assert set(d["domains"]) == {"probe"}
        dom = d["domains"]["probe"]
        assert set(dom) == {
            "recall_at",
            "r_precision",
            "map_at_r",
            "queries",
            "skipped_zero_relevant",
        }
        assert list(dom["recall_at"]) == ["1", "2"]  # JSON-friendly keys

    def test_to_text(self):
        text = self._report().to_text()
        assert "domain" in text
        assert "average" in text
        assert "R@1" in text
        assert text.endswith("\n")


class TestRecallKs:
    # a one-sample domain fails its own check; recall_ks is checked first
    TINY = {"d": line_dataset([0.0], [0])}

    @pytest.mark.parametrize(
        "recall_ks, named",
        [
            ((), r"got \(\)"),
            ((1.7,), "1.7"),
            ((0,), r"got \(0,\)"),
            ((2, -1), "-1"),
            ((True,), "True"),
        ],
    )
    def test_rejected_before_any_domain(self, recall_ks, named):
        with pytest.raises(ValueError, match=named) as err:
            evaluate(identity_model(1), self.TINY, recall_ks=recall_ks)
        assert "recall_ks" in str(err.value)

    def test_numpy_integers_accepted(self):
        ds = line_dataset([0.0, 1.0, 2.0], [0, 0, 0])
        report = evaluate(identity_model(1), {"d": ds}, recall_ks=(np.int64(2), 1))
        assert list(report.domains["d"].recall_at) == [1, 2]


def assert_matches_reference(model, ds, metric, recall_ks=(1, 2)):
    got = evaluate(model, {"d": ds}, recall_ks, metric).domains["d"]
    want = reference_evaluate_domain(model, ds, tuple(sorted(set(recall_ks))), metric)
    assert got.to_dict() == want.to_dict()


def shuffled_domain(gen, X, n_labels):
    n = len(X)
    return DataSet(gen.permutation(3 * n)[:n], gen.integers(0, n_labels, size=n), ["d"] * n, X)


def one_ulp_triples(gen, count, dim):
    """Triples q, q + a e_0, q + a e_0 + a 2^-26 e_1, 64 apart along e_2,
    whose squared distances from q are exactly s = a^2 and the next double
    above it: the two roots round to one distance, so the tie goes to the
    smaller id, which the third row of each triple has."""
    rows = []
    for i in range(count):
        a = 2.0 ** int(gen.integers(-3, 4))
        q = gen.integers(0, 1 << 10, size=dim) / 1024.0 * a
        q[2] += 64.0 * i
        g1 = q.copy()
        g1[0] += a
        g2 = g1.copy()
        g2[1] += a * 2.0**-26
        rows += [q, g1, g2]
    ids = [3 * (i // 3) + 2 - i % 3 for i in range(len(rows))]
    return DataSet(ids, [0, 0, 1] * count, ["d"] * len(rows), np.array(rows))


@pytest.mark.parametrize("metric", ["euclidean", "geodesic"])
class TestMatchesReference:
    """`evaluate`'s top-K ranking against a stable sort of every whole row."""

    def test_real_valued_domain_at_gallery_1999(self, metric):
        spec = experiments.default_benchmark_spec(seed=0, samples_per_class=500)
        _train, tests = data.generate_benchmark(spec)
        ds = next(iter(tests.values()))
        assert len(ds) == 2000
        assert_matches_reference(EncoderModel.default(16, seed=0), ds, metric, (1, 2, 4))

    def test_mirrored_triples(self, metric):
        gen = np.random.default_rng(3)
        ds = shuffled_domain(gen, mirrored_pairs(gen, 40, 6), 4)
        assert_matches_reference(identity_model(6), ds, metric)

    def test_duplicated_rows_tie_with_the_own_column(self, metric):
        gen = np.random.default_rng(4)
        X = gen.normal(size=(40, 5))
        ds = shuffled_domain(gen, np.vstack([X, X[:20], X[:5]]), 3)
        assert_matches_reference(identity_model(5), ds, metric)

    def test_squared_distances_one_ulp_apart(self, metric):
        ds = one_ulp_triples(np.random.default_rng(5), 30, 4)
        X = ds.features
        D = _distances(X[0:1], X[1:3].T, "euclidean")
        assert D[0, 0] == D[0, 1]  # merged by the square root
        assert_matches_reference(identity_model(4), ds, metric, (1, 2, 3))

    def test_far_outlier_row(self, metric):
        gen = np.random.default_rng(6)
        X = gen.normal(size=(300, 8)) + 3 * gen.integers(0, 2, size=(300, 1))
        X[17] = 1e4
        assert_matches_reference(identity_model(8), shuffled_domain(gen, X, 4), metric)

    def test_scaled_copies(self, metric):
        gen = np.random.default_rng(8)
        X = gen.normal(size=(50, 4))
        copies = X[:20] * np.array([2.0, 3.7, 0.5, 1e3] * 5)[:, None]
        ds = shuffled_domain(gen, np.vstack([X, copies]), 3)
        assert_matches_reference(identity_model(4), ds, metric)


@st.composite
def tied_domains(draw):
    """Small domains on a coarse grid, so exact ties in distance and angle
    abound, with some rows planted again under other ids."""
    n = draw(st.integers(3, 24))
    dim = draw(st.integers(1, 4))
    coords = st.integers(-3, 3).map(lambda v: v / 2.0)
    rows = draw(st.lists(st.lists(coords, min_size=dim, max_size=dim), min_size=n, max_size=n))
    copies = draw(st.lists(st.integers(0, n - 1), max_size=n // 2))
    X = np.array(rows + [rows[i] for i in copies])
    X[np.abs(X).sum(axis=1) == 0] = 0.5  # no zero rows, for the angle
    m = len(X)
    ids = draw(st.permutations(range(2 * m)))[:m]
    labels = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    ks = draw(st.sets(st.integers(1, m - 1), min_size=1, max_size=3))
    metric = draw(st.sampled_from(["euclidean", "geodesic"]))
    return DataSet(ids, labels, ["d"] * m, X), tuple(ks), metric


@given(tied_domains(), st.sampled_from([1 << 16, 37]))
def test_matches_reference_on_tied_domains(case, block_entries):
    ds, ks, metric = case
    with pytest.MonkeyPatch.context() as mp:
        # small blocks give each block its own cut width
        mp.setattr(evaluation, "_BLOCK_ENTRIES", block_entries)
        mp.setattr("metric_oracle._BLOCK_ENTRIES", block_entries)
        assert_matches_reference(identity_model(ds.features.shape[1]), ds, metric, ks)


def count_distance_rows(monkeypatch):
    """Rows given to `evaluation._distances`; on the euclidean path only
    rows whose key order is not certified get there."""
    rows = []
    real = evaluation._distances

    def counted(Q, gallery_t, metric):
        rows.append(len(Q))
        return real(Q, gallery_t, metric)

    monkeypatch.setattr(evaluation, "_distances", counted)
    return rows


class TestFastPathTaken:
    def test_no_fallback_on_the_seed_0_reference_domains(self, monkeypatch):
        train_set, tests = data.generate_benchmark(experiments.default_benchmark_spec(seed=0))
        model = trainer.train(train_set, experiments.benchmark_train_config(0, "full")).model
        rows = count_distance_rows(monkeypatch)
        report = evaluate(model, tests)
        assert report.query_count == 2400
        assert sum(rows) == 0

    def test_planted_duplicate_falls_back_to_the_same_result(self, monkeypatch):
        gen = np.random.default_rng(9)
        X = gen.normal(size=(80, 6))
        X[50] = X[3]
        ds = shuffled_domain(gen, X, 4)
        rows = count_distance_rows(monkeypatch)
        got = evaluate(identity_model(6), {"d": ds}).domains["d"]
        assert sum(rows) >= 2  # the duplicate and its original
        monkeypatch.undo()
        assert got == reference_evaluate_domain(identity_model(6), ds, (1, 2), "euclidean")


class TestCertificateSlack:
    """`_euclidean_slack` is 4e = 8 g_{d+3} (|q| + max|g|)^2, g_k = k u / (1 - k u).

    Norms are chosen whose squares are exact doubles, so the exact slack is
    a rational number; the computed one may differ only by the handful of
    roundings `_euclidean_slack` itself makes.
    """

    U = Fraction(1, 2**53)

    def exact(self, q, g, dim):
        k = (dim + 3) * self.U
        return 8 * k / (1 - k) * (Fraction(q) + Fraction(g)) ** 2

    @pytest.mark.parametrize("dim", [1, 2, 3, 32, 100, 4093])
    def test_matches_the_bound_in_exact_arithmetic(self, dim):
        qs = np.array([0.0, 0.375, 1.0, 3.0, 2.0**-200, 1.5 * 2.0**240])
        for g in (0.375, 1.0, 7.0, 2.0**-100, 2.0**250):
            got = _euclidean_slack(qs * qs, g * g, dim)
            for q, value in zip(qs, got):
                want = self.exact(q, g, dim)
                assert abs(Fraction(value) - want) <= 16 * self.U * want, (q, g, dim)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_infinite_below_the_minimum_reach_and_when_not_finite(self):
        floor = 2.0**-250  # (|q| + |g|)^2 = 2^-500 with |q| = |g| = floor / 2
        at, below = (floor / 2) ** 2, (floor / 4) ** 2
        got = _euclidean_slack(np.array([at, below, 0.0]), at, 3)
        assert np.isfinite(got[0]) and got[0] > 0
        assert np.isinf(got[1:]).all()  # reaches 2^-500 * 9/16 and 1/4
        for q_sq, g_sq in ((np.inf, 1), (np.nan, 1), (1, np.inf), (1, np.nan), (1e308, 1e308)):
            assert _euclidean_slack(np.array([q_sq]), g_sq, 3)[0] == np.inf, (q_sq, g_sq)
