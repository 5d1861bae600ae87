"""Retrieval metrics against hand values, the pure-python oracle and the
full-sort reference ranking."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from centerpolar import data, evaluation, experiments, trainer
from centerpolar.data import DataSet
from centerpolar.encoder import EncoderModel, Layer
from centerpolar.evaluation import (
    _BLOCK_ENTRIES,
    RECALL_KS,
    _distances,
    _euclidean_slack,
    _ranked_relevance,
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
    relevance_rows,
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


def of_first_R(metric, relevance):
    """`metric` of one ranked list that holds all R of its class."""
    _relevant, within, R = relevance_rows(relevance)
    return metric(within, R)[0]


class TestMetricHandValues:
    def test_recall_hit_and_miss(self):
        ranked = np.array([[1, 1, 3, 5]])
        assert recall_at_k(ranked == 3, 2)[0] == 0.0
        assert recall_at_k(ranked == 3, 3)[0] == 1.0
        assert recall_at_k(ranked == 1, 1)[0] == 1.0

    def test_r_precision_three_of_four(self):
        # R = 4, the fourth hit at rank 6
        assert of_first_R(r_precision, [1, 1, 0, 1, 0, 1]) == 0.75

    def test_map_two_relevant_at_ranks_one_and_three(self):
        # hits at ranks 1 and 3, R = 2: only the rank-1 hit lands in the
        # top R, contributing 1/1, so MAP is 1/2
        assert of_first_R(map_at_r, [1, 0, 1, 0]) == 0.5

    def test_map_three_relevant_at_ranks_two_three_five(self):
        got = of_first_R(map_at_r, [0, 1, 1, 0, 1])
        expected = 0.0
        expected += 1 / 2
        expected += 2 / 3
        assert got == expected / 3
        assert abs(got - float(Fraction(7, 18))) < 1e-15

    @pytest.mark.parametrize("k", RECALL_KS)
    def test_recall_reads_only_the_first_k_columns(self, k):
        # a first hit at rank k counts, one at rank k + 1 does not
        relevant = np.zeros((2, k + 3), dtype=bool)
        relevant[0, k - 1] = True
        relevant[1, k:] = True
        assert recall_at_k(relevant, k).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("metric", [r_precision, map_at_r])
    @pytest.mark.parametrize("pad", [0, 1, 4])
    def test_rows_of_one_block_keep_their_own_R(self, metric, pad):
        # a block is as wide as its largest R (plus `pad`); each row, cut at
        # its own R, scores the bits it scores alone
        rels = [
            [(mask >> i) & 1 == 1 for i in range(n)]
            for n in range(1, 7)
            for mask in range(1, 2**n)
        ]
        width = max(sum(rel) for rel in rels) + pad
        relevant = np.zeros((len(rels), width), dtype=bool)
        for row, rel in zip(relevant, rels):
            row[: min(len(rel), width)] = rel[:width]
        R = np.array([sum(rel) for rel in rels])
        within = relevant & (np.arange(width) < R[:, None])
        alone = [of_first_R(metric, rel) for rel in rels]
        assert metric(within, R).tolist() == alone


@st.composite
def relevance_blocks(draw):
    """The ranked relevance of one block's queries, each list with a hit."""
    rows = draw(st.integers(1, 6))
    relevance = st.lists(st.booleans(), min_size=1, max_size=40).filter(any)
    return draw(st.lists(relevance, min_size=rows, max_size=rows))


# eight ranks in one row, which numpy's pairwise sum would add out of order
PAIRWISE_TRAP = [True] * 5 + [False, True, True]


@given(relevance_blocks())
@example([PAIRWISE_TRAP])
@example([PAIRWISE_TRAP, [False, True]])
def test_map_at_r_matches_the_oracle_row_by_row(rels):
    # the block is as wide as its longest list; each row is cut at its own R
    width = max(map(len, rels))
    relevant = np.zeros((len(rels), width), dtype=bool)
    for row, rel in zip(relevant, rels):
        row[: len(rel)] = rel
    R = relevant.sum(axis=1)
    within = relevant & (np.arange(width) < R[:, None])
    assert map_at_r(within, R).tolist() == [oracle_map_at_r(rel) for rel in rels]


class TestRanking:
    """The ranking rule, on `oracle_rank` and through `evaluate`'s metrics."""

    def test_single_item_gallery(self):
        assert oracle_rank([0.0, 0.0], [[1.0, 1.0]], [0]) == [0]
        # evaluate's smallest gallery holds 2, the largest recall k
        ds = DataSet([0, 1, 2], [0, 0, 0], ["d"] * 3, [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert evaluate(identity_model(2), {"d": ds}).average.recall_at[1] == 1.0

    def test_orders_by_distance(self):
        gallery = [[2.0], [1.0], [3.0]]
        assert oracle_rank([0.0], gallery, [0, 1, 2]) == [1, 0, 2]
        # only the query at 2.2 misses: its nearest is the label-0 item at 1
        ds = line_dataset([0.0, 2.2, 1.0, 3.5], [0, 1, 0, 1])
        m = evaluate(identity_model(1), {"d": ds}).domains["d"]
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
            m = evaluate(identity_model(2), {"d": ds}).domains["d"]
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
        # the fallback takes the distances of some rows of a block alone, so
        # no row's may depend on the rows beside it, as a BLAS product's do
        unit_Q, unit_G = (X / np.sqrt((X * X).sum(axis=1))[:, None] for X in (Q, G))
        for metric, Qm, Gm in [("euclidean", Q, G), ("geodesic", unit_Q, unit_G)]:
            D = _distances(Qm, Gm.T, metric)
            for i in range(len(Qm)):
                assert np.array_equal(D[i], _distances(Qm[i : i + 1], Gm.T, metric)[0]), metric

    def test_exhaustive_small_galleries(self):
        # every relevance configuration up to gallery size 8, bit for bit,
        # one ranked list at a time and all of them as one matrix
        for n in range(1, 9):
            rels = [[(mask >> i) & 1 == 1 for i in range(n)] for mask in range(2**n)]
            for rel in rels:
                relevant, within, R = relevance_rows(rel)
                for k in range(1, n + 1):
                    assert recall_at_k(relevant, k)[0] == oracle_recall_at_k(rel, k)
                if R[0] == 0:
                    continue
                rp = r_precision(within, R)[0]
                assert rp == oracle_r_precision(rel)
                assert rp == float(oracle_r_precision_exact(rel))
                mp = map_at_r(within, R)[0]
                assert mp == oracle_map_at_r(rel)
                assert abs(mp - float(oracle_map_at_r_exact(rel))) < 1e-12
            # the same rows as one matrix, each cut at its own R
            relevant = np.array(rels, dtype=bool).reshape(len(rels), n)
            for k in range(1, n + 1):
                got = recall_at_k(relevant, k)
                assert got.tolist() == [oracle_recall_at_k(rel, k) for rel in rels]
            scored = relevant.any(axis=1)
            R = relevant.sum(axis=1)[scored]
            within = relevant[scored] & (np.arange(n) < R[:, None])
            rp = r_precision(within, R)
            mp = map_at_r(within, R)
            expected = [rel for rel in rels if any(rel)]
            assert rp.tolist() == [oracle_r_precision(rel) for rel in expected]
            assert mp.tolist() == [oracle_map_at_r(rel) for rel in expected]

    def test_recall_monotone_and_map_bounded_by_rp(self):
        gen = np.random.default_rng(0)
        for _ in range(1000):
            n = int(gen.integers(2, 21))
            rel = gen.integers(0, 2, size=n).astype(bool).tolist()
            relevant, within, R = relevance_rows(rel)
            prev = 0.0
            for k in range(1, n + 1):
                cur = recall_at_k(relevant, k)[0]
                assert cur >= prev
                prev = cur
            if R[0]:
                assert map_at_r(within, R)[0] <= r_precision(within, R)[0] + 1e-12

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
            if len(X) <= 30:  # and every query's whole ranked relevance, on the small domains
                order = np.lexsort((ids, labels))  # class order
                G = X[order].T.copy()
                G_sq, keys = np.einsum("ij,ij->j", G, G), np.empty((len(X), len(X)))
                in_order = labels[order]
                lo = np.searchsorted(in_order, in_order, "left")
                hi = np.searchsorted(in_order, in_order, "right")
                relevant = _ranked_relevance(
                    X[order], G, G_sq, 0, lo, hi, ids[order], "euclidean", len(X), keys
                )
                label_of = dict(zip(ids.tolist(), labels.tolist()))
                for row, q in enumerate(order.tolist()):
                    rest = [i for i in range(len(X)) if i != q]
                    gallery = [vectors[i] for i in rest]
                    ranked = oracle_rank(vectors[q], gallery, ids[rest].tolist())
                    assert relevant[row].tolist() == [label_of[sid] == labels[q] for sid in ranked]

    @pytest.mark.parametrize("metric", ["euclidean", "geodesic"])
    def test_one_block_mixes_unscored_short_and_long_rows(self, metric):
        # a singleton class (R = 0), a pair (R = 1) and a class of five
        # (R = 4) in one block: rows are cut at their own R or left out
        gen = np.random.default_rng(11)
        X = gen.normal(size=(8, 3))
        labels = np.array([2, 0, 1, 0, 0, 1, 0, 0])
        ids = gen.permutation(20)[:8]
        ds = DataSet(ids, labels, ["d"] * 8, X)
        model = identity_model(3)
        got = evaluate(model, {"d": ds}, metric).domains["d"]
        assert got.skipped_zero_relevant == 1
        assert got == reference_evaluate_domain(model, ds, metric)
        if metric == "euclidean":
            _rows, means = oracle_leave_one_out(X.tolist(), labels.tolist(), ids.tolist())
            assert got.recall_at == means["recall_at"]
            assert got.r_precision == means["r_precision"]
            assert got.map_at_r == means["map_at_r"]


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
    def test_three_samples_same_class(self):
        ds = line_dataset([0.0, 1.0, 2.0], [7, 7, 7])
        report = evaluate(identity_model(1), {"d": ds})
        m = report.domains["d"]
        assert m.recall_at[1] == 1.0
        assert m.r_precision == 1.0
        assert m.map_at_r == 1.0
        assert m.skipped_zero_relevant == 0

    def test_three_samples_different_classes(self):
        ds = line_dataset([0.0, 1.0, 2.0], [0, 1, 2])
        report = evaluate(identity_model(1), {"d": ds})
        m = report.domains["d"]
        assert m.recall_at[1] == 0.0
        assert m.r_precision == 0.0  # no scoreable queries
        assert m.map_at_r == 0.0
        assert m.skipped_zero_relevant == 3

    def test_singleton_class_skipped_but_counted_in_recall(self):
        ds = line_dataset([0.0, 1.0, 10.0, 11.0, 100.0], [0, 0, 1, 1, 2])
        report = evaluate(identity_model(1), {"d": ds})
        m = report.domains["d"]
        assert m.skipped_zero_relevant == 1
        assert m.recall_at[1] == 0.8  # the singleton query misses
        assert m.r_precision == 1.0  # the other four retrieve perfectly
        assert m.map_at_r == 1.0

    def test_average_over_domains(self):
        perfect = line_dataset([0.0, 1.0, 2.0], [7, 7, 7], domain="a")
        hopeless = line_dataset([0.0, 1.0, 2.0], [0, 1, 2], domain="b", ids=(10, 11, 12))
        report = evaluate(identity_model(1), {"a": perfect, "b": hopeless})
        assert report.average.recall_at[1] == 0.5
        assert report.average.queries == 6
        assert report.query_count == 6

    def test_geodesic_ranks_by_angle(self):
        # (10,0) ties with the query direction, (1.2,0.5) is nearer in
        # euclidean terms but angularly farther
        pts = [[1.0, 0.0], [10.0, 0.0], [1.2, 0.5]]
        ds = DataSet([0, 1, 2], [0, 0, 1], ["d"] * 3, pts)
        model = identity_model(2)
        eu = evaluate(model, {"d": ds}, metric="euclidean")
        geo = evaluate(model, {"d": ds}, metric="geodesic")
        assert eu.domains["d"].recall_at[1] == 0.0
        assert geo.domains["d"].recall_at[1] == pytest.approx(2 / 3, abs=1e-15)
        assert eu.metric == "euclidean"
        assert geo.metric == "geodesic"

    # a square that overflows would leave a zero row, ranked by the key as
    # nearer than the angle puts it
    @pytest.mark.parametrize("first", [0.0, 1e200])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_geodesic_rejects_zero_or_overflowing_embedding(self, first):
        ds = line_dataset([first, 1.0, 2.0], [0, 0, 0], ids=(3, 4, 5))
        with pytest.raises(DegenerateVectorError, match="sample 3"):
            evaluate(identity_model(1), {"d": ds}, metric="geodesic")

    def test_bad_metric_name(self):
        ds = line_dataset([0.0, 1.0], [0, 0])
        with pytest.raises(ValueError, match="metric"):
            evaluate(identity_model(1), {"d": ds}, metric="cosine")

    def test_empty_tests_rejected(self):
        with pytest.raises(ValueError, match="no test sets"):
            evaluate(identity_model(1), {})

    def test_tiny_domain_rejected(self):
        ds = line_dataset([0.0], [0])
        with pytest.raises(ValueError, match="exceeds gallery size 0"):
            evaluate(identity_model(1), {"d": ds})

    def test_recall_k_exceeding_gallery_rejected(self):
        ds = line_dataset([0.0, 1.0], [0, 0])
        with pytest.raises(ValueError, match="recall k=2 exceeds gallery size 1"):
            evaluate(identity_model(1), {"d": ds})

    @pytest.mark.parametrize(
        "tiny, message",
        [
            ([0.0], "domain 'tiny': recall k=2 exceeds gallery size 0"),
            ([0.0, 1.0], "domain 'tiny': recall k=2 exceeds gallery size 1"),
        ],
    )
    def test_every_domain_checked_before_any_is_embedded(self, monkeypatch, tiny, message):
        def no_embedding(*args):
            raise AssertionError("a domain was embedded before every domain was checked")

        monkeypatch.setattr(EncoderModel, "embed_many", no_embedding)
        tests = {
            "ok": line_dataset([0.0, 1.0, 2.0], [0, 0, 1]),
            "tiny": line_dataset(tiny, [0] * len(tiny)),
        }
        with pytest.raises(ValueError, match=message):
            evaluate(identity_model(1), tests)


class TestBlockWidth:
    """`_evaluate_domain` cuts each block at the deepest rank a metric
    reads; the cut is always within the gallery and covers every R."""

    @pytest.mark.parametrize("block_entries", [1 << 16, 7])
    @pytest.mark.parametrize(
        "labels",
        [[0, 0, 0], [0, 1, 2, 3], [2, 0, 1, 0, 0, 1, 0, 0], [0] * 9 + [1, 1, 2]],
        ids=["one-class", "singletons", "mixed", "one-large-class"],
    )
    def test_cut_covers_every_R_and_stays_in_the_gallery(self, monkeypatch, labels, block_entries):
        n = len(labels)
        ds = line_dataset(np.arange(n, dtype=float) ** 1.5, labels)
        widths = []
        real = evaluation._ranked_relevance

        def spied(Q, gallery_t, gallery_sq, first, lo, hi, column_ids, metric, width, out):
            widths.append((first, len(Q), width))
            return real(Q, gallery_t, gallery_sq, first, lo, hi, column_ids, metric, width, out)

        monkeypatch.setattr(evaluation, "_BLOCK_ENTRIES", block_entries)
        monkeypatch.setattr(evaluation, "_ranked_relevance", spied)
        got = evaluate(identity_model(1), {"d": ds}).domains["d"]
        sizes = {label: labels.count(label) for label in labels}
        R = [sizes[label] - 1 for label in sorted(labels)]  # the rows in class order
        start = 0
        for first, rows, width in widths:
            assert first == start
            assert RECALL_KS[-1] + 1 <= width <= n
            assert width - 1 >= max(R[start : start + rows])
            start += rows
        assert start == n
        monkeypatch.undo()
        assert got == reference_evaluate_domain(identity_model(1), ds, "euclidean")


class TestRecallKsConstant:
    """`RECALL_KS` is read where it is used: by the report, its text table
    and the gallery rule."""

    @pytest.mark.parametrize("ks", [(1,), (1, 3), (2, 4, 5)])
    def test_every_site_reads_the_constant(self, monkeypatch, ks):
        monkeypatch.setattr(evaluation, "RECALL_KS", ks)
        positions = [0.0, 1.0, 2.5, 4.0, 7.0, 7.5][: ks[-1] + 1]
        labels = [0, 1, 0, 1, 1, 0][: len(positions)]
        ds = line_dataset(positions, labels)
        report = evaluate(identity_model(1), {"d": ds})
        _rows, means = oracle_leave_one_out(
            [[x] for x in positions], labels, list(range(len(positions))), ks
        )
        assert report.domains["d"].recall_at == means["recall_at"]
        assert list(report.average.recall_at) == list(ks)
        assert report.to_text().split("\n")[0].split() == (
            ["domain"] + [f"R@{k}" for k in ks] + ["RP", "MAP"]
        )
        small = line_dataset(positions[:-1], labels[:-1])
        message = f"recall k={ks[-1]} exceeds gallery size {ks[-1] - 1}"
        with pytest.raises(ValueError, match=message):
            evaluate(identity_model(1), {"d": small})


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


def assert_matches_reference(model, ds, metric):
    got = evaluate(model, {"d": ds}, metric).domains["d"]
    want = reference_evaluate_domain(model, ds, metric)
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
        assert_matches_reference(EncoderModel.default(16, 32, 64, 0), ds, metric)

    def test_mirrored_triples(self, metric):
        gen = np.random.default_rng(3)
        X = mirrored_pairs(gen, 40, 6)
        shuffled = shuffled_domain(gen, X, 4)
        # and ids that run against class order, so a cross-class tie goes to
        # the item of the larger label, whose columns `evaluate` puts last
        labels = gen.integers(0, 4, size=len(X))
        ids = np.empty(len(X), dtype=int)
        ids[np.argsort(labels, kind="stable")] = np.arange(len(X))[::-1]
        for ds in (shuffled, DataSet(ids, labels, ["d"] * len(X), X)):
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
        assert_matches_reference(identity_model(4), ds, metric)

    def test_far_outlier_row(self, metric):
        gen = np.random.default_rng(6)
        X = gen.normal(size=(300, 8)) + 3 * gen.integers(0, 2, size=(300, 1))
        X[17] = 1e4
        assert_matches_reference(identity_model(8), shuffled_domain(gen, X, 4), metric)

    @pytest.mark.parametrize("labels", [[0, 0, 1], [0, 1, 0]])
    @pytest.mark.parametrize("ids", [[0, 1, 2], [0, 2, 1]])
    def test_antipodal_tie_at_distance_one(self, metric, labels, ids):
        # both gallery items of the first query lie at angle pi, distance
        # exactly 1.0, so the smaller id, not the class bit, goes first
        ds = DataSet(ids, labels, ["d"] * 3, [[1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
        assert_matches_reference(identity_model(2), ds, metric)

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
    metric = draw(st.sampled_from(["euclidean", "geodesic"]))
    return DataSet(ids, labels, ["d"] * m, X), metric


# exact angle ties that a BLAS product broke one way for the whole block and
# another for the rows the fallback ranks alone
TIED_ANGLES = DataSet(
    [2, 3, 19, 24, 11, 15, 12, 22, 23, 21, 7, 6, 13],
    [1, 2, 2, 2, 0, 1, 2, 0, 2, 0, 0, 1, 2],
    ["d"] * 13,
    [
        [-1.5, -1, 1, 0], [0.5, -1, 1.5, -1], [-1.5, 1.5, -1.5, -0.5], [-0.5, 0, -0.5, -1.5],
        [1.5, -1.5, -1, 1.5], [1, -1.5, 1, 0.5], [-1.5, 1.5, -1.5, -1], [-1.5, -0.5, 0, 0.5],
        [0.5, -1, -1.5, 1], [-1, 0.5, 0, 1.5], [-1.5, -1, 0.5, -1.5], [1, 1.5, 1, -1],
        [-1, -1.5, 0.5, -1],
    ],
)


@given(tied_domains(), st.sampled_from([1 << 16, 37]))
@example((TIED_ANGLES, "geodesic"), 1 << 16)
def test_matches_reference_on_tied_domains(case, block_entries):
    ds, metric = case
    with pytest.MonkeyPatch.context() as mp:
        # small blocks give each block its own cut width
        mp.setattr(evaluation, "_BLOCK_ENTRIES", block_entries)
        mp.setattr("metric_oracle._BLOCK_ENTRIES", block_entries)
        assert_matches_reference(identity_model(ds.features.shape[1]), ds, metric)


def count_distance_rows(monkeypatch):
    """Rows given to `evaluation._distances`; under either metric only
    rows whose key order is not certified get there."""
    rows = []
    real = evaluation._distances

    def counted(Q, gallery_t, metric):
        rows.append(len(Q))
        return real(Q, gallery_t, metric)

    monkeypatch.setattr(evaluation, "_distances", counted)
    return rows


class TestFastPathTaken:
    @pytest.mark.parametrize("metric", ["euclidean", "geodesic"])
    def test_no_fallback_on_the_seed_0_reference_domains(self, monkeypatch, metric):
        train_set, tests = data.generate_benchmark(experiments.default_benchmark_spec(seed=0))
        model = trainer.train(train_set, experiments.benchmark_train_config(0, "full")).model
        rows = count_distance_rows(monkeypatch)
        report = evaluate(model, tests, metric)
        assert report.query_count == 2400
        assert sum(rows) == 0

    @pytest.mark.parametrize("metric", ["euclidean", "geodesic"])
    def test_no_fallback_at_gallery_1999(self, monkeypatch, metric):
        # the domains of `centerpolar eval` in the cli_eval benchmark workload
        train_set, _tests = data.generate_benchmark(experiments.default_benchmark_spec(seed=0))
        model = trainer.train(train_set, experiments.benchmark_train_config(0, "full")).model
        spec = experiments.default_benchmark_spec(seed=0, samples_per_class=500)
        _train, tests = data.generate_benchmark(spec)
        rows = count_distance_rows(monkeypatch)
        report = evaluate(model, tests, metric)
        assert [len(ds) - 1 for ds in tests.values()] == [1999] * 3
        assert sum(rows) == 0
        monkeypatch.undo()
        for name, ds in tests.items():
            assert report.domains[name] == reference_evaluate_domain(model, ds, metric)

    def test_planted_duplicate_falls_back_to_the_same_result(self, monkeypatch):
        gen = np.random.default_rng(9)
        X = gen.normal(size=(80, 6))
        X[50] = X[3]
        ds = shuffled_domain(gen, X, 4)
        rows = count_distance_rows(monkeypatch)
        got = evaluate(identity_model(6), {"d": ds}).domains["d"]
        assert sum(rows) >= 2  # the duplicate and its original
        monkeypatch.undo()
        assert got == reference_evaluate_domain(identity_model(6), ds, "euclidean")


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
