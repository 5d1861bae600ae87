import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from centerpolar.geometry import DegenerateVectorError, compute_centroids, geodesic_distance
from centerpolar.tensor import DomainError, ShapeError, Tensor, backward, record
from scalar_oracle import euclidean_distance, oracle_geodesic, project_to_sphere

unit_range = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


def nonzero_vectors(dim_min=2, dim_max=8):
    return (
        st.lists(unit_range, min_size=dim_min, max_size=dim_max)
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
    )


# -- projection (the oracle's, which geodesic_distance fuses) ---------------------


def test_projection_values():
    assert project_to_sphere([3.0, 4.0]).numpy().tolist() == [0.6, 0.8]
    assert project_to_sphere([0.0, 0.0, 5.0]).numpy().tolist() == [0.0, 0.0, 1.0]
    np.testing.assert_allclose(
        project_to_sphere([1.0, 1.0]).numpy(),
        [1.0 / math.sqrt(2.0)] * 2,
        rtol=0,
        atol=1e-15,
    )


def test_projection_rejects_degenerate():
    with pytest.raises(DegenerateVectorError):
        project_to_sphere([0.0, 0.0])
    with pytest.raises(DegenerateVectorError):
        project_to_sphere([1e-13, 0.0])


@given(nonzero_vectors())
def test_projection_is_unit_norm(v):
    assert np.linalg.norm(project_to_sphere(v).numpy()) == pytest.approx(1.0, abs=1e-12)


# -- geodesic distance ----------------------------------------------------------


def test_geodesic_reference_points():
    assert geodesic_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]).item() == 0.0
    assert geodesic_distance([1.0, 0.0], [-1.0, 0.0]).item() == 1.0
    assert geodesic_distance([1.0, 0.0], [0.0, 1.0]).item() == 0.5


def test_geodesic_parallel_any_scale_is_zero():
    gen = np.random.default_rng(11)
    for _ in range(50):
        v = gen.normal(size=int(gen.integers(2, 17)))
        c = float(gen.uniform(0.05, 20.0))
        assert geodesic_distance(v, c * v).item() == 0.0
        assert geodesic_distance(v, -c * v).item() == 1.0


def test_geodesic_symmetry_exact():
    gen = np.random.default_rng(5)
    for _ in range(200):
        u = gen.normal(size=6)
        v = gen.normal(size=6)
        assert geodesic_distance(u, v).item() == geodesic_distance(v, u).item()


def test_geodesic_scale_invariance():
    gen = np.random.default_rng(9)
    for _ in range(200):
        u = gen.normal(size=5)
        v = gen.normal(size=5)
        base = geodesic_distance(u, v).item()
        scaled = geodesic_distance(3.7 * u, 0.2 * v).item()
        assert abs(base - scaled) < 1e-12


def test_geodesic_triangle_inequality():
    gen = np.random.default_rng(13)
    for _ in range(300):
        a, b, c = gen.normal(size=(3, 4))
        dab = geodesic_distance(a, b).item()
        dbc = geodesic_distance(b, c).item()
        dac = geodesic_distance(a, c).item()
        assert dac <= dab + dbc + 1e-9


@given(nonzero_vectors())
def test_geodesic_range(v):
    gen = np.random.default_rng(1)
    w = gen.normal(size=v.shape[0])
    d = geodesic_distance(v, w).item()
    assert 0.0 <= d <= 1.0


def test_geodesic_differentiable_through_both_args():
    with record():
        u = Tensor([1.0, 0.5], requires_grad=True)
        d = geodesic_distance(u, [0.0, 1.0])
        backward(d)
    assert u.grad is not None and np.isfinite(u.grad).all()
    assert np.linalg.norm(u.grad) > 0.0


def _geodesic_bits(distance, U, V, W, grad_u=True, grad_v=True, same=False):
    """Bytes of distance(u, v) and of the gradients of sum(w * distance)."""
    u = Tensor(U, requires_grad=grad_u)
    v = u if same else Tensor(V, requires_grad=grad_v)
    with record():
        d = distance(u, v)
        backward((d * Tensor(W)).sum())
    return [d.data.tobytes()] + [t.grad.tobytes() for t in (u, v) if t.requires_grad]


@pytest.mark.parametrize("grad_u, grad_v", [(True, False), (False, True), (True, True)])
@pytest.mark.parametrize("k", [1, 2, 7])
def test_geodesic_op_gives_the_oracle_bits_for_a_vector(grad_u, grad_v, k):
    gen = np.random.default_rng(k)
    for _ in range(20):
        U, V, W = gen.normal(size=k), gen.normal(size=k), gen.normal()
        want = _geodesic_bits(oracle_geodesic, U, V, W, grad_u, grad_v)
        assert _geodesic_bits(geodesic_distance, U, V, W, grad_u, grad_v) == want
        # one tensor as both inputs: v's contributions first, then u's
        want = _geodesic_bits(oracle_geodesic, U, None, W, same=True)
        assert _geodesic_bits(geodesic_distance, U, None, W, same=True) == want


@pytest.mark.parametrize("grad_u, grad_v", [(True, False), (False, True), (True, True)])
def test_geodesic_op_gives_each_row_the_oracle_bits_of_that_row(grad_u, grad_v):
    gen = np.random.default_rng(11)
    U, V, W = gen.normal(size=(9, 5)), gen.normal(size=(9, 5)), gen.normal(size=(9, 1))
    V[3] = -2.0 * U[3]  # antipodal: acos's flat cap, zero gradient
    got = _geodesic_bits(geodesic_distance, U, V, W, grad_u, grad_v)
    rows = [_geodesic_bits(oracle_geodesic, U[r], V[r], W[r, 0], grad_u, grad_v) for r in range(9)]
    for i, bits in enumerate(got):
        assert bits == b"".join(row[i] for row in rows)
    both = _geodesic_bits(geodesic_distance, U, None, W, same=True)
    rows = [_geodesic_bits(oracle_geodesic, U[r], None, W[r, 0], same=True) for r in range(9)]
    assert both == [b"".join(row[i] for row in rows) for i in range(3)]


_SHORT = "cannot project vector with norm"


@pytest.mark.parametrize(
    "u, v, error, message",
    [
        ([0.0, 0.0], [1.0, 0.0], DegenerateVectorError, f"{_SHORT} 0.000e+00 (<= 1e-12)"),
        ([1.0, 0.0], [1e-13, 0.0], DegenerateVectorError, f"{_SHORT} 1.000e-13 (<= 1e-12)"),
        ([0.0, 0.0], [np.nan, 0.0], DegenerateVectorError, f"{_SHORT} 0.000e+00 (<= 1e-12)"),
        ([1.0, np.nan], [1.0, 0.0], DomainError, "acos: input contains non-finite values"),
        (
            [1.0, 0.0],
            [[1.0, 0.0]],
            ShapeError,
            "geodesic_distance: shapes (2,) and (1, 2) must be equal 1-D or 2-D",
        ),
        (
            [[[1.0]]],
            [[[1.0]]],
            ShapeError,
            "geodesic_distance: shapes (1, 1, 1) and (1, 1, 1) must be equal 1-D or 2-D",
        ),
        (
            [[0.0, 1.0], [0.0, 0.0]],
            [[1.0, 0.0], [1.0, 0.0]],
            DegenerateVectorError,
            f"{_SHORT} 0.000e+00 (<= 1e-12)",
        ),
    ],
)
def test_geodesic_op_errors(u, v, error, message):
    with pytest.raises(error) as caught:
        geodesic_distance(u, v)
    assert type(caught.value) is error
    assert str(caught.value) == message
    if np.ndim(u) == np.ndim(v) == 1:  # the unfused 1-D chain fails alike
        with pytest.raises(error) as chained:
            oracle_geodesic(u, v)
        assert type(chained.value) is error
        assert str(chained.value) == message


# -- euclidean distance ---------------------------------------------------------


def test_euclidean_values():
    assert euclidean_distance([0.0, 0.0], [3.0, 4.0]).item() == 5.0
    assert euclidean_distance([1.0, 2.0], [1.0, 2.0]).item() == 0.0
    assert euclidean_distance([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]).item() == pytest.approx(
        math.sqrt(3.0), abs=1e-15
    )


# -- centroids ------------------------------------------------------------------


def test_centroid_midpoint():
    table = compute_centroids([0, 0], [[0.0, 0.0], [2.0, 2.0]])
    assert table.vectors([0]).tolist() == [[1.0, 1.0]]


def test_centroid_single_sample_class():
    table = compute_centroids([3], [[4.0, -1.0]])
    assert table.classes.tolist() == [3]
    assert table.matrix.tolist() == [[4.0, -1.0]]


def test_centroid_two_classes():
    table = compute_centroids([1, 0, 0], [[5.0, 5.0], [1.0, 0.0], [0.0, 1.0]])
    assert table.classes.tolist() == [0, 1]
    assert table.matrix.tolist() == [[0.5, 0.5], [5.0, 5.0]]
    with pytest.raises(KeyError, match="class 2"):
        table.vectors([2])


def test_centroid_permutation_stable():
    gen = np.random.default_rng(2)
    labels, X = np.arange(12) % 3, gen.normal(size=(12, 4))
    base = compute_centroids(labels, X)
    order = gen.permutation(12)
    perm = compute_centroids(labels[order], X[order])
    assert base.classes.tolist() == perm.classes.tolist() == [0, 1, 2]
    assert np.abs(base.matrix - perm.matrix).max() < 1e-12


def loop_centroids(labels, X):
    # the reference: each class's running sum, one row at a time
    sums, counts = {}, {}
    for class_id, vec in zip(labels.tolist(), X):
        sums[class_id] = sums[class_id] + vec if class_id in sums else vec.copy()
        counts[class_id] = counts.get(class_id, 0) + 1
    return {c: sums[c] / counts[c] for c in sums}


@pytest.mark.parametrize("dim", [1, 32])
def test_centroid_sums_match_the_loop_bitwise(dim):
    # 1-column rows are where a pairwise reduction would differ; the labels
    # are shuffled, so each class's rows are spread over the input
    gen = np.random.default_rng(dim)
    labels = gen.permutation(np.repeat(np.arange(5), [16, 17, 23, 40, 31]))
    X = gen.normal(size=(len(labels), dim)) * 10.0 ** gen.integers(-8, 9, size=(len(labels), 1))
    table = compute_centroids(labels, X)
    expected = loop_centroids(labels, X)
    assert table.classes.tolist() == sorted(expected)
    for c, vec in expected.items():
        assert table.vectors([c])[0].tobytes() == vec.tobytes()


def test_centroid_dim_mismatch():
    # a label count that differs from the row count, either way
    with pytest.raises(ShapeError, match=r"shapes \(2,\) and \(3, 2\)"):
        compute_centroids([0, 0], [[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ShapeError, match=r"shapes \(3,\) and \(2, 2\)"):
        compute_centroids([0, 0, 1], [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize(
    "labels, embeddings",
    [
        ([0, 1], [1.0, 2.0]),
        ([[0], [1]], [[1.0], [2.0]]),
        ([0, 1], [[[1.0]], [[2.0]]]),
        (0, [[1.0]]),
    ],
    ids=["embeddings-1d", "labels-2d", "embeddings-3d", "labels-0d"],
)
def test_centroid_shapes_are_n_and_n_by_k(labels, embeddings):
    with pytest.raises(ShapeError, match=r"are not \(n,\) and \(n, k\)"):
        compute_centroids(labels, embeddings)


def test_centroid_empty_rejected():
    with pytest.raises(ValueError, match="empty input"):
        compute_centroids(np.zeros(0, dtype=np.int64), np.zeros((0, 3)))


def test_centroid_lookup_unknown_class():
    table = compute_centroids([0], [[1.0, 1.0]])
    with pytest.raises(KeyError, match="no centroid for class 7"):
        table.vectors([7])


def test_centroid_vectors_are_rows_in_the_order_asked():
    table = compute_centroids([5, 0, 2], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    got = table.vectors([2, 5, 5, 0])
    assert got.tolist() == [[5.0, 6.0], [1.0, 2.0], [1.0, 2.0], [3.0, 4.0]]
    got[0, 0] = 9.0  # the rows are the caller's copy
    assert table.vectors([2]).tolist() == [[5.0, 6.0]]
    # a class between, past or before the stored ones is named
    for ids, missing in (([0, 3, 9], 3), ([9], 9), ([-1, 0], -1)):
        with pytest.raises(KeyError, match=f"no centroid for class {missing}"):
            table.vectors(ids)


def test_centroid_table_is_frozen():
    table = compute_centroids([0, 1], [[1.0, 1.0], [2.0, 0.0]])
    assert [f.name for f in dataclasses.fields(table)] == ["classes", "matrix"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.matrix = np.zeros((2, 2))
    with pytest.raises(ValueError, match="read-only"):
        table.matrix[0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        table.classes[0] = 5
    assert table.vectors([0, 1]).tolist() == [[1.0, 1.0], [2.0, 0.0]]
