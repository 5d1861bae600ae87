import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from centerpolar.geometry import (
    DegenerateVectorError,
    compute_centroids,
    euclidean_distance,
    geodesic_distance,
    project_to_sphere,
)
from centerpolar.tensor import ShapeError, Tensor, backward, record

unit_range = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


def nonzero_vectors(dim_min=2, dim_max=8):
    return (
        st.lists(unit_range, min_size=dim_min, max_size=dim_max)
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
    )


# -- projection -----------------------------------------------------------------


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


# -- euclidean distance ---------------------------------------------------------


def test_euclidean_values():
    assert euclidean_distance([0.0, 0.0], [3.0, 4.0]).item() == 5.0
    assert euclidean_distance([1.0, 2.0], [1.0, 2.0]).item() == 0.0
    assert euclidean_distance([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]).item() == pytest.approx(
        math.sqrt(3.0), abs=1e-15
    )


# -- centroids ------------------------------------------------------------------


def test_centroid_midpoint():
    table = compute_centroids([(0, [0.0, 0.0]), (0, [2.0, 2.0])])
    assert table.vector(0).tolist() == [1.0, 1.0]


def test_centroid_single_sample_class():
    table = compute_centroids([(3, [4.0, -1.0])])
    assert table.vector(3).tolist() == [4.0, -1.0]
    assert table.counts[3] == 1


def test_centroid_two_classes():
    table = compute_centroids(
        [(0, [1.0, 0.0]), (0, [0.0, 1.0]), (1, [5.0, 5.0])]
    )
    assert table.vector(0).tolist() == [0.5, 0.5]
    assert table.vector(1).tolist() == [5.0, 5.0]
    assert table.counts == {0: 2, 1: 1}
    with pytest.raises(KeyError, match="class 2"):
        table.vector(2)


def test_centroid_permutation_stable():
    gen = np.random.default_rng(2)
    items = [(int(i % 3), gen.normal(size=4)) for i in range(12)]
    base = compute_centroids(items)
    perm = compute_centroids([items[i] for i in gen.permutation(12)])
    assert base.counts == perm.counts == {0: 4, 1: 4, 2: 4}
    for c in base.counts:
        assert np.abs(base.vector(c) - perm.vector(c)).max() < 1e-12


def loop_centroids(items):
    # the reference: each class's running sum, one vector at a time
    sums, counts = {}, {}
    for class_id, vec in items:
        vec = np.asarray(vec, dtype=np.float64)
        sums[class_id] = sums[class_id] + vec if class_id in sums else vec.copy()
        counts[class_id] = counts.get(class_id, 0) + 1
    return {c: sums[c] / counts[c] for c in sums}, counts


@pytest.mark.parametrize("dim", [1, 32])
def test_centroid_sums_match_the_loop_bitwise(dim):
    # 1-column rows are where a pairwise reduction would differ
    gen = np.random.default_rng(dim)
    labels = gen.permutation(np.repeat(np.arange(5), [16, 17, 23, 40, 31]))
    X = gen.normal(size=(len(labels), dim)) * 10.0 ** gen.integers(-8, 9, size=(len(labels), 1))
    table = compute_centroids(zip(labels.tolist(), X))
    expected, counts = loop_centroids(zip(labels.tolist(), X))
    assert table.counts == counts
    for c, vec in expected.items():
        assert table.vector(c).tobytes() == vec.tobytes()


def test_centroid_dim_mismatch():
    with pytest.raises(ShapeError):
        compute_centroids([(0, [1.0, 2.0]), (0, [1.0, 2.0, 3.0])])


def test_centroid_first_bad_vector_named():
    with pytest.raises(ShapeError, match="vector for class 4 is not 1-D"):
        compute_centroids([(0, [1.0, 2.0]), (4, [[1.0, 2.0]]), (1, [1.0])])
    with pytest.raises(ShapeError, match="mixed dims 2 and 1"):
        compute_centroids([(0, [1.0, 2.0]), (4, [1.0]), (1, [[1.0, 2.0]])])
    with pytest.raises(ShapeError, match="vector for class 3 is not 1-D"):
        compute_centroids([(3, 1.0), (4, 2.0)])


def test_centroid_empty_rejected():
    with pytest.raises(ValueError):
        compute_centroids([])


def test_centroid_lookup_unknown_class():
    table = compute_centroids([(0, [1.0, 1.0])])
    with pytest.raises(KeyError):
        table.vector(7)


def test_centroid_vectors_are_rows_in_the_order_asked():
    table = compute_centroids([(5, [1.0, 2.0]), (0, [3.0, 4.0]), (2, [5.0, 6.0])])
    got = table.vectors([2, 5, 5, 0])
    assert got.tolist() == [[5.0, 6.0], [1.0, 2.0], [1.0, 2.0], [3.0, 4.0]]
    assert np.array_equal(got, np.stack([table.vector(c) for c in [2, 5, 5, 0]]))
    got[0, 0] = 9.0  # the rows are the caller's copy
    assert table.vector(2).tolist() == [5.0, 6.0]
    # a class between, past or before the stored ones is named
    for ids, missing in (([0, 3, 9], 3), ([9], 9), ([-1, 0], -1)):
        with pytest.raises(KeyError, match=f"no centroid for class {missing}"):
            table.vectors(ids)


def test_centroid_table_is_frozen():
    table = compute_centroids([(0, [1.0, 1.0]), (1, [2.0, 0.0])])
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.counts = {}
    with pytest.raises(ValueError, match="read-only"):
        table.vector(0)[0] = 5.0
    assert table.vectors([0, 1]).tolist() == [[1.0, 1.0], [2.0, 0.0]]
