"""Leave-one-out retrieval evaluation.

Metrics follow the standard definitions: Recall@k is the per-query hit
indicator within the top k averaged over queries; with R the number of
same-class gallery items, R-Precision is r/R for r hits in the top R, and
MAP@R averages precision-at-i over the relevant positions i <= R (counting
missed ones as zero). Queries with R = 0 are excluded from the R-based
aggregates and reported.

Ranking is exact: each query's gallery is ordered by ascending
`_distances`, the one definition of the distance (squared coordinate
differences summed in order; metric="geodesic" takes the angle), with ties
broken by ascending sample id, so exactly tied items stay tied.  `evaluate`
works one block of queries at a time and orders only the first K + 1
columns of each row, K being the deepest rank a metric reads.  It finds
them from a cheap key (one BLAS product; for "geodesic" the distance
itself) and keeps a row's key order only where a rounding bound certifies
that it equals the distance order (see `_first_columns`).  Every other
row (an exact or near tie, a NaN) falls back to the distances and a stable
full sort, so the result is the same, bit for bit, as sorting every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import schema
from .data import DataSet
from .geometry import EPS_PROJECTION, DegenerateVectorError

METRICS = ("euclidean", "geodesic")
_BLOCK_ENTRIES = 1 << 16  # query-by-gallery distances held at once


@dataclass(frozen=True)
class DomainMetrics:
    recall_at: dict
    r_precision: float
    map_at_r: float
    queries: int
    skipped_zero_relevant: int

    def to_dict(self) -> dict:
        return schema.to_dict(self)


@dataclass(frozen=True)
class RetrievalReport:
    domains: dict
    average: DomainMetrics
    query_count: int
    metric: str

    def to_dict(self) -> dict:
        return schema.to_dict(self)

    def to_text(self) -> str:
        ks = sorted(next(iter(self.domains.values())).recall_at) if self.domains else []
        headers = ["domain"] + [f"R@{k}" for k in ks] + ["RP", "MAP"]
        table = [headers] + [
            [name]
            + [f"{m.recall_at[k]:.4f}" for k in ks]
            + [f"{m.r_precision:.4f}", f"{m.map_at_r:.4f}"]
            for name, m in [*self.domains.items(), ("average", self.average)]
        ]
        widths = [max(len(r[c]) for r in table) for c in range(len(headers))]
        return "".join("  ".join(v.ljust(w) for v, w in zip(r, widths)) + "\n" for r in table)


def _per_query(metric):
    """Turns a metric of the relevance of each query's top `cutoff` ranks into
    one taking ranked labels: 2-D with one row, query label and cutoff per
    query (one value per row), or one ranked list with scalars (a float)."""

    def from_ranked(ranked_labels, query_label, cutoff):
        ranked = np.atleast_2d(ranked_labels)
        cutoff = np.asarray(cutoff).reshape(-1)
        bad = (cutoff < 1) | (cutoff > ranked.shape[1])
        if bad.any():
            raise ValueError(
                f"{metric.__name__}: cutoff {cutoff[bad][0]} outside [1, {ranked.shape[1]}]"
            )
        width = int(cutoff.max(initial=0))
        relevant = ranked[:, :width] == np.asarray(query_label).reshape(-1, 1)
        values = metric(relevant & (np.arange(width) < cutoff[:, None]), cutoff)
        return float(values[0]) if np.ndim(ranked_labels) == 1 else values

    from_ranked.__name__ = from_ranked.__qualname__ = metric.__name__
    return from_ranked


@_per_query
def recall_at_k(relevant, k):
    return relevant.any(axis=1).astype(np.float64)


@_per_query
def r_precision(relevant, R):
    return relevant.sum(axis=1) / R


@_per_query
def map_at_r(relevant, R):
    hits = np.cumsum(relevant, axis=1)
    precision = np.where(relevant, hits / np.arange(1, hits.shape[1] + 1), 0.0)
    # cumsum adds left to right, as the running sum over ranks does
    return np.cumsum(precision, axis=1)[np.arange(len(R)), R - 1] / R


def evaluate(model, tests: dict, recall_ks=(1, 2), metric: str = "euclidean") -> RetrievalReport:
    """Leave-one-out retrieval over each test domain, averaged across domains."""
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    if not tests:
        raise ValueError("evaluate: no test sets given")
    ks = [schema.integer(k, "evaluate: recall_ks") for k in recall_ks]
    if not ks or min(ks) < 1:
        raise ValueError(f"evaluate: recall_ks must be non-empty, each k >= 1, got {recall_ks!r}")
    recall_ks = tuple(sorted(set(ks)))
    domains = {name: _evaluate_domain(model, ds, recall_ks, metric) for name, ds in tests.items()}
    avg = DomainMetrics(
        recall_at={
            k: _mean([m.recall_at[k] for m in domains.values()]) for k in recall_ks
        },
        r_precision=_mean([m.r_precision for m in domains.values()]),
        map_at_r=_mean([m.map_at_r for m in domains.values()]),
        queries=sum(m.queries for m in domains.values()),
        skipped_zero_relevant=sum(m.skipped_zero_relevant for m in domains.values()),
    )
    return RetrievalReport(domains=domains, average=avg, query_count=avg.queries, metric=metric)


def _evaluate_domain(model, ds: DataSet, recall_ks, metric: str) -> DomainMetrics:
    n = len(ds)
    if n < 2:
        raise ValueError(f"evaluate: domain needs at least 2 samples, got {n}")
    if max(recall_ks) > n - 1:
        raise ValueError(
            f"evaluate: recall k={max(recall_ks)} exceeds gallery size {n - 1}"
        )
    E = model.embed_many(ds.features)
    ids, labels = ds.ids, ds.labels
    if metric == "geodesic":
        norms = np.sqrt((E * E).sum(axis=1))
        bad = np.nonzero(norms <= EPS_PROJECTION)[0]
        if bad.size:
            raise DegenerateVectorError(
                f"geodesic ranking: embedding of sample {int(ids[bad[0]])} has near-zero norm"
            )
        E = E / norms[:, None]
    # gallery columns in id order, so a stable sort breaks ties by id
    by_id = np.argsort(ids, kind="stable")
    gallery = E[by_id].T.copy()
    gallery_sq = np.einsum("ij,ij->j", gallery, gallery)
    gallery_labels = labels[by_id]
    own_column = np.argsort(by_id)
    _, label_index, class_sizes = np.unique(labels, return_inverse=True, return_counts=True)
    R = class_sizes[label_index] - 1
    scored = R > 0
    recalls = {k: np.empty(n) for k in recall_ks}
    rp, mp = np.empty(n), np.empty(n)
    rows = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        # the deepest rank a metric reads, plus one for the query's own column
        width = max(int(R[block].max()), recall_ks[-1]) + 1
        order = _first_columns(E[block], gallery, gallery_sq, metric, width)
        # leave each query out by its own column, else by the last one kept
        own = order == own_column[block, None]
        own[:, -1] |= ~own.any(axis=1)
        ranked = gallery_labels[order[~own].reshape(-1, width - 1)]
        query = labels[block]
        for k in recall_ks:
            recalls[k][block] = recall_at_k(ranked, query, k)
        keep = scored[block]
        rp[block][keep] = r_precision(ranked[keep], query[keep], R[block][keep])
        mp[block][keep] = map_at_r(ranked[keep], query[keep], R[block][keep])
    # means over the queries in sample order, as a left-to-right sum
    return DomainMetrics(
        recall_at={k: _mean(recalls[k].tolist()) for k in recall_ks},
        r_precision=_mean(rp[scored].tolist()) if scored.any() else 0.0,
        map_at_r=_mean(mp[scored].tolist()) if scored.any() else 0.0,
        queries=n,
        skipped_zero_relevant=int(n - scored.sum()),
    )


def _distances(Q: np.ndarray, gallery_t: np.ndarray, metric: str) -> np.ndarray:
    """Distances from each row of Q to each column of gallery_t (unit vectors
    for the geodesic metric); euclidean adds (q_j - g_j)^2 over j in order."""
    if metric == "geodesic":
        return np.arccos(np.clip(Q @ gallery_t, -1.0, 1.0)) / math.pi
    D = np.zeros((Q.shape[0], gallery_t.shape[1]))
    for q_j, g_j in zip(Q.T, gallery_t):
        D += (q_j[:, None] - g_j) ** 2
    return np.sqrt(D)


def _first_columns(Q, gallery_t, gallery_sq, metric: str, width: int) -> np.ndarray:
    """The first `width` columns of each row of a stable argsort of
    `_distances(Q, gallery_t, metric)`: by distance, then by column.

    Each row is ranked by a key, the distance itself for "geodesic" and
    A = |q|^2 + |g|^2 - 2 q.g from one BLAS product for "euclidean".  Of
    the `width` smallest keys and the first one past them, every gap must
    exceed the row's slack (`_euclidean_slack`, 0 for "geodesic"); then the
    key order is the distance order and no column past the cut can enter
    it.  Other rows are ranked again from `_distances` with a stable sort.
    """
    n = gallery_t.shape[1]
    if metric == "geodesic":
        key = _distances(Q, gallery_t, metric)
        slack = np.zeros(len(Q))
    else:
        q_sq = np.einsum("ij,ij->i", Q, Q)
        key = Q @ gallery_t
        key *= -2.0
        key += gallery_sq
        key += q_sq[:, None]
        slack = _euclidean_slack(q_sq, gallery_sq.max(), Q.shape[1])
    # the `width` smallest keys and, where there is one, the next
    near = np.argpartition(key, min(width, n - 1), axis=1)[:, : width + 1]
    # gathers by flat index into the C-ordered rows
    rows = np.arange(len(near))[:, None]
    near_key = key.take(near + rows * n)
    by_key = np.argsort(near_key, axis=1) + rows * near.shape[1]
    order = near.take(by_key[:, :width])
    gaps = np.diff(near_key.take(by_key), axis=1)
    redo = np.flatnonzero(~(gaps > slack[:, None]).all(axis=1))
    if redo.size:
        exact = key[redo] if metric == "geodesic" else _distances(Q[redo], gallery_t, metric)
        order[redo] = np.argsort(exact, axis=1, kind="stable")[:, :width]
    return order


_UNIT_ROUNDOFF = 2.0**-53
_MIN_REACH = 2.0**-500  # below it, underflow could outweigh the rounding bound


def _euclidean_slack(q_sq, max_gallery_sq, dim: int) -> np.ndarray:
    """4e per query: the gap each pair of neighbouring keys must exceed.

    e = 2 g_{d+3} (|q| + max|g|)^2 bounds |A - D2|, where D2 is the sum
    `_distances` takes the root of and A the key, with g_k = k u / (1 - k u)
    and u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., sec. 3.1: the bounds hold in any summation order and with FMA).
    Write M = |q| + |g|, S = |q - g|^2 <= M^2 and d for the dimension:

    - D2 adds d terms fl(fl(q_j - g_j)^2) = (q_j - g_j)^2 (1 + t_3) to zero
      in order, so |D2 - S| <= g_{d+2} S <= g_{d+2} M^2;
    - |q|^2 and |g|^2 carry a relative error of at most g_d, the product
      |fl(q.g) - q.g| <= g_d |q| |g|, and the two additions of the key
      round values below (1 + g_{d+1}) M^2, so |A - S| <= g_{d+2} M^2.

    The extra g_{d+3} - g_{d+2} covers the rounding of the norms that M is
    computed from.  Two keys a < b of a row whose computed gap exceeds 4e
    have D2_b - D2_a > 1.99 e once the check's own rounding is taken off,
    so D2 is in the order of A.  As e >= 8 u M^2, that gap exceeds
    15 u D2_b, and the exact roots differ by more than 7 u sqrt(D2_b), over
    3 units in the last place of the larger: sqrt cannot merge the two
    into one distance, whose tie the column would break.  A query
    whose M^2 is not finite or is below _MIN_REACH, where underflow could
    break the relative bounds, gets an infinite slack, which no gap exceeds.
    """
    k = (dim + 3) * _UNIT_ROUNDOFF
    reach = (np.sqrt(q_sq) + np.sqrt(max_gallery_sq)) ** 2
    return np.where(reach >= _MIN_REACH, 8 * k / (1 - k) * reach, np.inf)


def _mean(values) -> float:
    return sum(values) / len(values)
