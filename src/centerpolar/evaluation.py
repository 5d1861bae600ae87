"""Leave-one-out retrieval evaluation.

Metrics follow the standard definitions: Recall@k is the per-query hit
indicator within the top k averaged over queries, for each k of RECALL_KS;
with R the number of same-class gallery items, R-Precision is r/R for r
hits in the top R, and MAP@R averages precision-at-i over the relevant
positions i <= R (counting missed ones as zero). Queries with R = 0 are
excluded from the R-based aggregates and reported.  Each block of queries
ranks its relevance once (whether each rank holds an item of the query's
class); the metrics read that matrix, or its hits within each row's first
R ranks.

Ranking is exact: each query's gallery is ordered by ascending
`_distances`, the one definition of the distance (squared coordinate
differences summed in order; metric="geodesic" takes the angle), with ties
broken by ascending sample id, so exactly tied items stay tied.  The
metrics read only whether each rank holds an item of the query's class,
so `evaluate` ranks that relevance, never column indices.  It works one
block of queries at a time and takes a cheap key per gallery column (one
BLAS product; for "geodesic" the distance itself).  Each key carries its
column's relevance in its last mantissa bit, the query's own column is set
to -inf, and only the K + 2 smallest keys of a row are sorted, in place,
K being the deepest rank a metric reads.  A row keeps that order only
where a rounding bound, which allows for the tag, certifies that it
equals the distance order (see `_ranked_relevance`).  Every other row (an
exact or near tie, a NaN) falls back to the distances and a stable full
sort, so the result is the same, bit for bit, as sorting every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import schema
from .data import DataSet
from .geometry import EPS_PROJECTION, DegenerateVectorError

METRICS = ("euclidean", "geodesic")
RECALL_KS = (1, 2)
# query-by-gallery keys held at once.  Median `evaluate` of 31 (seed-0 `full`
# model, 2-vCPU Xeon) at 2^15, 2^16 and 2^17: euclidean 40.3, 40.6 and 40.8 ms
# at gallery 799, 277, 249 and 225 ms at gallery 1999; geodesic 50, 47 and 65
# ms, 313, 285 and 369 ms.  2^17 wins only for euclidean at gallery 1999.
_BLOCK_ENTRIES = 1 << 16


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
        headers = ["domain"] + [f"R@{k}" for k in RECALL_KS] + ["RP", "MAP"]
        table = [headers] + [
            [name]
            + [f"{m.recall_at[k]:.4f}" for k in RECALL_KS]
            + [f"{m.r_precision:.4f}", f"{m.map_at_r:.4f}"]
            for name, m in [*self.domains.items(), ("average", self.average)]
        ]
        widths = [max(len(r[c]) for r in table) for c in range(len(headers))]
        return "".join("  ".join(v.ljust(w) for v, w in zip(r, widths)) + "\n" for r in table)


def recall_at_k(relevant, k):
    """1.0 for each row of `relevant` (ranked hits) with a hit in its first k ranks."""
    return relevant[:, :k].any(axis=1).astype(np.float64)


def r_precision(within, R):
    """r/R for each row of `within` (the hits in its first R ranks), r its hits."""
    return within.sum(axis=1) / R


def map_at_r(within, R):
    """For each row of `within` (the hits in its first R ranks), precision at
    each hit's rank, summed in rank order and divided by R."""
    hits = np.cumsum(within, axis=1)
    precision = np.where(within, hits / np.arange(1, hits.shape[1] + 1), 0.0)
    # cumsum adds left to right, as the running sum over ranks does
    return np.cumsum(precision, axis=1)[np.arange(len(R)), R - 1] / R


def evaluate(model, tests: dict, metric: str = "euclidean") -> RetrievalReport:
    """Leave-one-out retrieval over each test domain, averaged across domains."""
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    if not tests:
        raise ValueError("evaluate: no test sets given")
    check_domains(tests)
    domains = {name: _evaluate_domain(model, ds, metric) for name, ds in tests.items()}
    avg = DomainMetrics(
        recall_at={k: _mean([m.recall_at[k] for m in domains.values()]) for k in RECALL_KS},
        r_precision=_mean([m.r_precision for m in domains.values()]),
        map_at_r=_mean([m.map_at_r for m in domains.values()]),
        queries=sum(m.queries for m in domains.values()),
        skipped_zero_relevant=sum(m.skipped_zero_relevant for m in domains.values()),
    )
    return RetrievalReport(domains=domains, average=avg, query_count=avg.queries, metric=metric)


def check_domains(tests: dict) -> None:
    """ValueError unless each domain of `tests` has a gallery (the domain
    less the query) of at least the largest of RECALL_KS."""
    k = RECALL_KS[-1]
    for name, ds in tests.items():
        if k > len(ds) - 1:
            raise ValueError(
                f"evaluate: domain {name!r}: recall k={k} exceeds gallery size {len(ds) - 1}"
            )


def _evaluate_domain(model, ds: DataSet, metric: str) -> DomainMetrics:
    n = len(ds)
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
    recalls = {k: np.empty(n) for k in RECALL_KS}
    rp, mp = np.empty(n), np.empty(n)
    rows = max(1, _BLOCK_ENTRIES // n)
    keys = np.empty((min(rows, n), n))  # every block's keys, in one buffer
    same_class = np.empty(keys.shape, dtype=np.uint64)  # and its relevance bits
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        Q = E[block]
        tags = np.equal(labels[block, None], gallery_labels, out=same_class[: len(Q)])
        # the deepest rank a metric reads, plus one for the query's own column
        width = max(int(R[block].max()), RECALL_KS[-1]) + 1
        relevant = _ranked_relevance(
            Q, gallery, gallery_sq, own_column[block], tags, metric, width, keys
        )
        for k in RECALL_KS:
            recalls[k][block] = recall_at_k(relevant, k)
        keep = scored[block]
        R_keep = R[block][keep]
        within = relevant[keep] & (np.arange(width - 1) < R_keep[:, None])
        rp[block][keep] = r_precision(within, R_keep)
        mp[block][keep] = map_at_r(within, R_keep)
    # means over the queries in sample order, as a left-to-right sum
    return DomainMetrics(
        recall_at={k: _mean(recalls[k].tolist()) for k in RECALL_KS},
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


def _ranked_relevance(Q, gallery_t, gallery_sq, own, same_class, metric: str, width: int, out):
    """Whether the items at ranks 1 .. width - 1 of each row share the
    query's class (bool, len(Q) by width - 1).  The ranks are those of a
    stable argsort of `_distances(Q, gallery_t, metric)`, by distance and
    then by column, with the row's own column `own` put first, at rank 0,
    so each query is left out.  `same_class` holds each column's 1 or 0;
    no metric reads more than these bits, so no column order is built.

    Each row is ranked by a key, the distance itself for "geodesic" and
    A = |q|^2 + |g|^2 - 2 q.g from one BLAS product for "euclidean".  The
    last mantissa bit of each key is set to its column's `same_class` bit
    and the own column to -inf; an in-place partition and a sort of the
    `width` + 1 smallest keys then carry the relevance to its rank.  Past
    rank 0, every gap of those keys must exceed the row's slack
    (`_euclidean_slack` and `_GEODESIC_SLACK` allow for the tag); then the
    key order is the distance order and no column past the cut can enter
    it.  Other rows are ranked again from `_distances` with a stable sort.
    The "euclidean" key is written into the first len(Q) rows of `out`.
    """
    rows, n = len(Q), gallery_t.shape[1]
    if metric == "geodesic":
        key = _distances(Q, gallery_t, metric)
        slack = np.full(rows, _GEODESIC_SLACK)
    else:
        q_sq = np.einsum("ij,ij->i", Q, Q)
        key = np.matmul(Q, gallery_t, out=out[:rows])
        key *= -2.0
        key += gallery_sq
        key += q_sq[:, None]
        slack = _euclidean_slack(q_sq, gallery_sq.max(), Q.shape[1])
    tagged = key.view(np.uint64)
    tagged &= ~np.uint64(1)
    tagged |= same_class
    key[np.arange(rows), own] = -np.inf
    # the own column, the `width` - 1 ranks read and, where there is one, the next
    key.partition(min(width, n - 1), axis=1)
    near = key[:, : width + 1]
    near.sort(axis=1)
    relevant = (near[:, 1:width].view(np.uint64) & 1).astype(bool)
    redo = np.flatnonzero(~(np.diff(near[:, 1:], axis=1) > slack[:, None]).all(axis=1))
    if redo.size:
        exact = _distances(Q[redo], gallery_t, metric)
        exact[np.arange(redo.size), own[redo]] = -np.inf
        order = np.argsort(exact, axis=1, kind="stable")[:, 1:width]
        relevant[redo] = np.take_along_axis(same_class[redo], order, axis=1) != 0
    return relevant


_UNIT_ROUNDOFF = 2.0**-53
_MIN_REACH = 2.0**-500  # below it, underflow could outweigh the rounding bound
# A geodesic key is the distance itself, in [0, 1], so untagged keys rank
# exactly; the tag moves each by at most one unit in its last place, 2^-52,
# and a tagged gap over two such moves leaves the untagged keys in order.
_GEODESIC_SLACK = 2.0**-51


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
    computed from.  `_ranked_relevance` compares tagged keys: setting the
    last mantissa bit moves a key by at most one unit in its last place,
    2 u |A| <= 2.01 u M^2 (a subnormal key moves by 2^-1074, far below u M^2
    at M^2 >= _MIN_REACH), so two keys move by at most 4.02 u M^2 <= 0.51 e
    together, as e >= 8 u M^2.  Two tagged keys a < b of a row whose
    computed gap exceeds 4e thus differ by more than 3.48 e before tagging,
    once the check's own rounding is taken off, and have
    D2_b - D2_a > 1.48 e: D2 is in the order of the tagged keys.  That gap
    exceeds 11 u D2_b, and the exact roots differ by more than
    5.5 u sqrt(D2_b), over 2 units in the last place of the larger: sqrt
    cannot merge the two into one distance, whose tie the column would
    break.  A query whose M^2 is not finite or is below _MIN_REACH, where
    underflow could break the relative bounds, gets an infinite slack,
    which no gap exceeds.
    """
    k = (dim + 3) * _UNIT_ROUNDOFF
    reach = (np.sqrt(q_sq) + np.sqrt(max_gallery_sq)) ** 2
    return np.where(reach >= _MIN_REACH, 8 * k / (1 - k) * reach, np.inf)


def _mean(values) -> float:
    return sum(values) / len(values)
