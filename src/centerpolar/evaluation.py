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
differences summed in order; metric="geodesic" takes the angle of the
coordinate products summed in order), with ties broken by ascending sample
id, so exactly tied items stay tied.  The metrics read only whether each
rank holds an item of the query's class, so `evaluate` ranks that
relevance, never column indices.  It puts the queries and the gallery
columns in one class order (class by class, ids ascending within a class),
so a query's own column is its own row and its class's columns are one
range.  It works one block of queries at a time and takes a cheap key per
gallery column from one BLAS product, the same key for both metrics, as
the geodesic rows are unit vectors.  Each key carries its column's
relevance in its last mantissa bit, set over the class's column range, the
query's own column is set to -inf, and only the K + 2 smallest keys of a
row are sorted, in place, K being the deepest rank a metric reads.  A row
keeps that order only where a rounding bound, which allows for the tag,
certifies that it equals the distance order (see `_ranked_relevance`);
such a row has no ties, so the column order cannot show in it.  Every
other row (an exact or near tie, a NaN) falls back to the distances and a
stable full sort of its columns in id order, so the result is the same,
bit for bit, as sorting every row.  The metrics go back to sample order
before the means.
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
# query-by-gallery keys held at once.  Median `evaluate` of 31, interleaved
# (seed-0 `full` model, 2-vCPU Xeon, one BLAS thread) at 2^15, 2^16 and 2^17:
# euclidean 38.4, 31.8 and 37.8 ms at gallery 799, 224, 199 and 189 ms at
# gallery 1999; geodesic 32.0, 32.5 and 36.1 ms, 221, 197 and 189 ms.  2^17
# wins only at gallery 1999, by 5%, and loses 10-20% at gallery 799.  The
# size also reaches training: freeing the key buffer, above glibc's initial
# 128 KiB mmap threshold, raises that threshold for the rest of the process,
# so the next `train` keeps its per-batch loss_dom buffers (about 260 KB) on
# the heap.  At 2^14 (125 KiB at gallery 799) it does not, and each `full`
# train in a generate + train + evaluate loop took 320 minor page faults,
# not 67 (same machine).
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
    by_rank = np.ascontiguousarray(within.T)
    hits = np.cumsum(by_rank, axis=0, dtype=np.int32)
    precision = hits / np.arange(1, len(hits) + 1)[:, None]
    precision *= by_rank
    # each row's precisions add in rank order: reducing the slow axis adds
    # one rank's vector of rows at a time.  A single row would be summed
    # pairwise along its contiguous axis (see tensor._sum_parts), so it
    # takes the running sum, which adds in order
    if precision.shape[1] == 1:
        return np.cumsum(precision, axis=0)[-1] / R
    return np.add.reduce(precision, axis=0) / R


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
    ids = ds.ids
    if metric == "geodesic":
        norms = np.sqrt((E * E).sum(axis=1))
        # a norm whose square overflows would leave a zero row, not a unit one
        bad = np.nonzero((norms <= EPS_PROJECTION) | (norms == np.inf))[0]
        if bad.size:
            raise DegenerateVectorError(
                f"geodesic ranking: embedding of sample {int(ids[bad[0]])} "
                "has near-zero or overflowing norm"
            )
        E = E / norms[:, None]
    _, label_index, class_sizes = np.unique(ds.labels, return_inverse=True, return_counts=True)
    # queries and gallery columns in one order, class by class and by id
    # within a class: row i's own column is i, its class's columns lo:hi
    order = np.lexsort((ids, label_index))
    E, column_ids, codes = E[order], ids[order], label_index[order]
    gallery = E.T.copy()
    gallery_sq = np.einsum("ij,ij->j", gallery, gallery)
    hi = np.cumsum(class_sizes)[codes]
    lo = hi - class_sizes[codes]
    R = hi - lo - 1
    scored = R > 0
    recalls = {k: np.empty(n) for k in RECALL_KS}
    rp, mp = np.empty(n), np.empty(n)
    rows = max(1, _BLOCK_ENTRIES // n)
    keys = np.empty((min(rows, n), n))  # every block's keys, in one buffer
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        # the deepest rank a metric reads, plus one for the query's own column
        width = max(int(R[block].max()), RECALL_KS[-1]) + 1
        relevant = _ranked_relevance(
            E[block], gallery, gallery_sq, start, lo[block], hi[block], column_ids, metric,
            width, keys,
        )
        for k in RECALL_KS:
            recalls[k][block] = recall_at_k(relevant, k)
        keep = scored[block]
        R_keep = R[block][keep]
        within = relevant if keep.all() else relevant[keep]
        within = within & (np.arange(width - 1) < R_keep[:, None])
        rp[block][keep] = r_precision(within, R_keep)
        mp[block][keep] = map_at_r(within, R_keep)
    # back to sample order, so the means are left-to-right sums in sample order
    back = np.argsort(order)
    scored = scored[back]
    return DomainMetrics(
        recall_at={k: _mean(recalls[k][back].tolist()) for k in RECALL_KS},
        r_precision=_mean(rp[back][scored].tolist()) if scored.any() else 0.0,
        map_at_r=_mean(mp[back][scored].tolist()) if scored.any() else 0.0,
        queries=n,
        skipped_zero_relevant=int(n - scored.sum()),
    )


def _distances(Q: np.ndarray, gallery_t: np.ndarray, metric: str) -> np.ndarray:
    """Distances from each row of Q to each column of gallery_t (unit vectors
    for the geodesic metric).  Euclidean adds (q_j - g_j)^2 over j in order,
    geodesic takes the angle, over pi, of q_j g_j added over j in order: so
    no row's distances depend on the rows it is computed with."""
    D = np.zeros((Q.shape[0], gallery_t.shape[1]))
    if metric == "geodesic":
        for q_j, g_j in zip(Q.T, gallery_t):
            D += q_j[:, None] * g_j
        return np.arccos(np.clip(D, -1.0, 1.0)) / math.pi
    for q_j, g_j in zip(Q.T, gallery_t):
        D += (q_j[:, None] - g_j) ** 2
    return np.sqrt(D)


def _ranked_relevance(
    Q, gallery_t, gallery_sq, start, lo, hi, column_ids, metric: str, width: int, out
):
    """Whether the items at ranks 1 .. width - 1 of each row share the
    query's class (bool, len(Q) by width - 1).  Rows and columns are in
    class order: row i is the query of column start + i, and its class
    holds columns lo[i]:hi[i].  The ranks are those of
    `_distances(Q, gallery_t, metric)`, by distance and then by
    `column_ids`, with the row's own column put first, at rank 0, so each
    query is left out.  No metric reads more than whether a rank holds the
    query's class, so no column order is built.

    Each row is ranked by the key A = |q|^2 + |g|^2 - 2 q.g, from one BLAS
    product of -2 Q (a power of two, so exact but for underflow) written
    into the first len(Q) rows of `out`.  It serves both metrics: the
    geodesic rows are unit vectors, on which the angle, like the distance,
    grows as q.g falls.  The last mantissa bit of each key is cleared, then
    set on the query's class range, once for each run of rows of one class,
    and the own column is set to -inf; an in-place partition and a sort of
    the `width` + 1 smallest keys then carry the relevance to its rank.
    Past rank 0, every gap of those keys must exceed the row's slack
    (`_euclidean_slack`, which allows for the tag); then the key order is
    the distance order, no two distances tie, and no column past the cut
    can enter it.  Other rows are ranked again from `_distances`, columns
    in id order, with a stable sort.
    """
    rows, n = len(Q), gallery_t.shape[1]
    q_sq = np.einsum("ij,ij->i", Q, Q)
    key = np.matmul(Q * -2.0, gallery_t, out=out[:rows])
    key += gallery_sq
    key += q_sq[:, None]
    slack = _euclidean_slack(q_sq, gallery_sq.max(), Q.shape[1])
    tagged = key.view(np.uint64)
    tagged &= ~np.uint64(1)
    runs = [0, *(np.flatnonzero(np.diff(lo)) + 1).tolist(), rows]
    for a, b in zip(runs, runs[1:]):
        tagged[a:b, lo[a] : hi[a]] |= np.uint64(1)
    np.fill_diagonal(key[:, start : start + rows], -np.inf)
    # the own column, the `width` - 1 ranks read and, where there is one, the next
    key.partition(min(width, n - 1), axis=1)
    near = key[:, : width + 1]
    near.sort(axis=1)
    relevant = (near[:, 1:width].view(np.uint64) & 1).astype(bool)
    redo = np.flatnonzero(~(np.diff(near[:, 1:], axis=1) > slack[:, None]).all(axis=1))
    if redo.size:
        by_id = np.argsort(column_ids, kind="stable")
        exact = _distances(Q[redo], gallery_t, metric)
        exact[np.arange(redo.size), start + redo] = -np.inf
        ranked = by_id[np.argsort(exact[:, by_id], axis=1, kind="stable")[:, 1:width]]
        relevant[redo] = (lo[redo, None] <= ranked) & (ranked < hi[redo, None])
    return relevant


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

    For "geodesic" the same certificate orders the angles.  The rows are
    computed unit rows: each norm's sum of squares errs by g_d, its root
    and each quotient by u, so |q|^2 and |g|^2 lie within h = g_{d+4} of 1.
    With G = g_{d+3} > 4u, e >= 2 G M^2 >= 7.99 G (M^2 >= 4 - 4h),
    h <= 1.25 G and g_d < G.  A certified pair has S_b - S_a >
    3.48 e - 2 g_{d+2} M^2 > 2.48 e, so the exact dot products
    s = (|q|^2 + |g|^2 - S) / 2 have s_a - s_b > 1.24 e - h > 8.6 G.
    `_distances` takes the cosine c as q_j g_j added in order, so
    |c - s| <= g_d (1 + h) < G (underflow in the products adds at most
    d 2^-1074, far below u) and c_a - c_b > 6.6 G.
    As |c| <= (1 + h)(1 + g_d) < 1 + 2.3 G, at most one of the two lies
    outside [-1, 1], and the clipped cosines stay more than 4.3 G > 17 u
    apart; arccos falls with slope at most -1, so their exact angles differ
    by as much.  np.arccos is assumed within one unit in the last place of
    the angle, the tolerance numpy's own accuracy tests hold float64
    arccos to (the worst seen over 44,000 cosines, many near -1 and 1, on
    an AVX-512 CPU was 0.79).  Below pi < 4 that is at most 4 u, so the
    computed angles differ by more than 9 u and their quotients by fl(pi)
    by more than 2.8 u, over the 2 u that any float below 2 is rounded
    from: the two distances stay distinct and in the order of the keys.
    """
    k = (dim + 3) * _UNIT_ROUNDOFF
    reach = (np.sqrt(q_sq) + np.sqrt(max_gallery_sq)) ** 2
    return np.where(reach >= _MIN_REACH, 8 * k / (1 - k) * reach, np.inf)


def _mean(values) -> float:
    return sum(values) / len(values)
