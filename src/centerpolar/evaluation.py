"""Leave-one-out retrieval evaluation.

Metrics follow the standard definitions: Recall@k is the per-query hit
indicator within the top k averaged over queries; with R the number of
same-class gallery items, R-Precision is r/R for r hits in the top R, and
MAP@R averages precision-at-i over the relevant positions i <= R (counting
missed ones as zero). Queries with R = 0 are excluded from the R-based
aggregates and reported.

Ranking, in `rank_neighbors` and `evaluate` alike, is by ascending distance
with ties broken by ascending sample id.  Distances are computed directly
(squared coordinate differences summed in order; metric="geodesic" takes
the angle), so exactly tied items stay tied, and `evaluate` computes them
one block of queries at a time.
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


def rank_neighbors(query_embed, gallery_embeds, gallery_ids=None) -> np.ndarray:
    """Indices of gallery rows by ascending Euclidean distance to the query.

    Ties are broken by ascending sample id so the ranking is deterministic
    under any gallery permutation.
    """
    q = np.asarray(query_embed, dtype=np.float64).reshape(1, -1)
    G = np.asarray(gallery_embeds, dtype=np.float64)
    if G.ndim != 2 or G.shape[1] != q.shape[1]:
        raise ValueError(
            f"rank_neighbors: gallery shape {G.shape} does not match query dim {q.shape[1]}"
        )
    by_id = np.arange(len(G)) if gallery_ids is None else np.argsort(gallery_ids, kind="stable")
    dists = _distances(q, G[by_id].T, "euclidean")[0]
    return by_id[np.argsort(dists, kind="stable")]


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
    recall_ks = tuple(sorted(set(int(k) for k in recall_ks)))
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
        order = np.argsort(_distances(E[block], gallery, metric), axis=1, kind="stable")
        # leave each query out by its own column; ids are unique
        order = order[order != own_column[block, None]].reshape(-1, n - 1)
        ranked = gallery_labels[order]
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


def _mean(values) -> float:
    return sum(values) / len(values)
