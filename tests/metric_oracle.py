"""Independent retrieval-metric oracle, pure python, and the full-sort
reference that `evaluate`'s top-K ranking is held to.

The `oracle_*` functions are written straight from the metric definitions
with no shared code or numpy: ranking by sorted() on (distance, id) pairs,
hit counting by explicit loops, and exact rationals via fractions.Fraction
next to the float-accumulation variants the production code is expected to
reproduce bit for bit.  `reference_evaluate_domain` is the slow numpy path
that sorts every whole row; it shares `_distances` and the metric
functions with the package, so only the ranking differs.  `relevance_rows`
turns one relevance list into the matrices the metric functions read.
"""

import math
from fractions import Fraction

import numpy as np

from centerpolar.evaluation import (
    _BLOCK_ENTRIES,
    RECALL_KS,
    DomainMetrics,
    _distances,
    _mean,
    map_at_r,
    r_precision,
    recall_at_k,
)
from centerpolar.geometry import EPS_PROJECTION


def relevance_rows(relevance):
    """(relevant, within, R) of one ranked list's relevance: the one-row
    matrix of its hits, the hits within its first R ranks, and R, its hit
    count, as `evaluate` hands them to the metric functions."""
    relevant = np.array([relevance], dtype=bool)
    R = relevant.sum(axis=1)
    return relevant, relevant & (np.arange(relevant.shape[1]) < R[:, None]), R


def oracle_recall_at_k(relevance, k):
    """1.0 if any of the first k ranked items is relevant."""
    return 1.0 if any(relevance[:k]) else 0.0


def oracle_r_precision(relevance):
    R = sum(1 for r in relevance if r)
    if R == 0:
        return None
    return sum(1 for r in relevance[:R] if r) / R


def oracle_r_precision_exact(relevance):
    R = sum(1 for r in relevance if r)
    if R == 0:
        return None
    return Fraction(sum(1 for r in relevance[:R] if r), R)


def oracle_map_at_r(relevance):
    """Float accumulation in rank order: sum of hits/(rank) over relevant
    ranks within the top R, divided by R at the end."""
    R = sum(1 for r in relevance if r)
    if R == 0:
        return None
    hits = 0
    total = 0.0
    for i in range(R):
        if relevance[i]:
            hits += 1
            total += hits / (i + 1)
    return total / R


def oracle_map_at_r_exact(relevance):
    R = sum(1 for r in relevance if r)
    if R == 0:
        return None
    hits = 0
    total = Fraction(0)
    for i in range(R):
        if relevance[i]:
            hits += 1
            total += Fraction(hits, i + 1)
    return total / R


def oracle_distance(query_vec, vec):
    """Euclidean distance: squared coordinate differences added left to right.

    Squares are `e * e`, which is correctly rounded; `e ** 2` goes through
    the C library's pow, and `sum()` may compensate, so either can move the
    last bit.
    """
    total = 0.0
    for a, b in zip(query_vec, vec):
        e = a - b
        total += e * e
    return math.sqrt(total)


def oracle_rank(query_vec, gallery, ids):
    """Gallery order by ascending euclidean distance, ties by ascending id."""
    keyed = []
    for vec, sid in zip(gallery, ids):
        keyed.append((oracle_distance(query_vec, vec), sid, vec))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [sid for _d, sid, _v in keyed]


def oracle_leave_one_out(vectors, labels, ids, recall_ks=(1, 2)):
    """Per-query (recalls, rp, map) plus domain means, all pure python.

    Queries with no same-class gallery item are skipped for RP/MAP but kept
    in the recall means, mirroring the reporting contract.
    """
    n = len(vectors)
    per_query = []
    recall_sums = {k: 0.0 for k in recall_ks}
    rp_vals = []
    map_vals = []
    skipped = 0
    for q in range(n):
        gallery = [vectors[i] for i in range(n) if i != q]
        g_ids = [ids[i] for i in range(n) if i != q]
        g_labels = {ids[i]: labels[i] for i in range(n)}
        ranked = oracle_rank(vectors[q], gallery, g_ids)
        relevance = [g_labels[sid] == labels[q] for sid in ranked]
        recalls = {k: oracle_recall_at_k(relevance, k) for k in recall_ks}
        for k in recall_ks:
            recall_sums[k] += recalls[k]
        rp = oracle_r_precision(relevance)
        mp = oracle_map_at_r(relevance)
        if rp is None:
            skipped += 1
        else:
            rp_vals.append(rp)
            map_vals.append(mp)
        per_query.append((ids[q], recalls, rp, mp))
    means = {
        "recall_at": {k: recall_sums[k] / n for k in recall_ks},
        "r_precision": sum(rp_vals) / len(rp_vals) if rp_vals else 0.0,
        "map_at_r": sum(map_vals) / len(map_vals) if map_vals else 0.0,
        "queries": n,
        "skipped_zero_relevant": skipped,
    }
    return per_query, means


def reference_evaluate_domain(model, ds, metric):
    """One domain's metrics from a stable argsort of every whole row of
    `_distances`, with each query's own column dropped."""
    n = len(ds)
    E = model.embed_many(ds.features)
    ids, labels = ds.ids, ds.labels
    if metric == "geodesic":
        norms = np.sqrt((E * E).sum(axis=1))
        assert (norms > EPS_PROJECTION).all()
        E = E / norms[:, None]
    by_id = np.argsort(ids, kind="stable")
    gallery = E[by_id].T.copy()
    gallery_labels = labels[by_id]
    own_column = np.argsort(by_id)
    _, label_index, class_sizes = np.unique(labels, return_inverse=True, return_counts=True)
    R = class_sizes[label_index] - 1
    scored = R > 0
    recalls = {k: np.empty(n) for k in RECALL_KS}
    rp, mp = np.empty(n), np.empty(n)
    rows = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        order = np.argsort(_distances(E[block], gallery, metric), axis=1, kind="stable")
        order = order[order != own_column[block, None]].reshape(-1, n - 1)
        relevant = gallery_labels[order] == labels[block, None]
        for k in RECALL_KS:
            recalls[k][block] = recall_at_k(relevant, k)
        keep = scored[block]
        R_keep = R[block][keep]
        within = relevant[keep] & (np.arange(n - 1) < R_keep[:, None])
        rp[block][keep] = r_precision(within, R_keep)
        mp[block][keep] = map_at_r(within, R_keep)
    return DomainMetrics(
        recall_at={k: _mean(recalls[k].tolist()) for k in RECALL_KS},
        r_precision=_mean(rp[scored].tolist()) if scored.any() else 0.0,
        map_at_r=_mean(mp[scored].tolist()) if scored.any() else 0.0,
        queries=n,
        skipped_zero_relevant=int(n - scored.sum()),
    )
