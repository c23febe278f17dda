'''Ranking quality metrics and their deterministic JSON report.

Recall@k is a hit rate: the fraction of queries with at least one relevant
reference in the top k. Precision@k averages (#relevant in top k)/k, and
mean average precision at k divides by min(#relevant, k) so a perfect
prefix scores 1. A query with no relevant references contributes 0 to all
three means.

write_report stores a report through dataset.write_json: keys sorted, each
float at its shortest repr that reads back to the same value.
'''

from dataclasses import dataclass

import numpy as np

from .dataset import write_json
from .retrieval import check_k

__all__ = [
    "MetricsReport",
    "ranking_metrics",
    "write_report",
]


@dataclass
class MetricsReport:
    '''Aggregate ranking metrics at several cutoffs.

    Attributes:
        ks: Ascending cutoffs the metrics were computed at.
        recall_at: Mean recall@k per cutoff.
        precision_at: Mean precision@k per cutoff.
        map_at: Mean average precision at k per cutoff.
        query_count: Number of queries aggregated.
        answerable_query_count: Queries with at least one answerable entry.
    '''

    ks: tuple
    recall_at: dict
    precision_at: dict
    map_at: dict
    query_count: int
    answerable_query_count: int


def ranking_metrics(results, relevance, ks) -> MetricsReport:
    '''Aggregate ranking metrics over retrieval results.

    Args:
        results: Iterable of RetrievalResult (or anything exposing
            query_index and ranked the same way).
        relevance: RelevanceMap giving the relevant set per query.
        ks: Cutoffs, each an integer (not a bool) between 1 and the
            reference count. Every result must carry at least max(ks)
            distinct reference ids, each inside the relevance map.

    Returns:
        MetricsReport with one value per cutoff.
    '''
    ks = tuple(sorted({int(check_k(k, required=True)) for k in ks}))
    if not ks:
        raise ValueError("need at least one cutoff k")
    if ks[-1] > relevance.n_references:
        raise ValueError(
            f"k={ks[-1]} exceeds the reference count {relevance.n_references}")
    results = list(results)
    if not results:
        raise ValueError("need at least one retrieval result")
    max_k = ks[-1]
    recall_sum = dict.fromkeys(ks, 0.0)
    precision_sum = dict.fromkeys(ks, 0.0)
    ap_sum = dict.fromkeys(ks, 0.0)
    answerable = 0
    for res in results:
        qi = res.query_index
        if not 0 <= qi < relevance.n_queries:
            raise ValueError(f"query index {qi} outside [0, {relevance.n_queries})")
        refs = [r for r, _, _ in res.ranked]
        if len(refs) < max_k:
            raise ValueError(
                f"result for query {qi} has {len(refs)} entries, needs {max_k}")
        if len(set(refs)) != len(refs):
            raise ValueError(f"result for query {qi} has duplicate references")
        if not 0 <= min(refs) <= max(refs) < relevance.n_references:
            raise ValueError(
                f"result for query {qi} has a reference id outside "
                f"[0, {relevance.n_references})")
        if any(not un for _, _, un in res.ranked):
            answerable += 1
        rel = relevance.relevant[qi]
        hit = np.array([r in rel for r in refs[:max_k]], dtype=np.float64)
        cum_hits = np.cumsum(hit)
        precision_prefix = cum_hits / np.arange(1, max_k + 1)
        ap_prefix = np.cumsum(precision_prefix * hit)
        for k in ks:
            if rel:
                # hit rate, not a proportion of the relevant set
                recall_sum[k] += 1.0 if cum_hits[k - 1] > 0 else 0.0
                ap_sum[k] += ap_prefix[k - 1] / min(len(rel), k)
            precision_sum[k] += cum_hits[k - 1] / k
    n = len(results)
    return MetricsReport(
        ks=ks,
        recall_at={k: recall_sum[k] / n for k in ks},
        precision_at={k: precision_sum[k] / n for k in ks},
        map_at={k: ap_sum[k] / n for k in ks},
        query_count=n,
        answerable_query_count=answerable,
    )


def write_report(report: MetricsReport, path):
    '''Write a MetricsReport as deterministic JSON via write_json.'''
    write_json(path, {
        "ks": list(report.ks),
        "recall_at": {str(k): float(report.recall_at[k]) for k in report.ks},
        "precision_at": {str(k): float(report.precision_at[k]) for k in report.ks},
        "map_at": {str(k): float(report.map_at[k]) for k in report.ks},
        "query_count": report.query_count,
        "answerable_query_count": report.answerable_query_count,
    })
