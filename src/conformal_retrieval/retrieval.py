'''Ranking references for queries with a calibrated model.

References are ordered by fused stage-one value (descending) because the
second stage is a monotone step function of it: sorting by the fused value
refines probability ties without ever contradicting the probabilities.
Ties break toward the smaller reference index. Combinations with no
observable modality pair sink to the tail with probability 0 and an
unanswerable flag. Exact and shortlist retrieval differ only in their
candidate set, which one score_grid call scores and one ranking orders.
One ordering helper serves that ranking, the shortlist's per-pair
candidate pick and the raw-score baseline.
'''

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import (DataFormatError, check_count, read_csv, validated_ids,
                      write_csv)
from .pipeline import check_compatible, score_grid
from .similarity import cosine_bounds, pairwise_score_table

__all__ = [
    "RetrievalResult",
    "retrieve",
    "retrieve_shortlist",
    "batch_retrieve",
    "heuristic_baseline",
    "check_k",
    "write_results_csv",
    "read_results_csv",
]

# the flag is text, so that only "0" and "1" pass where an int would take "01"
_RESULTS_COLUMNS = (("query_id", int), ("rank", int), ("reference_id", int),
                    ("probability", float), ("unanswerable", str))


@dataclass
class RetrievalResult:
    '''Ranked references for one query.

    ranked holds (reference_id, probability, unanswerable) triples, best
    first.
    '''

    query_index: int
    ranked: list


def _top(reference_ids, scores, k):
    '''Positions of the best k scores (all when k is None): score
    descending, then the smaller reference id. Only the scores at or above
    the k-th largest, ties included, are sorted.'''
    k = scores.size if k is None else min(k, scores.size)
    kth = np.partition(scores, scores.size - k)[scores.size - k]
    cand = np.flatnonzero(scores >= kth)
    return cand[np.lexsort((reference_ids[cand], -scores[cand]))[:k]]


def _check_alpha(value, name: str):
    '''value itself; ValueError naming it unless it is a finite real number
    of at least 1 that is not a bool.'''
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real)
            or not 1.0 <= value < math.inf):
        raise ValueError(
            f"{name} must be a finite number of at least 1, got {value!r}")
    return value


def check_k(k):
    '''k itself; ValueError unless k is None or an integer of at least 1
    that is not a bool.'''
    return k if k is None else check_count(k, "k")


def _results(query_ids, reference_ids, order, reported, answerable, k) -> list:
    '''One RetrievalResult per grid row: the row's best k references by
    order (every one when k is None), best first, each with its reported
    value and unanswerable flag.'''
    results = []
    for row, qi in enumerate(query_ids):
        top = _top(reference_ids, order[row], k)
        results.append(RetrievalResult(int(qi), list(zip(
            reference_ids[top].tolist(), reported[row, top].tolist(),
            (~answerable[row, top]).tolist()))))
    return results


def _ranked(model, dataset, query_index, reference_ids, k) -> RetrievalResult:
    '''The best k of the candidate references (every one when None) for one
    query, scored by one score_grid call.'''
    probs, fused, answerable = score_grid(model, dataset, [query_index], reference_ids)
    if reference_ids is None:
        reference_ids = np.arange(dataset.n_references)
    return _results([query_index], reference_ids, fused, probs, answerable, k)[0]


def retrieve(model, dataset, query_index: int, k=None) -> RetrievalResult:
    '''Rank every reference for one query.

    Args:
        model: Fitted CalibratedModel.
        dataset: Dataset with the matching schema fingerprint.
        query_index: Query to rank references for.
        k: Return only the best k entries; all references when None.

    Returns:
        RetrievalResult with probabilities non-increasing down the list.
    '''
    check_k(k)
    return _ranked(model, dataset, query_index, None, k)


def retrieve_shortlist(model, dataset, query_index: int, k: int,
                       alpha: float = 4.0) -> RetrievalResult:
    '''Rank only a shortlist of candidates gathered per modality pair.

    Each modality pair observable for the query nominates its top
    ceil(alpha * k) references by raw score, among those that observe the
    pair; the union is then scored and ranked exactly like retrieve. With a
    budget covering every reference the result is identical to exact
    retrieval; smaller budgets trade recall for speed. An alpha past the
    reference count is such a budget. References with no observable pair
    at all stay out of the shortlist. A union short of k means fewer than
    k are answerable and the union holds them all; the query is then
    ranked over every reference, as retrieve ranks it. So every list has
    min(k, n_references) entries, the unanswerable last and flagged.

    Each pick screens, then refines. similarity.cosine_bounds bounds every
    reference's cosine with one float32 product; the references whose
    upper bound reaches the budget-th largest lower bound are the only
    ones that can make the pick, and they alone are scored exactly and
    ranked. Every bound holds the exact cosine, so the budget-th largest
    lower bound is at most the budget-th largest exact cosine, and each
    reference of the exact pick survives the screen: the nominated set is
    the one a full exact row would give, whatever bits BLAS gives the
    screen. An overflowing float32 dot gets unbounded bounds and survives.

    Args:
        model: Fitted CalibratedModel.
        dataset: Dataset with the matching schema fingerprint.
        query_index: Query to rank references for.
        k: Number of results wanted.
        alpha: Over-fetch factor, a finite number of at least 1, not a bool.
    '''
    check_count(k, "k")
    _check_alpha(alpha, "alpha")
    check_compatible(model, dataset)
    validated_ids([query_index], dataset.n_queries, "query")
    # no pair has more candidates than references, so capping both factors
    # there keeps a huge alpha or k off float overflow
    n = dataset.n_references
    budget = math.ceil(min(alpha, n) * min(k, n))
    qmods = dataset.schema.query_modalities
    rmods = dataset.schema.reference_modalities
    union = np.zeros(n, dtype=bool)
    for qmod, rmod in model.first_stage:
        if not dataset.query_mask[query_index, qmods.index(qmod)]:
            continue
        observed = dataset.reference_mask[:, rmods.index(rmod)]
        take = min(budget, int(np.count_nonzero(observed)))
        if not take:
            continue
        # screen, then score exactly only what can still make the pick
        lower, upper = cosine_bounds(dataset, (qmod, rmod), query_index)
        lower = np.where(observed, lower, -np.inf)
        kth = np.partition(lower, n - take)[n - take]
        cand = np.flatnonzero(observed & (upper >= kth))
        values, _ = pairwise_score_table(dataset, (qmod, rmod), [query_index], cand)
        union[cand[_top(cand, values[0], take)]] = True
    picked = np.flatnonzero(union)
    # picked.size is a Python int, so that a huge k does not overflow
    return _ranked(model, dataset, query_index, None if picked.size < k else picked, k)


def batch_retrieve(model, dataset, query_ids=None, k=None, mode: str = "exact",
                   shortlist_alpha: float = 4.0, workers: int = 1) -> list:
    '''Retrieve for many queries, optionally across threads.

    Results are independent per query, so the worker count never changes
    the output, only the wall time.

    Args:
        model: Fitted CalibratedModel.
        dataset: Dataset with the matching schema fingerprint.
        query_ids: Queries to process, in output order; all when None.
        k: Entries per query; all references when None.
        mode: "exact" or "shortlist".
        shortlist_alpha: Over-fetch factor for shortlist mode, checked in
            either mode as retrieve_shortlist checks alpha.
        workers: Thread count, an integer of at least 1.

    Returns:
        List of RetrievalResult aligned with query_ids.
    '''
    if mode not in ("exact", "shortlist"):
        raise ValueError(f"unknown retrieval mode {mode!r}")
    check_count(workers, "workers")
    _check_alpha(shortlist_alpha, "shortlist_alpha")
    check_count(k, "k") if mode == "shortlist" else check_k(k)
    ids = validated_ids(query_ids, dataset.n_queries, "query").tolist()

    def job(qi):
        if mode == "shortlist":
            return retrieve_shortlist(model, dataset, qi, k, shortlist_alpha)
        return retrieve(model, dataset, qi, k)

    if workers == 1:
        return [job(qi) for qi in ids]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, ids))


def heuristic_baseline(dataset, priority, query_ids=None, k=None) -> list:
    '''Rank references by raw scores from the first usable modality pair.

    For each (query, reference) combination the pairs in `priority` are
    tried in order and the first one observable for that combination
    supplies its raw cosine score; later pairs never overwrite it. The
    scores land in one ranking even though each pair lives on its own
    scale, which is exactly the comparison a calibrated pipeline is meant
    to win. Combinations with no usable pair sink to the tail flagged
    unanswerable with a score of -inf.

    Args:
        dataset: MultimodalDataset to score.
        priority: Non-empty sequence of (query modality, reference
            modality) pairs, each covered by a shared space.
        query_ids: Queries to rank, in output order; all when None.
        k: Entries per query; all references when None.

    Returns:
        List of RetrievalResult whose middle tuple element is the raw
        score that produced the rank, not a calibrated probability.
    '''
    priority = [tuple(pair) for pair in priority]
    if not priority:
        raise ValueError("priority must name at least one modality pair")
    if len(set(priority)) != len(priority):
        raise ValueError("priority lists a modality pair twice")
    for pair in priority:
        if dataset.schema.space_for(*pair) is None:
            raise ValueError(f"modality pair {pair} has no shared space")
    check_k(k)
    ids = validated_ids(query_ids, dataset.n_queries, "query")
    refs = np.arange(dataset.n_references)

    scores = np.full((ids.size, refs.size), -np.inf)
    filled = np.zeros(scores.shape, dtype=bool)
    for pair in priority:
        values, observed = pairwise_score_table(dataset, pair, ids, refs)
        take = observed & ~filled
        scores[take] = values[take]
        filled |= observed
    # the raw score both orders the row and is reported in place of a
    # probability
    return _results(ids, refs, scores, scores, filled, k)


def _results_from_rows(rows, where) -> list:
    '''Group (query_id, rank, reference_id, probability, flag) rows into
    results. Each query's rows must form one contiguous block ranked 1, 2,
    ... that names each reference once, ids must be non-negative, no
    probability NaN (-inf is a baseline score and stays) and the flag "0"
    or "1"; anything else is DataFormatError.'''
    results, listed = [], set()
    for qid, rank, ref, prob, flag in rows:
        if qid < 0 or ref < 0:
            raise DataFormatError(f"{where}: query {qid} rank {rank} has a negative id")
        if math.isnan(prob):
            raise DataFormatError(f"{where}: query {qid} rank {rank} has probability NaN")
        if flag not in ("0", "1"):
            raise DataFormatError(f"{where}: unanswerable must be 0 or 1, got {flag!r}")
        if qid not in listed:
            listed.add(qid)
            results.append(RetrievalResult(qid, []))
            refs = set()
        elif qid != results[-1].query_index:
            raise DataFormatError(f"{where}: rows for query {qid} are split")
        if rank != len(refs) + 1:
            raise DataFormatError(f"{where}: query {qid} rank {rank} is out of sequence")
        if ref in refs:
            raise DataFormatError(f"{where}: query {qid} lists reference {ref} twice")
        refs.add(ref)
        results[-1].ranked.append((ref, prob, flag == "1"))
    return results


def write_results_csv(path, results):
    '''Write retrieval results with 1-based ranks. A list that
    read_results_csv would refuse is DataFormatError, and nothing is
    written.'''
    rows = [(res.query_index, rank, ref, prob, "1" if unanswerable else "0")
            for res in results
            for rank, (ref, prob, unanswerable) in enumerate(res.ranked, start=1)]
    _results_from_rows(rows, path)
    write_csv(path, _RESULTS_COLUMNS, rows)


def read_results_csv(path) -> list:
    '''Read a file written by write_results_csv.'''
    return _results_from_rows(read_csv(path, _RESULTS_COLUMNS), path)
