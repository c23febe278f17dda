'''
Metric tests against hand-computed values and a brute-force reference.

Hand-worked fixture (5 references):
  query 0: relevant {1, 3}, ranked [3, 0, 1, 2, 4]
  query 1: relevant {},     ranked [0, 1, 2, 3, 4]
  query 2: relevant {0},    ranked [4, 2, 0, 1, 3]
Recall is a hit rate: recall@1 = (1 + 0 + 0) / 3, recall@3 = (1 + 0 + 1) / 3.
precision@3 = (2/3 + 0 + 1/3) / 3, AP@3 for query 0 = (1 + 2/3) / 2, for
query 2 = 1/3, so map@3 = (5/6 + 0 + 1/3) / 3 = 7/18.
'''

import json

import numpy as np
import pytest

from conformal_retrieval.dataset import RelevanceMap
from conformal_retrieval.metrics import (
    MetricsReport,
    ranking_metrics,
    write_report,
)
from conformal_retrieval.retrieval import RetrievalResult


def entry(ref, prob=0.5, unanswerable=False):
    return (ref, prob, unanswerable)


def as_result(qi, refs, flags=None):
    flags = flags or [False] * len(refs)
    probs = np.linspace(0.9, 0.1, len(refs))
    return RetrievalResult(qi, [
        (r, float(p), f) for r, p, f in zip(refs, probs, flags)])


@pytest.fixture
def hand_fixture():
    relevance = RelevanceMap(3, 5, (frozenset({1, 3}), frozenset(), frozenset({0})))
    results = [
        as_result(0, [3, 0, 1, 2, 4]),
        as_result(1, [0, 1, 2, 3, 4]),
        as_result(2, [4, 2, 0, 1, 3]),
    ]
    return results, relevance


class TestRankingMetrics:
    def test_hand_worked_values(self, hand_fixture):
        results, relevance = hand_fixture
        report = ranking_metrics(results, relevance, ks=(1, 3))
        assert report.ks == (1, 3)
        assert report.recall_at[1] == pytest.approx(1 / 3, abs=1e-12)
        assert report.recall_at[3] == pytest.approx(2 / 3, abs=1e-12)
        assert report.precision_at[1] == pytest.approx(1 / 3, abs=1e-12)
        assert report.precision_at[3] == pytest.approx(1 / 3, abs=1e-12)
        assert report.map_at[1] == pytest.approx(1 / 3, abs=1e-12)
        assert report.map_at[3] == pytest.approx(7 / 18, abs=1e-12)
        assert report.query_count == 3
        assert report.answerable_query_count == 3

    def test_single_hit_at_rank_one(self):
        relevance = RelevanceMap(1, 3, (frozenset({2}),))
        report = ranking_metrics([as_result(0, [2, 0, 1])], relevance, ks=(1,))
        assert report.recall_at[1] == 1.0
        assert report.precision_at[1] == 1.0
        assert report.map_at[1] == 1.0

    def test_hit_rate_averages_over_queries(self):
        # one hit at rank 3 plus one miss gives recall@5 of one half
        relevance = RelevanceMap(2, 6, (frozenset({4}), frozenset({5})))
        results = [as_result(0, [0, 1, 4, 2, 3]), as_result(1, [0, 1, 2, 3, 4])]
        report = ranking_metrics(results, relevance, ks=(5,))
        assert report.recall_at[5] == 0.5

    def test_recall_is_non_decreasing_in_k(self):
        rng = np.random.default_rng(42)
        n_ref = 15
        for _ in range(20):
            ranked = rng.permutation(n_ref).tolist()
            rel = frozenset(int(r) for r in rng.choice(n_ref, size=3, replace=False))
            relevance = RelevanceMap(1, n_ref, (rel,))
            report = ranking_metrics([as_result(0, ranked)], relevance,
                                     ks=(1, 2, 5, 10))
            values = [report.recall_at[k] for k in report.ks]
            assert values == sorted(values)

    def test_average_precision_matches_brute_force(self):
        # independent AP implementation, swept over random rankings
        rng = np.random.default_rng(42)
        n_ref, k = 12, 5
        for _ in range(50):
            ranked = rng.permutation(n_ref)
            rel = frozenset(int(r) for r in
                            rng.choice(n_ref, size=rng.integers(0, 5), replace=False))
            relevance = RelevanceMap(1, n_ref, (rel,))
            report = ranking_metrics([as_result(0, ranked.tolist())], relevance, ks=(k,))
            hits = 0
            ap = 0.0
            for i in range(k):
                if int(ranked[i]) in rel:
                    hits += 1
                    ap += hits / (i + 1)
            expect = ap / min(len(rel), k) if rel else 0.0
            assert report.map_at[k] == pytest.approx(expect, abs=1e-12)

    def test_ks_exceeding_list_length_rejected(self, hand_fixture):
        results, relevance = hand_fixture
        with pytest.raises(ValueError, match="k"):
            ranking_metrics(results, relevance, ks=(6,))
        short = [RetrievalResult(0, [entry(0), entry(1)])]
        with pytest.raises(ValueError, match="entries"):
            ranking_metrics(short, RelevanceMap(1, 5, (frozenset({0}),)), ks=(3,))

    def test_truncated_lists_are_accepted_when_long_enough(self):
        relevance = RelevanceMap(1, 100, (frozenset({7}),))
        results = [as_result(0, [7, 3, 9])]
        report = ranking_metrics(results, relevance, ks=(3,))
        assert report.recall_at[3] == 1.0

    def test_duplicate_reference_rejected(self):
        relevance = RelevanceMap(1, 5, (frozenset({0}),))
        bad = [RetrievalResult(0, [entry(1), entry(1), entry(2)])]
        with pytest.raises(ValueError, match="duplicate"):
            ranking_metrics(bad, relevance, ks=(2,))

    def test_answerable_count_ignores_fully_flagged_queries(self, hand_fixture):
        _, relevance = hand_fixture
        results = [
            as_result(0, [3, 0, 1, 2, 4]),
            as_result(1, [0, 1, 2, 3, 4], flags=[True] * 5),
            as_result(2, [4, 2, 0, 1, 3], flags=[False, True, True, True, True]),
        ]
        report = ranking_metrics(results, relevance, ks=(1,))
        assert report.query_count == 3
        assert report.answerable_query_count == 2

    def test_bad_ks_rejected(self, hand_fixture):
        results, relevance = hand_fixture
        with pytest.raises(ValueError):
            ranking_metrics(results, relevance, ks=())
        with pytest.raises(ValueError):
            ranking_metrics(results, relevance, ks=(0,))

    @pytest.mark.parametrize("k", [2.7, True, "3"])
    def test_non_integer_cutoff_refused(self, hand_fixture, k):
        # refused, not truncated to 2, 1 or 3
        results, relevance = hand_fixture
        with pytest.raises(ValueError, match="k must be an integer"):
            ranking_metrics(results, relevance, ks=(k,))

    def test_query_index_out_of_range_rejected(self):
        relevance = RelevanceMap(2, 5, (frozenset(), frozenset()))
        with pytest.raises(ValueError, match="query"):
            ranking_metrics([as_result(5, [0, 1, 2])], relevance, ks=(1,))


class TestWriteReport:
    def test_written_json_parses_back(self, tmp_path, hand_fixture):
        results, relevance = hand_fixture
        report = ranking_metrics(results, relevance, ks=(1, 3))
        path = tmp_path / "report.json"
        write_report(report, path)
        doc = json.loads(path.read_text())
        assert doc["ks"] == [1, 3]
        assert doc["recall_at"]["3"] == 2 / 3
        assert doc["query_count"] == 3
        assert doc["answerable_query_count"] == 3

    def test_byte_deterministic(self, tmp_path, hand_fixture):
        results, relevance = hand_fixture
        report = ranking_metrics(results, relevance, ks=(3, 1))
        write_report(report, tmp_path / "a.json")
        write_report(report, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert json.loads((tmp_path / "a.json").read_text())["recall_at"]["3"] == 2 / 3
