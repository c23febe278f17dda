'''
Ranking, shortlist, and results-file tests.

Tiny-dataset expectations continue the hand-worked example from
test_pipeline: with calibration queries {0, 1} the final probabilities are
q0 -> [0.6, 0.0] and q1 -> [0.0, 0.8] over the two references.
'''

import dataclasses
import logging
import math
import sys

import numpy as np
import pytest

import conformal_retrieval.dataset as dataset_module
import conformal_retrieval.retrieval as retrieval_module
from conformal_retrieval.dataset import DataFormatError, MultimodalDataset
from conformal_retrieval.pipeline import fit_model, score_grid
from conformal_retrieval.retrieval import (
    RetrievalResult,
    _top,
    batch_retrieve,
    heuristic_baseline,
    read_results_csv,
    retrieve,
    retrieve_shortlist,
    write_results_csv,
)
from conformal_retrieval.similarity import pairwise_score_table
from conformal_retrieval.synthgen import SynthConfig, SynthSpace, generate


def synth_dataset(seed=42, **overrides):
    base = dict(
        n_queries=30,
        n_references=20,
        query_modalities=("a", "b"),
        reference_modalities=("a", "b"),
        spaces=(
            SynthSpace("s1", 12, noise_sigma=0.3, query_modalities=("a",),
                       reference_modalities=("a",)),
            SynthSpace("s2", 10, noise_sigma=0.6, query_modalities=("b",),
                       reference_modalities=("b",)),
        ),
        latent_dim=6,
        query_dropout={"a": 0.2, "b": 0.2},
        reference_dropout={"a": 0.2},
        keep_at_least_one_query=True,
        keep_at_least_one_reference=True,
        seed=seed,
    )
    base.update(overrides)
    return generate(SynthConfig(**base))


def shortlist_oracle(model, ds, qi, k, alpha):
    '''In-test oracle for retrieve_shortlist: each observable pair's
    ceil(alpha * k) best among the references it observes, gathered and
    sorted in full, filled up to k from the first unpicked references in
    index order, then ranked like retrieve. Returns the candidate ids and
    the ranked list.'''
    budget = math.ceil(alpha * k)
    qmods = ds.schema.query_modalities
    rmods = ds.schema.reference_modalities
    union = set()
    for qmod, rmod in model.first_stage:
        if not ds.query_mask[qi, qmods.index(qmod)]:
            continue
        cand = np.flatnonzero(ds.reference_mask[:, rmods.index(rmod)])
        values, _ = pairwise_score_table(ds, (qmod, rmod), [qi], cand)
        union.update(cand[np.lexsort((cand, -values[0]))[:budget]].tolist())
    fill = [j for j in range(ds.n_references) if j not in union]
    union.update(fill[:max(k - len(union), 0)])
    refs = np.array(sorted(union), dtype=np.intp)
    probs, fused, answerable = score_grid(model, ds, [qi], refs)
    order = np.lexsort((refs, -fused[0]))[:k]
    return refs, [(int(refs[j]), float(probs[0, j]), not answerable[0, j])
                  for j in order]


def with_embeddings(ds, change):
    '''ds with change(side, rows) -> new rows applied to every query
    ("query") and reference ("reference") embedding block.'''
    return dataclasses.replace(
        ds,
        query_embeddings={key: change("query", rows)
                          for key, rows in ds.query_embeddings.items()},
        reference_embeddings={key: change("reference", rows)
                              for key, rows in ds.reference_embeddings.items()})


def scaled(factor):
    # float32 rows times a Python float stay float32
    return lambda ds: with_embeddings(ds, lambda side, rows: rows * factor)


def near_ties(ds):
    # references 5-9 repeat 0-4 exactly and 10-14 sit one float32 ulp away,
    # far closer than the screen's slack
    def change(side, rows):
        if side == "query":
            return rows
        rows = rows.copy()
        rows[5:10] = rows[0:5]
        rows[10:15] = np.nextafter(rows[0:5], np.float32(np.inf))
        return rows
    return with_embeddings(ds, change)


def zero_rows(ds):
    # query 15 and references 3 and 7 keep their modalities but store zeros
    def change(side, rows):
        rows = rows.copy()
        rows[[15] if side == "query" else [3, 7]] = 0.0
        return rows
    return with_embeddings(ds, change)


SCREEN_EDGES = {
    # float32 products all underflow at 1e-30 and partly, into subnormals,
    # at 1e-22; at 1e22 and 1e30 they overflow
    "scaled-1e-30": (scaled(1e-30), {}),
    "scaled-1e-22": (scaled(1e-22), {}),
    "scaled-1e22": (scaled(1e22), {}),
    "scaled-1e30": (scaled(1e30), {}),
    "near-ties": (near_ties, {}),
    "zero-rows": (zero_rows, {}),
    "heavy-reference-dropout": (lambda ds: ds,
                                {"reference_dropout": {"a": 0.9, "b": 0.9}}),
}


class TestTop:
    def test_matches_a_full_lexsort(self):
        # few distinct values, so ties reach across the k-th place; +-0.0
        # compare equal and -inf sinks; ids are a shuffled subset
        rng = np.random.default_rng(17)
        pool = np.array([-np.inf, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0])
        for _ in range(400):
            size = int(rng.integers(1, 40))
            scores = rng.choice(pool[:int(rng.integers(1, pool.size + 1))], size)
            ids = np.sort(rng.choice(1000, size, replace=False))
            if rng.random() < 0.5:
                ids = ids[rng.permutation(size)]
            want = np.lexsort((ids, -scores))
            assert np.array_equal(_top(ids, scores, None), want)
            for k in (1, int(rng.integers(1, size + 1)), size, size + 3):
                got = _top(ids, scores, k)
                assert np.array_equal(got, want[:k]), (scores, ids, k)


class TestRetrieve:
    def test_hand_worked_ranking(self, tiny_dataset):
        model = fit_model(tiny_dataset, [0, 1])
        res = retrieve(model, tiny_dataset, 0)
        assert res.query_index == 0
        assert [r for r, _, _ in res.ranked] == [0, 1]
        assert res.ranked[0][1] == pytest.approx(0.6)
        assert res.ranked[1][1] == 0.0
        res = retrieve(model, tiny_dataset, 1)
        assert [r for r, _, _ in res.ranked] == [1, 0]
        assert res.ranked[0][1] == pytest.approx(0.8)

    def test_fused_ties_break_by_reference_index(self, tiny_dataset):
        # query 2 fuses to 0 for both references
        model = fit_model(tiny_dataset, [0, 1])
        res = retrieve(model, tiny_dataset, 2)
        assert [r for r, _, _ in res.ranked] == [0, 1]
        assert all(not una for _, _, una in res.ranked)

    def test_unanswerable_references_rank_last(self, tiny_dataset):
        ds = MultimodalDataset(
            schema=tiny_dataset.schema,
            query_embeddings=dict(tiny_dataset.query_embeddings),
            reference_embeddings=dict(tiny_dataset.reference_embeddings),
            query_mask=tiny_dataset.query_mask,
            reference_mask=np.array([[1, 1], [0, 1]], dtype=bool),
            relevance=tiny_dataset.relevance,
        )
        model = fit_model(ds, [0, 1])
        res = retrieve(model, ds, 1)  # query 1 carries only modality "a"
        assert res.ranked == [(0, 0.0, False), (1, 0.0, True)]
        res = retrieve(model, ds, 0)
        assert res.ranked[0] == (0, pytest.approx(3 / 4), False)
        assert res.ranked[1] == (1, 0.0, False)

    def test_k_truncates(self, tiny_dataset):
        model = fit_model(tiny_dataset, [0, 1])
        assert len(retrieve(model, tiny_dataset, 0, k=1).ranked) == 1
        assert len(retrieve(model, tiny_dataset, 0, k=99).ranked) == 2
        with pytest.raises(ValueError):
            retrieve(model, tiny_dataset, 0, k=0)

    def test_probabilities_non_increasing_down_the_list(self):
        ds = synth_dataset()
        model = fit_model(ds, list(range(12)))
        for qi in range(12, 30):
            probs = [p for _, p, _ in retrieve(model, ds, qi).ranked]
            assert all(a >= b for a, b in zip(probs, probs[1:]))


class TestShortlist:
    def test_full_budget_matches_exact_retrieval(self):
        ds = synth_dataset()
        model = fit_model(ds, list(range(12)))
        # k = n_references appends the unanswerable tail wherever there is one
        for k in (5, ds.n_references):
            for qi in range(12, 30):
                exact = retrieve(model, ds, qi, k=k)
                fast = retrieve_shortlist(model, ds, qi, k=k, alpha=4.0)
                assert fast.ranked == exact.ranked

    @pytest.mark.parametrize("alpha", [1.0, 2.5])
    def test_union_is_each_pairs_best_observed_references(self, alpha,
                                                          monkeypatch):
        ds = synth_dataset(seed=5, reference_dropout={"a": 0.6, "b": 0.5})
        model = fit_model(ds, list(range(12)))
        scored = []

        def recording(model, dataset, query_ids, reference_ids):
            scored.append(reference_ids.tolist())
            return score_grid(model, dataset, query_ids, reference_ids)

        monkeypatch.setattr(retrieval_module, "score_grid", recording)
        for k in (1, 3, 8):
            for qi in range(12, 30):
                refs, want = shortlist_oracle(model, ds, qi, k, alpha)
                scored.clear()
                got = retrieve_shortlist(model, ds, qi, k=k, alpha=alpha).ranked
                assert scored == [refs.tolist()]
                assert got == want

    def test_k_past_the_float_range(self):
        ds = synth_dataset()
        model = fit_model(ds, list(range(12)))
        # alpha * k would overflow a float; no pair has more candidates than
        # there are references, so the list is the one retrieve gives
        for qi in range(12, 30):
            assert retrieve_shortlist(model, ds, qi, k=10**400).ranked == \
                retrieve(model, ds, qi, k=10**400).ranked

    @pytest.mark.parametrize("alpha", [1e308, np.float64(1e308), sys.float_info.max],
                             ids=["float", "numpy-float64", "largest-float"])
    def test_huge_alpha_is_a_covering_budget(self, alpha):
        # alpha * k would overflow a float; any alpha past the reference
        # count covers every reference, so the list is the one retrieve gives
        ds = synth_dataset()
        model = fit_model(ds, list(range(12)))
        for qi in range(12, 30):
            assert retrieve_shortlist(model, ds, qi, k=5, alpha=alpha).ranked == \
                retrieve(model, ds, qi, k=5).ranked
        assert batch_retrieve(model, ds, k=5, mode="shortlist",
                              shortlist_alpha=alpha) == batch_retrieve(model, ds, k=5)

    @pytest.mark.parametrize("edge", sorted(SCREEN_EDGES))
    def test_screened_pick_matches_the_oracle_at_the_edges(self, edge):
        transform, overrides = SCREEN_EDGES[edge]
        ds = transform(synth_dataset(
            seed=5, **{"reference_dropout": {"a": 0.6, "b": 0.5}, **overrides}))
        model = fit_model(ds, list(range(12)))
        n = ds.n_references
        flagged = 0
        # (3, 10.0) budgets past every observed count; k = n + 5 reaches
        # past the answerable count
        for k, alpha in ((1, 1.0), (3, 2.5), (8, 1.0), (3, 10.0), (n + 5, 1.0)):
            for qi in range(12, 30):
                _, want = shortlist_oracle(model, ds, qi, k, alpha)
                got = retrieve_shortlist(model, ds, qi, k=k, alpha=alpha).ranked
                assert got == want
                flagged += sum(flag for _, _, flag in got)
        assert flagged > 0

    def test_candidate_list_is_a_prefix_of_exact_order(self):
        ds = synth_dataset(seed=3)
        model = fit_model(ds, list(range(12)))
        exact = retrieve(model, ds, 20)
        fast = retrieve_shortlist(model, ds, 20, k=3, alpha=1.0)
        assert len(fast.ranked) <= 3
        ranked_ids = [r for r, _, _ in exact.ranked]
        for entry in fast.ranked:
            # every shortlist entry keeps its exact-mode probability
            assert exact.ranked[ranked_ids.index(entry[0])] == entry

    def test_every_list_has_min_k_and_reference_count_entries(self):
        # at the smallest budget a union short of k is ranked as exact
        # retrieval ranks it, unanswerable tail included, so no list comes
        # back short
        ds = synth_dataset(seed=3, query_dropout={"a": 0.5, "b": 0.5},
                           reference_dropout={"a": 0.5, "b": 0.5})
        model = fit_model(ds, list(range(12)))
        flagged = 0
        for k in (1, 3, 7, ds.n_references, ds.n_references + 5):
            for qi in range(12, 30):
                got = retrieve_shortlist(model, ds, qi, k=k, alpha=1.0)
                assert len(got.ranked) == min(k, ds.n_references)
                if any(un for _, _, un in got.ranked):
                    assert got.ranked == retrieve(model, ds, qi, k=k).ranked
                flagged += sum(un for _, _, un in got.ranked)
        assert flagged > 0

    def test_rejects_bad_arguments(self, tiny_dataset):
        model = fit_model(tiny_dataset, [0, 1])
        with pytest.raises(ValueError):
            retrieve_shortlist(model, tiny_dataset, 0, k=0)
        with pytest.raises(ValueError):
            retrieve_shortlist(model, tiny_dataset, 0, k=5, alpha=0.5)

    def test_rejects_query_index_out_of_range(self, tiny_dataset):
        ds = MultimodalDataset(
            schema=tiny_dataset.schema,
            query_embeddings=dict(tiny_dataset.query_embeddings),
            reference_embeddings=dict(tiny_dataset.reference_embeddings),
            query_mask=np.array([[0, 0], [1, 0], [0, 1]], dtype=bool),
            reference_mask=tiny_dataset.reference_mask,
            relevance=tiny_dataset.relevance,
        )
        model = fit_model(tiny_dataset, [0, 1])
        # -3 would wrap to query 0, which has no scoreable modality
        for qi in (-3, 3):
            with pytest.raises(ValueError, match="out of range"):
                retrieve_shortlist(model, ds, qi, k=1)

    def test_unanswerable_tail_appended_when_k_exceeds_answerable(self, tiny_dataset):
        ds = MultimodalDataset(
            schema=tiny_dataset.schema,
            query_embeddings=dict(tiny_dataset.query_embeddings),
            reference_embeddings=dict(tiny_dataset.reference_embeddings),
            query_mask=tiny_dataset.query_mask,
            reference_mask=np.array([[1, 1], [0, 1]], dtype=bool),
            relevance=tiny_dataset.relevance,
        )
        model = fit_model(ds, [0, 1])
        # query 1 carries only "a": reference 1 has no observable pair
        fast = retrieve_shortlist(model, ds, 1, k=2, alpha=4.0)
        assert fast.ranked == retrieve(model, ds, 1, k=2).ranked
        assert fast.ranked[1] == (1, 0.0, True)
        # with k inside the answerable count the tail is not appended
        assert retrieve_shortlist(model, ds, 1, k=1, alpha=4.0).ranked == \
            retrieve(model, ds, 1, k=1).ranked

    def test_query_with_no_observable_pair_lists_the_first_references(self,
                                                                      tiny_dataset):
        ds = MultimodalDataset(
            schema=tiny_dataset.schema,
            query_embeddings=dict(tiny_dataset.query_embeddings),
            reference_embeddings=dict(tiny_dataset.reference_embeddings),
            query_mask=np.array([[0, 0], [1, 0], [0, 1]], dtype=bool),
            reference_mask=tiny_dataset.reference_mask,
            relevance=tiny_dataset.relevance,
        )
        model = fit_model(tiny_dataset, [0, 1])
        # the shortlist is empty, so every listed reference is a flagged fill
        for k, want in ((1, [(0, 0.0, True)]), (5, [(0, 0.0, True), (1, 0.0, True)])):
            assert retrieve_shortlist(model, ds, 0, k=k).ranked == want
            assert retrieve(model, ds, 0, k=k).ranked == want

    def test_per_rank_probability_non_decreasing_in_alpha(self):
        ds = synth_dataset(seed=9)
        model = fit_model(ds, list(range(12)))
        k = 4
        for qi in range(12, 30):
            prev = None
            for alpha in (1.0, 2.0, 4.0, 8.0):
                got = retrieve_shortlist(model, ds, qi, k=k, alpha=alpha)
                probs = [p for _, p, _ in got.ranked]
                if prev is not None and len(prev) == len(probs):
                    assert all(b >= a for a, b in zip(prev, probs))
                prev = probs


class TestBatchRetrieve:
    def test_order_follows_query_ids(self, tiny_dataset):
        model = fit_model(tiny_dataset, [0, 1])
        results = batch_retrieve(model, tiny_dataset, query_ids=[2, 0])
        assert [r.query_index for r in results] == [2, 0]

    def test_defaults_to_all_queries(self, tiny_dataset):
        model = fit_model(tiny_dataset, [0, 1])
        results = batch_retrieve(model, tiny_dataset)
        assert [r.query_index for r in results] == [0, 1, 2]

    def test_worker_count_does_not_change_results(self):
        ds = synth_dataset()
        model = fit_model(ds, list(range(12)))
        serial = batch_retrieve(model, ds, k=5, workers=1)
        threaded = batch_retrieve(model, ds, k=5, workers=4)
        assert serial == threaded

    @pytest.mark.parametrize("mode", ["exact", "shortlist"])
    def test_threads_building_the_norms_give_the_serial_results(self, mode):
        ds = synth_dataset()
        model = fit_model(ds, list(range(12)))
        serial = batch_retrieve(model, ds, k=5, mode=mode)
        fresh = dataclasses.replace(ds)  # same rows, reference norms not built
        assert "reference_norms" not in vars(fresh)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = batch_retrieve(model, fresh, k=5, mode=mode, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_shortlist_mode(self):
        ds = synth_dataset()
        model = fit_model(ds, list(range(12)))
        fast = batch_retrieve(model, ds, k=5, mode="shortlist",
                              shortlist_alpha=4.0, workers=2)
        exact = batch_retrieve(model, ds, k=5)
        assert fast == exact

    @pytest.mark.parametrize("mode", ["exact", "shortlist"])
    def test_schema_fingerprint_taken_once_per_schema(self, monkeypatch, mode):
        ds = synth_dataset()
        model = fit_model(ds, range(10))
        original = dataset_module.schema_fingerprint
        calls = []

        def counting(schema):
            calls.append(schema)
            return original(schema)

        monkeypatch.setattr(dataset_module, "schema_fingerprint", counting)
        batch_retrieve(model, ds, query_ids=range(10, 15), k=5, mode=mode)
        assert calls == []

    def test_zero_filled_absent_rows_log_nothing(self, caplog):
        # a dataset may store zero rows for absent modalities; their cells
        # are unobserved, so scoring them is not worth a warning
        ds = synth_dataset()

        def zero_filled(embeddings, mods, mask):
            out = {}
            for (mod, space), rows in embeddings.items():
                out[(mod, space)] = rows.copy()
                out[(mod, space)][~mask[:, mods.index(mod)]] = 0.0
            return out

        ds = dataclasses.replace(
            ds,
            query_embeddings=zero_filled(ds.query_embeddings,
                                         ds.schema.query_modalities, ds.query_mask),
            reference_embeddings=zero_filled(ds.reference_embeddings,
                                             ds.schema.reference_modalities,
                                             ds.reference_mask))
        model = fit_model(ds, list(range(10)))
        with caplog.at_level(logging.DEBUG):
            for mode in ("exact", "shortlist"):
                batch_retrieve(model, ds, list(range(10, 30)), k=5, mode=mode)
        assert caplog.records == []

    def test_unknown_mode_rejected(self, tiny_dataset):
        model = fit_model(tiny_dataset, [0, 1])
        with pytest.raises(ValueError, match="mode"):
            batch_retrieve(model, tiny_dataset, mode="turbo")


# each entry point that takes query ids, called with ids as given
ID_CALLS = {
    "score_grid": lambda model, ds, ids: score_grid(model, ds, ids),
    "fit_model": lambda model, ds, ids: fit_model(ds, ids),
    "retrieve": lambda model, ds, ids: retrieve(model, ds, ids[0]),
    "retrieve_shortlist": lambda model, ds, ids: retrieve_shortlist(model, ds, ids[0], 3),
    "batch_retrieve": lambda model, ds, ids: batch_retrieve(model, ds, ids),
    "heuristic_baseline": lambda model, ds, ids: heuristic_baseline(
        ds, [("a", "a")], ids),
}

# each entry point that takes k, called with k as given
K_CALLS = {
    "retrieve": lambda model, ds, k: retrieve(model, ds, 0, k=k),
    "retrieve_shortlist": lambda model, ds, k: retrieve_shortlist(model, ds, 0, k),
    "batch_retrieve": lambda model, ds, k: batch_retrieve(model, ds, [0], k=k),
    "heuristic_baseline": lambda model, ds, k: heuristic_baseline(
        ds, [("a", "a")], [0], k=k),
}


class TestIdsAndK:
    '''Ids and k are counted things: a float or a bool is refused, never
    truncated to an id or a count.'''

    @pytest.fixture(scope="class")
    def fitted(self):
        ds = synth_dataset()
        return fit_model(ds, range(10)), ds

    @pytest.mark.parametrize("ids", [[1.7], [0.5, 1.5], [True, False]],
                             ids=["float", "floats", "bools"])
    @pytest.mark.parametrize("call", sorted(ID_CALLS))
    def test_non_integer_ids_refused(self, fitted, call, ids):
        model, ds = fitted
        with pytest.raises(ValueError, match="integers"):
            ID_CALLS[call](model, ds, ids)

    @pytest.mark.parametrize("ids", [[10**23], [-10**23, 3]], ids=["past", "below"])
    @pytest.mark.parametrize("call", sorted(ID_CALLS))
    def test_ids_past_int64_are_out_of_range(self, fitted, call, ids):
        model, ds = fitted
        with pytest.raises(ValueError, match="out of range"):
            ID_CALLS[call](model, ds, ids)

    @pytest.mark.parametrize("call", sorted(ID_CALLS))
    def test_numpy_integer_ids_accepted(self, fitted, call):
        model, ds = fitted
        want = ID_CALLS[call](model, ds, [11, 12])
        for dtype in (np.int64, np.int32, np.uint16):
            got = ID_CALLS[call](model, ds, np.array([11, 12], dtype=dtype))
            if call == "score_grid":
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
            elif call == "fit_model":
                assert got.second_stage.sorted_gamma.tobytes() == \
                    want.second_stage.sorted_gamma.tobytes()
            else:
                assert got == want

    @pytest.mark.parametrize("k", [True, 2.5, 0, -1, "3"])
    @pytest.mark.parametrize("call", sorted(K_CALLS))
    def test_k_must_be_a_positive_integer(self, fitted, call, k):
        model, ds = fitted
        with pytest.raises(ValueError, match="k must be"):
            K_CALLS[call](model, ds, k)

    @pytest.mark.parametrize("call", sorted(K_CALLS))
    def test_numpy_integer_k_accepted(self, fitted, call):
        model, ds = fitted
        assert K_CALLS[call](model, ds, np.int64(3)) == K_CALLS[call](model, ds, 3)

    @pytest.mark.parametrize("workers", [True, 2.5, np.float64(2.0), 0, "2"],
                             ids=["bool", "float", "numpy-float", "zero", "string"])
    def test_workers_must_be_a_positive_integer(self, fitted, workers):
        model, ds = fitted
        with pytest.raises(ValueError, match="workers must be"):
            batch_retrieve(model, ds, [0, 1], k=3, workers=workers)

    def test_numpy_integer_workers_accepted(self, fitted):
        model, ds = fitted
        assert batch_retrieve(model, ds, [0, 1], k=3, workers=np.int64(2)) == \
            batch_retrieve(model, ds, [0, 1], k=3)

    @pytest.mark.parametrize("alpha", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_bool_alpha_refused(self, fitted, alpha):
        model, ds = fitted
        with pytest.raises(ValueError, match="alpha must be"):
            retrieve_shortlist(model, ds, 0, 3, alpha=alpha)

    @pytest.mark.parametrize("alpha", ["junk", None, math.nan, math.inf],
                             ids=["string", "none", "nan", "inf"])
    def test_alpha_must_be_a_finite_number_of_at_least_1(self, fitted, alpha):
        model, ds = fitted
        with pytest.raises(ValueError, match="alpha must be"):
            retrieve_shortlist(model, ds, 0, 3, alpha=alpha)

    @pytest.mark.parametrize("alpha", ["junk", math.nan, True, 0.5],
                             ids=["string", "nan", "bool", "below-1"])
    @pytest.mark.parametrize("mode", ["exact", "shortlist"])
    def test_batch_checks_shortlist_alpha_in_both_modes(self, fitted, mode, alpha):
        model, ds = fitted
        with pytest.raises(ValueError, match="shortlist_alpha must be"):
            batch_retrieve(model, ds, [10, 11], k=3, mode=mode,
                           shortlist_alpha=alpha)

    def test_numpy_alpha_accepted(self, fitted):
        model, ds = fitted
        assert retrieve_shortlist(model, ds, 0, 3, alpha=np.float32(2.0)) == \
            retrieve_shortlist(model, ds, 0, 3, alpha=2)


class TestResultsCsv:
    def test_round_trip(self, tmp_path):
        ds = synth_dataset()
        model = fit_model(ds, list(range(12)))
        results = batch_retrieve(model, ds, k=5)
        path = tmp_path / "results.csv"
        write_results_csv(path, results)
        assert read_results_csv(path) == results

    def test_probabilities_read_back_exactly(self, tiny_dataset, tmp_path):
        model = fit_model(tiny_dataset, [0, 1])
        results = [retrieve(model, tiny_dataset, 0)]
        path = tmp_path / "results.csv"
        write_results_csv(path, results)
        text = path.read_text()
        assert text.splitlines()[0] == "query_id,rank,reference_id,probability,unanswerable"
        back = read_results_csv(path)
        assert back == results
        assert 3 / 5 in [prob for _, prob, _ in back[0].ranked]

    def test_unanswerable_flag_round_trips(self, tiny_dataset, tmp_path):
        results = [RetrievalResult(4, [(0, 0.25, False), (7, 0.0, True)])]
        path = tmp_path / "results.csv"
        write_results_csv(path, results)
        assert read_results_csv(path) == results

    def test_bad_rank_sequence_rejected(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(
            "query_id,rank,reference_id,probability,unanswerable\n"
            "0,1,3,0.5,0\n"
            "0,3,4,0.25,0\n")
        with pytest.raises(DataFormatError, match="rank"):
            read_results_csv(path)

    def test_bad_flag_rejected(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(
            "query_id,rank,reference_id,probability,unanswerable\n"
            "0,1,3,0.5,maybe\n")
        with pytest.raises(DataFormatError):
            read_results_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("query,rank,ref,p,u\n0,1,3,0.5,0\n")
        with pytest.raises(DataFormatError):
            read_results_csv(path)
