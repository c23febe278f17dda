'''
Unit tests for the synthetic dataset generator.

The generator is the working ground truth for the rest of the suite, so
these tests pin its contract hard: byte determinism under a seed, exact
alignment at zero noise, and monotone degradation as noise grows.
'''

import math
import re

import numpy as np
import pytest

from conformal_retrieval.dataset import MultimodalDataset, row_norms
from conformal_retrieval.retrieval import heuristic_baseline
from conformal_retrieval.similarity import _cosine_table
from conformal_retrieval.synthgen import SynthConfig, SynthSpace, generate


def bimodal_config(**overrides):
    base = dict(
        n_queries=40,
        n_references=25,
        query_modalities=("a", "b"),
        reference_modalities=("a", "b"),
        spaces=(
            SynthSpace("s1", 16, noise_sigma=0.1, query_modalities=("a",),
                       reference_modalities=("a",)),
            SynthSpace("s2", 12, noise_sigma=0.3, query_modalities=("b",),
                       reference_modalities=("b",)),
        ),
        latent_dim=8,
        seed=42,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestGenerate:
    def test_deterministic_under_seed(self):
        a = generate(bimodal_config())
        b = generate(bimodal_config())
        for key in a.query_embeddings:
            np.testing.assert_array_equal(a.query_embeddings[key], b.query_embeddings[key])
        for key in a.reference_embeddings:
            np.testing.assert_array_equal(
                a.reference_embeddings[key], b.reference_embeddings[key])
        np.testing.assert_array_equal(a.query_mask, b.query_mask)
        np.testing.assert_array_equal(a.reference_mask, b.reference_mask)
        assert a.relevance.relevant == b.relevance.relevant

    def test_seed_changes_data(self):
        a = generate(bimodal_config())
        b = generate(bimodal_config(seed=43))
        assert not np.array_equal(
            a.query_embeddings[("a", "s1")], b.query_embeddings[("a", "s1")])

    def test_shapes_and_keys(self):
        ds = generate(bimodal_config())
        assert ds.n_queries == 40
        assert ds.n_references == 25
        assert set(ds.query_embeddings) == {("a", "s1"), ("b", "s2")}
        assert ds.query_embeddings[("a", "s1")].shape == (40, 16)
        assert ds.reference_embeddings[("b", "s2")].shape == (25, 12)

    def test_rows_are_unit_norm(self):
        ds = generate(bimodal_config())
        for arr in list(ds.query_embeddings.values()) + list(ds.reference_embeddings.values()):
            np.testing.assert_allclose(np.linalg.norm(arr, axis=1), 1.0, atol=1e-6)

    def test_matches_float32_round_trip(self):
        # in-memory data must equal what a disk round trip would produce
        ds = generate(bimodal_config())
        arr = ds.query_embeddings[("a", "s1")]
        np.testing.assert_array_equal(arr, arr.astype(np.float32).astype(np.float64))

    def test_zero_noise_gives_perfect_alignment(self):
        config = bimodal_config(
            spaces=(
                SynthSpace("s1", 16, noise_sigma=0.0, query_modalities=("a",),
                           reference_modalities=("a",)),
                SynthSpace("s2", 12, noise_sigma=0.0, query_modalities=("b",),
                           reference_modalities=("b",)),
            ),
        )
        ds = generate(config)
        for mod, space in (("a", "s1"), ("b", "s2")):
            refs = ds.reference_embeddings[(mod, space)]
            scores = _cosine_table(ds.query_embeddings[(mod, space)], refs,
                                   row_norms(refs))
            for q in range(ds.n_queries):
                best = int(np.argmax(scores[q]))
                assert best in ds.relevance.relevant[q]
                assert scores[q, best] > 0.9999

    def test_noise_degrades_alignment_monotonically(self):
        accuracies = []
        for sigma in (0.0, 0.5, 1.5, 4.0):
            config = bimodal_config(
                n_queries=120, n_references=60,
                spaces=(SynthSpace("s1", 16, noise_sigma=sigma,
                                   query_modalities=("a",),
                                   reference_modalities=("a",)),
                        SynthSpace("s2", 12, noise_sigma=0.0,
                                   query_modalities=("b",),
                                   reference_modalities=("b",))),
            )
            ds = generate(config)
            refs = ds.reference_embeddings[("a", "s1")]
            scores = _cosine_table(ds.query_embeddings[("a", "s1")], refs,
                                   row_norms(refs))
            hits = sum(
                int(np.argmax(scores[q])) in ds.relevance.relevant[q]
                for q in range(ds.n_queries)
            )
            accuracies.append(hits / ds.n_queries)
        assert all(a >= b for a, b in zip(accuracies, accuracies[1:]))
        assert accuracies[0] == 1.0

    def test_dropout_masks(self):
        config = bimodal_config(
            n_queries=2000,
            n_references=1500,
            query_dropout={"a": 0.5},
            reference_dropout={"b": 0.25},
        )
        ds = generate(config)
        a_col = ds.schema.query_modalities.index("a")
        rate = 1.0 - ds.query_mask[:, a_col].mean()
        assert abs(rate - 0.5) < 0.05
        assert ds.query_mask[:, ds.schema.query_modalities.index("b")].all()
        b_col = ds.schema.reference_modalities.index("b")
        assert abs((1.0 - ds.reference_mask[:, b_col].mean()) - 0.25) < 0.05

    def test_keep_at_least_one(self):
        config = bimodal_config(
            n_queries=500,
            query_dropout={"a": 0.9, "b": 0.9},
            keep_at_least_one_query=True,
        )
        ds = generate(config)
        assert ds.query_mask.any(axis=1).all()

    def test_one_to_many_relevance(self):
        config = bimodal_config(n_references=24, relevant_per_query=3)
        ds = generate(config)
        assert all(len(s) == 3 for s in ds.relevance.relevant)
        # group members share a latent, so their embeddings coincide at sigma=0
        config0 = bimodal_config(
            n_references=24, relevant_per_query=3,
            spaces=(SynthSpace("s1", 16, noise_sigma=0.0,
                               query_modalities=("a",), reference_modalities=("a",)),
                    SynthSpace("s2", 12, noise_sigma=0.0,
                               query_modalities=("b",), reference_modalities=("b",))),
        )
        ds0 = generate(config0)
        refs = ds0.reference_embeddings[("a", "s1")]
        group = sorted(ds0.relevance.relevant[0])
        np.testing.assert_array_equal(refs[group[0]], refs[group[1]])

    def test_score_offset_compresses_ranges(self):
        plain = bimodal_config(
            spaces=(SynthSpace("s1", 16, noise_sigma=0.2, query_modalities=("a",),
                               reference_modalities=("a",)),
                    SynthSpace("s2", 12, noise_sigma=0.3, query_modalities=("b",),
                               reference_modalities=("b",))),
        )
        shifted = bimodal_config(
            spaces=(SynthSpace("s1", 16, noise_sigma=0.2, score_offset=3.0,
                               query_modalities=("a",), reference_modalities=("a",)),
                    SynthSpace("s2", 12, noise_sigma=0.3, query_modalities=("b",),
                               reference_modalities=("b",))),
        )
        low, high = (
            _cosine_table(ds.query_embeddings[("a", "s1")],
                          ds.reference_embeddings[("a", "s1")],
                          row_norms(ds.reference_embeddings[("a", "s1")]))
            for ds in (generate(plain), generate(shifted)))
        assert high.mean() > low.mean() + 0.3
        assert high.min() > low.min()

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            generate(bimodal_config(n_queries=0))
        with pytest.raises(ValueError):
            generate(bimodal_config(relevant_per_query=26))
        with pytest.raises(ValueError):
            generate(bimodal_config(query_dropout={"zz": 0.5}))

    @pytest.mark.parametrize("field, value", [
        ("n_queries", 2.5), ("n_queries", 0), ("n_references", True),
        ("n_references", -3), ("latent_dim", 2.5), ("latent_dim", 0),
        ("relevant_per_query", 1.5), ("relevant_per_query", np.float64(1.0)),
    ])
    def test_counts_must_be_integers_of_at_least_1(self, field, value):
        with pytest.raises(ValueError,
                           match=f"{field} must be an integer of at least 1"):
            generate(bimodal_config(**{field: value}))

    def test_numpy_integer_counts_accepted(self):
        config = dict(n_queries=np.int64(40), n_references=np.int32(25),
                      latent_dim=np.int64(8), relevant_per_query=np.int64(1))
        a, b = generate(bimodal_config(**config)), generate(bimodal_config())
        assert a.relevance == b.relevance

    @pytest.mark.parametrize("sigma, offset, message", [
        pytest.param(-0.1, 0.0, "noise_sigma must be finite and >= 0", id="negative-sigma"),
        pytest.param(math.inf, 0.0, "noise_sigma must be finite and >= 0",
                     id="infinite-sigma"),
        pytest.param(math.nan, 0.0, "noise_sigma must be finite and >= 0", id="nan-sigma"),
        pytest.param(0.1, math.inf, "score_offset must be finite", id="infinite-offset"),
        pytest.param(0.1, math.nan, "score_offset must be finite", id="nan-offset"),
    ])
    def test_space_recipe_refusals(self, sigma, offset, message):
        space = SynthSpace("s1", 16, noise_sigma=sigma, score_offset=offset)
        with pytest.raises(ValueError, match=f"space 's1': {message}"):
            generate(bimodal_config(spaces=(space,)))


class TestHeuristicBaseline:
    def test_priority_order_decides_the_scale(self, tiny_dataset):
        # every cell for query 0 is observable under either pair, so the
        # first priority entry alone determines the ranking
        by_a = heuristic_baseline(tiny_dataset, [("a", "a"), ("b", "b")],
                                  query_ids=[0])[0]
        by_b = heuristic_baseline(tiny_dataset, [("b", "b"), ("a", "a")],
                                  query_ids=[0])[0]
        assert [r for r, _, _ in by_a.ranked] == [0, 1]
        assert [r for r, _, _ in by_b.ranked] == [1, 0]
        assert by_a.ranked[0][1] == pytest.approx(1.0)

    def test_falls_back_to_later_pairs(self, tiny_dataset):
        # query 2 has no "a", so its scores come from ("b", "b")
        res = heuristic_baseline(tiny_dataset, [("a", "a"), ("b", "b")],
                                 query_ids=[2])[0]
        assert [r for r, _, _ in res.ranked] == [0, 1]
        assert res.ranked[0][1] == pytest.approx(1 / np.sqrt(2))
        assert not any(una for _, _, una in res.ranked)

    def test_unreachable_reference_sinks_flagged(self, tiny_dataset):
        ds = MultimodalDataset(
            schema=tiny_dataset.schema,
            query_embeddings=dict(tiny_dataset.query_embeddings),
            reference_embeddings=dict(tiny_dataset.reference_embeddings),
            query_mask=tiny_dataset.query_mask,
            reference_mask=np.array([[1, 1], [0, 1]], dtype=bool),
            relevance=tiny_dataset.relevance,
        )
        res = heuristic_baseline(ds, [("a", "a")], query_ids=[1])[0]
        assert res.ranked == [(0, 0.0, False), (1, -np.inf, True)]

    def test_zero_noise_single_pair_is_perfect(self):
        ds = generate(SynthConfig(
            n_queries=20, n_references=15,
            query_modalities=("a",), reference_modalities=("a",),
            spaces=(SynthSpace("s", 16, noise_sigma=0.0),),
            latent_dim=8, seed=11))
        results = heuristic_baseline(ds, [("a", "a")], k=1)
        for res in results:
            assert res.ranked[0][0] in ds.relevance.relevant[res.query_index]

    def test_k_truncates(self, tiny_dataset):
        res = heuristic_baseline(tiny_dataset, [("a", "a")], k=1)
        assert all(len(r.ranked) == 1 for r in res)

    def test_rejects_bad_arguments(self, tiny_dataset):
        with pytest.raises(ValueError):
            heuristic_baseline(tiny_dataset, [])
        with pytest.raises(ValueError):
            heuristic_baseline(tiny_dataset, [("a", "b")])
        with pytest.raises(ValueError):
            heuristic_baseline(tiny_dataset, [("a", "a"), ("a", "a")])
        with pytest.raises(ValueError):
            heuristic_baseline(tiny_dataset, [("a", "a")], k=0)

    @pytest.mark.parametrize("entry", ["ab", ("a", "a", "a"), None],
                             ids=["string", "three-items", "none"])
    def test_rejects_entries_that_are_not_pairs(self, tiny_dataset, entry):
        # "ab" is not read as the pair ("a", "b")
        with pytest.raises(ValueError, match=f"priority entry {re.escape(repr(entry))} "
                                             "is not a modality pair"):
            heuristic_baseline(tiny_dataset, [("a", "a"), entry])

    def test_accepts_pairs_given_as_lists(self, tiny_dataset):
        assert heuristic_baseline(tiny_dataset, [["a", "a"], ["b", "b"]]) == \
            heuristic_baseline(tiny_dataset, [("a", "a"), ("b", "b")])

    @pytest.mark.parametrize("bad", [-1, 99])
    def test_rejects_query_ids_out_of_range(self, tiny_dataset, bad):
        # the rule and message score_grid applies to query ids
        with pytest.raises(ValueError, match=r"query id out of range \[0, 3\)"):
            heuristic_baseline(tiny_dataset, [("a", "a")], query_ids=[0, bad])
