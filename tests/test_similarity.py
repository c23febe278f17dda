'''
Unit tests for cosine scoring and the masked score tables.

A cell must score the same bits in a bulk table as in a 1x1 block, not just
within a tolerance: downstream calibration counts strictly-less
comparisons, so a single flipped ulp could move a probability.
'''

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from conformal_retrieval.dataset import row_norms
from conformal_retrieval.similarity import (
    _cosine_table,
    cosine_bounds,
    pairwise_score_table,
)
from conformal_retrieval.synthgen import SynthConfig, SynthSpace, generate


def cosine_similarity(u, v) -> float:
    '''Cosine of two vectors, scored as a 1x1 block.'''
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return float(_cosine_table(u[None, :], v[None, :], row_norms(v[None, :]))[0, 0])


class TestCosineSimilarity:
    def test_forty_five_degrees(self):
        got = cosine_similarity([1.0, 1.0], [1.0, 0.0])
        assert got == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    def test_orthogonal_and_opposite(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0
        assert cosine_similarity([1.0, 0.0], [-1.0, 0.0]) == -1.0

    def test_zero_norm_scores_zero(self):
        assert cosine_similarity([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_zero_rows_in_a_block_score_zero(self):
        # zero rows on both sides: their cells are +0.0, every other cell
        # keeps the bits it scores as a 1x1 block
        rng = np.random.default_rng(11)
        q = rng.standard_normal((6, 5))
        r = rng.standard_normal((7, 5))
        q[[1, 4]] = 0.0
        r[[0, 3, 6]] = 0.0
        want = np.array([[0.0 if a in (1, 4) or b in (0, 3, 6)
                          else cosine_similarity(q[a], r[b])
                          for b in range(7)] for a in range(6)])
        assert np.count_nonzero(want) == 4 * 4
        assert _cosine_table(q, r, row_norms(r)).tobytes() == want.tobytes()

    def test_scale_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            u, v = rng.standard_normal(6), rng.standard_normal(6)
            np.testing.assert_allclose(
                cosine_similarity(3.7 * u, v), cosine_similarity(u, v), atol=1e-12)

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = rng.standard_normal(9)
            assert -1.0 <= cosine_similarity(u, u) <= 1.0
            assert cosine_similarity(u, u) == 1.0 or cosine_similarity(u, u) < 1.0


def widened_cosine(q, r):
    '''The float64 route: both blocks copied to float64 before one
    query-outer einsum, norms from the copies.'''
    a = np.asarray(q, dtype=np.float64)
    b = np.asarray(r, dtype=np.float64)
    dots = np.einsum("id,jd->ij", a, b, optimize=False)
    a_norm = np.sqrt(np.einsum("id,id->i", a, a, optimize=False))
    b_norm = np.sqrt(np.einsum("id,id->i", b, b, optimize=False))
    denom = a_norm[:, None] * b_norm[None, :]
    out = np.zeros_like(dots)
    np.divide(dots, denom, out=out, where=denom > 0.0)
    return np.clip(out, -1.0, 1.0)


class TestFloat32References:
    '''Reference rows are widened inside einsum, not copied; every cell
    keeps the bits of the float64 route, with float32 or float64 rows.'''

    @pytest.mark.parametrize("n_queries, n_refs, dim",
                             list(itertools.product((1, 3, 64), (1, 5, 1000),
                                                    (3, 32, 256))))
    def test_bits_equal_the_widened_route(self, n_queries, n_refs, dim):
        rng = np.random.default_rng(n_queries * 10_000 + n_refs * 10 + dim)
        q = (rng.standard_normal((n_queries, dim)) * 3.0).astype(np.float32)
        r = (rng.standard_normal((n_refs, dim)) * 0.2).astype(np.float32)
        q[::2] *= np.float32(1e-3)  # rows of differing scale
        if n_queries > 1:  # a zero row on each side, beside nonzero ones
            q[-1] = 0.0
        if n_refs > 1:
            r[0] = 0.0
        want = widened_cosine(q, r).tobytes()
        r64 = r.astype(np.float64)
        norms = row_norms(r)
        assert _cosine_table(q, r, norms).tobytes() == want
        assert _cosine_table(q, r64, row_norms(r64)).tobytes() == want
        assert _cosine_table(q.astype(np.float64), r, norms).tobytes() == want

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_block_invariance_holds_at_8192_columns(self, dtype):
        # 8192 is numpy's buffer size: up to it einsum reduces each cell in
        # one pass, so a grid and its 1x1 blocks agree bit for bit; past it
        # the reduction is split, and the float64 route already differs at
        # 8193 columns
        rng = np.random.default_rng(8192)
        q = rng.standard_normal((3, 8192)).astype(dtype)
        r = rng.standard_normal((40, 8192)).astype(dtype)
        # the rows are scored with kept norms, as the dataset keeps them
        norms = row_norms(r)
        grid = _cosine_table(q, r, norms)
        cells = np.array([[_cosine_table(q[i:i + 1], r[j:j + 1], norms[j:j + 1])[0, 0]
                           for j in range(40)] for i in range(3)])
        assert grid.tobytes() == cells.tobytes()

    def test_one_call_allocates_less_than_a_float64_copy(self, peak_allocation):
        # the stored float32 rows are scored in place, and a gathered id list
        # copies float32 rows only: a float64 copy of the reference block
        # (n x dim x 8 bytes) would show in the peak
        ds = generate(SynthConfig(4, 2000, ("a",), ("a",),
                                  (SynthSpace("s", 128, noise_sigma=0.3),), seed=5))
        n, dim = 2000, 128
        pair = ("a", "a")
        pairwise_score_table(ds, pair, [0], np.arange(n))  # builds the cached norms
        for refs in (np.arange(n), np.arange(1, n)):
            peak = peak_allocation(lambda: pairwise_score_table(ds, pair, [1], refs))
            assert peak < n * dim * 8, len(refs)


class TestPairwiseScoreTable:
    def test_bulk_matches_scalar_bit_for_bit(self, tiny_dataset):
        values, _ = pairwise_score_table(tiny_dataset, ("a", "a"), [0, 1], [0, 1])
        for qi_pos, qi in enumerate([0, 1]):
            for ri in range(2):
                want = cosine_similarity(
                    tiny_dataset.query_embeddings[("a", "s1")][qi],
                    tiny_dataset.reference_embeddings[("a", "s1")][ri],
                )
                assert values[qi_pos, ri] == want

    def test_bulk_matches_scalar_on_random_block(self):
        # independent of any dataset plumbing: a raw 50x80 cross check
        rng = np.random.default_rng(42)
        q = rng.standard_normal((50, 16))
        r = rng.standard_normal((80, 16))
        table = _cosine_table(q, r, row_norms(r))
        sampled = rng.integers(0, 50, size=60), rng.integers(0, 80, size=60)
        for a, b in zip(*sampled):
            assert table[a, b] == cosine_similarity(q[a], r[b])
        # a row block against a reference subset scores the same bits
        refs = [3, 7, 50, 79]
        np.testing.assert_array_equal(
            _cosine_table(q[10:20], r[refs], row_norms(r[refs])),
            table[10:20][:, refs])

    def test_full_range_scores_the_bits_of_a_gather(self):
        # ids 0..n-1 are scored on the stored rows, any other list on a
        # gather of them; every cell gets the same bits either way
        ds = generate(SynthConfig(30, 40, ("a",), ("a",),
                                  (SynthSpace("s", 16, noise_sigma=0.3),),
                                  reference_dropout={"a": 0.3}, seed=3))
        pair = ("a", "a")
        queries, refs = np.arange(30), np.arange(40)
        values, observed = pairwise_score_table(ds, pair, queries, refs)
        left, right = (pairwise_score_table(ds, pair, queries, part)
                       for part in (refs[:20], refs[20:]))
        assert values.tobytes() == np.hstack([left[0], right[0]]).tobytes()
        assert np.array_equal(observed, np.hstack([left[1], right[1]]))
        top, bottom = (pairwise_score_table(ds, pair, part, refs)
                       for part in (queries[:15], queries[15:]))
        assert values.tobytes() == np.vstack([top[0], bottom[0]]).tobytes()
        assert np.array_equal(observed, np.vstack([top[1], bottom[1]]))
        # a full-size list that is not 0..n-1 is still gathered
        flipped, flipped_observed = pairwise_score_table(
            ds, pair, queries[::-1], refs[::-1])
        assert values.tobytes() == flipped[::-1, ::-1].tobytes()
        assert np.array_equal(observed, flipped_observed[::-1, ::-1])

    def test_masked_cells_are_unobserved(self, tiny_dataset):
        _, observed = pairwise_score_table(tiny_dataset, ("b", "b"), [0, 1, 2], [0, 1])
        # query 1 is missing modality "b"
        assert not observed[1].any()
        assert observed[0].all() and observed[2].all()

    def test_uncovered_pair_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            pairwise_score_table(tiny_dataset, ("a", "b"), [0], [0])


def five_by_seven():
    return generate(SynthConfig(5, 7, ("a",), ("a",),
                                (SynthSpace("s", 4, noise_sigma=0.3),), seed=2))


class TestIdsAreChecked:
    '''Both public scoring functions refuse an id that names no row, naming
    the side, rather than wrapping it, truncating it or raising IndexError.'''

    @pytest.mark.parametrize("query_ids, reference_ids, side", [
        pytest.param([-1], [-2, 0], "query", id="negative-query"),
        pytest.param([0], [-2, 0], "reference", id="negative-reference"),
        pytest.param([0.5], [0], "query", id="float-query"),
        pytest.param([True], [0], "query", id="bool-query"),
        pytest.param([99], [0], "query", id="query-past-the-end"),
        pytest.param([0], [7], "reference", id="reference-past-the-end"),
        pytest.param([[0]], [0], "query", id="nested-query"),
    ])
    def test_score_table(self, query_ids, reference_ids, side):
        with pytest.raises(ValueError, match=side):
            pairwise_score_table(five_by_seven(), ("a", "a"), query_ids, reference_ids)

    def test_an_empty_list_is_an_empty_block(self):
        ds = five_by_seven()
        for empty in ([], np.array([], dtype=np.intp)):
            values, observed = pairwise_score_table(ds, ("a", "a"), [0], empty)
            assert values.shape == observed.shape == (1, 0)
            values, observed = pairwise_score_table(ds, ("a", "a"), empty, [0])
            assert values.shape == observed.shape == (0, 1)

    @pytest.mark.parametrize("query_index", [-1, 99, True, 0.5])
    def test_bounds(self, query_index):
        with pytest.raises(ValueError, match="query"):
            cosine_bounds(five_by_seven(), ("a", "a"), query_index)


class TestSimilarityMatrix:
    '''Per-cell scores across the modality grid of one combination.'''

    def test_observability_pattern(self, tiny_dataset):
        # (a, b) and (b, a) share no space, so the grid has two scoreable cells
        assert tiny_dataset.schema.scoreable_pairs() == (("a", "a"), ("b", "b"))
        # query 1 only has "a"
        observed = [pairwise_score_table(tiny_dataset, pair, [1], [0])[1][0, 0]
                    for pair in tiny_dataset.schema.scoreable_pairs()]
        assert observed == [True, False]

    def test_values_match_scalar_cosine(self, tiny_dataset):
        values, _ = pairwise_score_table(tiny_dataset, ("b", "b"), [0], [1])
        want = cosine_similarity(
            tiny_dataset.query_embeddings[("b", "s2")][0],
            tiny_dataset.reference_embeddings[("b", "s2")][1],
        )
        assert values[0, 0] == want


def screened_dataset(factor):
    '''60 queries x 300 references at 64-d, every row times factor, with
    a zero query row (0), zero reference rows (3, 4), exact duplicates
    (10-19 repeat 0-9) and one-ulp neighbours (20-29 next to 0-9).'''
    ds = generate(SynthConfig(60, 300, ("a",), ("a",),
                              (SynthSpace("s", 64, noise_sigma=0.3),),
                              reference_dropout={"a": 0.3}, seed=11))
    key = ("a", "s")
    queries = ds.query_embeddings[key] * factor
    refs = ds.reference_embeddings[key] * factor
    refs[10:20] = refs[0:10]
    refs[20:30] = np.nextafter(refs[0:10], np.float32(np.inf))
    queries[0] = 0.0
    refs[[3, 4]] = 0.0
    return dataclasses.replace(ds, query_embeddings={key: queries},
                               reference_embeddings={key: refs})


class TestCosineBounds:
    '''The screen's bounds hold the exact cosine of every reference.'''

    @pytest.mark.parametrize("factor", [1.0, 1e-30, 1e-22, 1e22, 1e30])
    def test_exact_cosine_lies_inside(self, factor):
        ds = screened_dataset(factor)
        refs = np.arange(ds.n_references)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the screen leaks no warning
            for qi in range(ds.n_queries):
                lower, upper = cosine_bounds(ds, ("a", "a"), qi)
                exact = pairwise_score_table(ds, ("a", "a"), [qi], refs)[0][0]
                assert lower.dtype == upper.dtype == np.float64
                assert lower.shape == upper.shape == (ds.n_references,)
                assert np.all(lower <= exact) and np.all(exact <= upper), qi

    @pytest.mark.parametrize("factor", [1.0, 1e-30, 1e30])
    def test_zero_norm_rows_get_exactly_zero(self, factor):
        ds = screened_dataset(factor)
        lower, upper = cosine_bounds(ds, ("a", "a"), 0)
        assert np.all(lower == 0.0) and np.all(upper == 0.0)
        lower, upper = cosine_bounds(ds, ("a", "a"), 5)
        assert np.all(lower[[3, 4]] == 0.0) and np.all(upper[[3, 4]] == 0.0)

    @pytest.mark.parametrize("factor", [1e22, 1e30])
    def test_a_float32_overflow_bounds_nothing(self, factor):
        # every product overflows float32; the exact float64 route does not
        ds = screened_dataset(factor)
        lower, upper = cosine_bounds(ds, ("a", "a"), 5)
        nonzero = np.ones(ds.n_references, dtype=bool)
        nonzero[[3, 4]] = False
        assert np.all(lower[nonzero] == -np.inf) and np.all(upper[nonzero] == np.inf)

    def test_unit_scale_bounds_are_float32_tight(self):
        # at unit scale the slack is float32 rounding on 64 terms, so near
        # ties overlap but the bulk of the references is told apart
        ds = screened_dataset(1.0)
        lower, upper = cosine_bounds(ds, ("a", "a"), 5)
        width = upper - lower
        assert np.all(width[5:] > 0.0) and width.max() < 4 * 64 * 2.0 ** -24
        assert np.count_nonzero(width == 0.0) == 2  # the zero rows
        kth = np.sort(lower)[-10]
        assert np.count_nonzero(upper >= kth) < 40

    def test_no_reference_row_is_copied(self, peak_allocation):
        # one float32 product over the stored rows: a copy of the n x dim
        # float32 block would show in the peak
        ds = generate(SynthConfig(4, 2000, ("a",), ("a",),
                                  (SynthSpace("s", 128, noise_sigma=0.3),), seed=5))
        cosine_bounds(ds, ("a", "a"), 0)  # builds the cached norms
        peak = peak_allocation(lambda: cosine_bounds(ds, ("a", "a"), 1))
        assert peak < 2000 * 128 * 4 // 2

    def test_uncovered_pair_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            cosine_bounds(tiny_dataset, ("a", "b"), 0)
