'''
Unit tests for the dataset model and its on-disk formats.

The embedding and mask payload bytes that save_dataset writes are frozen
against the published layout: little-endian headers (magic, version,
dtype/pad, rows, columns) followed by a row-major payload. A 1x2 float32
matrix must serialize to exactly 32 bytes. load_dataset is the one reader
of those files, so each malformed file is refused through it.
'''

import dataclasses
import json
import math
import os
import struct
import warnings

import numpy as np
import pytest

import conformal_retrieval.dataset as dataset_module
from conformal_retrieval.dataset import (
    DataFormatError,
    ModalitySchema,
    MultimodalDataset,
    RelevanceMap,
    SharedSpace,
    apply_modality_dropout,
    atomic_write_bytes,
    load_dataset,
    parse_json,
    read_csv,
    read_positions,
    read_relevance_pairs,
    relevance_from_positions,
    row_norms,
    save_dataset,
    schema_fingerprint,
    split_queries,
    write_csv,
    write_json,
    write_relevance_pairs,
)


def tiny_schema():
    return ModalitySchema(
        query_modalities=("a", "b"),
        reference_modalities=("a", "b"),
        spaces=(
            SharedSpace("s1", 3, ("a",), ("a",)),
            SharedSpace("s2", 2, ("b",), ("b",)),
        ),
    )


def tiny_dataset():
    schema = tiny_schema()
    q_s1 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    r_s1 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    q_s2 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    r_s2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    return MultimodalDataset(
        schema=schema,
        query_embeddings={("a", "s1"): q_s1, ("b", "s2"): q_s2},
        reference_embeddings={("a", "s1"): r_s1, ("b", "s2"): r_s2},
        query_mask=np.array([[1, 1], [1, 0], [0, 1]], dtype=bool),
        reference_mask=np.array([[1, 1], [1, 1]], dtype=bool),
        relevance=RelevanceMap(3, 2, (frozenset({0}), frozenset({1}), frozenset())),
    )


def one_space_dataset(query_rows, query_mask=None):
    '''A dataset of one space "s" whose query modality "m0" has
    query_rows, saved as query_m0_s.emb. query_mask has one column per
    query modality "m0", "m1", ... (default: one column, all present); the
    one reference row is all 1s.'''
    rows = np.asarray(query_rows)
    if query_mask is None:
        query_mask = np.ones((len(rows), 1), dtype=bool)
    mods = tuple(f"m{i}" for i in range(np.shape(query_mask)[1]))
    return MultimodalDataset(
        ModalitySchema(mods, ("r",), (SharedSpace("s", rows.shape[1], ("m0",), ("r",)),)),
        {("m0", "s"): rows}, {("r", "s"): np.ones((1, rows.shape[1]))},
        query_mask, np.ones((1, 1), dtype=bool),
        RelevanceMap(len(rows), 1, (frozenset(),) * len(rows)))


def saved_file(root, dataset, name):
    '''The path of file name after save_dataset(dataset, root).'''
    save_dataset(dataset, root)
    return root / name


EMB_HEADER_1X2 = b"A2AE" + struct.pack("<HBBQQ", 1, 0, 0, 1, 2)


class TestEmbeddingFile:
    '''The .emb files save_dataset writes and load_dataset reads.'''

    def test_frozen_byte_layout(self, tmp_path):
        path = saved_file(tmp_path, one_space_dataset([[0.5, -1.0]]), "query_m0_s.emb")
        payload = np.array([[0.5, -1.0]], dtype="<f4").tobytes()
        assert path.read_bytes() == EMB_HEADER_1X2 + payload
        assert len(EMB_HEADER_1X2 + payload) == 32

    def test_round_trip_is_exact_at_float32(self, tmp_path):
        matrix = np.random.default_rng(42).standard_normal((17, 5))
        save_dataset(one_space_dataset(matrix), tmp_path)
        back = load_dataset(tmp_path).query_embeddings[("m0", "s")]
        assert back.dtype == np.float32
        assert back.tobytes() == matrix.astype(np.float32).tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = saved_file(tmp_path, one_space_dataset(np.zeros((1, 2))), "query_m0_s.emb")
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(DataFormatError, match="bad magic b'XXXX'"):
            load_dataset(tmp_path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = saved_file(tmp_path, one_space_dataset(np.zeros((2, 2))), "query_m0_s.emb")
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(DataFormatError, match="payload is 13 bytes, header promises 16"):
            load_dataset(tmp_path)

    def test_unknown_version_rejected(self, tmp_path):
        path = saved_file(tmp_path, one_space_dataset(np.zeros((1, 2))), "query_m0_s.emb")
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<H", 9) + blob[6:])
        with pytest.raises(DataFormatError, match="unsupported version 9"):
            load_dataset(tmp_path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = saved_file(tmp_path, one_space_dataset(np.zeros((1, 2))), "query_m0_s.emb")
        path.write_bytes(EMB_HEADER_1X2 + np.array([[np.nan, 0.0]], dtype="<f4").tobytes())
        with pytest.raises(DataFormatError,
                           match="query embedding m0/s: not a 2-D matrix of finite float32"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("rows, message", [
        (1, r"query embedding m0/s has shape \(1, 0\), expected \(1, 2\)"),
        (2**64 - 1, "cannot hold"),
    ], ids=["dataset-rows", "past-any-array"])
    def test_zero_column_file_is_refused(self, tmp_path, rows, message):
        # rows x 0 passes the payload length check at any row count
        path = saved_file(tmp_path, one_space_dataset(np.zeros((1, 2))), "query_m0_s.emb")
        path.write_bytes(b"A2AE" + struct.pack("<HBBQQ", 1, 0, 0, rows, 0))
        with pytest.raises(DataFormatError, match=message):
            load_dataset(tmp_path)


class TestMaskFile:
    '''The .msk files save_dataset writes and load_dataset reads.'''

    def test_frozen_byte_layout(self, tmp_path):
        ds = one_space_dataset(np.zeros((2, 1)), np.array([[1, 0], [1, 1]], dtype=bool))
        path = saved_file(tmp_path, ds, "query_mask.msk")
        header = b"A2AM" + struct.pack("<HHQQ", 1, 0, 2, 2)
        assert path.read_bytes() == header + b"\x01\x00\x01\x01"

    def test_round_trip(self, tmp_path):
        mask = np.random.default_rng(3).random((9, 4)) < 0.5
        save_dataset(one_space_dataset(np.zeros((9, 1)), mask), tmp_path)
        np.testing.assert_array_equal(load_dataset(tmp_path).query_mask, mask)

    def test_stray_byte_value_rejected(self, tmp_path):
        ds = one_space_dataset(np.zeros((1, 1)), np.array([[1, 0]], dtype=bool))
        path = saved_file(tmp_path, ds, "query_mask.msk")
        path.write_bytes(b"A2AM" + struct.pack("<HHQQ", 1, 0, 1, 2) + b"\x01\x02")
        with pytest.raises(DataFormatError, match="query mask: not a 2-D matrix of 0s and 1s"):
            load_dataset(tmp_path)


class TestRelevanceFiles:
    def test_pairs_round_trip(self, tmp_path):
        rel = RelevanceMap(3, 4, (frozenset({1, 2}), frozenset(), frozenset({0})))
        path = tmp_path / "rel.csv"
        write_relevance_pairs(path, rel)
        text = path.read_text()
        assert text.splitlines()[0] == "query_id,reference_id"
        back = read_relevance_pairs(path, 3, 4)
        assert back.relevant == rel.relevant

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text("query,ref\n0,1\n")
        with pytest.raises(DataFormatError):
            read_relevance_pairs(path, 2, 2)

    def test_out_of_range_reference_rejected(self, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text("query_id,reference_id\n0,5\n")
        with pytest.raises(DataFormatError):
            read_relevance_pairs(path, 2, 2)

    def test_positions_header_and_order(self, tmp_path):
        path = tmp_path / "pos.csv"
        path.write_text("id,x,y\n1,10.0,0.5\n0,-2.0,3.5\n")
        xy = read_positions(path)
        np.testing.assert_array_equal(xy, [[-2.0, 3.5], [10.0, 0.5]])

    def test_positions_gap_in_ids_rejected(self, tmp_path):
        path = tmp_path / "pos.csv"
        path.write_text("id,x,y\n0,0,0\n2,1,1\n")
        with pytest.raises(DataFormatError):
            read_positions(path)


class TestCsv:
    COLUMNS = (("id", int), ("x", float), ("flag", str))

    def test_numpy_scalars_write_plain_text_and_read_back(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, self.COLUMNS, [(np.int64(2), np.float64(1 / 3), "1"),
                                       (0, -math.inf, "0"), (1, 5e-324, "x")])
        assert path.read_text() == (
            "id,x,flag\n2,0.3333333333333333,1\n0,-inf,0\n1,5e-324,x\n")
        assert read_csv(path, self.COLUMNS) == [
            (2, 1 / 3, "1"), (0, -math.inf, "0"), (1, 5e-324, "x")]

    @pytest.mark.parametrize("row, field", [("0,x,1", "x"), ("y,0.5,1", "id")])
    def test_unconvertible_cell_names_file_and_field(self, tmp_path, row, field):
        path = tmp_path / "t.csv"
        path.write_text(f"id,x,flag\n0,0.5,1\n{row}\n")
        with pytest.raises(DataFormatError, match=f"t.csv: field {field}:"):
            read_csv(path, self.COLUMNS)


class TestRelevanceMap:
    @pytest.mark.parametrize("n_queries, relevant, message", [
        pytest.param(3, ({0}, {1}), "one set per query", id="too-few-sets"),
        pytest.param(2, ({0}, {2}), r"query 1 names reference 2 outside \[0, 2\)",
                     id="reference-past-the-end"),
        pytest.param(1, ({-1},), r"names reference -1 outside", id="negative-reference"),
    ])
    def test_malformed_map_rejected(self, n_queries, relevant, message):
        with pytest.raises(DataFormatError, match=message):
            RelevanceMap(n_queries, 2, relevant)

    @pytest.mark.parametrize("shape, message", [
        pytest.param((4, 2), "relevance query count", id="queries"),
        pytest.param((3, 5), "relevance reference count", id="references"),
    ])
    def test_counts_must_match_the_embeddings(self, shape, message):
        ds = tiny_dataset()
        relevance = RelevanceMap(*shape, [()] * shape[0])
        with pytest.raises(DataFormatError, match=message):
            MultimodalDataset(ds.schema, ds.query_embeddings, ds.reference_embeddings,
                              ds.query_mask, ds.reference_mask, relevance)


class TestRelevanceFromPositions:
    def test_boundary_is_inclusive(self):
        queries = np.array([[0.0, 0.0], [10.0, 0.0]])
        refs = np.array([[3.0, 4.0], [0.0, 5.0001], [10.0, 0.0]])
        rel = relevance_from_positions(queries, refs, 5.0)
        assert rel.relevant[0] == frozenset({0})
        assert rel.relevant[1] == frozenset({2})

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(ValueError):
            relevance_from_positions(np.array([[np.nan, 0.0]]), np.zeros((1, 2)), 1.0)

    @pytest.mark.parametrize("query_xy, reference_xy, threshold, message", [
        pytest.param(np.zeros((2, 3)), np.zeros((1, 2)), 1.0, r"must be \(n, 2\)",
                     id="three-columns"),
        pytest.param(np.zeros((2, 2)), np.zeros(2), 1.0, r"must be \(n, 2\)",
                     id="one-dimensional"),
        pytest.param(np.zeros((1, 2)), np.zeros((1, 2)), -1.0, "threshold_meters",
                     id="negative-threshold"),
        pytest.param(np.zeros((1, 2)), np.zeros((1, 2)), math.inf, "threshold_meters",
                     id="infinite-threshold"),
        pytest.param(np.zeros((1, 2)), np.zeros((1, 2)), math.nan, "threshold_meters",
                     id="nan-threshold"),
    ])
    def test_bad_arguments_rejected(self, query_xy, reference_xy, threshold, message):
        with pytest.raises(ValueError, match=message):
            relevance_from_positions(query_xy, reference_xy, threshold)


class TestSplitQueries:
    def test_half_up_rounding(self):
        cal, test = split_queries(10, 0.25, seed=42)
        assert len(cal) == 3 and len(test) == 7

    def test_disjoint_and_exhaustive(self):
        cal, test = split_queries(101, 0.4, seed=7)
        merged = np.sort(np.concatenate([cal, test]))
        np.testing.assert_array_equal(merged, np.arange(101))

    def test_deterministic(self):
        a = split_queries(50, 0.3, seed=5)
        b = split_queries(50, 0.3, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            split_queries(10, 0.01, seed=0)
        with pytest.raises(ValueError):
            split_queries(10, 0.999, seed=0)

    @pytest.mark.parametrize("n_queries, fraction, message", [
        pytest.param(1, 0.5, "at least 2 queries", id="one-query"),
        pytest.param(10, 0.0, "strictly inside", id="fraction-0"),
        pytest.param(10, 1.0, "strictly inside", id="fraction-1"),
        pytest.param(10, math.nan, "strictly inside", id="nan-fraction"),
    ])
    def test_bad_arguments_rejected(self, n_queries, fraction, message):
        with pytest.raises(ValueError, match=message):
            split_queries(n_queries, fraction, seed=0)


class TestModalityDropout:
    def test_zero_probability_is_noop(self):
        mask = np.ones((6, 3), dtype=bool)
        out = apply_modality_dropout(mask, [0.0, 0.0, 0.0], seed=1)
        np.testing.assert_array_equal(out, mask)

    def test_marginal_rate_close_to_probability(self):
        mask = np.ones((4000, 2), dtype=bool)
        out = apply_modality_dropout(mask, [0.5, 0.1], seed=42)
        rates = 1.0 - out.mean(axis=0)
        assert abs(rates[0] - 0.5) < 0.03
        assert abs(rates[1] - 0.1) < 0.03

    def test_absent_entries_stay_absent(self):
        mask = np.zeros((5, 2), dtype=bool)
        out = apply_modality_dropout(mask, [0.0, 0.0], seed=0)
        assert not out.any()

    def test_keep_at_least_one(self):
        mask = np.ones((500, 3), dtype=bool)
        out = apply_modality_dropout(mask, [0.9, 0.9, 0.9], seed=11, keep_at_least_one=True)
        assert out.any(axis=1).all()

    def test_deterministic_under_seed(self):
        mask = np.ones((40, 4), dtype=bool)
        a = apply_modality_dropout(mask, [0.3] * 4, seed=9)
        b = apply_modality_dropout(mask, [0.3] * 4, seed=9)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("mask, probabilities, keep, message", [
        pytest.param(np.ones((3, 2)), [0.5], False, "one value per modality column",
                     id="too-few-probabilities"),
        pytest.param(np.ones(2), [0.5, 0.5], False, "one value per modality column",
                     id="one-dimensional-mask"),
        pytest.param(np.ones((3, 2)), [0.5, 1.5], False, r"lie in \[0, 1\]",
                     id="probability-above-1"),
        pytest.param(np.ones((3, 2)), [-0.1, 0.5], False, r"lie in \[0, 1\]",
                     id="negative-probability"),
        pytest.param(np.ones((3, 2)), [0.5, math.nan], False, r"lie in \[0, 1\]",
                     id="nan-probability"),
        pytest.param(np.ones((3, 2)), [0.5, 1.0], True, "keep_at_least_one",
                     id="keep-one-with-certain-dropout"),
    ])
    def test_bad_arguments_rejected(self, mask, probabilities, keep, message):
        with pytest.raises(ValueError, match=message):
            apply_modality_dropout(mask, probabilities, seed=0, keep_at_least_one=keep)


class TestSchema:
    def test_pair_resolution(self):
        schema = tiny_schema()
        assert schema.scoreable_pairs() == (("a", "a"), ("b", "b"))
        assert schema.space_for("a", "a").name == "s1"
        assert schema.space_for("a", "b") is None

    def test_ambiguous_coverage_rejected(self):
        with pytest.raises(DataFormatError):
            ModalitySchema(
                ("a",),
                ("a",),
                (
                    SharedSpace("s1", 2, ("a",), ("a",)),
                    SharedSpace("s2", 2, ("a",), ("a",)),
                ),
            )

    def test_override_resolves_ambiguity(self):
        schema = ModalitySchema(
            ("a",),
            ("a",),
            (
                SharedSpace("s1", 2, ("a",), ("a",)),
                SharedSpace("s2", 2, ("a",), ("a",)),
            ),
            pair_overrides={("a", "a"): "s2"},
        )
        assert schema.space_for("a", "a").name == "s2"

    @pytest.mark.parametrize("pair, name", [
        (("a", "a"), "nonexistent"),
        (("a", "a"), "s2"),
        (("a", "b"), "s1"),
        (("z", "a"), "s1"),
    ], ids=["unknown-space", "space-not-covering", "uncovered-pair", "unknown-pair"])
    def test_override_must_name_a_covering_space(self, pair, name):
        base = tiny_schema()
        with pytest.raises(DataFormatError, match="override"):
            ModalitySchema(base.query_modalities, base.reference_modalities,
                           base.spaces, pair_overrides={pair: name})

    def test_override_may_name_the_only_covering_space(self):
        base = tiny_schema()
        schema = ModalitySchema(base.query_modalities, base.reference_modalities,
                                base.spaces, pair_overrides={("a", "a"): "s1"})
        assert schema.space_for("a", "a").name == "s1"

    def test_no_scoreable_pair_rejected(self):
        with pytest.raises(DataFormatError):
            ModalitySchema(("a",), ("b",), (SharedSpace("s1", 2, ("a",), ()),))

    def test_fingerprint_tracks_structure(self):
        a = schema_fingerprint(tiny_schema())
        assert a == schema_fingerprint(tiny_schema())
        other = ModalitySchema(
            ("a", "b"),
            ("a", "b"),
            (
                SharedSpace("s1", 4, ("a",), ("a",)),
                SharedSpace("s2", 2, ("b",), ("b",)),
            ),
        )
        assert a != schema_fingerprint(other)

    def test_fingerprint_separates_override_maps(self):
        # joined as "q:r=space" text, both override sets read the same
        spaces = (SharedSpace("s1", 2, ("a:b", "a"), ("c", "b:c")),
                  SharedSpace("s2", 2, ("a:b", "a"), ("c", "b:c")))

        def schema(to_s2):
            pairs = [(q, r) for q in ("a:b", "a") for r in ("c", "b:c")]
            return ModalitySchema(("a:b", "a"), ("c", "b:c"), spaces, {
                pair: "s2" if pair == to_s2 else "s1" for pair in pairs})

        x, y = schema(("a:b", "c")), schema(("a", "b:c"))
        assert x.space_for("a:b", "c").name != y.space_for("a:b", "c").name
        assert schema_fingerprint(x) != schema_fingerprint(y)


class TestDatasetValidation:
    def test_counts(self):
        ds = tiny_dataset()
        assert ds.n_queries == 3
        assert ds.n_references == 2

    def test_callers_dicts_and_arrays_left_as_they_were(self):
        qe = {("a", "s1"): np.eye(3), ("b", "s2"): np.ones((3, 2))}
        ref = {("a", "s1"): np.eye(3)[:2], ("b", "s2"): np.zeros((2, 2))}
        given = [(d, dict(d), {key: arr.copy() for key, arr in d.items()})
                 for d in (qe, ref)]
        ds = MultimodalDataset(tiny_schema(), qe, ref, np.ones((3, 2), dtype=bool),
                               np.ones((2, 2), dtype=bool),
                               RelevanceMap(3, 2, (frozenset(),) * 3))
        assert ds.query_embeddings is not qe and ds.reference_embeddings is not ref
        for d, entries, copies in given:
            assert d.keys() == entries.keys()
            for key, arr in d.items():
                assert arr is entries[key]
                assert arr.dtype == copies[key].dtype
                assert arr.tobytes() == copies[key].tobytes()

    @pytest.mark.parametrize("given", [
        lambda a: a,
        np.asfortranarray,
        lambda a: a[:, ::-1],
        lambda a: np.lib.stride_tricks.as_strided(a, writeable=False),
    ], ids=["c-order", "f-order", "reversed-columns", "read-only-view"])
    def test_later_writes_to_a_callers_float32_array_do_not_reach_it(self, given):
        rows = np.arange(9, dtype=np.float32).reshape(3, 3) + 1
        arr = given(rows)
        ds = MultimodalDataset(
            tiny_schema(), {("a", "s1"): arr, ("b", "s2"): np.ones((3, 2))},
            {("a", "s1"): np.eye(3)[:2], ("b", "s2"): np.zeros((2, 2))},
            np.ones((3, 2), dtype=bool), np.ones((2, 2), dtype=bool),
            RelevanceMap(3, 2, (frozenset(),) * 3))
        kept = ds.query_embeddings[("a", "s1")]
        want = np.array(arr)
        for target in (rows, arr):
            if target.flags.writeable:
                target[:] = -1.0
        assert kept.dtype == np.float32 and kept.flags.c_contiguous
        assert kept.tobytes() == want.tobytes()

    @pytest.mark.parametrize("side", ["query_mask", "reference_mask"])
    def test_later_writes_to_a_callers_bool_mask_do_not_reach_it(self, side):
        ds = tiny_dataset()
        masks = {"query_mask": np.array(ds.query_mask),
                 "reference_mask": np.array(ds.reference_mask)}
        given = masks[side]
        want = given.copy()
        built = MultimodalDataset(ds.schema, ds.query_embeddings,
                                  ds.reference_embeddings, relevance=ds.relevance,
                                  **masks)
        assert getattr(built, side) is not given
        given[:] = ~given
        assert np.array_equal(getattr(built, side), want)

    def test_missing_embedding_key_rejected(self):
        ds = tiny_dataset()
        bad = dict(ds.query_embeddings)
        del bad[("b", "s2")]
        with pytest.raises(DataFormatError):
            MultimodalDataset(
                ds.schema, bad, ds.reference_embeddings,
                ds.query_mask, ds.reference_mask, ds.relevance,
            )

    def test_row_count_disagreement_rejected(self):
        ds = tiny_dataset()
        bad = dict(ds.query_embeddings)
        bad[("b", "s2")] = np.zeros((4, 2))
        with pytest.raises(DataFormatError):
            MultimodalDataset(
                ds.schema, bad, ds.reference_embeddings,
                ds.query_mask, ds.reference_mask, ds.relevance,
            )

    @pytest.mark.parametrize("value", [2, -1, 0.5])
    @pytest.mark.parametrize("side", ["query_mask", "reference_mask"])
    def test_mask_values_other_than_0_and_1_rejected(self, side, value):
        ds = tiny_dataset()
        masks = {"query_mask": ds.query_mask.astype(float),
                 "reference_mask": ds.reference_mask.astype(float)}
        masks[side][0, 0] = value
        with pytest.raises(DataFormatError, match="0s and 1s"):
            MultimodalDataset(ds.schema, ds.query_embeddings,
                              ds.reference_embeddings, relevance=ds.relevance,
                              **masks)

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e300],
                             ids=["inf", "nan", "past-float32"])
    def test_values_not_finite_at_float32_rejected(self, value):
        # 1e300 is finite at float64 but inf once cast to the stored float32
        ds = tiny_dataset()
        rows = np.ones((3, 3))
        rows[1, 2] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="query embedding a/s1: not a 2-D "
                                                      "matrix of finite float32 values"):
                MultimodalDataset(ds.schema, {**ds.query_embeddings, ("a", "s1"): rows},
                                  ds.reference_embeddings, ds.query_mask,
                                  ds.reference_mask, ds.relevance)

    def test_dim_mismatch_rejected(self):
        ds = tiny_dataset()
        bad = dict(ds.reference_embeddings)
        bad[("a", "s1")] = np.zeros((2, 5))
        with pytest.raises(DataFormatError):
            MultimodalDataset(
                ds.schema, ds.query_embeddings, bad,
                ds.query_mask, ds.reference_mask, ds.relevance,
            )


def random_dataset(n_references=40, seed=0):
    '''tiny_schema with random float64 rows of differing scale, one
    zero reference row and a random reference mask.'''
    rng = np.random.default_rng(seed)

    def rows(n, dim):
        out = rng.standard_normal((n, dim)) * rng.uniform(1e-3, 1e3, size=(n, 1))
        out[0] = 0.0
        return out

    return MultimodalDataset(
        tiny_schema(),
        {("a", "s1"): rows(3, 3), ("b", "s2"): rows(3, 2)},
        {("a", "s1"): rows(n_references, 3), ("b", "s2"): rows(n_references, 2)},
        np.ones((3, 2), dtype=bool),
        rng.random((n_references, 2)) < 0.7,
        RelevanceMap(3, n_references, (frozenset(),) * 3))


class TestImmutability:
    '''A dataset's arrays are read-only, so the reference norms it keeps
    always match its rows.'''

    @pytest.fixture(params=["built", "loaded"])
    def ds(self, request, tmp_path):
        ds = random_dataset()
        if request.param == "loaded":
            save_dataset(ds, tmp_path / "data")
            ds = load_dataset(tmp_path / "data")
        return ds

    def test_stored_arrays_refuse_writes(self, ds):
        arrays = [*ds.query_embeddings.values(), *ds.reference_embeddings.values(),
                  ds.query_mask, ds.reference_mask, *ds.reference_norms.values()]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_fields_and_embedding_mappings_refuse_writes(self, ds):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.reference_mask = np.ones_like(ds.reference_mask)
        for embeddings in (ds.query_embeddings, ds.reference_embeddings):
            key = next(iter(embeddings))
            with pytest.raises(TypeError):
                embeddings[key] = np.zeros_like(embeddings[key])

    def test_reference_norms_are_the_norms_of_one_row_blocks(self, ds):
        assert ds.reference_norms.keys() == ds.reference_embeddings.keys()
        for key, rows in ds.reference_embeddings.items():
            want = np.concatenate([row_norms(rows[i:i + 1]) for i in range(len(rows))])
            assert ds.reference_norms[key].dtype == np.float64
            assert ds.reference_norms[key].tobytes() == want.tobytes()

    def test_reference_norms_are_built_on_first_use(self, ds):
        assert "reference_norms" not in vars(ds)
        norms = ds.reference_norms
        assert ds.reference_norms is norms


class TestManifestIO:
    def test_save_load_round_trip(self, tmp_path):
        ds = tiny_dataset()
        save_dataset(ds, tmp_path / "data")
        back = load_dataset(tmp_path / "data")
        assert back.schema == ds.schema
        for key, arr in ds.query_embeddings.items():
            np.testing.assert_array_equal(back.query_embeddings[key], arr)
        np.testing.assert_array_equal(back.query_mask, ds.query_mask)
        np.testing.assert_array_equal(back.reference_mask, ds.reference_mask)
        assert back.relevance.relevant == ds.relevance.relevant

    def test_loaded_embeddings_are_the_files_float32_bytes(self, tmp_path):
        # no copy at load: each array is a read-only view over its file
        ds = tiny_dataset()
        save_dataset(ds, tmp_path / "data")
        back = load_dataset(tmp_path / "data")
        for side in ("query_embeddings", "reference_embeddings"):
            for key, arr in getattr(back, side).items():
                assert arr.dtype == np.float32 and arr.flags.c_contiguous
                assert not arr.flags.owndata and not arr.flags.writeable
                assert arr.tobytes() == getattr(ds, side)[key].tobytes()

    @pytest.mark.parametrize("query_mods, spaces, overrides", [
        # both write query_a_s1_x.emb
        (("a", "a_s1"), (SharedSpace("s1_x", 2, ("a",), ("r",)),
                         SharedSpace("x", 2, ("a_s1",), ("r",))), {}),
        (("a/b",), (SharedSpace("s", 2, ("a/b",), ("r",)),), {}),
        (("a",), (SharedSpace(f"s{os.sep}t", 2, ("a",), ("r",)),), {}),
        (("a\0",), (SharedSpace("s", 2, ("a\0",), ("r",)),), {}),
        # written as the key "a:b:r", which load_dataset refuses
        (("a:b",), (SharedSpace("s", 2, ("a:b",), ("r",)),
                    SharedSpace("t", 2, ("a:b",), ("r",))), {("a:b", "r"): "t"}),
    ], ids=["one-file-name", "slash", "os-sep", "nul", "override-colon"])
    def test_save_refuses_names_that_do_not_load_back(self, tmp_path, query_mods,
                                                      spaces, overrides):
        schema = ModalitySchema(query_mods, ("r",), spaces, overrides)
        rng = np.random.default_rng(0)

        def embeddings(side):
            return {(mod, s.name): rng.standard_normal((3, s.dim))
                    for s in spaces for mod in getattr(s, f"{side}_modalities")}

        ds = MultimodalDataset(
            schema, embeddings("query"), embeddings("reference"),
            np.ones((3, len(query_mods)), dtype=bool), np.ones((3, 1), dtype=bool),
            RelevanceMap(3, 3, (frozenset({0}), frozenset({1}), frozenset({2}))))
        with pytest.raises(ValueError):
            save_dataset(ds, tmp_path / "data")
        assert not (tmp_path / "data").exists()

    def test_missing_mask_means_all_present(self, tmp_path):
        ds = tiny_dataset()
        save_dataset(ds, tmp_path / "data")
        manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
        del manifest["query_mask"]
        (tmp_path / "data" / "manifest.json").write_text(json.dumps(manifest))
        back = load_dataset(tmp_path / "data")
        assert back.query_mask.all()

    def test_dim_mismatch_between_manifest_and_file(self, tmp_path):
        ds = tiny_dataset()
        save_dataset(ds, tmp_path / "data")
        manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
        manifest["spaces"][0]["dim"] = 7
        (tmp_path / "data" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataFormatError):
            load_dataset(tmp_path / "data")

    def test_unknown_relevance_type_rejected(self, tmp_path):
        ds = tiny_dataset()
        save_dataset(ds, tmp_path / "data")
        manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
        manifest["relevance"]["type"] = "mystery"
        (tmp_path / "data" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataFormatError):
            load_dataset(tmp_path / "data")

    def test_positions_relevance(self, tmp_path):
        ds = tiny_dataset()
        save_dataset(ds, tmp_path / "data")
        root = tmp_path / "data"
        (root / "qpos.csv").write_text("id,x,y\n0,0,0\n1,100,0\n2,200,0\n")
        (root / "rpos.csv").write_text("id,x,y\n0,3,4\n1,100,6\n")
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["relevance"] = {
            "type": "positions",
            "query_path": "qpos.csv",
            "reference_path": "rpos.csv",
            "threshold_meters": 6.0,
        }
        (root / "manifest.json").write_text(json.dumps(manifest))
        back = load_dataset(root)
        assert back.relevance.relevant == (
            frozenset({0}), frozenset({1}), frozenset(),
        )

    def test_version_mismatch_rejected(self, tmp_path):
        ds = tiny_dataset()
        save_dataset(ds, tmp_path / "data")
        manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
        manifest["version"] = 2
        (tmp_path / "data" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataFormatError):
            load_dataset(tmp_path / "data")


class TestLoadChecks:
    '''load_dataset checks each array's values once, in MultimodalDataset,
    and a refusal names the manifest and the array.'''

    @staticmethod
    def count_checks(monkeypatch):
        '''A list that, from now on, gets the name of each array that
        _embedding or _mask checks.'''
        checked = []
        for name in ("_embedding", "_mask"):
            rule = getattr(dataset_module, name)
            monkeypatch.setattr(dataset_module, name,
                                lambda arr, where, rule=rule: checked.append(where)
                                or rule(arr, where))
        return checked

    def test_each_array_is_checked_once(self, tmp_path, monkeypatch):
        save_dataset(tiny_dataset(), tmp_path / "data")
        checked = self.count_checks(monkeypatch)
        load_dataset(tmp_path / "data")
        assert sorted(checked) == [
            "query embedding a/s1", "query embedding b/s2", "query mask",
            "reference embedding a/s1", "reference embedding b/s2", "reference mask"]

    def test_save_checks_no_array_again(self, tmp_path, monkeypatch):
        # the dataset checked every array when it was built
        ds = tiny_dataset()
        checked = self.count_checks(monkeypatch)
        save_dataset(ds, tmp_path / "data")
        assert checked == []

    @pytest.mark.parametrize("name, raw, message", [
        ("query_a_s1.emb", struct.pack("<f", math.nan),
         "query embedding a/s1: not a 2-D matrix of finite float32 values"),
        ("reference_mask.msk", b"\x02", "reference mask: not a 2-D matrix of 0s and 1s"),
    ], ids=["nan-embedding", "stray-mask-byte"])
    def test_bad_values_are_refused_naming_the_manifest(self, tmp_path, name, raw,
                                                        message):
        save_dataset(tiny_dataset(), tmp_path / "data")
        path = tmp_path / "data" / name
        blob = path.read_bytes()
        path.write_bytes(blob[:24] + raw + blob[24 + len(raw):])  # first payload value
        manifest = os.path.join(tmp_path / "data", "manifest.json")
        with pytest.raises(DataFormatError) as info:
            load_dataset(tmp_path / "data")
        assert str(info.value) == f"{manifest}: {message}"


class TestAtomicWrite:
    def test_chunks_are_written_in_order(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"ab", bytearray(b"cd"), memoryview(b"ef"),
                           np.array([[1], [2]], dtype="<u2"))
        assert path.read_bytes() == b"abcdef\x01\x00\x02\x00"

    @pytest.mark.parametrize("chunk", [np.arange(4.0)[::2], "text"],
                             ids=["strided-array", "str"])
    def test_a_chunk_that_cannot_be_written_leaves_no_file(self, tmp_path, chunk):
        with pytest.raises((TypeError, ValueError)):
            atomic_write_bytes(tmp_path / "out.bin", b"head", chunk, b"tail")
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_write_keeps_the_old_target(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with pytest.raises(TypeError):
            atomic_write_bytes(path, b"new", object())
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"old"

    def test_matrix_files_are_written_in_row_order(self, tmp_path):
        rows = np.arange(6, dtype=np.float32).reshape(2, 3)
        mask = np.array([[1, 0], [0, 1]], dtype=bool)
        save_dataset(one_space_dataset(rows, mask), tmp_path / "c")
        save_dataset(one_space_dataset(np.asfortranarray(rows), np.asfortranarray(mask)),
                     tmp_path / "f")
        for name in ("query_m0_s.emb", "query_mask.msk"):
            assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "f" / name).read_bytes()
        assert (tmp_path / "c" / "query_m0_s.emb").read_bytes()[24:] == rows.tobytes()


def test_failed_rename_leaves_no_file(tmp_path, monkeypatch):
    # the temp file is removed and the error propagates; the target is
    # never created
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        atomic_write_bytes(tmp_path / "out.bin", b"data")
    assert list(tmp_path.iterdir()) == []


class TestParseJson:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_write_json_refuses_what_parse_json_refuses(self, tmp_path, value):
        path = tmp_path / "doc.json"
        with pytest.raises(ValueError):
            write_json(path, {"a": [1.0, value]})
        assert not path.exists()

    def test_parses_a_document(self):
        assert parse_json(b'{"a": [1, 2.5, "x"]}', "f") == {"a": [1, 2.5, "x"]}

    @pytest.mark.parametrize("blob, message", [
        (b'["\xff"]', "f: not UTF-8"),
        (b"[1,", "f: invalid JSON"),
        (b"[" * 100_000 + b"]" * 100_000, "f: invalid JSON"),
        (b"[NaN]", "NaN is not allowed"),
        (b"[Infinity]", "Infinity is not allowed"),
        (b"[-Infinity]", "-Infinity is not allowed"),
    ], ids=["not-utf8", "truncated", "deep", "nan", "infinity", "minus-infinity"])
    def test_malformed_documents_rejected(self, blob, message):
        with pytest.raises(DataFormatError, match=message) as info:
            parse_json(blob, "f")
        assert str(info.value).count("f:") == 1
