'''
Whatever a writer emits, the matching reader gives back.

Each case draws a random valid synthetic recipe (modalities, spaces,
dropout, fuser) from its seed and sends every file kind through its writer
and reader: the dataset directory, the model, the --split-out file read as
--queries-file, and the results CSV. The converse holds too: a results
list that the reader would refuse, the writer refuses before writing.
'''

import math
import struct

import numpy as np
import pytest

from conformal_retrieval.cli import _read_queries_file, main
from conformal_retrieval.dataset import (
    DataFormatError,
    ModalitySchema,
    MultimodalDataset,
    RelevanceMap,
    SharedSpace,
    load_dataset,
    save_dataset,
    split_queries,
)
from conformal_retrieval.pipeline import fit_model, load_model, score_grid
from conformal_retrieval.retrieval import (
    RetrievalResult,
    batch_retrieve,
    read_results_csv,
    write_results_csv,
)
from conformal_retrieval.similarity import pairwise_score_table
from conformal_retrieval.synthgen import SynthConfig, SynthSpace, generate


def random_recipe(seed):
    '''A valid recipe: each query modality lies in exactly one space, so no
    pair is covered twice, and every space covers both sides.'''
    rng = np.random.default_rng(seed)
    query_mods = ("a", "b", "c")[:rng.integers(1, 4)]
    reference_mods = ("a", "b", "c", "d")[:rng.integers(1, 5)]
    owner = rng.integers(0, rng.integers(1, len(query_mods) + 1), len(query_mods))
    spaces = []
    for index in sorted(set(owner.tolist())):
        covered = rng.random(len(reference_mods)) < 0.6
        covered[rng.integers(len(reference_mods))] = True
        spaces.append(SynthSpace(
            f"s{index}", int(rng.integers(3, 9)),
            noise_sigma=float(rng.uniform(0.1, 0.6)),
            score_offset=float(rng.uniform(0.0, 0.5)),
            query_modalities=tuple(m for m, o in zip(query_mods, owner) if o == index),
            reference_modalities=tuple(np.array(reference_mods)[covered].tolist())))

    def dropout(mods):
        return {m: float(rng.uniform(0.0, 0.3)) for m in mods if rng.random() < 0.5}

    config = SynthConfig(
        n_queries=24, n_references=16,
        query_modalities=query_mods, reference_modalities=reference_mods,
        spaces=tuple(spaces), latent_dim=5,
        relevant_per_query=int(rng.integers(1, 3)),
        query_dropout=dropout(query_mods), reference_dropout=dropout(reference_mods),
        keep_at_least_one_query=True, keep_at_least_one_reference=True, seed=seed)
    return config, ("mean", "max")[rng.integers(2)]


def band_bits(band):
    return struct.pack("<2d", band.theta_min, band.theta_max) + band.sorted_gamma.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_every_writer_reads_back(tmp_path, seed):
    config, fuser = random_recipe(seed)
    dataset = generate(config)
    data = tmp_path / "data"
    save_dataset(dataset, data)
    back = load_dataset(data)
    assert back.fingerprint() == dataset.fingerprint()
    for side in ("query_embeddings", "reference_embeddings"):
        ours, theirs = getattr(dataset, side), getattr(back, side)
        assert set(ours) == set(theirs)
        for key, arr in ours.items():
            np.testing.assert_array_equal(theirs[key], arr)
    np.testing.assert_array_equal(back.query_mask, dataset.query_mask)
    np.testing.assert_array_equal(back.reference_mask, dataset.reference_mask)
    assert back.relevance == dataset.relevance

    model, split = tmp_path / "model.bin", tmp_path / "split.json"
    assert main(["calibrate", "--data", str(data), "--out", str(model),
                 "--fuser", fuser, "--seed", str(seed),
                 "--split-out", str(split)]) == 0
    calibration, test = split_queries(config.n_queries, 0.5, seed)
    assert _read_queries_file(split) == test.tolist()
    fitted = fit_model(back, calibration, fuser=fuser)
    loaded = load_model(model)
    assert loaded.schema_fingerprint == fitted.schema_fingerprint
    assert list(loaded.first_stage) == list(fitted.first_stage)
    for pair, band in fitted.first_stage.items():
        assert band_bits(loaded.first_stage[pair]) == band_bits(band)
    assert band_bits(loaded.second_stage) == band_bits(fitted.second_stage)

    results = batch_retrieve(loaded, back, query_ids=test, k=5,
                             mode=("exact", "shortlist")[seed % 2])
    write_results_csv(tmp_path / "results.csv", results)
    assert read_results_csv(tmp_path / "results.csv") == results


def test_float64_dataset_loads_back_bit_for_bit(tmp_path):
    '''A dataset built from float64 arrays holds what its files hold, so its
    save/load copy scores every cosine and fits every band the same.'''
    rng = np.random.default_rng(5)
    schema = ModalitySchema(("a", "b"), ("a",), (SharedSpace("s", 8, ("a", "b"), ("a",)),))
    dataset = MultimodalDataset(
        schema,
        {("a", "s"): rng.standard_normal((40, 8)), ("b", "s"): rng.standard_normal((40, 8))},
        {("a", "s"): rng.standard_normal((30, 8))},
        rng.random((40, 2)) < 0.8, np.ones((30, 1), dtype=bool),
        RelevanceMap(40, 30, tuple(frozenset({q % 30}) for q in range(40))))
    save_dataset(dataset, tmp_path / "data")
    back = load_dataset(tmp_path / "data")
    for side in ("query_embeddings", "reference_embeddings"):
        for key, arr in getattr(dataset, side).items():
            assert arr.dtype == getattr(back, side)[key].dtype == np.float32
            assert arr.tobytes() == getattr(back, side)[key].tobytes()
    for side in ("query_mask", "reference_mask"):
        assert getattr(dataset, side).tobytes() == getattr(back, side).tobytes()
    for pair in schema.scoreable_pairs():
        ours, theirs = (pairwise_score_table(ds, pair, np.arange(40), np.arange(30))
                        for ds in (dataset, back))
        assert ours[0].tobytes() == theirs[0].tobytes()
        assert np.array_equal(ours[1], theirs[1])
    ours, theirs = fit_model(dataset, range(20)), fit_model(back, range(20))
    for pair, band in ours.first_stage.items():
        assert band_bits(theirs.first_stage[pair]) == band_bits(band)
    assert band_bits(theirs.second_stage) == band_bits(ours.second_stage)


def test_pair_space_override_round_trips(tmp_path):
    '''An override the schema needs (two spaces cover a:a) is written to the
    manifest and read back with the same fingerprint and scores.'''
    rng = np.random.default_rng(9)
    schema = ModalitySchema(
        ("a", "b"), ("a",),
        (SharedSpace("s1", 6, ("a", "b"), ("a",)), SharedSpace("s2", 4, ("a",), ("a",))),
        pair_overrides={("a", "a"): "s2"})
    dataset = MultimodalDataset(
        schema,
        {("a", "s1"): rng.standard_normal((30, 6)), ("b", "s1"): rng.standard_normal((30, 6)),
         ("a", "s2"): rng.standard_normal((30, 4))},
        {("a", "s1"): rng.standard_normal((20, 6)), ("a", "s2"): rng.standard_normal((20, 4))},
        rng.random((30, 2)) < 0.8, np.ones((20, 1), dtype=bool),
        RelevanceMap(30, 20, tuple(frozenset({q % 20}) for q in range(30))))
    save_dataset(dataset, tmp_path / "data")
    back = load_dataset(tmp_path / "data")
    assert back.schema.pair_overrides == {("a", "a"): "s2"}
    assert back.fingerprint() == dataset.fingerprint()
    model = fit_model(dataset, range(15))
    for ours, theirs in zip(score_grid(model, dataset), score_grid(model, back)):
        assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("results", [
    [RetrievalResult(3, [(0, 0.5, False)]), RetrievalResult(3, [(1, 0.25, False)])],
    [RetrievalResult(3, [(0, 0.5, False)]), RetrievalResult(4, [(0, 0.5, False)]),
     RetrievalResult(3, [(1, 0.25, False)])],
    [RetrievalResult(3, [(0, 0.5, False), (0, 0.25, False)])],
    [RetrievalResult(-1, [(0, 0.5, False)])],
    [RetrievalResult(3, [(-2, 0.5, False)])],
    [RetrievalResult(3, [(0, math.nan, False)])],
], ids=["query-twice", "query-split", "reference-twice", "negative-query",
        "negative-reference", "nan-probability"])
def test_writer_refuses_what_the_reader_refuses(tmp_path, results):
    path = tmp_path / "results.csv"
    with pytest.raises(DataFormatError):
        write_results_csv(path, results)
    assert not path.exists()


def test_batch_listing_a_query_twice_is_refused(tmp_path):
    dataset = generate(random_recipe(0)[0])
    model = fit_model(dataset, range(12))
    with pytest.raises(DataFormatError):
        write_results_csv(tmp_path / "results.csv",
                          batch_retrieve(model, dataset, [13, 13], k=5))


def test_floats_read_back_exactly(tmp_path):
    results = [
        RetrievalResult(0, [(2, 1 / 3, False), (0, 0.1, False), (1, 5e-324, False)]),
        RetrievalResult(1, [(0, 0.75, False), (2, -math.inf, True),
                            (1, -math.inf, True)]),
    ]
    write_results_csv(tmp_path / "results.csv", results)
    assert read_results_csv(tmp_path / "results.csv") == results
