'''
Unit tests for the two-stage calibration pipeline.

The tiny-dataset expectations were derived by hand. With calibration
queries {0, 1}: the ("a","a") band sees scores [1,0,0,1] with labels
[1,0,0,1] (every nonconformity 0), the ("b","b") band sees [(0,1),(1,0)]
(every nonconformity 1), the fused training values come out [0.4, 0, 0,
0.8], and the second stage therefore maps fused 0.4 -> 3/5 and fused
0.8 -> 4/5.
'''

import dataclasses
import json
import math
import struct
from collections import Counter

import numpy as np
import pytest

import conformal_retrieval.pipeline as pipeline_module
from conformal_retrieval.conformal import (
    PredictionBand,
    conformal_probability,
    fit_band_arrays,
)
from conformal_retrieval.dataset import (
    DataFormatError,
    MultimodalDataset,
    RelevanceMap,
    load_dataset,
    save_dataset,
)
from conformal_retrieval.pipeline import (
    CalibratedModel,
    Fuser,
    ModelDataMismatchError,
    fit_model,
    load_model,
    save_model,
    score_grid,
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


class TestBuildCalibrationPairs:
    '''A stage-one band holds one score per observed calibration cell.'''

    def test_full_cross_product(self, tiny_dataset):
        band = fit_model(tiny_dataset, [0, 1]).first_stage[("a", "a")]
        # 2 calibration queries x 2 references, scores [1, 0, 0, 1]
        assert (band.theta_min, band.theta_max, band.size) == (0.0, 1.0, 4)
        np.testing.assert_array_equal(band.sorted_gamma, [0, 0, 0, 0])

    def test_missing_query_modality_drops_rows(self, tiny_dataset):
        # query 2 has no "a", so only query 0 contributes to ("a", "a")
        model = fit_model(tiny_dataset, [0, 2])
        assert model.first_stage[("a", "a")].size == 2
        assert model.first_stage[("b", "b")].size == 4

    def test_labels_follow_relevance(self, tiny_dataset):
        # query 0 is relevant to reference 0, which it scores 0 on "b" (and
        # reference 1 scores 1), so both nonconformity scores are 1
        band = fit_model(tiny_dataset, [0]).first_stage[("b", "b")]
        np.testing.assert_array_equal(band.sorted_gamma, [1, 1])


def masked_tiny(tiny_dataset):
    '''tiny_dataset with reference 1 carrying only "b".'''
    return MultimodalDataset(
        schema=tiny_dataset.schema,
        query_embeddings=dict(tiny_dataset.query_embeddings),
        reference_embeddings=dict(tiny_dataset.reference_embeddings),
        query_mask=tiny_dataset.query_mask,
        reference_mask=np.array([[1, 1], [0, 1]], dtype=bool),
        relevance=tiny_dataset.relevance,
    )


class TestFuse:
    '''Fusion over the observed stage-one values, read from score_grid.'''

    def test_mean_single_observed(self, tiny_dataset):
        # query 1 only has "a": the fused value is its ("a", "a") value
        model = fit_model(tiny_dataset, [0, 1])
        _, fused, _ = score_grid(model, tiny_dataset, [1], [1])
        assert fused[0, 0] == pytest.approx(4 / 5)

    def test_mean_and_max_over_observed_entries(self, tiny_dataset):
        # (0, 0) has stage-one values 4/5 on ("a", "a") and 0 on ("b", "b")
        mean = fit_model(tiny_dataset, [0, 1])
        assert score_grid(mean, tiny_dataset, [0], [0])[1][0, 0] == pytest.approx(
            0.4, abs=1e-12)
        top = fit_model(tiny_dataset, [0, 1], fuser=Fuser.MAX)
        assert score_grid(top, tiny_dataset, [0], [0])[1][0, 0] == pytest.approx(0.8)

    def test_max_of_zero_probabilities_is_zero_and_answerable(self, tiny_dataset):
        # (0, 1) has stage-one value 0 on both pairs and (2, 1) on its only
        # one: the max is +0.0, not the -inf of an unanswerable cell
        top = fit_model(tiny_dataset, [0, 1], fuser=Fuser.MAX)
        _, fused, answerable = score_grid(top, tiny_dataset, [0, 2], [1])
        assert fused.tobytes() == np.zeros((2, 1)).tobytes()
        assert answerable.all()

    def test_nothing_observed_is_none(self, tiny_dataset):
        ds = masked_tiny(tiny_dataset)
        for fuser in Fuser:
            model = fit_model(ds, [0, 1], fuser=fuser)
            probs, fused, answerable = score_grid(model, ds, [1], [1])
            assert (probs[0, 0], fused[0, 0], answerable[0, 0]) == (0.0, -np.inf, False)


def subsample_keep(ds, cal, ratio, seed=7):
    '''(labels, keep) of the calibration grid: fit_model's one draw per cell.'''
    labels = ds.relevance.matrix()[cal]
    return labels, labels | (np.random.default_rng(seed).random(labels.shape) < ratio)


def whole_grid_fit(ds, cal, fuser, ratio, seed=7):
    '''(first stage, second stage) fitted by scoring every pair's whole
    calibration grid and indexing it with observed & keep.'''
    labels, keep = subsample_keep(ds, cal, ratio, seed)
    refs = np.arange(ds.n_references)
    first, acc, counts = {}, np.zeros(keep.shape), np.zeros(keep.shape)
    for pair in ds.schema.scoreable_pairs():
        values, observed = pairwise_score_table(ds, pair, cal, refs)
        use = observed & keep
        if np.unique(values[use]).size < 2:
            continue
        first[pair] = band = fit_band_arrays(values[use], labels[use])
        probs = conformal_probability(band, values[use])
        acc[use] = acc[use] + probs if fuser is Fuser.MEAN else np.maximum(acc[use], probs)
        counts[use] += 1.0
    answerable = counts > 0
    fused = acc[answerable]
    if fuser is Fuser.MEAN:
        fused = fused / counts[answerable]
    return first, fit_band_arrays(fused, labels[answerable])


class TestFitModel:
    def test_hand_worked_second_stage(self, tiny_dataset):
        model = fit_model(tiny_dataset, [0, 1])
        assert set(model.first_stage) == {("a", "a"), ("b", "b")}
        np.testing.assert_allclose(
            model.first_stage[("a", "a")].sorted_gamma, [0, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(
            model.first_stage[("b", "b")].sorted_gamma, [1, 1], atol=1e-15)
        assert model.second_stage.theta_min == 0.0
        assert model.second_stage.theta_max == pytest.approx(0.8)
        np.testing.assert_allclose(
            model.second_stage.sorted_gamma, [0, 0, 0, 0.5], atol=1e-15)

    def test_hand_worked_final_scores(self, tiny_dataset):
        model = fit_model(tiny_dataset, [0, 1])
        probs, _, answerable = score_grid(model, tiny_dataset, [0, 1], [0, 1])
        assert probs[0, 0] == pytest.approx(3 / 5)
        assert probs[1, 1] == pytest.approx(4 / 5)
        assert probs[0, 1] == 0.0
        assert answerable.all()

    def test_scores_each_pair_once(self, tiny_dataset, monkeypatch):
        calls = []
        original = pipeline_module.pairwise_score_table

        def counting(dataset, pair, *ids):
            calls.append(pair)
            return original(dataset, pair, *ids)

        monkeypatch.setattr(pipeline_module, "pairwise_score_table", counting)
        fit_model(tiny_dataset, [0, 1])
        assert calls == [("a", "a"), ("b", "b")]

    @staticmethod
    def lookup_sizes(monkeypatch, ds, **fit_args):
        '''(model, [cells looked up per stage-one call]) of one fit.'''
        sizes = []
        original = pipeline_module.conformal_probability

        def counting(band, theta):
            sizes.append(np.size(theta))
            return original(band, theta)

        monkeypatch.setattr(pipeline_module, "conformal_probability", counting)
        return fit_model(ds, list(range(12)), **fit_args), sizes

    @pytest.mark.parametrize("fuser", list(Fuser))
    def test_looks_up_observed_cells_only(self, monkeypatch, fuser):
        # unobserved cells hold arbitrary scores, and a band lookup on them
        # costs as much as one on an observed cell
        ds = synth_dataset()
        pairs = ds.schema.scoreable_pairs()
        observed_cells = sum(
            int(pairwise_score_table(ds, pair, range(12), range(ds.n_references))[1]
                .sum())
            for pair in pairs)
        model, sizes = self.lookup_sizes(monkeypatch, ds, fuser=fuser)
        assert len(model.first_stage) == len(sizes) == len(pairs)
        assert sum(sizes) == observed_cells < len(pairs) * 12 * ds.n_references

    @pytest.mark.parametrize("fuser", list(Fuser))
    def test_looks_up_kept_cells_only(self, monkeypatch, fuser):
        # the subsample decides the calibration cells once; a cell it drops
        # is never looked up
        ds = synth_dataset()
        _, keep = subsample_keep(ds, np.arange(12), 0.25)
        model, sizes = self.lookup_sizes(monkeypatch, ds, fuser=fuser,
                                         negative_subsample=(0.25, 7))
        kept_cells = sum(
            int((pairwise_score_table(ds, pair, range(12),
                                      range(ds.n_references))[1] & keep).sum())
            for pair in model.first_stage)
        assert sizes == [band.size for band in model.first_stage.values()]
        assert sum(sizes) == kept_cells < keep.size

    @staticmethod
    def assert_whole_grid_bands(model, ds, cal, ratio):
        first, second = whole_grid_fit(ds, cal, model.fuser, ratio)
        assert list(model.first_stage) == list(first)
        for pair, band in first.items():
            assert band_bits(model.first_stage[pair]) == band_bits(band)
        assert band_bits(model.second_stage) == band_bits(second)

    @pytest.mark.parametrize("ratio", [0.0, 0.02, 0.25, 1.0])
    @pytest.mark.parametrize("fuser", list(Fuser))
    def test_kept_cell_fit_matches_the_whole_grid_bit_for_bit(self, fuser, ratio):
        # per-query blocks of kept cells, laid out row-major, give every
        # band the cells, order and bits of the whole grid indexed with keep
        ds = synth_dataset()
        cal = np.arange(12)
        model = fit_model(ds, cal, fuser=fuser, negative_subsample=(ratio, 7))
        self.assert_whole_grid_bands(model, ds, cal, ratio)

    @pytest.mark.parametrize("fuser", list(Fuser))
    def test_calibration_query_with_an_empty_kept_row(self, fuser):
        # at ratio 0 a query with no relevant reference keeps no cell
        ds = synth_dataset()
        relevant = list(ds.relevance.relevant)
        relevant[3] = frozenset()
        ds = dataclasses.replace(ds, relevance=RelevanceMap(
            ds.n_queries, ds.n_references, relevant))
        cal = np.arange(12)
        assert not subsample_keep(ds, cal, 0.0)[1][3].any()
        model = fit_model(ds, cal, fuser=fuser, negative_subsample=(0.0, 7))
        self.assert_whole_grid_bands(model, ds, cal, 0.0)

    def test_subsampled_fit_scores_only_the_kept_cells(self, monkeypatch):
        ds = synth_dataset()
        cal = np.arange(12)
        _, keep = subsample_keep(ds, cal, 0.25)
        cells = Counter()
        original = pipeline_module.pairwise_score_table

        def counting(dataset, pair, query_ids, reference_ids):
            cells[pair] += len(query_ids) * len(reference_ids)
            return original(dataset, pair, query_ids, reference_ids)

        monkeypatch.setattr(pipeline_module, "pairwise_score_table", counting)
        fit_model(ds, cal, negative_subsample=(0.25, 7))
        kept = int(np.count_nonzero(keep))
        assert kept < keep.size
        assert cells == {pair: kept for pair in ds.schema.scoreable_pairs()}

    @pytest.mark.parametrize("ratio", [0.02, 0.25, 1.0])
    @pytest.mark.parametrize("fuser", list(Fuser))
    def test_second_stage_fits_the_kept_cells_of_the_full_grid(self, fuser, ratio):
        # oracle: fuse every observed calibration cell as score_grid does,
        # then fit stage two on the kept answerable ones
        ds = synth_dataset()
        cal = np.arange(12)
        model = fit_model(ds, cal, fuser=fuser, negative_subsample=(ratio, 7))
        labels, keep = subsample_keep(ds, cal, ratio)
        _, fused, answerable = score_grid(model, ds, cal)
        use = answerable & keep
        assert band_bits(model.second_stage) == band_bits(
            fit_band_arrays(fused[use], labels[use]))

    def test_unfittable_pair_is_omitted(self, tiny_dataset):
        # with only query 1 in calibration, modality "b" has no usable rows
        model = fit_model(tiny_dataset, [1])
        assert ("b", "b") not in model.first_stage
        assert ("a", "a") in model.first_stage

    def test_no_fittable_pairs_rejected(self, tiny_dataset):
        flat = MultimodalDataset(
            schema=tiny_dataset.schema,
            query_embeddings={
                ("a", "s1"): np.tile([1.0, 0.0, 0.0], (3, 1)),
                ("b", "s2"): np.tile([1.0, 0.0], (3, 1)),
            },
            reference_embeddings={
                ("a", "s1"): np.tile([1.0, 0.0, 0.0], (2, 1)),
                ("b", "s2"): np.tile([1.0, 0.0], (2, 1)),
            },
            query_mask=tiny_dataset.query_mask,
            reference_mask=tiny_dataset.reference_mask,
            relevance=tiny_dataset.relevance,
        )
        with pytest.raises(ValueError, match="fittable"):
            fit_model(flat, [0, 1])

    @pytest.mark.parametrize("calibration_ids, subsample, message", [
        pytest.param([], None, "need at least one calibration query id", id="no-ids"),
        pytest.param([0, 1, 0], None, "duplicate calibration query ids",
                     id="duplicate-ids"),
        pytest.param([0, 1], (1.5, 7), r"ratio must be a number in \[0, 1\], got 1.5",
                     id="ratio-above-1"),
        pytest.param([0, 1], (True, 7), "ratio must be a number in", id="bool-ratio"),
        pytest.param([0, 1], (np.True_, 7), "ratio must be a number in",
                     id="numpy-bool-ratio"),
        pytest.param([0, 1], ("0.5", 7), r"ratio must be a number in \[0, 1\], got '0.5'",
                     id="string-ratio"),
        pytest.param([0, 1], (None, 7), "ratio must be a number in", id="none-ratio"),
        pytest.param([0, 1], (0.5j, 7), "ratio must be a number in", id="complex-ratio"),
    ])
    def test_bad_arguments_rejected(self, tiny_dataset, calibration_ids, subsample,
                                    message):
        with pytest.raises(ValueError, match=message):
            fit_model(tiny_dataset, calibration_ids, negative_subsample=subsample)

    def test_a_model_needs_a_first_stage_band(self):
        band = PredictionBand(0.0, 1.0, np.array([0.25, 0.5]))
        with pytest.raises(ValueError, match="at least one first-stage band"):
            CalibratedModel("f" * 64, Fuser.MEAN, {}, band)

    def test_fuser_accepts_strings(self, tiny_dataset):
        model = fit_model(tiny_dataset, [0, 1], fuser="max")
        assert model.fuser is Fuser.MAX

    def test_negative_subsample_full_ratio_matches_plain_fit(self):
        ds = synth_dataset()
        full = fit_model(ds, list(range(12)))
        sampled = fit_model(ds, list(range(12)), negative_subsample=(1.0, 7))
        assert list(sampled.first_stage) == list(full.first_stage)
        for pair, band in full.first_stage.items():
            assert band_bits(sampled.first_stage[pair]) == band_bits(band)
        assert band_bits(sampled.second_stage) == band_bits(full.second_stage)

    def test_negative_subsample_deterministic_and_smaller(self):
        ds = synth_dataset()
        a = fit_model(ds, list(range(12)), negative_subsample=(0.25, 7))
        b = fit_model(ds, list(range(12)), negative_subsample=(0.25, 7))
        full = fit_model(ds, list(range(12)))
        for pair in a.first_stage:
            np.testing.assert_array_equal(
                a.first_stage[pair].sorted_gamma, b.first_stage[pair].sorted_gamma)
            assert a.first_stage[pair].size < full.first_stage[pair].size
        assert a.second_stage.size < full.second_stage.size


class TestConformalMatrix:
    '''Stage-one values come only from pairs the model has a band for.'''

    def test_missing_band_means_unobserved(self, tiny_dataset):
        model = fit_model(tiny_dataset, [0, 1])
        trimmed = CalibratedModel(
            schema_fingerprint=model.schema_fingerprint,
            fuser=model.fuser,
            first_stage={("a", "a"): model.first_stage[("a", "a")]},
            second_stage=model.second_stage,
        )
        probs, fused, answerable = score_grid(trimmed, tiny_dataset)
        # (0, 0) fuses its ("a", "a") value alone, not the mean with ("b", "b")
        assert fused[0, 0] == pytest.approx(4 / 5)
        # query 2 only has "b"
        assert not answerable[2].any()
        np.testing.assert_array_equal(probs[2], [0.0, 0.0])

    def test_probabilities_in_unit_interval(self):
        ds = synth_dataset()
        model = fit_model(ds, list(range(12)))
        for pair, band in model.first_stage.items():
            values, observed = pairwise_score_table(ds, pair, range(4), [5])
            vals = conformal_probability(band, values)[observed]
            assert np.all(vals >= 0) and np.all(vals <= 1)


class TestScorePair:
    '''score_grid against the per-cell oracle in conftest.'''

    def test_unanswerable_flag(self, tiny_dataset):
        ds = masked_tiny(tiny_dataset)
        model = fit_model(ds, [0, 1])
        probs, _, answerable = score_grid(model, ds, [1], [1])  # "a"-only vs "b"-only
        assert (probs[0, 0], answerable[0, 0]) == (0.0, False)

    @pytest.mark.parametrize("ids, message", [
        pytest.param({"query_ids": []}, "need at least one query id", id="no-queries"),
        pytest.param({"reference_ids": []}, "need at least one reference id",
                     id="no-references"),
    ])
    def test_empty_id_list_rejected(self, tiny_dataset, ids, message):
        model = fit_model(tiny_dataset, [0, 1])
        with pytest.raises(ValueError, match=message):
            score_grid(model, tiny_dataset, **ids)

    def test_fingerprint_mismatch_rejected(self, tiny_dataset):
        ds = synth_dataset()
        model = fit_model(ds, list(range(12)))
        with pytest.raises(ModelDataMismatchError):
            score_grid(model, tiny_dataset, [0], [0])

    @pytest.mark.parametrize("missing", [0, 1])
    def test_skips_pairs_no_requested_query_observes(self, monkeypatch, missing):
        # every cell of such a pair is unobserved and fuses nothing, so the
        # pair is not scored and the grid keeps its bits
        ds = synth_dataset()
        model = fit_model(ds, list(range(12)))
        lone = int(np.flatnonzero(~ds.query_mask[:, missing])[0])
        full = int(np.flatnonzero(ds.query_mask.all(axis=1))[0])
        calls = []
        original = pipeline_module.pairwise_score_table

        def counting(dataset, pair, *ids):
            calls.append(pair)
            return original(dataset, pair, *ids)

        monkeypatch.setattr(pipeline_module, "pairwise_score_table", counting)
        both = score_grid(model, ds, [full, lone])
        assert calls == [("a", "a"), ("b", "b")]
        calls.clear()
        alone = score_grid(model, ds, [lone])
        assert calls == [[("b", "b")], [("a", "a")]][missing]
        for got, want in zip(alone, both):
            assert (got == want[1:]).all()

    def test_grid_matches_scalar_exactly(self, cell_oracle):
        ds = synth_dataset()
        model = fit_model(ds, list(range(12)))
        probs, fused, answerable = score_grid(model, ds)
        for qi in range(ds.n_queries):
            for ri in range(ds.n_references):
                want = cell_oracle(model, ds, qi, ri)
                assert (probs[qi, ri], fused[qi, ri], answerable[qi, ri]) == want

    def test_max_fuser_grid_matches_scalar(self, cell_oracle):
        ds = synth_dataset(seed=5)
        model = fit_model(ds, list(range(12)), fuser=Fuser.MAX)
        probs, fused, answerable = score_grid(model, ds)
        assert not answerable.all()
        for qi in range(ds.n_queries):
            for ri in range(ds.n_references):
                want = cell_oracle(model, ds, qi, ri)
                assert (probs[qi, ri], fused[qi, ri], answerable[qi, ri]) == want
        sub, _, _ = score_grid(model, ds, query_ids=[3, 7], reference_ids=[0, 4, 9])
        np.testing.assert_array_equal(sub, probs[np.ix_([3, 7], [0, 4, 9])])


# A model file as written before the binary format.
V1_MODEL_JSON = """{
  "version": 1,
  "schema_fingerprint": "ffff",
  "fuser": "mean",
  "first_stage": [
    {
      "query_modality": "a",
      "reference_modality": "a",
      "space": "s1",
      "theta_min": 0,
      "theta_max": 1,
      "sorted_gamma": [0.25, 0.5]
    }
  ],
  "second_stage": {
    "theta_min": 0,
    "theta_max": 1,
    "sorted_gamma": [0.25, 0.5]
  }
}
"""


def saved_model(tmp_path):
    path = tmp_path / "model.bin"
    save_model(fit_model(synth_dataset(), list(range(12))), path)
    return path


class TestModelSerialization:
    def test_round_trip_exact(self, tmp_path):
        ds = synth_dataset()
        model = fit_model(ds, list(range(12)))
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.schema_fingerprint == model.schema_fingerprint
        assert back.fuser is model.fuser
        assert set(back.first_stage) == set(model.first_stage)
        for pair, band in model.first_stage.items():
            other = back.first_stage[pair]
            assert other.theta_min == band.theta_min
            assert other.theta_max == band.theta_max
            np.testing.assert_array_equal(other.sorted_gamma, band.sorted_gamma)
        np.testing.assert_array_equal(
            back.second_stage.sorted_gamma, model.second_stage.sorted_gamma)
        assert list(back.first_stage) == list(model.first_stage)

    def test_serialization_is_byte_deterministic(self, tmp_path):
        ds = synth_dataset()
        model = fit_model(ds, list(range(12)))
        save_model(model, tmp_path / "m1.json")
        save_model(model, tmp_path / "m2.json")
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

    def test_float_bits_stored_exactly(self, tmp_path):
        band = PredictionBand(0.0, 1.0, np.array([1.0 / 3.0, 0.5]))
        model = CalibratedModel("f" * 64, Fuser.MEAN, {("a", "a"): band}, band)
        save_model(model, tmp_path / "m.bin")
        third = struct.pack("<d", 1.0 / 3.0)
        assert third in (tmp_path / "m.bin").read_bytes()
        back = load_model(tmp_path / "m.bin")
        assert back.first_stage[("a", "a")].sorted_gamma[:1].tobytes() == third
        assert back.second_stage.sorted_gamma[:1].tobytes() == third

    def test_bad_version_rejected(self, tmp_path):
        path = saved_model(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = struct.pack("<H", 3)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="version 3"):
            load_model(path)

    def test_corrupt_gamma_rejected(self, tmp_path):
        path = saved_model(tmp_path)
        blob = path.read_bytes()
        # the last two payload entries are the tail of the second stage
        path.write_bytes(blob[:-16] + struct.pack("<2d", 0.5, 0.1))
        with pytest.raises(DataFormatError, match="sorted"):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = saved_model(tmp_path)
        path.write_bytes(b"A2AE" + path.read_bytes()[4:])
        with pytest.raises(DataFormatError, match="magic"):
            load_model(path)

    @pytest.mark.parametrize("mutate, message", [
        pytest.param(lambda blob: blob[:-8], "payload is", id="short-payload"),
        pytest.param(lambda blob: blob + bytes(8), "payload is", id="long-payload"),
        pytest.param(lambda blob: blob[:10], "truncated header", id="short-header"),
        pytest.param(lambda blob: blob[:40], "metadata", id="short-metadata"),
    ])
    def test_length_mismatch_rejected(self, tmp_path, mutate, message):
        path = saved_model(tmp_path)
        path.write_bytes(mutate(path.read_bytes()))
        with pytest.raises(DataFormatError, match=message):
            load_model(path)

    def test_json_model_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(V1_MODEL_JSON)
        with pytest.raises(DataFormatError, match="re-run calibrate"):
            load_model(path)

    def test_loaded_bands_are_aligned_float64(self, tmp_path):
        back = load_model(saved_model(tmp_path))
        for band in [*back.first_stage.values(), back.second_stage]:
            gamma = band.sorted_gamma
            assert gamma.dtype == np.float64
            assert gamma.flags.c_contiguous
            assert gamma.flags.aligned


def tiny_model():
    band = PredictionBand(0.0, 1.0, np.array([0.25, 0.5]))
    return CalibratedModel("f" * 64, Fuser.MEAN, {("a", "a"): band}, band)


def save_synth_dataset(root):
    save_dataset(synth_dataset(), root)


# kind: (file to damage, writer of a directory holding it, reader of that directory)
BINARY_FILES = {
    "emb": ("query_a_s1.emb", save_synth_dataset, load_dataset),
    "msk": ("query_mask.msk", save_synth_dataset, load_dataset),
    "model": ("model.bin", lambda root: save_model(tiny_model(), root / "model.bin"),
              lambda root: load_model(root / "model.bin")),
}


@pytest.mark.parametrize("mutate, message", [
    pytest.param(lambda blob: b"XXXX" + blob[4:], "bad magic", id="magic"),
    pytest.param(lambda blob: blob[:4] + struct.pack("<H", 9) + blob[6:],
                 "unsupported version 9", id="version"),
    pytest.param(lambda blob: blob[:6] + struct.pack("<H", 1) + blob[8:],
                 "nonzero header pad", id="pad"),
    pytest.param(lambda blob: blob[:12], "truncated header", id="short"),
])
@pytest.mark.parametrize("kind", sorted(BINARY_FILES))
def test_shared_header_checks(tmp_path, kind, mutate, message):
    name, write, read = BINARY_FILES[kind]
    write(tmp_path)
    path = tmp_path / name
    path.write_bytes(mutate(path.read_bytes()))
    with pytest.raises(DataFormatError, match=message):
        read(tmp_path)


def rewrite_metadata(path, edit):
    '''Replace a saved model's metadata block by edit(block), fixing the
    length field and the padding before the payload.'''
    blob = path.read_bytes()
    (length,) = struct.unpack_from("<Q", blob, 8)
    end = 16 + length
    payload = blob[end + (-end) % 8:]
    meta = edit(blob[16:end])
    path.write_bytes(blob[:8] + struct.pack("<Q", len(meta)) + meta
                     + bytes(-(16 + len(meta)) % 8) + payload)


def band_bits(band):
    return struct.pack("<2d", band.theta_min, band.theta_max) + band.sorted_gamma.tobytes()


def edit_doc(change):
    '''A metadata edit that lets change mutate the parsed document.'''
    def edit(block):
        doc = json.loads(block)
        change(doc)
        return json.dumps(doc).encode()
    return edit


def set_band(key, value, index=0):
    return edit_doc(lambda doc: doc["first_stage"][index].update({key: value}))


def drop_band_key(key):
    return edit_doc(lambda doc: doc["first_stage"][0].pop(key))


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda block: b"[" + block + b"]", "must be a JSON object",
                 id="not-an-object"),
    pytest.param(edit_doc(lambda doc: doc.pop("schema_fingerprint")),
                 "missing key 'schema_fingerprint'", id="no-fingerprint"),
    pytest.param(edit_doc(lambda doc: doc.update(fuser="median")), "unknown fuser",
                 id="unknown-fuser"),
    pytest.param(edit_doc(lambda doc: doc.update(fuser=1)), "'fuser' must be a string",
                 id="fuser-not-a-string"),
    pytest.param(edit_doc(lambda doc: doc.update(first_stage=[])), "must not be empty",
                 id="empty-first-stage"),
    pytest.param(edit_doc(lambda doc: doc["first_stage"].append("a:a")),
                 "entries must be objects", id="entry-not-an-object"),
    pytest.param(drop_band_key("query_modality"), "missing key 'query_modality'",
                 id="no-query-modality"),
    pytest.param(set_band("reference_modality", 1), "must be a string",
                 id="modality-not-a-string"),
    pytest.param(set_band("size", -1), "non-negative", id="negative-size"),
    pytest.param(set_band("size", True), "must be an integer", id="boolean-size"),
    pytest.param(set_band("size", 2.0), "must be an integer", id="float-size"),
    pytest.param(edit_doc(lambda doc: doc.pop("second_stage")),
                 "missing key 'second_stage'", id="no-second-stage"),
    pytest.param(edit_doc(lambda doc: doc["first_stage"].append(doc["first_stage"][0])),
                 "duplicate band", id="duplicate-pair"),
    pytest.param(lambda block: b"[" * 100_000 + b"]" * 100_000, "invalid JSON",
                 id="deep-nesting"),
    pytest.param(edit_doc(lambda doc: doc["second_stage"].update(size=float("nan"))),
                 "NaN is not allowed", id="nan-constant"),
])
def test_malformed_metadata_rejected(tmp_path, edit, message):
    path = saved_model(tmp_path)
    rewrite_metadata(path, edit)
    with pytest.raises(DataFormatError, match=message):
        load_model(path)


@pytest.mark.parametrize("second_stage, message", [
    pytest.param([0.0, 1.0, 0.25], "a band needs at least 2 nonconformity scores",
                 id="one-score"),
    pytest.param([0.0, 1.0, 0.25, math.nan], "nonconformity scores must be finite",
                 id="nan-score"),
    pytest.param([1.0, 1.0, 0.25, 0.5], "score range must be finite", id="empty-range"),
    pytest.param([1.0, 0.0, 0.25, 0.5], "score range must be finite", id="reversed-range"),
    pytest.param([0.0, 1.0, 0.25, math.nan, 0.75], "nonconformity scores must be finite",
                 id="nan-mid-band"),
    pytest.param([0.0, 1.0, -math.inf, 0.5], "nonconformity scores must be finite",
                 id="minus-inf-first"),
    pytest.param([0.0, 1.0, 0.5, math.inf], "nonconformity scores must be finite",
                 id="plus-inf-last"),
    pytest.param([0.0, 1.0, 0.1, 0.3, 0.2, 0.4],
                 "nonconformity scores must be sorted ascending", id="unsorted-mid-pair"),
    pytest.param([0.0, 1.0, 0.25, 0.5, 1.5], r"nonconformity scores must lie in \[0, 1\]",
                 id="sorted-past-one"),
])
def test_damaged_band_rejected(tmp_path, second_stage, message):
    path = tmp_path / "m.bin"
    save_model(tiny_model(), path)
    rewrite_metadata(path, edit_doc(
        lambda doc: doc["second_stage"].update(size=len(second_stage) - 2)))
    # the last four payload entries are the second stage
    path.write_bytes(path.read_bytes()[:-32]
                     + struct.pack(f"<{len(second_stage)}d", *second_stage))
    with pytest.raises(DataFormatError, match=f"bad prediction band: {message}"):
        load_model(path)


def test_negative_zero_first_score_is_accepted(tmp_path):
    # -0.0 compares equal to 0.0, so it lies inside [0, 1]; the band keeps
    # its bits
    path = tmp_path / "m.bin"
    save_model(tiny_model(), path)
    path.write_bytes(path.read_bytes()[:-32] + struct.pack("<4d", 0.0, 1.0, -0.0, 0.5))
    gamma = load_model(path).second_stage.sorted_gamma
    assert gamma.tobytes() == struct.pack("<2d", -0.0, 0.5)


def test_save_copies_no_band(tmp_path, peak_allocation):
    # each band is written from its own buffer: a payload-sized copy (a
    # concatenated payload or a joined file image) would show in the peak
    rng = np.random.default_rng(0)
    band = PredictionBand(-0.5, 0.5, np.sort(rng.random(300_000)))
    model = CalibratedModel("f" * 64, Fuser.MEAN, {("a", "a"): band, ("a", "b"): band}, band)
    payload = 3 * 8 * (band.size + 2)
    assert payload >= 4 * 2**20
    path = tmp_path / "m.bin"
    assert peak_allocation(lambda: save_model(model, path)) < payload // 4
    back = load_model(path)
    assert all(band_bits(b) == band_bits(band)
               for b in (*back.first_stage.values(), back.second_stage))


def test_metadata_rewrite_keeps_a_valid_model(tmp_path):
    path = saved_model(tmp_path)
    before = load_model(path)
    rewrite_metadata(path, edit_doc(lambda doc: doc.update(fuser="max")))
    after = load_model(path)
    assert after.fuser is Fuser.MAX
    assert list(after.first_stage) == list(before.first_stage)


def test_space_keys_from_older_writers_are_ignored(tmp_path):
    # models written before the schema alone named each pair's space carry
    # a "space" key per band; they load to the same bands, bit for bit
    path = saved_model(tmp_path)
    before = load_model(path)
    schema = synth_dataset().schema
    for index, pair in enumerate(before.first_stage):
        rewrite_metadata(path, set_band("space", schema.space_for(*pair).name, index))
    assert b'"space"' in path.read_bytes()
    after = load_model(path)
    assert after.schema_fingerprint == before.schema_fingerprint
    assert list(after.first_stage) == list(before.first_stage)
    for pair, band in before.first_stage.items():
        assert band_bits(after.first_stage[pair]) == band_bits(band)
    assert band_bits(after.second_stage) == band_bits(before.second_stage)


class TestRankEquivalence:
    def test_second_stage_is_monotone(self):
        '''Ordering by final probability never inverts the fused ordering.'''
        ds = synth_dataset()
        model = fit_model(ds, list(range(12)))
        probs, fused, answerable = score_grid(model, ds)
        for qi in range(ds.n_queries):
            row_p = probs[qi][answerable[qi]]
            row_f = fused[qi][answerable[qi]]
            order = np.argsort(row_f)
            assert np.all(np.diff(row_p[order]) >= 0)
