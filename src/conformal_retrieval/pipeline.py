'''Two-stage calibration over cross-modal similarity scores.

Stage one fits one prediction band per scoreable modality pair, turning raw
cosine scores (whose ranges differ from pair to pair) into comparable
calibrated values. Those values are fused across the modality pairs actually
observed for a (query, reference) combination, and stage two fits a single
band on the fused values so the final output is again a calibrated
probability of relevance. Both stages use the same calibration queries.

fit_model and score_grid share one fusion routine, _fuse_tables, so the
fused values a model is calibrated on are computed exactly as the values it
later scores.
'''

import json
import numbers
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .conformal import PredictionBand, conformal_probability, fit_band_arrays
from .dataset import (DataFormatError, atomic_write_bytes, member, parse_json,
                      read_binary, unpack_header, validated_ids)
from .similarity import pairwise_score_table

__all__ = [
    "Fuser",
    "CalibratedModel",
    "ModelDataMismatchError",
    "check_compatible",
    "fit_model",
    "score_grid",
    "save_model",
    "load_model",
]

MODEL_MAGIC = b"A2AC"
MODEL_FILE_VERSION = 2

# magic | u16 version | u16 pad | u64 metadata bytes
_MODEL_HEADER = struct.Struct("<4sHHQ")


class ModelDataMismatchError(ValueError):
    '''A model is applied to a dataset with a different modality schema.'''


class Fuser(str, Enum):
    '''How per-modality-pair calibrated values are combined.'''

    MEAN = "mean"
    MAX = "max"


@dataclass(frozen=True)
class CalibratedModel:
    '''Everything needed to score new (query, reference) combinations.

    Attributes:
        schema_fingerprint: Fingerprint of the schema the model was fitted
            on; scoring any other dataset is refused.
        fuser: Fusion rule applied between the two stages.
        first_stage: Mapping (query modality, reference modality) ->
            PredictionBand. Pairs that were not fittable are absent.
        second_stage: Band fitted on the fused values.
    '''

    schema_fingerprint: str
    fuser: Fuser
    first_stage: dict
    second_stage: PredictionBand

    def __post_init__(self):
        if not self.first_stage:
            raise ValueError("a model needs at least one first-stage band")


def check_compatible(model: CalibratedModel, dataset):
    '''Raise ModelDataMismatchError unless the dataset has the model's schema
    and scores every pair of the model. The fingerprint covers everything
    the schema's choice of space for a pair depends on.'''
    got = dataset.fingerprint()
    if model.schema_fingerprint != got:
        raise ModelDataMismatchError(
            f"model was fitted for schema {model.schema_fingerprint[:12]}..., "
            f"dataset has {got[:12]}...")
    for pair in model.first_stage:
        if dataset.schema.space_for(*pair) is None:
            raise ModelDataMismatchError(f"dataset does not score pair {pair}")


def fit_model(dataset, calibration_ids, fuser=Fuser.MEAN,
              negative_subsample=None) -> CalibratedModel:
    '''Fit both calibration stages on a held-out set of queries.

    Modality pairs with fewer than two observable calibration scores, or
    with all scores equal, cannot carry a band and are skipped.

    Only the calibration cells the fit keeps are scored, so with a
    subsample the fit's cost falls with the ratio. Cells are taken in
    row-major order whichever way they are scored, so a subsample that
    keeps every cell fits the same bands, bit for bit, as none.

    Args:
        dataset: MultimodalDataset with relevance labels.
        calibration_ids: Query indices to calibrate on (no duplicates).
        fuser: Fusion rule, a Fuser or its string value.
        negative_subsample: Optional (ratio, seed). Irrelevant combinations
            are kept with the given probability; relevant ones always stay.
            One draw per (query, reference) cell is shared by both stages.

    Returns:
        The fitted CalibratedModel.
    '''
    fuser = Fuser(fuser)
    cal = validated_ids(calibration_ids, dataset.n_queries, "calibration query")
    if np.unique(cal).size != cal.size:
        raise ValueError("duplicate calibration query ids")
    labels = dataset.relevance.matrix()[cal]
    if negative_subsample is None:
        # one whole grid: per-query blocks of every cell fit 67-87% slower
        blocks = [(cal, np.arange(dataset.n_references))]
        labels = labels.ravel()
    else:
        ratio, seed = negative_subsample
        if (isinstance(ratio, (bool, np.bool_)) or not isinstance(ratio, numbers.Real)
                or not 0.0 <= ratio <= 1.0):
            raise ValueError(
                f"negative subsample ratio must be a number in [0, 1], got {ratio!r}")
        rng = np.random.default_rng(seed)
        keep = labels | (rng.random(labels.shape) < ratio)
        # one block per query, of its kept references only
        blocks = [(cal[i:i + 1], np.flatnonzero(row)) for i, row in enumerate(keep)]
        labels = labels[keep]
    first_stage = {}

    def scored():
        # each pair is scored once: its cells fit the band, then feed fusion;
        # keep is one draw per cell for every pair, so a kept cell still
        # fuses every pair observed on it
        for pair in dataset.schema.scoreable_pairs():
            tables = [pairwise_score_table(dataset, pair, queries, refs)
                      for queries, refs in blocks]
            values = _cells(grid for grid, _ in tables)
            observed = _cells(grid for _, grid in tables)
            theta = values[observed]
            if theta.size < 2 or theta.min() == theta.max():
                continue
            first_stage[pair] = band = fit_band_arrays(theta, labels[observed])
            yield band, values, observed

    fused, answerable = _fuse_tables(scored(), fuser, labels.shape)
    if not first_stage:
        raise ValueError(
            "no fittable modality pairs: every pair had fewer than two "
            "observable calibration scores or a degenerate score range")
    # every fitted pair observed at least two kept cells, all answerable
    second_stage = fit_band_arrays(fused[answerable], labels[answerable])
    return CalibratedModel(dataset.fingerprint(), fuser, first_stage, second_stage)


def _cells(grids) -> np.ndarray:
    '''The cells of every grid as one 1-D array, row-major, grid after grid.
    A single grid is viewed, not copied.'''
    flat = [grid.ravel() for grid in grids]
    return flat[0] if len(flat) == 1 else np.concatenate(flat)


def _fuse_tables(scored, fuser, shape):
    '''Fused stage-one values for every (query, reference) cell.

    scored yields (band, values, cells) in first-stage order, both arrays of
    the given shape, where cells marks the cells the pair contributes to:
    score_grid passes (query, reference) grids and their observed cells,
    fit_model 1-D arrays of the cells it kept and their observed ones. Pairs
    are consumed one at a time, so a lazy iterable never holds every pair's
    arrays at once.

    Returns:
        (fused, answerable): float array with -inf where no pair
        contributes, and the matching boolean array.
    '''
    counts = np.zeros(shape)
    # a probability count / (m + 1) is never negative, so a max from 0 equals
    # one from -inf on every answerable cell; the rest become -inf below
    acc = np.zeros(shape)
    combine = np.add if fuser is Fuser.MEAN else np.maximum
    for band, values, cells in scored:
        acc[cells] = combine(acc[cells], conformal_probability(band, values[cells]))
        counts[cells] += 1.0
    answerable = counts > 0
    fused = np.full(shape, -np.inf)
    if fuser is Fuser.MEAN:
        np.divide(acc, counts, out=fused, where=answerable)
    else:
        fused[answerable] = acc[answerable]
    return fused, answerable


def score_grid(model: CalibratedModel, dataset, query_ids=None,
               reference_ids=None):
    '''Calibrated relevance probability of every (query, reference) cell.

    Args:
        model: Fitted CalibratedModel.
        dataset: Dataset with the same schema fingerprint.
        query_ids: Query indices; all queries when None.
        reference_ids: Reference indices; all references when None.

    Returns:
        (probabilities, fused, answerable): probabilities are 0.0 and fused
        is -inf where a cell is unanswerable.
    '''
    check_compatible(model, dataset)
    query_ids = validated_ids(query_ids, dataset.n_queries, "query")
    reference_ids = validated_ids(reference_ids, dataset.n_references, "reference")
    # a pair no requested query observes has no observed cell to fuse
    seen = dataset.query_mask[query_ids].any(axis=0)
    scored = ((band, *pairwise_score_table(dataset, pair, query_ids, reference_ids))
              for pair, band in model.first_stage.items()
              if seen[dataset.schema.query_modalities.index(pair[0])])
    fused, answerable = _fuse_tables(scored, model.fuser,
                                     (len(query_ids), len(reference_ids)))
    probs = np.zeros(answerable.shape)
    probs[answerable] = conformal_probability(model.second_stage, fused[answerable])
    return probs, fused, answerable


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_model(model: CalibratedModel, path):
    '''Write a model as a binary file: header, JSON metadata, float64 bands.

    Layout: the fixed header (magic A2AC, u16 version, u16 pad, u64 length
    of the metadata block), then the compact JSON metadata (schema
    fingerprint, fuser, and the pair and entry count of each first-stage
    band plus the second stage's entry count), then zero bytes up to the
    next multiple of 8, then one little-endian float64 payload
    holding theta_min, theta_max and sorted_gamma for every first-stage band
    in metadata order and then the second stage. The payload stores the
    exact bits, so load_model restores the model bit for bit; byte output
    is deterministic. Each band's scores are written from the band's own
    buffer, so saving copies no band.
    '''
    first_stage = [
        {"query_modality": qmod, "reference_modality": rmod, "size": band.size}
        for (qmod, rmod), band in model.first_stage.items()
    ]
    meta = json.dumps({
        "schema_fingerprint": model.schema_fingerprint,
        "fuser": model.fuser.value,
        "first_stage": first_stage,
        "second_stage": {"size": model.second_stage.size},
    }, separators=(",", ":")).encode("utf-8")
    header = _MODEL_HEADER.pack(MODEL_MAGIC, MODEL_FILE_VERSION, 0, len(meta))
    padding = bytes(-(len(header) + len(meta)) % 8)
    bands = [*model.first_stage.values(), model.second_stage]
    atomic_write_bytes(path, header, meta, padding, *(
        part
        for band in bands
        for part in (np.array((band.theta_min, band.theta_max), dtype="<f8"),
                     np.ascontiguousarray(band.sorted_gamma, dtype="<f8"))))


def _read_meta(block: bytes, path):
    '''Parse the metadata block into (fingerprint, fuser, [pair] in
    first-stage order, [size] per band with the second stage last). Keys
    this reader does not use are ignored.'''
    where = f"{path}: metadata"
    doc = parse_json(block, where)
    if not isinstance(doc, dict):
        raise DataFormatError(f"{where} must be a JSON object")
    fingerprint = member(doc, "schema_fingerprint", str, where)
    if not fingerprint:
        raise DataFormatError(f"{where} has an empty schema_fingerprint")
    fuser = member(doc, "fuser", str, where)
    if fuser not in {f.value for f in Fuser}:
        raise DataFormatError(f"{where}: unknown fuser {fuser!r}")
    entries = member(doc, "first_stage", list, where)
    if not entries:
        raise DataFormatError(f"{where} key 'first_stage' must not be empty")
    band_sizes = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise DataFormatError(f"{where}: first_stage entries must be objects")
        pair = (member(entry, "query_modality", str, where),
                member(entry, "reference_modality", str, where))
        if pair in band_sizes:
            raise DataFormatError(f"{where}: duplicate band for pair {pair}")
        band_sizes[pair] = member(entry, "size", int, where)
    sizes = [*band_sizes.values(),
             member(member(doc, "second_stage", dict, where), "size", int, where)]
    if min(sizes) < 0:
        raise DataFormatError(f"{where}: band sizes must be non-negative")
    return fingerprint, Fuser(fuser), list(band_sizes), sizes


def load_model(path) -> CalibratedModel:
    '''Read a model written by save_model.

    Every band is a view into one float64 array over the file's bytes, so
    loading copies nothing after the read.

    Raises:
        DataFormatError: On a bad header or metadata block, a payload whose
            length disagrees with the band sizes, band values that fail
            validation, or a JSON model from before the binary format.
    '''
    blob = read_binary(path)
    if blob.startswith(b"{"):
        raise DataFormatError(
            f"{path}: JSON model from an older release; re-run calibrate "
            f"to write the binary format")
    (meta_len,) = unpack_header(blob, _MODEL_HEADER, MODEL_MAGIC,
                                MODEL_FILE_VERSION, path)
    meta_end = _MODEL_HEADER.size + meta_len
    if meta_end > len(blob):
        raise DataFormatError(f"{path}: truncated metadata block")
    fingerprint, fuser, pairs, sizes = _read_meta(
        blob[_MODEL_HEADER.size:meta_end], path)
    offset = meta_end + (-meta_end) % 8
    if blob[meta_end:offset].strip(b"\0"):
        raise DataFormatError(f"{path}: nonzero padding after the metadata block")
    expected = 8 * sum(size + 2 for size in sizes)
    if len(blob) - offset != expected:
        raise DataFormatError(
            f"{path}: payload is {len(blob) - offset} bytes, metadata promises "
            f"{expected}")
    values = np.frombuffer(blob, dtype="<f8", offset=offset)
    bands = []
    start = 0
    for size in sizes:
        try:
            bands.append(PredictionBand(float(values[start]),
                                        float(values[start + 1]),
                                        values[start + 2:start + 2 + size]))
        except ValueError as exc:
            raise DataFormatError(f"{path}: bad prediction band: {exc}") from exc
        start += size + 2
    return CalibratedModel(fingerprint, fuser, dict(zip(pairs, bands)), bands[-1])
