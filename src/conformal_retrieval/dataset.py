'''Dataset model and on-disk formats for multimodal retrieval.

A dataset couples per-space embedding matrices for both sides (queries and
references), presence masks saying which modalities each instance actually
has, and a relevance map. Embeddings are 2-D finite float32 values, in
files and in memory, and masks 2-D 0/1 values, each rule shared by file
writer, file reader and MultimodalDataset, so a dataset loads back exactly
as it was saved. load_dataset leaves the values to MultimodalDataset, so
each loaded array is checked once. Missing modalities are only masked,
never zero vectors.

read_binary is the only file reader, parse_json the only JSON parser, and
read_csv and write_csv the only CSV reader and writer, so an unreadable or
malformed input is DataFormatError wherever it is read.
'''

import csv
import functools
import hashlib
import io
import json
import math
import operator
import os
import struct
import sys
import tempfile
import types
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DataFormatError",
    "check_count",
    "checked_ids",
    "validated_ids",
    "SharedSpace",
    "ModalitySchema",
    "RelevanceMap",
    "MultimodalDataset",
    "row_norms",
    "schema_fingerprint",
    "atomic_write_bytes",
    "write_json",
    "read_binary",
    "parse_json",
    "member",
    "unpack_header",
    "write_csv",
    "read_csv",
    "write_embedding_file",
    "read_embedding_file",
    "write_mask_file",
    "read_mask_file",
    "write_relevance_pairs",
    "read_relevance_pairs",
    "read_positions",
    "relevance_from_positions",
    "apply_modality_dropout",
    "split_queries",
    "load_dataset",
    "save_dataset",
]

EMBEDDING_MAGIC = b"A2AE"
MASK_MAGIC = b"A2AM"
FORMAT_VERSION = 1

# magic | u16 version | u16 pad | u64 rows | u64 columns, for .emb and .msk
_MATRIX_HEADER = struct.Struct("<4sHHQQ")


class DataFormatError(ValueError):
    '''A file, manifest, or schema does not match the published format.'''


def check_count(value, name: str):
    '''value itself; ValueError naming it unless it is an integer of at
    least 1 that is not a bool.'''
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
    return value


def checked_ids(ids, n: int, what: str) -> np.ndarray:
    '''ids as a 1-d intp array, possibly empty; ValueError naming what
    unless every id is an integer in [0, n). Floats and bools are refused
    rather than truncated to an id.'''
    arr = np.asarray(ids)
    if arr.ndim != 1:
        raise ValueError(f"{what} ids must be one flat list, got shape {arr.shape}")
    if arr.size == 0:  # nothing to check, whatever dtype numpy gives []
        return arr.astype(np.intp)
    # numpy keeps Python ints that no 64-bit integer holds as objects
    outside_int64 = arr.dtype.kind == "O" and all(type(v) is int for v in arr)
    if arr.dtype.kind not in "iu" and not outside_int64:
        raise ValueError(f"{what} ids must be integers, got dtype {arr.dtype}")
    # seen unsigned, a negative id is past every n: one reduction checks both
    if outside_int64 or arr.astype(np.intp, copy=False).view(np.uintp).max() >= n:
        raise ValueError(f"{what} id out of range [0, {n})")
    return arr.astype(np.intp, copy=False)


def validated_ids(ids, n: int, what: str) -> np.ndarray:
    '''checked_ids of a non-empty id list; None means every id.'''
    if ids is None:
        return np.arange(n)
    arr = np.asarray(ids)
    if arr.size == 0:
        raise ValueError(f"need at least one {what} id")
    return checked_ids(arr, n, what)


def atomic_write_bytes(path, *chunks):
    '''Write bytes-like chunks, in order, to a temp file in the same
    directory, then rename it to path. Each chunk is written from its own
    buffer, so a C-contiguous array is written without a copy. When a chunk
    cannot be written, the temp file is removed and path is left as it was.'''
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path, doc):
    '''Write doc atomically as indented JSON with sorted keys, so equal
    documents give equal bytes. Floats are written at their shortest
    round-trip repr, which reads back exactly; NaN and infinities, which
    parse_json refuses, are ValueError.'''
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True,
                                       allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharedSpace:
    '''One co-embedded space: a name, a dimension, and the modalities it
    covers on each side.'''

    name: str
    dim: int
    query_modalities: tuple = ()
    reference_modalities: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "query_modalities", tuple(self.query_modalities))
        object.__setattr__(self, "reference_modalities", tuple(self.reference_modalities))
        if self.dim < 1:
            raise DataFormatError(f"space {self.name!r}: dim must be >= 1")


@dataclass(frozen=True)
class ModalitySchema:
    '''Modality lists for both sides plus the shared spaces covering them.

    Each (query modality, reference modality) pair is scored in the one
    space covering it; when several spaces cover the same pair, an entry in
    pair_overrides must pick one. An override must name a space covering
    its pair.
    '''

    query_modalities: tuple
    reference_modalities: tuple
    spaces: tuple
    pair_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "query_modalities", tuple(self.query_modalities))
        object.__setattr__(self, "reference_modalities", tuple(self.reference_modalities))
        object.__setattr__(self, "spaces", tuple(self.spaces))
        overrides = {(q, r): name for (q, r), name in dict(self.pair_overrides).items()}
        object.__setattr__(self, "pair_overrides", overrides)
        if not self.query_modalities or not self.reference_modalities:
            raise DataFormatError("schema needs modalities on both sides")
        for side, mods in (("query", self.query_modalities),
                           ("reference", self.reference_modalities)):
            if len(set(mods)) != len(mods):
                raise DataFormatError(f"duplicate {side} modality names")
        names = [s.name for s in self.spaces]
        if len(set(names)) != len(names):
            raise DataFormatError("duplicate space names")
        for space in self.spaces:
            for mod in space.query_modalities:
                if mod not in self.query_modalities:
                    raise DataFormatError(
                        f"space {space.name!r} covers unknown query modality {mod!r}")
            for mod in space.reference_modalities:
                if mod not in self.reference_modalities:
                    raise DataFormatError(
                        f"space {space.name!r} covers unknown reference modality {mod!r}")
        pair_space = {}
        unused = dict(overrides)
        for qmod in self.query_modalities:
            for rmod in self.reference_modalities:
                covering = {s.name: s for s in self.spaces
                            if qmod in s.query_modalities and rmod in s.reference_modalities}
                chosen = unused.pop((qmod, rmod), None)
                if chosen is None and len(covering) > 1:
                    raise DataFormatError(
                        f"ambiguous pair coverage for ({qmod!r}, {rmod!r}): "
                        f"spaces {list(covering)}; add a pair_space override")
                if chosen is not None and chosen not in covering:
                    raise DataFormatError(
                        f"pair_space override for ({qmod!r}, {rmod!r}) names "
                        f"{chosen!r} which does not cover the pair")
                if covering:
                    name = next(iter(covering)) if chosen is None else chosen
                    pair_space[(qmod, rmod)] = covering[name]
        if unused:
            raise DataFormatError(
                f"pair_space override for unknown pair {next(iter(unused))}")
        if not pair_space:
            raise DataFormatError("schema has no scoreable modality pair")
        object.__setattr__(self, "_pair_space", pair_space)
        # the schema is frozen, so its digest is taken once, here
        object.__setattr__(self, "_fingerprint", schema_fingerprint(self))

    def scoreable_pairs(self) -> tuple:
        '''Covered (query modality, reference modality) pairs in schema order.'''
        return tuple(self._pair_space)

    def space_for(self, query_modality: str, reference_modality: str):
        '''The space scoring a pair, or None when the pair is not covered.'''
        return self._pair_space.get((query_modality, reference_modality))


def schema_fingerprint(schema: ModalitySchema) -> str:
    '''Stable digest of the schema structure, for model/data compatibility.'''
    payload = {
        "query_modalities": list(schema.query_modalities),
        "reference_modalities": list(schema.reference_modalities),
        "spaces": [
            {
                "name": s.name,
                "dim": s.dim,
                "query": list(s.query_modalities),
                "reference": list(s.reference_modalities),
            }
            for s in schema.spaces
        ],
        # JSON triples: modality names may hold ':' or '=', so joined text
        # could give two different overrides the same digest
        "pair_overrides": sorted(
            [q, r, name] for (q, r), name in schema.pair_overrides.items()
        ),
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Relevance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelevanceMap:
    '''Per-query sets of relevant reference indices.'''

    n_queries: int
    n_references: int
    relevant: tuple

    def __post_init__(self):
        object.__setattr__(self, "relevant", tuple(frozenset(s) for s in self.relevant))
        if len(self.relevant) != self.n_queries:
            raise DataFormatError("relevance must list one set per query")
        for q, refs in enumerate(self.relevant):
            for r in refs:
                if not 0 <= r < self.n_references:
                    raise DataFormatError(
                        f"relevance for query {q} names reference {r} "
                        f"outside [0, {self.n_references})")

    def matrix(self) -> np.ndarray:
        '''Dense boolean (n_queries, n_references) view.'''
        out = np.zeros((self.n_queries, self.n_references), dtype=bool)
        for q, refs in enumerate(self.relevant):
            if refs:
                out[q, sorted(refs)] = True
        return out


def relevance_from_positions(query_xy, reference_xy, threshold_meters: float) -> RelevanceMap:
    '''Mark references within threshold_meters (inclusive) of each query.

    Positions are planar coordinates in meters; distance is Euclidean. The
    comparison is done on squared distances so the boundary case is exact.
    '''
    q = np.asarray(query_xy, dtype=np.float64)
    r = np.asarray(reference_xy, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != 2 or r.ndim != 2 or r.shape[1] != 2:
        raise ValueError("positions must be (n, 2) arrays")
    if not (np.isfinite(q).all() and np.isfinite(r).all()):
        raise ValueError("positions must be finite")
    if not (math.isfinite(threshold_meters) and threshold_meters >= 0):
        raise ValueError("threshold_meters must be finite and non-negative")
    dx = q[:, 0][:, None] - r[:, 0][None, :]
    dy = q[:, 1][:, None] - r[:, 1][None, :]
    within = dx * dx + dy * dy <= threshold_meters * threshold_meters
    sets = tuple(frozenset(np.nonzero(row)[0].tolist()) for row in within)
    return RelevanceMap(len(q), len(r), sets)


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultimodalDataset:
    '''In-memory dataset: embeddings per (modality, space), masks, relevance.

    Embedding dict keys are (modality name, space name); arrays are float32
    and C-ordered, one row per instance, and a loaded file's arrays are
    views over its bytes. Scoring still runs at float64. Masks are bool,
    columns in the schema's modality order for the matching side. The
    dataset is frozen, its embedding mappings are read-only views, and
    every stored array is read-only with no writable alias held by a
    caller, so reference_norms, built from the rows once, cannot go stale.
    '''

    schema: ModalitySchema
    query_embeddings: dict
    reference_embeddings: dict
    query_mask: np.ndarray
    reference_mask: np.ndarray
    relevance: RelevanceMap

    def __post_init__(self):
        for side in ("query", "reference"):
            self._check_side(side)
        if self.relevance.n_queries != self.n_queries:
            raise DataFormatError("relevance query count disagrees with embeddings")
        if self.relevance.n_references != self.n_references:
            raise DataFormatError("relevance reference count disagrees with embeddings")

    def _check_side(self, side):
        given = getattr(self, f"{side}_mask")
        mask = _own_rows(_mask(given, f"{side} mask"), given)
        object.__setattr__(self, f"{side}_mask", mask)
        mods = getattr(self.schema, f"{side}_modalities")
        if mask.shape[1] != len(mods):
            raise DataFormatError(f"{side} mask must be (n, {len(mods)}), got {mask.shape}")
        embeddings = getattr(self, f"{side}_embeddings")
        expected = {(mod, space.name) for space in self.schema.spaces
                    for mod in getattr(space, f"{side}_modalities")}
        if set(embeddings) != expected:
            raise DataFormatError(
                f"{side} embeddings keys mismatch: missing "
                f"{sorted(expected - set(embeddings))}, "
                f"unexpected {sorted(set(embeddings) - expected)}")
        dims = {space.name: space.dim for space in self.schema.spaces}
        checked = {}  # the caller's dict keeps its own arrays
        for (mod, space_name), given in embeddings.items():
            where = f"{side} embedding {mod}/{space_name}"
            arr = _embedding(given, where)
            shape = (len(mask), dims[space_name])
            if arr.shape != shape:
                raise DataFormatError(f"{where} has shape {arr.shape}, expected {shape}")
            checked[(mod, space_name)] = _own_rows(arr, given)
        object.__setattr__(self, f"{side}_embeddings", types.MappingProxyType(checked))

    @property
    def n_queries(self) -> int:
        return int(self.query_mask.shape[0])

    @property
    def n_references(self) -> int:
        return int(self.reference_mask.shape[0])

    def fingerprint(self) -> str:
        return self.schema._fingerprint

    @functools.cached_property
    def reference_norms(self) -> dict:
        '''Read-only float64 row_norms of every reference embedding, by
        (modality, space) key, built on first use, never at construction or
        load. Every scoring call, viewed or gathered, takes its rows' entries.'''
        norms = {key: row_norms(rows) for key, rows in self.reference_embeddings.items()}
        for vector in norms.values():
            vector.setflags(write=False)
        return norms


def row_norms(rows) -> np.ndarray:
    '''Euclidean norm of each row at float64. Float32 rows are widened in
    einsum's buffer, not copied, and a row's norm has the same bits whether
    it is computed alone or in a block of any height.'''
    return np.sqrt(np.einsum("id,id->i", rows, rows, optimize=False, dtype=np.float64))


def _own_rows(arr, given) -> np.ndarray:
    '''arr as read-only C-ordered rows that no caller can write to. A new
    array that the conversion of given made, or a view over immutable bytes
    (a loaded file's rows), is kept; anything else is copied once. C order
    makes a cell score the same bits whether its rows are gathered or not.'''
    root = arr
    while isinstance(root, np.ndarray):
        root = root.base
    if arr.base is None and arr is not given:
        rows = np.ascontiguousarray(arr)
    elif isinstance(root, bytes) and arr.flags.c_contiguous:
        rows = arr
    else:
        rows = np.array(arr, order="C")
    rows.setflags(write=False)
    return rows


# ---------------------------------------------------------------------------
# Binary files
# ---------------------------------------------------------------------------

def _embedding(matrix, where) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, refused below
        arr = np.asarray(matrix, dtype=np.float32)
    if arr.ndim != 2 or not np.isfinite(arr).all():
        raise DataFormatError(f"{where}: not a 2-D matrix of finite float32 values")
    return arr


def _mask(mask, where) -> np.ndarray:
    arr = np.asarray(mask)
    present = arr.astype(bool, copy=False)
    if arr.ndim != 2 or not (arr == present).all():  # equal as bool: only 0s and 1s
        raise DataFormatError(f"{where}: not a 2-D matrix of 0s and 1s")
    return present


def write_embedding_file(path, matrix):
    '''Serialize a 2-D matrix as float32 little-endian with a fixed header.'''
    _write_matrix(path, EMBEDDING_MAGIC, _embedding(matrix, path).astype("<f4", copy=False))


def read_embedding_file(path) -> np.ndarray:
    '''The float32 matrix an embedding file holds. Rejects malformed files.'''
    return _embedding(_read_matrix(path, EMBEDDING_MAGIC, "<f4"), path)


def write_mask_file(path, mask):
    '''Serialize a presence mask as one byte per cell (0 or 1).'''
    _write_matrix(path, MASK_MAGIC, _mask(mask, path).astype(np.uint8))


def read_mask_file(path) -> np.ndarray:
    return _mask(_read_matrix(path, MASK_MAGIC, np.uint8), path)


def _write_matrix(path, magic, arr):
    header = _MATRIX_HEADER.pack(magic, FORMAT_VERSION, 0, *arr.shape)
    atomic_write_bytes(path, header, np.ascontiguousarray(arr))


def _read_matrix(path, magic, dtype) -> np.ndarray:
    blob = read_binary(path)
    rows, cols = unpack_header(blob, _MATRIX_HEADER, magic, FORMAT_VERSION, path)
    expected = rows * cols * np.dtype(dtype).itemsize
    if len(blob) - _MATRIX_HEADER.size != expected:
        raise DataFormatError(
            f"{path}: payload is {len(blob) - _MATRIX_HEADER.size} bytes, "
            f"header promises {expected}")
    try:
        return np.frombuffer(blob, dtype, offset=_MATRIX_HEADER.size).reshape(rows, cols)
    except ValueError as exc:  # rows x 0 passes the length check at any rows
        raise DataFormatError(f"{path}: cannot hold {rows} x {cols} ({exc})") from exc


def read_binary(path) -> bytes:
    '''Read a whole binary file; DataFormatError when it cannot be read.'''
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read ({exc})") from exc


def _decode(blob: bytes, where) -> str:
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{where}: not UTF-8 ({exc})") from exc


def parse_json(blob: bytes, where):
    '''The JSON document in blob; DataFormatError when blob is not UTF-8,
    not JSON, nested too deep to parse, or holds NaN or Infinity, which no
    writer emits.'''
    def refuse(name):
        raise ValueError(f"{name} is not allowed")

    text = _decode(blob, where)
    try:
        return json.loads(text, parse_constant=refuse)
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"{where}: invalid JSON ({exc})") from exc


def unpack_header(blob, header: struct.Struct, magic: bytes, version: int, path):
    '''Check the magic | u16 version | u16 pad prefix that every binary
    file starts with, and return the header fields after it.'''
    if len(blob) < header.size:
        raise DataFormatError(f"{path}: truncated header ({len(blob)} bytes)")
    found, found_version, pad, *fields = header.unpack_from(blob)
    if found != magic:
        raise DataFormatError(f"{path}: bad magic {found!r}, expected {magic!r}")
    if found_version != version:
        raise DataFormatError(f"{path}: unsupported version {found_version}")
    if pad:
        raise DataFormatError(f"{path}: nonzero header pad {pad}")
    return fields


# ---------------------------------------------------------------------------
# CSV files
# ---------------------------------------------------------------------------

_PAIR_COLUMNS = (("query_id", int), ("reference_id", int))
_POSITION_COLUMNS = (("id", int), ("x", float), ("y", float))

# write_csv's text for a column of each kind; float() first, because
# np.float64's repr is "np.float64(...)"
_CSV_TEXT = {int: lambda cells: map(str, map(operator.index, cells)),
             float: lambda cells: map(repr, map(float, cells)),
             str: lambda cells: map(str, cells)}


def write_csv(path, columns, rows):
    '''Write rows atomically under a header of the column names. Ints are
    written in decimal and floats at their shortest round-trip repr, the
    text write_json gives them, so read_csv gives back equal values.'''
    texts = [_CSV_TEXT[kind](cells) for (_, kind), cells in zip(columns, zip(*rows))]
    lines = [",".join(name for name, _ in columns)]
    lines.extend(map(",".join, zip(*texts)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv(path, columns) -> list:
    '''One tuple of typed values per non-blank row of a CSV file whose
    header is the column names. A cell its column kind cannot convert is
    DataFormatError naming the file and the field.'''
    names = tuple(name for name, _ in columns)
    reader = csv.reader(io.StringIO(_decode(read_binary(path), path), newline=""))
    try:
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != names:
            raise DataFormatError(
                f"{path}: header must be {','.join(names)!r}, got {header}")
        rows = [row for row in reader if row]
    except csv.Error as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    for row in rows:
        if len(row) != len(columns):
            raise DataFormatError(f"{path}: malformed row {row}")
    values = []
    for (name, kind), texts in zip(columns, zip(*rows)):
        try:
            values.append(list(map(kind, texts)))
        except ValueError as exc:
            raise DataFormatError(f"{path}: field {name}: {exc}") from None
    return list(zip(*values))


def write_relevance_pairs(path, relevance: RelevanceMap):
    write_csv(path, _PAIR_COLUMNS,
              ((q, r) for q, refs in enumerate(relevance.relevant) for r in sorted(refs)))


def read_relevance_pairs(path, n_queries: int, n_references: int) -> RelevanceMap:
    sets = [set() for _ in range(n_queries)]
    for q, r in read_csv(path, _PAIR_COLUMNS):
        if not 0 <= q < n_queries:
            raise DataFormatError(f"{path}: query_id {q} outside [0, {n_queries})")
        if not 0 <= r < n_references:
            raise DataFormatError(f"{path}: reference_id {r} outside [0, {n_references})")
        sets[q].add(r)
    return RelevanceMap(n_queries, n_references, tuple(frozenset(s) for s in sets))


def read_positions(path) -> np.ndarray:
    '''Read an id,x,y CSV; ids must cover 0..n-1. Returns xy ordered by id.'''
    rows = read_csv(path, _POSITION_COLUMNS)
    if sorted(i for i, _, _ in rows) != list(range(len(rows))):
        raise DataFormatError(f"{path}: ids must cover 0..{len(rows) - 1} exactly once")
    xy = np.array([(x, y) for _, x, y in sorted(rows)], dtype=np.float64).reshape(-1, 2)
    if not np.isfinite(xy).all():
        raise DataFormatError(f"{path}: coordinates must be finite")
    return xy


# ---------------------------------------------------------------------------
# Dataset-level operations
# ---------------------------------------------------------------------------

def apply_modality_dropout(mask, probabilities, seed, keep_at_least_one=False):
    '''Randomly clear present modalities, column c with probabilities[c].

    With keep_at_least_one, rows that started non-empty are redrawn until at
    least one modality survives; rows that were already empty stay empty.
    '''
    mask = np.asarray(mask, dtype=bool)
    probs = np.asarray(probabilities, dtype=np.float64)
    if mask.ndim != 2 or probs.shape != (mask.shape[1],):
        raise ValueError("probabilities must give one value per modality column")
    if not np.all((0 <= probs) & (probs <= 1)):
        raise ValueError("dropout probabilities must lie in [0, 1]")
    if keep_at_least_one and np.any(probs >= 1.0):
        raise ValueError("keep_at_least_one cannot hold with a probability of 1")
    rng = np.random.default_rng(seed)
    out = mask & ~(rng.random(mask.shape) < probs[None, :])
    if keep_at_least_one:
        for i in np.nonzero(mask.any(axis=1) & ~out.any(axis=1))[0]:
            while True:
                row = mask[i] & ~(rng.random(mask.shape[1]) < probs)
                if row.any():
                    out[i] = row
                    break
    return out


def split_queries(n_queries: int, calibration_fraction: float, seed):
    '''Deterministic disjoint split of query ids into (calibration, rest).

    The calibration side gets floor(fraction * n + 0.5) queries. Both sides
    must end up non-empty.
    '''
    if n_queries < 2:
        raise ValueError("need at least 2 queries to split")
    if not 0.0 < calibration_fraction < 1.0:
        raise ValueError("calibration_fraction must lie strictly inside (0, 1)")
    size = int(math.floor(calibration_fraction * n_queries + 0.5))
    if size == 0 or size == n_queries:
        raise ValueError(
            f"calibration_fraction {calibration_fraction} rounds to an empty side "
            f"for {n_queries} queries")
    perm = np.random.default_rng(seed).permutation(n_queries)
    return np.sort(perm[:size]), np.sort(perm[size:])


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

_JSON_KINDS = {dict: "an object", list: "a list", str: "a string",
               int: "an integer", (int, float): "a number"}


def member(node, key, kind, where, default=None):
    '''node[key], checked to have the JSON type kind. An absent key gives
    default, or DataFormatError when there is none.'''
    if key not in node:
        if default is None:
            raise DataFormatError(f"{where} is missing key {key!r}")
        return default
    value = node[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DataFormatError(f"{where} key {key!r} must be {_JSON_KINDS[kind]}")
    return value


def load_dataset(path) -> MultimodalDataset:
    '''Load a dataset from a manifest file (or a directory holding one).

    All paths inside the manifest resolve relative to the manifest's
    directory. A missing mask entry means every modality is present.
    '''
    path = os.fspath(path)
    if os.path.isdir(path):
        path = os.path.join(path, "manifest.json")
    manifest = parse_json(read_binary(path), path)
    if not isinstance(manifest, dict):
        raise DataFormatError(f"{path}: manifest must be a JSON object")
    base = os.path.dirname(path)
    at_manifest = f"{path}: manifest"

    def resolve(node, key, where):
        return os.path.join(base, member(node, key, str, where))

    version = member(manifest, "version", int, at_manifest)
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: manifest version {version!r}, expected 1")
    query_mods = tuple(member(manifest, "query_modalities", list, at_manifest))
    reference_mods = tuple(member(manifest, "reference_modalities", list, at_manifest))
    if not all(isinstance(mod, str) for mod in query_mods + reference_mods):
        raise DataFormatError(f"{path}: modality names must be strings")
    space_entries = member(manifest, "spaces", list, at_manifest)
    relevance_entry = member(manifest, "relevance", dict, at_manifest)

    overrides = {}
    pair_space = member(manifest, "pair_space", dict, at_manifest, {})
    for pair_text in pair_space:
        if pair_text.count(":") != 1:
            raise DataFormatError(
                f"{path}: pair_space key {pair_text!r} must look like 'qmod:rmod'")
        qmod, rmod = pair_text.split(":")
        overrides[(qmod, rmod)] = member(pair_space, pair_text, str, at_manifest)

    spaces, query_files, reference_files = [], {}, {}
    for entry in space_entries:
        if not isinstance(entry, dict):
            raise DataFormatError(f"{path}: space entries must be objects")
        name = member(entry, "name", str, f"{path}: space entry")
        at_space = f"{path}: space {name!r}"
        queries = member(entry, "query_embeddings", dict, at_space, {})
        references = member(entry, "reference_embeddings", dict, at_space, {})
        spaces.append(SharedSpace(name, member(entry, "dim", int, at_space),
                                  tuple(queries), tuple(references)))
        for files, side in ((query_files, queries), (reference_files, references)):
            files.update(((mod, name), resolve(side, mod, at_space)) for mod in side)
    schema = ModalitySchema(query_mods, reference_mods, tuple(spaces), overrides)
    # headers and lengths are checked here, values once, by MultimodalDataset
    query_embeddings = {key: _read_matrix(file, EMBEDDING_MAGIC, "<f4")
                        for key, file in query_files.items()}
    reference_embeddings = {key: _read_matrix(file, EMBEDDING_MAGIC, "<f4")
                            for key, file in reference_files.items()}

    def read_mask(key, embeddings, mods):
        if manifest.get(key) is not None:
            return _read_matrix(resolve(manifest, key, at_manifest), MASK_MAGIC, np.uint8)
        # every space on a side has the side's row count; MultimodalDataset checks it
        rows = next(iter(embeddings.values())).shape[0]
        return np.ones((rows, len(mods)), dtype=bool)

    query_mask = read_mask("query_mask", query_embeddings, query_mods)
    reference_mask = read_mask("reference_mask", reference_embeddings, reference_mods)

    at_relevance = f"{path}: relevance"
    kind = relevance_entry.get("type")
    if kind == "pairs":
        relevance = read_relevance_pairs(resolve(relevance_entry, "path", at_relevance),
                                         len(query_mask), len(reference_mask))
    elif kind == "positions":
        threshold = member(relevance_entry, "threshold_meters", (int, float),
                           at_relevance)
        if not 0 <= threshold <= sys.float_info.max:  # also an int too big for float()
            raise DataFormatError(f"{at_relevance}: threshold_meters must be finite and >= 0")
        relevance = relevance_from_positions(
            read_positions(resolve(relevance_entry, "query_path", at_relevance)),
            read_positions(resolve(relevance_entry, "reference_path", at_relevance)),
            float(threshold))
    else:
        raise DataFormatError(f"{path}: unknown relevance type {kind!r}")

    try:
        return MultimodalDataset(
            schema=schema,
            query_embeddings=query_embeddings,
            reference_embeddings=reference_embeddings,
            query_mask=query_mask,
            reference_mask=reference_mask,
            relevance=relevance,
        )
    except DataFormatError as exc:  # its message names the array, not the file
        raise DataFormatError(f"{path}: {exc}") from exc


def save_dataset(dataset: MultimodalDataset, out_dir):
    '''Write a dataset directory: manifest.json plus all referenced files.
    A dataset whose names load_dataset would not read back as they are is
    ValueError, before any file is written.'''
    schema = dataset.schema
    for name in (*schema.query_modalities, *schema.reference_modalities,
                 *(space.name for space in schema.spaces)):
        if {"/", os.sep, "\0"} & set(name):
            raise ValueError(f"name {name!r} cannot be part of a file name")
    for pair in schema.pair_overrides:
        if ":" in "".join(pair):
            raise ValueError(f"pair_space override {pair}: a modality name "
                             f"holding ':' cannot be written as 'qmod:rmod'")
    spaces, files = [], {}
    for space in schema.spaces:
        entry = {"name": space.name, "dim": space.dim}
        for side, embeddings, mods in (
            ("query", dataset.query_embeddings, space.query_modalities),
            ("reference", dataset.reference_embeddings, space.reference_modalities),
        ):
            names = entry[f"{side}_embeddings"] = {
                mod: f"{side}_{mod}_{space.name}.emb" for mod in mods}
            for mod, fname in names.items():
                if fname in files:
                    raise ValueError(f"two {side} embeddings would be written to {fname!r}")
                files[fname] = embeddings[(mod, space.name)]
        spaces.append(entry)
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    for fname, matrix in files.items():
        write_embedding_file(os.path.join(out_dir, fname), matrix)
    write_mask_file(os.path.join(out_dir, "query_mask.msk"), dataset.query_mask)
    write_mask_file(os.path.join(out_dir, "reference_mask.msk"), dataset.reference_mask)
    write_relevance_pairs(os.path.join(out_dir, "relevance.csv"), dataset.relevance)
    manifest = {
        "version": FORMAT_VERSION,
        "query_modalities": list(schema.query_modalities),
        "reference_modalities": list(schema.reference_modalities),
        "spaces": spaces,
        "query_mask": "query_mask.msk",
        "reference_mask": "reference_mask.msk",
        "relevance": {"type": "pairs", "path": "relevance.csv"},
    }
    if schema.pair_overrides:
        manifest["pair_space"] = {
            f"{q}:{r}": name for (q, r), name in sorted(schema.pair_overrides.items())
        }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
