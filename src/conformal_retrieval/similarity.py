'''Masked cosine scoring across shared embedding spaces.

Scores are plain cosine similarities computed at float64. Cells where a side
is missing the modality are flagged in an explicit `observed` grid;
downstream code must branch on the flag, never on their values.
'''

import numpy as np

from .dataset import row_norms

__all__ = [
    "cosine_table",
    "pairwise_score_table",
]


def cosine_table(query_rows: np.ndarray, reference_rows: np.ndarray,
                 reference_norms=None) -> np.ndarray:
    '''Cosine similarity of every row pair, clamped to [-1, 1].

    Rows with zero norm score 0 against everything. The contraction goes
    through einsum so every output cell is reduced in the same order
    regardless of the block shape: a cell scores the same bits in a full
    grid, a row block, a reference subset or a 1x1 block. Shortlist
    retrieval relies on that to match exact retrieval, and so does the
    per-cell test oracle. BLAS matmul is faster but its reduction order
    follows the block shape; a fixed-shape tiled GEMM is the way to get its
    speed without losing the invariance. The invariance holds up to 8192
    columns, numpy's buffer size, and is tested there; past it einsum
    splits each reduction, and a cell's last bit can follow the block shape.

    Only the query block is widened to a float64 copy. Float32 reference
    rows are widened inside einsum's buffer, which gives the bits a float64
    copy would, and the contraction keeps the reference row outermost, so
    each reference row is widened once whatever the query count; with the
    query row outermost, every query row would widen the whole reference
    block again.

    Args:
        query_rows / reference_rows: 2-D blocks with the same column count.
        reference_norms: row_norms(reference_rows), when the caller keeps
            them (MultimodalDataset.reference_norms); computed here when
            None.
    '''
    a = np.asarray(query_rows, dtype=np.float64)
    b = np.asarray(reference_rows)
    if b.dtype != np.float32:
        b = b.astype(np.float64, copy=False)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(
            f"expected matching 2-D blocks, got {a.shape} and {b.shape}")
    b_norm = row_norms(b) if reference_norms is None else np.asarray(reference_norms)
    if b_norm.shape != (len(b),):
        raise ValueError(
            f"expected {len(b)} reference norms, got shape {b_norm.shape}")
    dots = np.einsum("jd,id->ji", b, a, optimize=False, dtype=np.float64).T
    denom = row_norms(a)[:, None] * b_norm[None, :]
    out = np.zeros(dots.shape)  # C order; the division reads the transpose
    np.divide(dots, denom, out=out, where=denom > 0.0)
    np.clip(out, -1.0, 1.0, out=out)
    return out


def _rows(matrix: np.ndarray, ids: np.ndarray) -> np.ndarray:
    '''The rows of matrix at ids: matrix itself, not a gathered copy, when
    ids are every row in order.'''
    if ids.size == len(matrix) and np.array_equal(ids, np.arange(ids.size)):
        return matrix
    return matrix[ids]


def pairwise_score_table(dataset, pair, query_ids, reference_ids) -> tuple:
    '''Score one modality pair over explicit id lists.

    Args:
        dataset: A MultimodalDataset.
        pair: (query modality, reference modality); must be scoreable.
        query_ids / reference_ids: Index sequences into each side.

    Returns:
        (values, observed): the cosine grid and the boolean grid that is
        False where either side is missing the modality, both of shape
        (len(query_ids), len(reference_ids)).
    '''
    qmod, rmod = pair
    space = dataset.schema.space_for(qmod, rmod)
    if space is None:
        raise ValueError(f"pair ({qmod!r}, {rmod!r}) is not covered by any space")
    query_ids = np.asarray(query_ids, dtype=np.intp)
    reference_ids = np.asarray(reference_ids, dtype=np.intp)
    key = (rmod, space.name)
    q = _rows(dataset.query_embeddings[(qmod, space.name)], query_ids)
    stored = dataset.reference_embeddings[key]
    r = _rows(stored, reference_ids)
    if r is stored:
        values = cosine_table(q, r, dataset.reference_norms[key])
    else:
        # a gather is a fresh copy anyway, and a subsampled fit's gathers are
        # small: widening one costs less than einsum's buffered cast, and its
        # norms less than building every stored row's
        values = cosine_table(q, r.astype(np.float64))
    q_present = dataset.query_mask[query_ids, dataset.schema.query_modalities.index(qmod)]
    r_present = dataset.reference_mask[
        reference_ids, dataset.schema.reference_modalities.index(rmod)]
    return values, q_present[:, None] & r_present[None, :]
