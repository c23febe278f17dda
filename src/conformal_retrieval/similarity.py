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

    Only the query block is widened to a float64 copy; float32 reference
    rows are widened inside einsum's buffer. The reference row is outermost
    so that each is widened once whatever the query count: with the query
    row outermost, every query row would widen the whole reference block.

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


def _index(ids: np.ndarray, n: int):
    '''An index that takes the rows at ids: slice(None), a view, when ids
    are every row 0..n-1 in order, and ids themselves, a gather, otherwise.'''
    if ids.size == n and np.array_equal(ids, np.arange(n)):
        return slice(None)
    return ids


def pairwise_score_table(dataset, pair, query_ids, reference_ids) -> tuple:
    '''Score one modality pair over explicit id lists.

    One index per side, a view when the ids are every row in order and a
    gather otherwise, takes that side's float32 rows and mask column, and
    the reference side's kept norms. One cosine_table call scores the rows;
    no reference row is copied to float64.

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
    qi = _index(np.asarray(query_ids, dtype=np.intp), dataset.n_queries)
    ri = _index(np.asarray(reference_ids, dtype=np.intp), dataset.n_references)
    key = (rmod, space.name)
    values = cosine_table(dataset.query_embeddings[(qmod, space.name)][qi],
                          dataset.reference_embeddings[key][ri],
                          dataset.reference_norms[key][ri])
    q_present = dataset.query_mask[qi, dataset.schema.query_modalities.index(qmod)]
    r_present = dataset.reference_mask[ri, dataset.schema.reference_modalities.index(rmod)]
    return values, q_present[:, None] & r_present[None, :]
