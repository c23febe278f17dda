'''Masked cosine scoring across shared embedding spaces.

Scores are plain cosine similarities computed at float64. Cells where a side
is missing the modality are flagged in an explicit `observed` grid;
downstream code must branch on the flag, never on their values. A cheaper
float32 screen bounds one query's cosines against every reference, so a
caller can score exactly only the references the bounds leave in play.
'''

import numpy as np

from .dataset import checked_ids, row_norms

__all__ = [
    "cosine_bounds",
    "pairwise_score_table",
]

# unit roundoff of float32 and float64, and float32's smallest subnormal
_U32 = 2.0 ** -24
_U64 = 2.0 ** -53
_TINY32 = 2.0 ** -149


def _cosine_table(query_rows, reference_rows, reference_norms) -> np.ndarray:
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

    Only the query block is widened to a float64 copy; the reference rows
    are widened inside einsum's buffer. The reference row is outermost so
    that each is widened once whatever the query count: with the query row
    outermost, every query row would widen the whole reference block.

    Args:
        query_rows / reference_rows: 2-D blocks with the same column count.
        reference_norms: row_norms(reference_rows).
    '''
    a = np.asarray(query_rows, dtype=np.float64)
    dots = np.einsum("jd,id->ji", reference_rows, a, optimize=False, dtype=np.float64).T
    denom = row_norms(a)[:, None] * reference_norms[None, :]
    out = np.zeros(dots.shape)  # C order; the division reads the transpose
    np.divide(dots, denom, out=out, where=denom > 0.0)
    np.clip(out, -1.0, 1.0, out=out)
    return out


def _index(ids, n: int, what: str):
    '''An index that takes the rows at ids: slice(None), a view, when ids
    are every row 0..n-1 in order, and otherwise the ids, a gather, once
    checked_ids has checked them.'''
    ids = np.asarray(ids)
    if ids.size == n and np.array_equal(ids, np.arange(n)):
        return slice(None)
    return checked_ids(ids, n, what)


def _keys(dataset, pair) -> tuple:
    '''The (modality, space) embedding keys of a pair's query and
    reference side; ValueError when no space covers the pair.'''
    qmod, rmod = pair
    space = dataset.schema.space_for(qmod, rmod)
    if space is None:
        raise ValueError(f"pair ({qmod!r}, {rmod!r}) is not covered by any space")
    return (qmod, space.name), (rmod, space.name)


def pairwise_score_table(dataset, pair, query_ids, reference_ids) -> tuple:
    '''Score one modality pair over explicit id lists.

    One index per side, a view when the ids are every row in order and a
    gather otherwise, takes that side's float32 rows and mask column, and
    the reference side's kept norms. One _cosine_table call scores the
    rows; no reference row is copied to float64.

    Args:
        dataset: A MultimodalDataset.
        pair: (query modality, reference modality); must be scoreable.
        query_ids / reference_ids: Integer ids into each side, each in
            [0, n) for that side; an empty list is an empty block.

    Returns:
        (values, observed): the cosine grid and the boolean grid that is
        False where either side is missing the modality, both of shape
        (len(query_ids), len(reference_ids)).
    '''
    qmod, rmod = pair
    qkey, rkey = _keys(dataset, pair)
    qi = _index(query_ids, dataset.n_queries, "query")
    ri = _index(reference_ids, dataset.n_references, "reference")
    values = _cosine_table(dataset.query_embeddings[qkey][qi],
                           dataset.reference_embeddings[rkey][ri],
                           dataset.reference_norms[rkey][ri])
    q_present = dataset.query_mask[qi, dataset.schema.query_modalities.index(qmod)]
    r_present = dataset.reference_mask[ri, dataset.schema.reference_modalities.index(rmod)]
    return values, q_present[:, None] & r_present[None, :]


def cosine_bounds(dataset, pair, query_index: int) -> tuple:
    '''Bounds on the cosine pairwise_score_table scores one query against
    every reference, from one float32 matrix-vector product.

    The product runs over the stored float32 reference rows, neither
    gathered nor widened, and is divided by the query's norm times the kept
    reference norms: the denominator the exact route divides by. A float32
    dot of d terms is off the exact one by at most
    gamma_d * sum|q_i r_i| <= gamma_d * |q| |r|, gamma_d = d u / (1 - d u)
    with u = 2**-24, plus d * 2**-149 for products that underflow; the
    float64 dot of the exact route is off by float64's gamma_d on the same
    sum. Each value is widened by both over the denominator, plus a few
    float64 ulps for the divisions and the norms, and clipped to [-1, 1]
    as the exact cosine is, so lower <= exact <= upper for every reference.
    A zero-norm row on either side scores exactly 0 and gets [0, 0]. A dot
    that overflows float32 bounds nothing and gets (-inf, +inf). No
    floating-point warning escapes. The values screen candidates only:
    BLAS may reduce in any order or thread count, which moves their bits
    within the bound but never past it.

    Args:
        dataset: A MultimodalDataset.
        pair: (query modality, reference modality); must be scoreable.
        query_index: The query row, an integer in [0, n_queries), which
            need not observe the modality.

    Returns:
        (lower, upper): float64 arrays of n_references bounds, whatever
        the reference mask says.
    '''
    qkey, rkey = _keys(dataset, pair)
    rows = dataset.reference_embeddings[rkey]
    query = dataset.query_embeddings[qkey][
        checked_ids([query_index], dataset.n_queries, "query")]
    d = rows.shape[1]
    gamma = d * _U32 / (1.0 - d * _U32) + d * _U64 / (1.0 - d * _U64)
    margin = 1.0 + 2.0 ** -20
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dots = rows @ query[0]
        denom = dataset.reference_norms[rkey] * row_norms(query)[0]
        # a zero denominator makes the value NaN and its slack inf
        values = dots / denom
        slack = (d * _TINY32 * margin) / denom
        slack += gamma * margin + 2.0 ** -48
        lower = np.maximum(values - slack, -1.0)
        upper = np.minimum(values + slack, 1.0)
    bad = ~np.isfinite(values)
    if bad.any():
        lower[bad], upper[bad] = -np.inf, np.inf
        zero = denom == 0.0
        lower[zero] = upper[zero] = 0.0
    return lower, upper
