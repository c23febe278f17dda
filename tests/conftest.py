import math
import tracemalloc

import numpy as np
import pytest

from conformal_retrieval.conformal import conformal_probability, normalize_score
from conformal_retrieval.dataset import (
    ModalitySchema,
    MultimodalDataset,
    RelevanceMap,
    SharedSpace,
    row_norms,
)
from conformal_retrieval.pipeline import Fuser
from conformal_retrieval.similarity import _cosine_table


def oracle_cell(model, dataset, qi, ri):
    '''Per-cell reference for score_grid: (probability, fused, answerable).

    Walks the modality grid in row-major order, scores every observed pair
    that has a band on a 1x1 block, and fuses left to right.
    '''
    schema = dataset.schema
    values = []
    for i, qmod in enumerate(schema.query_modalities):
        for j, rmod in enumerate(schema.reference_modalities):
            band = model.first_stage.get((qmod, rmod))
            if band is None or not (dataset.query_mask[qi, i]
                                    and dataset.reference_mask[ri, j]):
                continue
            space = schema.space_for(qmod, rmod).name
            ref = dataset.reference_embeddings[(rmod, space)][ri:ri + 1]
            theta = _cosine_table(
                dataset.query_embeddings[(qmod, space)][qi:qi + 1], ref,
                row_norms(ref))[0, 0]
            values.append(conformal_probability(band, float(theta)))
    if not values:
        return 0.0, -math.inf, False
    if model.fuser is Fuser.MAX:
        fused = max(values)
    else:
        fused = 0.0
        for v in values:
            fused = fused + v
        fused = fused / len(values)
    return conformal_probability(model.second_stage, fused), fused, True


@pytest.fixture
def cell_oracle():
    return oracle_cell


def brute_force_probability(band, theta, grid_step: float = 1e-4):
    '''Grid-sweep reference for conformal_probability.

    Sweeps epsilon over a uniform grid and returns 1 minus the smallest
    epsilon whose prediction set is exactly {1}; 0.0 if no grid point gets
    there. Intentionally re-derives the thresholds instead of reusing
    conformal_probability.
    '''
    if not 0.0 < grid_step <= 1.0:
        raise ValueError("grid_step must lie in (0, 1]")
    m = band.size
    eps = np.linspace(0.0, 1.0, int(round(1.0 / grid_step)) + 1)
    ranks = np.ceil((m + 1) * (1.0 - eps))
    alpha = np.full(eps.shape, np.inf)
    inside = (ranks >= 1) & (ranks <= m)
    alpha[inside] = band.sorted_gamma[ranks[inside].astype(int) - 1]
    alpha[ranks < 1] = -np.inf  # empty set by convention
    theta_tilde = normalize_score(band, theta)
    has_zero = theta_tilde <= alpha
    has_one = (1.0 - theta_tilde) <= alpha
    exactly_one = has_one & ~has_zero
    if not exactly_one.any():
        return 0.0
    return float(1.0 - eps[int(np.argmax(exactly_one))])


@pytest.fixture
def grid_sweep():
    return brute_force_probability


@pytest.fixture
def peak_allocation():
    '''peak_allocation(fn): the peak bytes tracemalloc traces while fn()
    runs, counted from the call.'''
    def peak(fn):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture
def tiny_dataset():
    '''3 queries x 2 references, two modalities, one space per modality.

    Query masks: q0 has both modalities, q1 only "a", q2 only "b".
    References have everything. Relevance: q0 -> r0, q1 -> r1, q2 -> none.
    '''
    schema = ModalitySchema(
        query_modalities=("a", "b"),
        reference_modalities=("a", "b"),
        spaces=(
            SharedSpace("s1", 3, ("a",), ("a",)),
            SharedSpace("s2", 2, ("b",), ("b",)),
        ),
    )
    return MultimodalDataset(
        schema=schema,
        query_embeddings={
            ("a", "s1"): np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            ("b", "s2"): np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        },
        reference_embeddings={
            ("a", "s1"): np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            ("b", "s2"): np.array([[0.0, 1.0], [1.0, 0.0]]),
        },
        query_mask=np.array([[1, 1], [1, 0], [0, 1]], dtype=bool),
        reference_mask=np.array([[1, 1], [1, 1]], dtype=bool),
        relevance=RelevanceMap(3, 2, (frozenset({0}), frozenset({1}), frozenset())),
    )
