import math

import numpy as np
import pytest

from conformal_retrieval.conformal import conformal_probability
from conformal_retrieval.dataset import (
    ModalitySchema,
    MultimodalDataset,
    RelevanceMap,
    SharedSpace,
)
from conformal_retrieval.pipeline import Fuser
from conformal_retrieval.similarity import cosine_table


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
            theta = cosine_table(
                dataset.query_embeddings[(qmod, space)][qi:qi + 1],
                dataset.reference_embeddings[(rmod, space)][ri:ri + 1])[0, 0]
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
