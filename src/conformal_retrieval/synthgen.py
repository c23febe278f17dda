'''Synthetic multimodal datasets with controllable quality and dropout.

Generation draws a unit-norm latent per reference group, lets each query
share the latent of its target group, and renders every (modality, space)
embedding through a fixed seeded rotation plus per-modality noise. Cosine
scores in every space therefore track latent identity, with noise_sigma
controlling how well, and dropout masks emulate missing modalities.
'''

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import (
    DataFormatError,
    ModalitySchema,
    MultimodalDataset,
    RelevanceMap,
    SharedSpace,
    apply_modality_dropout,
    check_count,
)

__all__ = ["SynthSpace", "SynthConfig", "generate"]


@dataclass(frozen=True)
class SynthSpace:
    '''Recipe for one shared space.

    noise_sigma scales per-modality Gaussian noise added before the rows
    are re-normalized; score_offset adds a common anchor direction, which
    compresses raw cosine ranges upward the way encoder families with
    narrow score bands do. Coverage of None means every modality on that
    side embeds into this space.
    '''

    name: str
    dim: int
    noise_sigma: float
    score_offset: float = 0.0
    query_modalities: tuple = None
    reference_modalities: tuple = None


@dataclass(frozen=True)
class SynthConfig:
    n_queries: int
    n_references: int
    query_modalities: tuple
    reference_modalities: tuple
    spaces: tuple
    latent_dim: int = 32
    relevant_per_query: int = 1
    query_dropout: dict = field(default_factory=dict)
    reference_dropout: dict = field(default_factory=dict)
    keep_at_least_one_query: bool = False
    keep_at_least_one_reference: bool = False
    seed: int = 0


def _validate(config: SynthConfig):
    for name in ("n_queries", "n_references", "latent_dim", "relevant_per_query"):
        check_count(getattr(config, name), name)
    if config.relevant_per_query > config.n_references:
        raise ValueError("relevant_per_query must lie in [1, n_references]")
    for space in config.spaces:
        if not 0 <= space.noise_sigma < math.inf:
            raise ValueError(f"space {space.name!r}: noise_sigma must be finite and >= 0")
        if not math.isfinite(space.score_offset):
            raise ValueError(f"space {space.name!r}: score_offset must be finite")
    for side, dropout, mods in (
        ("query", config.query_dropout, config.query_modalities),
        ("reference", config.reference_dropout, config.reference_modalities),
    ):
        for mod in dropout:
            if mod not in mods:
                raise ValueError(f"{side} dropout names unknown modality {mod!r}")


def _schema(config: SynthConfig) -> ModalitySchema:
    spaces = tuple(
        SharedSpace(
            name=s.name,
            dim=s.dim,
            query_modalities=(
                tuple(config.query_modalities)
                if s.query_modalities is None else tuple(s.query_modalities)),
            reference_modalities=(
                tuple(config.reference_modalities)
                if s.reference_modalities is None else tuple(s.reference_modalities)),
        )
        for s in config.spaces
    )
    return ModalitySchema(tuple(config.query_modalities),
                          tuple(config.reference_modalities), spaces)


def _rotation(rng, latent_dim: int, dim: int) -> np.ndarray:
    '''Seeded (latent_dim, dim) map with orthonormal rows or columns.'''
    if dim >= latent_dim:
        q, _ = np.linalg.qr(rng.standard_normal((dim, latent_dim)))
        return q.T
    q, _ = np.linalg.qr(rng.standard_normal((latent_dim, dim)))
    return q


def _unit_rows(arr: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    out = np.zeros_like(arr)
    np.divide(arr, norms, out=out, where=norms > 0)
    return out


def generate(config: SynthConfig) -> MultimodalDataset:
    '''Build a dataset from the recipe; identical seeds give identical data.'''
    _validate(config)
    try:
        schema = _schema(config)
    except DataFormatError as exc:
        # a recipe is a value, not a file: a schema fault in it is a usage error
        raise ValueError(str(exc)) from None
    latent_seq, transform_seq, noise_seq, qmask_seq, rmask_seq = (
        np.random.SeedSequence(config.seed).spawn(5))

    rpq = config.relevant_per_query
    n_groups = math.ceil(config.n_references / rpq)
    latent_rng = np.random.default_rng(latent_seq)
    group_latents = _unit_rows(
        latent_rng.standard_normal((n_groups, config.latent_dim)))
    reference_latents = group_latents[np.arange(config.n_references) // rpq]
    query_groups = np.arange(config.n_queries) % n_groups
    query_latents = group_latents[query_groups]
    relevance = RelevanceMap(
        config.n_queries, config.n_references,
        tuple(
            frozenset(np.nonzero(np.arange(config.n_references) // rpq == g)[0].tolist())
            for g in query_groups
        ),
    )

    transform_rng = np.random.default_rng(transform_seq)
    rotations, anchors = {}, {}
    for space in config.spaces:
        rotations[space.name] = _rotation(transform_rng, config.latent_dim, space.dim)
        anchor = transform_rng.standard_normal(space.dim)
        anchors[space.name] = anchor / np.linalg.norm(anchor)

    noise_rng = np.random.default_rng(noise_seq)

    def render(latents, side_mods, coverage_attr):
        out = {}
        for space, synth in zip(schema.spaces, config.spaces):
            covered = getattr(space, coverage_attr)
            for mod in side_mods:
                if mod not in covered:
                    continue
                base = np.einsum("nl,ld->nd", latents, rotations[space.name],
                                 optimize=False)
                base += synth.noise_sigma * noise_rng.standard_normal(base.shape)
                base += synth.score_offset * anchors[space.name]
                out[(mod, space.name)] = _unit_rows(base)
        return out

    query_embeddings = render(query_latents, config.query_modalities,
                              "query_modalities")
    reference_embeddings = render(reference_latents, config.reference_modalities,
                                  "reference_modalities")

    def build_mask(n, mods, dropout, seq, keep_one):
        mask = np.ones((n, len(mods)), dtype=bool)
        if not dropout:
            return mask
        probs = [float(dropout.get(mod, 0.0)) for mod in mods]
        return apply_modality_dropout(mask, probs, seq, keep_at_least_one=keep_one)

    return MultimodalDataset(
        schema=schema,
        query_embeddings=query_embeddings,
        reference_embeddings=reference_embeddings,
        query_mask=build_mask(config.n_queries, config.query_modalities,
                              config.query_dropout, qmask_seq,
                              config.keep_at_least_one_query),
        reference_mask=build_mask(config.n_references, config.reference_modalities,
                                  config.reference_dropout, rmask_seq,
                                  config.keep_at_least_one_reference),
        relevance=relevance,
    )

