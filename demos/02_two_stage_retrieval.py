# %% [markdown]
# # Two-stage retrieval across incomparable score scales
#
# Two embedding spaces score different modality pairs on raw ranges that
# have nothing to do with each other. Stage one calibrates each pair into
# [0, 1]; the fused values are calibrated again, so the final probability
# is comparable across queries no matter which modalities they carry.

# %%
import tempfile
from pathlib import Path

import numpy as np

from conformal_retrieval.dataset import split_queries
from conformal_retrieval.pipeline import fit_model, load_model, save_model
from conformal_retrieval.retrieval import retrieve
from conformal_retrieval.similarity import pairwise_score_table
from conformal_retrieval.synthgen import SynthConfig, SynthSpace, generate

config = SynthConfig(
    n_queries=120, n_references=40,
    query_modalities=("a", "b"), reference_modalities=("a", "b"),
    spaces=(
        # the anchor offset compresses this space's cosines near 1
        SynthSpace("hi", 24, noise_sigma=0.3, score_offset=3.0,
                   query_modalities=("a",), reference_modalities=("a",)),
        SynthSpace("lo", 16, noise_sigma=0.4,
                   query_modalities=("b",), reference_modalities=("b",)),
    ),
    latent_dim=8, seed=5)
ds = generate(config)

for pair in ds.schema.scoreable_pairs():
    space = ds.schema.space_for(*pair)
    values, observed = pairwise_score_table(ds, pair, range(ds.n_queries),
                                            range(ds.n_references))
    obs = values[observed]
    print(f"pair {pair[0]}->{pair[1]} via '{space.name}': raw scores in "
          f"[{obs.min():.3f}, {obs.max():.3f}]")

# %% [markdown]
# ## Fit on a calibration split, retrieve on the rest

# %%
cal, test = split_queries(ds.n_queries, 0.5, seed=5)
model = fit_model(ds, cal)
for pair, band in model.first_stage.items():
    print(f"stage one {pair[0]}->{pair[1]}: raw range "
          f"[{band.theta_min:.3f}, {band.theta_max:.3f}], m={band.sorted_gamma.size}")
print(f"stage two: fused range [{model.second_stage.theta_min:.3f}, "
      f"{model.second_stage.theta_max:.3f}]")

# %%
qi = int(test[0])
result = retrieve(model, ds, qi, k=5)
target = sorted(ds.relevance.relevant[qi])
print(f"query {qi} (relevant: {target})")
for rank, (ref, prob, unanswerable) in enumerate(result.ranked, start=1):
    mark = " <- relevant" if ref in target else ""
    print(f"  rank {rank}: reference {ref:3d}  p = {prob:.4f}{mark}")

# %% [markdown]
# ## Models round-trip bit for bit through the binary model file

# %%
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.bin"
    save_model(model, path)
    reloaded = load_model(path)
    again = retrieve(reloaded, ds, qi, k=5)
    print(f"model file: {path.stat().st_size} bytes")
    print(f"identical ranking after reload: {again.ranked == result.ranked}")
