# %% [markdown]
# # Retrieval when modalities go missing
#
# Queries and references each keep a random subset of their modalities.
# Scoring uses whatever pairs are observable per cell; references sharing
# no scoreable pair with the query come back flagged unanswerable instead
# of silently misranked. A raw-score heuristic that picks the first
# available pair has to mix incomparable scales; calibration does not.

# %%
import numpy as np

from conformal_retrieval.dataset import split_queries
from conformal_retrieval.metrics import ranking_metrics
from conformal_retrieval.pipeline import fit_model
from conformal_retrieval.retrieval import (
    batch_retrieve,
    heuristic_baseline,
    retrieve,
)
from conformal_retrieval.synthgen import SynthConfig, SynthSpace, generate

config = SynthConfig(
    n_queries=400, n_references=80,
    query_modalities=("a", "b"), reference_modalities=("a", "b"),
    spaces=(
        SynthSpace("strong", 32, noise_sigma=0.25, score_offset=3.0,
                   query_modalities=("a",), reference_modalities=("a",)),
        SynthSpace("weak", 24, noise_sigma=0.3,
                   query_modalities=("b",), reference_modalities=("b",)),
    ),
    latent_dim=16,
    query_dropout={"b": 0.3},
    reference_dropout={"a": 0.25},
    seed=11)
ds = generate(config)
print(f"references missing modality 'a': {int((~ds.reference_mask[:, 0]).sum())}"
      f" of {ds.n_references}")
print(f"queries missing modality 'b':    {int((~ds.query_mask[:, 1]).sum())}"
      f" of {ds.n_queries}")

# %%
cal, test = split_queries(ds.n_queries, 0.5, seed=11)
model = fit_model(ds, cal)

# %% [markdown]
# ## Unanswerable cells are flagged, not faked
#
# A query observed only on modality 'a' cannot say anything about a
# reference that lost its 'a' embedding. Those references sort to the tail
# with probability 0 and the flag set.

# %%
only_a = next(int(q) for q in test
              if ds.query_mask[q, 0] and not ds.query_mask[q, 1])
result = retrieve(model, ds, only_a)
flagged = [ref for ref, _, una in result.ranked if una]
print(f"query {only_a} sees modality 'a' only; "
      f"{len(flagged)} references unanswerable: {flagged[:8]}...")

# %% [markdown]
# ## Calibrated fusion vs first-available-pair heuristic

# %%
ours = batch_retrieve(model, ds, query_ids=test, k=5)
baseline = heuristic_baseline(ds, [("a", "a"), ("b", "b")],
                              query_ids=test, k=5)
for name, results in (("calibrated", ours), ("heuristic", baseline)):
    report = ranking_metrics(results, ds.relevance, ks=(1, 5))
    print(f"{name:11s} recall@1 {report.recall_at[1]:.3f}  "
          f"recall@5 {report.recall_at[5]:.3f}  "
          f"map@5 {report.map_at[5]:.3f}")

# %% [markdown]
# The heuristic ranks a quarter of the references by the weak pair's raw
# scores, which sit numerically below every strong-pair score, so true
# matches that lost their strong modality get buried. The calibrated
# probabilities put both pairs on the same footing.
