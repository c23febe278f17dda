# %% [markdown]
# # Calibration basics
#
# A prediction band is fitted on (raw score, 0/1 label) pairs. It remembers
# the raw score range and the sorted nonconformity scores, and everything
# else (set predictions, calibrated probabilities) is derived from those.

# %%
import numpy as np

from conformal_retrieval.conformal import (
    band_set,
    conformal_probability,
    fit_band_arrays,
)

rng = np.random.default_rng(0)

# synthetic scores: relevant pairs score high, irrelevant ones low, with
# heavy overlap so the calibration problem is not trivial
m = 2000
y = (rng.random(m) < 0.3).astype(int)
theta = np.where(y == 1, rng.normal(0.7, 0.15, m), rng.normal(0.4, 0.15, m))

band = fit_band_arrays(theta, y)
print(f"raw score range [{band.theta_min:.3f}, {band.theta_max:.3f}], "
      f"m = {band.sorted_gamma.size}")

# %% [markdown]
# ## Set-valued predictions
#
# At miscoverage level epsilon the band answers with a subset of {0, 1}.
# Small epsilon gives wide (safe) sets, large epsilon gives sharp ones.

# %%
for raw in (0.2, 0.5, 0.8):
    sets = {eps: sorted(band_set(band, raw, eps)) for eps in (0.05, 0.3, 0.6)}
    print(f"raw score {raw:.1f}: " + "  ".join(
        f"eps={eps} -> {s}" for eps, s in sets.items()))

# %% [markdown]
# ## Coverage
#
# The construction guarantees that fresh pairs from the same distribution
# land inside their prediction set with frequency at least 1 - epsilon.

# %%
y_new = (rng.random(5000) < 0.3).astype(int)
theta_new = np.where(y_new == 1, rng.normal(0.7, 0.15, 5000),
                     rng.normal(0.4, 0.15, 5000))
for eps in (0.05, 0.1, 0.2):
    covered = sum(1 for t, label in zip(theta_new, y_new)
                  if label in band_set(band, t, eps))
    print(f"eps = {eps:4}: empirical coverage {covered / 5000:.3f} "
          f"(target >= {1 - eps:.2f})")

# %% [markdown]
# ## From sets to a single probability
#
# The calibrated probability is one minus the smallest epsilon at which the
# prediction set collapses to {1}. It is a count of calibration
# nonconformity scores, so it is a step function of the raw score. For
# normalized scores above one half (where a {1}-only set is reachable at
# all) sweeping epsilon upward until band_set returns {1} lands on the same
# value, up to the grid step.

# %%
eps_grid = np.linspace(0.0, 1.0, 2001)
for raw in (0.65, 0.75, 0.85, 0.95):
    fast = conformal_probability(band, raw)
    first = next((eps for eps in eps_grid if band_set(band, raw, eps) == {1}), 1.0)
    print(f"raw {raw:.2f}: calibrated probability {fast:.4f} "
          f"(grid sweep {1.0 - first:.4f})")

# %%
# probabilities are invariant under affine rescaling of the raw scores
band_scaled = fit_band_arrays(3.0 * theta + 0.1, y)
probe = rng.uniform(0.2, 0.9, 1000)
diff = np.abs(conformal_probability(band, probe)
              - conformal_probability(band_scaled, 3.0 * probe + 0.1))
print(f"max probability change under theta -> 3*theta + 0.1: {diff.max():.2e}")
