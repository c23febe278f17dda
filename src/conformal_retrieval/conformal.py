'''Split-conformal prediction bands over scalar scores with binary labels.

A band is fitted once on labeled calibration scores and then reused: it
min-max normalizes a raw score into [0, 1], measures nonconformity as the
absolute residual against a binary label, and converts fresh scores into
set-valued predictions or a scalar confidence in (roughly) [0, 1].

The confidence counts the nonconformity scores below a normalized score.
The count is exact, bit-equal to a binary search over the band. Each band
builds an int32 bucket table on its first lookup, which narrows every
count to one bucket; a fixed number of branch-free passes, the bit length
of the band's fullest bucket, resolves it there. On spread-out scores that
is a few passes whatever the band size; a band of equal scores needs
log2(m), as a binary search would.
'''

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "PredictionBand",
    "fit_band_arrays",
    "normalize_score",
    "band_set",
    "conformal_probability",
]


@dataclass(frozen=True)
class PredictionBand:
    '''Frozen calibration state for one score distribution.

    A valid band is accepted in one pass over its scores; only a band
    that fails it is checked again, to name what is wrong.

    Attributes:
        theta_min: Smallest raw score seen during calibration.
        theta_max: Largest raw score seen during calibration.
        sorted_gamma: Ascending nonconformity scores, all inside [0, 1].
    '''

    theta_min: float
    theta_max: float
    sorted_gamma: np.ndarray

    def __post_init__(self):
        gamma = np.asarray(self.sorted_gamma, dtype=np.float64)
        object.__setattr__(self, "sorted_gamma", gamma)
        if gamma.ndim != 1 or gamma.size < 2:
            raise ValueError("a band needs at least 2 nonconformity scores")
        # one pass accepts a valid band: a NaN fails its neighbour
        # comparison, and once sorted, both ends inside [0, 1] hold every
        # score there. Neighbours are compared in place: np.diff's float
        # temporary can land 4 KiB-aliased with the band and slow
        # load_model by a third.
        if not ((gamma[1:] >= gamma[:-1]).all()
                and gamma[0] >= 0.0 and gamma[-1] <= 1.0):
            # name the failure; with every score finite and inside [0, 1],
            # only an unsorted neighbour pair is left
            if not np.isfinite(gamma).all():
                raise ValueError("nonconformity scores must be finite")
            if gamma.min() < 0.0 or gamma.max() > 1.0:
                raise ValueError("nonconformity scores must lie in [0, 1]")
            raise ValueError("nonconformity scores must be sorted ascending")
        if not (
            math.isfinite(self.theta_min)
            and math.isfinite(self.theta_max)
            and self.theta_min < self.theta_max
        ):
            raise ValueError("score range must be finite with theta_min < theta_max")

    @property
    def size(self) -> int:
        return int(self.sorted_gamma.size)

    @cached_property
    def _buckets(self):
        '''(start, passes), built on the first lookup, never at load.

        With B the power of two at or above m, start[b] counts the scores
        below b / B for b = 0 .. B + 1, as int32. Scaling by B is exact, so a
        normalized score t has floor(t * B) = b exactly when b / B <= t <
        (b + 1) / B, and its count lies in [start[b], start[b + 1]]. passes
        is the bit length of the fullest bucket, enough binary-lifting steps
        to cover any bucket.
        '''
        gamma = self.sorted_gamma
        scale = 1 << (gamma.size - 1).bit_length()
        per_bucket = np.bincount((gamma * scale).astype(np.intp),
                                 minlength=scale + 1)
        start = np.zeros(scale + 2, dtype=np.int32)
        np.cumsum(per_bucket, out=start[1:])
        return start, int(per_bucket.max()).bit_length()


def fit_band_arrays(theta, y) -> PredictionBand:
    '''Fit a prediction band on raw scores theta and parallel 0/1 labels y.

    Needs at least two finite scores, not all equal. The band keeps the
    score range and the sorted residuals |y - normalized theta|.
    '''
    theta = np.asarray(theta, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if theta.shape != y.shape or theta.ndim != 1 or theta.size < 2:
        raise ValueError("a band needs at least 2 calibration scores")
    if not np.isfinite(theta).all():
        raise ValueError("calibration scores must be finite")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    tmin, tmax = float(theta.min()), float(theta.max())
    if not tmin < tmax:
        raise ValueError("degenerate score range: all calibration scores equal")
    theta_tilde = (theta - tmin) / (tmax - tmin)
    gamma = np.abs(y - theta_tilde)
    gamma.sort()
    return PredictionBand(tmin, tmax, gamma)


def normalize_score(band: PredictionBand, theta):
    '''Min-max normalize a raw score into [0, 1], clamping outside the range.'''
    span = band.theta_max - band.theta_min
    out = np.clip((np.asarray(theta, dtype=np.float64) - band.theta_min) / span, 0.0, 1.0)
    return float(out) if np.ndim(theta) == 0 else out


def band_set(band: PredictionBand, theta, epsilon: float) -> set:
    '''Set-valued prediction at miscoverage level epsilon.

    The threshold is the ceil((m+1)(1-epsilon))-th smallest nonconformity
    score; an index past the end means an unbounded threshold (both labels),
    an index of zero or less means the empty set. NaN is refused.
    '''
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    theta_tilde = normalize_score(band, theta)
    if math.isnan(theta_tilde):
        raise ValueError("raw scores must not be NaN")
    m = band.size
    index = math.ceil((m + 1) * (1.0 - epsilon))
    if index <= 0:
        return set()
    alpha = math.inf if index > m else float(band.sorted_gamma[index - 1])
    return {label for label in (0, 1) if abs(label - theta_tilde) <= alpha}


def conformal_probability(band: PredictionBand, theta):
    '''Calibrated confidence that the label is 1 at the given raw score.

    Counts calibration nonconformity scores strictly below the normalized
    score and divides by m + 1. Monotone non-decreasing in theta, never
    reaching 1. Accepts scalars or arrays; NaN is refused.

    The count is exact and equals a left binary search over the sorted
    scores bit for bit. The band's bucket table narrows it to one bucket;
    binary lifting then adds each power-of-two step whose last score,
    gamma[count + step - 1], is still below t. Scores past the bucket are
    at least its upper edge, so they compare False with no per-cell bound.
    An index past the band clips to the last score, which overshoots only
    when every score is below t, and the final minimum maps that to m.
    '''
    t = np.atleast_1d(normalize_score(band, theta))
    if np.isnan(t).any():
        raise ValueError("raw scores must not be NaN")
    start, passes = band._buckets
    gamma = band.sorted_gamma
    count = start.take((t * (start.size - 2)).astype(np.intp)).astype(np.intp)
    # a step never exceeds the fullest bucket, so gamma[step - 1:] is never empty
    for shift in reversed(range(passes)):
        step = 1 << shift
        np.add(count, step, out=count,
               where=gamma[step - 1:].take(count, mode="clip") < t)
    out = np.minimum(count, gamma.size) / (gamma.size + 1)
    return float(out[0]) if np.ndim(theta) == 0 else out

