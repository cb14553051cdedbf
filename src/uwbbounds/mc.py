"""Monte-Carlo plumbing: counter-based substreams, log-domain accumulation, CIs.

Every substream is keyed by (seed, estimator), with the estimator ids
defined here; its counter holds the block index. Sample magnitudes span
thousands of nats at physical noise levels, so every mean and standard
error here is carried as log(sum x) and log(sum x^2); nothing is ever
exponentiated on the absolute scale. These are the estimators' internals:
they take the float arrays `bounds` passes and convert nothing.

Both bounds' 95% CIs are Z95 times a standard error, and the QQ statistic's
normal quantiles come from `statistics.NormalDist.inv_cdf` (Wichura's AS
241): the module keeps only what numpy and the standard library lack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  numpy 2 loads it lazily; load it here, not in a row

Z95 = 1.959963984540054         # standard normal 0.975 quantile

# estimator ids of the substream key space
H1_DRAW, PAIR_OVERLAP, UPPER_INFO = 1, 2, 3


def substream(seed: int, estimator: int, index: int = 0) -> np.random.Generator:
    """Independent generator for block `index` of one estimator.

    The Philox key carries (seed, estimator); the initial counter carries the
    block index in its second word, leaving 2^64 draws of headroom per block
    before any two streams could touch.
    """
    key = np.array([seed, estimator], dtype=np.uint64)
    counter = np.array([0, index, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _shifted_exp(a, axis):
    """exp(a - m) in one fresh buffer, and m squeezed along `axis`: m is the
    maximum of each slice, or 0 where that maximum is -inf, +inf or NaN (so an
    all -inf slice sums to 0, and +inf or NaN carry through the sum)."""
    peak = np.max(a, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    buf = np.subtract(a, peak, out=np.empty(a.shape))
    with np.errstate(over="ignore"):    # only where the slice holds +inf or NaN
        np.exp(buf, out=buf)
    return buf, np.squeeze(peak, axis=axis)


def _log_sum(buf, shift, axis):
    with np.errstate(divide="ignore"):  # an all -inf slice: ln 0 = -inf
        return np.log(buf.sum(axis=axis)) + shift


def logsumexp(a, axis=None):
    """ln sum exp(a) along `axis` (all of `a` if None), by a max shift."""
    buf, shift = _shifted_exp(a, axis)
    return _log_sum(buf, shift, axis)


def log_sums(a, axis=None):
    """(ln sum e^a, ln sum e^{2a}) along `axis` from one exp: the shifted
    exponentials are summed, squared in place and summed again."""
    buf, shift = _shifted_exp(a, axis)
    log_sum = _log_sum(buf, shift, axis)
    np.square(buf, out=buf)
    return log_sum, _log_sum(buf, 2.0 * shift, axis)


@dataclass(frozen=True)
class LogAccumulator:
    """Moments of `count` positive samples supplied as logs: log(sum x) and
    log(sum x^2) give the linear-scale mean and its standard error. The sums
    are floats, or arrays of per-column sums (every column has `count` rows)."""

    count: int
    log_sum: float | np.ndarray
    log_sumsq: float | np.ndarray

    @classmethod
    def from_log_values(cls, log_values: np.ndarray) -> "LogAccumulator":
        if log_values.size == 0:
            raise ValueError("need at least one sample")
        if not np.all(np.isfinite(log_values)):
            raise ValueError("log samples must be finite")
        log_sum, log_sumsq = log_sums(log_values)
        return cls(log_values.size, float(log_sum), float(log_sumsq))

    @property
    def log_mean(self) -> float | np.ndarray:
        return self.log_sum - math.log(self.count)

    @property
    def se_log_mean(self) -> float | np.ndarray:
        """Standard error of log(mean), delta method: sd(x)/(sqrt(n)*mean),
        which is sqrt(expm1(excess) / (n - 1)) for the log excess
        ln(n sum x^2 / (sum x)^2) >= 0; an excess within 4 ulps of the terms
        it is computed from is taken for rounding and gives 0."""
        if self.count < 2:
            raise ValueError("the standard error needs count >= 2")
        log_n = math.log(self.count)
        excess = self.log_sumsq - 2.0 * self.log_sum + log_n
        rounding = 4 * np.finfo(float).eps * (abs(self.log_sumsq) + 2 * abs(self.log_sum) + log_n)
        return np.sqrt(np.expm1(np.where(excess > rounding, excess, 0.0)) / (self.count - 1))


def normal_qq_corr(samples: np.ndarray) -> float:
    """Probability-plot correlation against normal quantiles (~1 if Gaussian).

    The quantiles are taken at Filliben's (1975) uniform order-statistic
    medians. Constant samples have no quantile spread; they are reported as
    1.0 since a degenerate distribution cannot fail a shape check.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 3:
        raise ValueError("need at least 3 samples")
    if x[-1] == x[0]:
        return 1.0
    return float(np.corrcoef(_filliben_quantiles(n), x)[0, 1])


@functools.lru_cache(maxsize=8)
def _filliben_quantiles(n: int) -> np.ndarray:
    """Normal quantiles at the n Filliben medians, read-only: every lower row
    of a sweep has the same n, so they are computed once per n."""
    medians = (np.arange(1, n + 1) - 0.3175) / (n + 0.365)
    medians[-1] = 0.5 ** (1.0 / n)
    medians[0] = 1.0 - medians[-1]
    from statistics import NormalDist   # on first use: upper-only runs skip its ~6 ms import
    quantiles = np.fromiter(map(NormalDist().inv_cdf, medians.tolist()), float, n)
    quantiles.flags.writeable = False
    return quantiles
