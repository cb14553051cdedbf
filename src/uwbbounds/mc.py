"""Monte-Carlo plumbing: counter-based substreams, log-domain accumulation, CIs.

Every substream is keyed by (seed, estimator); its counter holds the block
index. Sample magnitudes span thousands of nats at physical noise levels, so
every mean/variance here is carried as log(sum x) and log(sum x^2); nothing
is ever exponentiated on the absolute scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, ndtri, stdtrit

Z95 = 1.959963984540054         # standard normal 0.975 quantile


def substream(seed: int, estimator: int, index: int = 0) -> np.random.Generator:
    """Independent generator for block `index` of one estimator.

    The Philox key carries (seed, estimator); the initial counter carries the
    block index in its second word, leaving 2^64 draws of headroom per block
    before any two streams could touch.
    """
    key = np.array([seed, estimator], dtype=np.uint64)
    counter = np.array([0, index, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


@dataclass(frozen=True)
class LogAccumulator:
    """Moments of positive samples supplied as logs: log(sum x) and
    log(sum x^2) give the linear-scale mean and variance."""

    count: int
    log_sum: float
    log_sumsq: float

    @classmethod
    def from_log_values(cls, log_values: np.ndarray) -> "LogAccumulator":
        a = np.asarray(log_values, dtype=float)
        if a.size == 0:
            raise ValueError("need at least one sample")
        if not np.all(np.isfinite(a)):
            raise ValueError("log samples must be finite")
        return cls(int(a.size), float(logsumexp(a)), float(logsumexp(2.0 * a)))

    @property
    def log_mean(self) -> float:
        return self.log_sum - math.log(self.count)

    @property
    def log_variance(self) -> float:
        """log of the unbiased sample variance of x (can be -inf for constant
        samples; the subtraction is done in the log domain)."""
        if self.count < 2:
            raise ValueError("variance needs count >= 2")
        # sum x^2 - n*mean^2, as log_sumsq + log1p(-ratio)
        log_n_meansq = 2.0 * self.log_mean + math.log(self.count)
        ratio = math.exp(min(log_n_meansq - self.log_sumsq, 0.0))
        if ratio >= 1.0 - 1e-14:
            return -math.inf
        return self.log_sumsq + math.log1p(-ratio) - math.log(self.count - 1)

    @property
    def se_log_mean(self) -> float:
        """Standard error of log(mean), delta method: sd(x)/(sqrt(n)*mean)."""
        lv = self.log_variance
        if lv == -math.inf:
            return 0.0
        return math.exp(0.5 * lv - self.log_mean - 0.5 * math.log(self.count))


def gaussian_ci(variance: float, count: int) -> float:
    """95% Student-t halfwidth for the mean of `count` near-Gaussian samples
    with sample variance `variance`."""
    if count < 2:
        raise ValueError("need count >= 2")
    if variance < 0.0:
        raise ValueError("variance must be >= 0")
    return float(stdtrit(count - 1, 0.975) * math.sqrt(variance / count))


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
    medians = (np.arange(1, n + 1) - 0.3175) / (n + 0.365)
    medians[-1] = 0.5 ** (1.0 / n)
    medians[0] = 1.0 - medians[-1]
    return float(np.corrcoef(ndtri(medians), x)[0, 1])
