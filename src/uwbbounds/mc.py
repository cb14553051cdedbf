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
from scipy.special import ndtri, stdtrit

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


def _shifted_exp(a, axis):
    """exp(a - m) in one fresh buffer, and m squeezed along `axis`: m is the
    maximum of each slice, or 0 where that maximum is -inf, +inf or NaN (so an
    all -inf slice sums to 0, and +inf or NaN carry through the sum)."""
    a = np.asarray(a, dtype=float)
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
        log_sum, log_sumsq = log_sums(a)
        return cls(int(a.size), float(log_sum), float(log_sumsq))

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
