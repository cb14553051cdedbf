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
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, estimator], dtype=np.uint64)))
    restart(rng, seed, estimator, index)
    return rng


def restart(rng: np.random.Generator, seed: int, estimator: int, index: int) -> None:
    """Put `rng`, a substream of (seed, estimator), in the exact state that
    substream(seed, estimator, index) starts in, whatever it has drawn: the
    block counter, an empty 4-word buffer and no stored 32-bit half. It costs
    a state write, where a new substream costs a SeedSequence of OS entropy
    that the key then discards."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, index, 0, 0), "key": (seed, estimator)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def log_sums(a, axis=None):
    """(ln sum e^a, ln sum e^{2a}) along `axis` (all of `a` if None) from one
    exp: exp(a - m) is summed, squared in place and summed again. m is the
    maximum of each slice, or 0 where that maximum is -inf, +inf or NaN (so an
    all -inf slice sums to 0, and +inf or NaN carry through the sums)."""
    peak = np.max(a, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    buf = np.subtract(a, peak, out=np.empty(a.shape))
    with np.errstate(over="ignore"):    # only where the slice holds +inf or NaN
        np.exp(buf, out=buf)
    shift = np.squeeze(peak, axis=axis)
    total = buf.sum(axis=axis)
    total_sq = np.square(buf, out=buf).sum(axis=axis)
    with np.errstate(divide="ignore"):  # an all -inf slice: ln 0 = -inf
        return np.log(total) + shift, np.log(total_sq) + 2.0 * shift


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
    medians = (np.arange(1, n + 1) - 0.3175) / (n + 0.365)
    medians[-1] = 0.5 ** (1.0 / n)
    medians[0] = 1.0 - medians[-1]
    from statistics import NormalDist   # on first use: `uwbbounds run` never imports it
    quantiles = np.fromiter(map(NormalDist().inv_cdf, medians.tolist()), float, n)
    return float(np.corrcoef(quantiles, x)[0, 1])
