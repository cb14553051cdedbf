"""Achievable-rate bounds for the on-off channel with impulsive interference.

Lower bound (random coding + threshold decoding), as the paper states it: a
codebook of rate C_R survives the union + Markov bound when
2^{C_R N} sum_d P(d) p(d) / theta < 1, giving

    C_l = -(1/N) log2( sum_{d=0}^N P(||v-w|| = d) p(d) / theta ),

with theta = p(0) the self-overlap of the marginalized output law and p(d)
the expected overlap between codewords at Hamming distance d, averaged over
interferer codewords. N C_l is thus H_2(Y) - H~_2(Y|V), order-2 Renyi
entropies, which can exceed I(V;Y) (README, Testing). `lower_bound`
estimates every one of these in one pass, with one rank-1 kernel call per
block of draws for all d at once: its profile carries ln p(d) for
d = 0..N (ln theta is the d = 0 entry), ln P(d) and the log of the sum.
With h1_mode "fixed-draw" both bounds condition on one channel,
`scenario.channel()`: its h1, or the draw keyed by its seed. With "averaged"
the lower bound draws no channel: each draw's overlaps are averaged over
h_1 ~ N(0, T) in closed form, so only the interferer symbols are sampled.
Upper bound (genie): mutual information of the single on-off symbol through
the white channel when all interferer symbols are revealed, so it depends on
no interferer parameter; in averaged mode it samples h_1 per draw.

Both estimators take the scenario alone and draw their samples in blocks of
BLOCK; block b draws from the counter-based substream keyed by
(scenario.seed, estimator, b), with the estimator ids of `mc`, in a fixed
order inside the block. Results are therefore a pure function of the
scenario. Without h1, its seed keys the fixed-draw channel too: to vary only
the sampling, set h1 first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import log_gauss_lowrank, log_gauss_lowrank_marginal
from .mc import (PAIR_OVERLAP, UPPER_INFO, Z95, LogAccumulator, log_sums, logsumexp,
                 normal_qq_corr, substream)
from .model import ScenarioConfig, sample_channel, sample_symbols

LN2 = float(np.log(2.0))

BLOCK = 512


def _block_streams(seed: int, estimator: int, total: int):
    """(generator, block size) for each block of `total` samples, in order."""
    for b, start in enumerate(range(0, total, BLOCK)):
        yield substream(seed, estimator, index=b), min(BLOCK, total - start)


def log_distance_probs(N: int, eta1: float) -> np.ndarray:
    """ln P(d), d = 0..N, for the Hamming distance between two iid
    Bernoulli(eta1) codewords:
    P(d) = C(N,d) (2 eta (1-eta))^d (eta^2 + (1-eta)^2)^{N-d}."""
    d = np.arange(N + 1)
    flip = 2.0 * eta1 * (1.0 - eta1)      # per-symbol disagreement probability
    log_fact = np.array([math.lgamma(k + 1) for k in range(N + 1)])    # ln k!
    log_binom = log_fact[N] - log_fact - log_fact[::-1]
    return log_binom + d * np.log(flip) + (N - d) * np.log1p(-flip)


@dataclass(frozen=True)
class LowerBoundProfile:
    """Every quantity behind one lower-bound figure; all strata average the
    same interferer draws."""

    log_pd: np.ndarray          # ln p(d), d = 0..N; ln theta = log_pd[0]
    se_log_pd: np.ndarray
    log_distance_probs: np.ndarray   # ln P(d), d = 0..N
    log_sum: float              # ln sum_d P(d) p(d)/theta >= ln P(0), before the rate clamp
    se_log_sum: float           # delta-method standard error of log_sum
    qq_ratio: float             # normal quantile correlation of the ratio terms


@dataclass(frozen=True)
class BoundEstimate:
    """A rate bound in bits/symbol with its 95% confidence half-width."""

    rate: float
    ci_halfwidth: float
    samples_used: int
    kind: str                   # "lower" or "upper"
    profile: LowerBoundProfile | None = None


def lower_bound(scenario: ScenarioConfig) -> BoundEstimate:
    """C_l with a delta-method 95% CI on the ratio estimate of its sum.

    Every sample draws the I-1 interferer rows of the first codeword and
    those of the second, and gives ln J_d for all d = 0..N, so the strata
    share samples_theta + N samples_pd draws: the kernel gets the difference
    column A_1 h, and the mean difference of stratum d is its prefix
    A_1 h 1_d^T, codewords that differ in the first d symbols. In averaged
    mode, J_d is replaced by its exact expectation over
    h ~ N(0, T), which leaves J_0 unchanged. With T = ln sum_d P(d) J_d and
    D = ln J_0 per sample, the sum
    is mean(e^T) / mean(e^D), and the variance of its log is var(a - b) / S
    for a, b the samples scaled to unit mean.
    """
    h1 = scenario.channel()
    n_sym = scenario.codeword_len
    log_probs = log_distance_probs(n_sym, scenario.duty_cycles[0])
    amplitudes = scenario.amplitudes()
    tap_var = scenario.tap_covariance()[None]
    noise_var = 2.0 * scenario.noise_var_w
    nodes = np.tile(np.arange(1, scenario.num_nodes), 2)
    etas = np.array(scenario.duty_cycles)[nodes]
    total = scenario.samples_theta + n_sym * scenario.samples_pd

    t_logs, d_logs = np.empty(total), np.empty(total)
    col_sum = col_sumsq = np.full(n_sym + 1, -np.inf)
    for b, (rng, size) in enumerate(_block_streams(scenario.seed, PAIR_OVERLAP, total)):
        rows = amplitudes[nodes, None] * sample_symbols(etas, n_sym, rng, size)
        if h1 is None:
            log_j = log_gauss_lowrank_marginal(amplitudes[0], noise_var, rows, tap_var)
        else:
            log_j = log_gauss_lowrank((amplitudes[0] * h1)[..., None], noise_var, rows,
                                      tap_var)
        block = slice(b * BLOCK, b * BLOCK + size)
        d_logs[block] = log_j[:, 0]
        t_logs[block] = logsumexp(log_probs + log_j, axis=1)
        block_sum, block_sumsq = log_sums(log_j, axis=0)
        col_sum = np.logaddexp(col_sum, block_sum)
        col_sumsq = np.logaddexp(col_sumsq, block_sumsq)

    acc_t = LogAccumulator.from_log_values(t_logs)
    acc_d = LogAccumulator.from_log_values(d_logs)
    terms = np.exp(t_logs - acc_t.log_mean) - np.exp(d_logs - acc_d.log_mean)
    # the d = 0 term alone is P(0) mean(J_0) / mean(J_0), so the sum is at
    # least P(0); rounding in the two log-means can put it a few ulps below
    log_sum = max(acc_t.log_mean - acc_d.log_mean, float(log_probs[0]))
    se_log_sum = float(np.sqrt(terms.var(ddof=1) / total))
    strata = LogAccumulator(total, col_sum, col_sumsq)
    profile = LowerBoundProfile(
        log_pd=strata.log_mean, se_log_pd=strata.se_log_mean, log_distance_probs=log_probs,
        log_sum=log_sum, se_log_sum=se_log_sum, qq_ratio=normal_qq_corr(terms))
    return BoundEstimate(rate=max(0.0, -log_sum / (n_sym * LN2)),
                         ci_halfwidth=Z95 * se_log_sum / (n_sym * LN2),
                         samples_used=total, kind="lower", profile=profile)


def upper_bound(scenario: ScenarioConfig) -> BoundEstimate:
    """Genie-aided mutual information I(u_1; R | h_1, interferer symbols).

    Reads no interferer parameter at all: with the interference revealed and
    subtracted, only the white channel r = u A_1 h_1 + z remains. A block
    draws its channels (if averaged), then its symbols u, then its noise z;
    each sample scores -log2 sum_v P(v) e^{E(v)} in bits, with E the
    log-likelihood ratio of symbol v against the drawn u. E(u) = 0, so only
    the flipped symbol needs evaluating. Its 95% CI is Z95 standard errors.
    """
    h1 = scenario.channel()
    eta = scenario.duty_cycles[0]
    s2 = scenario.noise_var_w
    a1 = scenario.amplitudes()[0]
    tap_var = scenario.tap_covariance()
    n = scenario.samples_upper
    samples = np.empty(n)
    for b, (rng, size) in enumerate(_block_streams(scenario.seed, UPPER_INFO, n)):
        h = sample_channel(tap_var, rng, size) if h1 is None else h1
        u = rng.random(size) < eta
        z = np.sqrt(s2) * rng.standard_normal((size, scenario.taps))
        delta = np.where(u, -a1, a1)
        e_flip = (delta * (z * h).sum(axis=1)
                  - 0.5 * delta * delta * (h * h).sum(axis=-1)) / s2
        log_p_u = np.where(u, np.log(eta), np.log1p(-eta))
        log_p_flip = np.where(u, np.log1p(-eta), np.log(eta))
        samples[b * BLOCK:b * BLOCK + size] = -np.logaddexp(log_p_u, log_p_flip + e_flip) / LN2
    halfwidth = Z95 * math.sqrt(float(samples.var(ddof=1)) / n)
    return BoundEstimate(rate=max(0.0, float(samples.mean())), ci_halfwidth=halfwidth,
                         samples_used=n, kind="upper")

