"""Reference implementations the Tier-1 tests check the package against.

The dense output law (explicit (MN, MN) covariance, densities through
scipy.stats), the pairwise overlap J(V, W, h_1) with its dense twin, and a
brute-force oracle for J (the product integral of two white Gaussians in
closed form, averaged over the interferer channels by Gauss-Hermite node
pairs or by sampled pairs) live here rather than in the package: the
estimators never call them, and the dense densities need scipy, which the
package does not depend on. They take the tap covariance T
as a plain (M, M) symmetric PSD matrix, so every check also runs against a
T that is not diagonal, although the package only builds T = diag(t).
`exact_prefix_quad` is the kernel's quadratic form in exact rational
arithmetic, for capacitances too ill-conditioned for the dense densities'
float64. `overlap_log_samples` draws ln J at any placement of the codeword
difference, `genie_information` is the exact genie bound of one fixed
channel, `genie_upper_direct` is the genie estimator written plainly, and
`read_result_csv` parses the CSV that `uwbbounds run` writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from uwbbounds.bounds import BLOCK, LN2, BoundEstimate
from uwbbounds.cli import ResultRow
from uwbbounds.gaussian import LOG_2PI, log_gauss_lowrank
from uwbbounds.mc import UPPER_INFO, Z95, LogAccumulator, substream
from uwbbounds.model import InvalidParameterError, sample_channel


def _vec(matrix: np.ndarray) -> np.ndarray:
    # column stacking of the last two axes: coordinate n*M + m is row m of column n
    m = np.asarray(matrix)
    return np.swapaxes(m, -1, -2).reshape(m.shape[:-2] + (-1,))


def tap_eigenbasis(T) -> tuple[np.ndarray, np.ndarray]:
    """(t, V) with T = V diag(t) V^T: t the eigenvalues, clipped at 0, as the
    (1, M) row of tap variances the package's kernels take."""
    w, v = np.linalg.eigh(np.asarray(T, dtype=float))
    return np.maximum(w, 0.0)[None], v


def tap_factor(T) -> np.ndarray:
    """G with G G^T = T, shape (M, r), r = rank, for a symmetric PSD T."""
    (t,), v = tap_eigenbasis(T)
    keep = t > t.max(initial=0.0) * 1e-12
    return v[:, keep] * np.sqrt(t[keep])


def log_gauss_general(x, noise_var: float, rows, T) -> np.ndarray:
    """log_gauss_lowrank under a general tap covariance T. The density is
    invariant under I kron V^T, so the kernel's diagonal form holds at V^T x
    in T's eigenbasis."""
    t, v = tap_eigenbasis(T)
    return log_gauss_lowrank(v.T @ np.asarray(x, dtype=float), noise_var, rows, t)


def exact_prefix_quad(rows, t, noise_var: float, h, d: int) -> float:
    """vec(X)^T Sigma^{-1} vec(X) for X = h 1_d^T under the kernel's law with
    rows C (J, N) and tap variances t (M,), in exact rational arithmetic:
    every float input is a dyadic fraction. Per tap, Woodbury gives
    1_d^T (s I + t_a C^T C)^{-1} 1_d = (d - p^T (s / t_a I + C C^T)^{-1} p) / s
    for s = noise_var and p = C 1_d, and Gaussian elimination over fractions
    solves the J x J system, so no rounding depends on its condition number."""
    c = [[Fraction(v) for v in row] for row in np.asarray(rows, dtype=float)]
    size, floor = len(c), Fraction(noise_var)
    p = [sum(row[:d], Fraction(0)) for row in c]
    gram = [[sum(a * b for a, b in zip(ci, cj)) for cj in c] for ci in c]
    total = Fraction(0)
    for t_a, h_a in zip(np.asarray(t, dtype=float), np.asarray(h, dtype=float)):
        shift = floor / Fraction(t_a)
        aug = [[gram[i][j] + (shift if i == j else 0) for j in range(size)] + [p[i]]
               for i in range(size)]
        for k in range(size):
            for i in range(k + 1, size):
                ratio = aug[i][k] / aug[k][k]
                aug[i] = [a - ratio * b for a, b in zip(aug[i], aug[k])]
        y = [Fraction(0)] * size
        for i in reversed(range(size)):
            y[i] = (aug[i][size] - sum(aug[i][j] * y[j] for j in range(i + 1, size))) / aug[i][i]
        total += Fraction(h_a) ** 2 * (d - sum(a * b for a, b in zip(p, y))) / floor
    return float(total)


@dataclass(frozen=True)
class OutputDistribution:
    """Gaussian law of the received M x N block, interferers marginalized."""

    mean_matrix: np.ndarray    # (M, N), column n is the mean of r[n]
    noise_var: float           # white floor on every coordinate
    scaled_rows: np.ndarray    # (J, N), row j is A_i v_i for marginalized node i
    tap_factor: np.ndarray     # (M, r) with G G^T = T

    @property
    def shape(self) -> tuple[int, int]:
        return self.mean_matrix.shape

    @property
    def mean(self) -> np.ndarray:
        return _vec(self.mean_matrix)

    def dense_covariance(self) -> np.ndarray:
        """Explicit (MN, MN) covariance; reference path for small instances."""
        m, n = self.shape
        t = self.tap_factor @ self.tap_factor.T
        cov = self.noise_var * np.eye(m * n)
        for c in self.scaled_rows:
            cov += np.kron(np.outer(c, c), t)
        return cov


def output_moments(V, h1, A, T, sigma_W2: float) -> OutputDistribution:
    """Moments of P(Y | V, h_1) with the interferer channels integrated out."""
    u = np.asarray(V, dtype=float)
    a = np.asarray(A, dtype=float)
    return OutputDistribution(
        mean_matrix=a[0] * np.outer(np.asarray(h1, dtype=float), u[0]),
        noise_var=float(sigma_W2),
        scaled_rows=a[1:, None] * u[1:],
        tap_factor=tap_factor(T),
    )


def log_density_dense(dist: OutputDistribution, Y):
    """Same density through an explicit covariance; O((MN)^3) reference.
    Y is one (M, N) observation, a float back, or a stack (K, M, N), (K,) back."""
    y = np.asarray(Y, dtype=float)
    from scipy import stats     # reference path only; kept off the import path
    law = stats.multivariate_normal(mean=dist.mean, cov=dist.dense_covariance())
    logp = law.logpdf(_vec(y))
    return float(logp) if y.ndim == 2 else np.reshape(logp, y.shape[:-2])


def _overlap_parts(V, W, h1, A, T, sigma_W2):
    return output_moments(V, h1, A, T, sigma_W2), output_moments(W, h1, A, T, sigma_W2)


def overlap_J(V, W, h1, A, T, sigma_W2: float) -> float:
    """ln J(V, W, h_1) = ln int P(Y|V,h_1) P(Y|W,h_1) dY.

    The product integral of two Gaussians is the density of the mean
    difference A_1 h_1 (v_1 - w_1)^T under the summed covariance: white floor
    2 sigma_W^2 and the scaled symbol rows of both codeword matrices. Rows are
    put in canonical order, then folded so the difference is a column prefix:
    the d symbols where v_1 != w_1 move first, in order, and their columns
    take the sign of v_1 - w_1. Swapping V and W negates those columns, which
    leaves the kernel's gram and squared prefix sums bit for bit unchanged.
    The kernel takes the difference column in T's eigenbasis.
    """
    dv, dw = _overlap_parts(V, W, h1, A, T, sigma_W2)
    rows = np.vstack([dv.scaled_rows, dw.scaled_rows])
    if rows.shape[0] > 1:
        rows = rows[np.lexsort(rows.T[::-1])]
    diff = np.asarray(V, dtype=float)[0] - np.asarray(W, dtype=float)[0]
    order = np.argsort(diff == 0.0, kind="stable")
    rows = rows[:, order] * np.where(diff[order] < 0.0, -1.0, 1.0)
    x = float(np.asarray(A, dtype=float)[0]) * np.asarray(h1, dtype=float)[:, None]
    return float(log_gauss_general(x, dv.noise_var + dw.noise_var, rows[None],
                                   T)[0, np.count_nonzero(diff)])


def overlap_J_dense(V, W, h1, A, T, sigma_W2: float) -> float:
    """Dense-covariance reference for overlap_J."""
    dv, dw = _overlap_parts(V, W, h1, A, T, sigma_W2)
    cov = dv.dense_covariance() + dw.dense_covariance()
    from scipy import stats     # reference path only; kept off the import path
    return float(stats.multivariate_normal(mean=np.zeros(cov.shape[0]),
                                           cov=cov).logpdf(dv.mean - dw.mean))


# ---------------------------------------------------------------------------
# brute-force oracle
#
# Everything below deliberately avoids the rank-update code path: given the
# interferer channels each output law is a plain white-noise Gaussian, and
# the channels are integrated out numerically (Gauss-Hermite nodes or plain
# sampling).


@dataclass(frozen=True)
class OracleEstimate:
    log_value: float
    se_log: float       # relative standard error; 0 for the deterministic rule
    mode: str           # "quadrature" or "mc"

    @property
    def value(self) -> float:
        return float(np.exp(self.log_value))


def _gh_rule(dims: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensorized Gauss-Hermite rule for E[g(zeta)], zeta ~ N(0, I_dims).

    Returns nodes (Q, dims) and log-weights (Q,); weights sum to 1.
    """
    if dims == 0:
        return np.zeros((1, 0)), np.zeros(1)
    t, w = np.polynomial.hermite.hermgauss(order)
    pts = np.sqrt(2.0) * t
    logw = np.log(w) - 0.5 * np.log(np.pi)
    grids = np.meshgrid(*([pts] * dims), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    return nodes, sum(np.meshgrid(*([logw] * dims), indexing="ij")).ravel()


def _node_means(mean_vec, rows, factor, zeta):
    """Mean of vec(Y) for each channel draw zeta (Q, J, r) -> (Q, D)."""
    # vec(G zeta_q^T C) = kron(C, G^T)^T vec(zeta_q^T): one matrix product for all draws
    return mean_vec + zeta.reshape(len(zeta), -1) @ np.kron(rows, factor.T)


def log_white_overlap(mu_v, mu_w, s_v: float, s_w: float) -> np.ndarray:
    """ln int N(y; mu_v, s_v I) N(y; mu_w, s_w I) dy over the last axis: the
    density of mu_v - mu_w under N(0, (s_v + s_w) I). The leading axes
    broadcast; the squared distance is summed one coordinate at a time, so
    no array carries the coordinate axis and the broadcast axes at once."""
    cv, cw = (np.moveaxis(np.asarray(mu, dtype=float), -1, 0) for mu in (mu_v, mu_w))
    s = s_v + s_w
    sq = sum((a - b) ** 2 for a, b in zip(cv, cw))
    return -sq / (2.0 * s) - 0.5 * len(cv) * (LOG_2PI + np.log(s))


def oracle_J(V, W, h1, A, T, sigma_W2: float, *, mode: str = "auto",
             rng: np.random.Generator | None = None) -> OracleEstimate:
    """Brute-force estimate of J(V, W, h_1) for validating overlap_J.

    Given the interferer channels, P(Y|V) and P(Y|W) are white Gaussians, so
    the output integral of their product is log_white_overlap at the two
    channel-node means and needs no output grid; what is left is the mean of
    that closed form over independent channels for V and for W. Quadrature
    mode takes every pair of Gauss-Hermite nodes, order 64, or 32 per axis
    for two channel dimensions; it needs (I-1) rank(T) <= 2. Monte-Carlo
    mode averages 2^16 independent pairs of channel draws, one per codeword,
    and reports its own standard error. Both modes are accurate only at
    moderate signal-to-noise scales; the closed form is scale covariant, so
    validating here covers the physical regime too.
    """
    dv, dw = _overlap_parts(V, W, h1, A, T, sigma_W2)
    j, r = dv.scaled_rows.shape[0], dv.tap_factor.shape[1]
    if mode == "auto":
        mode = "quadrature" if j * r <= 2 else "mc"
    if mode == "quadrature":
        # scipy's reduction, not the package's: the oracle shares no code with what it checks
        from scipy.special import logsumexp
        if j * r > 2:
            raise InvalidParameterError(
                f"quadrature oracle needs (I-1) rank(T) <= 2, got {j * r}")
        nodes, lw = _gh_rule(j * r, 64 if j * r <= 1 else 32)
        zeta = nodes.reshape(len(nodes), j, r)
        mu_v, mu_w = (_node_means(d.mean, d.scaled_rows, d.tap_factor, zeta) for d in (dv, dw))
        pairs = log_white_overlap(mu_v[:, None], mu_w[None], dv.noise_var, dw.noise_var)
        return OracleEstimate(float(logsumexp((lw[:, None] + lw[None] + pairs).ravel())),
                              0.0, "quadrature")
    if rng is None:
        rng = np.random.default_rng(0)
    zeta = rng.standard_normal((2, 2 ** 16, j, r))
    acc = LogAccumulator.from_log_values(log_white_overlap(
        _node_means(dv.mean, dv.scaled_rows, dv.tap_factor, zeta[0]),
        _node_means(dw.mean, dw.scaled_rows, dw.tap_factor, zeta[1]),
        dv.noise_var, dw.noise_var))
    return OracleEstimate(acc.log_mean, acc.se_log_mean, "mc")


# ---------------------------------------------------------------------------
# placement samples and the exact genie information


def overlap_log_samples(cfg, h1, diff, budget, rng):
    """ln J samples with the transmitter codewords differing on an arbitrary
    symbol set; interferer rows drawn iid as in the stratum estimator, two
    per interferer, each with that node's amplitude and duty cycle."""
    amps = cfg.amplitudes()
    nodes = np.tile(np.arange(1, cfg.num_nodes), 2)
    etas = np.array(cfg.duty_cycles)[nodes]
    rows = amps[nodes, None] * (rng.random((budget, len(nodes), cfg.codeword_len))
                                < etas[:, None])
    # the placed symbols move first, so the difference is a column prefix
    rows = rows[..., np.argsort(diff == 0.0, kind="stable")]
    x = amps[0] * np.asarray(h1)[:, None]
    return log_gauss_lowrank(x, 2.0 * cfg.noise_var_w, rows,
                             cfg.tap_covariance()[None])[..., np.count_nonzero(diff)]


def genie_information(eta: float, snr: float) -> float:
    """I(u; u snr + n) in bits for u ~ Bernoulli(eta) and n ~ N(0, 1), by
    Gauss-Hermite quadrature of order 200 over n. With h_1 fixed and the
    interferer symbols revealed, the white link projects onto h_1, so this is
    the exact C_u at snr = A_1 |h_1| / sigma."""
    nodes, weights = np.polynomial.hermite.hermgauss(200)
    n = np.sqrt(2.0) * nodes
    log_eta, log_off = np.log(eta), np.log1p(-eta)
    # -log2 sum_v P(v) p(y|v) / p(y|u), for u = 1 and u = 0
    on = -np.logaddexp(log_eta, log_off - snr * n - 0.5 * snr * snr)
    off = -np.logaddexp(log_off, log_eta + snr * n - 0.5 * snr * snr)
    mean = weights @ (eta * on + (1.0 - eta) * off) / np.sqrt(np.pi)
    return float(mean / np.log(2.0))


def genie_upper_direct(scenario) -> BoundEstimate:
    """upper_bound's Monte Carlo estimate written plainly: a new substream
    per block, the tap sums as (z * h).sum(axis=1) and every per-row
    constant recomputed in each block. For taps < 8 the package must match
    it bit for bit, above that within the rounding of numpy's pairwise sum."""
    h1 = scenario.channel()
    eta = scenario.duty_cycles[0]
    s2 = scenario.noise_var_w
    a1 = scenario.amplitudes()[0]
    tap_var = scenario.tap_covariance()
    n = scenario.samples_upper
    samples = np.empty(n)
    for b, start in enumerate(range(0, n, BLOCK)):
        rng = substream(scenario.seed, UPPER_INFO, index=b)
        block = slice(start, min(start + BLOCK, n))
        size = block.stop - block.start
        h = sample_channel(tap_var, rng, size) if h1 is None else h1
        u = rng.random(size) < eta
        z = np.sqrt(s2) * rng.standard_normal((size, scenario.taps))
        delta = np.where(u, -a1, a1)
        e_flip = (delta * (z * h).sum(axis=1)
                  - 0.5 * delta * delta * (h * h).sum(axis=-1)) / s2
        log_p_u = np.where(u, np.log(eta), np.log1p(-eta))
        log_p_flip = np.where(u, np.log1p(-eta), np.log(eta))
        samples[block] = -np.logaddexp(log_p_u, log_p_flip + e_flip) / LN2
    halfwidth = Z95 * np.sqrt(float(samples.var(ddof=1)) / n)
    return BoundEstimate(rate=max(0.0, float(samples.mean())), ci_halfwidth=float(halfwidth),
                         samples_used=n)


# ---------------------------------------------------------------------------
# result CSV


def read_result_csv(path) -> list[ResultRow]:
    lines = Path(path).read_text().splitlines()
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        assert parts[9] == "0.0", f"wall_s must be 0.0, got {parts[9]!r}"
        rows.append(ResultRow(
            l_m=float(parts[0]), d_m=float(parts[1]) if parts[1] else None,
            eta1=float(parts[2]), eta2=float(parts[3]) if parts[3] else None,
            bound=parts[4], rate_bits_per_symbol=float(parts[5]),
            ci_halfwidth=float(parts[6]), samples=int(parts[7]),
            seed=int(parts[8])))
    return rows
