"""Marginalized output law and pairwise overlap integrals.

For fixed codewords and a fixed intended channel h_1, stacking the received
columns gives a Gaussian vector: each interferer channel h_i ~ N(0, T) is
constant over the codeword, so marginalizing it adds a rank-r block
A_i^2 (v_i v_i^T kron T) to the white noise floor,

    vec(Y) ~ N( A_1 (v_1 kron h_1),  sigma_W^2 I + sum_j c_j c_j^T kron G G^T )

with one scaled symbol row c_j = A_i v_i per marginalized node and T = G G^T.
The pair overlap J(V, W, h_1) = int P(Y|V,h_1) P(Y|W,h_1) dY is the Gaussian
product integral N(mu_V - mu_W; 0, Sigma_V + Sigma_W).

Direct densities underflow, so all densities are evaluated in natural-log
domain. At full scale the covariance is 400 x 400; its rank updates meet in
the (J r) x (J r) capacitance sigma_W^2 I + (C C^T kron G^T G), which the
eigenvectors U kron W of C C^T and G^T G diagonalise, so one J x J and one
r x r eigendecomposition give its determinant and inverse. Every mean
difference the bounds need is rank 1, a column x = A_1 h_1 times a symbol
pattern, and symbol signs fold into the rows. So one factorization per
instance gives the density at every column prefix x 1_d^T (the profile over
Hamming strata that the lower bound needs) from one running sum over the
symbols. When h_1 ~ N(0, T) is averaged over rather than fixed, the same
factorization gives that profile's exact expectation over h_1: in the tap
eigenbasis the quadratic form is a weighted sum of r independent chi-square
terms, whose Gaussian expectation is a product of (1 + q)^(-1/2) factors.
A dense path and two brute-force oracles (grid quadrature and nested Monte
Carlo, both built on the plain white-noise density) exist for validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mc import LogAccumulator, logsumexp
from .model import InvalidParameterError, TapCovariance

LOG_2PI = float(np.log(2.0 * np.pi))


def _vec(matrix: np.ndarray) -> np.ndarray:
    # column stacking: coordinate n*M + m is row m of column n
    return np.asarray(matrix).T.ravel()


def _as_codewords(U) -> np.ndarray:
    u = np.asarray(U, dtype=float)
    if u.ndim != 2:
        raise InvalidParameterError(f"codeword matrix must be 2-d, got shape {u.shape}")
    if not np.all((u == 0.0) | (u == 1.0)):
        raise InvalidParameterError("codeword entries must be 0 or 1")
    return u


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


def output_moments(V, h1, A, T: TapCovariance, sigma_W2: float) -> OutputDistribution:
    """Moments of P(Y | V, h_1) with the interferer channels integrated out."""
    u = _as_codewords(V)
    h = np.asarray(h1, dtype=float)
    a = np.asarray(A, dtype=float)
    num_nodes, n = u.shape
    if h.shape != (T.num_taps,):
        raise InvalidParameterError(f"h1 has shape {h.shape}, tap covariance is {T.num_taps}-dim")
    if a.shape != (num_nodes,):
        raise InvalidParameterError(f"need {num_nodes} amplitudes, got shape {a.shape}")
    if sigma_W2 <= 0.0:
        raise InvalidParameterError(f"sigma_W2 must be > 0, got {sigma_W2}")
    return OutputDistribution(
        mean_matrix=a[0] * np.outer(h, u[0]),
        noise_var=float(sigma_W2),
        scaled_rows=a[1:, None] * u[1:],
        tap_factor=T.factor,
    )


def _capacitance_prefix(noise_var: float, rows: np.ndarray, g: np.ndarray):
    """The factorization every prefix density shares, one per row stack C in
    rows (J, N) or (S, J, N). With C C^T = U diag(mu) U^T and
    G^T G = W diag(lam) W^T, U kron W diagonalises the capacitance
    noise_var I + (C C^T kron G^T G). Returns its eigenvalues
    eig = mu_k lam_a + noise_var as (S, J, r), lam, W, the projected prefix
    sums P = U^T cumsum(C) as (S, J, N) and the constant c (S, 1) with
    ln N(0; 0, Sigma) = -c / 2 for Sigma in (M N) dimensions."""
    rows = rows if rows.ndim == 3 else rows[None]
    mu, u = np.linalg.eigh(rows @ rows.transpose(0, 2, 1))
    lam, w = np.linalg.eigh(g.T @ g)
    eig = mu[:, :, None] * lam + noise_var
    prefix = u.transpose(0, 2, 1) @ np.cumsum(rows, axis=2)
    dim = g.shape[0] * rows.shape[2]
    const = (dim * LOG_2PI + (dim - eig[0].size) * np.log(noise_var)
             + np.log(eig).sum(axis=(1, 2))[:, None])
    return eig, lam, w, prefix, const


def _prefix_profile(const: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """-(c + quad_d) / 2 for d = 0..N, given quad_d for d = 1..N as (S, N);
    quad_0 = 0, so entry 0 is the density at zero."""
    full = np.zeros((quad.shape[0], quad.shape[1] + 1))
    full[:, 1:] = quad
    return -0.5 * (const + full)


def log_gauss_lowrank(x, noise_var: float, rows, tap_factor) -> np.ndarray:
    """log N(vec X_d; 0, noise_var I + sum_j c_j c_j^T kron G G^T), d = 0..N.

    x is the difference column, one (M, 1) or per-instance (S, M, 1), and
    X_d = x 1_d^T puts it in the first d of the N symbols, so entry 0 is the
    density at zero and entry N the density at x 1^T. rows holds the c_j as
    (J, N), or per-instance as (S, J, N). The result is (N + 1,) for one
    instance and (S, N + 1) for a batch. One capacitance factorization serves
    every prefix: in its eigenbasis, with beta = W^T G^T x, P = U^T cumsum(C)
    and weight_k = sum_a beta_a^2 / eig_ka,

        vec(X_d)^T Sigma^{-1} vec(X_d)
            = (d ||x||^2 - sum_k P_{kd}^2 weight_k) / noise_var,

    so cost is O(J^2 N + (J + M) r + J^3) per instance. Signs need no argument:
    for s in {+-1}^N, C diag(s) has the gram of C, so the density of
    vec(x (s * 1_d)^T) under rows C is that of vec(X_d) under C diag(s).
    """
    x = np.asarray(x, dtype=float)
    rows = np.asarray(rows, dtype=float)
    g = np.asarray(tap_factor, dtype=float)
    single = rows.ndim == 2 and x.ndim == 2
    x = x if x.ndim == 3 else x[None]
    eig, _, w, prefix, const = _capacitance_prefix(noise_var, rows, g)
    beta = x.transpose(0, 2, 1) @ (g @ w)                       # (S or 1, 1, r)
    weight = (beta * beta / eig).sum(axis=2)                    # (S, J)
    fit = (weight[:, None, :] @ (prefix * prefix))[:, 0]        # (S, N)
    quad = np.arange(1, prefix.shape[2] + 1) * (x * x).sum(axis=(1, 2))[:, None] - fit
    out = _prefix_profile(const, np.maximum(quad, 0.0) / noise_var)
    return out[0] if single else out


def log_gauss_lowrank_marginal(amplitude: float, noise_var: float, rows,
                               tap_factor) -> np.ndarray:
    """ln E_h N(vec(A h 1_d^T); 0, Sigma) over h ~ N(0, G G^T), d = 0..N.

    The profile of log_gauss_lowrank at x = A h with the column integrated
    out in closed form: it equals ln N(0; 0, Sigma + A^2 (1_d 1_d^T kron T)),
    T = G G^T. Write h = G W zeta, zeta ~ N(0, I_r). Then ||x||^2 =
    A^2 sum_a lam_a zeta_a^2 and beta_a = A lam_a zeta_a, so the quadratic
    form of prefix d is sum_a q_da zeta_a^2 with

        q_da = (A^2 lam_a / noise_var) (d - lam_a sum_k P_kd^2 / eig_ka) >= 0,

    and E exp(-q zeta^2 / 2) = (1 + q)^(-1/2) gives
    ln J_0 - sum_a log1p(q_da) / 2. rows is (J, N) or (S, J, N); the result
    is (S, N + 1), with entry 0 the density at zero as in log_gauss_lowrank.
    Cost is O(J^2 N + J r N + J^3) per instance.
    """
    rows = np.asarray(rows, dtype=float)
    g = np.asarray(tap_factor, dtype=float)
    eig, lam, _, prefix, const = _capacitance_prefix(noise_var, rows, g)
    gain = (amplitude * amplitude / noise_var) * lam
    fit = (gain * lam / eig).transpose(0, 2, 1) @ (prefix * prefix)    # (S, r, N)
    q = np.subtract(gain[:, None] * np.arange(1, prefix.shape[2] + 1), fit, out=fit)
    np.maximum(q, 0.0, out=q)
    return _prefix_profile(const, np.log1p(q, out=q).sum(axis=1))


def log_density_dense(dist: OutputDistribution, Y) -> float:
    """Same density through an explicit covariance; O((MN)^3) reference."""
    y = np.asarray(Y, dtype=float)
    if y.shape != dist.shape:
        raise InvalidParameterError(f"observation shape {y.shape} != {dist.shape}")
    from scipy import stats     # reference path only; kept off the import path
    return float(stats.multivariate_normal(mean=dist.mean,
                                           cov=dist.dense_covariance()).logpdf(_vec(y)))


def _overlap_parts(V, W, h1, A, T, sigma_W2):
    dv = output_moments(V, h1, A, T, sigma_W2)
    dw = output_moments(W, h1, A, T, sigma_W2)
    if dv.shape != dw.shape:
        raise InvalidParameterError(f"codeword shapes differ: {dv.shape} vs {dw.shape}")
    return dv, dw


def overlap_J(V, W, h1, A, T: TapCovariance, sigma_W2: float) -> float:
    """ln J(V, W, h_1) = ln int P(Y|V,h_1) P(Y|W,h_1) dY.

    The product integral of two Gaussians is the density of the mean
    difference A_1 h_1 (v_1 - w_1)^T under the summed covariance: white floor
    2 sigma_W^2 and the scaled symbol rows of both codeword matrices. Rows are
    put in canonical order, then folded so the difference is a column prefix:
    the d symbols where v_1 != w_1 move first, in order, and their columns
    take the sign of v_1 - w_1. Swapping V and W negates those columns, which
    leaves the kernel's gram and squared prefix sums bit for bit unchanged.
    """
    dv, dw = _overlap_parts(V, W, h1, A, T, sigma_W2)
    rows = np.vstack([dv.scaled_rows, dw.scaled_rows])
    if rows.shape[0] > 1:
        rows = rows[np.lexsort(rows.T[::-1])]
    diff = _as_codewords(V)[0] - _as_codewords(W)[0]
    order = np.argsort(diff == 0.0, kind="stable")
    rows = rows[:, order] * np.where(diff[order] < 0.0, -1.0, 1.0)
    x = float(np.asarray(A, dtype=float)[0]) * np.asarray(h1, dtype=float)[:, None]
    return float(log_gauss_lowrank(x, dv.noise_var + dw.noise_var, rows,
                                   dv.tap_factor)[np.count_nonzero(diff)])


def overlap_J_dense(V, W, h1, A, T: TapCovariance, sigma_W2: float) -> float:
    """Dense-covariance reference for overlap_J."""
    dv, dw = _overlap_parts(V, W, h1, A, T, sigma_W2)
    cov = dv.dense_covariance() + dw.dense_covariance()
    from scipy import stats     # reference path only; kept off the import path
    return float(stats.multivariate_normal(mean=np.zeros(cov.shape[0]),
                                           cov=cov).logpdf(dv.mean - dw.mean))


# ---------------------------------------------------------------------------
# brute-force oracles
#
# Everything below deliberately avoids the rank-update code path: densities
# are built from the plain white-noise Gaussian, and the interferer channels
# are integrated out numerically (Gauss-Hermite nodes or plain sampling).


@dataclass(frozen=True)
class OracleEstimate:
    log_value: float
    se_log: float       # relative standard error; 0 for the deterministic rule
    mode: str           # "quadrature" or "mc"
    points: int

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
    lw = np.zeros(nodes.shape[0])
    for axis in range(dims):
        block = np.meshgrid(*([logw] * dims), indexing="ij")[axis].ravel()
        lw += block
    return nodes, lw


def _node_means(mean_vec, rows, factor, zeta):
    """Mean of vec(Y) for each channel draw zeta (Q, J, r) -> (Q, D)."""
    if zeta.shape[1] == 0 or zeta.shape[2] == 0:
        return np.broadcast_to(mean_vec, (zeta.shape[0], mean_vec.size))
    off = np.einsum("ma,qja,jn->qmn", factor, zeta, rows)
    return mean_vec[None, :] + off.transpose(0, 2, 1).reshape(zeta.shape[0], -1)


def _log_marginal_grid(grids, mean_vec, rows, factor, sigma2, order):
    """Marginal log density on a 1-d or 2-d tensor grid via Gauss-Hermite."""
    j, r = rows.shape[0], factor.shape[1]
    nodes, lw = _gh_rule(j * r, order)
    mu = _node_means(mean_vec, rows, factor, nodes.reshape(-1, j, r) if j * r
                     else np.zeros((1, j, r)))
    if len(grids) == 1:
        lg = -((grids[0][:, None] - mu[None, :, 0]) ** 2) / (2.0 * sigma2)
        return logsumexp(lg + lw[None, :], axis=1) - 0.5 * (LOG_2PI + np.log(sigma2))
    # 2-d grid: the white density factorizes per coordinate, so the node sum
    # is a rank-Q matrix product after shifting out per-row maxima
    lg1 = -((grids[0][:, None] - mu[None, :, 0]) ** 2) / (2.0 * sigma2)
    lg2 = -((grids[1][:, None] - mu[None, :, 1]) ** 2) / (2.0 * sigma2)
    m1, m2, mw = lg1.max(axis=1), lg2.max(axis=1), lw.max()
    s = np.exp(lg1 - m1[:, None]) @ (np.exp(lw - mw)[:, None] * np.exp(lg2 - m2[:, None]).T)
    with np.errstate(divide="ignore"):
        return m1[:, None] + m2[None, :] + mw + np.log(s) - (LOG_2PI + np.log(sigma2))


def _coordinate_std(dist: OutputDistribution) -> np.ndarray:
    # direct variance bookkeeping per vec coordinate, no factorization involved
    m, n = dist.shape
    tdiag = (dist.tap_factor ** 2).sum(axis=1)
    per_symbol = (dist.scaled_rows ** 2).sum(axis=0)        # (N,)
    var = dist.noise_var + per_symbol[:, None] * tdiag[None, :]   # (N, M)
    return np.sqrt(var.ravel())


def _oracle_quadrature(dv, dw, points, order):
    lo = np.minimum(dv.mean, dw.mean) - 8.0 * np.maximum(_coordinate_std(dv), _coordinate_std(dw))
    hi = np.maximum(dv.mean, dw.mean) + 8.0 * np.maximum(_coordinate_std(dv), _coordinate_std(dw))
    grids = [np.linspace(a, b, points) for a, b in zip(lo, hi)]
    logf = [_log_marginal_grid(grids, d.mean, d.scaled_rows, d.tap_factor, d.noise_var, order)
            for d in (dv, dw)]
    log_tw = []
    for g in grids:
        tw = np.zeros(points)
        tw[0] = tw[-1] = np.log(0.5)
        log_tw.append(tw + np.log(g[1] - g[0]))
    total = logf[0] + logf[1]
    if len(grids) == 1:
        total = total + log_tw[0]
    else:
        total = total + log_tw[0][:, None] + log_tw[1][None, :]
    return float(logsumexp(total.ravel()))


def _oracle_mc(dv, dw, outer, inner, rng):
    m, n = dv.shape
    r = dv.tap_factor.shape[1]
    jv, jw = dv.scaled_rows.shape[0], dw.scaled_rows.shape[0]
    y = _node_means(dv.mean, dv.scaled_rows, dv.tap_factor,
                    rng.standard_normal((outer, jv, r)))
    y = y + np.sqrt(dv.noise_var) * rng.standard_normal(y.shape)
    mu = _node_means(dw.mean, dw.scaled_rows, dw.tap_factor,
                     rng.standard_normal((outer * inner, jw, r))).reshape(outer, inner, -1)
    quad = ((y[:, None, :] - mu) ** 2).sum(axis=2) / (2.0 * dw.noise_var)
    log_fw = logsumexp(-quad, axis=1) - np.log(inner) \
        - 0.5 * m * n * (LOG_2PI + np.log(dw.noise_var))
    acc = LogAccumulator.from_log_values(log_fw)
    return acc.log_mean, acc.se_log_mean


def oracle_J(V, W, h1, A, T: TapCovariance, sigma_W2: float,
             grid_or_samples: int | None = None, *, mode: str = "auto",
             inner_samples: int = 256, gh_order: int | None = None,
             rng: np.random.Generator | None = None) -> OracleEstimate:
    """Brute-force estimate of J(V, W, h_1) for validating overlap_J.

    Quadrature mode integrates over the output on a +-8 sigma grid (at least
    2001 points per dimension) with the interferer channels handled by a
    Gauss-Hermite rule; it needs M N <= 2 and (I-1) rank(T) <= 2. Monte-Carlo
    mode draws Y from P(.|V) and averages a sampled estimate of P(Y|W); it
    needs M N <= 4 and I <= 3 and reports its own standard error. Both modes
    are accurate only at moderate signal-to-noise scales; the closed form is
    scale covariant, so validating here covers the physical regime too.
    """
    dv, dw = _overlap_parts(V, W, h1, A, T, sigma_W2)
    m, n = dv.shape
    num_nodes = np.asarray(V).shape[0]
    gh_dims = dv.scaled_rows.shape[0] * dv.tap_factor.shape[1]
    if m * n > 4 or num_nodes > 3:
        raise InvalidParameterError(
            f"oracle needs M*N <= 4 and I <= 3, got M*N = {m * n}, I = {num_nodes}")
    if mode == "auto":
        mode = "quadrature" if (m * n <= 2 and gh_dims <= 2) else "mc"
    if mode == "quadrature":
        if m * n > 2 or gh_dims > 2:
            raise InvalidParameterError(
                f"quadrature oracle needs M*N <= 2 and (I-1) rank(T) <= 2, "
                f"got {m * n} and {gh_dims}")
        points = 2001 if grid_or_samples is None else int(grid_or_samples)
        order = gh_order if gh_order is not None else (64 if gh_dims <= 1 else 32)
        return OracleEstimate(_oracle_quadrature(dv, dw, points, order), 0.0,
                              "quadrature", points)
    if mode != "mc":
        raise InvalidParameterError(f"mode must be auto, quadrature, or mc, got {mode!r}")
    outer = 4096 if grid_or_samples is None else int(grid_or_samples)
    if rng is None:
        rng = np.random.default_rng(0)
    log_j, se = _oracle_mc(dv, dw, outer, inner_samples, rng)
    return OracleEstimate(log_j, se, "mc", outer)
