"""Marginalized output law and pairwise overlap integrals.

For fixed codewords and a fixed intended channel h_1, stacking the received
columns gives a Gaussian vector: each interferer channel h_i ~ N(0, T) is
constant over the codeword, so marginalizing it adds a block
A_i^2 (v_i v_i^T kron T) to the white noise floor,

    vec(Y) ~ N( A_1 (v_1 kron h_1),  sigma_W^2 I + sum_j c_j c_j^T kron T )

with one scaled symbol row c_j = A_i v_i per marginalized node and T = diag(t).
The pair overlap J(V, W, h_1) = int P(Y|V,h_1) P(Y|W,h_1) dY is the Gaussian
product integral N(mu_V - mu_W; 0, Sigma_V + Sigma_W).

Direct densities underflow, so all densities are evaluated in natural-log
domain. At full scale the covariance is 400 x 400; it splits into M laws
sigma_W^2 I + t_m C^T C, one per tap, whose capacitances sigma_W^2 I + t_m C C^T
the eigenvectors U of C C^T all diagonalise, so one J x J eigendecomposition
gives every determinant and inverse. For J = 2 rows, one interferer, the
eigendecomposition of the 2 x 2 gram is the Jacobi closed form; for J >= 3
it is LAPACK eigh. Every mean
difference the bounds need is rank 1, a column x = A_1 h_1 times a symbol
pattern, and symbol signs fold into the rows. So one factorization per
instance gives the density at every column prefix x 1_d^T (the profile over
Hamming strata that the lower bound needs) from one running sum over the
symbols. When h_1 ~ N(0, T) is averaged over rather than fixed, the same
factorization gives that profile's exact expectation over h_1: the quadratic
form is a weighted sum of M independent chi-square terms, one per tap, whose
Gaussian expectation is a product of (1 + q)^(-1/2) factors.
"""

from __future__ import annotations

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


def _gram_eigh(rows: np.ndarray):
    """Eigenvalues mu (S, J), ascending, and eigenvectors U (S, J, J) of each
    gram C C^T for C in rows (S, J, N). For J = 2, with the gram
    [[a, b], [b, c]] from three row dot products, mu = m -+ hypot(h, b) for
    m = (a + c) / 2, h = (a - c) / 2, and U rotates by phi = atan2(b, h) / 2:
    (cos phi, sin phi) is the eigenvector of m + hypot(h, b). Other J go to
    eigh."""
    if rows.shape[1] != 2:
        return np.linalg.eigh(rows @ rows.transpose(0, 2, 1))
    first, second = rows[:, 0], rows[:, 1]
    a = np.einsum("sn,sn->s", first, first)
    b = np.einsum("sn,sn->s", first, second)
    c = np.einsum("sn,sn->s", second, second)
    half = 0.5 * (a - c)
    radius = np.hypot(half, b)
    mid = 0.5 * (a + c)
    phi = 0.5 * np.arctan2(b, half)     # atan2(0, 0) = 0: U = I for a = c, b = 0
    cos, sin = np.cos(phi), np.sin(phi)
    mu = np.stack((mid - radius, mid + radius), axis=1)
    u = np.stack((np.stack((-sin, cos), axis=1), np.stack((cos, sin), axis=1)), axis=2)
    return mu, u


def _capacitance_prefix(noise_var: float, rows: np.ndarray, t: np.ndarray):
    """The factorization every prefix density shares, one per row stack C in
    rows (S, J, N), for tap variances t (1, M). With C C^T = U diag(mu) U^T,
    U kron I diagonalises the capacitance noise_var I + (C C^T kron diag(t)).
    Returns its eigenvalues eig = mu_k t_a + noise_var as (S, J, M), the
    projected prefix sums P = U^T cumsum(C) as (S, J, N) and the constant
    c (S, 1) with ln N(0; 0, Sigma) = -c / 2 for Sigma in (M N) dimensions."""
    mu, u = _gram_eigh(rows)
    eig = mu[:, :, None] * t + noise_var
    prefix = u.transpose(0, 2, 1) @ np.cumsum(rows, axis=2)
    dim = t.shape[1] * rows.shape[2]
    const = (dim * LOG_2PI + (dim - eig[0].size) * np.log(noise_var)
             + np.log(eig).sum(axis=(1, 2))[:, None])
    return eig, prefix, const


def _prefix_profile(const: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """-(c + quad_d) / 2 for d = 0..N, given quad_d for d = 1..N as (S, N);
    quad_0 = 0, so entry 0 is the density at zero."""
    full = np.zeros((quad.shape[0], quad.shape[1] + 1))
    full[:, 1:] = quad
    return -0.5 * (const + full)


def log_gauss_lowrank(x, noise_var: float, rows, t) -> np.ndarray:
    """log N(vec X_d; 0, noise_var I + sum_j c_j c_j^T kron diag(t)), d = 0..N.

    x is the difference column (M, 1), and X_d = x 1_d^T puts it in the
    first d of the N symbols, so entry 0 is the density at zero and entry N
    the density at x 1^T. rows holds the c_j of each of S instances as
    (S, J, N) and t the tap variances as a (1, M) row; the result is
    (S, N + 1). One capacitance factorization serves every prefix: with
    beta = x^T * sqrt(t), P = U^T cumsum(C) and weight_k = sum_a beta_a^2 / eig_ka,

        vec(X_d)^T Sigma^{-1} vec(X_d)
            = (d ||x||^2 - sum_k P_{kd}^2 weight_k) / noise_var,

    so cost is O(J^2 N + J M + J^3) per instance. Signs need no argument:
    for s in {+-1}^N, C diag(s) has the gram of C, so the density of
    vec(x (s * 1_d)^T) under rows C is that of vec(X_d) under C diag(s).
    """
    eig, prefix, const = _capacitance_prefix(noise_var, rows, t)
    beta = x.T * np.sqrt(t)                                     # (1, M)
    weight = (beta * beta / eig).sum(axis=2)                    # (S, J)
    fit = (weight[:, None, :] @ (prefix * prefix))[:, 0]        # (S, N)
    quad = np.arange(1, prefix.shape[2] + 1) * (x * x).sum() - fit
    return _prefix_profile(const, np.maximum(quad, 0.0) / noise_var)


def log_gauss_lowrank_marginal(amplitude: float, noise_var: float, rows,
                               t) -> np.ndarray:
    """ln E_h N(vec(A h 1_d^T); 0, Sigma) over h ~ N(0, diag(t)), d = 0..N.

    The profile of log_gauss_lowrank at x = A h with the column integrated
    out in closed form: it equals ln N(0; 0, Sigma + A^2 (1_d 1_d^T kron T)),
    T = diag(t). Write h = sqrt(t) * zeta, zeta ~ N(0, I_M). Then ||x||^2 =
    A^2 sum_a t_a zeta_a^2 and beta_a = A t_a zeta_a, so the quadratic form
    of prefix d is sum_a q_da zeta_a^2 with

        q_da = (A^2 t_a / noise_var) (d - t_a sum_k P_kd^2 / eig_ka) >= 0,

    and E exp(-q zeta^2 / 2) = (1 + q)^(-1/2) gives
    ln J_0 - sum_a log1p(q_da) / 2. rows and t are as in log_gauss_lowrank;
    the result is (S, N + 1), with entry 0 the density at zero as there.
    Cost is O(J^2 N + J M N + J^3) per instance.
    """
    eig, prefix, const = _capacitance_prefix(noise_var, rows, t)
    gain = (amplitude * amplitude / noise_var) * t[0]                  # (M,)
    # the dimensionless residual d - fit first: gain * t / eig overflows near
    # the SNR limit, where eig is close to noise_var
    fit = (t / eig).transpose(0, 2, 1) @ (prefix * prefix)             # (S, M, N)
    q = np.subtract(np.arange(1, prefix.shape[2] + 1), fit, out=fit)
    np.maximum(q, 0.0, out=q)
    q *= gain[:, None]
    return _prefix_profile(const, np.log1p(q, out=q).sum(axis=1))
