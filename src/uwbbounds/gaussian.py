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
"""

from __future__ import annotations

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


def _capacitance_prefix(noise_var: float, rows: np.ndarray, g: np.ndarray):
    """The factorization every prefix density shares, one per row stack C in
    rows (S, J, N). With C C^T = U diag(mu) U^T and G^T G = W diag(lam) W^T,
    U kron W diagonalises the capacitance noise_var I + (C C^T kron G^T G).
    Returns its eigenvalues eig = mu_k lam_a + noise_var as (S, J, r), lam,
    W, the projected prefix sums P = U^T cumsum(C) as (S, J, N) and the
    constant c (S, 1) with ln N(0; 0, Sigma) = -c / 2 for Sigma in (M N)
    dimensions."""
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

    x is the difference column (M, 1), and X_d = x 1_d^T puts it in the
    first d of the N symbols, so entry 0 is the density at zero and entry N
    the density at x 1^T. rows holds the c_j of each of S instances as
    (S, J, N); the result is (S, N + 1). One capacitance factorization serves
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
    eig, _, w, prefix, const = _capacitance_prefix(noise_var, rows, g)
    beta = x.T @ (g @ w)                                        # (1, r)
    weight = (beta * beta / eig).sum(axis=2)                    # (S, J)
    fit = (weight[:, None, :] @ (prefix * prefix))[:, 0]        # (S, N)
    quad = np.arange(1, prefix.shape[2] + 1) * (x * x).sum() - fit
    return _prefix_profile(const, np.maximum(quad, 0.0) / noise_var)


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
    ln J_0 - sum_a log1p(q_da) / 2. rows is (S, J, N); the result is
    (S, N + 1), with entry 0 the density at zero as in log_gauss_lowrank.
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
