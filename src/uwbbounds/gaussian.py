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
sigma_W^2 I + t_a C^T C, one per tap, with J x J capacitances
K_a = sigma_W^2 I + t_a C C^T. Every mean difference the bounds need is
rank 1, a column x = A_1 h_1 times a symbol pattern, and symbol signs fold
into the rows. So the density at every column prefix x 1_d^T (the profile
over Hamming strata that the lower bound needs) needs only ln det K_a and
c_d^T K_a^{-1} c_d for the prefix sums c_d = C 1_d. For J = 2 rows, one
interferer, the 2 x 2 Jacobi closed form diagonalises the gram C C^T and
every K_a with it. For J >= 3 a root-free Cholesky of every K_a gives
ln det K_a and K_a^{-1} in closed form, and one batched matmul gives every
prefix's form from the products of the prefix sums. When h_1 ~ N(0, T) is
averaged over rather than fixed, the same factorization gives that
profile's exact expectation over h_1: the quadratic form is a weighted sum
of M independent chi-square terms, one per tap, whose Gaussian expectation
is a product of (1 + q)^(-1/2) factors.
"""

from __future__ import annotations

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


def _gram_eigh(rows: np.ndarray):
    """Eigenvalues mu (S, 2), ascending, and eigenvectors U (S, 2, 2) of each
    gram C C^T for C in rows (S, 2, N), in the Jacobi closed form: with the
    gram [[a, b], [b, c]] from three row dot products, mu = m -+ hypot(h, b)
    for m = (a + c) / 2, h = (a - c) / 2, and U rotates by phi = atan2(b, h) / 2:
    (cos phi, sin phi) is the eigenvector of m + hypot(h, b)."""
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


def _capacitance_cholesky(noise_var: float, rows: np.ndarray, t: np.ndarray):
    """Pivots D (S, J, M) and inverse (J, J, M, S) of every capacitance
    K_a = noise_var I + t_a C C^T, by the root-free Cholesky K = L D L^T on
    (tap, instance) planes, one Python step per column: column k of the unit
    lower L is K's below D_k over D_k, then the rank-1 Schur update. The
    inverse X solves X L = L^{-T} D^{-1} from the last column: X_ik =
    -sum_{j>k} X_ij L_jk for i > k, X_kk = 1 / D_k - sum_{j>k} L_jk X_jk."""
    size = rows.shape[1]
    gram = np.ascontiguousarray((rows @ rows.transpose(0, 2, 1)).transpose(1, 2, 0))
    cap = t[0][:, None] * gram[:, :, None]
    cap[range(size), range(size)] += noise_var
    for k in range(size - 1):
        col = cap[k + 1:, k] / cap[k, k]
        cap[k + 1:, k + 1:] -= col[:, None] * cap[k, k + 1:]
        cap[k + 1:, k] = col
    pivots = cap[range(size), range(size)]
    inv = np.empty_like(cap)
    inv[range(size), range(size)] = 1.0 / pivots
    for k in reversed(range(size - 1)):
        col = cap[k + 1:, k]
        below = np.negative(np.einsum("ijas,jas->ias", inv[k + 1:, k + 1:], col))
        inv[k + 1:, k] = inv[k, k + 1:] = below
        inv[k, k] -= np.einsum("ias,ias->as", col, below)
    return pivots.transpose(2, 0, 1), inv


def _capacitance_prefix(noise_var: float, rows: np.ndarray, t: np.ndarray,
                        weight: np.ndarray):
    """The factorization every prefix density shares, for row stacks C in
    rows (S, J, N), tap variances t (1, M) and tap weights w (1, M): entries
    (S, E, M) and products (S, E, N) with sum_e entries[:, e, a]
    products[:, e, d - 1] = w_a c_d^T K_a^{-1} c_d for the prefix sums
    c_d = C 1_d, and c (S, 1) with ln N(0; 0, Sigma) = -c / 2 in M N
    dimensions. For J = 2, U from C C^T = U diag(mu) U^T diagonalises every
    K_a, with eigenvalues eig_ka = mu_k t_a + noise_var: entries are
    w_a / eig_ka and products (U^T c_d)_k^2, E = 2. Otherwise entries are
    w_a [K_a^{-1}]_ij, twice over for i < j, and products c_di c_dj, for
    the E = J (J + 1) / 2 pairs i <= j; each product is one contiguous
    multiply of (S, N) planes, and the pivots give every ln det K_a."""
    size = rows.shape[1]
    if size == 2:
        mu, u = _gram_eigh(rows)
        pivots = mu[:, :, None] * t + noise_var
        prefix = u.transpose(0, 2, 1) @ np.cumsum(rows, axis=2)
        entries = weight / pivots
        products = prefix * prefix
    else:
        pivots, inv = _capacitance_cholesky(noise_var, rows, t)
        upper = np.triu_indices(size)
        twice = np.where(upper[0] == upper[1], 1.0, 2.0)[:, None, None]
        entries = np.empty((rows.shape[0], len(twice), t.shape[1]))
        np.multiply(twice * weight[0][:, None], inv[upper], out=entries.transpose(1, 2, 0))
        prefix = np.cumsum(rows.transpose(1, 0, 2), axis=2,
                           out=np.empty((size,) + rows.shape[::2]))
        products = np.empty((len(twice),) + prefix.shape[1:])
        for entry, (i, j) in enumerate(zip(*upper)):
            np.multiply(prefix[i], prefix[j], out=products[entry])
        products = products.transpose(1, 0, 2)
    dim = t.shape[1] * rows.shape[2]
    const = (dim * LOG_2PI + (dim - pivots[0].size) * np.log(noise_var)
             + np.log(pivots).sum(axis=(1, 2))[:, None])
    return entries, products, const


def _prefix_profile(const: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """-(c + quad_d) / 2 for d = 0..N, given quad_d for d = 1..N as (S, N);
    quad_0 = 0, so entry 0 is the density at zero."""
    out = np.empty((quad.shape[0], quad.shape[1] + 1))
    out[:, :1] = const
    np.add(const, quad, out=out[:, 1:])
    out *= -0.5
    return out


def log_gauss_lowrank(x, noise_var: float, rows, t) -> np.ndarray:
    """log N(vec X_d; 0, noise_var I + sum_j c_j c_j^T kron diag(t)), d = 0..N.

    x is the difference column (M, 1), and X_d = x 1_d^T puts it in the
    first d of the N symbols, so entry 0 is the density at zero and entry N
    the density at x 1^T. rows holds the c_j of each of S instances as
    (S, J, N) and t the tap variances as a (1, M) row; the result is
    (S, N + 1). One capacitance factorization serves every prefix: with
    beta = x^T * sqrt(t) and the prefix sums c_d = C 1_d,

        vec(X_d)^T Sigma^{-1} vec(X_d)
            = (d ||x||^2 - sum_a beta_a^2 c_d^T K_a^{-1} c_d) / noise_var,

    whose sum over taps is one (1, K) x (K, N) product per instance (see
    _capacitance_prefix). Cost per instance is O(J^2 N + J^3 M) for J >= 3
    and O(N + M) for J = 2. Signs need no argument:
    for s in {+-1}^N, C diag(s) has the gram of C, so the density of
    vec(x (s * 1_d)^T) under rows C is that of vec(X_d) under C diag(s).
    """
    beta = x.T * np.sqrt(t)                                     # (1, M)
    entries, products, const = _capacitance_prefix(noise_var, rows, t, beta * beta)
    fit = (entries.sum(axis=2)[:, None, :] @ products)[:, 0]    # (S, N)
    quad = np.subtract(np.arange(1, products.shape[2] + 1) * (x * x).sum(), fit, out=fit)
    np.maximum(quad, 0.0, out=quad)
    quad /= noise_var
    return _prefix_profile(const, quad)


def log_gauss_lowrank_marginal(amplitude: float, noise_var: float, rows,
                               t) -> np.ndarray:
    """ln E_h N(vec(A h 1_d^T); 0, Sigma) over h ~ N(0, diag(t)), d = 0..N.

    The profile of log_gauss_lowrank at x = A h with the column integrated
    out in closed form: it equals ln N(0; 0, Sigma + A^2 (1_d 1_d^T kron T)),
    T = diag(t). Write h = sqrt(t) * zeta, zeta ~ N(0, I_M). Then ||x||^2 =
    A^2 sum_a t_a zeta_a^2 and beta_a = A t_a zeta_a, so the quadratic form
    of prefix d is sum_a q_da zeta_a^2 with

        q_da = (A^2 t_a / noise_var) (d - t_a c_d^T K_a^{-1} c_d) >= 0,

    and E exp(-q zeta^2 / 2) = (1 + q)^(-1/2) gives
    ln J_0 - sum_a log1p(q_da) / 2. rows and t are as in log_gauss_lowrank;
    the result is (S, N + 1), with entry 0 the density at zero as there.
    The forms t_a c_d^T K_a^{-1} c_d come from one (M, K) x (K, N) product
    per instance, so cost per instance is O(J^2 M N + J^3 M) for J >= 3 and
    O(J M N) for J = 2.
    """
    entries, products, const = _capacitance_prefix(noise_var, rows, t, t)
    gain = (amplitude * amplitude / noise_var) * t[0]                  # (M,)
    # the dimensionless residual d - fit first: gain * t K^{-1} overflows near
    # the SNR limit, where K_a is close to noise_var I
    fit = entries.transpose(0, 2, 1) @ products                       # (S, M, N)
    q = np.subtract(np.arange(1, products.shape[2] + 1), fit, out=fit)
    np.maximum(q, 0.0, out=q)
    q *= gain[:, None]
    return _prefix_profile(const, np.log1p(q, out=q).sum(axis=1))
