"""Marginalized density and overlap integral against dense and brute-force references.

These tests gate everything downstream: the rate estimators assume the
closed-form marginalization and product integral are right. The references
(dense densities, the overlap J and its oracle) live in tests/reference.py.
"""

import numpy as np
import pytest

from uwbbounds import gaussian
from uwbbounds.gaussian import log_gauss_lowrank, log_gauss_lowrank_marginal
from uwbbounds.model import InvalidParameterError, ScenarioConfig

from reference import (OutputDistribution, exact_prefix_quad, log_density_dense,
                       log_gauss_general, log_white_overlap, oracle_J, output_moments, overlap_J,
                       overlap_J_dense, tap_eigenbasis)

T1 = np.array([[1.0]])
# the package's tap covariance at 5 taps (0.14 of a 68-path profile), as a matrix
T_PAPER = np.diag(ScenarioConfig().tap_covariance())


def near_interferer_rows(samples, seed):
    """The desk preset's I = 3 rows (S, 4, 40) with its first interferer at
    0.05 m, with the tap variances (M,), the kernel's noise variance and A_1.
    Its capacitances reach a condition number near 1e8."""
    cfg = ScenarioConfig(num_nodes=3, codeword_len=40, taps=3,
                         duty_cycles=(0.5, 0.35, 0.2), interferer_distances_m=(0.05, 10.0),
                         h1_mode="averaged")
    nodes = np.tile(np.arange(1, 3), 2)
    amps, etas = cfg.amplitudes(), np.array(cfg.duty_cycles)[nodes, None]
    on = np.random.default_rng(seed).random((samples, 4, 40)) < etas
    return amps[nodes, None] * on, cfg.tap_covariance(), 2.0 * cfg.noise_var_w, amps[0]


def capacitance_condition(rows, t, noise_var):
    """Largest condition number of noise_var I + t_a C C^T over instances and taps."""
    gram = rows @ rows.transpose(0, 2, 1)
    cap = noise_var * np.eye(rows.shape[1]) + t[:, None, None] * gram[:, None]
    return np.linalg.cond(cap).max()


def random_instance(rng, num_nodes, taps, codeword_len, rank=None):
    """O(1)-scale instance; moderate ratios keep the oracle accurate."""
    rank = taps if rank is None else rank
    g = rng.standard_normal((taps, rank)) * 0.6
    t = g @ g.T
    v = (rng.random((num_nodes, codeword_len)) < 0.6).astype(float)
    w = (rng.random((num_nodes, codeword_len)) < 0.6).astype(float)
    h1 = rng.standard_normal(taps) * 0.7
    a = 0.3 + rng.random(num_nodes)
    sigma2 = 0.5 + rng.random()
    return v, w, h1, a, t, sigma2


class TestOutputMoments:
    def test_no_interferers_white(self):
        d = output_moments(np.ones((1, 3)), np.array([0.5]), np.array([2.0]), T1, 0.7)
        assert d.scaled_rows.shape == (0, 3)
        np.testing.assert_allclose(d.dense_covariance(), 0.7 * np.eye(3), atol=0)

    def test_silent_interferer_white(self):
        v = np.array([[1.0, 0.0], [0.0, 0.0]])
        d = output_moments(v, np.array([0.5]), np.array([2.0, 9.0]), T1, 0.7)
        np.testing.assert_allclose(d.dense_covariance(), 0.7 * np.eye(2), atol=0)

    def test_scalar_variance_addition(self):
        t = np.array([[0.3]])
        d = output_moments(np.array([[0.0], [1.0]]), np.array([1.0]),
                           np.array([1.0, 2.0]), t, 0.1)
        np.testing.assert_allclose(d.dense_covariance(), [[0.1 + 4.0 * 0.3]], rtol=1e-14)

    def test_mean_layout(self):
        # mean of vec(Y) is A_1 (v_1 kron h_1): column n equals A_1 v_1[n] h_1
        h = np.array([0.5, -1.0])
        d = output_moments(np.array([[1.0, 0.0, 1.0]]), h, np.array([3.0]),
                           np.eye(2), 1.0)
        np.testing.assert_allclose(d.mean, np.kron([1.0, 0.0, 1.0], 3.0 * h), rtol=1e-15)


def dense_law(noise_var, rows, g):
    """The kernel's Gaussian, mean 0, as an explicit-covariance distribution
    whose log_density_dense at Y is the log density of vec(Y)."""
    return OutputDistribution(np.zeros((g.shape[0], rows.shape[-1])), noise_var, rows, g)


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        d = output_moments(np.zeros((1, 1)), np.zeros(1), np.ones(1), T1, 1.0)
        assert log_density_dense(d, np.zeros((1, 1))) == pytest.approx(-0.9189385, abs=1e-6)

    def test_scalar_variance_two(self):
        # N(2; 0, 2) = exp(-1)/sqrt(4 pi), via pure noise and via interference
        want = -0.5 * np.log(4.0 * np.pi) - 1.0
        d_noise = output_moments(np.zeros((1, 1)), np.zeros(1), np.ones(1), T1, 2.0)
        assert log_density_dense(d_noise, [[2.0]]) == pytest.approx(want, abs=1e-12)
        d_intf = output_moments(np.array([[0.0], [1.0]]), np.zeros(1),
                                np.ones(2), T1, 1.0)
        assert log_density_dense(d_intf, [[2.0]]) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("num_nodes,taps,codeword_len",
                             [(1, 2, 3), (2, 3, 4), (3, 5, 7), (4, 3, 6)])
    def test_matches_dense(self, num_nodes, taps, codeword_len):
        # the kernel at Y = mean + x 1^T, x a random column
        rng = np.random.default_rng(10 * num_nodes + taps)
        v, _, h1, a, t, sigma2 = random_instance(rng, num_nodes, taps, codeword_len)
        d = output_moments(v, h1, a, t, sigma2)
        x = rng.standard_normal((taps, 1))
        got = log_gauss_general(x, d.noise_var, d.scaled_rows[None], t)[0, -1]
        assert got == pytest.approx(log_density_dense(d, d.mean_matrix + x), rel=1e-10)

    def test_matches_dense_physical_scale(self):
        rng = np.random.default_rng(77)
        t = T_PAPER
        v = (rng.random((2, 80)) < 0.5).astype(float)
        h1 = rng.standard_normal(5) * np.sqrt(np.diag(t))
        a = np.array([2.9e-6, 5e-7])
        d = output_moments(v, h1, a, t, 1e-13)
        x = 3e-7 * rng.standard_normal((5, 1))
        got = log_gauss_lowrank(x, d.noise_var, d.scaled_rows[None], np.diag(t)[None])[0, -1]
        assert got == pytest.approx(log_density_dense(d, d.mean_matrix + x), rel=1e-10)

    def test_integrates_to_one(self):
        # M = N = 1 marginal: trapezoid of exp(log_density_dense) over +-10 sd
        t = np.array([[0.4]])
        d = output_moments(np.array([[1.0], [1.0]]), np.array([0.8]),
                           np.array([1.0, 0.9]), t, 0.6)
        sd = np.sqrt(0.6 + 0.81 * 0.4)
        grid = np.linspace(d.mean[0] - 10 * sd, d.mean[0] + 10 * sd, 4001)
        vals = np.exp(log_density_dense(d, grid[:, None, None]))
        assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-6)

    def test_batched_broadcast_x(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((2, 2))
        rows = rng.standard_normal((4, 2, 3))
        x = rng.standard_normal((2, 1))
        batch = log_gauss_general(x, 1.1, rows, g @ g.T)
        single = [log_gauss_general(x, 1.1, rows[i:i + 1], g @ g.T)[0] for i in range(4)]
        np.testing.assert_allclose(batch, single, rtol=1e-13)


class TestPrefixQuad:
    """Every column prefix from one capacitance factorization against one
    dense density per prefix."""

    @pytest.mark.parametrize("num_nodes", [1, 2, 3, 4])
    @pytest.mark.parametrize("per_sample_h", [False, True])
    def test_matches_log_density_per_stratum(self, num_nodes, per_sample_h):
        rng = np.random.default_rng(10 * num_nodes + per_sample_h)
        samples, taps, codeword_len, rank = 7, 3, 6, 2
        g = rng.standard_normal((taps, rank)) * 0.6
        amps = 0.3 + rng.random((2 * (num_nodes - 1), 1))
        rows = amps * (rng.random((samples, 2 * (num_nodes - 1), codeword_len)) < 0.6)
        h = rng.standard_normal((samples, taps) if per_sample_h else taps)
        noise_var = 0.5 + rng.random()
        if per_sample_h:
            prof = np.concatenate([log_gauss_general(h[s, :, None], noise_var,
                                                     rows[s:s + 1], g @ g.T)
                                   for s in range(samples)])
        else:
            prof = log_gauss_general(h[:, None], noise_var, rows, g @ g.T)
        assert prof.shape == (samples, codeword_len + 1)
        for s in range(samples):
            h_s = h[s] if per_sample_h else h
            law = dense_law(noise_var, rows[s], g)
            for d in range(codeword_len + 1):
                want = log_density_dense(law, np.outer(h_s, np.arange(codeword_len) < d))
                assert prof[s, d] == pytest.approx(want, rel=0, abs=1e-10)

    def test_matches_dense_physical_scale_singular_gram(self):
        # I = 3 at physical scale; each instance has an all-zero interferer row
        # and two equal rows, so its J x J row gram is singular (rank 2 of 4)
        from scipy import stats
        rng = np.random.default_rng(19)
        t = T_PAPER
        noise_var, codeword_len, samples = 2e-13, 80, 2
        amps = np.array([[0.0], [1.1e-6], [1.1e-6], [7e-7]])
        rows = amps * (rng.random((samples, 4, codeword_len)) < 0.5)
        rows[:, 2] = rows[:, 1]
        h = 2.9e-6 * rng.standard_normal((samples, 5)) * np.sqrt(np.diag(t))
        prof = np.concatenate([log_gauss_lowrank(h[s, :, None], noise_var, rows[s:s + 1],
                                                 np.diag(t)[None]) for s in range(samples)])
        for s in range(samples):
            cov = noise_var * np.eye(5 * codeword_len)
            for c in rows[s]:
                cov += np.kron(np.outer(c, c), t)
            law = stats.multivariate_normal(mean=np.zeros(cov.shape[0]), cov=cov)
            at_zero = law.logpdf(np.zeros(cov.shape[0]))
            for d in (0, 1, 17, 80):
                x = np.outer(h[s], np.arange(codeword_len) < d)
                want = -2.0 * (law.logpdf(x.T.ravel()) - at_zero)
                assert -2.0 * (prof[s, d] - prof[s, 0]) == pytest.approx(want, rel=1e-10)

    def test_matches_exact_near_interferer(self):
        # an interferer at 0.05 m: capacitance condition number near 1e8, where
        # the dense densities' own float64 error reaches 3e-10 of the quadratic
        # form, so the exact rational form is the reference
        rows, t, noise_var, amplitude = near_interferer_rows(2, 43)
        assert capacitance_condition(rows, t, noise_var) > 3e7
        h = amplitude * np.random.default_rng(44).standard_normal((2, 3)) * np.sqrt(t)
        prof = np.concatenate([log_gauss_lowrank(h[s, :, None], noise_var, rows[s:s + 1],
                                                 t[None]) for s in range(2)])
        for s in range(2):
            for d in (1, 17, 40):
                want = exact_prefix_quad(rows[s], t, noise_var, h[s], d)
                assert -2.0 * (prof[s, d] - prof[s, 0]) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("kind", ["signed", "difference"])
    def test_per_instance_x_matches_dense(self, kind):
        # one column per instance, each its own kernel call, and mean
        # differences that are not the all-+ prefix x 1_d^T: "signed" is
        # x (s * 1_d)^T, s in {+-1}^N, with all of s folded into the rows;
        # "difference" is x delta^T with d entries of delta in {-1, +1}
        # scattered among zeros, folded as overlap_J does
        rng = np.random.default_rng(23)
        samples, taps, codeword_len, rank = 3, 3, 9, 2
        g = rng.standard_normal((taps, rank)) * 0.6
        rows = (0.3 + rng.random((4, 1))) * (rng.random((samples, 4, codeword_len)) < 0.6)
        x = rng.standard_normal((samples, taps, 1))
        noise_var = 0.5 + rng.random()
        for d in (0, 1, 4, codeword_len):
            signs = rng.choice([-1.0, 1.0], size=codeword_len)
            if kind == "signed":
                diff = signs * (np.arange(codeword_len) < d)
                folded = rows * signs
            else:
                diff = np.zeros(codeword_len)
                diff[rng.choice(codeword_len, size=d, replace=False)] = signs[:d]
                order = np.argsort(diff == 0.0, kind="stable")
                folded = rows[:, :, order] * np.where(diff[order] < 0.0, -1.0, 1.0)
            prof = np.concatenate([log_gauss_general(x[s], noise_var, folded[s:s + 1],
                                                     g @ g.T) for s in range(samples)])
            assert prof.shape == (samples, codeword_len + 1)
            for s in range(samples):
                want = log_density_dense(dense_law(noise_var, rows[s], g), np.outer(x[s], diff))
                assert prof[s, d] == pytest.approx(want, rel=1e-10)


def two_row_cases():
    """(name, rows (S, 2, N), noise_var, t (1, M), x (M, 1), amplitude) for the
    cases of the 2 x 2 gram."""
    rng = np.random.default_rng(31)
    t = ScenarioConfig().tap_covariance()[None]
    # the paper preset's scale: on-off rows of amplitude 1.1e-6, noise 2e-13
    paper = (1.1e-6 * (rng.random((64, 2, 80)) < 0.5), 2e-13, t, 2.9e-6 * np.sqrt(t.T),
             2.9e-6)
    normal = rng.standard_normal((16, 2, 9))
    equal, one_zero, both_zero = (normal.copy() for _ in range(3))
    equal[:, 1] = equal[:, 0]
    one_zero[:, 0] = 0.0
    both_zero[:] = 0.0
    orthogonal = np.zeros((1, 2, 4))            # a = c, b = 0: atan2(0, 0), U = I
    orthogonal[0, 0, :2] = orthogonal[0, 1, 2:] = 0.8
    unit = (1.0, t[:, :3] / t[:, :3].sum(), np.array([[0.7], [-0.4], [1.1]]), 1.3)
    return [("symbols", *paper), ("normal", normal, *unit), ("equal", equal, *unit),
            ("one zero", one_zero, *unit), ("both zero", both_zero, *unit),
            ("orthogonal", orthogonal, *unit)]


class TestTwoRowClosedForm:
    """J = 2 rows take the 2 x 2 Jacobi closed form; both kernels match
    what LAPACK eigh of the same grams gives."""

    @pytest.mark.parametrize("case", two_row_cases(), ids=lambda case: case[0])
    def test_matches_the_eigh_path(self, monkeypatch, case):
        _, rows, noise_var, t, x, amplitude = case
        closed = (log_gauss_lowrank(x, noise_var, rows, t),
                  log_gauss_lowrank_marginal(amplitude, noise_var, rows, t))
        monkeypatch.setattr(gaussian, "_gram_eigh",
                            lambda r: np.linalg.eigh(r @ r.transpose(0, 2, 1)))
        lapack = (log_gauss_lowrank(x, noise_var, rows, t),
                  log_gauss_lowrank_marginal(amplitude, noise_var, rows, t))
        for got, want in zip(closed, lapack):
            assert np.all(np.isfinite(got))
            np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("case", two_row_cases(), ids=lambda case: case[0])
    def test_eigenpairs(self, case):
        rows = case[1]
        mu, u = gaussian._gram_eigh(rows)
        gram = rows @ rows.transpose(0, 2, 1)
        scale = np.abs(gram).max()
        np.testing.assert_allclose(mu, np.linalg.eigvalsh(gram), rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(gram @ u, u * mu[:, None, :], rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(u.transpose(0, 2, 1) @ u,
                                   np.broadcast_to(np.eye(2), u.shape), rtol=0, atol=1e-15)


class TestChannelMarginal:
    """The prefix profile with x = A h integrated over h ~ N(0, T) against the
    dense law N(0; 0, Sigma + A^2 (1_d 1_d^T kron T)) of every prefix."""

    @pytest.mark.parametrize("num_nodes", [1, 2, 3, 4])
    def test_matches_dense_law(self, num_nodes):
        from scipy import stats
        rng = np.random.default_rng(40 + num_nodes)
        samples, taps, codeword_len, rank = 3, 3, 6, 2
        g = rng.standard_normal((taps, rank)) * 0.6
        amps = 0.3 + rng.random((2 * (num_nodes - 1), 1))
        rows = amps * (rng.random((samples, 2 * (num_nodes - 1), codeword_len)) < 0.6)
        amplitude, noise_var = 1.3, 0.5 + rng.random()
        t = g @ g.T
        # E_h over h ~ N(0, T) is that over V^T h ~ N(0, diag(t)) in T's eigenbasis
        prof = log_gauss_lowrank_marginal(amplitude, noise_var, rows, tap_eigenbasis(t)[0])
        assert prof.shape == (samples, codeword_len + 1)
        for s in range(samples):
            cov = dense_law(noise_var, rows[s], g).dense_covariance()
            for d in range(codeword_len + 1):
                prefix = np.arange(codeword_len) < d
                law = cov + amplitude ** 2 * np.kron(np.outer(prefix, prefix), t)
                want = stats.multivariate_normal(np.zeros(len(law)), law).logpdf(0.0)
                assert prof[s, d] == pytest.approx(want, rel=1e-10)

    @staticmethod
    def check_physical_scale(amplitude, noise_var, rows, t, strata):
        """The kernel at rows (S, J, N) and tap variances t (M,) against the
        dense law of each prefix d in strata."""
        from scipy import stats
        prof = log_gauss_lowrank_marginal(amplitude, noise_var, rows, t[None])
        for s in range(rows.shape[0]):
            cov = dense_law(noise_var, rows[s], np.diag(np.sqrt(t))).dense_covariance()
            for d in strata:
                prefix = np.arange(rows.shape[2]) < d
                law = cov + amplitude ** 2 * np.kron(np.outer(prefix, prefix), np.diag(t))
                want = stats.multivariate_normal(np.zeros(len(law)), law).logpdf(0.0)
                assert prof[s, d] == pytest.approx(want, rel=1e-10)

    def test_matches_dense_law_physical_scale(self):
        # desk-like scale: noise 2e-13, amplitudes near 1e-6, a singular
        # row gram (an all-zero row and two equal rows), N = 40
        rng = np.random.default_rng(29)
        t = ScenarioConfig(taps=3).tap_covariance()
        amps = np.array([[0.0], [1.1e-6], [1.1e-6], [7e-7]])
        rows = amps * (rng.random((1, 4, 40)) < 0.5)
        rows[:, 2] = rows[:, 1]
        self.check_physical_scale(2.9e-6, 2e-13, rows, t, (0, 1, 17, 40))

    def test_matches_dense_law_paper_scale_singular_gram(self):
        # the fixed-draw singular-gram case's instances: the paper preset's
        # five taps, N = 80, an all-zero row and two equal rows
        rng = np.random.default_rng(19)
        amps = np.array([[0.0], [1.1e-6], [1.1e-6], [7e-7]])
        rows = amps * (rng.random((2, 4, 80)) < 0.5)
        rows[:, 2] = rows[:, 1]
        self.check_physical_scale(2.9e-6, 2e-13, rows, np.diag(T_PAPER), (0, 1, 17, 80))

    def test_matches_dense_law_near_interferer(self):
        # an interferer at 0.05 m: capacitance condition number near 1e8
        rows, t, noise_var, amplitude = near_interferer_rows(3, 47)
        assert capacitance_condition(rows, t, noise_var) > 3e7
        self.check_physical_scale(amplitude, noise_var, rows, t, (0, 1, 17, 40))

    def test_density_at_zero_is_the_kernels(self):
        # d = 0 has no channel term, so theta's samples do not move
        rng = np.random.default_rng(5)
        g = rng.standard_normal((3, 2))
        t = tap_eigenbasis(g @ g.T)[0]
        rows = rng.standard_normal((4, 2, 7))
        marginal = log_gauss_lowrank_marginal(0.8, 1.1, rows, t)
        kernel = log_gauss_lowrank(np.zeros((3, 1)), 1.1, rows, t)
        assert np.array_equal(marginal[:, 0], kernel[:, 0])


class TestOverlap:
    def test_self_overlap_scalar(self):
        # int N(y; mu, 1)^2 dy = 1 / sqrt(4 pi), any mu
        v = np.array([[1.0]])
        lj = overlap_J(v, v, np.array([0.7]), np.array([1.3]), T1, 1.0)
        assert lj == pytest.approx(np.log(1.0 / np.sqrt(4.0 * np.pi)), abs=1e-12)

    def test_mean_separation_scalar(self):
        # means differ by A h, variances add
        a, h, s2 = 1.4, 0.6, 0.8
        lj = overlap_J([[1.0]], [[0.0]], np.array([h]), np.array([a]), T1, s2)
        want = -0.5 * np.log(4.0 * np.pi * s2) - (a * h) ** 2 / (4.0 * s2)
        assert lj == pytest.approx(want, abs=1e-12)

    def test_swap_exact(self):
        rng = np.random.default_rng(21)
        v, w, h1, a, t, s2 = random_instance(rng, 3, 3, 5)
        assert overlap_J(v, w, h1, a, t, s2) == overlap_J(w, v, h1, a, t, s2)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense(self, seed):
        rng = np.random.default_rng(100 + seed)
        v, w, h1, a, t, s2 = random_instance(rng, 3, 4, 6)
        assert overlap_J(v, w, h1, a, t, s2) == pytest.approx(
            overlap_J_dense(v, w, h1, a, t, s2), rel=1e-10)

    def test_matches_dense_physical_scale(self):
        rng = np.random.default_rng(31)
        t = T_PAPER
        v = (rng.random((3, 80)) < 0.5).astype(float)
        w = (rng.random((3, 80)) < 0.5).astype(float)
        h1 = rng.standard_normal(5) * np.sqrt(np.diag(t))
        a = np.array([2.9e-6, 5e-7, 2e-7])
        assert overlap_J(v, w, h1, a, t, 1e-13) == pytest.approx(
            overlap_J_dense(v, w, h1, a, t, 1e-13), rel=1e-10)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            v, w, h1, a, t, s2 = random_instance(rng, 2, 2, 4)
            cross = overlap_J(v, w, h1, a, t, s2)
            bound = 0.5 * (overlap_J(v, v, h1, a, t, s2) + overlap_J(w, w, h1, a, t, s2))
            assert cross <= bound + 1e-12


class TestOracle:
    @pytest.mark.parametrize("mu_v,mu_w", [([0.4], [-0.9]), ([0.4, -0.2], [-0.9, 0.7])])
    def test_white_overlap_matches_trapezoid(self, mu_v, mu_w):
        # the oracle's one closed form, int N(y; mu_v, s_v I) N(y; mu_w, s_w I) dy,
        # against a trapezoid over y: per axis in turn on the full tensor grid
        s_v, s_w = 0.6, 1.7
        y = np.linspace(-12.0, 12.0, 401)
        mesh = np.stack(np.meshgrid(*([y] * len(mu_v)), indexing="ij"), axis=-1)

        def white(mu, s):
            sq = ((mesh - np.array(mu)) ** 2).sum(axis=-1)
            return np.exp(-sq / (2.0 * s)) / (2.0 * np.pi * s) ** (len(mu) / 2)

        integral = white(mu_v, s_v) * white(mu_w, s_w)
        for _ in mu_v:
            integral = np.trapezoid(integral, y, axis=0)
        assert log_white_overlap(mu_v, mu_w, s_v, s_w) == pytest.approx(np.log(integral),
                                                                        abs=1e-12)

    def test_quadrature_analytic(self):
        est = oracle_J([[1.0]], [[1.0]], np.array([0.7]), np.array([1.3]), T1, 1.0)
        assert est.mode == "quadrature"
        assert est.se_log == 0.0
        assert est.value == pytest.approx(1.0 / np.sqrt(4.0 * np.pi), rel=1e-8)

    @pytest.mark.parametrize("seed,num_nodes,taps,codeword_len,rank", [
        (0, 2, 1, 1, 1), (1, 2, 1, 2, 1), (2, 3, 1, 1, 1),
        (3, 2, 2, 1, 1), (4, 1, 2, 1, 2), (5, 2, 1, 2, 1),
    ])
    def test_quadrature_matches_closed_form(self, seed, num_nodes, taps, codeword_len, rank):
        rng = np.random.default_rng(200 + seed)
        v, w, h1, a, t, s2 = random_instance(rng, num_nodes, taps, codeword_len, rank)
        est = oracle_J(v, w, h1, a, t, s2)
        assert est.mode == "quadrature"
        cf = overlap_J(v, w, h1, a, t, s2)
        assert abs(np.exp(cf - est.log_value) - 1.0) < 1e-4

    @pytest.mark.parametrize("seed,num_nodes,taps,codeword_len", [
        (0, 3, 2, 2), (1, 2, 2, 2), (2, 3, 1, 4), (3, 3, 4, 1), (4, 2, 1, 3),
        (5, 2, 5, 1), (6, 4, 1, 1),     # M N = 5 and I = 4: no size limit
    ])
    def test_mc_matches_closed_form(self, seed, num_nodes, taps, codeword_len):
        rng = np.random.default_rng(300 + seed)
        v, w, h1, a, t, s2 = random_instance(rng, num_nodes, taps, codeword_len)
        est = oracle_J(v, w, h1, a, t, s2, mode="mc", rng=np.random.default_rng(seed))
        cf = overlap_J(v, w, h1, a, t, s2)
        assert est.mode == "mc" and est.se_log > 0.0
        assert abs(cf - est.log_value) < 3.0 * est.se_log

    def test_mc_symmetric(self):
        rng = np.random.default_rng(44)
        v, w, h1, a, t, s2 = random_instance(rng, 2, 2, 2)
        e1 = oracle_J(v, w, h1, a, t, s2, mode="mc", rng=np.random.default_rng(1))
        e2 = oracle_J(w, v, h1, a, t, s2, mode="mc", rng=np.random.default_rng(2))
        z = abs(e1.log_value - e2.log_value) / np.hypot(e1.se_log, e2.se_log)
        assert z < 3.0

    def test_guards(self):
        rng = np.random.default_rng(55)
        v, w, h1, a, t, s2 = random_instance(rng, 3, 2, 2)
        with pytest.raises(InvalidParameterError):
            oracle_J(v, w, h1, a, t, s2, mode="quadrature")  # (I-1) rank(T) = 4
