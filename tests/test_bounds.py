"""Bound estimators: exact small-instance identities, distributional
properties of the overlap strata, and the determinism contract."""

import dataclasses

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gammaln, logsumexp

import uwbbounds.bounds
from uwbbounds.bounds import UPPER_INFO, log_distance_probs, lower_bound, upper_bound
from uwbbounds.gaussian import log_gauss_lowrank
from uwbbounds.mc import Z95, LogAccumulator, substream
from uwbbounds.model import InvalidParameterError, InvalidTypeError, ScenarioConfig, sample_channel

from reference import genie_information, overlap_log_samples


def small_config(**overrides):
    base = dict(codeword_len=10, taps=3, duty_cycles=(0.5, 0.5),
                interferer_distances_m=(4.0,), samples_theta=300,
                samples_pd=300, samples_upper=4000, seed=9)
    base.update(overrides)
    return ScenarioConfig(**base)


def single_pulse_config(eta=0.5, sigma2=0.8, power=2.0):
    # pathloss b = alpha = l = 1 makes the received power equal tx_power_w
    return ScenarioConfig(
        num_nodes=1, codeword_len=1, taps=1, duty_cycles=(eta,),
        tx_power_w=power, pathloss_b=1.0, pathloss_alpha=1.0,
        link_distance_m=1.0, interferer_distances_m=(), noise_var_w=sigma2,
        captured_energy_fraction=1.0, total_path_count=1,
        samples_theta=16, samples_pd=16, samples_upper=64, seed=0)


def same_estimate(a, b):
    """Field equality that tolerates the numpy arrays inside the profile."""
    if (a.rate, a.ci_halfwidth, a.samples_used, a.kind) != \
            (b.rate, b.ci_halfwidth, b.samples_used, b.kind):
        return False
    if (a.profile is None) != (b.profile is None):
        return False
    if a.profile is None:
        return True
    pa, pb = a.profile, b.profile
    return all(np.array_equal(getattr(pa, f), getattr(pb, f))
               for f in ("log_pd", "se_log_pd", "log_distance_probs",
                         "log_sum", "se_log_sum", "qq_ratio"))


# ---------------------------------------------------------------- distance law


def test_distance_distribution_frozen_values():
    probs = np.exp(log_distance_probs(2, 0.5))
    assert np.allclose(probs, [0.25, 0.5, 0.25], atol=1e-15)
    probs = np.exp(log_distance_probs(3, 0.25))
    # flip = 2 * 0.25 * 0.75 = 0.375; P(1) = 3 * 0.375 * 0.625^2
    assert probs[1] == pytest.approx(0.439453125, abs=1e-15)


def test_distance_distribution_normalized():
    for n, eta in [(1, 0.5), (7, 0.1), (40, 0.3), (80, 0.5)]:
        log_probs = log_distance_probs(n, eta)
        assert np.exp(log_probs).sum() == pytest.approx(1.0, abs=1e-12)
        assert logsumexp(log_probs) == pytest.approx(0.0, abs=1e-12)


def test_distance_distribution_matches_enumeration():
    n = 6
    for eta in (0.1, 0.25, 0.5):
        probs = np.zeros(n + 1)
        for v in range(2 ** n):
            ones_v = bin(v).count("1")
            pv = eta ** ones_v * (1.0 - eta) ** (n - ones_v)
            for w in range(2 ** n):
                ones_w = bin(w).count("1")
                pw = eta ** ones_w * (1.0 - eta) ** (n - ones_w)
                probs[bin(v ^ w).count("1")] += pv * pw
        assert np.allclose(np.exp(log_distance_probs(n, eta)), probs, atol=1e-13)


@pytest.mark.parametrize("n", [1, 80, 1000, 10_000])
@pytest.mark.parametrize("eta", [0.01, 0.2, 0.5])
def test_distance_distribution_matches_gammaln(n, eta):
    d = np.arange(n + 1)
    flip = 2.0 * eta * (1.0 - eta)
    expect = (gammaln(n + 1) - gammaln(d + 1) - gammaln(n - d + 1)
              + d * np.log(flip) + (n - d) * np.log1p(-flip))
    # ln C(n, d) is a difference of terms as large as ln n!, and either side
    # rounds each of them: a few ulps of ln n! on top of rel 1e-12
    np.testing.assert_allclose(log_distance_probs(n, eta), expect, rtol=1e-12,
                               atol=8 * np.spacing(gammaln(n + 1)))


# ----------------------------------------------------- exact single-node chain


def test_single_pulse_estimates_match_closed_form():
    eta, sigma2, power = 0.5, 0.8, 2.0
    cfg = single_pulse_config(eta, sigma2, power)
    h1 = np.array([0.7])
    a1 = np.sqrt(power / eta)
    gamma = (a1 * h1[0]) ** 2 / (4.0 * sigma2)

    prof = lower_bound(dataclasses.replace(cfg, h1=tuple(h1))).profile
    log_theta, se_theta = prof.log_pd[0], prof.se_log_pd[0]
    assert log_theta == pytest.approx(-0.5 * np.log(4.0 * np.pi * sigma2), abs=1e-12)
    assert se_theta <= 1e-6

    log_p1, se_p1 = prof.log_pd[1], prof.se_log_pd[1]
    assert log_p1 == pytest.approx(log_theta - gamma, abs=1e-12)
    assert se_p1 <= 1e-6


def test_single_pulse_lower_bound_matches_closed_form():
    eta, sigma2, power = 0.5, 0.8, 2.0
    cfg = single_pulse_config(eta, sigma2, power)
    h1 = np.array([0.7])
    gamma = (power / eta) * h1[0] ** 2 / (4.0 * sigma2)
    p0 = eta ** 2 + (1.0 - eta) ** 2
    likelihood = p0 + (1.0 - p0) * np.exp(-gamma)

    est = lower_bound(dataclasses.replace(cfg, h1=tuple(h1)))
    assert est.kind == "lower"
    assert est.rate == pytest.approx(-np.log2(likelihood), abs=1e-12)
    assert est.ci_halfwidth <= 1e-6
    assert est.profile is not None
    assert est.samples_used == cfg.samples_theta + cfg.samples_pd


def test_log_pd_linear_in_d_without_interferers():
    # one transmitter: ln p(d) = ln theta - d * A1^2 ||h||^2 / (4 sigma^2)
    cfg = single_pulse_config()
    cfg = dataclasses.replace(cfg, codeword_len=6, taps=2, total_path_count=2,
                              captured_energy_fraction=0.9)
    h1 = np.array([0.8, -0.5])
    slope = (cfg.tx_power_w / cfg.duty_cycles[0]) * float(h1 @ h1) / (4.0 * cfg.noise_var_w)
    prof = lower_bound(dataclasses.replace(cfg, h1=tuple(h1))).profile
    log_theta = prof.log_pd[0]
    for d in range(cfg.codeword_len + 1):
        log_pd, se = prof.log_pd[d], prof.se_log_pd[d]
        assert se <= 1e-6
        assert log_pd == pytest.approx(log_theta - d * slope, abs=1e-10)


# ------------------------------------------------------- stratum properties


def test_theta_equals_distance_zero_stratum_exactly():
    # the sum's numerator averages the same draws as the strata and its
    # denominator theta is the d = 0 stratum, so the sum is their ratio
    prof = lower_bound(small_config()).profile
    assert prof.log_sum == pytest.approx(
        logsumexp(prof.log_distance_probs + prof.log_pd) - prof.log_pd[0], abs=1e-12)


def test_theta_ignores_h1_exactly():
    # the distance-0 overlap has zero mean difference, so h1 cancels
    cfg = small_config()
    p_a = lower_bound(dataclasses.replace(cfg, h1=(0.5, -0.2, 0.1))).profile
    p_b = lower_bound(dataclasses.replace(cfg, h1=(3.0, 1.0, -2.0))).profile
    assert (p_a.log_pd[0], p_a.se_log_pd[0]) == (p_b.log_pd[0], p_b.se_log_pd[0])


def test_pd_at_most_theta():
    cfg = small_config()
    prof = lower_bound(dataclasses.replace(cfg, h1=tuple(cfg.channel()))).profile
    log_theta, se_theta = prof.log_pd[0], prof.se_log_pd[0]
    for d in (1, 3, 7, 10):
        log_pd, se_pd = prof.log_pd[d], prof.se_log_pd[d]
        assert log_pd <= log_theta + 3.0 * np.hypot(se_pd, se_theta)


def test_pd_depends_only_on_distance_not_placement():
    # averaging over interferer codewords leaves only the Hamming distance
    cfg = small_config(codeword_len=12, interferer_distances_m=(2.0,),
                       samples_pd=1500)
    h1 = cfg.channel()
    prof = lower_bound(dataclasses.replace(cfg, h1=tuple(h1))).profile
    rng = np.random.default_rng(77)
    # as many draws as the lower bound's pass averages, so both sides share one budget
    budget = cfg.samples_theta + cfg.codeword_len * cfg.samples_pd
    for d, scattered in [(1, [5]), (3, [2, 7, 11])]:
        leading = np.zeros(cfg.codeword_len)
        leading[:d] = 1.0
        other = np.zeros(cfg.codeword_len)
        other[scattered] = 1.0
        acc_a = LogAccumulator.from_log_values(
            overlap_log_samples(cfg, h1, leading, budget, rng))
        acc_b = LogAccumulator.from_log_values(
            overlap_log_samples(cfg, h1, other, budget, rng))
        combined = 1.96 * np.hypot(acc_a.se_log_mean, acc_b.se_log_mean)
        assert abs(acc_a.log_mean - acc_b.log_mean) <= combined
        # and the stratum estimator agrees with the leading placement
        log_pd, se_pd = prof.log_pd[d], prof.se_log_pd[d]
        combined = 1.96 * np.hypot(acc_a.se_log_mean, se_pd)
        assert abs(acc_a.log_mean - log_pd) <= combined


def test_far_interferer_matches_interferer_free():
    cfg = small_config(codeword_len=40, samples_theta=600, samples_pd=600,
                       interferer_distances_m=(1000.0,), seed=5)
    cfg = dataclasses.replace(cfg, h1=tuple(cfg.channel()))
    far = lower_bound(cfg)
    alone = lower_bound(dataclasses.replace(cfg, num_nodes=1, duty_cycles=(0.5,),
                                            interferer_distances_m=()))
    assert far.rate == pytest.approx(alone.rate, abs=1e-6)


# ------------------------------------------------------------- determinism


def test_same_seed_reproduces_bits():
    cfg = small_config()
    assert same_estimate(lower_bound(cfg), lower_bound(cfg))
    assert upper_bound(cfg) == upper_bound(cfg)
    # on one channel, another seed gives other sampling streams
    drawn = dataclasses.replace(cfg, h1=tuple(cfg.channel()))
    assert not same_estimate(lower_bound(dataclasses.replace(drawn, seed=3)),
                             lower_bound(dataclasses.replace(drawn, seed=4)))


def test_default_h1_is_the_seeded_draw():
    cfg = small_config()
    drawn = dataclasses.replace(cfg, h1=tuple(cfg.channel()))
    assert same_estimate(lower_bound(cfg), lower_bound(drawn))
    assert cfg.channel().shape == (cfg.taps,)
    assert not np.array_equal(cfg.channel(), dataclasses.replace(cfg, seed=1).channel())
    # a set h1 outlives a new seed; without h1 the seed draws another channel
    assert np.array_equal(dataclasses.replace(drawn, seed=4).channel(), drawn.channel())
    assert not np.array_equal(dataclasses.replace(cfg, seed=4).channel(), cfg.channel())


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "3", np.float64(2.0)])
def test_bad_seed_is_a_named_error(seed):
    # the rule of ScenarioConfig.seed: an int, not a bool, in [0, 2^64); the
    # estimators read no seed but the scenario's
    with pytest.raises(InvalidParameterError, match="seed"):
        dataclasses.replace(small_config(), seed=seed)


def test_channel_draws_are_pinned():
    # one averaged-mode upper block, byte for byte: how sample_channel maps
    # the seeded normals to taps fixes every seeded rate (the fixed draw is
    # pinned in test_model's channel test)
    cfg = ScenarioConfig(taps=3, h1_mode="averaged", seed=3)
    block = sample_channel(cfg.tap_covariance(), substream(3, UPPER_INFO, index=0), 2)
    assert block.tolist() == [
        [0.09048480023818395, 0.15894533821932333, -0.1285050507367921],
        [0.00727667035362312, 0.07587471165239093, 0.1633482784413054]]


def test_seed_accepts_the_u64_range():
    cfg = small_config()
    assert np.array_equal(dataclasses.replace(cfg, seed=np.uint64(5)).channel(),
                          dataclasses.replace(cfg, seed=5).channel())
    assert dataclasses.replace(cfg, seed=2**64 - 1).channel().shape == (cfg.taps,)
    drawn = dataclasses.replace(cfg, h1=tuple(cfg.channel()))
    assert upper_bound(dataclasses.replace(drawn, seed=np.uint64(5))) == \
        upper_bound(dataclasses.replace(drawn, seed=5))
    assert upper_bound(dataclasses.replace(drawn, seed=2**64 - 1)).samples_used == \
        cfg.samples_upper


def test_averaged_mode_integrates_h1_in_closed_form(monkeypatch):
    cfg = small_config(h1_mode="averaged", samples_theta=200, samples_pd=200,
                       samples_upper=500)
    monkeypatch.setattr(uwbbounds.bounds, "sample_channel",
                        lambda *args: pytest.fail("the averaged lower bound drew h1"))
    est = lower_bound(cfg)
    assert est.rate >= 0.0 and np.isfinite(est.rate)
    # without interferers every draw gives the same exact profile
    # ln J_0 - sum_a log1p(A_1^2 t_a d / sigma^2) / 2, so the CI is 0
    alone_cfg = dataclasses.replace(cfg, num_nodes=1, duty_cycles=(0.5,),
                                    interferer_distances_m=())
    alone = lower_bound(alone_cfg)
    assert alone.ci_halfwidth == 0.0 and np.all(alone.profile.se_log_pd == 0.0)
    noise_var = 2.0 * alone_cfg.noise_var_w
    gain = alone_cfg.amplitudes()[0] ** 2 * alone_cfg.tap_covariance() / noise_var
    d = np.arange(alone_cfg.codeword_len + 1)
    dim = alone_cfg.taps * alone_cfg.codeword_len
    want = (-0.5 * dim * np.log(2.0 * np.pi * noise_var)
            - 0.5 * np.log1p(np.outer(d, gain)).sum(axis=1))
    np.testing.assert_allclose(alone.profile.log_pd, want, rtol=1e-12)
    # a channel is fixed-draw only: averaged mode rejects one
    with pytest.raises(InvalidParameterError, match="h1"):
        dataclasses.replace(cfg, h1=(0.3, 0.2, -0.1))


# --------------------------------------------------------------- lower bound


def test_lower_bound_profile_accounting():
    cfg = small_config()
    est = lower_bound(cfg)
    prof = est.profile
    n = cfg.codeword_len
    assert prof.log_pd.shape == prof.se_log_pd.shape == (n + 1,)
    assert est.samples_used == cfg.samples_theta + n * cfg.samples_pd
    assert prof.log_distance_probs.shape == (n + 1,)
    assert est.rate == max(0.0, -prof.log_sum / (n * np.log(2.0)))
    assert -1.0 <= prof.qq_ratio <= 1.0


def test_lower_bound_reductions_match_stacked_samples(monkeypatch):
    # 10 + 10 * 130 = 1310 draws: two full blocks and a partial third
    cfg = small_config(samples_theta=10, samples_pd=130)
    assert 2 * uwbbounds.bounds.BLOCK < cfg.samples_theta + 10 * cfg.samples_pd \
        < 3 * uwbbounds.bounds.BLOCK
    blocks = []

    def recording(*args):
        out = log_gauss_lowrank(*args)
        blocks.append(out.copy())
        return out

    monkeypatch.setattr(uwbbounds.bounds, "log_gauss_lowrank", recording)
    prof = lower_bound(cfg).profile
    assert len(blocks) == 3
    log_j = np.concatenate(blocks)
    strata = [LogAccumulator.from_log_values(col) for col in log_j.T]
    np.testing.assert_allclose(prof.log_pd, [acc.log_mean for acc in strata], rtol=1e-12)
    np.testing.assert_allclose(prof.se_log_pd, [acc.se_log_mean for acc in strata],
                               rtol=1e-12)
    # ln mean(e^T) - ln mean(e^D), T = ln sum_d P(d) J_d and D = ln J_0
    direct = logsumexp(logsumexp(prof.log_distance_probs + log_j, axis=1)) \
        - logsumexp(log_j[:, 0])
    assert prof.log_sum == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("estimator", [lower_bound, upper_bound])
@pytest.mark.parametrize("shape", ["long", "short", "matrix", "nan", "ragged", "strings",
                                   "booleans", "mixed-string", "mixed-boolean"])
def test_bad_h1_is_a_named_error(estimator, shape):
    # the channel is scenario data: ScenarioConfig rejects a bad one, so no
    # estimator ever receives it
    cfg = small_config()
    taps = cfg.taps
    h1 = {"long": np.ones(taps + 4), "short": np.ones(taps - 1),
          "matrix": np.ones((2, taps)), "nan": [1.0, np.nan, 0.0],
          "ragged": [[1.0], [2.0, 3.0]],
          # numpy reads each of these as floats, but a tap is no string or bool
          "strings": ["0.5", "0.1", "0.2"], "booleans": [True, False, True],
          "mixed-string": [0.5, "0.1", 0.2], "mixed-boolean": [0.5, True, 0.2]}[shape]
    not_real = shape in ("strings", "booleans", "mixed-string", "mixed-boolean")
    with pytest.raises(InvalidTypeError if not_real else InvalidParameterError, match="h1"):
        estimator(dataclasses.replace(cfg, h1=h1))


def ci_coverage(cfg):
    """Share of 100 seeds whose 95% CI covers a 200x-budget estimate; cfg
    pins h1 or averages it, so the seeds vary only the sampling."""
    reference = lower_bound(dataclasses.replace(cfg, samples_theta=20000,
                                                samples_pd=20000, seed=12345))
    estimates = [lower_bound(dataclasses.replace(cfg, seed=seed)) for seed in range(100)]
    return np.mean([abs(e.rate - reference.rate) <= e.ci_halfwidth for e in estimates])


def test_lower_bound_ci_covers_high_budget_rate():
    # replicate study: the delta-method CI of the ratio estimator should
    # cover a 200x-budget estimate about 95% of the time
    cfg = small_config(codeword_len=12, interferer_distances_m=(10.0,),
                       samples_theta=100, samples_pd=100)
    assert 0.85 <= ci_coverage(dataclasses.replace(cfg, h1=tuple(cfg.channel()))) <= 1.0


def test_averaged_lower_bound_ci_covers_high_budget_rate():
    # the same study with h1 integrated out of every draw
    cfg = small_config(codeword_len=12, interferer_distances_m=(10.0,),
                       samples_theta=100, samples_pd=100, h1_mode="averaged")
    assert 0.85 <= ci_coverage(cfg) <= 1.0


def test_bounds_ordered_when_noise_dominates():
    cfg = small_config(codeword_len=40, link_distance_m=8.0,
                       interferer_distances_m=(1.0,), samples_theta=600,
                       samples_pd=600, samples_upper=20000, seed=5)
    cfg = dataclasses.replace(cfg, h1=tuple(cfg.channel()))
    lo = lower_bound(cfg)
    up = upper_bound(cfg)
    assert lo.rate <= up.rate + lo.ci_halfwidth + up.ci_halfwidth


# --------------------------------------------------------------- upper bound


def test_upper_bound_reads_no_interferer_parameter():
    cfg = small_config()
    variants = [
        dataclasses.replace(cfg, interferer_distances_m=(1.0,)),
        dataclasses.replace(cfg, interferer_distances_m=(50.0,)),
        dataclasses.replace(cfg, duty_cycles=(0.5, 0.05)),
        dataclasses.replace(cfg, num_nodes=1, duty_cycles=(0.5,),
                            interferer_distances_m=()),
    ]
    results = {upper_bound(v) for v in variants}
    assert len(results) == 1


@pytest.mark.parametrize("samples_upper", [400, 4000])
def test_upper_bound_ci_is_z95_standard_error(monkeypatch, samples_upper):
    # the lower bound's rule: Z95 times the standard error, at every sample
    # count; a Student-t interval would give a ratio of t_0.975(n - 1) instead
    cfg = small_config(samples_upper=samples_upper)
    real = upper_bound(cfg)
    monkeypatch.setattr(uwbbounds.bounds, "Z95", 1.0)
    unit = upper_bound(cfg)
    assert real.ci_halfwidth / unit.ci_halfwidth == pytest.approx(Z95, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("h1_mode", ["fixed-draw", "averaged"])
@pytest.mark.parametrize("eta", [0.5, 0.2])
def test_lower_bound_saturates_at_its_ceiling(h1_mode, eta):
    # at 1 nm every J_d with d >= 1 is e^-hundreds of J_0, so the sum is P(0)
    # alone: C_l meets -log2 P(0) / N and does not round past it
    cfg = ScenarioConfig(codeword_len=10, taps=3, num_nodes=1, duty_cycles=(eta,),
                         interferer_distances_m=(), link_distance_m=1e-9,
                         h1_mode=h1_mode, samples_theta=100, samples_pd=100)
    est = lower_bound(cfg)
    log_p0 = log_distance_probs(10, eta)[0]
    assert est.rate == -log_p0 / (10 * np.log(2.0))
    assert est.profile.log_sum == log_p0


def test_upper_bound_saturates_at_symbol_entropy():
    for eta in (0.5, 0.3):
        cfg = single_pulse_config(eta=eta, sigma2=1.0, power=1e8)
        cfg = dataclasses.replace(cfg, samples_upper=4000, h1=(1.0,))
        est = upper_bound(cfg)
        entropy = -(eta * np.log2(eta) + (1 - eta) * np.log2(1 - eta))
        assert abs(est.rate - entropy) <= 3.0 * est.ci_halfwidth / 1.96 + 1e-9
        assert est.kind == "upper" and est.profile is None


def test_upper_bound_vanishes_without_signal():
    cfg = single_pulse_config(power=1e-30)
    cfg = dataclasses.replace(cfg, samples_upper=2000, h1=(1.0,))
    est = upper_bound(cfg)
    assert est.rate <= 1e-8


@pytest.mark.parametrize("eta", [0.05, 0.2, 0.5, 0.8])
def test_genie_information_matches_adaptive_quadrature(eta):
    log_eta, log_off = np.log(eta), np.log1p(-eta)
    for snr in np.geomspace(1e-3, 60.0, 9):
        def on(n):      # u = 1: the score turns at n = -snr/2
            return (-np.logaddexp(log_eta, log_off - snr * n - 0.5 * snr * snr)
                    * stats.norm.pdf(n))

        def off(n):     # u = 0: the score turns at n = +snr/2
            return (-np.logaddexp(log_off, log_eta + snr * n - 0.5 * snr * snr)
                    * stats.norm.pdf(n))

        total = sum(prob * integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                    for prob, f, turn in ((eta, on, -snr / 2), (1.0 - eta, off, snr / 2))
                    for lo, hi in ((-np.inf, turn), (turn, np.inf)))
        assert genie_information(eta, snr) == pytest.approx(total / np.log(2.0), abs=1e-8)


@pytest.mark.parametrize("eta", [0.2, 0.5])
@pytest.mark.parametrize("snr", [0.5, 2.0, 4.0])
def test_upper_bound_ci_covers_exact_genie_information(eta, snr):
    # single tap, no interferer: C_u is the on-off information at
    # snr = A_1 |h_1| / sigma, and the 95% CI should cover it about 95% of the time
    cfg = dataclasses.replace(single_pulse_config(eta=eta), samples_upper=4000)
    h1 = np.array([snr * np.sqrt(cfg.noise_var_w) / cfg.amplitudes()[0]])
    cfg = dataclasses.replace(cfg, h1=tuple(h1))
    exact = genie_information(eta, snr)
    covered = [abs(est.rate - exact) <= est.ci_halfwidth
               for est in (upper_bound(dataclasses.replace(cfg, seed=s)) for s in range(40))]
    assert np.mean(covered) >= 0.85
