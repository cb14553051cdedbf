"""Symmetries of the model: rescalings that leave every SNR unchanged must
leave both rates unchanged up to rounding, and relabelling the interferers
must leave them unchanged within the Monte-Carlo error.

The received power is P_tx b l^-alpha and the noise is sigma_W^2, so each
bound reads only their ratios. Scaling power and noise together, moving a
factor between P_tx and b, or scaling every distance by 2 while b absorbs
2^alpha changes no ratio, and the interferers enter only as a set. These
hold for any estimand of the current model, so they guard the rates against
changes that are meant to move the numbers.
"""

import dataclasses
import math

import pytest

from uwbbounds.bounds import lower_bound, upper_bound
from uwbbounds.model import ScenarioConfig

# the desk instance with two interferers, at budgets that run in well under a second
DESK_I3 = ScenarioConfig(codeword_len=40, taps=3, num_nodes=3, duty_cycles=(0.5, 0.3, 0.4),
                         interferer_distances_m=(2.0, 10.0), samples_theta=200,
                         samples_pd=50, samples_upper=2000, seed=5)


def scale_power_and_noise(cfg, k):
    return dataclasses.replace(cfg, tx_power_w=cfg.tx_power_w * k,
                               noise_var_w=cfg.noise_var_w * k)


def move_factor_into_pathloss(cfg):
    return dataclasses.replace(cfg, tx_power_w=cfg.tx_power_w / 8,
                               pathloss_b=cfg.pathloss_b * 8)


def double_distances(cfg):
    return dataclasses.replace(
        cfg, link_distance_m=2 * cfg.link_distance_m,
        interferer_distances_m=tuple(2 * d for d in cfg.interferer_distances_m),
        pathloss_b=cfg.pathloss_b * 2 ** cfg.pathloss_alpha)


SYMMETRIES = {
    "power-and-noise-1e-6": lambda cfg: scale_power_and_noise(cfg, 1e-6),
    "power-and-noise-1e3": lambda cfg: scale_power_and_noise(cfg, 1e3),
    "power-into-pathloss": move_factor_into_pathloss,
    "distances-doubled": double_distances,
}


@pytest.mark.parametrize("symmetry", SYMMETRIES)
@pytest.mark.parametrize("estimator", [lower_bound, upper_bound])
@pytest.mark.parametrize("h1_mode", ["fixed-draw", "averaged"])
def test_rates_are_invariant_under_snr_preserving_rescaling(symmetry, estimator, h1_mode):
    cfg = dataclasses.replace(DESK_I3, h1_mode=h1_mode)
    moved = SYMMETRIES[symmetry](cfg)
    assert moved != cfg
    rate = estimator(cfg).rate
    assert rate > 0.0 and abs(estimator(moved).rate - rate) <= 1e-12


def swap_interferers(cfg):
    """Interferers 2 and 3 trade places, each with its own eta and d."""
    eta1, eta2, eta3 = cfg.duty_cycles
    d2, d3 = cfg.interferer_distances_m
    return dataclasses.replace(cfg, duty_cycles=(eta1, eta3, eta2),
                               interferer_distances_m=(d3, d2))


@pytest.mark.parametrize("h1_mode", ["fixed-draw", "averaged"])
def test_rates_are_invariant_under_interferer_permutation(h1_mode):
    # the interferers enter only as a set: relabelling them changes the
    # estimand of neither bound, but it reorders the lower bound's symbol
    # rows, so its draws differ and the rates agree within the gate's
    # 3 combined 95% half-widths; the upper bound reads no interferer at all
    cfg = dataclasses.replace(DESK_I3, h1_mode=h1_mode)
    swapped = swap_interferers(cfg)
    assert swapped != cfg
    assert upper_bound(swapped) == upper_bound(cfg)
    lo, lo_swapped = lower_bound(cfg), lower_bound(swapped)
    assert lo.rate > 0.0
    assert abs(lo_swapped.rate - lo.rate) <= 3.0 * math.hypot(lo.ci_halfwidth,
                                                               lo_swapped.ci_halfwidth)
