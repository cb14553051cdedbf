"""Pathloss, amplitudes, tap covariance, and sampler behavior."""

import math
import types

import numpy as np
import pytest

from uwbbounds.mc import PAIR_OVERLAP, substream
from uwbbounds.model import (InvalidParameterError, InvalidTypeError, ScenarioConfig,
                             sample_channel, sample_symbols)

EDGE_ETAS = (1e-9, 0.2, 0.5, 1.0 - 2.0 ** -53)


def received(cfg: ScenarioConfig) -> np.ndarray:
    """eta_i A_i^2: the average received power P_tx b l_i^-alpha of each node."""
    return np.array(cfg.duty_cycles) * cfg.amplitudes() ** 2


def one_meter(tx_power_w: float, duty_cycles=(0.5, 0.5)) -> ScenarioConfig:
    """Every node at 1 m with b = 1: the received power is tx_power_w."""
    return ScenarioConfig(tx_power_w=tx_power_w, pathloss_b=1.0, link_distance_m=1.0,
                          interferer_distances_m=(1.0,), duty_cycles=duty_cycles)


class TestPathloss:
    def test_unit_distance(self):
        # l = 1: power is just P_tx * b
        p = received(ScenarioConfig(link_distance_m=1.0))[0]
        assert p == pytest.approx(10**-9.5, rel=1e-12)

    def test_office_distance(self):
        # 1e-4 * 10^-5.5 * 3^-3.3
        assert received(ScenarioConfig(link_distance_m=3.0))[0] == pytest.approx(
            8.42346e-12, rel=1e-5)

    def test_far_distance(self):
        # log10 P = -9.5 - 3.3*2 = -16.1
        p = received(ScenarioConfig(link_distance_m=100.0))[0]
        assert p == pytest.approx(10**-16.1, rel=1e-12)

    def test_monotone_in_distance(self):
        p = received(ScenarioConfig(num_nodes=4, duty_cycles=(0.5,) * 4, link_distance_m=1.0,
                                    interferer_distances_m=(2.0, 5.0, 50.0)))
        assert all(a > b for a, b in zip(p, p[1:]))

    def test_rejects_bad_domain(self):
        with pytest.raises(InvalidParameterError):
            ScenarioConfig(link_distance_m=0.0)
        with pytest.raises(InvalidParameterError):
            ScenarioConfig(tx_power_w=-1e-4)


class TestPulseAmplitude:
    def test_frozen_value(self):
        assert one_meter(8e-12).amplitudes()[0] == pytest.approx(4e-6, rel=1e-12)

    def test_sparser_is_larger(self):
        dense, sparse = one_meter(1e-12, duty_cycles=(0.9, 0.1)).amplitudes()
        assert sparse == pytest.approx(3.0 * dense, rel=1e-12)

    def test_power_roundtrip(self):
        # eta * A^2 must reconstruct the average power
        a = one_meter(7.3e-13, duty_cycles=(0.14, 0.5)).amplitudes()[0]
        assert 0.14 * a**2 == pytest.approx(7.3e-13, rel=1e-12)

    def test_rejects_degenerate_duty(self):
        for eta in (0.0, 1.0, -0.2):
            with pytest.raises(InvalidParameterError):
                one_meter(1e-12, duty_cycles=(eta, 0.5))


class TestTapCovariance:
    """ScenarioConfig.tap_covariance: the tap variances t, the diagonal of T."""

    def test_two_tap_profile(self):
        # weights (2, 1) scaled to sum 1 -> (2/3, 1/3)
        t = ScenarioConfig(taps=2, captured_energy_fraction=1.0,
                           total_path_count=2).tap_covariance()
        np.testing.assert_allclose(t, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

    def test_trace_is_captured_fraction(self):
        t = ScenarioConfig(taps=5, captured_energy_fraction=0.14,
                           total_path_count=68).tap_covariance()
        assert t.shape == (5,)
        assert t.sum() == pytest.approx(0.14, rel=1e-14)

    def test_decaying_diagonal(self):
        d = ScenarioConfig().tap_covariance()
        assert all(a > b > 0.0 for a, b in zip(d, d[1:]))

    def test_rejects_short_profile(self):
        with pytest.raises(InvalidParameterError, match="total_path_count"):
            ScenarioConfig(taps=5, total_path_count=4)

    @pytest.mark.parametrize("fraction", [0.0, 1.5])
    def test_rejects_captured_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(InvalidParameterError, match="captured_energy_fraction"):
            ScenarioConfig(captured_energy_fraction=fraction)


class TestSamplers:
    def test_zero_covariance_channel(self):
        [h] = sample_channel(np.zeros(4), np.random.default_rng(0), 1)
        np.testing.assert_array_equal(h, np.zeros(4))

    def test_symbol_rate(self):
        rng = np.random.default_rng(12)
        u = sample_symbols(np.array([0.3]), 200_000, rng, 1)
        assert u.shape == (1, 1, 200_000)
        assert set(np.unique(u)) <= {0.0, 1.0}
        assert u.mean() == pytest.approx(0.3, abs=0.01)

    @pytest.mark.parametrize("eta", EDGE_ETAS)
    def test_symbols_are_the_uniform_comparison_bit_for_bit(self, eta):
        # a block shape whose word count is not a multiple of Philox's 4-word
        # buffer: the next block starts mid-buffer on both paths
        shape, etas = (37, 2, 11), np.array([eta, 0.3])
        raw, uniform = substream(7, PAIR_OVERLAP, 3), substream(7, PAIR_OVERLAP, 3)
        on = sample_symbols(etas, shape[2], raw, shape[0])
        assert on.dtype == bool
        np.testing.assert_array_equal(on, uniform.random(shape) < etas[:, None])
        np.testing.assert_equal(raw.bit_generator.state, uniform.bit_generator.state)
        np.testing.assert_array_equal(sample_symbols(etas, 5, raw, 3),
                                      uniform.random((3, 2, 5)) < etas[:, None])

    @pytest.mark.parametrize("eta", EDGE_ETAS)
    def test_symbol_threshold_is_exact_at_the_word_boundary(self, eta):
        # the last word below ceil(eta 2^53) 2^11 is on and the first at it is
        # off, as (w >> 11) 2^-53 < eta decides them
        limit = math.ceil(eta * 2.0 ** 53) << 11
        words = [limit - 1, limit]
        assert [(w >> 11) * 2.0 ** -53 < eta for w in words] == [True, False]
        bits = types.SimpleNamespace(random_raw=lambda shape: np.array(
            words, dtype=np.uint64).reshape(shape))
        on = sample_symbols(np.array([eta]), 2, types.SimpleNamespace(bit_generator=bits), 1)
        assert on.tolist() == [[[True, False]]]

    def test_block_draws(self):
        # one call draws a whole block: a leading sample axis, per-row duty cycles
        rng = np.random.default_rng(15)
        u = sample_symbols(np.array([0.2, 0.7]), 2000, rng, 50)
        assert u.shape == (50, 2, 2000)
        np.testing.assert_allclose(u.mean(axis=(0, 2)), [0.2, 0.7], atol=0.01)
        t = ScenarioConfig(taps=3, captured_energy_fraction=0.5,
                           total_path_count=10).tap_covariance()
        h = sample_channel(t, rng, samples=40_000)
        assert h.shape == (40_000, 3)
        np.testing.assert_allclose(h.T @ h / h.shape[0], np.diag(t), atol=0.05 * t.sum())


class TestScenarioConfig:
    def test_defaults_are_consistent(self):
        cfg = ScenarioConfig()
        assert cfg.num_nodes == 2
        assert cfg.tap_covariance().sum() == pytest.approx(0.14, rel=1e-14)
        a = cfg.amplitudes()
        assert a.shape == (2,)
        # interferer at 10 m is weaker than the 3 m link at equal duty cycle
        assert a[1] < a[0]

    def test_amplitude_values(self):
        cfg = ScenarioConfig()
        a1 = np.sqrt(1e-4 * 10**-5.5 * 3.0**-3.3 / 0.5)
        assert cfg.amplitudes()[0] == pytest.approx(a1, rel=1e-14)

    def test_channel_in_each_mode(self):
        # fixed-draw without h1: the draw keyed by the seed, byte for byte
        drawn = ScenarioConfig(seed=3).channel()
        assert drawn.tolist() == [
            0.21121163778865962, -0.017396916550183897, -0.1566288438030948,
            0.07174663954732415, -0.4892389838071768]
        assert np.array_equal(ScenarioConfig(seed=3, samples_upper=7).channel(), drawn)
        assert not np.array_equal(ScenarioConfig(seed=4).channel(), drawn)
        # an explicit h1 is the channel, whatever the seed
        assert ScenarioConfig(taps=2, h1=(0.3, -0.2), seed=3).channel().tolist() == [0.3, -0.2]
        # averaged mode integrates h1 out: no channel
        assert ScenarioConfig(h1_mode="averaged", seed=3).channel() is None

    def test_seeded_channel_must_give_a_finite_codeword_snr(self):
        # without h1 the rule applies to the draw keyed by the seed, which
        # would overflow the kernel's codeword SNR at this distance
        with pytest.raises(InvalidParameterError, match=r"^h1 = .* keyed by seed 0"):
            ScenarioConfig(link_distance_m=6e-93, samples_theta=50, samples_pd=50,
                           samples_upper=500)
        # a small enough given channel passes, and averaged mode has no channel
        ScenarioConfig(link_distance_m=6e-93, h1=(1e-20,) * 5)
        ScenarioConfig(link_distance_m=6e-93, h1_mode="averaged")

    def test_field_validation_names_field(self):
        with pytest.raises(InvalidParameterError, match="codeword_len"):
            ScenarioConfig(codeword_len=0)
        with pytest.raises(InvalidParameterError, match="duty_cycles"):
            ScenarioConfig(duty_cycles=(0.5,))
        with pytest.raises(InvalidParameterError, match="h1_mode"):
            ScenarioConfig(h1_mode="frozen")
        with pytest.raises(InvalidParameterError, match="interferer_distances_m"):
            ScenarioConfig(interferer_distances_m=())

    @pytest.mark.parametrize("name, value", [
        ("seed", 1.5), ("seed", True), ("num_nodes", True),
        ("codeword_len", 40.0), ("taps", np.float64(3.0)), ("total_path_count", 68.0),
        ("samples_theta", 100.0), ("samples_pd", 1e3), ("samples_upper", np.bool_(True)),
    ])
    def test_integer_fields_reject_non_integers(self, name, value):
        with pytest.raises(InvalidTypeError, match=f"{name} must be an integer"):
            ScenarioConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("link_distance_m", np.nan), ("noise_var_w", np.inf), ("tx_power_w", -np.inf),
        ("pathloss_alpha", np.nan), ("captured_energy_fraction", np.nan),
        ("duty_cycles", (0.5, np.nan)), ("interferer_distances_m", (np.inf,)),
    ])
    def test_float_fields_reject_non_finite(self, name, value):
        with pytest.raises(InvalidParameterError, match=f"{name} must be finite"):
            ScenarioConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("link_distance_m", "3"), ("noise_var_w", None), ("tx_power_w", True),
        ("pathloss_b", np.bool_(True)), ("duty_cycles", ("0.5", 0.5)),
        ("interferer_distances_m", ("x",)), ("interferer_distances_m", (None,)),
        ("duty_cycles", 0.5), ("interferer_distances_m", None),
        pytest.param("link_distance_m", 10 ** 400, id="link_distance_m-huge-int"),
    ])
    def test_float_fields_reject_non_numbers(self, name, value):
        with pytest.raises(InvalidParameterError, match=f"{name} must be a real number"):
            ScenarioConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("h1_mode", 5), ("h1_mode", None), ("link_distance_m", "3"),
        ("duty_cycles", {"a": 0.5}), ("interferer_distances_m", {}),
        ("interferer_distances_m", ""), ("duty_cycles", np.array([[0.5, 0.5]])),
    ])
    def test_wrong_kinds_are_type_errors(self, name, value):
        # a JSON object or string must not pass for a sequence, even an empty one
        with pytest.raises(InvalidTypeError, match=name):
            ScenarioConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("link_distance_m", 10 ** 400), ("link_distance_m", np.nan), ("taps", 0),
        ("h1_mode", "frozen"), ("duty_cycles", (0.5, 1.0)),
    ])
    def test_values_out_of_range_are_not_type_errors(self, name, value):
        with pytest.raises(InvalidParameterError, match=name) as excinfo:
            ScenarioConfig(**{name: value})
        assert not isinstance(excinfo.value, InvalidTypeError)

    def test_float_fields_accept_numpy_and_int_entries(self):
        cfg = ScenarioConfig(link_distance_m=np.float32(2.5),
                             duty_cycles=[np.float64(0.25), 1 / 2],
                             interferer_distances_m=np.array([4]))
        assert cfg.duty_cycles == (0.25, 0.5) and cfg.interferer_distances_m == (4.0,)

    def test_integer_fields_accept_numpy_integers(self):
        cfg = ScenarioConfig(codeword_len=np.int32(40), seed=np.uint64(7))
        assert cfg.codeword_len == 40 and cfg.seed == 7
        assert type(cfg.codeword_len) is int and type(cfg.seed) is int

    def test_single_node(self):
        cfg = ScenarioConfig(num_nodes=1, duty_cycles=(0.5,), interferer_distances_m=())
        assert cfg.amplitudes().shape == (1,)

    def test_frozen(self):
        cfg = ScenarioConfig()
        with pytest.raises(AttributeError):
            cfg.codeword_len = 10
