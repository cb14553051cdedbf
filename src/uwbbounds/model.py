"""Physical layer for a coherent impulse-radio link with impulsive interferers.

Discrete vector channel per symbol slot n:

    r[n] = u_1[n] A_1 h_1 + sum_{i>=2} u_i[n] A_i h_i + z[n]

with on-off symbols u_i[n] ~ Bernoulli(eta_i), tap vectors h_i ~ N(0, T) drawn
once per codeword (the channels stay constant over n), and white receiver
noise z[n] ~ N(0, sigma_W^2 I_M). The taps are independent: T = diag(t), with
linearly decaying tap variances t. The receiver knows h_1 only. Node 1 is the
intended transmitter; nodes 2..I are interferers. Every transmitter runs at
its amplitude cap A_i = sqrt(P_rcv(l_i) / eta_i). `ScenarioConfig.channel()`
is the one source of h_1: with h1_mode "fixed-draw" it is the scenario's h1,
or the draw keyed by its seed when h1 is unset; "averaged" averages over h_1,
leaves h1 unset and has no channel.

ScenarioConfig owns every scenario rule: its constructor is the one place a
value's type (InvalidTypeError) and range (InvalidParameterError) are
checked, a finite float A_i^2 / sigma_W^2 for every node and, for the
fixed-draw channel(), given or drawn, N A_1^2 ||h1||^2 / sigma_W^2 for the
codeword included, so the config loader, the sweep and the estimators only
build one. The samplers
are the estimators' internals: they take the shapes the estimators pass and
re-check nothing ScenarioConfig owns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .mc import H1_DRAW, substream


class InvalidParameterError(ValueError):
    """A physical or configuration parameter is outside its domain."""


class InvalidTypeError(InvalidParameterError, TypeError):
    """A parameter has the wrong type: not an integer, a real number or a string."""


def sample_channel(t: np.ndarray, rng: np.random.Generator, samples: int) -> np.ndarray:
    """`samples` tap vectors h ~ N(0, diag(t)) as rows (samples, M)."""
    # last tap first: the eigen factor of diag(t) this replaced ran in ascending
    # variance, and the reversal keeps every seeded draw byte-identical to it
    return np.sqrt(t) * rng.standard_normal((samples,) + t.shape)[..., ::-1]


def sample_symbols(etas: np.ndarray, codeword_len: int, rng: np.random.Generator,
                   samples: int) -> np.ndarray:
    """`samples` stacks of on-off codeword rows, row j iid Bernoulli(etas[j]),
    as booleans (samples, len(etas), codeword_len).

    Symbol on is a raw 64-bit word w below ceil(eta 2^53) 2^11. The
    generator's random() is (w >> 11) 2^-53 for Philox, so these are the
    booleans of rng.random(shape) < etas, draw for draw, without the floats."""
    limits = np.array([math.ceil(eta * 2.0 ** 53) << 11 for eta in etas], dtype=np.uint64)
    return rng.bit_generator.random_raw((samples, len(etas), codeword_len)) < limits[:, None]


H1_MODES = ("fixed-draw", "averaged")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one link-plus-interferers evaluation point.

    Defaults reproduce the dense-multipath office setup: 0.1 mW transmitters,
    pathloss b * l^-3.3 with b = 10^-5.5, -130 dBW receiver noise, and a
    5-tap receiver capturing 14% of a 68-path linearly decaying profile.
    """

    num_nodes: int = 2                                # I: 1 transmitter + I-1 interferers
    codeword_len: int = 80                            # N symbols per codeword
    taps: int = 5                                     # M receiver taps
    duty_cycles: tuple[float, ...] = (0.5, 0.5)       # eta_i, one per node
    tx_power_w: float = 1e-4                          # P_tx per node [W]
    pathloss_b: float = 10.0 ** -5.5
    pathloss_alpha: float = 3.3
    link_distance_m: float = 3.0                      # transmitter -> receiver
    interferer_distances_m: tuple[float, ...] = (10.0,)
    noise_var_w: float = 1e-13                        # sigma_W^2 per tap
    captured_energy_fraction: float = 0.14            # trace of the tap covariance
    total_path_count: int = 68                        # L of the decay profile
    samples_theta: int = 2000
    samples_pd: int = 2000
    samples_upper: int = 100_000
    seed: int = 0
    h1_mode: str = "fixed-draw"
    h1: tuple[float, ...] | None = None               # intended channel, fixed-draw only

    def __post_init__(self):
        for f in fields(self):      # postponed annotations: f.type is a string
            value = getattr(self, f.name)
            if value is None and f.type.endswith("| None"):
                continue
            if f.type == "int":
                if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                    raise InvalidTypeError(f"{f.name} must be an integer, got {value!r}")
                object.__setattr__(self, f.name, int(value))
            if f.type == "str" and not isinstance(value, str):
                raise InvalidTypeError(f"{f.name} must be a string, got {value!r}")
            if f.type.startswith(("int", "float", "tuple")):      # every number in float range
                sequence = f.type.startswith("tuple")
                # a list, tuple or 1-d array; a str or dict would iterate too
                is_sequence = isinstance(value, (tuple, list)) or np.ndim(value) == 1
                entries = tuple(value) if is_sequence else (value,)
                if sequence != is_sequence or not all(
                        isinstance(x, (int, float, np.integer, np.floating))
                        and not isinstance(x, bool) for x in entries):
                    raise InvalidTypeError(f"{f.name} must be a real number, got {value!r}")
                try:
                    entries = tuple(float(x) for x in entries)
                except OverflowError:
                    raise InvalidParameterError(
                        f"{f.name} must be a real number in float range") from None
                if not np.all(np.isfinite(entries)):
                    raise InvalidParameterError(f"{f.name} must be finite, got {value!r}")
                if f.type != "int":         # an integer keeps its exact int value
                    object.__setattr__(self, f.name, entries if sequence else entries[0])
        for name, least in (("num_nodes", 1), ("codeword_len", 1), ("taps", 1),
                            ("samples_theta", 2), ("samples_pd", 2), ("samples_upper", 2)):
            if getattr(self, name) < least:
                raise InvalidParameterError(
                    f"{name} must be >= {least}, got {getattr(self, name)}")
        if len(self.duty_cycles) != self.num_nodes:
            raise InvalidParameterError(
                f"duty_cycles needs {self.num_nodes} entries, got {len(self.duty_cycles)}")
        for eta in self.duty_cycles:
            if not 0.0 < eta < 1.0:
                raise InvalidParameterError(f"duty_cycles entries must be in (0, 1), got {eta}")
        if len(self.interferer_distances_m) != self.num_nodes - 1:
            raise InvalidParameterError(
                f"interferer_distances_m needs {self.num_nodes - 1} entries, "
                f"got {len(self.interferer_distances_m)}")
        for d in self.interferer_distances_m:
            if d <= 0.0:
                raise InvalidParameterError(f"interferer_distances_m entries must be > 0, got {d}")
        for name in ("link_distance_m", "tx_power_w", "pathloss_b", "pathloss_alpha",
                     "noise_var_w"):
            if getattr(self, name) <= 0.0:
                raise InvalidParameterError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0.0 < self.captured_energy_fraction <= 1.0:
            raise InvalidParameterError(
                f"captured_energy_fraction must be in (0, 1], got {self.captured_energy_fraction}")
        if self.total_path_count < self.taps:
            raise InvalidParameterError(
                f"total_path_count must be >= taps, got {self.total_path_count} < {self.taps}")
        if not 0 <= self.seed < 2**64:
            raise InvalidParameterError(f"seed must be a u64, got {self.seed}")
        if self.h1_mode not in H1_MODES:
            raise InvalidParameterError(
                f"h1_mode must be one of {H1_MODES}, got {self.h1_mode!r}")
        if self.h1 is not None and (len(self.h1) != self.taps or self.h1_mode != "fixed-draw"):
            raise InvalidParameterError(
                f"h1 must hold {self.taps} taps in h1_mode 'fixed-draw', got {len(self.h1)} "
                f"in {self.h1_mode!r}")
        h1 = None if self.h1 is None else np.array(self.h1)
        if h1 is None and self.h1_mode == "fixed-draw":     # the one draw keyed by the seed
            h1 = sample_channel(self.tap_covariance(), substream(self.seed, H1_DRAW), 1)[0]
        object.__setattr__(self, "_channel", h1)    # not a field: channel() copies it
        with np.errstate(over="ignore", invalid="ignore"):     # inf or NaN: rejected below
            power = self.amplitudes() ** 2
            snr = power / self.noise_var_w
            # N ||A_1 h1||^2, then / noise, as the kernel forms it; 0 without a channel
            energy = 0.0 if h1 is None else np.square(h1).sum()
            codeword_snr = self.codeword_len * power[0] * energy / self.noise_var_w
        if not np.all(np.isfinite(snr)):
            raise InvalidParameterError(
                f"the SNR A_i^2 / noise_var_w of node {np.argmin(np.isfinite(snr)) + 1} must be "
                "a finite float: A_i^2 = tx_power_w * pathloss_b * l_i^-pathloss_alpha / "
                "duty_cycles[i], l_1 = link_distance_m, l_i = interferer_distances_m[i - 2]")
        if not np.isfinite(codeword_snr):
            drawn = "" if self.h1 is not None else f" (the draw keyed by seed {self.seed})"
            raise InvalidParameterError(
                f"h1 = {h1.tolist()}{drawn} with codeword_len = {self.codeword_len} must give a "
                "finite float codeword SNR codeword_len * A_1^2 * sum(h1^2) / noise_var_w")

    def amplitudes(self) -> np.ndarray:
        """Per-node amplitude caps sqrt(P_rcv(l_i) / eta_i), P_rcv(l) = P_tx b l^-alpha:
        a sparser transmitter packs the same power into larger pulses."""
        received = [self.tx_power_w * self.pathloss_b * dist ** (-self.pathloss_alpha)
                    for dist in np.array((self.link_distance_m,) + self.interferer_distances_m)]
        return np.sqrt(np.array(received) / self.duty_cycles)

    def tap_covariance(self) -> np.ndarray:
        """Tap variances t (M,), the diagonal of T: tap m weighs
        total_path_count - m + 1, scaled to sum to captured_energy_fraction."""
        weights = self.total_path_count - np.arange(self.taps, dtype=float)
        return self.captured_energy_fraction * weights / weights.sum()

    def channel(self) -> np.ndarray | None:
        """The intended channel h_1 (M,) both bounds condition on: h1 when set;
        in fixed-draw mode without h1, the draw keyed by seed alone; None in
        averaged mode, where the bounds average over h_1. A copy of what the
        constructor checked, so a seeded channel is drawn once per instance."""
        return None if self._channel is None else self._channel.copy()
