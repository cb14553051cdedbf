"""The three `uwbbounds run` workloads and the call counts their configs imply.

Each workload is a full sweep config except for its seed. The benchmark
writes `seed = <--seed> mod CONFIG_SEEDS` into it, so every input the program
can see has reference rates in reference.json (see gate.py). Sample budgets
are cut from the package defaults so that one invocation takes a few seconds
and a run repeats it several times; the time-to-accuracy metric normalises
by the CI, so the cut does not change what the metric compares.
"""

from __future__ import annotations

import math

CONFIG_SEEDS = 32

# ln J batches: the estimators evaluate samples in chunks of this many
KERNEL_CHUNK = 512

WORKLOADS = {
    # One paper-preset point, both bounds. The largest kernel shape
    # (MN = 400, J r = 10) and one broadcast transmitter matrix per stratum;
    # where an all-strata kernel and block RNG must show their gain.
    "paper-point": {
        "num_nodes": 2, "codeword_len": 80, "taps": 5,
        "duty_cycles": [0.5, 0.5], "link_distance_m": 3.0,
        "interferer_distances_m": [10.0], "h1_mode": "fixed-draw",
        "samples_theta": 500, "samples_pd": 500, "samples_upper": 25000,
        "bounds": "both",
    },
    # Desk sizes with two interferers and a channel drawn per sample: the
    # kernel gets per-sample x batches and J = 4 rows (J r = 12) on a small
    # MN = 120, and two points per run expose per-point overhead. A change
    # tuned to fixed-draw, I = 2 inputs that costs the general path shows here.
    "desk-sweep": {
        "num_nodes": 3, "codeword_len": 40, "taps": 3,
        "duty_cycles": [0.5, 0.35, 0.2], "link_distance_m": 3.0,
        "interferer_distances_m": [2.0, 10.0], "h1_mode": "averaged",
        "samples_theta": 500, "samples_pd": 500, "samples_upper": 25000,
        "sweep": {"d": [2.0, 100.0]},
        "bounds": "both",
    },
    # Paper preset, upper bound only, four (l, eta1) groups. The kernel and
    # the symbol sampler do no work here, so a kernel change predicts no
    # change; a quadrature C_u predicts a large gain.
    "genie-sweep": {
        "num_nodes": 2, "codeword_len": 80, "taps": 5,
        "duty_cycles": [0.5, 0.5], "link_distance_m": 3.0,
        "interferer_distances_m": [10.0], "h1_mode": "fixed-draw",
        "samples_upper": 20000,
        "sweep": {"l": [2.0, 5.62], "eta1": [0.2, 0.5]},
        "bounds": "upper",
    },
}


def config_seed(seed: int) -> int:
    return seed % CONFIG_SEEDS


def make_config(workload: str, seed: int) -> dict:
    """The config the program sees for this workload and benchmark seed."""
    return {**WORKLOADS[workload], "seed": config_seed(seed)}


def expected_counts(config: dict) -> dict[str, int]:
    """Calls into each traced site that the config implies, derived from how
    the estimators are written at the commit that defined this benchmark.

    A lower point draws one substream per sample of theta and of each of the
    N strata, and 2 (I - 1) symbol rows per sample; an upper group draws one
    substream per sample. A fixed-draw sweep draws h1 once up front.
    """
    sweep = config.get("sweep", {})
    points = math.prod(len(v) for v in sweep.values())
    groups = len(sweep.get("l", [0])) * len(sweep.get("eta1", [0]))
    lower = points if config["bounds"] in ("lower", "both") else 0
    upper = groups if config["bounds"] in ("upper", "both") else 0
    n = config["codeword_len"]
    s_theta = config.get("samples_theta", 2000)
    s_pd = config.get("samples_pd", 2000)
    s_upper = config.get("samples_upper", 100_000)
    fixed = config["h1_mode"] == "fixed-draw"
    lower_samples = lower * (s_theta + n * s_pd)
    upper_samples = upper * s_upper
    chunks = lower * (math.ceil(s_theta / KERNEL_CHUNK) + n * math.ceil(s_pd / KERNEL_CHUNK))
    return {
        "mc.substream.calls": lower_samples + upper_samples + fixed,
        "model.sample_symbols.calls": lower_samples * 2 * (config["num_nodes"] - 1),
        "model.sample_channel.calls": fixed + (0 if fixed else lower_samples + upper_samples),
        "model.tap_covariance.calls": fixed + lower * (n + 1) + upper,
        "gaussian.log_gauss_lowrank.calls": chunks,
        "gaussian.log_gauss_lowrank.instances": lower_samples,
        "mc.from_log_values.calls": lower * (n + 1),
        "mc.normal_qq_corr.calls": lower * (n + 1),
        "bounds.lower_bound.calls": lower,
        "bounds.upper_bound.calls": upper,
        "bounds.samples_used": lower_samples + upper_samples,
    }
