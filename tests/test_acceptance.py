"""Acceptance gate: one test per release criterion, at the stated tolerance.

Each test prints one CRITERION line (PASS/FAIL plus the measured margin)
before asserting, so a red run still reports every measured number. Criteria
5 and 7b are asserted as stated and left red rather than loosened, with the
quantitative table in the failure message. Criterion 5 fails because C_l
itself overshoots. With theta = E_v int p(y|v)^2 dy and the union sum
sum_d P(d) p(d) = int p(y)^2 dy, N C_l = H_2(Y) - H~_2(Y|V) is a
difference of order-2 Renyi entropies, and Renyi informations of order
above 1 can exceed Shannon's (Csiszar, IEEE Trans. Inf. Theory, 1995); the
formula also has no missed-detection term. It exceeds the binary-input
capacity of an interferer-free single-tap link (at eta = 0.5 and
A_1|h_1|/sigma = 2 it gives 0.548 bits against 0.486 from quadrature of
I(U;Y)), so the crossings are a defect of C_l as an achievable rate, not a
property of the bound pair. For the same reason the decoding-error bound
2^{N C_R} sum_d P(d) p(d) / theta was removed: on that link at code rate
0.52, above capacity, it read 0.14 at N = 100 and fell to 0 as N grew,
where the strong converse sends the true error probability to 1.
Criterion 7b fails on real but tiny rate differences that the collapsed
CIs of far-interferer points resolve.
"""

import dataclasses
import json
import os
import subprocess
import sys
import time

import numpy as np

from uwbbounds.bounds import log_distance_probs, lower_bound, upper_bound
from uwbbounds.mc import Z95, LogAccumulator
from uwbbounds.model import ScenarioConfig

from reference import genie_information, oracle_J, overlap_J, overlap_log_samples

DESK = dict(codeword_len=40, taps=3)


def criterion(num, name, ok, detail):
    line = f"CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def desk_config(**overrides):
    return ScenarioConfig(**{**DESK, **overrides})


def mean_energy_h1(cfg):
    """Deterministic channel carrying exactly the average per-tap energy."""
    return np.sqrt(cfg.tap_covariance())


# ---------------------------------------------------------------- criterion 1


def random_overlap_instance(rng):
    m = int(rng.integers(1, 5))
    n = int(rng.integers(1, 5))
    i_nodes = int(rng.integers(1, 4))
    g = rng.standard_normal((m, m)) * 0.6
    tap = g @ g.T + 0.05 * np.eye(m)
    h1 = rng.standard_normal(m) * 0.7
    amps = 0.3 + rng.random(i_nodes)
    v = (rng.random((i_nodes, n)) < 0.6).astype(float)
    w = (rng.random((i_nodes, n)) < 0.6).astype(float)
    sigma2 = 0.5 + rng.random()
    return v, w, h1, amps, tap, sigma2


def test_criterion_1_closed_form_vs_oracle():
    rng = np.random.default_rng(20260819)
    start = time.time()
    worst_rel, worst_z, n_quad, n_mc = 0.0, 0.0, 0, 0
    bad = []
    for trial in range(50):
        v, w, h1, amps, tap, sigma2 = random_overlap_instance(rng)
        closed = overlap_J(v, w, h1, amps, tap, sigma2)
        est = oracle_J(v, w, h1, amps, tap, sigma2, mode="auto",
                       rng=np.random.default_rng(1000 + trial))
        if est.mode == "quadrature":
            n_quad += 1
            rel = abs(np.exp(closed - est.log_value) - 1.0)
            worst_rel = max(worst_rel, rel)
            if rel >= 1e-4:
                bad.append((trial, "quadrature", rel))
        else:
            n_mc += 1
            z = abs(closed - est.log_value) / est.se_log
            worst_z = max(worst_z, z)
            if z >= 3.0:
                bad.append((trial, "mc", z))
    criterion(1, "closed form vs oracle", not bad,
              f"{n_quad} quadrature (worst rel {worst_rel:.2e} < 1e-4), "
              f"{n_mc} sampling (worst |z| {worst_z:.2f} < 3), "
              f"{time.time() - start:.0f}s; misses: {bad}")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_analytic_regression():
    worst = 0.0
    for eta in (0.3, 0.5):
        cfg = ScenarioConfig(
            num_nodes=1, codeword_len=1, taps=1, duty_cycles=(eta,),
            tx_power_w=2.0, pathloss_b=1.0, pathloss_alpha=1.0,
            link_distance_m=1.0, interferer_distances_m=(), noise_var_w=1.0,
            captured_energy_fraction=1.0, total_path_count=1,
            samples_theta=32, samples_pd=32, samples_upper=32, h1=(0.6,))
        lo = lower_bound(cfg)
        theta_err = abs(np.exp(lo.profile.log_pd[0]) * np.sqrt(4.0 * np.pi) - 1.0)

        a1_h = np.sqrt(2.0 / eta) * cfg.h1[0]
        target = -np.log2(eta ** 2 + (1 - eta) ** 2
                          + 2 * eta * (1 - eta) * np.exp(-a1_h ** 2 / 4.0))
        rate_err = abs(lo.rate - target)
        worst = max(worst, theta_err, rate_err)
    criterion(2, "analytic single-pulse chain", worst < 1e-9,
              f"worst |error| {worst:.2e} < 1e-9 over eta in (0.3, 0.5)")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_distance_distribution_enumeration():
    worst = 0.0
    for n in range(1, 11):
        codes = np.arange(2 ** n, dtype=np.uint64)
        ones = np.bitwise_count(codes).astype(int)
        pair_d = np.bitwise_count(codes[:, None] ^ codes[None, :]).astype(int)
        for eta in (0.1, 0.25, 0.5):
            p_code = eta ** ones * (1.0 - eta) ** (n - ones)
            enumerated = np.bincount(pair_d.ravel(),
                                     weights=np.outer(p_code, p_code).ravel(),
                                     minlength=n + 1)
            gap = np.abs(np.exp(log_distance_probs(n, eta)) - enumerated).max()
            worst = max(worst, gap)
    criterion(3, "distance distribution vs enumeration", worst < 1e-12,
              f"worst |gap| {worst:.2e} < 1e-12 for N <= 10, eta in (0.1, 0.25, 0.5)")


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_proposition_1():
    cfg = desk_config()
    details = []
    ok = True

    h_a, h_b = (dataclasses.replace(cfg, seed=s).channel() for s in (101, 202))
    assert not np.array_equal(h_a, h_b)
    prof_a = lower_bound(dataclasses.replace(cfg, h1=tuple(h_a), seed=101)).profile
    prof_b = lower_bound(dataclasses.replace(cfg, h1=tuple(h_b), seed=202)).profile
    log_a, se_a = prof_a.log_pd[0], prof_a.se_log_pd[0]
    log_b, se_b = prof_b.log_pd[0], prof_b.se_log_pd[0]
    gap, tol = abs(log_a - log_b), Z95 * np.hypot(se_a, se_b)
    ok &= gap <= tol
    details.append(f"theta h1-invariance |dlog|={gap:.4f} <= {tol:.4f}")

    rng = np.random.default_rng(404)
    for d, scattered in [(1, [17]), (3, [4, 19, 33])]:
        leading = np.zeros(cfg.codeword_len)
        leading[:d] = 1.0
        other = np.zeros(cfg.codeword_len)
        other[scattered] = 1.0
        acc_a = LogAccumulator.from_log_values(
            overlap_log_samples(cfg, h_a, leading, cfg.samples_pd, rng))
        acc_b = LogAccumulator.from_log_values(
            overlap_log_samples(cfg, h_a, other, cfg.samples_pd, rng))
        gap = abs(acc_a.log_mean - acc_b.log_mean)
        tol = Z95 * np.hypot(acc_a.se_log_mean, acc_b.se_log_mean)
        ok &= gap <= tol
        details.append(f"p({d}) placement |dlog|={gap:.4f} <= {tol:.4f}")

    criterion(4, "self-overlap invariances", ok, "; ".join(details))


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_bound_ordering():
    rng = np.random.default_rng(55)
    rows, violations = [], 0
    start = time.time()
    for i in range(20):
        link = float(rng.uniform(3.0, 8.0))
        dist = float(np.exp(rng.uniform(np.log(1.0), np.log(100.0))))
        eta2 = float(rng.uniform(0.1, 0.5))
        cfg = desk_config(link_distance_m=link, interferer_distances_m=(dist,),
                          duty_cycles=(0.5, eta2), seed=i)
        cfg = dataclasses.replace(cfg, h1=tuple(cfg.channel()))
        lo = lower_bound(cfg)
        up = upper_bound(cfg)
        slack = up.rate + up.ci_halfwidth + lo.ci_halfwidth - lo.rate
        ordered = slack >= 0.0
        violations += not ordered
        rows.append(f"  l={link:5.2f} d={dist:6.2f} eta2={eta2:.3f}: "
                    f"C_l={lo.rate:.4f}+-{lo.ci_halfwidth:.4f} "
                    f"C_u={up.rate:.4f}+-{up.ci_halfwidth:.4f} "
                    f"{'ok' if ordered else f'VIOLATED by {-slack:.4f}'}")
    table = "\n".join(rows)
    print(table)
    criterion(5, "bound ordering on random scenarios", violations == 0,
              f"{violations}/20 scenarios violate C_l <= C_u + CI "
              f"({time.time() - start:.0f}s)\n{table}")


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_gaussian_interference_coincidence():
    details, ok = [], True
    for link in (7.0, 8.0):
        base = desk_config(link_distance_m=link, seed=2)
        d_equiv = 3.0
        # received power P_tx b d^-alpha of a node at d_equiv, spread over the taps
        extra = base.tx_power_w * base.pathloss_b * d_equiv ** (-base.pathloss_alpha) \
            * base.captured_energy_fraction / base.taps
        cfg = dataclasses.replace(
            base, num_nodes=1, duty_cycles=(0.5,), interferer_distances_m=(),
            noise_var_w=base.noise_var_w + extra)
        cfg = dataclasses.replace(cfg, h1=tuple(mean_energy_h1(cfg)))
        lo = lower_bound(cfg)
        up = upper_bound(cfg)
        gap = abs(lo.rate - up.rate)
        tol = lo.ci_halfwidth + up.ci_halfwidth
        ok &= gap <= tol
        # the exact C_u of this fixed channel: how far C_l sits from it, CI aside
        exact = genie_information(
            0.5, cfg.amplitudes()[0] * np.linalg.norm(cfg.h1) / np.sqrt(cfg.noise_var_w))
        details.append(f"l={link:g}: |C_l-C_u|={gap:.5f} <= {tol:.5f} "
                       f"(C_l={lo.rate:.6f}, C_u={up.rate:.4f}, exact C_u={exact:.6f}, "
                       f"C_l-exact={lo.rate - exact:+.2e})")
    criterion(6, "white-interference coincidence", ok, "; ".join(details))


# ---------------------------------------------------------------- criterion 7


DISTANCES = (1.0, 2.0, 3.0, 5.0, 8.0, 10.0, 20.0, 30.0, 50.0, 100.0)


def sweep_rates(link):
    cfg = desk_config(link_distance_m=link)
    cfg = dataclasses.replace(cfg, h1=tuple(mean_energy_h1(cfg)))
    rates, cis = [], []
    for i, d in enumerate(DISTANCES):
        est = lower_bound(dataclasses.replace(cfg, interferer_distances_m=(d,), seed=7000 + i))
        rates.append(est.rate)
        cis.append(est.ci_halfwidth)
    return np.array(rates), np.array(cis)


def test_criterion_7_figure_shapes():
    start = time.time()
    checks, ok_all = [], True

    rates3, _ = sweep_rates(3.0)
    spread = (rates3.max() - rates3.min()) / rates3[-1]
    ok = spread < 0.10
    ok_all &= ok
    checks.append(f"(a) l=3 spread {spread:.4f} < 0.10: {'ok' if ok else 'FAIL'}")

    rates8, cis8 = sweep_rates(8.0)
    i30 = DISTANCES.index(30.0)
    gap = abs(rates8[i30] - rates8[-1])
    tol = cis8[i30] + cis8[-1]
    ok = gap <= tol
    ok_all &= ok
    checks.append(f"(b) l=8 d=30 vs 100: |gap|={gap:.5f} <= CI {tol:.5f}: "
                  f"{'ok' if ok else 'FAIL'}")

    mono = all(rates8[i] <= rates8[i + 1] + cis8[i] + cis8[i + 1]
               for i in range(i30))
    ok_all &= mono
    checks.append(f"(b) l=8 nondecreasing in d up to 30 m: {'ok' if mono else 'FAIL'}")

    flat_idx = [DISTANCES.index(x) for x in (1.0, 2.0, 3.0, 5.0)]
    worst_pair = max((abs(rates8[a] - rates8[b]) - (cis8[a] + cis8[b]), a, b)
                     for a in flat_idx for b in flat_idx if a < b)
    ok = worst_pair[0] <= 0.0
    ok_all &= ok
    checks.append(f"(b) l=8 flat below 5 m: worst pairwise excess {worst_pair[0]:+.5f}"
                  f" (d={DISTANCES[worst_pair[1]]:g} vs {DISTANCES[worst_pair[2]]:g}):"
                  f" {'ok' if ok else 'FAIL'}")

    worst_ratio = min(min(rates3 / rates3[-1]), min(rates8 / rates8[-1]))
    ok = worst_ratio >= 0.5
    ok_all &= ok
    checks.append(f"(c) min rate ratio {worst_ratio:.4f} >= 0.5: {'ok' if ok else 'FAIL'}")

    table = (f"  l=3 rates: {np.array2string(rates3, precision=4)}\n"
             f"  l=8 rates: {np.array2string(rates8, precision=4)}\n"
             f"  l=8 CIs:   {np.array2string(cis8, precision=6)}\n  "
             + "\n  ".join(checks))
    print(table)
    criterion(7, "figure-shape reproduction", ok_all,
              f"({time.time() - start:.0f}s)\n{table}")


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_ci_methodology_paper_preset():
    cfg = ScenarioConfig()     # paper preset: N=80, M=5, full budgets
    start = time.time()
    lo = lower_bound(dataclasses.replace(cfg, h1=tuple(cfg.channel())))
    prof = lo.profile
    rel_theta = Z95 * prof.se_log_pd[0]
    rel_aggregate = Z95 * prof.se_log_sum
    ok = rel_theta < 0.10 and rel_aggregate < 0.50
    criterion(8, "paper-preset CI methodology", ok,
              f"theta rel CI {rel_theta:.4f} < 0.10, error-aggregate rel CI "
              f"{rel_aggregate:.4f} < 0.50, normality corr {prof.qq_ratio:.4f}, "
              f"{time.time() - start:.0f}s")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_determinism_across_workers(tmp_path):
    config = {**DESK, "sweep": {"d": [5.0, 30.0]}, "seed": 7}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    start = time.time()
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    for threads in ("1", "2"):
        out = tmp_path / f"r{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src_dir, env_path] if (env_path := os.environ.get("PYTHONPATH"))
                       else [src_dir]))
        proc = subprocess.run(
            [sys.executable, "-m", "uwbbounds.cli", "run", "--config",
             str(cfg_path), "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]
    criterion(9, "byte-identical CSV across BLAS thread counts", identical,
              f"{len(outputs[0])} bytes each, OPENBLAS/OMP threads 1 vs 2, "
              f"{time.time() - start:.0f}s")
