"""Config ingestion, sweep driver, CSV emission, and exit codes."""

import dataclasses
import errno
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import uwbbounds
import uwbbounds.cli as cli
from uwbbounds.bounds import BoundEstimate, lower_bound, upper_bound
from uwbbounds.cli import CSV_COLUMNS, EstimatorFailure, main, run_sweep
from uwbbounds.config import ConfigError, effective_config, load_config, spec_from_mapping

from reference import child_env, read_result_csv

TINY = {"codeword_len": 8, "taps": 2, "samples_theta": 80, "samples_pd": 80,
        "samples_upper": 400, "seed": 11}
README = Path(__file__).resolve().parent.parent / "README.md"


def tiny_spec(**extra):
    return spec_from_mapping({**TINY, **extra})


def write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(json.dumps(payload))
    return str(path)


# -------------------------------------------------------------------- config


def test_effective_config_round_trips(tmp_path):
    payload = {**TINY, "duty_cycles": [0.4, 0.3],
               "sweep": {"d": [1.0, 5.0]}, "bounds": "lower"}
    spec = load_config(write_config(tmp_path, payload))
    again = spec_from_mapping(effective_config(spec))
    assert again == spec


def test_config_errors_name_the_offending_key(tmp_path):
    cases = [
        ({"definitely_not_a_key": 1}, "unknown-key", "definitely_not_a_key"),
        ({"codeword_len": "many"}, "bad-type", "codeword_len"),
        ({"codeword_len": True}, "bad-type", "codeword_len"),
        ({"seed": 1.5}, "bad-type", "seed"),
        ({"seed": -1}, "bad-value", "seed"),
        ({"duty_cycles": [1.5, 0.5]}, "bad-value", "duty_cycles"),
        ({"bounds": "sideways"}, "bad-value", "bounds"),
        ({"sweep": {"volume": [1]}}, "unknown-key", "volume"),
        ({"sweep": {"eta1": [0.0]}}, "bad-value", "eta1"),
        ({"link_distance_m": float("nan")}, "bad-value", "link_distance_m"),
        ({"noise_var_w": float("inf")}, "bad-value", "noise_var_w"),
        ({"interferer_distances_m": [float("inf")]}, "bad-value", "interferer_distances_m"),
        ({"sweep": {"d": [2, float("inf")]}}, "bad-value", "sweep.d"),
        # 2 and 2.0 are one sweep point: two rows would share its key
        ({"sweep": {"d": [2, 10, 2.0]}}, "bad-value", "sweep.d: values must not repeat"),
        ({"sweep": {"l": [float("nan")]}}, "bad-value", "sweep.l"),
        ({"h1_mode": 5}, "bad-type", "h1_mode"),
        # the channel: taps real, finite numbers, in fixed-draw mode only
        ({"taps": 3, "h1": [1.0, 1.0, 1.0, 1.0]}, "bad-value", "h1"),
        ({"taps": 3, "h1": [1.0, 1.0]}, "bad-value", "h1"),
        ({"taps": 2, "h1": [[1.0, 2.0], [3.0, 4.0]]}, "bad-type", "h1"),
        ({"taps": 2, "h1": [[1.0], [2.0, 3.0]]}, "bad-type", "h1"),
        ({"taps": 3, "h1": [1.0, float("nan"), 0.0]}, "bad-value", "h1"),
        ({"taps": 3, "h1": ["0.5", "0.1", "0.2"]}, "bad-type", "h1"),
        ({"taps": 3, "h1": [True, False, True]}, "bad-type", "h1"),
        ({"taps": 3, "h1": [0.5, "0.1", 0.2]}, "bad-type", "h1"),
        ({"taps": 3, "h1": [0.5, True, 0.2]}, "bad-type", "h1"),
        ({"taps": 3, "h1": 0.5}, "bad-type", "h1"),
        ({"taps": 3, "h1": [0.5, 0.1, 0.2], "h1_mode": "averaged"}, "bad-value", "h1"),
        ({"num_nodes": 1, "duty_cycles": [0.5], "interferer_distances_m": [],
          "sweep": {"d": [5.0]}}, "bad-value", "sweep.d"),
        ({"sweep": {"eta2": [1.0]}}, "bad-value", "sweep.eta2"),
        # no second duty cycle to set: the swept tuple is one entry too long
        ({"num_nodes": 1, "duty_cycles": [0.5], "interferer_distances_m": [],
          "sweep": {"eta2": [0.3]}}, "bad-value", "sweep.eta2"),
        # a sweep value is type-checked as the scenario field it sets
        ({"sweep": {"d": ["far"]}}, "bad-type", "sweep.d='far': interferer_distances_m"),
        ({"sweep": {"l": [True]}}, "bad-type", "sweep.l=True: link_distance_m"),
        ({"sweep": {"eta1": [None]}}, "bad-type", "sweep.eta1=None: duty_cycles"),
        # every node's A_i^2 / noise_var_w must be a finite float
        ({"link_distance_m": 1e-100}, "bad-value", "link_distance_m"),
        ({"sweep": {"d": [2, 1e-100]}}, "bad-value", "sweep.d=1e-100: the SNR"),
        # values valid alone, not together: l and eta1 both set A_1, d and eta2 A_2
        ({"sweep": {"l": [2e-92], "eta1": [0.01]}}, "bad-value",
         "sweep.l=2e-92, sweep.eta1=0.01: h1 "),
        ({"h1_mode": "averaged", "sweep": {"d": [2e-92], "eta2": [0.001]}}, "bad-value",
         "sweep.d=2e-92, sweep.eta2=0.001: the SNR A_i^2 / noise_var_w of node 2"),
        ({"tx_power_w": 1e300, "pathloss_b": 1e10}, "bad-value", "tx_power_w"),
        ({"noise_var_w": 1e-320}, "bad-value", "noise_var_w"),
        # and so must the codeword's, N A_1^2 ||h1||^2 / noise_var_w, given or drawn
        ({"taps": 2, "codeword_len": 8, "h1": [1e154, 1.0]}, "bad-value", "h1"),
        ({"taps": 2, "codeword_len": 8, "h1": [1e153, 1.0]}, "bad-value", "h1"),
        ({"link_distance_m": 6e-93, "samples_theta": 50, "samples_pd": 50,
          "samples_upper": 500}, "bad-value", "h1"),
        (b'{"seed": "\xff"}', "malformed-json", "cfg.json"),
    ]
    for payload, code, key in cases:
        with pytest.raises(ConfigError) as excinfo:
            load_config(write_config(tmp_path, payload))
        assert excinfo.value.code == code
        assert key in str(excinfo.value)
        # a scenario key is named as the config spells it
        assert "rng_seed" not in str(excinfo.value)


@pytest.mark.parametrize("payload, key", [
    ({"link_distance_m": 10 ** 400}, "link_distance_m"),
    ({"duty_cycles": [0.5, 10 ** 400]}, "duty_cycles"),
    ({"sweep": {"l": [10 ** 400]}}, "sweep.l"),
    # integer fields too: an int no float can hold is bad-value, not an OverflowError
    ({"codeword_len": 10 ** 400}, "codeword_len"),
    ({"total_path_count": 10 ** 400}, "total_path_count"),
    ({"total_path_count": 10 ** 400, "h1_mode": "averaged"}, "total_path_count"),
    ({"samples_upper": 10 ** 400}, "samples_upper"),
])
def test_validate_rejects_integers_beyond_float_range(tmp_path, capsys, payload, key):
    assert main(["validate", "--config", write_config(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error [bad-value]") and key in err


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError) as excinfo:
        load_config(tmp_path / "absent.json")
    assert excinfo.value.code == "missing-file"
    assert str(excinfo.value) == f"config file not found: {tmp_path / 'absent.json'}"
    # a directory is named as one, not as an absent file
    with pytest.raises(ConfigError) as excinfo:
        load_config(tmp_path)
    assert excinfo.value.code == "missing-file"
    assert str(excinfo.value) == f"config path is a directory: {tmp_path}"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError) as excinfo:
        load_config(bad)
    assert excinfo.value.code == "malformed-json"
    dup = tmp_path / "dup.json"
    dup.write_text('{"seed": 1, "seed": 2}')
    with pytest.raises(ConfigError) as excinfo:
        load_config(dup)
    assert excinfo.value.code == "malformed-json"
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError) as excinfo:
        load_config(arr)
    assert excinfo.value.code == "malformed-json"


# -------------------------------------------------------------- sweep points


def test_sweep_points_follow_declaration_order():
    spec = tiny_spec(sweep={"d": [5.0, 2.0], "eta2": [0.3, 0.2]})
    got = [(p.interferer_distances_m[0], p.duty_cycles[1]) for p in spec.points]
    assert got == [(5.0, 0.3), (5.0, 0.2), (2.0, 0.3), (2.0, 0.2)]


def test_sweep_points_cover_all_variables():
    spec = tiny_spec(sweep={"l": [4.0], "eta1": [0.4], "d": [7.0], "eta2": [0.2]})
    (point,) = spec.points
    assert point.link_distance_m == 4.0
    assert point.duty_cycles == (0.4, 0.2)
    assert point.interferer_distances_m == (7.0,)


def test_degenerate_sweep_is_one_point():
    spec = tiny_spec()
    assert spec.points == (spec.base,)


# ----------------------------------------------------------------- run_sweep


def test_degenerate_sweep_writes_two_rows(tmp_path):
    out = tmp_path / "r.csv"
    rows = run_sweep(tiny_spec(), out)
    assert [r.bound for r in rows] == ["lower", "upper"]
    lines = out.read_text().splitlines()
    # a literal, not CSV_COLUMNS: the header is written from it, and renaming a
    # ResultRow field would rename a column
    assert lines[0] == ("l_m,d_m,eta1,eta2,bound,rate_bits_per_symbol,ci_halfwidth,"
                        "samples,seed,wall_s")
    assert len(lines) == 3
    assert read_result_csv(out) == rows


def test_lower_rows_precede_upper_and_upper_dedupes(tmp_path):
    spec = tiny_spec(sweep={"l": [3.0, 4.0], "d": [5.0, 30.0]})
    rows = run_sweep(spec, tmp_path / "r.csv")
    kinds = [r.bound for r in rows]
    assert kinds == ["lower"] * 4 + ["upper"] * 2
    uppers = [r for r in rows if r.bound == "upper"]
    assert [u.l_m for u in uppers] == [3.0, 4.0]
    for u in uppers:
        assert u.d_m is None and u.eta2 is None
    lowers = [r for r in rows if r.bound == "lower"]
    assert [(r.l_m, r.d_m) for r in lowers] == \
        [(3.0, 5.0), (3.0, 30.0), (4.0, 5.0), (4.0, 30.0)]
    for r in lowers:
        assert r.eta2 == 0.5


def test_rows_carry_point_seeds_and_fixed_wall(tmp_path):
    out = tmp_path / "r.csv"
    rows = run_sweep(tiny_spec(sweep={"d": [5.0, 30.0]}), out)
    seeds = [r.seed for r in rows]
    assert len(set(seeds)) == len(seeds)
    assert all(line.endswith(",0.0") for line in out.read_text().splitlines()[1:])
    assert all(r.samples > 0 for r in rows)


def test_bounds_selection_limits_rows(tmp_path):
    lower_only = run_sweep(tiny_spec(bounds="lower"), tmp_path / "lo.csv")
    assert [r.bound for r in lower_only] == ["lower"]
    upper_only = run_sweep(tiny_spec(bounds="upper"), tmp_path / "up.csv")
    assert [r.bound for r in upper_only] == ["upper"]


# (l_m, d_m, eta1, eta2, bound, rate, ci_halfwidth, samples, seed) per row
PINNED_SWEEPS = [
    ({**TINY, "sweep": {"d": [5.0, 30.0]}, "bounds": "both"}, [
        (3.0, 5.0, 0.5, 0.5, "lower", 0.5124923717291825, 0.00933057812629912,
         720, 3926704849073358691),
        (3.0, 30.0, 0.5, 0.5, "lower", 0.6954743128111341, 8.162420885415583e-05,
         720, 17787998696327163147),
        (3.0, None, 0.5, None, "upper", 0.5922703875034686, 0.08758674178521682,
         400, 18161219428762539833),
    ]),
    ({**TINY, "num_nodes": 3, "duty_cycles": [0.5, 0.3, 0.4],
      "interferer_distances_m": [2.0, 4.0], "h1_mode": "averaged"}, [
        (3.0, 2.0, 0.5, 0.3, "lower", 0.4229778039127398, 0.013173174883415056,
         720, 3926704849073358691),
        (3.0, None, 0.5, None, "upper", 0.7901931946633124, 0.04853764796130631,
         400, 18161219428762539833),
    ]),
]


@pytest.mark.parametrize("payload, expected", PINNED_SWEEPS, ids=["fixed-draw", "averaged"])
def test_sweep_rows_are_pinned(tmp_path, payload, expected):
    # keys, samples and seeds exactly; rates and CIs to rel 1e-12, since the
    # last bits of a CI depend on the CPU: numpy's SIMD exp/log dispatch and
    # the OpenBLAS core type each move ci_halfwidth by up to about 4e-13
    # relative (measured on the 96 benchmark inputs; rates did not move)
    rows = run_sweep(spec_from_mapping(payload), tmp_path / "r.csv")
    got = [(r.l_m, r.d_m, r.eta1, r.eta2, r.bound, r.samples, r.seed) for r in rows]
    assert got == [row[:5] + row[7:] for row in expected]
    for row, want in zip(rows, expected):
        assert row.rate_bits_per_symbol == pytest.approx(want[5], rel=1e-12, abs=0.0)
        assert row.ci_halfwidth == pytest.approx(want[6], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("h1_mode", ["fixed-draw", "averaged"])
def test_every_row_reproduces_from_its_scenario_and_seed(tmp_path, h1_mode):
    spec = tiny_spec(sweep={"l": [3.0, 4.0], "d": [2.0, 10.0]}, h1_mode=h1_mode)
    rows = run_sweep(spec, tmp_path / "r.csv")
    plan = cli.row_plan(spec)
    written = read_result_csv(tmp_path / "r.csv")
    assert len(rows) == len(plan) == len(written) == 6
    for row, csv_row, (key, scenario) in zip(rows, written, plan):
        # the written row is its plan key, then its scenario's estimate
        assert dataclasses.astuple(csv_row)[:5] == key
        est = {"lower": lower_bound, "upper": upper_bound}[key[-1]](scenario)
        assert (row.rate_bits_per_symbol, row.ci_halfwidth, row.samples, row.seed) == \
            (est.rate, est.ci_halfwidth, est.samples_used, scenario.seed)


def test_sidecar_reloads_to_the_same_spec(tmp_path):
    spec = tiny_spec(sweep={"d": [5.0]}, bounds="lower")
    out = tmp_path / "r.csv"
    run_sweep(spec, out)
    sidecar = tmp_path / "r.csv.config.json"
    assert spec_from_mapping(json.loads(sidecar.read_text())) == spec


@pytest.mark.parametrize("h1_mode", ["fixed-draw", "averaged"])
def test_sidecar_records_the_channel_and_reruns_to_the_same_bytes(tmp_path, h1_mode):
    cfg = write_config(tmp_path, {**TINY, "sweep": {"d": [5.0, 30.0]}, "h1_mode": h1_mode})
    first, again = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", cfg, "--out", str(first)]) == 0
    sidecar = tmp_path / "a.csv.config.json"
    recorded = json.loads(sidecar.read_text())["h1"]
    if h1_mode == "fixed-draw":
        # the channel every row of the sweep used: the draw from the config's seed
        assert recorded == uwbbounds.ScenarioConfig(**TINY).channel().tolist()
    else:
        assert recorded is None
    assert main(["run", "--config", str(sidecar), "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()
    assert (tmp_path / "b.csv.config.json").read_text() == sidecar.read_text()


def test_an_explicit_h1_is_the_channel_of_every_row(tmp_path):
    h1 = [0.3, -0.2]
    spec = tiny_spec(sweep={"d": [5.0, 30.0]}, h1=h1)
    assert all(point.h1 == tuple(h1) for point in spec.points)
    rows = run_sweep(spec, tmp_path / "r.csv")
    drawn = run_sweep(tiny_spec(sweep={"d": [5.0, 30.0]}), tmp_path / "s.csv")
    assert [r.seed for r in rows] == [r.seed for r in drawn]
    assert [r.rate_bits_per_symbol for r in rows] != [r.rate_bits_per_symbol for r in drawn]


def test_a_hand_built_spec_pins_its_base_channel(tmp_path, monkeypatch):
    # a fixed-draw SweepSpec without h1 runs every row, whatever its row seed,
    # on base.channel(), as a loaded one does, and its sidecar lists that h1
    base = uwbbounds.ScenarioConfig(**TINY)
    spec = uwbbounds.SweepSpec(base=base, sweep={"d": (5.0, 30.0)})
    assert spec == tiny_spec(sweep={"d": [5.0, 30.0]})
    channels = []
    for name in ("lower_bound", "upper_bound"):
        def recording(scenario, real=getattr(cli, name)):
            channels.append(scenario.channel())
            return real(scenario)
        monkeypatch.setattr(cli, name, recording)
    out = tmp_path / "a.csv"
    run_sweep(spec, out)
    assert len(channels) == 3
    assert all(np.array_equal(h, base.channel()) for h in channels)
    sidecar = tmp_path / "a.csv.config.json"
    assert json.loads(sidecar.read_text())["h1"] == base.channel().tolist()
    assert main(["run", "--config", str(sidecar), "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "b.csv").read_bytes() == out.read_bytes()


def test_loading_a_fixed_draw_config_draws_its_channel_once(tmp_path, monkeypatch):
    # the scenario keeps the draw its constructor checks, and the spec pins that one
    draws = []
    def counting(*args, real=uwbbounds.model.sample_channel):
        draws.append(args)
        return real(*args)
    monkeypatch.setattr(uwbbounds.model, "sample_channel", counting)
    spec = load_config(write_config(tmp_path, {**TINY, "sweep": {"d": [5.0, 30.0]}}))
    assert len(draws) == 1
    monkeypatch.undo()
    assert spec.base.h1 == tuple(uwbbounds.ScenarioConfig(**TINY).channel())


@pytest.mark.parametrize("extra, code, start", [
    ({"bounds": "lowr"}, "bad-value", "bounds must be one of"),
    ({"bounds": 5}, "bad-type", "bounds must be a string"),
    ({"sweep": [("d", (2.0,))]}, "bad-type", "sweep must be an object"),
    ({"sweep": {"x": (1.0,)}}, "unknown-key", "unknown sweep variable 'x'"),
    ({"sweep": {"d": ()}}, "bad-type", "sweep.d must be a non-empty array"),
    ({"sweep": {"d": (-1.0,)}}, "bad-value", "sweep.d=-1.0: interferer_distances_m"),
    ({"sweep": {"d": (2, 2.0)}}, "bad-value", "sweep.d: values must not repeat"),
])
def test_a_hand_built_spec_is_checked_like_a_loaded_one(tmp_path, extra, code, start):
    # SweepSpec owns the sweep and bounds rules: built in Python, it fails
    # with the code and message of the same config loaded from JSON
    with pytest.raises(ConfigError) as built:
        uwbbounds.SweepSpec(base=uwbbounds.ScenarioConfig(**TINY), **extra)
    with pytest.raises(ConfigError) as loaded:
        load_config(write_config(tmp_path, {**TINY, **extra}))
    assert (built.value.code, str(built.value)) == (loaded.value.code, str(loaded.value))
    assert built.value.code == code and str(built.value).startswith(start)


def test_a_hand_built_sweep_stores_float_tuples():
    spec = uwbbounds.SweepSpec(base=uwbbounds.ScenarioConfig(**TINY), sweep={"d": [2, 10]})
    assert spec.sweep == {"d": (2.0, 10.0)}
    assert all(type(x) is float for x in spec.sweep["d"])
    assert spec_from_mapping(effective_config(spec)) == spec


def test_a_checked_sweep_is_read_only():
    spec = uwbbounds.SweepSpec(base=uwbbounds.ScenarioConfig(**TINY), sweep={"d": [2, 10]})
    with pytest.raises(TypeError):
        spec.sweep["d"] = (-1.0,)
    with pytest.raises(TypeError):
        del spec.sweep["d"]
    assert spec.sweep == {"d": (2.0, 10.0)}
    assert spec_from_mapping(effective_config(spec)) == spec
    # a copy takes the read-only sweep through the same checks
    assert dataclasses.replace(spec, bounds="lower").sweep == spec.sweep


def test_estimator_failure_leaves_partial_file(tmp_path, monkeypatch):
    spec = tiny_spec(sweep={"d": [5.0, 30.0]})
    real = cli.lower_bound
    calls = []

    def explode_on_second(scenario):
        calls.append(1)
        if len(calls) > 1:
            raise RuntimeError("synthetic breakdown")
        return real(scenario)

    monkeypatch.setattr(cli, "lower_bound", explode_on_second)
    out = tmp_path / "r.csv"
    with pytest.raises(EstimatorFailure):
        run_sweep(spec, out)
    assert not out.exists()
    partial = read_result_csv(tmp_path / "r.csv.partial")
    assert len(partial) == 1 and partial[0].bound == "lower"


def test_csv_floats_round_trip():
    rows = [cli.ResultRow(l_m=3.0, d_m=1.0 / 3.0, eta1=0.1 + 0.2, eta2=None,
                          bound="lower", rate_bits_per_symbol=np.nextafter(0.5, 1),
                          ci_halfwidth=1.23e-17, samples=5, seed=2 ** 63 + 11)]
    values = rows[0].csv_values()
    assert float(values[1]) == 1.0 / 3.0
    assert float(values[5]) == np.nextafter(0.5, 1)
    assert values[3] == ""
    assert int(values[8]) == 2 ** 63 + 11


# ----------------------------------------------------------------- ratios


def test_ratios_out_groups_by_geometry(tmp_path):
    # each lower row's rate over the rate of its (l, eta1, eta2) group's
    # farthest interferer, d = 30 m here, which comes first in sweep order
    cfg = write_config(tmp_path, {**TINY, "sweep": {"l": [3.0, 4.0], "d": [30.0, 5.0],
                                                    "eta2": [0.5, 0.3]}, "bounds": "lower"})
    out, ratios = tmp_path / "r.csv", tmp_path / "ratios.csv"
    assert main(["run", "--config", cfg, "--out", str(out), "--ratios-out", str(ratios)]) == 0
    rows = read_result_csv(out)
    lines = ratios.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS[:7]) + ",rate_ratio"
    assert [line.rsplit(",", 1)[0] for line in lines[1:]] == \
        [",".join(r.csv_values()[:7]) for r in rows]
    got = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    rate = {(r.l_m, r.d_m, r.eta2): r.rate_bits_per_symbol for r in rows}
    assert got == [rate[r.l_m, r.d_m, r.eta2] / rate[r.l_m, 30.0, r.eta2] for r in rows]
    assert [ratio for ratio, r in zip(got, rows) if r.d_m == 30.0] == [1.0] * 4


def test_ratios_reject_zero_reference_rate(tmp_path, monkeypatch, capsys):
    # lower rates clamp at 0, so a reference row can carry rate 0 exactly
    monkeypatch.setattr(cli, "lower_bound", lambda *a, **k: BoundEstimate(
        rate=0.0, ci_halfwidth=0.0, samples_used=2))
    cfg = write_config(tmp_path, {**TINY, "sweep": {"d": [5.0, 100.0]}, "bounds": "lower"})
    ratios = tmp_path / "ratios.csv"
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "z.csv"),
                 "--ratios-out", str(ratios)]) == 2
    assert "rate at reference distance 100.0 m is 0 for group l=3.0, eta1=0.5, eta2=0.5" \
        in capsys.readouterr().err
    assert not ratios.exists()


@pytest.mark.parametrize("extra", [
    {"bounds": "upper"},
    {"num_nodes": 1, "duty_cycles": [0.5], "interferer_distances_m": []},
    {"bounds": "upper", "num_nodes": 1, "duty_cycles": [0.5], "interferer_distances_m": []},
], ids=["upper", "no-interferer", "upper-no-interferer"])
def test_ratios_without_lower_interferer_rows_fail_before_estimating(
        tmp_path, monkeypatch, capsys, extra):
    # no row to take a ratio of: no header-only table and no estimator call
    cfg = write_config(tmp_path, {**TINY, **extra})
    for name in ("lower_bound", "upper_bound"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("estimator ran"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r.csv"),
                 "--ratios-out", str(tmp_path / "q.csv")]) == 2
    err = capsys.readouterr().err
    assert err == ("error: the ratio table compares lower-bound rows with an interferer, "
                   "and this run writes none\n")
    assert sorted(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


# ----------------------------------------------------------------- main


def test_main_run_and_validate(tmp_path, capsys):
    cfg = write_config(tmp_path, {**TINY, "sweep": {"d": [5.0]}, "bounds": "lower"})
    out = tmp_path / "r.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert len(read_result_csv(out)) == 1

    assert main(["validate", "--config", cfg]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert spec_from_mapping(printed) == load_config(cfg)
    # the reload redraws the seed's channel, so the listing itself is checked:
    # the channel every row runs on in fixed-draw mode, null when averaged
    assert printed["h1"] == uwbbounds.ScenarioConfig(**TINY).channel().tolist()
    averaged = write_config(tmp_path, {**TINY, "h1_mode": "averaged"})
    assert main(["validate", "--config", averaged]) == 0
    assert json.loads(capsys.readouterr().out)["h1"] is None


def test_validate_into_a_closed_pipe_exits_cleanly(tmp_path, monkeypatch):
    # `uwbbounds validate ... | head` can close stdout before the config is
    # printed: no traceback, and stdout then points at the null device
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        assert main(["validate", "--config", write_config(tmp_path, TINY)]) == 0
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)


def test_module_entry_point_runs_without_warnings(tmp_path):
    # the package must not import .cli, or `python -m uwbbounds.cli` warns
    # that the module is already in sys.modules before it runs
    cfg = write_config(tmp_path, {**TINY, "sweep": {"d": [2.0, 10.0]}})
    out, ratios = tmp_path / "r.csv", tmp_path / "ratios.csv"
    for args in (["validate", "--config", cfg],
                 ["run", "--config", cfg, "--out", str(out), "--ratios-out", str(ratios)]):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "uwbbounds.cli", *args],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
    near, far, _ = rows = read_result_csv(out)
    assert [row.bound for row in rows] == ["lower", "lower", "upper"]
    # each lower row over its group's farthest d, 10 m here, whose own ratio is 1
    assert [line.rsplit(",", 1)[1] for line in ratios.read_text().splitlines()[1:]] == \
        [repr(near.rate_bits_per_symbol / far.rate_bits_per_symbol), "1.0"]


def test_all_is_the_documented_api():
    api = {"BoundEstimate", "ConfigError", "H1_MODES", "InvalidParameterError",
           "InvalidTypeError", "LowerBoundProfile", "ScenarioConfig", "SweepSpec",
           "effective_config", "load_config", "lower_bound", "spec_from_mapping",
           "upper_bound", "__version__"}
    assert len(uwbbounds.__all__) == len(api) and set(uwbbounds.__all__) == api
    for name in api:
        getattr(uwbbounds, name)
    library = README.read_text().split("\nLibrary use", 1)[1].split("\n## ", 1)[0]
    assert [name for name in sorted(api) if f"`{name}`" not in library] == []


def test_readme_library_block_runs(tmp_path):
    # a fresh interpreter runs the README's python block as written
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", block],
                          cwd=tmp_path, capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("h1_mode", ["fixed-draw", "averaged"])
def test_benchmark_trace_child_runs_and_writes_the_same_csv(tmp_path, h1_mode):
    # perfbench/child.py wraps package names by attribute: a name deleted or
    # renamed under it stops the benchmark with a KeyError or AttributeError
    cfg = write_config(tmp_path, {**TINY, "sweep": {"d": [2, 10]}, "h1_mode": h1_mode})
    child = Path(cli.__file__).resolve().parents[2] / "perfbench" / "child.py"
    traced, plain = tmp_path / "traced.csv", tmp_path / "plain.csv"
    proc = subprocess.run([sys.executable, str(child), "trace", cfg, str(traced),
                           str(tmp_path / "report.json")],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert main(["run", "--config", cfg, "--out", str(plain)]) == 0
    assert traced.read_bytes() == plain.read_bytes()


def test_run_loads_no_scipy(tmp_path):
    # a fresh interpreter: scipy.special alone costs ~0.25 s and ~10 MB to
    # import, and numpy 2 loads numpy.random lazily, so the package loads it
    # up front rather than in the first row
    cfg = write_config(tmp_path, {**TINY, "sweep": {"d": [5.0]}, "bounds": "both"})
    out = tmp_path / "r.csv"
    code = f"""
import sys
import uwbbounds
assert "numpy.random" in sys.modules, "numpy.random is left to the first row"
from uwbbounds.cli import main
status = main(["run", "--config", {cfg!r}, "--out", {str(out)!r}])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert status == 0 and not loaded, (status, loaded)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert [row.bound for row in read_result_csv(out)] == ["lower", "upper"]


@pytest.mark.parametrize("payload, start", [
    ({"codeword_len": 8, "taps": 2, "sweep": {"d": [0]}, "seed": 3},
     "config error [bad-value]: sweep.d=0: interferer_distances_m"),
    # the channel drawn from the seed overflows the 80-symbol codeword SNR
    ({"link_distance_m": 6e-93, "samples_theta": 50, "samples_pd": 50, "samples_upper": 500},
     "config error [bad-value]: h1 "),
    # each swept value passes alone; together l and eta1 overflow the codeword SNR, d and eta2 node 2's
    ({"sweep": {"l": [2e-92], "eta1": [0.01]}},
     "config error [bad-value]: sweep.l=2e-92, sweep.eta1=0.01: h1 "),
    ({"h1_mode": "averaged", "sweep": {"d": [2e-92], "eta2": [0.001]}},
     "config error [bad-value]: sweep.d=2e-92, sweep.eta2=0.001: the SNR "),
], ids=["sweep-d-0", "drawn-h1-snr", "sweep-l-eta1-snr", "sweep-d-eta2-snr"])
def test_run_on_a_rejected_config_writes_nothing(tmp_path, monkeypatch, capsys, payload, start):
    cfg = write_config(tmp_path, payload)
    for name in ("lower_bound", "upper_bound"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("estimator ran"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r.csv"),
                 "--ratios-out", str(tmp_path / "q.csv")]) == 2
    assert capsys.readouterr().err.startswith(start)
    assert sorted(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


# a name longer than the file system allows: the OS error, as str(OSError) gives it
TOO_LONG = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}"


@pytest.mark.parametrize("target, message, flag", [
    (target, message, flag)
    for target, message in [("absent/x.csv", "output directory not found"),
                            ("a_directory", "output path is a directory"),
                            (None, "output path is empty")]
    for flag in ("--out", "--ratios-out")
] + [("a_directory/r.csv.config.json", "output path is a directory", "<out>.config.json"),
     ("a_directory/r.csv.partial", "output path is a directory", "<out>.partial")]
  + [pytest.param("x" * 300, TOO_LONG, flag, id=f"too-long-{flag}")
     for flag in ("--out", "--ratios-out")]
  # a legal 254-character --out whose sidecar name is too long
  + [pytest.param("y" * 250 + ".csv.config.json", TOO_LONG, "<out>.config.json",
                  id="too-long-<out>.config.json")])
def test_run_into_unwritable_path_fails_before_estimating(tmp_path, monkeypatch, capsys,
                                                          flag, target, message):
    cfg = write_config(tmp_path, {**TINY, "sweep": {"d": [5.0, 100.0]}, "bounds": "lower"})
    (tmp_path / "a_directory").mkdir()
    monkeypatch.setattr(cli, "lower_bound", lambda *a, **k: pytest.fail("estimator ran"))
    paths = {"--out": str(tmp_path / "r.csv"), "--ratios-out": str(tmp_path / "q.csv")}
    paths[flag] = "" if target is None else str(tmp_path / target)
    if flag.startswith("<out>"):
        # a file the run would write next to --out, named after it
        paths["--out"] = paths[flag].removesuffix(flag.removeprefix("<out>"))
        if message != TOO_LONG:
            os.mkdir(paths[flag])
    argv = ["run", "--config", cfg] + [arg for name in ("--out", "--ratios-out")
                                       for arg in (name, paths[name])]
    assert main(argv) == 2
    err = capsys.readouterr().err
    # the message names the path, or the flag when the path is empty
    assert err.startswith(f"error: {message}") and (paths[flag] or flag) in err
    assert sorted(tmp_path.iterdir()) == [tmp_path / "a_directory", tmp_path / "cfg.json"]
    assert [p for p in tmp_path.rglob("*") if not p.is_dir()] == [tmp_path / "cfg.json"]


@pytest.mark.parametrize("config, out, ratios, pair", [
    ("cfg.json", "cfg.json", None, "--config and --out"),
    ("cfg.json", "r.csv", "./r.csv", "--out and --ratios-out"),
    ("cfg.json", "r.csv", "r.csv.config.json", "<out>.config.json and --ratios-out"),
    ("r.csv.config.json", "./r.csv", None, "--config and <out>.config.json"),
    ("r.csv.partial", "r.csv", None, "--config and <out>.partial"),
    ("cfg.json", "r.csv", "r.csv.partial", "<out>.partial and --ratios-out"),
])
def test_run_with_colliding_paths_fails_before_estimating(tmp_path, monkeypatch, capsys,
                                                          config, out, ratios, pair):
    monkeypatch.chdir(tmp_path)
    payload = json.dumps({**TINY, "bounds": "lower"})
    Path(config).write_text(payload)
    monkeypatch.setattr(cli, "lower_bound", lambda *a, **k: pytest.fail("estimator ran"))
    argv = ["run", "--config", config, "--out", out]
    argv += ["--ratios-out", ratios] if ratios else []
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {pair} name the same file")
    assert sorted(p.name for p in tmp_path.iterdir()) == [config]
    assert Path(config).read_text() == payload


@pytest.mark.parametrize("h1_mode", ["fixed-draw", "averaged"])
@pytest.mark.parametrize("extreme", [
    {"link_distance_m": 1e-9}, {"link_distance_m": 1e-90},
    {"interferer_distances_m": [6e-93]},
    {"num_nodes": 1, "duty_cycles": [0.5], "interferer_distances_m": []},
    {"codeword_len": 1, "interferer_distances_m": [2.0]},
    {"duty_cycles": [0.5, 1e-9]},
], ids=["link-1e-9", "link-1e-90", "interferer-6e-93", "no-interferer", "codeword-1",
        "silent-interferer"])
def test_averaged_rows_stay_finite_at_extreme_snr(tmp_path, h1_mode, extreme):
    # A_i^2 / sigma^2 up to near the float limit: the closed-form h1 average
    # sums log1p terms, and neither it nor the fixed-draw kernel may overflow
    # or warn. Nor may the degenerate shapes: no interferer (J = 0 rows,
    # eigenvalues and prefix sums), N = 1 (2 x 2 grams of rank <= 1) and a
    # silent interferer (all-zero rows, atan2(0, 0))
    cfg = write_config(tmp_path, {**TINY, "h1_mode": h1_mode, **extreme})
    out = tmp_path / "r.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = read_result_csv(out)
    assert [row.bound for row in rows] == ["lower", "upper"]
    assert all(np.isfinite([row.rate_bits_per_symbol, row.ci_halfwidth]).all() for row in rows)


@pytest.mark.parametrize("h1_mode", ["fixed-draw", "averaged"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_paper_size_rows_stay_finite_at_the_loaders_snr_limit(h1_mode, seed):
    # the shortest link the loader accepts, to 5% on a log grid, at N = 80 and
    # M = 5: the kernel sums N A_1^2 ||h1||^2 / sigma^2, which the per-node
    # SNR alone does not bound
    base = {"codeword_len": 80, "taps": 5, "samples_theta": 16, "samples_pd": 16,
            "samples_upper": 400, "seed": seed, "h1_mode": h1_mode}
    links = np.geomspace(1e-93, 1e-89, 190)
    for link in links:
        try:
            spec = spec_from_mapping({**base, "link_distance_m": float(link)})
            break
        except ConfigError as err:
            assert err.code == "bad-value"
    assert links[0] < link < links[-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        estimates = [lower_bound(spec.base), upper_bound(spec.base)]
    assert all(np.isfinite([est.rate, est.ci_halfwidth]).all() for est in estimates)


def test_config_seed_changes_results(tmp_path):
    # the config's "seed" is the one way to set a run's seed
    outs = []
    for seed in (11, 99):
        cfg = write_config(tmp_path, {**TINY, "bounds": "lower", "seed": seed})
        outs.append(tmp_path / f"r{seed}.csv")
        assert main(["run", "--config", cfg, "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() != outs[1].read_bytes()


@pytest.mark.parametrize("writer", ["_write_csv", "_write_ratios"])
def test_a_failed_result_write_is_not_a_rejected_path(tmp_path, monkeypatch, writer):
    # exit 2 is for paths the checks reject up front; a full disk while
    # writing a result keeps its traceback
    cfg = write_config(tmp_path, {**TINY, "sweep": {"d": [5.0, 100.0]}, "bounds": "lower"})

    def full(path, rows):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
    monkeypatch.setattr(cli, writer, full)
    with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
        main(["run", "--config", cfg, "--out", str(tmp_path / "r.csv"),
              "--ratios-out", str(tmp_path / "q.csv")])


def test_main_exit_codes(tmp_path, monkeypatch, capsys):
    assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 2
    bad = write_config(tmp_path, {"codeword_len": -3})
    assert main(["validate", "--config", bad]) == 2
    # a config path the OS rejects: named on stderr, nothing written
    long = str(tmp_path / ("x" * 300))
    for argv in (["validate", "--config", long],
                 ["run", "--config", long, "--out", str(tmp_path / "r.csv")]):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {TOO_LONG}") and long in err
    assert sorted(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    cfg = write_config(tmp_path, {**TINY, "bounds": "lower"})
    monkeypatch.setattr(cli, "lower_bound",
                        lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 3
    assert (tmp_path / "r.csv.partial").exists()
