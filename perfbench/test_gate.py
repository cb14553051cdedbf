"""Tests of the benchmark itself: the correctness gate and the tracer.

    python3 -m pytest perfbench -q
"""

import json
import math

import pytest

import gate
import run
import workloads

HEADER = gate.CSV_HEADER
LOWER = "3.0,10.0,0.5,0.5,lower,0.6,0.01,40500,17,0.0"
UPPER = "3.0,,0.5,,upper,0.7,0.002,25000,18,0.0"
REFERENCE = [[3.0, 10.0, 0.5, 0.5, "lower", 0.6, 0.01],
             [3.0, None, 0.5, None, "upper", 0.7, 0.002]]


def csv(*rows):
    return "\n".join([HEADER, *rows]) + "\n"


def with_field(row, index, value):
    parts = row.split(",")
    parts[index] = value
    return ",".join(parts)


def test_clean_csv_passes():
    assert gate.check_csv(csv(LOWER, UPPER), REFERENCE) == (2, [])


@pytest.mark.parametrize("rate", ["1.5", "-0.1", "nan", "inf"])
def test_rate_outside_unit_interval_or_non_finite_fails(rate):
    attempted, failures = gate.check_csv(csv(with_field(LOWER, 5, rate), UPPER), REFERENCE)
    assert attempted == 2
    assert len(failures) == 1 and "row 1" in failures[0]


@pytest.mark.parametrize("ci", ["-0.01", "nan", "inf"])
def test_negative_or_non_finite_ci_fails(ci):
    _, failures = gate.check_csv(csv(LOWER, with_field(UPPER, 6, ci)), REFERENCE)
    assert len(failures) == 1 and "row 2" in failures[0]


def test_changed_byte_between_invocations_fails():
    first = csv(LOWER, UPPER)
    # same value, different bytes: still a determinism failure
    again = csv(LOWER, with_field(UPPER, 5, "0.70"))
    assert gate.check_csv(again, REFERENCE) == (2, [])
    _, failures = gate.check_csv(again, REFERENCE, first_text=first)
    assert len(failures) == 1 and "bytes differ" in failures[0]


def test_missing_extra_and_rekeyed_rows_fail():
    assert gate.check_csv(csv(LOWER), REFERENCE)[1] == ["row 2: row missing"]
    attempted, failures = gate.check_csv(csv(LOWER, UPPER, UPPER), REFERENCE)
    assert attempted == 3 and len(failures) == 1
    _, failures = gate.check_csv(csv(with_field(LOWER, 1, "2.0"), UPPER), REFERENCE)
    assert len(failures) == 1 and "key" in failures[0]
    assert len(gate.check_csv(None, REFERENCE)[1]) == 2
    assert len(gate.check_csv("garbage\n", REFERENCE)[1]) == 2


def test_rate_is_checked_against_reference_in_ci_units():
    allowed = gate.TOL_CI * math.hypot(0.01, 0.01) + gate.TOL_ABS
    near = with_field(LOWER, 5, repr(0.6 + 0.99 * allowed))
    far = with_field(LOWER, 5, repr(0.6 + 1.01 * allowed))
    assert gate.check_csv(csv(near, UPPER), REFERENCE)[1] == []
    assert len(gate.check_csv(csv(far, UPPER), REFERENCE)[1]) == 1


def test_crossings_are_counted_per_group():
    crossing = with_field(LOWER, 5, "0.8")
    assert gate.crossings(csv(LOWER, UPPER)) == 0
    assert gate.crossings(csv(crossing, UPPER)) == 1
    # a crossing is reported, not failed, when the reference agrees
    ref = [REFERENCE[0][:5] + [0.8, 0.01], REFERENCE[1]]
    assert gate.check_csv(csv(crossing, UPPER), ref)[1] == []


def test_reference_covers_every_workload_and_config_seed():
    data = json.loads(gate.REFERENCE_PATH.read_text())
    assert set(data) == set(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        assert set(data[name]) == {str(s) for s in range(workloads.CONFIG_SEEDS)}


@pytest.mark.parametrize("extra", [
    {"num_nodes": 2, "duty_cycles": [0.5, 0.5], "interferer_distances_m": [10.0],
     "h1_mode": "fixed-draw", "sweep": {"d": [2.0, 5.0]}, "bounds": "both"},
    {"num_nodes": 3, "duty_cycles": [0.5, 0.35, 0.2], "interferer_distances_m": [2.0, 10.0],
     "h1_mode": "averaged", "sweep": {"l": [2.0, 3.0], "eta1": [0.3]}, "bounds": "both"},
    {"num_nodes": 2, "duty_cycles": [0.5, 0.5], "interferer_distances_m": [10.0],
     "h1_mode": "fixed-draw", "sweep": {"eta1": [0.2, 0.5]}, "bounds": "upper"},
])
def test_traced_counts_match_closed_forms_and_csv_is_unchanged(tmp_path, extra):
    # samples_theta above one kernel chunk, so chunking enters the closed form
    config = {"codeword_len": 6, "taps": 2, "samples_theta": 600, "samples_pd": 40,
              "samples_upper": 300, "seed": 5, **extra}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    plain = run.invoke("plain", config_path, tmp_path, 0)
    traced = run.invoke("trace", config_path, tmp_path, 0)
    assert plain["csv"] is not None and traced["csv"] == plain["csv"]
    layers = run.layer_metrics(traced, 1.0, plain["cpu"], plain["csv"])
    lines = run.self_test(traced, config, layers)
    assert lines and all(line.endswith(" ok") for line in lines), "\n".join(lines)
