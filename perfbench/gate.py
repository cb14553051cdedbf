"""Correctness gate: checks each CSV row of a run and counts the rows that fail.

A row fails when
- its rate is non-finite or outside [0, 1], or its CI half-width is negative
  or non-finite;
- its (l_m, d_m, eta1, eta2, bound) key is not the reference row's, or the
  row is missing or extra;
- its rate is further from the rate recorded for the same input at the commit
  that defined the benchmark than TOL_CI combined 95% half-widths,
  hypot(ci, ci_ref), plus TOL_ABS bits/symbol. The floor stops a row whose
  recorded CI collapsed to 0 (every sample saturated) from demanding equality
  to the last bit;
- its bytes differ from the same row of another invocation of the same
  config in the same run, since output is a pure function of (config, seed).

C_l > C_u crossings are counted and reported, not failed: the threshold
decoding bound is known to overshoot on some inputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

CSV_HEADER = ("l_m,d_m,eta1,eta2,bound,rate_bits_per_symbol,ci_halfwidth,"
              "samples,seed,wall_s")
TOL_CI = 3.0
TOL_ABS = 1e-4

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference(workload: str, config_seed: int) -> list[list]:
    """Reference rows [l, d, eta1, eta2, bound, rate, ci] for one input."""
    data = json.loads(REFERENCE_PATH.read_text())
    return data[workload][str(config_seed)]


def parse_row(line: str) -> dict:
    """One CSV line as a dict; raises ValueError if it is malformed."""
    parts = line.split(",")
    if len(parts) != CSV_HEADER.count(",") + 1:
        raise ValueError(f"expected 10 fields, got {len(parts)}")
    num = lambda s: float(s) if s else None  # noqa: E731
    return {"key": [num(parts[0]), num(parts[1]), num(parts[2]), num(parts[3]), parts[4]],
            "rate": float(parts[5]), "ci": float(parts[6]), "samples": int(parts[7])}


def row_failure(line: str | None, ref: list | None) -> str | None:
    """Why one row fails against its reference row, or None if it passes."""
    if line is None:
        return "row missing"
    if ref is None:
        return "row not in the reference"
    try:
        row = parse_row(line)
    except ValueError as err:
        return f"unparseable row {line!r}: {err}"
    if row["key"] != ref[:5]:
        return f"row key {row['key']} != reference {ref[:5]}"
    rate, ci = row["rate"], row["ci"]
    if not (math.isfinite(rate) and 0.0 <= rate <= 1.0):
        return f"rate {rate!r} outside [0, 1]"
    if not (math.isfinite(ci) and ci >= 0.0):
        return f"CI half-width {ci!r} negative or non-finite"
    ref_rate, ref_ci = ref[5], ref[6]
    allowed = TOL_CI * math.hypot(ci, ref_ci) + TOL_ABS
    if abs(rate - ref_rate) > allowed:
        return (f"{ref[4]} rate {rate!r} is {abs(rate - ref_rate):.3g} from reference "
                f"{ref_rate!r}, more than {allowed:.3g}")
    return None


def check_csv(text: str | None, reference: list[list],
              first_text: str | None = None) -> tuple[int, list[str]]:
    """(rows attempted, one message per failing row) for one invocation.

    first_text is the CSV of the first invocation of the same config in the
    run; a row whose bytes differ from it fails.
    """
    if text is None:
        return len(reference), ["no CSV written"] * len(reference)
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return len(reference), ["bad CSV header"] * len(reference)
    rows = lines[1:]
    first_rows = first_text.splitlines()[1:] if first_text is not None else rows
    attempted = max(len(rows), len(reference))
    failures = []
    for i in range(attempted):
        line = rows[i] if i < len(rows) else None
        why = row_failure(line, reference[i] if i < len(reference) else None)
        if why is None and (i >= len(first_rows) or line != first_rows[i]):
            why = f"row {i + 1} bytes differ between invocations of one config"
        if why is not None:
            failures.append(f"row {i + 1}: {why}")
    return attempted, failures


def parse_csv(text: str | None) -> list[dict] | None:
    """All rows of a CSV, or None if it is missing or any row is malformed."""
    lines = (text or "").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return None
    try:
        return [parse_row(line) for line in lines[1:]]
    except ValueError:
        return None


def crossings(text: str | None) -> int:
    """Lower rows whose C_l exceeds the C_u of their (l, eta1) group."""
    rows = parse_csv(text) or []
    upper = {(r["key"][0], r["key"][2]): r["rate"] for r in rows if r["key"][4] == "upper"}
    return sum(1 for r in rows if r["key"][4] == "lower"
               and r["rate"] > upper.get((r["key"][0], r["key"][2]), math.inf))
