"""Experiment driver: rate-bound sweeps over distance and duty cycle.

    uwbbounds run [--config cfg.json] [--out results.csv] [--ratios-out ratios.csv]
    uwbbounds validate --config cfg.json

The config file is the whole description of a run, its seed included; with
no --config, `run` evaluates the defaults, as the config {} would. Results go
to one CSV (ResultRow's fields, then wall_s), the fully materialized config
to <out>.config.json next to it. Output bytes are a pure function of the
config: the wall_s column is fixed at 0.0 and real timings go to stderr. A
run evaluates one row plan (`row_plan`) of (CSV key, scenario) rows; each
row's scenario is its sweep point with a derived seed, recorded in the row,
and the row is its key and the estimator's result for that scenario alone.
Every file a run writes has its path checked before any estimator runs, and
so has the ratio table: --ratios-out needs a planned key with a d, that is a
lower row with an interferer. The finished lower rows are then divided by
the row of their (l, eta1, eta2) group at the farthest d.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .bounds import lower_bound, upper_bound
from .config import ConfigError, SweepSpec, effective_config, load_config, spec_from_mapping
from .model import ScenarioConfig


class EstimatorFailure(RuntimeError):
    """An estimator raised mid-sweep; partial results were saved."""


@dataclass(frozen=True)
class ResultRow:
    l_m: float
    d_m: float | None           # None for upper rows and interferer-free runs
    eta1: float
    eta2: float | None
    bound: str
    rate_bits_per_symbol: float
    ci_halfwidth: float
    samples: int
    seed: int

    def csv_values(self) -> list[str]:
        """The CSV fields; wall_s is fixed at 0.0, real timings go to stderr."""
        blank = lambda x: "" if x is None else repr(float(x))  # noqa: E731
        return [blank(self.l_m), blank(self.d_m), blank(self.eta1), blank(self.eta2),
                self.bound, blank(self.rate_bits_per_symbol), blank(self.ci_halfwidth),
                str(self.samples), str(self.seed), "0.0"]


CSV_COLUMNS = (*(f.name for f in fields(ResultRow)), "wall_s")


def _point_seed(base_seed: int, kind: int, index: int) -> int:
    words = np.random.SeedSequence((base_seed, kind, index)).generate_state(1, dtype=np.uint64)
    return int(words[0])


def row_plan(spec: SweepSpec) -> list[tuple[tuple, ScenarioConfig]]:
    """(CSV key, scenario) of every row, in CSV order: lower rows, then upper
    rows, one per distinct key (l_m, d_m, eta1, eta2, bound) of the sweep
    points, so one per point and one per (l, eta1), the upper bound's only
    swept inputs: d and eta2 key only lower rows with an interferer. A row's
    scenario is its point with the row's derived seed."""
    plan = []
    for kind, bound in enumerate(("lower", "upper")):
        if spec.bounds in (bound, "both"):
            keyed = {}
            for p in spec.points:
                lower = bound == "lower" and p.num_nodes >= 2
                keyed[(p.link_distance_m, p.interferer_distances_m[0] if lower else None,
                       p.duty_cycles[0], p.duty_cycles[1] if lower else None, bound)] = p
            plan += [(key, replace(p, seed=_point_seed(spec.base.seed, kind, i)))
                     for i, (key, p) in enumerate(keyed.items())]
    return plan


def _write_csv(path, rows: list[ResultRow]) -> None:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(row.csv_values()) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def run_sweep(spec: SweepSpec, out_path) -> list[ResultRow]:
    """Evaluate the row plan, write the CSV and its effective-config sidecar.

    On estimator failure the finished rows land in <out>.partial and
    EstimatorFailure is raised.
    """
    out_path = Path(out_path)
    out_path.with_name(out_path.name + ".config.json").write_text(
        json.dumps(effective_config(spec), indent=2) + "\n")
    plan = row_plan(spec)
    rows: list[ResultRow] = []
    try:
        for n, (key, scenario) in enumerate(plan, 1):
            started = time.perf_counter()
            # looked up at call time: a wrapper installed on this module applies
            estimator = lower_bound if key[-1] == "lower" else upper_bound
            est = estimator(scenario)
            rows.append(ResultRow(*key, est.rate, est.ci_halfwidth, est.samples_used,
                                  scenario.seed))
            print(f"[{n}/{len(plan)}] {','.join(rows[-1].csv_values()[:7])} "
                  f"({time.perf_counter() - started:.1f}s)", file=sys.stderr)
    except Exception as err:
        partial = out_path.with_name(out_path.name + ".partial")
        _write_csv(partial, rows)
        raise EstimatorFailure(f"sweep aborted after {len(rows)} rows: {err}") from err
    _write_csv(out_path, rows)
    return rows


def _write_ratios(path, rows: list[ResultRow]) -> None:
    """Each lower row with an interferer, with a rate / rate(reference) column:
    the interference penalty relative to the row of its (l, eta1, eta2) group
    with the largest d."""
    # upper rows and interferer-free rows have no d and no ratio
    rated = [row for row in rows if row.d_m is not None]
    # ascending d, stably, so each group keeps its last, farthest row
    farthest = {(r.l_m, r.eta1, r.eta2): r for r in sorted(rated, key=lambda r: r.d_m)}
    lines = [",".join(CSV_COLUMNS[:7]) + ",rate_ratio"]
    for row in rated:
        reference = farthest[row.l_m, row.eta1, row.eta2]
        if reference.rate_bits_per_symbol == 0.0:
            raise ValueError(f"rate at reference distance {reference.d_m} m is 0 for "
                             f"group l={row.l_m}, eta1={row.eta1}, eta2={row.eta2}; "
                             "the ratio is undefined")
        ratio = row.rate_bits_per_symbol / reference.rate_bits_per_symbol
        lines.append(",".join(row.csv_values()[:7]) + f",{ratio!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="uwbbounds",
        description="Monte-Carlo achievable-rate bounds for impulse-radio links "
                    "under impulsive interference")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="evaluate a sweep and write CSV results")
    run_p.add_argument("--config", help="JSON config path (defaults apply if omitted)")
    run_p.add_argument("--out", default="results.csv", help="output CSV path")
    run_p.add_argument("--ratios-out", help="also write the rate / rate(farthest d) table")

    val_p = sub.add_parser("validate", help="check a config and print it materialized")
    val_p.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    spec = None     # set once the paths pass and the config loads
    try:
        if args.command == "validate":
            spec = load_config(args.config)
            try:
                print(json.dumps(effective_config(spec), indent=2), flush=True)
            except BrokenPipeError:
                # the reader left early (`validate ... | head`): silence the exit flush
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
            return 0
        # run: an output path that is empty, in no directory, a directory or named twice fails here
        for flag, value in (("--out", args.out), ("--ratios-out", args.ratios_out)):
            if value == "":
                raise ValueError(f"output path is empty: {flag}")
        out = Path(args.out)
        seen = {} if args.config is None else {Path(args.config).resolve(): "--config"}
        for flag, value in (("--out", args.out),
                            ("<out>.config.json", out.parent / f"{out.name}.config.json"),
                            ("<out>.partial", out.parent / f"{out.name}.partial"),
                            ("--ratios-out", args.ratios_out)):
            if value is None:
                continue
            path = Path(value)
            if not path.parent.is_dir():
                raise ValueError(f"output directory not found: {path.parent} (for {path})")
            if path.is_dir():
                raise ValueError(f"output path is a directory: {path}")
            resolved = path.resolve()
            if resolved in seen:
                raise ValueError(f"{seen[resolved]} and {flag} name the same file: {value}")
            seen[resolved] = flag
        spec = spec_from_mapping({}) if args.config is None else load_config(args.config)
        if args.ratios_out is not None and all(key[1] is None for key, _ in row_plan(spec)):
            raise ValueError("the ratio table compares lower-bound rows with an interferer, "
                             "and this run writes none")
        rows = run_sweep(spec, args.out)
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
        if args.ratios_out is not None:
            _write_ratios(args.ratios_out, rows)
            print(f"wrote ratios to {args.ratios_out}", file=sys.stderr)
        return 0
    except ConfigError as err:
        print(f"config error [{err.code}]: {err}", file=sys.stderr)
        return 2
    except EstimatorFailure as err:
        print(f"estimator failure: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        if isinstance(err, OSError) and spec is not None:
            raise       # a result write failed; an earlier OSError is a path the OS rejected
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
