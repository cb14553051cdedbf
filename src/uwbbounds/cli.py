"""Experiment driver: rate-bound sweeps over distance and duty cycle.

    uwbbounds run --config cfg.json [--preset paper|desk] [--seed S]
                  [--out results.csv] [--ratios-out ratios.csv]
                  [--reference-distance 100.0]
    uwbbounds validate --config cfg.json

Results go to one CSV with columns l_m, d_m, eta1, eta2, bound,
rate_bits_per_symbol, ci_halfwidth, samples, seed, wall_s; the fully
materialized config is written next to it as <out>.config.json. Output bytes
are a pure function of (config, seed): the wall_s column is fixed at 0.0 and
real timings go to stderr. Each sweep point gets its own derived seed,
recorded in its rows; the fixed channel draw comes from the base seed and is
shared by the whole sweep.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .bounds import BoundEstimate, draw_h1, lower_bound, upper_bound
from .config import (PRESETS, ConfigError, SweepSpec, effective_config,
                     load_config, spec_from_mapping)
from .model import ScenarioConfig

CSV_COLUMNS = ("l_m", "d_m", "eta1", "eta2", "bound", "rate_bits_per_symbol",
               "ci_halfwidth", "samples", "seed", "wall_s")


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
    wall_s: float = 0.0         # fixed; real timings go to stderr

    def csv_values(self) -> list[str]:
        blank = lambda x: "" if x is None else repr(float(x))  # noqa: E731
        return [blank(self.l_m), blank(self.d_m), blank(self.eta1), blank(self.eta2),
                self.bound, blank(self.rate_bits_per_symbol), blank(self.ci_halfwidth),
                str(self.samples), str(self.seed), blank(self.wall_s)]


def _apply_point(base: ScenarioConfig, assignment: dict[str, float]) -> ScenarioConfig:
    changes = {}
    if "l" in assignment:
        changes["link_distance_m"] = assignment["l"]
    if "d" in assignment:
        rest = base.interferer_distances_m[1:]
        changes["interferer_distances_m"] = (assignment["d"],) + rest
    if "eta1" in assignment:
        changes["duty_cycles"] = (assignment["eta1"],) + base.duty_cycles[1:]
    if "eta2" in assignment:
        duty = changes.get("duty_cycles", base.duty_cycles)
        changes["duty_cycles"] = (duty[0], assignment["eta2"]) + duty[2:]
    return replace(base, **changes) if changes else base


def sweep_points(spec: SweepSpec) -> list[ScenarioConfig]:
    """Cross product of the swept values, lexicographic in declaration order."""
    variables = list(spec.sweep)
    return [_apply_point(spec.base, dict(zip(variables, combo)))
            for combo in itertools.product(*(spec.sweep[v] for v in variables))]


def _point_seed(base_seed: int, kind: int, index: int) -> int:
    words = np.random.SeedSequence((base_seed, kind, index)).generate_state(1, dtype=np.uint64)
    return int(words[0])


def _make_row(scenario: ScenarioConfig, estimate, seed: int) -> ResultRow:
    has_interferer = scenario.num_nodes >= 2
    return ResultRow(
        l_m=scenario.link_distance_m,
        d_m=scenario.interferer_distances_m[0] if has_interferer and estimate.kind == "lower" else None,
        eta1=scenario.duty_cycles[0],
        eta2=scenario.duty_cycles[1] if has_interferer and estimate.kind == "lower" else None,
        bound=estimate.kind,
        rate_bits_per_symbol=estimate.rate,
        ci_halfwidth=estimate.ci_halfwidth,
        samples=estimate.samples_used,
        seed=seed)


def _write_csv(path, rows: list[ResultRow]) -> None:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(row.csv_values()) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def run_sweep(spec: SweepSpec, out_path) -> list[ResultRow]:
    """Evaluate the sweep, write the CSV and its effective-config sidecar.

    Lower rows come first in point order, then one upper row per distinct
    (l, eta1) since the upper bound reads nothing else. On estimator failure
    the finished rows land in <out>.partial and EstimatorFailure is raised.
    """
    out_path = Path(out_path)
    base_seed = spec.base.rng_seed
    out_path.with_name(out_path.name + ".config.json").write_text(
        json.dumps(effective_config(spec), indent=2) + "\n")
    points = sweep_points(spec)
    h1 = draw_h1(spec.base) if spec.base.h1_mode == "fixed-draw" else None
    rows: list[ResultRow] = []
    try:
        if spec.bounds in ("lower", "both"):
            for i, scenario in enumerate(points):
                seed = _point_seed(base_seed, 0, i)
                started = time.perf_counter()
                est = lower_bound(scenario, h1=h1, seed=seed)
                rows.append(_make_row(scenario, est, seed))
                print(f"[{i + 1}/{len(points)}] lower l={scenario.link_distance_m:g} "
                      f"d={scenario.interferer_distances_m[:1] or '-'} "
                      f"eta={scenario.duty_cycles} rate={est.rate:.6g} "
                      f"ci={est.ci_halfwidth:.2g} ({time.perf_counter() - started:.1f}s)",
                      file=sys.stderr)
        if spec.bounds in ("upper", "both"):
            groups: list[ScenarioConfig] = []
            seen = set()
            for scenario in points:
                key = (scenario.link_distance_m, scenario.duty_cycles[0])
                if key not in seen:
                    seen.add(key)
                    groups.append(scenario)
            for g, scenario in enumerate(groups):
                seed = _point_seed(base_seed, 1, g)
                started = time.perf_counter()
                est = upper_bound(scenario, h1=h1, seed=seed)
                rows.append(_make_row(scenario, est, seed))
                print(f"[upper {g + 1}/{len(groups)}] l={scenario.link_distance_m:g} "
                      f"eta1={scenario.duty_cycles[0]:g} rate={est.rate:.6g} "
                      f"ci={est.ci_halfwidth:.2g} ({time.perf_counter() - started:.1f}s)",
                      file=sys.stderr)
    except Exception as err:
        partial = out_path.with_name(out_path.name + ".partial")
        _write_csv(partial, rows)
        raise EstimatorFailure(f"sweep aborted after {len(rows)} rows: {err}") from err
    _write_csv(out_path, rows)
    return rows


def figure_ratios(rows: list[ResultRow], reference_distance: float = 100.0):
    """Lower-bound rows with a rate / rate(d = reference) column per
    (l, eta1, eta2) group: the interference penalty relative to a far node."""
    lower = [r for r in rows if r.bound == "lower" and r.d_m is not None]
    reference = {}
    for r in lower:
        if r.d_m == reference_distance:
            reference[(r.l_m, r.eta1, r.eta2)] = r.rate_bits_per_symbol
    out = []
    for r in lower:
        key = (r.l_m, r.eta1, r.eta2)
        group = f"group l={r.l_m}, eta1={r.eta1}, eta2={r.eta2}"
        if key not in reference:
            raise ValueError(f"no row at reference distance {reference_distance} m for {group}")
        if reference[key] == 0.0:
            raise ValueError(f"rate at reference distance {reference_distance} m is 0 "
                             f"for {group}; the ratio is undefined")
        out.append((r, r.rate_bits_per_symbol / reference[key]))
    return out


def _write_ratios(path, pairs) -> None:
    lines = [",".join(CSV_COLUMNS[:7]) + ",rate_ratio"]
    for row, ratio in pairs:
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
    run_p.add_argument("--preset", choices=sorted(PRESETS), help="named base profile")
    run_p.add_argument("--seed", type=int, help="override the config seed")
    run_p.add_argument("--out", default="results.csv", help="output CSV path")
    run_p.add_argument("--ratios-out", help="also write rate/rate(reference) table")
    run_p.add_argument("--reference-distance", type=float, default=100.0)

    val_p = sub.add_parser("validate", help="check a config and print it materialized")
    val_p.add_argument("--config", required=True)
    val_p.add_argument("--preset", choices=sorted(PRESETS))

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            spec = load_config(args.config, preset=args.preset)
            try:
                print(json.dumps(effective_config(spec), indent=2), flush=True)
            except BrokenPipeError:
                # the reader left early (`validate ... | head`): silence the exit flush
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
            return 0
        # run; an output path that cannot be a file, or that names the same
        # file as another path of the run, fails here, before any estimator
        for path in map(Path, filter(None, (args.out, args.ratios_out))):
            if not path.parent.is_dir():
                raise ValueError(f"output directory not found: {path.parent} (for {path})")
            if path.is_dir():
                raise ValueError(f"output path is a directory: {path}")
        out = Path(args.out)
        named = {"--config": args.config, "--out": args.out,
                 "<out>.config.json": out.with_name(out.name + ".config.json"),
                 "--ratios-out": args.ratios_out}
        seen: dict[Path, str] = {}
        for flag, path in named.items():
            if path is None:
                continue
            resolved = Path(path).resolve()
            if resolved in seen:
                raise ValueError(f"{seen[resolved]} and {flag} name the same file: {path}")
            seen[resolved] = flag
        if args.config is not None:
            spec = load_config(args.config, preset=args.preset)
        else:
            spec = spec_from_mapping({}, preset=args.preset)
        if args.seed is not None:
            spec = SweepSpec(base=replace(spec.base, rng_seed=args.seed),
                             sweep=spec.sweep, bounds=spec.bounds)
        if args.ratios_out and spec.bounds != "upper":
            # each group of lower points needs its reference point: check the
            # rows the sweep will write, rates unknown, before any estimator
            planned = BoundEstimate(np.nan, np.nan, 0, "lower")
            figure_ratios([_make_row(p, planned, 0) for p in sweep_points(spec)],
                          args.reference_distance)
        rows = run_sweep(spec, args.out)
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
        if args.ratios_out:
            _write_ratios(args.ratios_out, figure_ratios(rows, args.reference_distance))
            print(f"wrote ratios to {args.ratios_out}", file=sys.stderr)
        return 0
    except ConfigError as err:
        print(f"config error [{err.code}]: {err}", file=sys.stderr)
        return 2
    except EstimatorFailure as err:
        print(f"estimator failure: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
