"""JSON experiment configs: validation, defaults, sweeps, presets.

A config file is one JSON object. Scenario keys mirror ScenarioConfig; a
"sweep" object maps swept variables (l, d, eta1, eta2) to value lists, and
"bounds" selects which estimators run. Every loaded config materializes all
defaults, so the effective config written next to a result file reloads to
the identical sweep.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .model import InvalidParameterError, ScenarioConfig

# config key -> ScenarioConfig field, in field order; the key "seed" sets rng_seed
_FIELDS = {("seed" if f.name == "rng_seed" else f.name): f for f in fields(ScenarioConfig)}

SWEEP_VARS = ("l", "d", "eta1", "eta2")
BOUND_CHOICES = ("lower", "upper", "both")

# full-size run vs a reduced instance whose CIs close in minutes
PRESETS = {
    "paper": {},
    "desk": {"codeword_len": 40, "taps": 3},
}


class ConfigError(Exception):
    """Config rejection with a machine-readable code: missing-file,
    malformed-json, unknown-key, bad-type, or bad-value."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: a base scenario, swept variables in declaration order,
    and the bound selection."""

    base: ScenarioConfig
    sweep: dict[str, tuple] = field(default_factory=dict)
    bounds: str = "both"


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _reject_duplicates(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError("malformed-json", f"duplicate key {key!r}")
        out[key] = value
    return out


def spec_from_mapping(data: dict, preset: str | None = None) -> SweepSpec:
    """Validate one parsed config object against the schema."""
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError("bad-value", f"unknown preset {preset!r}")
        merged = dict(PRESETS[preset])
        merged.update(data)
        data = merged
    for key in data:
        if key not in _FIELDS and key not in ("sweep", "bounds"):
            raise ConfigError("unknown-key", f"unknown config key {key!r}")

    kwargs = {}
    for key, spec_field in _FIELDS.items():
        if key not in data:
            continue
        value, kind = data[key], type(spec_field.default)
        if kind is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError("bad-type", f"{key} must be an integer")
        elif kind is float:
            if not _is_number(value):
                raise ConfigError("bad-type", f"{key} must be a number")
        elif kind is tuple:
            if not isinstance(value, list) or not all(_is_number(x) for x in value):
                raise ConfigError("bad-type", f"{key} must be an array of numbers")
        elif not isinstance(value, str):
            raise ConfigError("bad-type", f"{key} must be a string")
        kwargs[spec_field.name] = value

    try:
        base = ScenarioConfig(**kwargs)
    except InvalidParameterError as err:
        raise ConfigError("bad-value", str(err)) from err

    bounds = data.get("bounds", "both")
    if not isinstance(bounds, str):
        raise ConfigError("bad-type", "bounds must be a string")
    if bounds not in BOUND_CHOICES:
        raise ConfigError("bad-value", f"bounds must be one of {BOUND_CHOICES}, got {bounds!r}")

    raw_sweep = data.get("sweep", {})
    if not isinstance(raw_sweep, dict):
        raise ConfigError("bad-type", "sweep must be an object")
    sweep: dict[str, tuple] = {}
    for var, values in raw_sweep.items():
        if var not in SWEEP_VARS:
            raise ConfigError("unknown-key", f"unknown sweep variable {var!r}")
        if not isinstance(values, list) or not values:
            raise ConfigError("bad-type", f"sweep.{var} must be a non-empty array")
        if not all(_is_number(x) for x in values):
            raise ConfigError("bad-type", f"sweep.{var} must contain only numbers")
        try:
            vals = tuple(float(x) for x in values)
        except OverflowError:       # a JSON integer beyond the float range
            raise ConfigError("bad-value", f"sweep.{var} values must be finite") from None
        if not all(math.isfinite(x) for x in vals):
            raise ConfigError("bad-value", f"sweep.{var} values must be finite")
        if var in ("eta1", "eta2") and not all(0.0 < x < 1.0 for x in vals):
            raise ConfigError("bad-value", f"sweep.{var} values must be in (0, 1)")
        if var in ("l", "d") and not all(x > 0.0 for x in vals):
            raise ConfigError("bad-value", f"sweep.{var} values must be > 0")
        if var in ("d", "eta2") and base.num_nodes < 2:
            raise ConfigError("bad-value", f"sweep.{var} needs at least one interferer")
        sweep[var] = vals
    return SweepSpec(base=base, sweep=sweep, bounds=bounds)


def load_config(path, preset: str | None = None) -> SweepSpec:
    """Parse and validate a JSON config file."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError("missing-file", f"config file not found: {p}")
    try:
        data = json.loads(p.read_text(), object_pairs_hook=_reject_duplicates)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigError("malformed-json", f"{p}: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError("malformed-json", f"{p}: top level must be an object")
    return spec_from_mapping(data, preset)


def effective_config(spec: SweepSpec) -> dict:
    """The fully materialized config; reloading it rebuilds the same SweepSpec."""
    config = {}
    for key, spec_field in _FIELDS.items():
        value = getattr(spec.base, spec_field.name)
        config[key] = list(value) if isinstance(value, tuple) else value
    config["sweep"] = {var: list(vals) for var, vals in spec.sweep.items()}
    config["bounds"] = spec.bounds
    return config
