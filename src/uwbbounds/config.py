"""JSON experiment configs: validation, defaults, sweeps.

A config file is one JSON object and the whole description of a run. Its
scenario keys are the ScenarioConfig field names, "seed" included; a "sweep"
object maps swept variables (l, d, eta1, eta2) to value lists, and "bounds"
selects which estimators run. The loader checks the top-level keys;
ScenarioConfig checks every scenario value, and SweepSpec, loaded or built by
hand, checks its sweep and bound selection, a sweep value by applying it to
the base scenario (`_apply_point`). Every loaded config materializes all
defaults, so the effective config written next to a result file reloads to
the identical sweep. In fixed-draw mode that includes the channel "h1": a
SweepSpec whose base leaves it out pins the base's `channel()`, the draw
keyed by the base seed, checked as a given h1 is, and every sweep point
inherits it, whatever seed its row runs with.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .model import InvalidParameterError, InvalidTypeError, ScenarioConfig

# the scenario keys: ScenarioConfig's field names, in field order
_FIELDS = tuple(f.name for f in fields(ScenarioConfig))

SWEEP_VARS = ("l", "d", "eta1", "eta2")
BOUND_CHOICES = ("lower", "upper", "both")


class ConfigError(Exception):
    """Config rejection with a machine-readable code: missing-file,
    malformed-json, unknown-key, bad-type (an InvalidTypeError, or a "bounds"
    or "sweep" entry of the wrong shape), or bad-value (any other rejection;
    a sweep value's message starts with "sweep.<var>: ")."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: a base scenario, swept variables in declaration order,
    and the bound selection, checked as a config's are. A fixed-draw base keeps
    its channel() as h1; a sweep's value lists are stored as float tuples."""

    base: ScenarioConfig
    sweep: dict[str, tuple] = field(default_factory=dict)
    bounds: str = "both"

    def __post_init__(self):
        h = self.base.channel()
        if h is not None:
            object.__setattr__(self, "base", _scenario(lambda: replace(self.base, h1=tuple(h))))
        if not isinstance(self.bounds, str):
            raise ConfigError("bad-type", "bounds must be a string")
        if self.bounds not in BOUND_CHOICES:
            raise ConfigError("bad-value",
                              f"bounds must be one of {BOUND_CHOICES}, got {self.bounds!r}")
        if not isinstance(self.sweep, dict):
            raise ConfigError("bad-type", "sweep must be an object")
        sweep: dict[str, tuple] = {}
        for var, values in self.sweep.items():
            if var not in SWEEP_VARS:
                raise ConfigError("unknown-key", f"unknown sweep variable {var!r}")
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError("bad-type", f"sweep.{var} must be a non-empty array")
            # each value must give a valid scenario alone; the swept variables
            # set separate entries, so every point of the sweep is then valid
            for x in values:
                _scenario(lambda: _apply_point(self.base, {var: x}), f"sweep.{var}: ")
            sweep[var] = tuple(float(x) for x in values)
        object.__setattr__(self, "sweep", sweep)


def _reject_duplicates(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError("malformed-json", f"duplicate key {key!r}")
        out[key] = value
    return out


def _scenario(build, prefix: str = "") -> ScenarioConfig:
    """build(), with ScenarioConfig's rejection as a ConfigError."""
    try:
        return build()
    except InvalidParameterError as err:
        code = "bad-type" if isinstance(err, InvalidTypeError) else "bad-value"
        raise ConfigError(code, prefix + str(err)) from err


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


def spec_from_mapping(data: dict) -> SweepSpec:
    """Validate one parsed config object against the schema."""
    for key in data:
        if key not in _FIELDS and key not in ("sweep", "bounds"):
            raise ConfigError("unknown-key", f"unknown config key {key!r}")
    kwargs = {key: data[key] for key in _FIELDS if key in data}
    base = _scenario(lambda: ScenarioConfig(**kwargs))
    return SweepSpec(base=base, sweep=data.get("sweep", {}), bounds=data.get("bounds", "both"))


def load_config(path) -> SweepSpec:
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
    return spec_from_mapping(data)


def effective_config(spec: SweepSpec) -> dict:
    """The fully materialized config; reloading it rebuilds the same SweepSpec."""
    config = {}
    for key in _FIELDS:
        value = getattr(spec.base, key)
        config[key] = list(value) if isinstance(value, tuple) else value
    config["sweep"] = {var: list(vals) for var, vals in spec.sweep.items()}
    config["bounds"] = spec.bounds
    return config
