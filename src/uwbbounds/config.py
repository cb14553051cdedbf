"""JSON experiment configs: validation, defaults, sweeps.

A config file is one JSON object and the whole description of a run. Its
scenario keys are the ScenarioConfig field names, "seed" included; a "sweep"
object maps l, d, eta1 and eta2 to value lists for link_distance_m,
interferer_distances_m[0] and duty_cycles[0] and [1] (SWEEP_VARS), and "bounds"
selects the estimators. The loader checks the top-level keys; ScenarioConfig
checks every scenario value, and SweepSpec, loaded or built by hand, checks its
bound selection and its sweep: it builds the scenario of every sweep point
(`_apply_point`), so the swept values are checked together, and no value list
repeats a value. Every loaded config materializes all defaults, so the
effective config written next to a result file reloads to the identical sweep.
In fixed-draw mode that includes the channel "h1": a SweepSpec whose base
leaves it out pins the base's `channel()`, the draw keyed by the base seed,
which ScenarioConfig has checked as it checks a given h1, and every sweep point
inherits it, whatever seed its row runs with.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from types import MappingProxyType

from .model import InvalidParameterError, InvalidTypeError, ScenarioConfig

# the scenario keys: ScenarioConfig's field names, in field order
_FIELDS = tuple(f.name for f in fields(ScenarioConfig))

SWEEP_VARS = {"l": ("link_distance_m", None), "d": ("interferer_distances_m", 0),
              "eta1": ("duty_cycles", 0), "eta2": ("duty_cycles", 1)}
BOUND_CHOICES = ("lower", "upper", "both")


class ConfigError(Exception):
    """Config rejection with a machine-readable code: missing-file,
    malformed-json, unknown-key, bad-type (an InvalidTypeError, or a "bounds"
    or "sweep" entry of the wrong shape), or bad-value (any other rejection;
    a sweep point's message starts with its values, "sweep.l=2.0, sweep.d=0: ")."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: a base scenario, swept variables in declaration order,
    and the bound selection, checked as a config's are. A fixed-draw base keeps
    its channel() as h1; the sweep is stored read-only, its value lists as
    float tuples, so no value can change after the checks. The derived `points`
    are the sweep points' checked scenarios, lexicographic in declaration order."""

    base: ScenarioConfig
    sweep: Mapping[str, tuple] = field(default_factory=dict)
    bounds: str = "both"
    points: tuple[ScenarioConfig, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = self.base.channel()
        if h is not None:
            object.__setattr__(self, "base", replace(self.base, h1=tuple(h)))
        if not isinstance(self.bounds, str):
            raise ConfigError("bad-type", "bounds must be a string")
        if self.bounds not in BOUND_CHOICES:
            raise ConfigError("bad-value",
                              f"bounds must be one of {BOUND_CHOICES}, got {self.bounds!r}")
        if not isinstance(self.sweep, Mapping):
            raise ConfigError("bad-type", "sweep must be an object")
        for var, values in self.sweep.items():
            if var not in SWEEP_VARS:
                raise ConfigError("unknown-key", f"unknown sweep variable {var!r}")
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError("bad-type", f"sweep.{var} must be a non-empty array")
        # built from the raw values, so ScenarioConfig checks each value's type and
        # the values together: l and eta1 both set A_1, d and eta2 both set A_2
        points = []
        for combo in itertools.product(*self.sweep.values()):
            point = dict(zip(self.sweep, combo))
            prefix = ", ".join(f"sweep.{var}={x!r}" for var, x in point.items()) + ": "
            points.append(_scenario(lambda: _apply_point(self.base, point), prefix))
        sweep = {var: tuple(float(x) for x in values) for var, values in self.sweep.items()}
        for var, values in sweep.items():
            # a repeated value would write two rows under one sweep-point key
            if len(set(values)) < len(values):
                raise ConfigError("bad-value", f"sweep.{var}: values must not repeat, "
                                               f"got {list(self.sweep[var])!r}")
        object.__setattr__(self, "sweep", MappingProxyType(sweep))
        object.__setattr__(self, "points", tuple(points))


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
    for var, value in assignment.items():
        name, i = SWEEP_VARS[var]
        # sliced, not indexed: a missing entry makes a tuple ScenarioConfig rejects
        old = changes.get(name, getattr(base, name))
        changes[name] = value if i is None else old[:i] + (value,) + old[i + 1:]
    return replace(base, **changes) if changes else base


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
        if p.is_dir():
            raise ConfigError("missing-file", f"config path is a directory: {p}")
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
