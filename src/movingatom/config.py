"""Scenario files: loading, validation, and defaults.

A scenario file (YAML or JSON -- the two are interchangeable, JSON being a
subset of YAML) describes the atom, the coupling model, the momentum
wavepacket, the emission geometry, and the numerical settings. Angles in
scenario files are degrees; the Python API works in radians throughout.

Every key of every section is declared once, in `_KEYS`, with its parser and
default. The loader rejects unknown keys at every level, and keys that a
section's chosen kind or mode never reads (`_READS`): typos should fail
loudly, not silently fall back to defaults. It takes only real true/false for
flags and only finite numbers, and converts everything into the package's
own dataclasses, so a `ScenarioConfig` that loads at all is ready to run.

A file that gives a section read by the physics objects (`_PHYSICS`) has them
built at load. A file that gives none of them (an oracle file) has them built
from the defaults, which always build, when one of them is first read: loading
it imports none of the physics modules.
"""

from __future__ import annotations

import codecs
import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .units import FORMFACTOR_KINDS, VARIANTS

if TYPE_CHECKING:  # the physics types: a run loads them only where it builds the physics
    from .spectra import EmissionScenario, Formfactor


class ConfigError(ValueError):
    """A scenario file is missing, unparsable, or inconsistent."""


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name) or {}
    if not isinstance(value, dict):
        raise ConfigError(f"'{name}' must be a mapping, got {type(value).__name__}")
    return value


# Parsers: each takes (value, where) and returns the checked value or raises.

def _number(bound: str = ""):
    """A finite float; `bound` is "", "positive" or "non-negative"."""
    def parse(value, where):
        try:
            number = math.nan if isinstance(value, bool) else float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if not math.isfinite(number):
            raise ConfigError(f"'{where}' must be a finite number, got {value!r}")
        if bound and not (number > 0 if bound == "positive" else number >= 0):
            raise ConfigError(f"'{where}' must be {bound}, got {value!r}")
        return number
    return parse


def _integer(minimum: int):
    def parse(value, where):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
            raise ConfigError(f"'{where}' must be an integer >= {minimum}, got {value!r}")
        return value
    return parse


def _accept(test, what: str):
    def parse(value, where):
        if not test(value):
            raise ConfigError(f"'{where}' must be {what}, got {value!r}")
        return value
    return parse


def _choice(*options):
    return _accept(lambda value: value in options, f"one of {options}")


_FLAG = _accept(lambda value: isinstance(value, bool), "true or false")
_TEXT = _accept(lambda value: isinstance(value, str), "a string")


def _list(item, length: int | None = None):
    """A list (of `length` entries, if given), each entry parsed by `item`."""
    def parse(value, where):
        if not isinstance(value, (list, tuple, np.ndarray)) or length not in (None, len(value)):
            size = "a list" if length is None else f"a list of {length} entries"
            raise ConfigError(f"'{where}' must be {size}, got {value!r}")
        return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]
    return parse


_VECTOR = _list(_number(), 3)


def _unit(value, where):
    from .geometry import as_unit
    vector = _VECTOR(value, where)
    try:
        return as_unit(vector)
    except ValueError as exc:
        raise ConfigError(f"'{where}': {exc}") from None


_POSITIVE, _NONNEGATIVE = _number("positive"), _number("non-negative")

# Every key of every section: key -> (parser, default). A default of None makes
# the key optional; an explicit null is accepted only for such keys.
_KEYS = {
    "atom": {"mass": (_POSITIVE, None), "omega0": (_POSITIVE, None),
             "gamma0": (_POSITIVE, None), "infinite_mass": (_FLAG, False),
             "epsilon": (_NONNEGATIVE, 0.01), "gamma_tilde": (_POSITIVE, 0.01)},
    "coupling": {"model": (_choice("roentgen", "standard"), "roentgen"),
                 "recoil_term": (_FLAG, True), "momentum_shift": (_FLAG, True)},
    "distribution": {"kind": (_choice("point", "gaussian", "tabulated"), "point"),
                     "beta": (_VECTOR, [0.0, 0.0, 0.0]), "mean": (_VECTOR, [0.0, 0.0, 0.0]),
                     "sigma": (_POSITIVE, None), "sigma_along": (_POSITIVE, None),
                     "covariance": (_list(_VECTOR, 3), None),
                     "direction": (_unit, None), "file": (_TEXT, None)},
    "geometry": {"mode": (_choice("perpendicular", "angles", "direction"), "perpendicular"),
                 "theta": (_number(), 90.0), "phi": (_number(), 0.0),
                 "direction": (_unit, None)},
    "grid": {"start": (_NONNEGATIVE, 0.8), "stop": (_POSITIVE, 1.2),
             "count": (_integer(2), 241), "spacing": (_choice("linear", "log"), "linear")},
    "scan": {"lambda_min": (_POSITIVE, 1e2), "lambda_max": (_POSITIVE, 1e4),
             "points": (_integer(2), 16)},  # the fewest that geometric_cutoffs takes
    "formfactor": {"kind": (_choice(*FORMFACTOR_KINDS), "none"), "cutoff": (_number(), None)},
    "probability": {"upper_limit": (_POSITIVE, None)},
    "pattern": {"mode": (_choice("golden_rule", "integrated"), "golden_rule"),
                "variant": (_choice(*VARIANTS), None),
                "theta_points": (_integer(2), 73), "phi": (_number(), 0.0)},
    "limit_ordering": {"epsilons": (_list(_POSITIVE), [1e-2, 1e-3, 1e-4]),
                       "window": (_list(_number(), 2), [30.0, 100.0]),
                       "window_points": (_integer(2), 6),
                       "fixed_cutoffs": (_list(_POSITIVE), [1e2, 1e3, 1e4])},
    # time_step and record_every set only the recording grid: the evolution is exact
    "oracle": {"modes": (_integer(3), 2001), "half_width": (_POSITIVE, 0.05),
               "gamma_eff": (_POSITIVE, 1e-3), "delta": (_number(), 0.0),
               "epsilon": (_NONNEGATIVE, 0.0), "time_step": (_POSITIVE, 0.25),
               "lifetimes": (_POSITIVE, 14.0), "record_every": (_integer(1), 100)},
    "tolerances": {"quadrature": (_POSITIVE, 1e-9), "max_panels": (_integer(16), 4096)},
    "output": {"directory": (_TEXT, None)},
}
_TOP_LEVEL = {"dipole_axis": (_unit, [0.0, 0.0, 1.0]), "seed": (_integer(0), None)}
# Sections whose kind or mode decides which other keys it reads: section -> (the key
# that chooses, {choice: the keys it reads}); a choice not listed reads every key.
_READS = {"distribution": ("kind", {"point": ("beta",), "tabulated": ("file", "direction"),
                                    "gaussian": ("mean", "sigma", "sigma_along", "covariance",
                                                 "direction")}),
          "geometry": ("mode", {"perpendicular": (), "angles": ("theta", "phi"),
                                "direction": ("direction",)}),
          "formfactor": ("kind", {"none": ()})}
# the sections and top-level keys that the physics objects read (see ScenarioConfig)
_PHYSICS = ("atom", "coupling", "distribution", "geometry", "grid", "scan", "formfactor",
            "pattern", "dipole_axis")


def _check_keys(mapping: dict, allowed, what: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} keys {sorted(map(str, unknown))}; "
                          f"allowed: {sorted(allowed)}")


def _value(mapping: dict, key: str, spec, where: str):
    parse, default = spec
    value = mapping.get(key, default)
    if value is None and default is not None:
        raise ConfigError(f"'{where}' is required")
    return None if value is None else parse(value, where)


def _read(raw: dict, name: str) -> dict:
    """The section `name` of `raw`, every key of `_KEYS[name]` parsed or defaulted;
    ConfigError for a key that the chosen kind or mode does not read (`_READS`)."""
    section = _section(raw, name)
    _check_keys(section, _KEYS[name], f"'{name}'")
    values = {key: _value(section, key, spec, f"{name}.{key}")
              for key, spec in _KEYS[name].items()}
    choose, reads = _READS.get(name, (None, {}))
    unread = set(section) - {choose, *reads.get(values.get(choose), section)}
    if unread:
        raise ConfigError(f"'{name}': {choose} {values[choose]!r} does not read {sorted(unread)}")
    return values


def _need(values: dict, name: str, key: str):
    if values[key] is None:
        raise ConfigError(f"'{name}.{key}' is required")
    return values[key]


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """A fully resolved scenario: numerical settings plus physics objects. `settings` holds
    the resolved entries that no physics object reads (those of the sections probability,
    limit_ordering, oracle and tolerances, and the seed). `physics` returns the fields from
    `scenario` on, which are set when any of them is first read."""

    upper_limit: float | None
    limit_ordering: dict
    oracle: dict
    tol: float
    max_panels: int
    seed: int | None
    output_dir: str | None
    settings: dict
    physics: object = field(repr=False)  # () -> {field: value} of the fields below
    scenario: EmissionScenario = field(init=False)
    direction: np.ndarray = field(init=False)
    x_grid: np.ndarray = field(init=False)
    lambdas: np.ndarray = field(init=False)
    formfactor: Formfactor = field(init=False)
    pattern: dict = field(init=False)
    resolved: dict = field(init=False)

    def __getattr__(self, name):  # only for an attribute not set: a physics field, first read
        spec = self.__dataclass_fields__.get(name)
        if spec is None or spec.init:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__.update(self.physics())  # past the frozen __setattr__
        return self.__dict__[name]


def _not_json(constant):
    raise ValueError(f"{constant} is not a JSON number")


def _parse(content: bytes, name: str, suffix: str):
    """The document of a scenario file. A .json file is JSON. Other text that starts with
    '{', after a UTF-8 byte-order mark and whitespace, is read as JSON too if it parses
    without NaN or Infinity (YAML 1.1 reads those as strings): YAML would give the same
    mapping, and PyYAML stays unloaded. The rest is YAML."""
    if suffix == ".json" or content.removeprefix(codecs.BOM_UTF8).lstrip().startswith(b"{"):
        try:
            return json.loads(content, parse_constant=None if suffix == ".json" else _not_json)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, NaN
            if suffix == ".json":
                raise ConfigError(f"could not parse {name}: {exc}") from None
    import yaml
    try:
        # libyaml's CSafeLoader where PyYAML was built with it (the same documents, several
        # times faster), else SafeLoader
        return yaml.load(content, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except (UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"could not parse {name}: {exc}") from None


def read_raw(path) -> tuple[dict, bytes]:
    """The scenario file's top-level mapping and the bytes it was parsed from, read once."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"scenario file not found: {p}")
    content = p.read_bytes()
    data = _parse(content, p.name, p.suffix.lower())
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{p.name}: top level must be a mapping")
    return data, content


def load_raw(path) -> dict:
    return read_raw(path)[0]


def load_config(path) -> ScenarioConfig:
    return build_config(load_raw(path), base_dir=Path(path).parent)


def build_config(raw: dict, base_dir: Path | str = ".") -> ScenarioConfig:
    _check_keys(raw, [*_KEYS, *_TOP_LEVEL], "top-level")
    now = not raw.keys().isdisjoint(_PHYSICS)  # the file gives a physics section
    s = {name: _read(raw, name) for name in _KEYS if now or name not in _PHYSICS}
    seed = _value(raw, "seed", _TOP_LEVEL["seed"], "seed")
    settings = {**{name: s[name] for name in ("probability", "limit_ordering", "oracle",
                                              "tolerances")}, "seed": seed}
    physics = functools.partial(_physics, raw, Path(base_dir), s, settings)
    if now:  # its physics sections raise their ConfigError at load
        physics = functools.partial(dict, physics())

    lo = s["limit_ordering"]
    eps = lo["epsilons"]
    if not eps or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ConfigError("'limit_ordering.epsilons' must be a non-empty, strictly "
                          "decreasing list")
    if not 0 < lo["window"][0] < lo["window"][1]:
        raise ConfigError("'limit_ordering.window' must be [lo, hi] with 0 < lo < hi")
    return ScenarioConfig(
        upper_limit=s["probability"]["upper_limit"], limit_ordering=lo, oracle=s["oracle"],
        tol=s["tolerances"]["quadrature"], max_panels=s["tolerances"]["max_panels"],
        seed=seed, output_dir=s["output"]["directory"], settings=settings, physics=physics)


def _physics(raw: dict, base_dir: Path, s: dict, settings: dict) -> dict:
    """`scenario.build` of the sections `s` read at load, the physics sections (read here
    where the file gives none of them) and the dipole axis."""
    from .scenario import build
    s = {name: s[name] if name in s else _read(raw, name) for name in _KEYS}
    e_d = _value(raw, "dipole_axis", _TOP_LEVEL["dipole_axis"], "dipole_axis")
    return build(raw, base_dir, s, e_d, settings)
