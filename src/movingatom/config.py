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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coupling import CouplingModel
from .geometry import as_unit, direction_from_angles, polarization_basis
from .quadrature import FIT_POINTS, MIN_FIT_POINTS
from .rates import VARIANTS, with_variant
from .spectra import EmissionScenario, Formfactor
from .units import (DimensionlessParams, ParameterError, PhysicalInput,
                    to_dimensionless)
from .wavepacket import GaussianPacket, PointMass, TabulatedProjection


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
             "points": (_integer(FIT_POINTS), 16)},  # classify_tail fits the last FIT_POINTS
    "formfactor": {"kind": (_choice(*Formfactor._KINDS), "none"), "cutoff": (_number(), None)},
    "probability": {"upper_limit": (_POSITIVE, None)},
    "pattern": {"mode": (_choice("golden_rule", "integrated"), "golden_rule"),
                "variant": (_choice(*VARIANTS), None),
                "theta_points": (_integer(2), 73), "phi": (_number(), 0.0)},
    "limit_ordering": {"epsilons": (_list(_POSITIVE), [1e-2, 1e-3, 1e-4]),
                       "window": (_list(_number(), 2), [30.0, 100.0]),
                       "window_points": (_integer(MIN_FIT_POINTS), 6),
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
    """A fully resolved scenario: physics objects plus numerical settings."""

    scenario: EmissionScenario
    direction: np.ndarray
    x_grid: np.ndarray
    lambdas: np.ndarray
    formfactor: Formfactor
    upper_limit: float | None
    pattern: dict
    limit_ordering: dict
    oracle: dict
    tol: float
    max_panels: int
    seed: int | None
    output_dir: str | None
    resolved: dict


def _not_json(constant):
    raise ValueError(f"{constant} is not a JSON number")


def _parse(content: bytes, name: str, suffix: str):
    """The document of a scenario file. A .json file is JSON. Other text that starts with
    '{' is read as JSON too if it parses without NaN or Infinity (YAML 1.1 reads those as
    strings): YAML would give the same mapping, and PyYAML stays unloaded. The rest is
    YAML."""
    if suffix == ".json" or content.startswith(b"{"):
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


def _build_params(atom: dict, given: set) -> DimensionlessParams:
    physical = given & {"mass", "omega0", "gamma0", "infinite_mass"}
    if physical and given & {"epsilon", "gamma_tilde"}:
        raise ConfigError("'atom' must give either (epsilon, gamma_tilde) or "
                          "physical inputs (mass, omega0, gamma0), not both")
    try:
        if physical:
            return to_dimensionless(PhysicalInput(
                mass=_need(atom, "atom", "mass"), omega0=_need(atom, "atom", "omega0"),
                gamma0=_need(atom, "atom", "gamma0"), infinite_mass=atom["infinite_mass"]))
        return DimensionlessParams(epsilon=atom["epsilon"], gamma_tilde=atom["gamma_tilde"])
    except ParameterError as exc:
        raise ConfigError(f"'atom': {exc}") from None


def _build_coupling(coupling: dict, given: set) -> CouplingModel:
    if coupling["model"] == "standard":
        if any(coupling[k] for k in given & {"recoil_term", "momentum_shift"}):
            raise ConfigError("'coupling': the standard model has no recoil term "
                              "or momentum shift to switch on")
        return CouplingModel.standard()
    return CouplingModel(kind="roentgen", include_recoil_term=coupling["recoil_term"],
                         apply_momentum_shift=coupling["momentum_shift"])


def _load_table(path: Path) -> np.ndarray:
    """The (delta, weight) columns of a table file, read once."""
    if not path.is_file():
        raise ConfigError(f"tabulated distribution file not found: {path}")
    lines, skip = path.read_text().splitlines(), 0
    for number, line in enumerate(lines, start=1):
        text = line.split("#")[0].strip()  # a header: the first line with data, after comments
        if text:
            try:
                float(text.split(",")[0])
            except ValueError:
                skip = number  # every line through the header row
            break
    try:
        arr = np.loadtxt(lines, delimiter=",", comments="#", skiprows=skip, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"could not read table {path.name}: {exc}") from None
    if arr.shape[1] < 2:
        raise ConfigError(f"table {path.name} needs two columns: delta, weight")
    return arr[:, :2]


def _build_distribution(d: dict, base_dir: Path):
    try:
        if d["kind"] == "point":
            return PointMass(beta=d["beta"])
        if d["kind"] == "gaussian":
            if sum(d[k] is not None for k in ("sigma", "sigma_along", "covariance")) != 1:
                raise ConfigError("'distribution': a gaussian needs exactly one of "
                                  "'sigma' (isotropic), 'sigma_along' (+ 'direction'), "
                                  "or 'covariance'")
            if d["sigma"] is not None:
                return GaussianPacket.isotropic(d["mean"], d["sigma"])
            if d["sigma_along"] is not None:
                return GaussianPacket.along_direction(d["mean"], d["sigma_along"],
                                                      _need(d, "distribution", "direction"))
            return GaussianPacket(mean=d["mean"], covariance=d["covariance"])
        fpath = base_dir / _need(d, "distribution", "file")
        table = _load_table(fpath)
        order = np.argsort(table[:, 0])
        delta, weights = table[order, 0], table[order, 1]
        if np.any(weights < 0):
            raise ConfigError(f"table {fpath.name} has negative weights")
        total = weights.sum()
        if not total > 0:
            raise ConfigError(f"table {fpath.name} has zero total weight")
        axis = [1.0, 0.0, 0.0] if d["direction"] is None else d["direction"]
        return TabulatedProjection(delta=delta, weights=weights / total, direction=axis)
    except ConfigError:
        raise
    except (ValueError, ParameterError) as exc:
        raise ConfigError(f"'distribution': {exc}") from None


def _build_direction(geometry: dict, e_d: np.ndarray) -> tuple[np.ndarray, dict]:
    mode, angles = geometry["mode"], {}
    if mode == "perpendicular":
        n = polarization_basis(e_d).e1
    elif mode == "angles":
        angles = {"theta_deg": geometry["theta"], "phi_deg": geometry["phi"]}
        n = direction_from_angles(math.radians(geometry["theta"]),
                                  math.radians(geometry["phi"]), axis=e_d)
    else:
        n = _need(geometry, "geometry", "direction")
    return n, {"mode": mode, **angles, "direction": n.tolist()}


def build_config(raw: dict, base_dir: Path | str = ".") -> ScenarioConfig:
    _check_keys(raw, [*_KEYS, *_TOP_LEVEL], "top-level")
    s = {name: _read(raw, name) for name in _KEYS}
    e_d, seed = (_value(raw, key, spec, key) for key, spec in _TOP_LEVEL.items())

    params = _build_params(s["atom"], set(_section(raw, "atom")))
    model = _build_coupling(s["coupling"], set(_section(raw, "coupling")))
    distribution = _build_distribution(s["distribution"], Path(base_dir))
    scenario = EmissionScenario(params=params, coupling=model, distribution=distribution,
                                dipole_axis=e_d)  # `_unit` has normalized the axis
    direction, geometry_resolved = _build_direction(s["geometry"], e_d)
    if isinstance(distribution, TabulatedProjection) and not np.allclose(
            distribution.direction, direction, atol=1e-12, rtol=0.0):
        raise ConfigError("'distribution': a tabulated delta = n.beta holds only for its own "
                          "'direction', which must equal the geometry's emission direction")

    grid = s["grid"]
    if not grid["stop"] > grid["start"]:
        raise ConfigError(f"'grid': stop ({grid['stop']}) must exceed start ({grid['start']})")
    if grid["spacing"] == "log" and not grid["start"] > 0:
        raise ConfigError("'grid': log spacing needs start > 0")
    x_grid = (np.geomspace if grid["spacing"] == "log" else np.linspace)(
        grid["start"], grid["stop"], grid["count"])

    scan = s["scan"]
    if not scan["lambda_max"] > scan["lambda_min"]:
        raise ConfigError("'scan': lambda_max must exceed lambda_min")
    lambdas = np.geomspace(scan["lambda_min"], scan["lambda_max"], scan["points"])

    try:
        formfactor = Formfactor(**s["formfactor"])
    except ValueError as exc:
        raise ConfigError(f"'formfactor': {exc}") from None

    s["pattern"]["phi_deg"] = s["pattern"].pop("phi")
    given = s["pattern"]["variant"]
    shift = "shifted" if model.apply_momentum_shift else "unshifted"
    if given not in (None, shift) and "momentum_shift" in _section(raw, "coupling"):
        raise ConfigError(f"'pattern.variant' {given!r} contradicts "
                          f"'coupling.momentum_shift' {model.apply_momentum_shift}")
    # default: the coupling's own momentum shift; the standard model has none either way
    s["pattern"]["variant"] = VARIANTS[with_variant(model, given or shift).apply_momentum_shift]
    lo = s["limit_ordering"]
    eps = lo["epsilons"]
    if not eps or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ConfigError("'limit_ordering.epsilons' must be a non-empty, strictly "
                          "decreasing list")
    if not 0 < lo["window"][0] < lo["window"][1]:
        raise ConfigError("'limit_ordering.window' must be [lo, hi] with 0 < lo < hi")

    if isinstance(distribution, PointMass):
        dist_resolved = {"kind": "point", "beta": distribution.beta.tolist()}
    elif isinstance(distribution, GaussianPacket):
        dist_resolved = {"kind": "gaussian", "mean": distribution.mean.tolist(),
                         "covariance": distribution.covariance.tolist()}
    else:
        dist_resolved = {"kind": "tabulated", "nodes": int(distribution.delta.size),
                         "direction": distribution.direction.tolist(),
                         "mean_delta": float(np.dot(distribution.weights, distribution.delta))}

    resolved = {
        "atom": {"epsilon": params.epsilon, "gamma_tilde": params.gamma_tilde},
        "normalization": {"kappa": scenario.kappa, "convention": "reference"},
        "coupling": {"model": model.kind, "recoil_term": model.include_recoil_term,
                     "momentum_shift": model.apply_momentum_shift, "label": model.label},
        "dipole_axis": e_d.tolist(),
        "geometry": geometry_resolved,
        "distribution": dist_resolved,
        **{name: s[name] for name in ("grid", "scan", "formfactor", "probability", "pattern",
                                      "limit_ordering", "oracle", "tolerances")},
        "seed": seed,
    }

    return ScenarioConfig(
        scenario=scenario, direction=direction, x_grid=x_grid, lambdas=lambdas,
        formfactor=formfactor, upper_limit=s["probability"]["upper_limit"],
        pattern=s["pattern"], limit_ordering=lo, oracle=s["oracle"],
        tol=s["tolerances"]["quadrature"], max_panels=s["tolerances"]["max_panels"],
        seed=seed, output_dir=s["output"]["directory"], resolved=resolved,
    )
