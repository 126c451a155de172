"""Scenario files: loading, validation, and defaults.

A scenario file (YAML or JSON -- the two are interchangeable, JSON being a
subset of YAML) describes the atom, the coupling model, the momentum
wavepacket, the emission geometry, and the numerical settings. Angles in
scenario files are degrees; the Python API works in radians throughout.

The loader is strict about top-level keys (typos should fail loudly, not
silently fall back to defaults) and converts everything into the package's
own dataclasses, so a `ScenarioConfig` that loads at all is ready to run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .coupling import CouplingModel
from .geometry import as_unit, direction_from_angles, polarization_basis
from .rates import VARIANTS
from .spectra import EmissionScenario, Formfactor
from .units import (DimensionlessParams, ParameterError, PhysicalInput,
                    to_dimensionless)
from .wavepacket import GaussianPacket, PointMass, TabulatedProjection


class ConfigError(ValueError):
    """A scenario file is missing, unparsable, or inconsistent."""


_TOP_LEVEL_KEYS = {
    "atom", "coupling", "dipole_axis", "distribution", "geometry", "grid",
    "scan", "formfactor", "probability", "pattern", "limit_ordering",
    "oracle", "tolerances", "seed", "output",
}


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name) or {}
    if not isinstance(value, dict):
        raise ConfigError(f"'{name}' must be a mapping, got {type(value).__name__}")
    return value


def _float(section: dict, key: str, default, where: str, *, positive: bool = False,
           nonnegative: bool = False) -> float:
    value = section.get(key, default)
    if value is None:
        raise ConfigError(f"'{where}.{key}' is required")
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"'{where}.{key}' must be a number, got {value!r}") from None
    if positive and not value > 0:
        raise ConfigError(f"'{where}.{key}' must be positive, got {value!r}")
    if nonnegative and value < 0:
        raise ConfigError(f"'{where}.{key}' must be non-negative, got {value!r}")
    return value


def _int(section: dict, key: str, default, where: str, *, minimum: int = 1) -> int:
    value = section.get(key, default)
    try:
        ivalue = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"'{where}.{key}' must be an integer, got {value!r}") from None
    if ivalue != value or ivalue < minimum:
        raise ConfigError(f"'{where}.{key}' must be an integer >= {minimum}, got {value!r}")
    return ivalue


def _vector3(section: dict, key: str, default, where: str) -> np.ndarray:
    value = section.get(key, default)
    if value is None:
        raise ConfigError(f"'{where}.{key}' is required")
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ConfigError(f"'{where}.{key}' must be a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"'{where}.{key}' has non-finite entries")
    return arr


def _choice(section: dict, key: str, default: str, options, where: str) -> str:
    value = section.get(key, default)
    if value not in options:
        raise ConfigError(f"'{where}.{key}' must be one of {tuple(options)}, got {value!r}")
    return value


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


def load_raw(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"scenario file not found: {p}")
    text = p.read_text()
    try:
        if p.suffix.lower() == ".json":
            data = json.loads(text)
        else:
            data = yaml.safe_load(text)
    except (json.JSONDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"could not parse {p.name}: {exc}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{p.name}: top level must be a mapping")
    return data


def load_config(path) -> ScenarioConfig:
    return build_config(load_raw(path), base_dir=Path(path).parent)


def _build_params(raw: dict) -> DimensionlessParams:
    atom = _section(raw, "atom")
    physical_keys = {"mass", "omega0", "gamma0", "dipole_moment", "infinite_mass"}
    given_physical = physical_keys & set(atom)
    given_reduced = {"epsilon", "gamma_tilde"} & set(atom)
    if given_physical and given_reduced:
        raise ConfigError("'atom' must give either (epsilon, gamma_tilde) or "
                          "physical inputs (mass, omega0, gamma0), not both")
    try:
        if given_physical:
            inp = PhysicalInput(
                mass=_float(atom, "mass", None, "atom", positive=True),
                omega0=_float(atom, "omega0", None, "atom", positive=True),
                gamma0=_float(atom, "gamma0", None, "atom", positive=True),
                dipole_moment=(None if atom.get("dipole_moment") is None
                               else _float(atom, "dipole_moment", None, "atom", positive=True)),
                infinite_mass=bool(atom.get("infinite_mass", False)),
            )
            return to_dimensionless(inp)
        return DimensionlessParams(
            epsilon=_float(atom, "epsilon", 0.01, "atom", nonnegative=True),
            gamma_tilde=_float(atom, "gamma_tilde", 0.01, "atom", positive=True),
        )
    except ParameterError as exc:
        raise ConfigError(f"'atom': {exc}") from None


def _build_coupling(raw: dict) -> CouplingModel:
    section = _section(raw, "coupling")
    name = _choice(section, "model", "roentgen", ("roentgen", "standard"), "coupling")
    if name == "standard":
        if section.get("recoil_term") or section.get("momentum_shift"):
            raise ConfigError("'coupling': the standard model has no recoil term "
                              "or momentum shift to switch on")
        return CouplingModel.standard()
    return CouplingModel(kind="roentgen",
                         include_recoil_term=bool(section.get("recoil_term", True)),
                         apply_momentum_shift=bool(section.get("momentum_shift", True)))


def _load_table(path: Path) -> np.ndarray:
    if not path.is_file():
        raise ConfigError(f"tabulated distribution file not found: {path}")
    skip = 0
    with open(path) as fh:
        first = fh.readline().strip()
    head = first.split(",")[0].strip()
    try:
        float(head)
    except ValueError:
        skip = 1  # header row
    try:
        arr = np.loadtxt(path, delimiter=",", comments="#", skiprows=skip, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"could not read table {path.name}: {exc}") from None
    if arr.shape[1] < 2:
        raise ConfigError(f"table {path.name} needs two columns: delta, weight")
    return arr[:, :2]


def _build_distribution(raw: dict, base_dir: Path):
    section = _section(raw, "distribution")
    kind = _choice(section, "kind", "point", ("point", "gaussian", "tabulated"),
                   "distribution")
    try:
        if kind == "point":
            return PointMass(beta=_vector3(section, "beta", [0.0, 0.0, 0.0], "distribution"))
        if kind == "gaussian":
            mean = _vector3(section, "mean", [0.0, 0.0, 0.0], "distribution")
            given = [k for k in ("sigma", "sigma_along", "covariance") if k in section]
            if len(given) != 1:
                raise ConfigError("'distribution': a gaussian needs exactly one of "
                                  "'sigma' (isotropic), 'sigma_along' (+ 'direction'), "
                                  "or 'covariance'")
            if given[0] == "sigma":
                return GaussianPacket.isotropic(mean, _float(section, "sigma", None,
                                                             "distribution", positive=True))
            if given[0] == "sigma_along":
                axis = _vector3(section, "direction", None, "distribution")
                return GaussianPacket.along_direction(
                    mean, _float(section, "sigma_along", None, "distribution", positive=True),
                    as_unit(axis))
            cov = np.asarray(section["covariance"], dtype=float)
            if cov.shape != (3, 3):
                raise ConfigError("'distribution.covariance' must be a 3x3 matrix")
            return GaussianPacket(mean=mean, covariance=cov)
        # tabulated
        fname = section.get("file")
        if not fname:
            raise ConfigError("'distribution.file' is required for a tabulated distribution")
        fpath = Path(fname)
        if not fpath.is_absolute():
            fpath = base_dir / fpath
        table = _load_table(fpath)
        order = np.argsort(table[:, 0])
        delta, weights = table[order, 0], table[order, 1]
        if np.any(weights < 0):
            raise ConfigError(f"table {fpath.name} has negative weights")
        total = weights.sum()
        if not total > 0:
            raise ConfigError(f"table {fpath.name} has zero total weight")
        axis = as_unit(_vector3(section, "direction", [1.0, 0.0, 0.0], "distribution"))
        return TabulatedProjection(delta=delta, weights=weights / total, direction=axis)
    except (ValueError, ParameterError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"'distribution': {exc}") from None


def _build_direction(raw: dict, e_d: np.ndarray) -> tuple[np.ndarray, dict]:
    section = _section(raw, "geometry")
    mode = _choice(section, "mode", "perpendicular",
                   ("perpendicular", "angles", "direction"), "geometry")
    if mode == "perpendicular":
        n = polarization_basis(e_d).e1
        return n, {"mode": mode, "direction": n.tolist()}
    if mode == "angles":
        theta_deg = _float(section, "theta", 90.0, "geometry")
        phi_deg = _float(section, "phi", 0.0, "geometry")
        n = direction_from_angles(math.radians(theta_deg), math.radians(phi_deg), axis=e_d)
        return n, {"mode": mode, "theta_deg": theta_deg, "phi_deg": phi_deg,
                   "direction": n.tolist()}
    n = as_unit(_vector3(section, "direction", None, "geometry"))
    return n, {"mode": mode, "direction": n.tolist()}


def build_config(raw: dict, base_dir: Path | str = ".") -> ScenarioConfig:
    base_dir = Path(base_dir)
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}; "
                          f"allowed: {sorted(_TOP_LEVEL_KEYS)}")

    params = _build_params(raw)
    model = _build_coupling(raw)
    e_d = as_unit(_vector3(raw, "dipole_axis", [0.0, 0.0, 1.0], "scenario"))
    distribution = _build_distribution(raw, base_dir)
    try:
        scenario = EmissionScenario(params=params, coupling=model,
                                    distribution=distribution, dipole_axis=e_d)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    direction, geometry_resolved = _build_direction(raw, e_d)
    if isinstance(distribution, TabulatedProjection) and not np.allclose(
            distribution.direction, direction, atol=1e-12, rtol=0.0):
        raise ConfigError("'distribution': a tabulated delta = n.beta holds only for its own "
                          "'direction', which must equal the geometry's emission direction")

    grid = _section(raw, "grid")
    start = _float(grid, "start", 0.8, "grid", nonnegative=True)
    stop = _float(grid, "stop", 1.2, "grid", positive=True)
    count = _int(grid, "count", 241, "grid", minimum=2)
    spacing = _choice(grid, "spacing", "linear", ("linear", "log"), "grid")
    if not stop > start:
        raise ConfigError(f"'grid': stop ({stop}) must exceed start ({start})")
    if spacing == "log":
        if not start > 0:
            raise ConfigError("'grid': log spacing needs start > 0")
        x_grid = np.geomspace(start, stop, count)
    else:
        x_grid = np.linspace(start, stop, count)

    scan = _section(raw, "scan")
    lam_min = _float(scan, "lambda_min", 1e2, "scan", positive=True)
    lam_max = _float(scan, "lambda_max", 1e4, "scan", positive=True)
    points = _int(scan, "points", 16, "scan", minimum=2)
    if not lam_max > lam_min:
        raise ConfigError("'scan': lambda_max must exceed lambda_min")
    lambdas = np.geomspace(lam_min, lam_max, points)

    ff_section = _section(raw, "formfactor")
    try:
        cutoff = ff_section.get("cutoff")
        formfactor = Formfactor(
            kind=_choice(ff_section, "kind", "none", Formfactor._KINDS, "formfactor"),
            cutoff=None if cutoff is None else float(cutoff))
    except ValueError as exc:
        raise ConfigError(f"'formfactor': {exc}") from None

    prob = _section(raw, "probability")
    upper_limit = prob.get("upper_limit")
    if upper_limit is not None:
        upper_limit = _float(prob, "upper_limit", None, "probability", positive=True)

    pat = _section(raw, "pattern")
    pattern = {
        "mode": _choice(pat, "mode", "golden_rule", ("golden_rule", "integrated"), "pattern"),
        "variant": _choice(pat, "variant", "shifted", VARIANTS, "pattern"),
        "theta_points": _int(pat, "theta_points", 73, "pattern", minimum=2),
        "phi_deg": _float(pat, "phi", 0.0, "pattern"),
    }

    lo = _section(raw, "limit_ordering")
    eps_default = [1e-2, 1e-3, 1e-4]
    epsilons = [float(e) for e in lo.get("epsilons", eps_default)]
    if not epsilons or any(not e > 0 for e in epsilons):
        raise ConfigError("'limit_ordering.epsilons' must be positive numbers")
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise ConfigError("'limit_ordering.epsilons' must be strictly decreasing")
    window = lo.get("window", [30.0, 100.0])
    if len(window) != 2 or not 0 < float(window[0]) < float(window[1]):
        raise ConfigError("'limit_ordering.window' must be [lo, hi] with 0 < lo < hi")
    limit_ordering = {
        "epsilons": epsilons,
        "window": [float(window[0]), float(window[1])],
        "window_points": _int(lo, "window_points", 6, "limit_ordering", minimum=5),
        "fixed_cutoffs": [float(c) for c in lo.get("fixed_cutoffs", [1e2, 1e3, 1e4])],
    }

    osec = _section(raw, "oracle")
    oracle = {
        "modes": _int(osec, "modes", 2001, "oracle", minimum=3),
        "half_width": _float(osec, "half_width", 0.05, "oracle", positive=True),
        "gamma_eff": _float(osec, "gamma_eff", 1e-3, "oracle", positive=True),
        "delta": _float(osec, "delta", 0.0, "oracle"),
        "epsilon": _float(osec, "epsilon", 0.0, "oracle", nonnegative=True),
        # time_step and record_every set only the recording grid: the evolution is exact
        "time_step": _float(osec, "time_step", 0.25, "oracle", positive=True),
        "lifetimes": _float(osec, "lifetimes", 14.0, "oracle", positive=True),
        "record_every": _int(osec, "record_every", 100, "oracle", minimum=1),
    }

    tols = _section(raw, "tolerances")
    tol = _float(tols, "quadrature", 1e-9, "tolerances", positive=True)
    max_panels = _int(tols, "max_panels", 4096, "tolerances", minimum=16)

    seed = raw.get("seed")
    if seed is not None:
        seed = _int(raw, "seed", None, "scenario", minimum=0)

    out_section = _section(raw, "output")
    output_dir = out_section.get("directory")

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
        "grid": {"start": start, "stop": stop, "count": count, "spacing": spacing},
        "scan": {"lambda_min": lam_min, "lambda_max": lam_max, "points": points},
        "formfactor": {"kind": formfactor.kind, "cutoff": formfactor.cutoff},
        "probability": {"upper_limit": upper_limit},
        "pattern": dict(pattern),
        "limit_ordering": dict(limit_ordering),
        "oracle": dict(oracle),
        "tolerances": {"quadrature": tol, "max_panels": max_panels},
        "seed": seed,
    }

    return ScenarioConfig(
        scenario=scenario, direction=direction, x_grid=x_grid, lambdas=lambdas,
        formfactor=formfactor, upper_limit=upper_limit, pattern=pattern,
        limit_ordering=limit_ordering, oracle=oracle, tol=tol,
        max_panels=max_panels, seed=seed, output_dir=output_dir, resolved=resolved,
    )
