"""The physics objects of a scenario file, built from its checked sections.

`config` reads and checks a scenario file; `build` turns the sections that the physics
objects read (`config._PHYSICS`) into them: the EmissionScenario (atom parameters,
coupling model, momentum distribution and dipole axis), the emission direction, the
frequency grid, the cutoff ladder, the formfactor and the pattern's variant, with the
resolved settings that a run's manifest records. Its checks of how sections combine
raise ConfigError, as the loader's own do. `config` imports this module only when a
scenario's physics are first needed: an oracle run never does.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .config import ConfigError, _need, _section
from .coupling import CouplingModel
from .geometry import direction_from_angles, polarization_basis
from .quadrature import geometric_cutoffs
from .rates import with_variant
from .spectra import EmissionScenario, Formfactor
from .units import VARIANTS, DimensionlessParams, ParameterError, PhysicalInput, to_dimensionless
from .wavepacket import GaussianPacket, PointMass, TabulatedProjection


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


def build(raw: dict, base_dir: Path, s: dict, e_d: np.ndarray, settings: dict) -> dict:
    """{field: value} of the physics fields of a ScenarioConfig (see `config`), and its
    `resolved`, from the raw file `raw`, its sections read and checked (`s`, by name),
    its dipole axis e_d and the resolved `settings` of its other sections."""
    params = _build_params(s["atom"], set(_section(raw, "atom")))
    model = _build_coupling(s["coupling"], set(_section(raw, "coupling")))
    distribution = _build_distribution(s["distribution"], base_dir)
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
    lambdas = geometric_cutoffs(scan["lambda_min"], scan["lambda_max"], scan["points"])

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
        **{name: s[name] for name in ("grid", "scan", "formfactor", "pattern")},
        **settings,
    }
    return {"scenario": scenario, "direction": direction, "x_grid": x_grid, "lambdas": lambdas,
            "formfactor": formfactor, "pattern": s["pattern"], "resolved": resolved}
