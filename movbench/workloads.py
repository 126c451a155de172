"""Workload definitions: the scenario files and operation list of each workload.

Everything here is plain data made from ``--seed``; nothing imports the
package under test. The worker loads the written scenario files and runs the
operations; the parent process uses the same dictionaries to compute the
independent references (see ``reference.py``).

Seeds move only values that do not change the amount of work: Gaussian
means, table entries drawn by stratified sampling with a fixed row count,
transverse point-mass velocities, oracle detunings. The two operations that
fail today (``KNOWN_FAULTS``) use fixed inputs, so the share of failed
operations is the same for every seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

WORKLOADS = ("doppler", "cutoff", "oracle")

# Wall time of one pass on the reference machine (see README). The number of
# timed passes is round(seconds / NOMINAL_PASS_S), at least MIN_PASSES, so
# both commits of a comparison do the same work. Three passes at least, so
# that the median pass is not the mean of two and a stall in one pass shows
# in run_s but not in pass_p50_s.
NOMINAL_PASS_S = {"doppler": 3.0, "cutoff": 2.0, "oracle": 12.0}
MIN_PASSES = 3

# Operations that fail today because of a known fault in the program; their
# inputs do not depend on the seed.
KNOWN_FAULTS = {
    "doppler": ("spectrum_oblique_narrow",),
    "cutoff": ("probability_point_fault",),
    "oracle": (),
}


@dataclass
class Op:
    """One operation: a scenario file plus what to run on it.

    call: "spectrum", "probability", "divergence", "pattern" (library calls
    on the loaded scenario) or "cli" (``movingatom.cli.main`` in-process).
    """

    name: str
    call: str
    config: dict
    sub: str | None = None
    table: np.ndarray | None = field(default=None, repr=False)


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, int(round(seconds / NOMINAL_PASS_S[workload])))


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _unit(theta_deg: float, phi_deg: float = 0.0) -> np.ndarray:
    """Emission direction for dipole axis z, as the scenario loader builds it."""
    t, p = math.radians(theta_deg), math.radians(phi_deg)
    return np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)])


def _transverse_beta(rng, n: np.ndarray, speed: float) -> list[float]:
    """A velocity of the given speed perpendicular to n (so n . beta = 0)."""
    v = rng.normal(size=3)
    v -= np.dot(v, n) * n
    return (speed * v / np.linalg.norm(v)).tolist()


def _stratified_table(rng, rows: int, sigma: float) -> np.ndarray:
    """(delta, weight) rows: one Gaussian quantile per stratum, jittered.

    The row count and the spread are fixed, so the integration work hardly
    changes with the seed while every entry does.
    """
    nd = NormalDist(0.0, sigma)
    u = (np.arange(rows) + rng.uniform(0.2, 0.8, rows)) / rows
    delta = np.array([nd.inv_cdf(float(p)) for p in u])
    weight = rng.uniform(0.5, 1.5, rows)
    return np.column_stack([delta, weight])


def _doppler(rng) -> list[Op]:
    mean = rng.uniform(-3e-4, 3e-4, 3).round(12).tolist()
    gauss = {"kind": "gaussian", "mean": mean, "sigma": 1e-3}
    perp = {"mode": "perpendicular"}
    oblique = {"mode": "angles", "theta": 45.0, "phi": 0.0}
    roentgen = {"model": "roentgen"}
    ops = [
        Op("spectrum_perp", "spectrum", {
            "atom": {"epsilon": 0.01, "gamma_tilde": 1e-3},
            "coupling": roentgen, "geometry": perp, "distribution": gauss,
            "grid": {"start": 0.975, "stop": 1.005, "count": 41},
            "tolerances": {"quadrature": 1e-10}}),
        Op("spectrum_oblique", "spectrum", {
            "atom": {"epsilon": 0.01, "gamma_tilde": 1e-2},
            "coupling": roentgen, "geometry": oblique, "distribution": gauss,
            "grid": {"start": 0.98, "stop": 1.0, "count": 3},
            "tolerances": {"quadrature": 1e-10}}),
        Op("spectrum_oblique_standard", "spectrum", {
            "atom": {"epsilon": 0.01, "gamma_tilde": 1e-2},
            "coupling": {"model": "standard"}, "geometry": oblique, "distribution": gauss,
            "grid": {"start": 0.97, "stop": 1.01, "count": 5},
            "tolerances": {"quadrature": 1e-10}}),
        Op("probability_perp", "probability", {
            "atom": {"epsilon": 0.01, "gamma_tilde": 1e-2},
            "coupling": roentgen, "geometry": perp, "distribution": gauss,
            "formfactor": {"kind": "gaussian", "cutoff": 10.0},
            "tolerances": {"quadrature": 1e-9}}),
        Op("divergence_perp", "divergence", {
            "atom": {"epsilon": 0.01, "gamma_tilde": 1e-2},
            "coupling": roentgen, "geometry": perp, "distribution": gauss,
            "scan": {"lambda_min": 1e2, "lambda_max": 1e4, "points": 16},
            "tolerances": {"quadrature": 1e-9}}),
        Op("pattern_golden", "pattern", {
            "atom": {"epsilon": 0.01, "gamma_tilde": 1e-2},
            "coupling": roentgen,
            "distribution": {"kind": "gaussian", "mean": [0.0, 0.0, 0.0],
                             "sigma": float(rng.uniform(5e-4, 2e-3))},
            "pattern": {"mode": "golden_rule", "variant": "shifted", "theta_points": 37}}),
        # Known fault: narrow line through the tensor Gauss-Hermite path.
        Op("spectrum_oblique_narrow", "spectrum", {
            "atom": {"epsilon": 0.0, "gamma_tilde": 1e-6},
            "coupling": {"model": "standard"}, "geometry": oblique,
            "distribution": {"kind": "gaussian", "sigma": 1e-5},
            "grid": {"start": 1.0 - 2.5e-5, "stop": 1.0 + 2.5e-5, "count": 5},
            "tolerances": {"quadrature": 1e-10}}),
    ]
    return ops


def _cutoff(rng) -> list[Op]:
    ops = []
    narrow = _stratified_table(rng, 48, 1e-3)
    ops.append(Op("probability_table_narrow", "cli", {
        "atom": {"epsilon": 1e-3, "gamma_tilde": 1e-5},
        "distribution": {"kind": "tabulated", "file": "probability_table_narrow.csv"},
        "formfactor": {"kind": "gaussian", "cutoff": 10.0},
        "tolerances": {"quadrature": 1e-12, "max_panels": 8192}},
        sub="probability", table=narrow))
    broad = _stratified_table(rng, 256, 2e-3)
    ops.append(Op("probability_table_broad", "cli", {
        "atom": {"epsilon": 1e-2, "gamma_tilde": 1e-3},
        "distribution": {"kind": "tabulated", "file": "probability_table_broad.csv"},
        "formfactor": {"kind": "exponential", "cutoff": 5.0},
        "tolerances": {"quadrature": 1e-10}},
        sub="probability", table=broad))
    # Point masses at several (epsilon, gamma_tilde, theta). Off the
    # perpendicular the velocity is kept transverse to n: the resonance
    # features are seeded at n . beta = 0 there (see KNOWN_FAULTS).
    for name, eps, gt, theta, ff in (
            ("probability_point_perp", 1e-2, 1e-3, 90.0, {"kind": "gaussian", "cutoff": 10.0}),
            ("probability_point_60", 1e-3, 1e-4, 60.0, {"kind": "sharp", "cutoff": 40.0}),
            ("probability_point_30", 5e-2, 1e-2, 30.0, {"kind": "exponential", "cutoff": 3.0})):
        n = _unit(theta)
        if theta == 90.0:
            beta = (rng.uniform(-2e-3, 2e-3) * n + np.array([0.0, 1e-3, 0.0])).tolist()
        else:
            beta = _transverse_beta(rng, n, float(rng.uniform(1e-3, 5e-3)))
        ops.append(Op(name, "cli", {
            "atom": {"epsilon": eps, "gamma_tilde": gt},
            "geometry": {"mode": "angles", "theta": theta, "phi": 0.0},
            "distribution": {"kind": "point", "beta": beta},
            "formfactor": ff, "tolerances": {"quadrature": 1e-12}}, sub="probability"))
    for name, eps, lam_min, lam_max in (("divergence_point", 1e-2, 1e2, 1e4),
                                        ("divergence_point_light", 2e-3, 5e2, 5e4)):
        ops.append(Op(name, "cli", {
            "atom": {"epsilon": eps, "gamma_tilde": float(rng.uniform(5e-3, 2e-2))},
            "distribution": {"kind": "point",
                             "beta": [float(rng.uniform(-1e-3, 1e-3)), 0.0, 0.0]},
            "scan": {"lambda_min": lam_min, "lambda_max": lam_max, "points": 24},
            "tolerances": {"quadrature": 1e-11}}, sub="divergence"))
    ops.append(Op("rates", "cli", {
        "atom": {"epsilon": 1e-2, "gamma_tilde": float(rng.uniform(5e-3, 2e-2))},
        "limit_ordering": {"epsilons": [1e-2, 1e-3, 1e-4], "window": [30.0, 100.0],
                           "window_points": 8, "fixed_cutoffs": [1e2, 1e3, 1e4]},
        "tolerances": {"quadrature": 1e-11}}, sub="rates"))
    ops.append(Op("pattern_integrated", "cli", {
        "atom": {"epsilon": 1e-2, "gamma_tilde": 1e-2},
        # along y: transverse to every direction of the phi = 0 pattern plane
        "distribution": {"kind": "point", "beta": [0.0, float(rng.uniform(1e-3, 5e-3)), 0.0]},
        "formfactor": {"kind": "gaussian", "cutoff": 10.0},
        "pattern": {"mode": "integrated", "theta_points": 7},
        "tolerances": {"quadrature": 1e-10}}, sub="pattern"))
    # Known fault: resonance features seeded at delta = 0 off the perpendicular.
    ops.append(Op("probability_point_fault", "cli", {
        "atom": {"epsilon": 0.0, "gamma_tilde": 1e-9},
        "coupling": {"model": "standard"},
        "geometry": {"mode": "angles", "theta": 45.0, "phi": 0.0},
        "distribution": {"kind": "point", "beta": (0.1 * _unit(45.0)).tolist()},
        "formfactor": {"kind": "sharp", "cutoff": 50.0}}, sub="probability"))
    return ops


def _oracle(rng) -> list[Op]:
    base = {"half_width": 0.05, "time_step": 0.25}
    return [
        Op("oracle_band_2001", "cli", {"oracle": dict(
            base, modes=2001, gamma_eff=1e-3, lifetimes=14.0, record_every=100)},
            sub="oracle"),
        Op("oracle_band_detuned", "cli", {"oracle": dict(
            base, modes=1001, gamma_eff=1e-3, lifetimes=14.0, record_every=100,
            delta=float(rng.uniform(5e-3, 2e-2)), epsilon=float(rng.uniform(1e-3, 5e-3)))},
            sub="oracle"),
        Op("oracle_band_expm", "cli", {"oracle": dict(
            base, modes=101, gamma_eff=1e-2, lifetimes=10.0, record_every=20,
            delta=float(rng.uniform(-1e-2, 1e-2)), epsilon=float(rng.uniform(0.0, 5e-3)))},
            sub="oracle"),
    ]


_OPERATION_LISTS = {"doppler": _doppler, "cutoff": _cutoff, "oracle": _oracle}


def build(workload: str, seed: int) -> list[Op]:
    if workload not in _OPERATION_LISTS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _OPERATION_LISTS[workload](_rng(workload, seed))


def write_inputs(ops: list[Op], directory: Path) -> Path:
    """Write every scenario file and table; return the operation index file.

    Scenario files are JSON documents with a ``.yaml`` suffix: JSON is a
    subset of YAML, so the loader takes its YAML path, as for most users.
    """
    directory.mkdir(parents=True, exist_ok=True)
    index = []
    for op in ops:
        if op.table is not None:
            path = directory / op.config["distribution"]["file"]
            np.savetxt(path, op.table, delimiter=",", fmt="%.17g",
                       header="delta,weight", comments="")
        cfg_path = directory / f"{op.name}.yaml"
        cfg_path.write_text(json.dumps(op.config, indent=1) + "\n")
        index.append({"name": op.name, "call": op.call, "sub": op.sub,
                      "config": cfg_path.name})
    index_path = directory / "ops.json"
    index_path.write_text(json.dumps(index, indent=1) + "\n")
    return index_path


def main(argv=None) -> int:
    """Regenerate the inputs of one workload: scenario files and tables."""
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the inputs to")
    args = parser.parse_args(argv)
    index = write_inputs(build(args.workload, args.seed), Path(args.out))
    print(f"wrote {index.parent}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
