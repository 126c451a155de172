"""Command-line front end: scenario files in, CSV/JSON plus a manifest out.

Every run writes its outputs into one directory together with a
`manifest.json` recording the tool version, the sha256 of the scenario
file, the fully resolved settings, and the sha256 of every output file --
enough to tell whether two runs were byte-identical. Manifests carry no
timestamps on purpose: rerunning the same scenario must produce the same
bytes.

Exit codes: 0 success; 2 configuration error (bad file, bad flags);
3 numerical failure (quadrature did not converge, non-finite integrand,
oracle norm-drift certificate above 1e-6, an output that would hold a
non-finite number);
4 request rejected on physical grounds (an unregularized quantity that has
no finite value, e.g. an integrated angular pattern without a formfactor).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .amplitudes import (compare_to_pole, discrete_mode_evolution,
                         flat_band_system, pole_mode_populations)
from .config import ConfigError, ScenarioConfig, _section, build_config, load_raw
from .quadrature import NumericalError
from .rates import limit_ordering_demo
from .spectra import (PhysicsRejection, angular_pattern, directional_probability,
                      directional_spectrum, divergence_comparison)
from .units import ParameterError
from .wavepacket import TabulatedProjection


def _quoted(text: str) -> str:
    """A str cell as the csv module writes it (QUOTE_MINIMAL, in a row of several cells)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: Path, header, rows) -> Path:
    """Each cell a str as the csv module writes it, anything else as %.16e, a row by one
    `%` format built from its cell types (and kept for the next row of the same types);
    NumericalError, and no file, if a number is not finite."""
    rows = [tuple(row) for row in rows]
    if not all(isinstance(v, str) or math.isfinite(v) for row in rows for v in row):
        raise NumericalError(f"{path} would hold a non-finite number")
    formats = {}
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for row in rows:
            kinds = tuple(map(type, row))
            if kinds not in formats:
                text = [issubclass(k, str) for k in kinds]
                formats[kinds] = (",".join("%s" if t else "%.16e" for t in text) + "\r\n",
                                  any(text))
            fmt, has_text = formats[kinds]
            if has_text:
                row = tuple(_quoted(v) if isinstance(v, str) else v for v in row)
            fh.write(fmt % row)
    return path


def _write_json(path: Path, payload: dict) -> Path:
    """Sorted keys, indent 2, numpy scalars and arrays as Python values; NumericalError,
    and no file, if a number is not finite (json.dumps would write NaN or Infinity)."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                          default=lambda obj: obj.tolist())
    except ValueError as exc:
        raise NumericalError(f"{path} would hold a non-finite number ({exc})") from None
    path.write_text(text + "\n")
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, subcommand: str, cfg: ScenarioConfig,
                    config_path: str, outputs: list[Path]) -> Path:
    manifest = {
        "tool": "movingatom",
        "version": __version__,
        "subcommand": subcommand,
        "config_file": Path(config_path).name,
        "config_sha256": _sha256(Path(config_path)),
        "resolved": cfg.resolved,
        "options": {
            "tol": cfg.tol,
            "seed": cfg.seed,
        },
        "outputs": {p.name: _sha256(p) for p in outputs},
    }
    return _write_json(out_dir / "manifest.json", manifest)


def _cmd_spectrum(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    result = directional_spectrum(cfg.scenario, cfg.direction, cfg.x_grid, tol=cfg.tol)
    for warning in result.metadata["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    kappa = result.metadata["kappa"]
    rows = zip(result.x, result.w, kappa * result.w, result.error)
    path = _write_csv(out_dir / "spectrum.csv",
                      ["x", "w", "kappa_w", "error_estimate"], rows)
    return [path]


def _resolved_upper(cfg: ScenarioConfig) -> float:
    if cfg.upper_limit is not None:
        return cfg.upper_limit
    return cfg.formfactor.suggested_upper_limit()


def _cmd_probability(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    upper = _resolved_upper(cfg)
    res = directional_probability(cfg.scenario, cfg.direction, cfg.formfactor,
                                  upper, tol=cfg.tol, max_panels=cfg.max_panels)
    if not res.converged:
        raise NumericalError(
            f"probability integral did not converge (error {res.error_estimate:.3g}); "
            "move the upper limit clear of the Doppler profile, raise "
            "tolerances.max_panels or loosen the tolerance")
    payload = {
        "value": res.value,
        "error_estimate": res.error_estimate,
        "evaluations": res.evaluations,
        "converged": res.converged,
        "upper_limit": upper,
        "formfactor": {"kind": cfg.formfactor.kind, "cutoff": cfg.formfactor.cutoff},
        "normalization": "probability per steradian (kappa applied)",
    }
    print(f"probability per steradian: {res.value:.12e} "
          f"(error estimate {res.error_estimate:.3e})")
    return [_write_json(out_dir / "probability.json", payload)]


def _cmd_divergence(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    report = divergence_comparison(cfg.scenario, cfg.direction, lambdas=cfg.lambdas,
                                   tol=cfg.tol, max_panels=cfg.max_panels)
    rows = []
    for label, entry in report.entries.items():
        scan = entry.scan
        for lam, value, err in zip(scan.lambdas, scan.values, scan.errors):
            rows.append((label, lam, value, err))
    csv_path = _write_csv(out_dir / "divergence.csv",
                          ["model", "cutoff", "cumulative", "error_estimate"], rows)
    json_path = _write_json(out_dir / "divergence.json", report.as_json_dict())
    if report.verdict:
        print(report.verdict)
    if report.note:
        print(f"note: {report.note}", file=sys.stderr)
    return [csv_path, json_path]


def _cmd_rates(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    lo = cfg.limit_ordering
    table = limit_ordering_demo(
        lo["epsilons"], gamma_tilde=cfg.scenario.params.gamma_tilde,
        window=tuple(lo["window"]), window_points=lo["window_points"],
        fixed_cutoffs=tuple(lo["fixed_cutoffs"]))
    rows = [(variant, row.epsilon, 0.0, 90.0, rate, row.x_star) for row in table.rows
            for variant, rate in (("unshifted", row.rate_unshifted), ("shifted", row.rate_shifted))]
    csv_path = _write_csv(out_dir / "rates.csv",
                          ["variant", "epsilon", "delta", "theta", "rate", "x_star"],
                          rows)
    json_path = _write_json(out_dir / "limit_ordering.json", asdict(table))
    for row in table.rows:
        kind = row.growth_kind
        expo = f" ~ Lambda^{row.growth_exponent:.2f}" if row.growth_exponent else ""
        print(f"eps = {row.epsilon:.3e}: rate (shifted) = {row.rate_shifted:.9f}, "
              f"mode-sum growth {kind}{expo}")
    return [csv_path, json_path]


def _cmd_pattern(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    pat = cfg.pattern
    if isinstance(cfg.scenario.distribution, TabulatedProjection):
        raise ConfigError("'pattern' needs delta = n.beta in every direction; a tabulated "
                          "distribution gives it only along its own 'direction'")
    theta = np.linspace(0.0, math.pi, pat["theta_points"])
    formfactor = cfg.formfactor if pat["mode"] == "integrated" else None
    result = angular_pattern(cfg.scenario, theta, formfactor,
                             mode=pat["mode"], variant=pat["variant"],
                             phi=math.radians(pat["phi_deg"]),
                             upper_limit=cfg.upper_limit, tol=cfg.tol,
                             max_panels=cfg.max_panels)
    path = _write_csv(out_dir / "pattern.csv", ["theta_rad", "density"],
                      zip(result.theta, result.values))
    return [path]


def _cmd_oracle(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    o = cfg.oracle
    system = flat_band_system(o["modes"], o["half_width"], o["gamma_eff"],
                              delta=o["delta"], epsilon=o["epsilon"])
    t_final = o["lifetimes"] / o["gamma_eff"]
    evolution = discrete_mode_evolution(system, t_final, dt=o["time_step"],
                                        record_every=o["record_every"])
    summary = compare_to_pole(system, evolution, o["gamma_eff"])
    if not evolution.norm_ok:
        e = evolution.extras
        raise NumericalError(
            f"oracle eigen-solution lost norm: drift {evolution.max_norm_drift:.3e} > 1e-6 "
            f"(backward error {e['backward_error']:.3e}) after {e['secular_iterations']} "
            f"secular iterations on {e['poles']} poles")
    final = evolution.mode_populations
    pole = pole_mode_populations(system, o["gamma_eff"])
    pole_scaled = pole * (final.sum() / pole.sum())
    csv_path = _write_csv(out_dir / "oracle_modes.csv",
                          ["x", "final_population", "pole_prediction"],
                          zip(system.x, final, pole_scaled))
    diagnostics = {k: evolution.extras[k]
                   for k in ("poles", "secular_iterations", "near_terms", "far_nodes")}
    json_path = _write_json(out_dir / "oracle.json",
                            {"settings": o, **summary, "diagnostics": diagnostics})
    print(f"decay-rate ratio (fitted / golden rule): {summary['rate_ratio']:.6f}; "
          f"line-shape L2 error: {summary['l2_shape_error']:.4%}")
    return [csv_path, json_path]


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "probability": _cmd_probability,
    "divergence": _cmd_divergence,
    "rates": _cmd_rates,
    "pattern": _cmd_pattern,
    "oracle": _cmd_oracle,
}

_HELP = {
    "spectrum": "emission density w(x) along the configured direction",
    "probability": "frequency-integrated emission probability per steradian",
    "divergence": "cutoff scans and growth laws for the three coupling variants",
    "rates": "golden-rule rates vs cutoff-regulated mode sums per epsilon",
    "pattern": "angular emission pattern over the polar angle",
    "oracle": "discrete-mode evolution cross-check of rate and line shape",
}


@functools.cache  # built once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="movingatom",
        description="Emission spectra and decay rates of a moving two-level wavepacket.")
    parser.add_argument("--version", action="version", version=f"movingatom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in _HELP.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="scenario file (YAML or JSON)")
        p.add_argument("--out", default=None,
                       help="output directory (default: scenario's output.directory, else ./out)")
        p.add_argument("--tol", type=float, default=None,
                       help="override the quadrature tolerance from the scenario file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed recorded in the manifest")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        raw = load_raw(args.config)
        if args.tol is not None:
            raw["tolerances"] = {**_section(raw, "tolerances"), "quadrature": args.tol}
        if args.seed is not None:
            raw["seed"] = args.seed
        cfg = build_config(raw, base_dir=Path(args.config).parent)
        out_dir = Path(args.out or cfg.output_dir or "out")
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = _DISPATCH[args.command](cfg, out_dir)
        manifest = _write_manifest(out_dir, args.command, cfg, args.config, outputs)
        names = ", ".join(p.name for p in outputs + [manifest])
        print(f"wrote {names} in {out_dir}")
        return 0
    except (ConfigError, ParameterError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except PhysicsRejection as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
