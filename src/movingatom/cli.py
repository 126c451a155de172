"""Command-line front end: scenario files in, CSV/JSON plus a manifest out.

Every run writes its outputs into one directory together with a
`manifest.json` recording the tool version, the sha256 of the scenario
file, the resolved settings of the sections the subcommand reads (`_COMMANDS`),
and the sha256 of every output file --
enough to tell whether two runs were byte-identical. Manifests carry no
timestamps on purpose: rerunning the same scenario must produce the same
bytes. The scenario file is read once; the bytes parsed are the bytes
hashed. Each subcommand returns its outputs as bytes, and one writer
(`_write`) hashes and writes them, the manifest last. Every output
is formatted before any file is opened, so a failed run leaves the output
directory empty.

Exit codes: 0 success; 2 configuration error (bad file, bad flags, an output
directory that cannot be made or written);
3 numerical failure (quadrature did not converge, non-finite integrand,
oracle norm-drift certificate above 1e-6, an output that would hold a
non-finite number);
4 request rejected on physical grounds (an unregularized quantity that has
no finite value, e.g. an integrated angular pattern without a formfactor).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

try:  # CPython's builtin SHA-256, the same function: hashlib would map OpenSSL's libcrypto
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # an interpreter built without it
        from hashlib import sha256

from . import __version__
from .config import ConfigError, ScenarioConfig, _section, build_config, read_raw
from .quadrature import NumericalError, PhysicsRejection
from .units import ParameterError


def _quoted(text: str) -> str:
    """A str cell as the csv module writes it (QUOTE_MINIMAL, in a row of several cells)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv(name: str, header, columns: list) -> tuple[str, bytes]:
    """(name, UTF-8 bytes) of the table of these columns: a text column's cells (a column
    is text if its first cell is a str) as the csv module writes them, numbers as %.16e,
    CRLF line ends. The number columns pass one np.isfinite and one tolist(), and the
    table one `%` over a repeated row format. NumericalError if a number is not finite;
    a column whose kind changes raises TypeError (a number among text, or text that
    reads as a number among numbers) or ValueError (other text among numbers), and so
    does a column of another length (ValueError)."""
    rows = len(columns[0])
    text = np.array([isinstance(column[0], str) for column in columns])
    numbers = np.array([c for c, t in zip(columns, text) if not t], float).reshape(-1, rows)
    if any(np.asarray(c).dtype.kind not in "biuf" for c, t in zip(columns, text) if not t):
        raise TypeError(f"{name}: a number column holds text")
    if not np.isfinite(numbers).all():
        raise NumericalError(f"{name} would hold a non-finite number")
    table = np.empty((len(columns), rows), dtype=object)
    table[~text] = numbers  # as Python floats, which `%` formats faster than numpy's
    for i in np.flatnonzero(text):
        table[i] = [_quoted(v) for v in columns[i]]
    fmt = ",".join("%s" if t else "%.16e" for t in text) + "\r\n"
    cells = tuple(table.T.ravel().tolist())
    return name, (",".join(map(_quoted, header)) + "\r\n" + (fmt * rows) % cells).encode()


def _json(name: str, payload: dict) -> tuple[str, bytes]:
    """(name, UTF-8 bytes): one line with sorted keys, numpy scalars and arrays as Python
    values; NumericalError if a number is not finite (json.dumps would write NaN or
    Infinity). Without an indent, json takes its C encoder: 3x faster."""
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False,
                          default=lambda obj: obj.tolist())
    except ValueError as exc:
        raise NumericalError(f"{name} would hold a non-finite number ({exc})") from None
    return name, (text + "\n").encode()


def _write(out_dir: Path, outputs, manifest: dict) -> list[str]:
    """Record the sha256 of each (name, bytes) in the manifest, then write the outputs
    and manifest.json last; returns the names written."""
    blobs = dict(outputs)
    manifest["outputs"] = {name: sha256(data).hexdigest() for name, data in blobs.items()}
    blobs.update([_json("manifest.json", manifest)])
    for name, data in blobs.items():
        (out_dir / name).write_bytes(data)
    return list(blobs)


# Each subcommand imports the library it runs, and nothing else: an oracle run loads only
# the oracle.
def _cmd_spectrum(cfg: ScenarioConfig) -> list[tuple[str, bytes]]:
    from .spectra import directional_spectrum
    result = directional_spectrum(cfg.scenario, cfg.direction, cfg.x_grid)
    for warning in result.metadata["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    kappa = result.metadata["kappa"]
    columns = [result.x, result.w, kappa * result.w, result.error]
    return [_csv("spectrum.csv", ["x", "w", "kappa_w", "error_estimate"], columns)]


def _cmd_probability(cfg: ScenarioConfig) -> list[tuple[str, bytes]]:
    from .spectra import directional_probability
    upper = (cfg.formfactor.suggested_upper_limit() if cfg.upper_limit is None
             else cfg.upper_limit)
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
    return [_json("probability.json", payload)]


def _cmd_divergence(cfg: ScenarioConfig) -> list[tuple[str, bytes]]:
    from .spectra import divergence_comparison
    report = divergence_comparison(cfg.scenario, cfg.direction, lambdas=cfg.lambdas,
                                   tol=cfg.tol, max_panels=cfg.max_panels)
    rows = [(label, lam, value, err) for label, entry in report.entries.items()
            for lam, value, err in zip(entry.scan.lambdas, entry.scan.values, entry.scan.errors)]
    outputs = [_csv("divergence.csv", ["model", "cutoff", "cumulative", "error_estimate"],
                    list(zip(*rows))),
               _json("divergence.json", report.as_json_dict())]
    if report.verdict:
        print(report.verdict)
    if report.note:
        print(f"note: {report.note}", file=sys.stderr)
    return outputs


def _cmd_rates(cfg: ScenarioConfig) -> list[tuple[str, bytes]]:
    from .rates import limit_ordering_demo
    lo = cfg.limit_ordering
    table = limit_ordering_demo(
        lo["epsilons"], gamma_tilde=cfg.scenario.params.gamma_tilde,
        window=tuple(lo["window"]), window_points=lo["window_points"],
        fixed_cutoffs=tuple(lo["fixed_cutoffs"]))
    rows = [(variant, row.epsilon, 0.0, 90.0, rate, row.x_star) for row in table.rows
            for variant, rate in (("unshifted", row.rate_unshifted), ("shifted", row.rate_shifted))]
    outputs = [_csv("rates.csv", ["variant", "epsilon", "delta", "theta", "rate", "x_star"],
                    list(zip(*rows))),
               _json("limit_ordering.json", asdict(table))]
    for row in table.rows:
        print(f"eps = {row.epsilon:.3e}: rate (shifted) = {row.rate_shifted:.9f}, "
              f"mode-sum growth {row.growth_kind}")
    return outputs


def _cmd_pattern(cfg: ScenarioConfig) -> list[tuple[str, bytes]]:
    from .spectra import angular_pattern
    pat = cfg.pattern
    theta = np.linspace(0.0, math.pi, pat["theta_points"])
    formfactor = cfg.formfactor if pat["mode"] == "integrated" else None
    result = angular_pattern(cfg.scenario, theta, formfactor,
                             mode=pat["mode"], variant=pat["variant"],
                             phi=math.radians(pat["phi_deg"]),
                             upper_limit=cfg.upper_limit, tol=cfg.tol,
                             max_panels=cfg.max_panels)
    return [_csv("pattern.csv", ["theta_rad", "density"], [result.theta, result.values])]


def _cmd_oracle(cfg: ScenarioConfig) -> list[tuple[str, bytes]]:
    from .amplitudes import (compare_to_pole, discrete_mode_evolution, flat_band_system,
                             pole_mode_populations)
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
    diagnostics = {k: evolution.extras[k]
                   for k in ("poles", "secular_iterations", "near_terms", "far_nodes")}
    outputs = [_csv("oracle_modes.csv", ["x", "final_population", "pole_prediction"],
                    [system.x, final, pole_scaled]),
               _json("oracle.json", {"settings": o, **summary, "diagnostics": diagnostics})]
    print(f"decay-rate ratio (fitted / golden rule): {summary['rate_ratio']:.6f}; "
          f"line-shape L2 error: {summary['l2_shape_error']:.4%}")
    return outputs


_SCENARIO = ("atom", "normalization", "coupling", "dipole_axis", "distribution")
# name -> (subcommand, help, the sections of the resolved configuration that it reads, which
# its manifest records with the seed): each subcommand returns its outputs as (name, bytes)
_COMMANDS = {
    "spectrum": (_cmd_spectrum, "emission density w(x) along the configured direction",
                 (*_SCENARIO, "geometry", "grid", "tolerances")),
    "probability": (_cmd_probability, "frequency-integrated emission probability per steradian",
                    (*_SCENARIO, "geometry", "formfactor", "probability", "tolerances")),
    "divergence": (_cmd_divergence, "cutoff scans and growth laws for the three coupling variants",
                   (*_SCENARIO, "geometry", "scan", "tolerances")),
    "rates": (_cmd_rates, "golden-rule rates vs cutoff-regulated mode sums per epsilon",
              ("atom", "limit_ordering")),
    "pattern": (_cmd_pattern, "angular emission pattern over the polar angle",
                (*_SCENARIO, "formfactor", "probability", "pattern", "tolerances")),
    "oracle": (_cmd_oracle, "discrete-mode evolution cross-check of rate and line shape", ("oracle",)),
}


@functools.cache  # built once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="movingatom",
        description="Emission spectra and decay rates of a moving two-level wavepacket.")
    parser.add_argument("--version", action="version", version=f"movingatom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, blurb, _) in _COMMANDS.items():
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
        raw, data = read_raw(args.config)
        if args.tol is not None:
            raw["tolerances"] = {**_section(raw, "tolerances"), "quadrature": args.tol}
        if args.seed is not None:
            raw["seed"] = args.seed
        cfg = build_config(raw, base_dir=Path(args.config).parent)
        out_dir = Path(args.out or cfg.output_dir or "out")
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = _COMMANDS[args.command][0](cfg)
        manifest = {
            "tool": "movingatom",
            "version": __version__,
            "subcommand": args.command,
            "config_file": Path(args.config).name,
            "config_sha256": sha256(data).hexdigest(),
            # the settings sections answer without building the physics (an oracle run's)
            "resolved": {key: cfg.settings[key] if key in cfg.settings else cfg.resolved[key]
                         for key in (*_COMMANDS[args.command][2], "seed")},
            "options": {"tol": cfg.tol, "seed": cfg.seed},
        }
        print(f"wrote {', '.join(_write(out_dir, outputs, manifest))} in {out_dir}")
        return 0
    except (ConfigError, ParameterError, OSError) as exc:  # OSError: a bad --out
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
