import csv
import dataclasses
import hashlib
import json
import math
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import movingatom.cli as cli
from movingatom.cli import main
from movingatom.quadrature import NumericalError

BASIC = """
    atom: {epsilon: 0.01, gamma_tilde: 0.01}
    grid: {start: 0.9, stop: 1.1, count: 21}
    formfactor: {kind: gaussian, cutoff: 10.0}
    seed: 7
"""


def write_config(tmp_path, text=BASIC, name="scenario.yaml"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return p


def run(args):
    return main([str(a) for a in args])


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def test_spectrum_run_and_manifest(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run(["spectrum", "--config", cfg, "--out", out]) == 0
    manifest = read_manifest(out)
    assert manifest["tool"] == "movingatom"
    assert manifest["subcommand"] == "spectrum"
    assert manifest["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert manifest["options"]["seed"] == 7
    # output hashes must match the files on disk
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    # no wall-clock leakage: manifests must be reproducible
    text = json.dumps(manifest)
    assert not re.search(r"\d{4}-\d{2}-\d{2}", text)  # no dates anywhere
    for key in ("timestamp", "created", "date", "hostname"):
        assert key not in manifest


def test_spectrum_csv_format(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    run(["spectrum", "--config", cfg, "--out", out])
    with open(out / "spectrum.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "w", "kappa_w", "error_estimate"]
    assert len(rows) == 22
    # every numeric cell is printed with 17 significant digits
    cell = rows[1][0]
    assert re.fullmatch(r"-?\d\.\d{16}e[+-]\d{2,3}", cell)
    assert float(rows[1][0]) == 0.9


def test_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["divergence", "--config", cfg, "--out", out1]) == 0
    assert run(["divergence", "--config", cfg, "--out", out2]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_probability_output(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "p"
    assert run(["probability", "--config", cfg, "--out", out]) == 0
    payload = json.loads((out / "probability.json").read_text())
    assert payload["converged"] is True
    assert payload["value"] > 0
    assert payload["formfactor"]["kind"] == "gaussian"


def test_rates_csv_columns(tmp_path):
    cfg = write_config(tmp_path, """
        atom: {epsilon: 0.01, gamma_tilde: 0.01}
        limit_ordering: {epsilons: [1.0e-2, 1.0e-3], window_points: 5}
    """)
    out = tmp_path / "r"
    assert run(["rates", "--config", cfg, "--out", out]) == 0
    with open(out / "rates.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["variant", "epsilon", "delta", "theta", "rate", "x_star"]
    assert len(rows) == 1 + 2 * 2  # two epsilons, two variants
    variants = {row[0] for row in rows[1:]}
    assert variants == {"unshifted", "shifted"}
    payload = json.loads((out / "limit_ordering.json").read_text())
    assert [row["converged"] for row in payload["rows"]] == [True, True]


def test_divergence_reports_scan_convergence(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "d"
    assert run(["divergence", "--config", cfg, "--out", out]) == 0
    payload = json.loads((out / "divergence.json").read_text())
    assert all(m["converged"] is True and m["evaluations"] > 0
               for m in payload["models"].values())
    assert payload["verdict"] is not None

    # a packet whose first cutoff lies inside its Doppler profile: the scans are
    # closed forms per delta node, and the Hermite sums at 40 and 20 nodes disagree
    inside = write_config(tmp_path, """
        atom: {epsilon: 0.01, gamma_tilde: 1.0e-4}
        distribution: {kind: gaussian, sigma: 1.0e-2}
        scan: {lambda_min: 1.0, lambda_max: 1.0e+4, points: 16}
    """, name="inside.yaml")
    out = tmp_path / "inside"
    assert run(["divergence", "--config", inside, "--out", out]) == 0
    payload = json.loads((out / "divergence.json").read_text())
    assert payload["models"]["roentgen"]["converged"] is False
    assert payload["verdict"] is None


def test_pattern_run(tmp_path):
    cfg = write_config(tmp_path, """
        atom: {epsilon: 0.0, gamma_tilde: 0.01}
        pattern: {mode: golden_rule, theta_points: 9}
    """)
    out = tmp_path / "pat"
    assert run(["pattern", "--config", cfg, "--out", out]) == 0
    with open(out / "pattern.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta_rad", "density"]
    assert len(rows) == 10
    assert float(rows[1][1]) == pytest.approx(0.0, abs=1e-15)  # axial zero


def test_integrated_pattern_uses_the_panel_budget(tmp_path, capsys):
    # the same integral as `probability`, which meets tol 1e-15 within 65 536 panels
    text = """
        atom: {epsilon: 0.01, gamma_tilde: 1.0e-3}
        formfactor: {kind: exponential, cutoff: 1.0e+5}
        tolerances: {quadrature: 1.0e-15, max_panels: %d}
        pattern: {mode: integrated, theta_points: 3}
    """
    cfg = write_config(tmp_path, text % 65536)
    assert run(["probability", "--config", cfg, "--out", tmp_path / "p"]) == 0
    assert run(["pattern", "--config", cfg, "--out", tmp_path / "a"]) == 0
    cfg = write_config(tmp_path, text % 4096, name="small.yaml")
    assert run(["pattern", "--config", cfg, "--out", tmp_path / "b"]) == 3
    assert "did not converge at theta = 1.5708 (error " in capsys.readouterr().err


def test_pattern_with_tabulated_distribution_exits_2(tmp_path, capsys):
    (tmp_path / "table.csv").write_text("0.0,0.5\n0.001,0.5\n")
    cfg = write_config(tmp_path, """
        atom: {epsilon: 0.01, gamma_tilde: 1.0e-3}
        distribution: {kind: tabulated, file: table.csv}
        geometry: {mode: angles, theta: 90, phi: 0}
        pattern: {mode: golden_rule, theta_points: 5}
    """)
    assert run(["pattern", "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert "tabulated distribution gives it only along its own" in capsys.readouterr().err


def test_oracle_run(tmp_path):
    cfg = write_config(tmp_path, """
        atom: {epsilon: 0.0, gamma_tilde: 1.0e-3}
        oracle: {modes: 201, half_width: 0.05, gamma_eff: 1.0e-3, lifetimes: 4,
                 time_step: 0.25, record_every: 400}
    """)
    out = tmp_path / "o"
    assert run(["oracle", "--config", cfg, "--out", out]) == 0
    payload = json.loads((out / "oracle.json").read_text())
    assert payload["norm_ok"] is True
    assert 0.0 <= payload["backward_error"] <= 1e-15
    assert payload["rate_ratio"] == pytest.approx(1.0, abs=0.1)
    assert (out / "oracle_modes.csv").exists()


def test_oracle_norm_failure_exits_3(tmp_path, monkeypatch, capsys):
    exact = cli.discrete_mode_evolution

    def drifting(*args, **kwargs):
        return dataclasses.replace(exact(*args, **kwargs), max_norm_drift=2e-6, norm_ok=False)

    monkeypatch.setattr(cli, "discrete_mode_evolution", drifting)
    cfg = write_config(tmp_path, """
        oracle: {modes: 101, half_width: 0.05, gamma_eff: 1.0e-2, lifetimes: 4}
    """)
    assert run(["oracle", "--config", cfg, "--out", tmp_path / "o"]) == 3
    err = capsys.readouterr().err
    assert "eigen-solution lost norm: drift 2.000e-06" in err
    assert "(backward error " in err
    assert "time_step" not in err


def test_missing_config_exits_2(tmp_path, capsys):
    assert run(["spectrum", "--config", tmp_path / "ghost.yaml",
                "--out", tmp_path / "x"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_invalid_value_exits_2(tmp_path):
    cfg = write_config(tmp_path, "atom: {epsilon: -3}\n")
    assert run(["spectrum", "--config", cfg, "--out", tmp_path / "x"]) == 2


def test_unconverged_probability_exits_3(tmp_path, capsys):
    # the upper limit lies inside the packet's Doppler profile
    cfg = write_config(tmp_path, """
        atom: {epsilon: 0.01, gamma_tilde: 1.0e-4}
        distribution: {kind: gaussian, sigma: 1.0e-2}
        probability: {upper_limit: 1.0}
    """)
    assert run(["probability", "--config", cfg, "--out", tmp_path / "x"]) == 3
    assert "numerical" in capsys.readouterr().err


@pytest.mark.parametrize("section", [
    "probability: {upper_limit: 0.5}",  # the atom at rest emits at x = 0.990
    "formfactor: {kind: sharp, cutoff: 0.5}",  # no upper limit: the cutoff is the limit
])
def test_upper_limit_below_the_line_exits_2(tmp_path, capsys, section):
    cfg = write_config(tmp_path, "atom: {epsilon: 0.01, gamma_tilde: 0.01}\n" + section + "\n")
    assert run(["probability", "--config", cfg, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "upper_limit 0.5" in err


@pytest.mark.parametrize("command, section", [
    ("probability", "formfactor: {kind: sharp, cutoff: 1.0e+300}"),
    ("divergence", "scan: {lambda_max: 1.0e+200}"),
    ("rates", "limit_ordering: {fixed_cutoffs: [1.0e+2, 1.0e+3, 1.0e+200]}"),
])
def test_overflowing_integrals_exit_3(tmp_path, capsys, command, section):
    # each exited 0 with converged: true and inf or nan values
    cfg = write_config(tmp_path, "atom: {epsilon: 0.01, gamma_tilde: 0.01}\n" + section + "\n")
    assert run([command, "--config", cfg, "--out", tmp_path / "x"]) == 3
    assert "is not finite" in capsys.readouterr().err
    assert not any((tmp_path / "x").iterdir())


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_writers_refuse_non_finite_numbers(tmp_path, bad):
    # json.dumps writes Infinity or NaN by default, and "%.16e" writes inf or nan
    with pytest.raises(NumericalError, match=r"out\.json would hold a non-finite number"):
        cli._write_json(tmp_path / "out.json", {"ok": [1.0], "value": np.array([0.5, bad])})
    with pytest.raises(NumericalError, match=r"out\.csv would hold a non-finite number"):
        cli._write_csv(tmp_path / "out.csv", ["model", "value"],
                       [("roentgen", 1.0), ("standard", np.float64(bad))])
    assert not any(tmp_path.iterdir())


def test_writer_formats(tmp_path):
    csv_path = cli._write_csv(tmp_path / "t.csv", ["model", "cutoff", "value"],
                              [("roentgen", 10.0, np.float64(-1.0 / 3.0)), ("a,b", 1e-300, 0.0)])
    assert csv_path.read_bytes() == (
        b"model,cutoff,value\r\n"
        b"roentgen,1.0000000000000000e+01,-3.3333333333333331e-01\r\n"
        b'"a,b",1.0000000000000000e-300,0.0000000000000000e+00\r\n')
    payload = {"b": np.float64(0.1), "a": {"flag": np.bool_(True), "n": np.int64(7)},
               "array": np.array([1.5, 2.0]), "text": "x", "pair": (1, None)}
    json_path = cli._write_json(tmp_path / "t.json", payload)
    assert json_path.read_text() == textwrap.dedent("""\
        {
          "a": {
            "flag": true,
            "n": 7
          },
          "array": [
            1.5,
            2.0
          ],
          "b": 0.1,
          "pair": [
            1,
            null
          ],
          "text": "x"
        }
        """)


def test_unregularized_requests_exit_4(tmp_path, capsys):
    cfg = write_config(tmp_path, """
        atom: {epsilon: 0.01, gamma_tilde: 0.01}
        pattern: {mode: integrated}
    """)
    assert run(["pattern", "--config", cfg, "--out", tmp_path / "x"]) == 4
    assert "rejected" in capsys.readouterr().err
    # probability with neither formfactor nor an explicit upper limit
    cfg2 = write_config(tmp_path, "atom: {epsilon: 0.01, gamma_tilde: 0.01}\n",
                        name="bare.yaml")
    assert run(["probability", "--config", cfg2, "--out", tmp_path / "y"]) == 4


def test_probability_with_explicit_limit_is_allowed_without_formfactor(tmp_path):
    # a cutoff-regulated value is a legitimate (cutoff-dependent) request
    cfg = write_config(tmp_path, """
        atom: {epsilon: 0.01, gamma_tilde: 0.01}
        probability: {upper_limit: 100.0}
    """)
    out = tmp_path / "reg"
    assert run(["probability", "--config", cfg, "--out", out]) == 0
    payload = json.loads((out / "probability.json").read_text())
    assert payload["upper_limit"] == 100.0


def test_tol_override_recorded(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "t"
    assert run(["spectrum", "--config", cfg, "--out", out, "--tol", "1e-8"]) == 0
    manifest = read_manifest(out)
    assert manifest["options"]["tol"] == 1e-8
    assert manifest["resolved"]["tolerances"]["quadrature"] == 1e-8


def test_cli_import_leaves_scipy_unloaded():
    # scipy.special is imported only where a Gaussian Doppler average needs it
    code = "import sys, movingatom.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_argparse_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["spectrum"])  # --config is required
    assert exc.value.code == 2


@pytest.mark.parametrize("text, key", [
    ("oracle: {mode: 11}", "['mode']"),  # a typo of 'modes' ran the default 2001 modes
    ('coupling: {recoil_term: "false"}', "coupling.recoil_term"),
    ('atom: {mass: 1.0e-26, omega0: 1.0e+15, gamma0: 1.0e+7, infinite_mass: "no"}',
     "atom.infinite_mass"),
    ("seed: true", "seed"),
    ("limit_ordering: {fixed_cutoffs: [-1, 0]}", "limit_ordering.fixed_cutoffs[0]"),
    ("limit_ordering: {window: 5}", "limit_ordering.window"),
    ("limit_ordering: {epsilons: abc}", "limit_ordering.epsilons"),
    ("oracle: {delta: .nan}", "oracle.delta"),
    ("pattern: {phi: .inf}", "pattern.phi"),
])
def test_bad_values_in_any_section_exit_2(tmp_path, capsys, text, key):
    cfg = write_config(tmp_path, text + "\n")
    assert run(["spectrum", "--config", cfg, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert key in err


def test_overrides_pass_the_scenario_parsers(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["spectrum", "--config", cfg, "--out", tmp_path / "x", "--tol", "inf"]) == 2
    assert "tolerances.quadrature" in capsys.readouterr().err
    assert run(["spectrum", "--config", cfg, "--out", tmp_path / "y", "--seed", "-1"]) == 2
    assert "'seed'" in capsys.readouterr().err
    out = tmp_path / "z"
    assert run(["spectrum", "--config", cfg, "--out", out, "--seed", "0"]) == 0
    manifest = read_manifest(out)
    assert manifest["options"]["seed"] == manifest["resolved"]["seed"] == 0
