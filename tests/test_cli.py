import csv
import dataclasses
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import movingatom.cli as cli
from movingatom import amplitudes, spectra
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


@pytest.mark.parametrize("command, sections", [
    ("spectrum", ["atom", "coupling", "dipole_axis", "distribution", "geometry", "grid",
                  "normalization", "seed", "tolerances"]),
    ("rates", ["atom", "limit_ordering", "seed"]),
])
def test_manifest_records_only_the_sections_its_subcommand_reads(tmp_path, command, sections):
    # every manifest carried every section of the resolved configuration
    cfg = write_config(tmp_path, BASIC + "    limit_ordering: {epsilons: [1.0e-2]}\n")
    assert run([command, "--config", cfg, "--out", tmp_path / "x"]) == 0
    resolved = read_manifest(tmp_path / "x")["resolved"]
    assert sorted(resolved) == sections == sorted((*cli._COMMANDS[command][2], "seed"))
    assert resolved["seed"] == 7 and resolved["atom"]["gamma_tilde"] == 0.01


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


def test_golden_pattern_follows_the_momentum_shift(tmp_path):
    # pattern.variant overrode coupling.momentum_shift: both files had the same sha256
    texts = []
    for flag in ("false", "true"):
        cfg = write_config(tmp_path, "atom: {epsilon: 0.01, gamma_tilde: 0.01}\n"
                           f"coupling: {{momentum_shift: {flag}}}\n"
                           "pattern: {mode: golden_rule, theta_points: 9}\n", name=f"{flag}.yaml")
        assert run(["pattern", "--config", cfg, "--out", tmp_path / flag]) == 0
        texts.append((tmp_path / flag / "pattern.csv").read_bytes())
        variant = read_manifest(tmp_path / flag)["resolved"]["pattern"]["variant"]
        assert variant == {"false": "unshifted", "true": "shifted"}[flag]
    assert texts[0] != texts[1]


def test_standard_model_pattern_manifest_reads_unshifted(tmp_path):
    # the manifest recorded "shifted", while the standard model ran unshifted
    cfg = write_config(tmp_path, "coupling: {model: standard}\n"
                       "pattern: {mode: golden_rule, variant: shifted, theta_points: 5}\n")
    assert run(["pattern", "--config", cfg, "--out", tmp_path / "x"]) == 0
    assert read_manifest(tmp_path / "x")["resolved"]["pattern"]["variant"] == "unshifted"


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
    assert "tabulated distribution gives delta = n.beta only along its own direction" in (
        capsys.readouterr().err)


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
    # 201 poles fill 4 boxes of 64, too few for far sums: every root sums every pole
    assert payload["diagnostics"] == {"poles": 201, "secular_iterations": 4,
                                      "near_terms": 202 * 201, "far_nodes": 0}


def test_oracle_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, """
        oracle: {modes: 1001, half_width: 0.05, gamma_eff: 1.0e-3, lifetimes: 14,
                 time_step: 0.25, record_every: 100, delta: 0.012, epsilon: 0.004}
    """)
    outputs = []
    for name in ("a", "b"):
        assert run(["oracle", "--config", cfg, "--out", tmp_path / name]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())})
    assert outputs[0] == outputs[1]
    assert sorted(outputs[0]) == ["manifest.json", "oracle.json", "oracle_modes.csv"]
    # 1001 poles fill 16 boxes, the leaves of a tree of 16 + 8 + 4 + 2 + 1 boxes with 24 far
    # nodes each, and fewer exact terms than 1002 x 1001
    work = json.loads(outputs[0]["oracle.json"])["diagnostics"]
    assert (work["poles"], work["secular_iterations"], work["far_nodes"]) == (1001, 4, 744)
    assert 1002 * 64 < work["near_terms"] < 1002 * 1001


def test_oracle_norm_failure_exits_3(tmp_path, monkeypatch, capsys):
    exact = amplitudes.discrete_mode_evolution

    def drifting(*args, **kwargs):
        return dataclasses.replace(exact(*args, **kwargs), max_norm_drift=2e-6, norm_ok=False)

    monkeypatch.setattr(amplitudes, "discrete_mode_evolution", drifting)
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


def test_output_path_that_is_a_file_exits_2(tmp_path, capsys):
    # creating the output directory raised FileExistsError: exit 1 with a traceback
    cfg, taken = write_config(tmp_path), tmp_path / "taken"
    taken.write_text("")
    assert run(["spectrum", "--config", cfg, "--out", taken]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert taken.read_text() == ""


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
    named = "upper_limit 0.5" if section.startswith("probability") else "sharp formfactor"
    assert "configuration error" in err and named in err


@pytest.mark.parametrize("command, section, message", [
    ("probability", "formfactor: {kind: sharp, cutoff: 0.5}",
     "the sharp formfactor with cutoff 0.5 reaches x = 0.5,"),
    ("probability", "formfactor: {kind: exponential, cutoff: 1.0e-3}",
     "the exponential formfactor with cutoff 0.001 reaches x = 0.06,"),
    ("pattern", "formfactor: {kind: sharp, cutoff: 0.5}\npattern: {mode: integrated}",
     "the sharp formfactor with cutoff 0.5 reaches x = 0.5,"),
], ids=["probability-sharp", "probability-exponential", "pattern-sharp"])
def test_limit_set_by_the_formfactor_is_named_as_such(tmp_path, capsys, command, section,
                                                       message):
    # no upper_limit in the file, whose limit is the formfactor's reach: the message named an
    # "upper_limit 0.5" (or 0.06, 60 cutoffs) that the file never sets
    cfg = write_config(tmp_path, "atom: {epsilon: 0.01, gamma_tilde: 0.01}\n" + section + "\n")
    assert run([command, "--config", cfg, "--out", tmp_path / "x"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("configuration error: ") and message in line
    assert "upper_limit" not in line and "resonance at x = 0.990195" in line


def test_divergence_at_infinite_mass_exits_2(tmp_path, capsys):
    # epsilon = 0 has no recoil to compare: it exited 1 with a ValueError traceback
    cfg = write_config(tmp_path, "atom: {epsilon: 0.0, gamma_tilde: 0.01}\n")
    assert run(["divergence", "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert "finite mass" in capsys.readouterr().err


def test_divergence_on_a_short_cutoff_ladder_exits_2(tmp_path, capsys):
    # one cutoff is no ladder: a configuration error, not a traceback; three are a ladder
    cfg = write_config(tmp_path, "scan: {lambda_min: 1.0e+2, lambda_max: 1.0e+4, points: 1}\n")
    assert run(["divergence", "--config", cfg, "--out", tmp_path / "x"]) == 2
    (line,) = capsys.readouterr().err.splitlines()  # one line, no traceback
    assert line.startswith("configuration error: ") and "scan.points" in line
    assert not (tmp_path / "x").exists()
    cfg = write_config(tmp_path, "scan: {lambda_min: 1.0e+2, lambda_max: 1.0e+4, points: 3}\n")
    assert run(["divergence", "--config", cfg, "--out", tmp_path / "y"]) == 0
    payload = json.loads((tmp_path / "y" / "divergence.json").read_text())
    assert {label: m["kind"] for label, m in payload["models"].items()} == {
        "roentgen": "power", "standard": "logarithmic", "roentgen_no_recoil_term": "power"}


SUPERLUMINAL = """
    atom: {epsilon: 0.0, gamma_tilde: 1.0e-3}
    geometry: {mode: angles, theta: 90, phi: 0}
    distribution: {kind: point, beta: [1.5, 0, 0]}
    formfactor: {kind: gaussian, cutoff: 10.0}
"""


@pytest.mark.parametrize("command, text, message", [
    *[(command, SUPERLUMINAL, "no emission line for delta >= 1 at epsilon = 0")
      for command in ("spectrum", "probability", "pattern")],
    ("oracle", "oracle: {modes: 101, half_width: 0.05, gamma_eff: 1.0e-3, lifetimes: 14.0}",
     "exceeds half the bath revival time"),
    ("oracle", "oracle: {modes: 2001, record_every: 20000}",
     "decay-rate window contains fewer than 3 recorded points"),
    ("oracle", "oracle: {modes: 2001, gamma_eff: 1.0, lifetimes: 0.1, time_step: 0.25}",
     "need 0 < dt < t_final"),
], ids=["spectrum-superluminal", "probability-superluminal", "pattern-superluminal",
        "oracle-revival", "oracle-fit-window", "oracle-time-step"])
def test_scenarios_that_load_but_cannot_run_exit_2(tmp_path, capsys, command, text, message):
    # each loaded, then exited 1 with a ValueError traceback
    cfg = write_config(tmp_path, text)
    assert run([command, "--config", cfg, "--out", tmp_path / "x"]) == 2
    (line,) = capsys.readouterr().err.splitlines()  # one line, no traceback
    assert line.startswith("configuration error: ") and message in line
    assert not any((tmp_path / "x").iterdir())


def test_gaussian_cutoff_past_float_square_is_the_bare_integral(tmp_path):
    # cutoff**2 overflowed a Python float (OverflowError, exit 1); below x = 100 the
    # formfactor is 1 to the last digit, so the value is the unregularized one
    limit = "probability: {upper_limit: 100.0}\n"
    values = []
    for name, formfactor in (("wide", "formfactor: {kind: gaussian, cutoff: 1.0e+200}\n"),
                             ("bare", "")):
        cfg = write_config(tmp_path, "atom: {epsilon: 0.01, gamma_tilde: 0.01}\n" + limit
                           + formfactor, name=f"{name}.yaml")
        assert run(["probability", "--config", cfg, "--out", tmp_path / name]) == 0
        values.append(json.loads((tmp_path / name / "probability.json").read_text())["value"])
    assert values[0] == pytest.approx(values[1], rel=1e-12)


def test_yaml_syntax_error_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "atom: {epsilon: 0.01, gamma_tilde: [0.01}\n")
    assert run(["spectrum", "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert "could not parse scenario.yaml" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["scenario.yaml", "scenario.json"])
def test_undecodable_config_exits_2(tmp_path, capsys, name):
    # the file was decoded as text before parsing: a UnicodeDecodeError traceback
    cfg = tmp_path / name
    cfg.write_bytes(b'{"atom": {"epsilon": 0.01}, "seed": "\xff"}\n')
    assert run(["spectrum", "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert f"could not parse {name}" in capsys.readouterr().err


@pytest.mark.parametrize("upper", ["1.0e+6", "1.0e+200"])
def test_upper_limit_past_the_formfactor_reach_is_the_reach(tmp_path, upper):
    # 1e6 exited 3 (unconverged), 1e200 exited 0 with 0.3456 where the value is 0.12016
    values = []
    for name, limit in (("reach", "80.0"), ("far", upper)):
        cfg = write_config(tmp_path, "atom: {epsilon: 0.01, gamma_tilde: 0.01}\n"
                           "formfactor: {kind: gaussian, cutoff: 10.0}\n"
                           f"probability: {{upper_limit: {limit}}}\n", name=f"{name}.yaml")
        assert run(["probability", "--config", cfg, "--out", tmp_path / name]) == 0
        values.append(json.loads((tmp_path / name / "probability.json").read_text()))
    assert values[1]["converged"] is True
    assert values[1]["value"] == values[0]["value"] == pytest.approx(0.12015991344302066,
                                                                     rel=1e-14)


@pytest.mark.parametrize("command, section", [
    ("probability", "formfactor: {kind: sharp, cutoff: 1.0e+300}"),
    ("probability", "formfactor: {kind: gaussian, cutoff: 1.0e+200}"),
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
def test_writers_refuse_non_finite_numbers(bad):
    # json.dumps writes Infinity or NaN by default, and "%.16e" writes inf or nan
    with pytest.raises(NumericalError, match=r"out\.json would hold a non-finite number"):
        cli._json("out.json", {"ok": [1.0], "value": np.array([0.5, bad])})
    with pytest.raises(NumericalError, match=r"out\.csv would hold a non-finite number"):
        cli._csv("out.csv", ["model", "value"], [("roentgen", "standard"), (1.0, np.float64(bad))])


def test_csv_rows_match_the_csv_module():
    # the csv module with %.16e numbers, as the writer was: labels that need quoting,
    # numpy and Python numbers, bools and ints, a negative zero and a subnormal
    rows = [("roentgen", 10.0, np.float64(-1.0 / 3.0)), ("a,b", 1e-300, 0.0),
            ('say "x"', np.float64(2.5), 7), ("line\nbreak", True, np.int64(-3)),
            ("", 1e300, -0.0), ("tiny", np.float64(1e-320), 1e-320)]
    header = ["model", "cutoff", "value"]
    name, text = cli._csv("t.csv", header, list(zip(*rows)))
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(header)
    writer.writerows([v if isinstance(v, str) else "%.16e" % v for v in row] for row in rows)
    assert (name, text) == ("t.csv", ref.getvalue().encode())


@pytest.mark.parametrize("columns, error", [
    ([("a", 0.5), (1.0, 2.0)], TypeError),  # a number in the text column
    ([("a", "b"), (1.0, "mid")], ValueError),  # text in the number column
    ([("a", "b"), (1.0, "2.0")], TypeError),  # text that reads as a number, in the number column
    ([("a", "b"), (1.0, 2.0, 3.0)], ValueError),  # a column of another length
], ids=["number-as-text", "text-as-number", "numeric-text", "longer-row"])
def test_csv_column_that_changes_kind_raises(columns, error):
    # each column's kind is its first cell's: the writer built a format for each row
    with pytest.raises(error):
        cli._csv("t.csv", ["model", "value"], columns)


def test_writer_formats():
    assert cli._csv("t.csv", ["model", "cutoff", "value"],
                    [("roentgen", "a,b"), (10.0, 1e-300), (np.float64(-1.0 / 3.0), 0.0)]) == (
        "t.csv",
        b"model,cutoff,value\r\n"
        b"roentgen,1.0000000000000000e+01,-3.3333333333333331e-01\r\n"
        b'"a,b",1.0000000000000000e-300,0.0000000000000000e+00\r\n')
    payload = {"b": np.float64(0.1), "a": {"flag": np.bool_(True), "n": np.int64(7)},
               "array": np.array([1.5, 2.0]), "text": "x", "pair": (1, None)}
    assert cli._json("t.json", payload) == ("t.json", b'{"a": {"flag": true, "n": 7}, '
                                            b'"array": [1.5, 2.0], "b": 0.1, "pair": [1, null], '
                                            b'"text": "x"}\n')


def test_failed_run_writes_no_file(tmp_path, monkeypatch, capsys):
    # the CSV rows are finite, the report's JSON is not: divergence.csv was left behind
    exact = spectra.divergence_comparison

    def broken(*args, **kwargs):
        report = exact(*args, **kwargs)
        return dataclasses.replace(report, entries={
            label: dataclasses.replace(entry, exact_law={"A": math.inf})
            for label, entry in report.entries.items()})

    monkeypatch.setattr(spectra, "divergence_comparison", broken)
    cfg = write_config(tmp_path)
    assert run(["divergence", "--config", cfg, "--out", tmp_path / "x"]) == 3
    assert "divergence.json would hold a non-finite number" in capsys.readouterr().err
    assert not any((tmp_path / "x").iterdir())


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


def test_unregularized_standard_pattern_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, "coupling: {model: standard}\npattern: {mode: integrated}\n")
    assert run(["pattern", "--config", cfg, "--out", tmp_path / "x"]) == 4
    assert "cutoff-dependent without a formfactor" in capsys.readouterr().err


def test_unregularized_pattern_without_recoil_growth_exits_4_as_cutoff_dependent(tmp_path,
                                                                                capsys):
    # k = 0: this coupling's integral grows as ln(Lambda), not as the cutoff squared
    cfg = write_config(tmp_path, """
        coupling: {model: roentgen, recoil_term: false, momentum_shift: false}
        pattern: {mode: integrated}
    """)
    assert run(["pattern", "--config", cfg, "--out", tmp_path / "x"]) == 4
    err = capsys.readouterr().err
    assert "cutoff-dependent without a formfactor" in err and "squared" not in err


def test_divergence_at_small_epsilon_rests_on_the_exact_law(tmp_path):
    # the default ladder ends short of 1/eps = 1e4, where a tail fit reads roentgen
    # "convergent"; its kind is the exact law's
    cfg = write_config(tmp_path, "atom: {epsilon: 1.0e-4, gamma_tilde: 0.01}\n")
    out = tmp_path / "d"
    assert run(["divergence", "--config", cfg, "--out", out]) == 0
    payload = json.loads((out / "divergence.json").read_text())
    assert "strictly more divergent" in payload["verdict"]
    assert "pre-asymptotic" in payload["note"] and "10/epsilon = 100000" in payload["note"]
    assert payload["models"]["roentgen"]["exact_law"] == {"A": 0.5}
    assert payload["models"]["roentgen"]["kind"] == "power"


@pytest.mark.parametrize("table, message", [
    ("0.0\n0.001\n", "table table.csv needs two columns: delta, weight"),
    ("0.0,0.0\n0.001,0.0\n", "table table.csv has zero total weight"),
], ids=["one-column", "zero-weight"])
def test_unusable_tables_exit_2(tmp_path, capsys, table, message):
    (tmp_path / "table.csv").write_text(table)
    cfg = write_config(tmp_path, "distribution: {kind: tabulated, file: table.csv}\n")
    assert run(["spectrum", "--config", cfg, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err


@pytest.mark.parametrize("preamble", ["# deltas along x\n", "\n"], ids=["comment", "blank"])
def test_table_header_after_a_comment_or_blank_line(tmp_path, preamble):
    # the header was sniffed on the first physical line only: "could not convert 'delta'"
    rows = "delta,weight\n-0.01,1.0\n0.0,2.0\n0.01,1.0\n"
    outputs = []
    for name, table in (("plain", rows), ("preamble", preamble + rows)):
        (tmp_path / "table.csv").write_text(table)
        cfg = write_config(tmp_path, "distribution: {kind: tabulated, file: table.csv}\n")
        assert run(["spectrum", "--config", cfg, "--out", tmp_path / name]) == 0
        outputs.append((tmp_path / name / "spectrum.csv").read_bytes())
    assert outputs[0] == outputs[1]


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
    # no module of the package imports scipy (tests/test_package.py); this also catches
    # a dependency that would pull it in on import
    code = "import sys, movingatom.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_gaussian_spectra_leave_scipy_unloaded(tmp_path):
    # the Gaussian Doppler average takes its Faddeeva values from spectra.faddeeva; it
    # imported scipy.special.wofz, about 25 MB of resident memory, for them
    cfg = write_config(tmp_path, """
        atom: {epsilon: 0.01, gamma_tilde: 0.001}
        distribution: {kind: gaussian, mean: [2.0e-4, -1.0e-4, 3.0e-4], sigma: 1.0e-3}
        geometry: {mode: angles, theta: 45.0, phi: 0.0}
        grid: {start: 0.975, stop: 1.005, count: 41}
    """)
    code = textwrap.dedent(f"""
        import sys
        import numpy as np
        from movingatom import CouplingModel, DimensionlessParams, GaussianPacket
        from movingatom.cli import main
        from movingatom.spectra import EmissionScenario, directional_spectrum
        sc = EmissionScenario(DimensionlessParams(epsilon=0.01, gamma_tilde=1e-3),
                              CouplingModel.roentgen(), GaussianPacket.isotropic(np.zeros(3), 1e-3))
        w = directional_spectrum(sc, np.array([1.0, 0.0, 0.0]), np.linspace(0.97, 1.01, 41)).w
        assert np.all(w > 0.0)
        code = main(["spectrum", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}])
        print(code, 'scipy' in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split()[-2:] == ["0", "False"]
    assert len((tmp_path / "out" / "spectrum.csv").read_text().splitlines()) > 41


def test_spectrum_warns_when_the_grid_misses_the_resonance(tmp_path, capsys):
    cfg = write_config(tmp_path, """
        atom: {epsilon: 0.01, gamma_tilde: 0.01}
        grid: {start: 1.5, stop: 2.0, count: 11}
    """)
    assert run(["spectrum", "--config", cfg, "--out", tmp_path / "x"]) == 0
    err = capsys.readouterr().err
    assert "warning: x grid has no point within 0.1 of the resonance at x = 0.99" in err


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
    ("scan: {lambda_min: 1.0e+4, lambda_max: 1.0e+2}", "'scan': lambda_max must exceed"),
    ("atom: 5", "'atom' must be a mapping, got int"),
    # the recoil parameter hbar omega0 / (2 M c^2) overflows to inf
    ("atom: {mass: 1.0e-300, omega0: 1.0e+300, gamma0: 1.0}",
     "'atom': epsilon must be finite and >= 0, got inf"),
])
def test_bad_values_in_any_section_exit_2(tmp_path, capsys, text, key):
    cfg = write_config(tmp_path, text + "\n")
    assert run(["spectrum", "--config", cfg, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert key in err


@pytest.mark.parametrize("text, message", [
    # each loaded and ran without the key: a packet at rest, no formfactor, perpendicular
    ("distribution: {kind: gaussian, beta: [0.01, 0, 0], sigma: 1.0e-3}",
     "'distribution': kind 'gaussian' does not read ['beta']"),
    ("formfactor: {kind: none, cutoff: 10}", "'formfactor': kind 'none' does not read ['cutoff']"),
    ("geometry: {mode: perpendicular, theta: 30}",
     "'geometry': mode 'perpendicular' does not read ['theta']"),
], ids=["distribution", "formfactor", "geometry"])
def test_keys_the_chosen_kind_does_not_read_exit_2(tmp_path, capsys, text, message):
    cfg = write_config(tmp_path, text + "\n")
    assert run(["spectrum", "--config", cfg, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert not (tmp_path / "x").exists()


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
