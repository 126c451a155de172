import importlib.util
import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

from movingatom import quadrature
from movingatom.config import (ConfigError, build_config, load_config,
                               load_raw)
from movingatom.spectra import Formfactor
from movingatom.wavepacket import GaussianPacket, PointMass, TabulatedProjection

REPO = Path(__file__).resolve().parents[1]


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return p


def test_empty_config_gets_defaults(tmp_path):
    cfg = load_config(write(tmp_path, "empty.yaml", ""))
    assert cfg.scenario.params.epsilon == 0.01
    assert cfg.scenario.params.gamma_tilde == 0.01
    assert cfg.scenario.coupling.kind == "roentgen"
    assert isinstance(cfg.scenario.distribution, PointMass)
    assert cfg.formfactor.kind == "none"
    assert cfg.x_grid.size == 241
    assert cfg.lambdas.size == 16
    # default geometry: perpendicular to the default z dipole axis
    assert abs(float(np.dot(cfg.direction, cfg.scenario.dipole_axis))) < 1e-14


def test_fit_windows_are_bounded_as_the_tail_fit_needs():
    # a scan shorter than classify_tail's default window, or a limit-ordering window shorter
    # than the fewest points it fits, is a configuration error (exit 2), not a ValueError
    # raised by the fit
    for section, key, least in (("scan", "points", quadrature.FIT_POINTS),
                                ("limit_ordering", "window_points", quadrature.MIN_FIT_POINTS)):
        build_config({section: {key: least}})
        with pytest.raises(ConfigError, match=f"'{section}.{key}' must be an integer >= {least}"):
            build_config({section: {key: least - 1}})


def test_yaml_and_json_are_interchangeable(tmp_path):
    data = {
        "atom": {"epsilon": 0.002, "gamma_tilde": 0.03},
        "coupling": {"model": "roentgen", "recoil_term": False},
        "grid": {"start": 0.5, "stop": 1.5, "count": 11},
        "formfactor": {"kind": "gaussian", "cutoff": 7.5},
        "seed": 99,
    }
    ypath = write(tmp_path, "s.yaml", """
        atom: {epsilon: 0.002, gamma_tilde: 0.03}
        coupling: {model: roentgen, recoil_term: false}
        grid: {start: 0.5, stop: 1.5, count: 11}
        formfactor: {kind: gaussian, cutoff: 7.5}
        seed: 99
    """)
    jpath = tmp_path / "s.json"
    jpath.write_text(json.dumps(data))
    a = load_config(ypath)
    b = load_config(jpath)
    assert a.resolved == b.resolved
    assert np.array_equal(a.x_grid, b.x_grid)
    assert a.seed == b.seed == 99


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown top-level"):
        build_config({"atoms": {"epsilon": 0.01}})


def test_atom_physical_block(tmp_path):
    cfg = load_config(write(tmp_path, "phys.yaml", """
        atom:
          mass: 1.67262192e-27
          omega0: 1.549e16
          gamma0: 6.27e8
    """))
    assert cfg.scenario.params.epsilon == pytest.approx(5.4e-9, rel=0.02)


def test_atom_mixed_forms_rejected():
    with pytest.raises(ConfigError, match="not both"):
        build_config({"atom": {"epsilon": 0.01, "mass": 1e-27,
                               "omega0": 1e15, "gamma0": 1e7}})


def test_atom_dipole_moment_is_an_unknown_key():
    # no output reads a dipole moment: kappa is 3 gamma_tilde / (16 pi^2)
    with pytest.raises(ConfigError, match=r"unknown 'atom' keys \['dipole_moment'\]"):
        build_config({"atom": {"mass": 1e-27, "omega0": 1e15, "gamma0": 1e7,
                               "dipole_moment": 8.5e-30}})


def test_atom_bad_value():
    with pytest.raises(ConfigError, match="gamma_tilde"):
        build_config({"atom": {"gamma_tilde": -0.5}})


def test_standard_coupling_flag_conflict():
    with pytest.raises(ConfigError):
        build_config({"coupling": {"model": "standard", "momentum_shift": True}})


def test_pattern_variant_follows_the_momentum_shift():
    # pattern.variant defaulted to "shifted" whatever coupling.momentum_shift said
    def variant(coupling, pattern=None):
        return build_config({"coupling": coupling, "pattern": pattern or {}}).pattern["variant"]

    assert variant({}) == "shifted"
    assert variant({"momentum_shift": False}) == "unshifted"
    assert variant({"model": "standard"}) == "unshifted"  # the standard model has no shift
    assert variant({"momentum_shift": False}, {"variant": "unshifted"}) == "unshifted"
    assert variant({}, {"variant": "unshifted"}) == "unshifted"  # only the default shift
    cfg = build_config({"coupling": {"momentum_shift": False}})
    assert cfg.resolved["pattern"]["variant"] == "unshifted"
    with pytest.raises(ConfigError, match="'pattern.variant' 'shifted' contradicts "
                                          "'coupling.momentum_shift' False"):
        variant({"momentum_shift": False}, {"variant": "shifted"})


def test_standard_model_pattern_variant_reads_unshifted():
    # a "shifted" request was recorded as given, while the pattern ran unshifted
    cfg = build_config({"coupling": {"model": "standard"}, "pattern": {"variant": "shifted"}})
    assert cfg.pattern["variant"] == cfg.resolved["pattern"]["variant"] == "unshifted"


def test_gaussian_distribution_variants():
    iso = build_config({"distribution": {"kind": "gaussian", "sigma": 1e-3}})
    assert isinstance(iso.scenario.distribution, GaussianPacket)
    ranked = build_config({"distribution": {"kind": "gaussian", "sigma_along": 1e-3,
                                            "direction": [1, 0, 0]}})
    cov = ranked.scenario.distribution.covariance
    assert cov[0, 0] == pytest.approx(1e-6, rel=1e-12)
    assert cov[1, 1] == 0.0
    covariance = [[4e-6, 1e-6, 0.0], [1e-6, 2e-6, 0.0], [0.0, 0.0, 1e-6]]
    full = build_config({"distribution": {"kind": "gaussian", "mean": [1e-3, 0, 0],
                                          "covariance": covariance}})
    assert full.scenario.distribution.covariance.tolist() == covariance
    assert full.scenario.distribution.mean.tolist() == [1e-3, 0.0, 0.0]
    with pytest.raises(ConfigError, match="exactly one"):
        build_config({"distribution": {"kind": "gaussian", "sigma": 1e-3,
                                       "covariance": np.eye(3).tolist()}})
    with pytest.raises(ConfigError):
        build_config({"distribution": {"kind": "gaussian"}})


def test_tabulated_distribution_loads_and_normalizes(tmp_path):
    table = tmp_path / "deltas.csv"
    table.write_text("delta,weight\n-0.01,1.0\n0.0,2.0\n0.01,1.0\n")
    cfg = build_config({"distribution": {"kind": "tabulated", "file": "deltas.csv",
                                         "direction": [1, 0, 0]}},
                       base_dir=tmp_path)
    dist = cfg.scenario.distribution
    assert isinstance(dist, TabulatedProjection)
    assert dist.weights.sum() == pytest.approx(1.0, rel=1e-14)
    assert dist.weights[1] == pytest.approx(0.5, rel=1e-14)


def test_table_file_is_opened_once(tmp_path):
    # the header sniff and np.loadtxt each opened it; the audit hook sees every open
    table = tmp_path / "deltas.csv"
    table.write_text("# comment\n\ndelta,weight\n-0.01,1.0\n0.01,3.0\n")
    code = textwrap.dedent(f"""
        import sys
        from pathlib import Path
        from movingatom import config
        opened = []
        sys.addaudithook(lambda event, args: event == "open" and opened.append(str(args[0])))
        rows = config._load_table(Path({str(table)!r})).tolist()
        print(opened.count({str(table)!r}), rows)
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "1 [[-0.01, 1.0], [0.01, 3.0]]"


def test_tabulated_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        build_config({"distribution": {"kind": "tabulated", "file": "nope.csv"}},
                     base_dir=tmp_path)


@pytest.mark.parametrize("text", ["delta,weight\n0.0,1.0\n0.1,heavy\n", "0.0,1.0\n0.1,0.5,2.0\n"],
                         ids=["word", "ragged"])
def test_tabulated_unreadable_file(tmp_path, text):
    # a row that is not numbers, or not as long as the others: ConfigError naming the file
    (tmp_path / "bad.csv").write_text(text)
    with pytest.raises(ConfigError, match="could not read table bad.csv"):
        build_config({"distribution": {"kind": "tabulated", "file": "bad.csv"}},
                     base_dir=tmp_path)

def test_tabulated_negative_weights(tmp_path):
    (tmp_path / "bad.csv").write_text("0.0,1.0\n0.1,-0.5\n")
    with pytest.raises(ConfigError, match="negative"):
        build_config({"distribution": {"kind": "tabulated", "file": "bad.csv",
                                       "direction": [1, 0, 0]}},
                     base_dir=tmp_path)


def test_tabulated_non_finite_delta(tmp_path):
    # used to reach the CLI subcommands and exit 1 with a traceback
    (tmp_path / "nan.csv").write_text("nan,0.5\n0.0,0.5\n")
    with pytest.raises(ConfigError, match="finite"):
        build_config({"distribution": {"kind": "tabulated", "file": "nan.csv"}},
                     base_dir=tmp_path)


def test_tabulated_direction_must_be_the_emission_direction(tmp_path):
    (tmp_path / "deltas.csv").write_text("-0.01,1.0\n0.01,1.0\n")
    with pytest.raises(ConfigError, match="direction"):
        build_config({"distribution": {"kind": "tabulated", "file": "deltas.csv"},
                      "geometry": {"mode": "angles", "theta": 45.0}},
                     base_dir=tmp_path)


def test_geometry_angles_mode():
    cfg = build_config({"geometry": {"mode": "angles", "theta": 90.0, "phi": 0.0}})
    assert abs(float(np.dot(cfg.direction, cfg.scenario.dipole_axis))) < 1e-12
    polar = build_config({"geometry": {"mode": "angles", "theta": 0.0}})
    assert np.allclose(polar.direction, polar.scenario.dipole_axis, atol=1e-14)


def test_geometry_explicit_direction_normalized():
    cfg = build_config({"geometry": {"mode": "direction", "direction": [3, 4, 0]}})
    assert np.allclose(cfg.direction, [0.6, 0.8, 0.0], atol=1e-15)


def test_grid_validation():
    with pytest.raises(ConfigError, match="stop"):
        build_config({"grid": {"start": 1.5, "stop": 0.5}})
    with pytest.raises(ConfigError, match="log"):
        build_config({"grid": {"start": 0.0, "stop": 2.0, "spacing": "log"}})
    log = build_config({"grid": {"start": 0.1, "stop": 10.0, "count": 5,
                                 "spacing": "log"}})
    assert np.allclose(np.diff(np.log(log.x_grid)), np.log(100.0) / 4, atol=1e-12)


def test_integral_float_count_loads_as_an_integer():
    cfg = build_config({"grid": {"count": 21.0}})
    assert cfg.x_grid.size == 21 and type(cfg.resolved["grid"]["count"]) is int


def test_formfactor_errors_become_config_errors():
    with pytest.raises(ConfigError, match="formfactor"):
        build_config({"formfactor": {"kind": "box"}})
    with pytest.raises(ConfigError):
        build_config({"formfactor": {"kind": "gaussian"}})  # missing cutoff
    cfg = build_config({"formfactor": {"kind": "sharp", "cutoff": 12}})
    assert cfg.formfactor == Formfactor(kind="sharp", cutoff=12.0)


def test_limit_ordering_validation():
    with pytest.raises(ConfigError, match="decreasing"):
        build_config({"limit_ordering": {"epsilons": [1e-4, 1e-3]}})
    with pytest.raises(ConfigError):
        build_config({"limit_ordering": {"window": [100.0, 30.0]}})


def test_seed_must_be_nonnegative_integer():
    assert build_config({"seed": 7}).seed == 7
    with pytest.raises(ConfigError):
        build_config({"seed": -1})
    with pytest.raises(ConfigError):
        build_config({"seed": 1.5})


def test_resolved_dict_is_json_serializable():
    cfg = build_config({"atom": {"epsilon": 0.001, "gamma_tilde": 0.02}})
    text = json.dumps(cfg.resolved, sort_keys=True)
    assert '"epsilon": 0.001' in text


def test_load_raw_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_raw(tmp_path / "ghost.yaml")
    bad = write(tmp_path, "bad.json", "{not json")
    with pytest.raises(ConfigError, match="parse"):
        load_raw(bad)
    listy = write(tmp_path, "list.yaml", "- a\n- b\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_raw(listy)


YAML_FEATURES = """
    # a comment line
    atom: {epsilon: 1.0e-3, gamma_tilde: 1e-3}  # a flow map; 1e-3 is a string in YAML 1.1
    grid:
      start: 0.9   # block map
      count: 21
    limit_ordering: {epsilons: [1.0e-2, 1.0e-3], window: [0.5, 2]}
    seed: 7
"""


@pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
def test_yaml_loaders_read_the_same_dict(tmp_path, monkeypatch, loader):
    # CSafeLoader where PyYAML was built with libyaml; SafeLoader as an install without it
    if not hasattr(yaml, loader):
        pytest.skip(f"PyYAML built without {loader}")
    path = write(tmp_path, "s.yaml", YAML_FEATURES)
    if loader == "SafeLoader":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    used, load = set(), yaml.load
    monkeypatch.setattr(yaml, "load", lambda content, Loader: used.add(Loader)
                        or load(content, Loader=Loader))
    assert load_raw(path) == {
        "atom": {"epsilon": 1e-3, "gamma_tilde": "1e-3"},
        "grid": {"start": 0.9, "count": 21},
        "limit_ordering": {"epsilons": [1e-2, 1e-3], "window": [0.5, 2]},
        "seed": 7,
    }
    bad = write(tmp_path, "bad.yaml", "atom: {epsilon: [0.01}\n")
    with pytest.raises(ConfigError, match="parse"):
        load_raw(bad)
    assert used == {getattr(yaml, loader)}


def _workload_inputs(directory):
    """The scenario files and tables of the three movbench workloads at seed 5, written by
    movbench/workloads.py (loaded from its file, no bytecode written next to it)."""
    spec = importlib.util.spec_from_file_location("movbench_workloads", REPO / "movbench"
                                                  / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    for name in workloads.WORKLOADS:
        workloads.write_inputs(workloads.build(name, 5), directory / name)
    return sorted(directory.glob("*/*.yaml"))


def test_json_text_resolves_as_its_yaml_parse(tmp_path):
    # scenario text that is JSON is read by json, not PyYAML: for the committed scenarios
    # and the workloads' inputs both parses resolve to the same settings (YAML 1.1 reads
    # 1e-05 as a string, which the number parser takes as the float that json gives)
    paths = sorted((REPO / "tools" / "scenarios").glob("*/*.yaml")) + _workload_inputs(tmp_path)
    assert len(paths) > 25
    for path in paths:
        text = path.read_text()
        assert text.startswith("{")
        from_json, from_yaml = (build_config(raw, base_dir=path.parent).resolved
                                for raw in (json.loads(text), yaml.safe_load(text)))
        assert from_json == from_yaml, path.name
        assert load_raw(path) == json.loads(text)
    # JSON with NaN goes to YAML, which reads it as a string, as before
    nan = write(tmp_path, "nan.yaml", '{"atom": {"epsilon": NaN}}')
    assert load_raw(nan) == {"atom": {"epsilon": "NaN"}}
    with pytest.raises(ConfigError, match="finite number, got 'NaN'"):
        load_config(nan)


def test_every_section_resolves_to_the_pinned_settings(tmp_path):
    # the README example plus probability, oracle and output: integers given for
    # float settings resolve as floats, and the manifest carries exactly this block
    cfg = load_config(write(tmp_path, "full.yaml", """
        atom: {epsilon: 0.01, gamma_tilde: 0.01}
        coupling: {model: roentgen}
        dipole_axis: [0.0, 0.0, 1.0]
        geometry: {mode: perpendicular}
        distribution: {kind: point, beta: [0, 0, 0]}
        grid: {start: 0.8, stop: 1.2, count: 241, spacing: linear}
        formfactor: {kind: gaussian, cutoff: 10.0}
        scan: {lambda_min: 1.0e+2, lambda_max: 1.0e+4, points: 16}
        pattern: {mode: golden_rule, variant: shifted, theta_points: 73}
        limit_ordering: {epsilons: [1.0e-2, 1.0e-3, 1.0e-4]}
        tolerances: {quadrature: 1.0e-9, max_panels: 4096}
        seed: 1234
        probability: {upper_limit: 50}
        oracle: {modes: 401, half_width: 0.04, gamma_eff: 2.0e-3, delta: 1.0e-3, epsilon: 0,
                 time_step: 0.5, lifetimes: 6, record_every: 50}
        output: {directory: runs}
    """))
    expected = {
        "atom": {"epsilon": 0.01, "gamma_tilde": 0.01},
        "coupling": {"label": "roentgen", "model": "roentgen", "momentum_shift": True,
                     "recoil_term": True},
        "dipole_axis": [0.0, 0.0, 1.0],
        "distribution": {"beta": [0.0, 0.0, 0.0], "kind": "point"},
        "formfactor": {"cutoff": 10.0, "kind": "gaussian"},
        "geometry": {"direction": [1.0, 0.0, 0.0], "mode": "perpendicular"},
        "grid": {"count": 241, "spacing": "linear", "start": 0.8, "stop": 1.2},
        "limit_ordering": {"epsilons": [0.01, 0.001, 0.0001],
                           "fixed_cutoffs": [100.0, 1000.0, 10000.0],
                           "window": [30.0, 100.0], "window_points": 6},
        # kappa = 3 gamma_tilde / (16 pi^2)
        "normalization": {"convention": "reference", "kappa": 0.00018997721932938332},
        "oracle": {"delta": 0.001, "epsilon": 0.0, "gamma_eff": 0.002, "half_width": 0.04,
                   "lifetimes": 6.0, "modes": 401, "record_every": 50, "time_step": 0.5},
        "pattern": {"mode": "golden_rule", "phi_deg": 0.0, "theta_points": 73,
                    "variant": "shifted"},
        "probability": {"upper_limit": 50.0},
        "scan": {"lambda_max": 10000.0, "lambda_min": 100.0, "points": 16},
        "seed": 1234,
        "tolerances": {"max_panels": 4096, "quadrature": 1e-09},
    }
    # compared as JSON text, so that 6 and 6.0 or 1 and True differ
    assert json.dumps(cfg.resolved, sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert cfg.output_dir == "runs"


@pytest.mark.parametrize("raw, key", [
    ({"oracle": {"record_every": True}}, "oracle.record_every"),
    ({"grid": {"count": float("inf")}}, "grid.count"),
    ({"scan": {"lambda_min": 1e400}}, "scan.lambda_min"),
    ({"coupling": {"momentum_shift": 1}}, "coupling.momentum_shift"),
    ({"dipole_axis": [0, 0, 0]}, "dipole_axis"),
    ({"dipole_axis": [0, 0, "z"]}, "dipole_axis[2]"),
    ({"geometry": {"mode": "direction"}}, "geometry.direction"),
    ({"distribution": {"kind": "gaussian", "covariance": [[1, 0], [0, 1], [0, 0]]}},
     "distribution.covariance[0]"),
    ({"distribution": {"kind": "tabulated", "file": 5}}, "distribution.file"),
    ({"output": {"directory": ["a"]}}, "output.directory"),
    ({"grid": {"start": None}}, "grid.start"),
    ({"tolerances": {"max_panel": 64}}, "max_panel"),
])
def test_every_key_is_checked_by_its_parser(raw, key):
    with pytest.raises(ConfigError, match=re.escape(f"'{key}'")):
        build_config(raw)
