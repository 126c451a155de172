import ast
import codecs
import hashlib
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import yaml

import movingatom
from movingatom.config import load_raw


def test_every_public_name_resolves_once():
    names = movingatom.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(movingatom, name)] == []


def test_no_module_imports_scipy():
    # scipy is a test dependency only (the `test` extra): the package computes without it
    package = Path(movingatom.__file__).parent
    imports = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                imports.append((path.name, node.module))
    assert len(imports) > 20  # the walk found the package's imports
    assert [(name, module) for name, module in imports
            if module == "scipy" or module.startswith("scipy.")] == []


def test_no_module_fits_with_lapack():
    # least-squares lines come from quadrature.fit_line: np.polyfit's lstsq pages LAPACK in
    package = Path(movingatom.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                calls.append((path.name, func.attr if isinstance(func, ast.Attribute)
                              else getattr(func, "id", None)))
    assert ("quadrature.py", "fit_line") in calls  # the walk found the calls
    assert [(name, f) for name, f in calls if f in ("polyfit", "lstsq")] == []


def test_no_module_builds_rules_or_eigenvalues_with_lapack():
    # Gauss rules come from quadrature.gauss_rule and the covariance check from the closed
    # form 3x3 eigenvalues: np.polynomial's leggauss and hermgauss and np.linalg's eigen-
    # solvers page LAPACK in. Only gaussian_nodes, the tensor reference of ACC-08, keeps eigh.
    package = Path(movingatom.__file__).parent
    found, names = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        kept = {id(node) for function in ast.walk(tree)
                if isinstance(function, ast.FunctionDef) and function.name == "gaussian_nodes"
                for node in ast.walk(function)}
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            names.add(name)
            if name == "polynomial" or name in ("eig", "eigh", "eigvalsh") and id(node) not in kept:
                found.append((path.name, node.lineno, name))
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [alias.name for alias in node.names] + [getattr(node, "module", None)]
                found += [(path.name, node.lineno, m) for m in modules if m and "polynomial" in m]
    assert {"gauss_rule", "eigh"} <= names  # the walk found the builder and the reference
    assert found == []


def test_regulated_integrals_leave_numpy_polynomial_unloaded():
    # the first Gauss-Legendre and Gauss-Hermite rules of a process loaded numpy.polynomial
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from movingatom import CouplingModel, DimensionlessParams, GaussianPacket, PointMass
        from movingatom.spectra import (EmissionScenario, Formfactor, directional_probability,
                                        divergence_comparison)
        params, n = DimensionlessParams(epsilon=0.01, gamma_tilde=1e-2), np.array([1.0, 0.0, 0.0])
        point = EmissionScenario(params, CouplingModel.roentgen(), PointMass(np.zeros(3)))
        packet = EmissionScenario(params, CouplingModel.roentgen(),
                                  GaussianPacket.isotropic([1e-4, 0.0, 2e-4], 1e-3))
        ff = Formfactor("gaussian", 10.0)
        p = directional_probability(point, n, ff, ff.suggested_upper_limit(), tol=1e-9)
        d = divergence_comparison(packet, n)
        print(p.converged and p.evaluations > 0, d.verdict is not None,
              "numpy.polynomial" in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["True", "True", "False"]


def test_cli_on_json_text_maps_neither_openssl_nor_pyyaml(tmp_path):
    # a scenario file whose text is JSON is read by json, whatever its suffix, and the
    # manifest hashes with CPython's builtin SHA-256: neither hashlib's OpenSSL (_hashlib)
    # nor PyYAML is loaded. So is JSON text after a UTF-8 byte-order mark and whitespace,
    # whose value is its YAML parse. Its YAML-text twin loads PyYAML and resolves to the
    # same settings.
    probability = {"atom": {"epsilon": 1e-3, "gamma_tilde": 1e-4},
                   "distribution": {"kind": "point", "beta": [2e-4, 0.0, 1e-4]},
                   "formfactor": {"kind": "sharp", "cutoff": 40.0},
                   "tolerances": {"quadrature": 1e-10}}
    (tmp_path / "probability.yaml").write_text(json.dumps(probability, indent=1) + "\n")
    (tmp_path / "oracle.yaml").write_text('{"oracle": {"modes": 201, "lifetimes": 2.0}}\n')
    (tmp_path / "padded.yaml").write_bytes(codecs.BOM_UTF8 + b"\n\n  " + (
        '{"atom": {"epsilon": 1.0e-3, "gamma_tilde": 1.0e-4},\n "distribution": {"kind": '
        '"point", "beta": [2.0e-4, 0, 1.0e-4]},\n "formfactor": {"kind": "sharp", "cutoff": '
        '40}, "tolerances": {"quadrature": 1.0e-10}}\n').encode())
    (tmp_path / "twin.yaml").write_text(
        "# the probability scenario in YAML\natom: {epsilon: 1.0e-3, gamma_tilde: 1e-4}\n"
        "distribution:\n  kind: point\n  beta: [2.0e-4, 0, 1.0e-4]\n"
        "formfactor: {kind: sharp, cutoff: 40}\ntolerances: {quadrature: 1e-10}\n")
    code = textwrap.dedent("""
        import sys
        from pathlib import Path
        from movingatom.cli import main
        root, loaded = Path(sys.argv[1]), []
        for sub, name in (("oracle", "oracle"), ("probability", "probability"),
                          ("probability", "padded"), ("probability", "twin")):
            assert main([sub, "--config", str(root / f"{name}.yaml"),
                         "--out", str(root / name)]) == 0
            loaded.append([name, "_hashlib" in sys.modules, "yaml" in sys.modules])
        print(loaded)
    """)
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines()[-1] == str([["oracle", False, False],
                                               ["probability", False, False],
                                               ["padded", False, False],
                                               ["twin", False, True]])
    padded = (tmp_path / "padded.yaml").read_bytes()
    assert load_raw(tmp_path / "padded.yaml") == yaml.safe_load(padded)
    manifests = {}
    for name in ("oracle", "probability", "padded", "twin"):
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["config_sha256"] == \
            hashlib.sha256((tmp_path / f"{name}.yaml").read_bytes()).hexdigest()
        assert manifest["outputs"] == {
            file: hashlib.sha256((tmp_path / name / file).read_bytes()).hexdigest()
            for file in manifest["outputs"]}
        assert len(manifest["outputs"]) == (2 if name == "oracle" else 1)
        manifests[name] = manifest
    for name in ("padded", "twin"):
        assert manifests[name]["resolved"] == manifests["probability"]["resolved"]
        assert (tmp_path / name / "probability.json").read_bytes() == \
            (tmp_path / "probability" / "probability.json").read_bytes()


def _modules_after(code: str, *argv) -> set[str]:
    """The movingatom.* modules that a fresh interpreter has loaded after running `code`."""
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('movingatom.')))"
    out = subprocess.run([sys.executable, "-c", code, *map(str, argv)], capture_output=True,
                         text=True, check=True)
    return set(eval(out.stdout.splitlines()[-1]))


def test_a_run_loads_only_the_modules_it_runs(tmp_path):
    # an oracle run, and the loading of an oracle file, leave out the line fractions and
    # the modules that only the physics objects need; a probability run leaves out the oracle
    # and its Cauchy sums
    (tmp_path / "oracle.yaml").write_text('{"oracle": {"modes": 201, "lifetimes": 2.0}}\n')
    (tmp_path / "probability.yaml").write_text(
        '{"distribution": {"kind": "point", "beta": [2e-4, 0.0, 1e-4]},'
        ' "formfactor": {"kind": "sharp", "cutoff": 40.0}}\n')
    run = ("import sys\nfrom movingatom.cli import main\n"
           "assert main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3]]) == 0")
    physics = {f"movingatom.{name}" for name in ("spectra", "rates", "wavepacket", "coupling",
                                                 "lineshape")}
    oracle = _modules_after(run, "oracle", tmp_path / "oracle.yaml", tmp_path / "o")
    assert "movingatom.amplitudes" in oracle and not oracle & physics
    loaded = _modules_after("import sys\nfrom movingatom import config\n"
                            "config.load_config(sys.argv[1])", tmp_path / "oracle.yaml")
    assert "movingatom.config" in loaded and not loaded & physics
    probability = _modules_after(run, "probability", tmp_path / "probability.yaml",
                                 tmp_path / "p")
    assert physics <= probability
    assert not {"movingatom.amplitudes", "movingatom.cauchy"} & probability
