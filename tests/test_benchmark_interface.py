"""The names movbench reaches into must keep resolving.

movbench/tracer.py wraps the functions listed in its WRAPPED table by name,
and movbench/worker.py passes keyword arguments to the `spectra` calls, reads
fields of the loaded `ScenarioConfig`, and reads attributes off the results.
The tracer is loaded read-only from its file (no bytecode written next to it);
the worker is only read as text.
"""

import ast
import dataclasses
import functools
import importlib
import importlib.util
import inspect
import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from movingatom import spectra
from movingatom.config import ScenarioConfig
from movingatom.coupling import CouplingModel
from movingatom.units import DimensionlessParams
from movingatom.wavepacket import GaussianPacket

TRACER = Path(__file__).resolve().parents[1] / "movbench" / "tracer.py"
WORKER = TRACER.parent / "worker.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("movbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_wrapped_name_resolves():
    wrapped = _load_tracer().WRAPPED
    missing = [f"{layer}.{name}" for layer, names in wrapped.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"movingatom.{layer}"), name, None))]
    assert not missing, f"movbench/tracer.py wraps names that no longer exist: {missing}"


def test_worker_keyword_arguments_are_accepted():
    # read as text: every keyword of every spectra.<name>(...) call in movbench/worker.py
    passed = {(node.func.attr, keyword.arg)
              for node in ast.walk(ast.parse(WORKER.read_text()))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "spectra"
              for keyword in node.keywords}
    assert passed, "movbench/worker.py no longer passes a keyword to any spectra call"
    missing = sorted((name, arg) for name, arg in passed
                     if arg not in inspect.signature(getattr(spectra, name)).parameters)
    assert not missing, f"spectra functions no longer accept {missing}"


def test_scenario_config_has_every_field_the_worker_reads():
    # read as text: nothing is imported from, or written next to, movbench/worker.py
    source = WORKER.read_text()
    read = set(re.findall(r"\bcfg\.(\w+)", source))
    fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    assert read, "movbench/worker.py no longer reads any cfg.<field>"
    assert read <= fields, f"ScenarioConfig lacks {sorted(read - fields)}"



def _chain(node):
    """("r", "entries", "items") for the expression r.entries.items; None unless the
    attributes stand on a name."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return (node.id, *reversed(names)) if isinstance(node, ast.Name) and names else None


def _extract_chains():
    """{call: (param, bound, chains)} for each library call of movbench/worker.py's
    `_library_call`, read as text: the parameter of its `extract`, the names that the
    comprehensions there bind ({name: (chain of the container, whether over .items())}),
    and the attribute chains it reads."""
    (library_call,) = [node for node in ast.walk(ast.parse(WORKER.read_text()))
                       if isinstance(node, ast.FunctionDef) and node.name == "_library_call"]
    found = {}
    for branch in ast.walk(library_call):
        if not (isinstance(branch, ast.If) and isinstance(branch.test, ast.Compare)
                and isinstance(branch.test.comparators[0], ast.Constant)):
            continue
        for extract in branch.body:
            if not (isinstance(extract, ast.FunctionDef) and extract.name == "extract"):
                continue
            bound = {}
            for gen in ast.walk(extract):
                if isinstance(gen, ast.comprehension) and isinstance(gen.target, ast.Tuple):
                    bound[gen.target.elts[1].id] = (_chain(gen.iter.func)[:-1], True)  # .items()
                elif isinstance(gen, ast.comprehension):
                    bound[gen.target.id] = (_chain(gen.iter), False)
            chains = {_chain(node) for node in ast.walk(extract)
                      if isinstance(node, ast.Attribute)} - {None}
            found[branch.test.comparators[0].value] = (extract.args.args[0].arg, bound, chains)
    return found


def test_worker_reads_attributes_that_the_results_have():
    # read as text: every attribute chain that an `extract` of movbench/worker.py reads off
    # a library call's result (r.entries, e.scan.lambdas, e.classification.kind, r.x,
    # r.value, ...) resolves on the result of a small real call
    scenario = spectra.EmissionScenario(DimensionlessParams(0.01, 0.01), CouplingModel.roentgen(),
                                        GaussianPacket.isotropic(np.zeros(3), 1e-3))
    n = np.array([1.0, 0.0, 0.0])
    results = {
        "spectrum": spectra.directional_spectrum(scenario, n, np.linspace(0.9, 1.1, 5)),
        "probability": spectra.directional_probability(
            scenario, n, spectra.Formfactor("gaussian", 10.0), 50.0),
        "divergence": spectra.divergence_comparison(scenario, n),
        "pattern": spectra.angular_pattern(scenario, np.linspace(0.0, np.pi, 5)),
    }
    found = _extract_chains()
    assert set(found) == set(results), "movbench/worker.py runs other library calls"
    assert ("e", "classification", "kind") in found["divergence"][2]  # the walk found them

    def objects(name, call):
        """What a name in that call's `extract` stands for: the result, or each element
        that a comprehension binds to it."""
        param, bound, _ = found[call]
        if name == param:
            return [results[call]]
        (root, *attributes), pairs = bound[name]
        containers = [functools.reduce(getattr, attributes, obj) for obj in objects(root, call)]
        return [v for container in containers for v in (container.values() if pairs
                                                         else container)]

    missing = set()
    for call, (_, _, chains) in found.items():
        for root, *attributes in chains:
            for obj in objects(root, call):
                try:
                    functools.reduce(getattr, attributes, obj)
                except AttributeError:
                    missing.add(f"{call}: {'.'.join([root, *attributes])}")
    assert not missing, f"results lack what movbench/worker.py reads: {sorted(missing)}"


def test_the_tracer_sees_the_oracle_and_the_spectra(tmp_path):
    # as movbench/worker.py traces a run: an untimed run loads what the subcommand imports,
    # then the tracer, installed, wraps it; in a fresh process, with nothing else loaded
    (tmp_path / "oracle.yaml").write_text('{"oracle": {"modes": 201, "lifetimes": 2.0}}\n')
    (tmp_path / "probability.yaml").write_text(
        '{"distribution": {"kind": "point", "beta": [2e-4, 0.0, 1e-4]},'
        ' "formfactor": {"kind": "sharp", "cutoff": 40.0}}\n')
    code = textwrap.dedent("""
        import contextlib, importlib.util, io, json, sys
        from pathlib import Path
        from movingatom.cli import main
        tracer_file, root = sys.argv[1], Path(sys.argv[2])
        spec = importlib.util.spec_from_file_location("movbench_tracer", tracer_file)
        tracer = importlib.util.module_from_spec(spec)
        sys.dont_write_bytecode = True
        spec.loader.exec_module(tracer)
        spent = {}
        for sub in ("oracle", "probability"):
            argv = [sub, "--config", str(root / f"{sub}.yaml"), "--out", str(root / sub)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
                tr = tracer.Tracer()
                tr.install()
                try:
                    assert main(argv) == 0
                finally:
                    tr.uninstall()
            spent[sub] = dict(tr.inclusive)
        print(json.dumps(spent))
    """)
    out = subprocess.run([sys.executable, "-c", code, str(TRACER), str(tmp_path)],
                         capture_output=True, text=True, check=True)
    spent = json.loads(out.stdout.splitlines()[-1])
    assert spent["oracle"]["amplitudes.discrete_mode_evolution"] > 0.0
    assert spent["oracle"]["amplitudes.compare_to_pole"] > 0.0
    assert spent["probability"]["spectra.directional_probability"] > 0.0
