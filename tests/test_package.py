import ast
from pathlib import Path

import movingatom


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
