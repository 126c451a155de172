"""Statements of the package that no test runs.

Runs the test suite in this process (`pytest.main`) under `sys.settrace`,
recording the lines executed in src/movingatom, and prints
`module:line: statement` for every simple statement inside a function that
never ran (docstrings excepted). Compound statements are judged by the
statements in their bodies. Tracing makes the suite two to three times
slower. PYTEST_ARGS default to `-q -p no:cacheprovider` (the tier-1 suite);
the exit code is pytest's.

    PYTHONPATH=src python tools/untested_lines.py [PYTEST_ARGS ...]
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "movingatom"


def untested(source: str, hits: set[int]) -> list[tuple[int, str]]:
    """(line, first source line) of each simple statement inside a function of `source`
    none of whose lines is in `hits`, in line order."""
    tree, lines = ast.parse(source), source.splitlines()
    funcs = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    docs = {f.body[0] for f in funcs if ast.get_docstring(f, clean=False) is not None}
    simple = {node for f in funcs for node in ast.walk(f)
              if isinstance(node, ast.stmt) and not hasattr(node, "body")} - docs
    return sorted((node.lineno, lines[node.lineno - 1].strip()) for node in simple
                  if hits.isdisjoint(range(node.lineno, node.end_lineno + 1)))


def main(argv: list[str]) -> int:
    import pytest

    root, hits = str(PACKAGE), defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    sys.settrace(call)
    try:
        code = pytest.main(argv[1:] or ["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in untested(path.read_text(), hits[str(path)]):
            print(f"{path.stem}:{line}: {text}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
