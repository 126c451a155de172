"""Exit codes and output digests of the CLI on every scenario file of a directory.

Each subcommand (default: all six) runs in-process, with `movingatom.cli.main`,
on each `*.yaml` file of SCENARIO_DIR, into a fresh output directory. One line
per (file, subcommand) gives the exit code and the sha256 of every file
written, manifest included; the CLI's own printing is swallowed. The package
is imported from PYTHONPATH, so two trees compare with diff:

    PYTHONPATH=TREE/src python tools/cli_digest.py SCENARIO_DIR [SUBCOMMAND ...]

`python movbench/workloads.py --workload W --seed S --out DIR` writes such a
directory. A run that raises (a traceback on the command line) reads exit 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from movingatom import cli


def digest(config: Path, subcommand: str) -> str:
    """One line: file name, subcommand, exit code, then name=sha256 per file written."""
    with (tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO())):
        try:
            code = cli.main([subcommand, "--config", str(config), "--out", out])
        except Exception:  # a traceback on the command line, which exits 1
            code = 1
        files = sorted(Path(out).iterdir())
        hashes = [f"{p.name}={hashlib.sha256(p.read_bytes()).hexdigest()}" for p in files]
    return " ".join([config.name, subcommand, f"exit={code}", *hashes])


def main(argv: list[str]) -> int:
    subcommands = argv[2:] or list(cli._COMMANDS)
    if len(argv) < 2 or not set(subcommands) <= set(cli._COMMANDS):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for config in sorted(Path(argv[1]).glob("*.yaml")):
        for subcommand in subcommands:
            print(digest(config, subcommand))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
