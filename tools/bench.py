"""Wall times and work counts of the library layers and of the command line.

Each entry is timed in this process with one BLAS thread: its best and median over
`--repeat` runs, the quartiles of those runs, and its work count, the Gauss-Hermite
order each column (direction, or model and direction) kept, as {order: columns}, read
from `wavepacket.delta_average` in one untimed run. The library entries are one call each:

- pattern_packet: the integrated pattern over 73 angles of a Gaussian packet
  (sigma 1e-3, mean beta (0.01, 0, 0.02), eps = gamma_tilde = 1e-2, roentgen), under a
  gaussian formfactor at cutoff 50, tol 1e-9;
- divergence_doppler, probability_doppler: `divergence_comparison` and
  `directional_probability` (gaussian formfactor at cutoff 10) on the packet of the
  movbench doppler workload at seed 5, perpendicular to the dipole, tol 1e-9;
- pattern_golden: that workload's 37-angle golden-rule pattern (shifted), tol 1e-9;
- doppler: one pass of the movbench doppler workload at seed 5 (the scenario files of
  tools/scenarios/doppler, written by `movbench/workloads.py --seed 5`): its seven library
  calls in the order of its ops.json, each made by movbench/worker.py's `_library_call`. It
  records the median of each call's time and, as its work count ("events"), the Python and
  C call events of each call that `sys.setprofile` sees on one warm run.

The CLI entries run `cli.main` in process, as movbench's worker does, on every scenario
of a CLI directory under tools/scenarios (written by `movbench/workloads.py --seed 5`), in
the order of its ops.json, and time only those calls:

- cli_cutoff: the ten runs of the movbench cutoff workload (probability, divergence,
  rates and pattern on point masses and tables);
- cli_oracle: the three flat-band runs of the movbench oracle workload.

A CLI entry also records the medians of its parts, timed by wrapping the names that
`cli` calls: config (`read_raw`, `build_config`), library (the physics calls of each
subcommand) and encode_write (`_csv`, `_json` and `_write`, which hashes and writes the
files), with csv, the `_csv` share of encode_write; and, as its work count, the exit
codes of the untimed run.

The table entries, table_<N> for each N of `--rows` (default 20000), make two library
calls on a seeded N-row table (`table_scenario`: one Gaussian quantile of width 2e-3 per
stratum, jittered, with weights uniform on [0.5, 1.5]; eps = 1e-2, gamma_tilde = 1e-3,
roentgen, seen along (1, 0, 0)): probability, `directional_probability` under an
exponential formfactor at cutoff 5 up to its reach U = 300, and divergence,
`divergence_comparison` on its default ladder, both at tol 1e-10. The entry records the
median of each call's time and of each call's VmHWM rise in a fresh interpreter
(TABLE_RISE: the table is built and a 16-row call warms the path before the peak is
read), and, as its work counts, the rows and each call's evaluations.

A cold-start entry, cold_<directory>, runs the same scenarios of each CLI directory in one
fresh interpreter that imports the package from the tree's src/: its time is that
process's wall time from start to exit, and it also records the median of the process's
peak resident set (VmHWM, in MB) and, as its work counts, the exit codes and which of
_hashlib (OpenSSL), yaml, numpy.polynomial and scipy the process loaded.

The oracle entries, oracle_<K> for each K of `--modes` (default 2001 and 16001), run
the phases of the discrete-mode oracle on a flat band of K modes,
`flat_band_system(K, 0.05 K / 2001, 1e-3)`, the mode spacing of the 2001-mode ACC-06 band,
for 14 lifetimes recorded every 100 steps of 0.25. Each phase is timed on its own and
the entry records their medians: roots (`_secular_roots`, its far set-up included), lowner
(`_lowner`: the weights, with the far set-up of its log sums), modes (`_mode_sums`, the
final-state sums, with theirs), amps (`_reconstruct` less `_mode_sums`: the recorded
amplitudes), and the three far set-ups alone: far_roots (`cauchy.CauchySums` of the
poles), far_logs (its `far_logs`) and far_modes (`cauchy.CauchySums` of the roots). Its
time is roots + lowner + modes + amps, and its work counts are the root search's
iterations, near_terms and far_nodes, and far_pairs: the source-point pairs that each far
set-up sums directly (`CauchySums.far_pairs`; None for a package without it).

With `--against DIR` the same entries also run from the package of the tree at DIR (for
example a checkout of the parent commit), loaded beside this one under another name;
each repeat runs both sides back to back, alternating which goes first, and the entry
records in how many of those pairs this tree was faster. A tree without
`delta_average` records no work count. The output (stdout, or `--out FILE`) is JSON with
the machine, both trees' `tools/src_lines.py` code lines and the entries.

    python tools/bench.py [--repeat K] [--angles N] [--modes K]... [--rows N]...
                          [--against DIR [--label TEXT]] [--out FILE] [ENTRY ...]
"""

from __future__ import annotations

import os

ONE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
if __name__ == "__main__":  # one BLAS thread, set before numpy loads its BLAS
    os.environ.update(ONE_THREAD)

import argparse
import contextlib
import functools
import gc
import importlib
import importlib.util
import io
import json
import math
import platform
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from statistics import NormalDist

import numpy as np

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "tools" / "scenarios"
CLI_SCENARIOS = ("cutoff", "oracle")  # the directories of CLI runs; doppler's are library calls
# part -> the names of `cli` timed as that part of a CLI entry
CLI_PARTS = {
    "config": ("read_raw", "build_config"),
    "library": ("directional_spectrum", "directional_probability", "divergence_comparison",
                "limit_ordering_demo", "angular_pattern", "flat_band_system",
                "discrete_mode_evolution", "compare_to_pole", "pole_mode_populations"),
    "encode_write": ("_csv", "_json", "_write"),
}

ORACLE_MODES = (2001, 16001)
# the modules whose loading a cold start records: each maps megabytes that a run may not need
WATCHED = ("_hashlib", "yaml", "numpy.polynomial", "scipy")
# one cold start: argv is the tree's src, the scenario directory and the output directory
COLD_START = """
import contextlib, io, json, sys
from pathlib import Path
src, directory, out = map(Path, sys.argv[1:])
sys.path.insert(0, str(src))
from movingatom import cli
assert Path(cli.__file__).is_relative_to(src), cli.__file__
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main([op["sub"], "--config", str(directory / op["config"]),
                       "--out", str(out / op["name"])])
             for op in json.loads((directory / "ops.json").read_text())]
status = Path("/proc/self/status").read_text().splitlines()
kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"vm_hwm_mb": kb / 1024.0, "exit_codes": codes,
                  "modules": [name for name in %r if name in sys.modules]}))
""" % (WATCHED,)

TABLE_ROWS = (20000,)
# one table call's VmHWM rise: argv is the tree's src, this file, the row count and the call
TABLE_RISE = """
import importlib.util, json, sys
src, bench_file, rows, name = sys.argv[1:]
sys.path.insert(0, src)
import movingatom
spec = importlib.util.spec_from_file_location("bench", bench_file)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

def hwm():
    status = open("/proc/self/status").read().splitlines()
    return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024.0

call = bench.table_calls(movingatom, int(rows))[name]
bench.table_calls(movingatom, 16)[name]()  # rules built, modules paged in
before = hwm()
call()
print(json.dumps(hwm() - before))
"""

# the movbench doppler workload's packet and golden-pattern width at seed 5
DOPPLER_MEAN = [0.000183001754, 0.000184764474, 9.195337e-06]
DOPPLER_GOLDEN_SIGMA = 0.0009287020701322124


def load(tree: Path, name: str):
    """The movingatom package of `tree` (its src/movingatom), imported as `name` (once)."""
    if name in sys.modules:
        return sys.modules[name]
    root = Path(tree) / "src" / "movingatom"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def table_scenario(pkg, rows: int):
    """The EmissionScenario of the table entries on `rows` rows (the module docstring),
    seeded by the row count."""
    spectra = importlib.import_module(f"{pkg.__name__}.spectra")
    units = importlib.import_module(f"{pkg.__name__}.units")
    coupling = importlib.import_module(f"{pkg.__name__}.coupling")
    wavepacket = importlib.import_module(f"{pkg.__name__}.wavepacket")
    rng, law = np.random.default_rng(rows), NormalDist(0.0, 2e-3)
    quantiles = (np.arange(rows) + rng.uniform(0.2, 0.8, rows)) / rows
    delta = np.array([law.inv_cdf(float(q)) for q in quantiles])
    weights = rng.uniform(0.5, 1.5, rows)
    table = wavepacket.TabulatedProjection(delta, weights / weights.sum(), [1.0, 0.0, 0.0])
    return spectra.EmissionScenario(units.DimensionlessParams(1e-2, 1e-3),
                                    coupling.CouplingModel.roentgen(), table)


def table_calls(pkg, rows: int) -> dict:
    """{"probability", "divergence"} -> the calls of a table entry on `rows` rows."""
    spectra = importlib.import_module(f"{pkg.__name__}.spectra")
    scenario, n = table_scenario(pkg, rows), np.array([1.0, 0.0, 0.0])
    exponential = spectra.Formfactor("exponential", 5.0)
    return {
        "probability": lambda: spectra.directional_probability(
            scenario, n, exponential, exponential.suggested_upper_limit(), tol=1e-10),
        "divergence": lambda: spectra.divergence_comparison(scenario, n, tol=1e-10),
    }


def entries(pkg, angles: int = 73, modes=ORACLE_MODES, golden_angles: int = 37,
            rows=TABLE_ROWS) -> dict:
    """name -> a call of `pkg` with no arguments, for each entry of the module docstring."""
    spectra = importlib.import_module(f"{pkg.__name__}.spectra")
    units = importlib.import_module(f"{pkg.__name__}.units")
    coupling = importlib.import_module(f"{pkg.__name__}.coupling")
    wavepacket = importlib.import_module(f"{pkg.__name__}.wavepacket")

    def scenario(mean, sigma):
        return spectra.EmissionScenario(units.DimensionlessParams(1e-2, 1e-2),
                                        coupling.CouplingModel.roentgen(),
                                        wavepacket.GaussianPacket.isotropic(mean, sigma))

    packet = scenario([0.01, 0.0, 0.02], 1e-3)
    doppler = scenario(DOPPLER_MEAN, 1e-3)
    golden = scenario([0.0, 0.0, 0.0], DOPPLER_GOLDEN_SIGMA)
    perp = np.array([1.0, 0.0, 0.0])
    theta = np.linspace(0.0, math.pi, angles)
    golden_theta = np.linspace(0.0, math.pi, golden_angles)
    cutoff_50, cutoff_10 = (spectra.Formfactor("gaussian", c) for c in (50.0, 10.0))
    return {
        "pattern_packet": lambda: spectra.angular_pattern(packet, theta, cutoff_50,
                                                          mode="integrated", tol=1e-9),
        "divergence_doppler": lambda: spectra.divergence_comparison(
            doppler, perp, lambdas=np.geomspace(1e2, 1e4, 16), tol=1e-9),
        "probability_doppler": lambda: spectra.directional_probability(
            doppler, perp, cutoff_10, cutoff_10.suggested_upper_limit(), tol=1e-9),
        "pattern_golden": lambda: spectra.angular_pattern(golden, golden_theta,
                                                          variant="shifted", tol=1e-9),
        "doppler": DopplerPass(pkg, SCENARIOS / "doppler"),
        "cli_cutoff": CliPass(pkg, SCENARIOS / "cutoff"),
        "cli_oracle": CliPass(pkg, SCENARIOS / "oracle"),
        **{f"cold_{name}": ColdStart(Path(pkg.__file__).resolve().parents[2], SCENARIOS / name)
           for name in CLI_SCENARIOS},
        **{f"oracle_{k}": OraclePhases(pkg, k) for k in modes},
        **{f"table_{n}": TablePass(pkg, n) for n in rows},
    }


def call_events(call) -> dict:
    """The Python and C call events ("python", "c") that `sys.setprofile` sees while `call`
    runs once."""
    counts = Counter()

    def count(frame, event, arg):
        counts[event] += 1

    gc.collect()
    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(None)
    return {"python": counts["call"], "c": counts["c_call"]}


class DopplerPass:
    """The library calls of the doppler scenario directory, each made by movbench/worker.py's
    `_library_call` with `pkg` imported as movingatom: calling it runs them in the order of
    ops.json and returns {"total", "parts", "work"}: the seconds of the pass and of each call,
    and each call's `call_events` on one warm run (counted on the first call, after the
    pass has run once)."""

    def __init__(self, pkg, directory: Path):
        self.pkg, self.directory, self.calls, self.events = pkg, directory, None, None

    def _make_calls(self) -> dict:
        spec = importlib.util.spec_from_file_location("bench_worker",
                                                      REPO / "movbench" / "worker.py")
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
        config = importlib.import_module(f"{self.pkg.__name__}.config")
        saved, sys.modules["movingatom"] = sys.modules.get("movingatom"), self.pkg
        try:  # worker binds `movingatom.spectra` when it makes each call
            calls = {}
            for op in json.loads((self.directory / "ops.json").read_text()):
                op["cfg"] = config.load_config(self.directory / op["config"])
                calls[op["name"]] = worker._library_call(op)[0]
            return calls
        finally:
            if saved is None:
                del sys.modules["movingatom"]
            else:
                sys.modules["movingatom"] = saved

    def __call__(self) -> dict:
        if self.calls is None:  # made on the first run
            self.calls = self._make_calls()
        parts = {}
        for name, call in self.calls.items():
            start = time.perf_counter()
            call()
            parts[name] = time.perf_counter() - start
        if self.events is None:
            self.events = {name: call_events(call) for name, call in self.calls.items()}
        return {"total": sum(parts.values()), "parts": parts, "work": {"events": self.events}}


class CliPass:
    """The CLI runs of one scenario directory: calling it runs `cli.main` on each scenario,
    into a directory of its own, and returns {"total", "parts", "work"}: the seconds in
    `cli.main`, those of each part of CLI_PARTS (and of `_csv`), and the exit codes."""

    def __init__(self, pkg, directory: Path):
        self.cli = importlib.import_module(f"{pkg.__name__}.cli")
        self.directory, self._out = directory, None

    def __call__(self) -> dict:
        if self._out is None:  # made on the first run, removed with this object
            self._out = tempfile.TemporaryDirectory(prefix="bench-cli-")
            ops = json.loads((self.directory / "ops.json").read_text())
            self.argv = [[op["sub"], "--config", str(self.directory / op["config"]),
                          "--out", str(Path(self._out.name) / op["name"])] for op in ops]
        spent, inside = dict.fromkeys([*CLI_PARTS, "csv"], 0.0), []

        def timed(parts, function):
            def call(*args, **kwargs):
                if inside:  # the manifest's _json inside _write counts once
                    return function(*args, **kwargs)
                inside.append(parts)
                start = time.perf_counter()
                try:
                    return function(*args, **kwargs)
                finally:
                    for part in parts:
                        spent[part] += time.perf_counter() - start
                    inside.pop()
            return call

        names = {name: (part, "csv") if name == "_csv" else (part,)
                 for part, group in CLI_PARTS.items() for name in group}
        original = {name: getattr(self.cli, name) for name in names}
        total, codes = 0.0, []
        try:
            for name, parts in names.items():
                setattr(self.cli, name, timed(parts, original[name]))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                for argv in self.argv:
                    start = time.perf_counter()
                    codes.append(self.cli.main(argv))
                    total += time.perf_counter() - start
        finally:
            for name, function in original.items():
                setattr(self.cli, name, function)
        return {"total": total, "parts": spent, "work": {"exit_codes": codes}}


class ColdStart:
    """The CLI runs of one scenario directory in a fresh interpreter (COLD_START) that
    imports the package of `tree`: calling it returns {"total", "vm_hwm_mb", "work"}, the
    process's wall time, its peak resident set and its exit codes and WATCHED modules."""

    def __init__(self, tree: Path, directory: Path):
        self.tree, self.directory, self._out = tree, directory, None

    def __call__(self) -> dict:
        if self._out is None:  # made on the first run, removed with this object
            self._out = tempfile.TemporaryDirectory(prefix="bench-cold-")
        argv = [sys.executable, "-c", COLD_START, str(self.tree / "src"), str(self.directory),
                self._out.name]
        start = time.perf_counter()
        run = subprocess.run(argv, capture_output=True, text=True, check=True,
                             env={**os.environ, **ONE_THREAD})
        wall = time.perf_counter() - start
        child = json.loads(run.stdout)
        return {"total": wall, "vm_hwm_mb": child.pop("vm_hwm_mb"), "work": child}


class OraclePhases:
    """The oracle's phases on a flat band of `modes` modes (see the module docstring):
    calling it runs each phase once and returns {"total", "parts", "work"}."""

    def __init__(self, pkg, modes: int):
        self.amplitudes = importlib.import_module(f"{pkg.__name__}.amplitudes")
        self.cauchy = importlib.import_module(f"{pkg.__name__}.cauchy")
        self.modes, self.band = modes, None

    def __call__(self) -> dict:
        a = self.amplitudes
        if self.band is None:  # the poles, their weights and the recorded times, made once
            system = a.flat_band_system(self.modes, 0.05 * self.modes / 2001, 1e-3)
            steps = int(np.ceil(14.0 / 1e-3 / 0.25))
            self.band = (*a._poles(-system.detunings, system.g)[:2],
                         np.append(np.arange(0, steps, 100), steps) * 0.25)
        d, z, times = self.band
        spent = {}

        def timed(part, call, *args, **kwargs):
            start = time.perf_counter()
            out = call(*args, **kwargs)
            spent[part] = time.perf_counter() - start
            return out

        sigma, nu, fp, sums, work = timed("roots", a._secular_roots, d, z)
        roots = timed("far_roots", self.cauchy.CauchySums, d, d, np.zeros(d.size), z,
                      derivative=True)
        _, w = timed("lowner", a._lowner, sums, sigma, nu, fp)
        timed("far_logs", sums.far_logs, (d - sigma[:-1]) - nu[:-1], (d - sigma[1:]) - nu[1:])
        mu = sigma + nu
        last = np.column_stack((w * np.cos(mu * times[-1]), -w * np.sin(mu * times[-1])))
        modes = timed("far_modes", self.cauchy.CauchySums, d, sigma, nu, last)
        timed("modes", a._mode_sums, d, sigma, nu, last)
        timed("amps", a._reconstruct, d, sigma, nu, w, times)
        spent["amps"] = max(spent["amps"] - spent["modes"], 0.0)
        pairs = [getattr(s, "far_pairs", None) for s in (roots, sums, modes)]
        return {"total": sum(spent[part] for part in ("roots", "lowner", "modes", "amps")),
                "parts": spent,
                "work": {"iterations": work["secular_iterations"],
                         "near_terms": work["near_terms"], "far_nodes": work["far_nodes"],
                         "far_pairs": dict(zip(("far_roots", "far_logs", "far_modes"), pairs))}}


class TablePass:
    """The calls of the table entry on `rows` rows (see the module docstring): calling it
    runs each once and returns {"total", "parts", "rise_mb", "work"}: the seconds of the
    pass and of each call, a function that measures each call's VmHWM rise in a fresh
    interpreter (`measure` calls it on timed runs only), and the rows and each call's
    evaluations (a model's at divergence)."""

    def __init__(self, pkg, rows: int):
        self.pkg, self.rows, self.calls = pkg, rows, None

    def __call__(self) -> dict:
        if self.calls is None:  # the table is made on the first run
            self.calls = table_calls(self.pkg, self.rows)
        parts, results = {}, {}
        for name, call in self.calls.items():
            start = time.perf_counter()
            results[name] = call()
            parts[name] = time.perf_counter() - start
        tree = Path(self.pkg.__file__).resolve().parents[2]

        def rise():  # one interpreter per call, side by side
            runs = {name: subprocess.Popen(
                [sys.executable, "-c", TABLE_RISE, str(tree / "src"), __file__, str(self.rows),
                 name], stdout=subprocess.PIPE, text=True, env={**os.environ, **ONE_THREAD})
                for name in self.calls}
            out = {name: run.communicate()[0] for name, run in runs.items()}
            if any(run.returncode for run in runs.values()):
                raise RuntimeError(f"a VmHWM run failed: {out}")
            return {name: json.loads(text) for name, text in out.items()}

        evaluations = {"probability": int(results["probability"].evaluations),
                       "divergence": {label: entry.scan.evaluations for label, entry
                                      in results["divergence"].entries.items()}}
        return {"total": sum(parts.values()), "parts": parts, "rise_mb": rise,
                "work": {"rows": self.rows, "evaluations": evaluations}}


def work_counts(pkg, call) -> dict:
    """The work counts of one untimed run of `call`: "hermite_orders", the {order: columns}
    that it kept over its `delta_average` runs (None for a package without it), and those
    that a CLI, cold-start or oracle entry returns ("work")."""
    wavepacket = importlib.import_module(f"{pkg.__name__}.wavepacket")
    original = getattr(wavepacket, "delta_average", None)
    kept = Counter()

    def counting(*args):
        out = original(*args)
        kept.update(np.ravel(out[-1]).tolist())
        return out

    modules = [m for name, m in sys.modules.items() if name.startswith(pkg.__name__)]
    bound = [m for m in modules if original and getattr(m, "delta_average", None) is original]
    for module in bound:
        module.delta_average = counting
    try:
        out = call()
    finally:
        for module in bound:
            module.delta_average = original
    orders = {str(order): kept[order] for order in sorted(kept)} if original else None
    return {"hermite_orders": orders, **(out["work"] if isinstance(out, dict) else {})}


def _stats(times: list[float]) -> dict:
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {"best_s": min(times), "median_s": float(median), "iqr_s": float(q3 - q1),
            "runs": len(times)}


def measure(sides: dict, names, repeat: int, angles: int, modes=ORACLE_MODES,
            rows=TABLE_ROWS) -> dict:
    """Each entry of `names` on each side ({label: package}), `repeat` interleaved runs.
    An entry that returns a dict times its own runs ("total"), and adds the median of each
    of its other measurements: of each part ("parts"), or of the peak resident set. A
    measurement that it returns as a function is taken on the timed runs only."""
    calls = {label: entries(pkg, angles, modes, rows=rows) for label, pkg in sides.items()}
    out = {}
    for name in names:
        times, extra = ({label: [] for label in sides} for _ in range(2))
        for label in sides:
            calls[label][name]()  # warm: rules built, modules paged in
        for run in range(repeat):
            order = list(sides) if run % 2 == 0 else list(sides)[::-1]
            for label in order:
                start = time.perf_counter()
                result = calls[label][name]()
                elapsed = time.perf_counter() - start
                if isinstance(result, dict):
                    elapsed = result.pop("total")
                    result.pop("work")
                    extra[label].append({key: value() if callable(value) else value
                                         for key, value in result.items()})
                times[label].append(elapsed)
        entry = {}
        for label in sides:
            entry[label] = {**_stats(times[label]),
                            **work_counts(sides[label], calls[label][name])}
            for key in extra[label][0] if extra[label] else ():
                values = [result[key] for result in extra[label]]
                entry[label][key] = (
                    {part: float(np.median([v[part] for v in values])) for part in values[0]}
                    if isinstance(values[0], dict) else float(np.median(values)))
        if len(sides) == 2:
            change, against = (times[label] for label in sides)
            entry["faster_pairs"] = sum(a < b for a, b in zip(change, against))
        out[name] = entry
    return out


@functools.cache  # once per tree in a process: tokenizing all of src/ is slow
def src_lines(tree: Path) -> int:
    spec = importlib.util.spec_from_file_location("src_lines", REPO / "tools" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    files = sorted((Path(tree) / "src" / "movingatom").glob("*.py"))
    return sum(module.code_lines(path.read_text()) for path in files)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench.py", description=__doc__.splitlines()[0])
    parser.add_argument("entries", nargs="*", help="entries to run (default: all)")
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--angles", type=int, default=73,
                        help="angles of the integrated pattern entry")
    parser.add_argument("--modes", type=int, action="append",
                        help="a mode count K of the oracle entries, once per K "
                             f"(default: {' and '.join(map(str, ORACLE_MODES))})")
    parser.add_argument("--rows", type=int, action="append",
                        help="a row count N of the table entries, once per N "
                             f"(default: {' and '.join(map(str, TABLE_ROWS))})")
    parser.add_argument("--against", type=Path, help="another tree to run the entries from")
    parser.add_argument("--label", help="the other tree's name in the output (default: DIR)")
    parser.add_argument("--out", type=Path, help="write the JSON here, not to stdout")
    args = parser.parse_args(argv[1:])
    args.modes, args.rows = args.modes or list(ORACLE_MODES), args.rows or list(TABLE_ROWS)
    sides = {"change": load(REPO, "movingatom_bench")}
    if args.against is not None:
        sides["against"] = load(args.against, "movingatom_against")
    known = list(entries(sides["change"], args.angles, args.modes, rows=args.rows))
    names = args.entries or known
    unknown = set(names) - set(known)
    if unknown:
        parser.error(f"unknown entries {sorted(unknown)}")
    result = {
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "machine": platform.machine(),
                    "blas_threads": 1},
        "settings": {"repeat": args.repeat, "angles": args.angles, "modes": args.modes,
                     "rows": args.rows},
        "src_lines": {"change": src_lines(REPO)},
        "entries": measure(sides, names, args.repeat, args.angles, args.modes, args.rows),
    }
    if args.against is not None:
        result["against"] = args.label or str(args.against)
        result["src_lines"]["against"] = src_lines(args.against)
    text = json.dumps(result, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
