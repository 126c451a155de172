"""The measured process: set up, run the passes, record outputs and timings.

    python3 worker.py --src SRC --inputs DIR --out DIR --passes K [--trace 0|1]
    python3 worker.py --src SRC --inputs DIR --setup-only

Imports nothing but the package under test and the standard library (no
scipy, no reference code), so its set-up time and peak memory are the
program's. ``--setup-only`` is one cold start: import, load and validate the
scenario files, build the scenarios, exit.

Each pass runs the operation list once. Only the calls into the program are
timed; garbage collection before a pass and copying outputs after a call
are not. Library outputs go to ``results.json``; CLI outputs stay in
per-pass directories for the parent process to check.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
import traceback
from pathlib import Path


def _setup(src: str, inputs: Path):
    """Import the package and load every scenario file; return (ops, timings)."""
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import movingatom  # noqa: F401
    from movingatom import config

    index = json.loads((inputs / "ops.json").read_text())
    if any(op["call"] == "cli" for op in index):
        import movingatom.cli  # noqa: F401
    t1 = time.perf_counter()
    for op in index:
        op["cfg"] = config.load_config(inputs / op["config"])
    t2 = time.perf_counter()
    return index, {"import_s": t1 - t0, "config_load_s": t2 - t1}


def _library_call(op):
    """Run one library operation; return (thunk, output extractor)."""
    import numpy as np
    from movingatom import spectra

    cfg = op["cfg"]
    call = op["call"]
    if call == "spectrum":
        def run():
            return spectra.directional_spectrum(cfg.scenario, cfg.direction, cfg.x_grid,
                                                tol=cfg.tol)

        def extract(r):
            return {"x": r.x.tolist(), "w": r.w.tolist()}
    elif call == "probability":
        upper = (cfg.upper_limit if cfg.upper_limit is not None
                 else cfg.formfactor.suggested_upper_limit())

        def run():
            return spectra.directional_probability(cfg.scenario, cfg.direction, cfg.formfactor,
                                                   upper, tol=cfg.tol,
                                                   max_panels=cfg.max_panels)

        def extract(r):
            return {"value": r.value}
    elif call == "divergence":
        def run():
            return spectra.divergence_comparison(cfg.scenario, cfg.direction,
                                                 lambdas=cfg.lambdas, tol=cfg.tol,
                                                 max_panels=cfg.max_panels)

        def extract(r):
            return {"verdict": r.verdict, "models": {
                label: {"lambdas": e.scan.lambdas.tolist(),
                        "cumulative": e.scan.values.tolist(),
                        "kind": e.classification.kind}
                for label, e in r.entries.items()}}
    elif call == "pattern":
        pat = cfg.pattern
        theta = np.linspace(0.0, math.pi, pat["theta_points"])

        def run():
            return spectra.angular_pattern(cfg.scenario, theta, mode=pat["mode"],
                                           variant=pat["variant"],
                                           phi=math.radians(pat["phi_deg"]), tol=cfg.tol)

        def extract(r):
            return {"theta": r.theta.tolist(), "values": r.values.tolist()}
    else:
        raise ValueError(f"unknown call {call!r}")
    return run, extract


def _cli_call(op, inputs: Path, out: Path, pass_index: int):
    from movingatom import cli

    out_dir = out / f"pass{pass_index:02d}" / op["name"]
    argv = [op["sub"], "--config", str(inputs / op["config"]), "--out", str(out_dir)]

    def run():
        return cli.main(argv)

    def extract(rc):
        return {"rc": rc, "dir": str(out_dir)}
    return run, extract


def _peak_rss_mb() -> float:
    """High-water resident set of this process's own address space.

    ``VmHWM`` belongs to the memory map made at exec, so unlike ``ru_maxrss``
    it does not inherit the peak of the process that started the worker.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0  # the value is in kB
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _run_pass(index, inputs: Path, out: Path, pass_index: int) -> dict:
    gc.collect()
    records = []
    total = 0.0
    for op in index:
        if op["call"] == "cli":
            run, extract = _cli_call(op, inputs, out, pass_index)
        else:
            run, extract = _library_call(op)
        error = None
        t0 = time.perf_counter()
        try:
            result = run()
        except Exception:  # an operation that raises counts as failed
            result = None
            error = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        total += dt
        records.append({"name": op["name"], "seconds": dt, "error": error,
                        "output": None if error else extract(result)})
    return {"seconds": total, "ops": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out")
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    inputs = Path(args.inputs)

    index, setup = _setup(args.src, inputs)
    if args.setup_only:
        return 0

    out = Path(args.out)
    warmup = _run_pass(index, inputs, out / "warmup", 0)
    passes = [_run_pass(index, inputs, out, k) for k in range(args.passes)]
    result = {"setup": setup, "warmup_s": warmup["seconds"], "passes": passes}
    if args.trace:
        import tracer

        tr = tracer.Tracer()
        tr.install()
        traced = []
        for k in range(args.passes):
            traced.append(_run_pass(index, inputs, out / "traced", k))
            tr.end_pass()
        tr.uninstall()
        tr.write_spans(out / "spans.csv")
        result["traced_passes"] = traced
        result["layers"] = tr.summary()
    result["peak_rss_mb"] = _peak_rss_mb()
    (out / "results.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
