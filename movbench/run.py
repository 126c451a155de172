"""Benchmark of movingatom: one workload per run, timed end to end or traced.

    python3 movbench/run.py --workload doppler|cutoff|oracle|all --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``. The
run writes the workload's scenario files from the seed, times several cold
starts (``setup_s``), then starts one worker process that runs an untimed
warm-up pass and a fixed number of timed passes over the operation list
(``run_s``, ``pass_p50_s``, ``peak_rss_mb``). With ``--trace 1`` the worker
runs as many traced passes again and the run reports per-layer metrics
instead. After the worker has exited, every output of every pass is checked
against an independent reference (``reference.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``correct`` is false
when an operation outside the known faults (``workloads.KNOWN_FAULTS``)
fails. Files go to ``movbench-out/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / "movbench-out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_STARTS = 5  # timed cold starts per run, after one untimed start
WORKER_TIMEOUT_S = 170.0

THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                     "NUMEXPR_NUM_THREADS")}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def _worker_cmd(inputs: Path, *extra: str) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), "--src", str(SRC),
            "--inputs", str(inputs), *extra]


def _cold_starts(inputs: Path, env: dict) -> list[float]:
    times = []
    for i in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(_worker_cmd(inputs, "--setup-only"), env=env,
                              capture_output=True, text=True, timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed:\n{proc.stderr[-2000:]}")
        if i > 0:  # the first start compiles bytecode
            times.append(dt)
    return times


def _run_worker(inputs: Path, out: Path, passes: int, trace: int, env: dict) -> dict:
    log = out / "worker.log"
    with open(log, "w") as fh:
        proc = subprocess.run(_worker_cmd(inputs, "--out", str(out), "--passes", str(passes),
                                          "--trace", str(trace)),
                              env=env, stdout=fh, stderr=subprocess.STDOUT,
                              timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           f"{log.read_text()[-3000:]}")
    return json.loads((out / "results.json").read_text())


def _check_passes(checker, ops_by_name, passes) -> tuple[int, list[dict]]:
    """Check every operation of every pass; return (attempted, failures)."""
    import reference

    attempted, failures = 0, []
    for k, p in enumerate(passes):
        for rec in p["ops"]:
            attempted += 1
            op = ops_by_name[rec["name"]]
            out = rec["output"]
            if rec["error"]:
                ok, detail = False, rec["error"].strip().splitlines()[-1]
            elif op.call == "cli" and out["rc"] != 0:
                ok, detail = False, f"exit code {out['rc']}"
            else:
                try:
                    if op.call == "cli":
                        out = reference.read_cli(op.sub, Path(out["dir"]))
                    ok, detail = checker.check(op.name, out)
                except (OSError, KeyError, ValueError) as exc:
                    ok, detail = False, f"unreadable output: {exc!r}"
            rec["check"] = detail
            if not ok:
                failures.append({"pass": k, "op": op.name, "detail": detail})
    return attempted, failures


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not (SRC / "movingatom" / "__init__.py").is_file():
        raise FileNotFoundError(f"no movingatom package under {SRC}")
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    inputs = out / "inputs"
    ops = workloads.build(workload, seed)
    workloads.write_inputs(ops, inputs)
    env = _child_env()
    passes = workloads.pass_count(workload, seconds)

    setup_times = _cold_starts(inputs, env)
    result = _run_worker(inputs, out, passes, trace, env)

    import reference

    checker = reference.Checker(ops)
    by_name = {op.name: op for op in ops}
    checked = result["passes"] + result.get("traced_passes", [])
    attempted, failures = _check_passes(checker, by_name, checked)
    known = set(workloads.KNOWN_FAULTS[workload])
    unexpected = [f for f in failures if f["op"] not in known]

    pass_s = [p["seconds"] for p in result["passes"]]
    if trace:
        traced_s = [p["seconds"] for p in result["traced_passes"]]
        overhead = statistics.median(traced_s) - statistics.median(pass_s)
        metrics = dict(result["layers"])
        metrics["config.load_s"] = result["setup"]["config_load_s"]
        metrics["setup.import_s"] = result["setup"]["import_s"]
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_pct"] = 100.0 * overhead / statistics.median(pass_s)
        units = _layer_units()
        metrics = {name: _metric(float(metrics[name]), units[name]) for name in units}
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "run_s": _metric(sum(pass_s), "s"),
            "pass_p50_s": _metric(statistics.median(pass_s), "s"),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        }

    report = {"workload": workload, "seed": seed, "passes": passes,
              "setup_starts_s": setup_times, "warmup_s": result["warmup_s"],
              "pass_s": pass_s, "failures": failures,
              "checks": {rec["name"]: rec.get("check") for rec in checked[-1]["ops"]},
              "op_seconds": {rec["name"]: [p["ops"][i]["seconds"] for p in result["passes"]]
                             for i, rec in enumerate(result["passes"][0]["ops"])},
              "metrics": metrics}
    (out / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    return {"correct": not unexpected, "attempted": attempted, "failed": len(failures),
            "metrics": metrics, "_report": report}


def _layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them in turn (one result line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in names:
        try:
            res = run(workload, args.seed, args.seconds, args.trace)
        except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        report = res.pop("_report")
        print(f"== {workload}, seed {args.seed}, {report['passes']} passes")
        for name, verdict in report["checks"].items():
            faulty = any(f["op"] == name for f in report["failures"])
            print(f"{'FAIL' if faulty else 'ok  '} {name}: {verdict}")
        for name, m in res["metrics"].items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
