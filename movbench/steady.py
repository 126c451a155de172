"""Run the benchmark repeatedly and report whether its figures are steady.

    python3 movbench/steady.py --workload doppler [--first-seed 1]

Makes two sets of ten runs of ``BENCHMARK.json``'s command, one seed each
(seeds count up from ``--first-seed`` across both sets), with the declared
``run_seconds`` and tracing off. Per set and end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(n=4)``) and the spread
(q3 - q1) / median; then how far the second set's median moved from the
first in the metric's worse direction, and whether the share of failed
operations is identical.

The sets agree when every spread is within the metric's bound, every median
moves by no more than its bound, and the failed shares are equal. The spread
of ``setup_s`` is printed but not part of the verdict: set-up is guarded by
its median alone, so a single slow cold start cannot fail the comparison.
The exit code is 0 when the sets agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10  # runs per set; two sets


def one_run(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]

    sets = []
    for s in range(2):
        runs = []
        for i in range(RUNS):
            seed = args.first_seed + s * RUNS + i
            res = one_run(spec, args.workload, seed)
            runs.append(res)
            vals = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.4g}"
                            for m in metrics)
            print(f"set {s} seed {seed}: correct={res['correct']} "
                  f"failed {res['failed']}/{res['attempted']} {vals}", flush=True)
        sets.append(runs)

    agree = True
    summary = {"workload": args.workload, "sets": []}
    shares = set()
    for s, runs in enumerate(sets):
        share = {Fraction(r["failed"], r["attempted"]) for r in runs}
        shares |= share
        agree = agree and all(r["correct"] for r in runs) and len(share) == 1
        stats = {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
                 for m in metrics}
        summary["sets"].append(stats)
        for m in metrics:
            st = stats[m["name"]]
            within = m["name"] == "setup_s" or st["spread"] <= m["bound"]
            agree = agree and within
            print(f"set {s} {m['name']:12s} median {st['median']:.5g} {m['unit']} "
                  f"q1 {st['q1']:.5g} q3 {st['q3']:.5g} spread {st['spread']:.3f} "
                  f"(bound {m['bound']}, target < {m['bound'] / 3:.3f})"
                  f"{'  (not in the verdict)' if m['name'] == 'setup_s' else ''}"
                  f"{'' if within else '  OUTSIDE BOUND'}")
    first, second = summary["sets"]
    for m in metrics:
        a, b = first[m["name"]]["median"], second[m["name"]]["median"]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        ok = worse <= m["bound"]
        agree = agree and ok
        print(f"set 1 vs set 0 {m['name']:12s} median moved {worse:+.3f} toward worse "
              f"(bound {m['bound']}){'' if ok else '  OUTSIDE BOUND'}")
    agree = agree and len(shares) == 1
    print(f"failed shares: {sorted(str(x) for x in shares)}")
    summary["agree"] = agree
    print(json.dumps(summary))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
