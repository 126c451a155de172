"""Per-phase times of the discrete-mode oracle on flat bands of K modes.

Each phase runs on its own, with one BLAS thread, and prints the best of N
runs in milliseconds:

    roots     `_secular_roots`, the far set-up of its near/far sums included
    far       that far set-up alone (`cauchy.CauchySums` of the poles)
    lowner    `_lowner`: the weights z_hat and the eigenvector weights w, the far
              set-up of its log sums (`cauchy.CauchySums.far_logs`) included
    modes     `_mode_sums`: the final-state sums S_p
    amps      `_reconstruct` less `_mode_sums`: the recorded atom amplitudes

The band is `flat_band_system(K, 0.05 * K / 2001, 1e-3)`, so the mode spacing
is that of the 2001-mode ACC-06 band, run for 14 lifetimes recorded every 100
steps of 0.25.

    python tools/oracle_phases.py [--repeat N] [K ...]   # K defaults to 1001 ... 16001
"""

from __future__ import annotations

import os

if __name__ == "__main__":  # one BLAS thread: set before numpy loads its BLAS
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from movingatom import amplitudes, cauchy  # noqa: E402

SIZES = (1001, 2001, 4001, 8001, 16001)
PHASES = ("roots", "far", "lowner", "modes", "amps")


def _best(fn, repeat: int) -> float:
    best = np.inf
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def phases(k: int, repeat: int) -> dict:
    """Best-of-`repeat` seconds of each phase at K = k, and the run's certificate."""
    system = amplitudes.flat_band_system(k, 0.05 * k / 2001, 1e-3)
    d, z, _, _ = amplitudes._poles(-system.detunings, system.g)
    n_steps = int(np.ceil(14.0 / 1e-3 / 0.25))
    times = np.append(np.arange(0, n_steps, 100), n_steps) * 0.25
    sigma, nu, fp, sums, work = amplitudes._secular_roots(d, z)
    _, w = amplitudes._lowner(sums, sigma, nu, fp)
    mu = sigma + nu
    last = np.column_stack((w * np.cos(mu * times[-1]), -w * np.sin(mu * times[-1])))
    out = {
        "roots": _best(lambda: amplitudes._secular_roots(d, z), repeat),
        "far": _best(lambda: cauchy.CauchySums(d, d, np.zeros(d.size), z, True), repeat),
        "lowner": _best(lambda: amplitudes._lowner(sums, sigma, nu, fp), repeat),
        "modes": _best(lambda: amplitudes._mode_sums(d, sigma, nu, last), repeat),
    }
    whole = _best(lambda: amplitudes._reconstruct(d, sigma, nu, w, times), repeat)
    out["amps"] = max(whole - out["modes"], 0.0)
    out["iterations"] = work["secular_iterations"]
    out["drift"] = amplitudes.discrete_mode_evolution(system, 14.0 / 1e-3, dt=0.25,
                                                      record_every=100).max_norm_drift
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="runs per phase (best is kept)")
    parser.add_argument("sizes", type=int, nargs="*", default=SIZES, help="mode counts K")
    args = parser.parse_args(argv[1:])
    print(f"{'K':>7}" + "".join(f"{p:>9}" for p in PHASES)
          + f"{'total':>9}{'iter':>6}{'drift':>10}")
    for k in args.sizes:
        t = phases(k, args.repeat)
        total = t["roots"] + t["lowner"] + t["modes"] + t["amps"]
        print(f"{k:>7}" + "".join(f"{1e3 * t[p]:>9.1f}" for p in PHASES)
              + f"{1e3 * total:>9.1f}{t['iterations']:>6}{t['drift']:>10.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
