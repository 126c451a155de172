"""Seeded sweep of the closed-form line integrals against 40-digit quadrature.

Each draw is a point mass with n = (sin theta, 0, cos theta) and e_d = z, and
compares `line_fractions(...).integral` up to U, built for the three models
together as `divergence_comparison` builds them and read at the drawn one, with
mpmath's `quad` at 40 digits: `mp_line_integral` of tests/test_amplitudes.py,
loaded from its file.
The error is |I - I_ref| / max(1, |I_ref|), the bound of that file's
hypothesis fuzz. Draw i, from `numpy.random.default_rng(SEED)` in this order:

    eps   = 0 when i is a multiple of 6, else 10^U(-9, -1)
    gt    = 10^U(-8, -1),  theta = U(0, pi),  beta = U(-0.3, 0.3)^3,
    U     = 10^U(-0.5, 3.5),  model = sorted(_FUZZ_MODELS)[i mod 3]

The ranges reach the hydrogen-like scale of the paper (eps ~ 1e-8, gt ~ 4e-8).
With `--wide`, the second range draws eps U, where the far pole's tail matters, in
place of U, and never eps = 0: the draws are the same but for

    eps   = 10^U(-9, -1),  U = 10^U(log10(0.3), 4) / eps

so that eps U runs from 0.3 to 1e4 (its crossover at about 3 included).
It prints the number of draws whose error exceeds 1e-13, and the worst draw.
Needs mpmath; 400 draws take a few minutes.

    PYTHONPATH=src python tools/line_fuzz.py [--draws N] [--seed S] [--wide]
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parents[1] / "tests"
BOUND = 1e-13


def _reference():
    spec = importlib.util.spec_from_file_location("test_amplitudes", TESTS / "test_amplitudes.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def draws(count: int, seed: int, labels: list[str], wide: bool = False):
    """(model label, eps, gt, theta, beta, U) for each draw, in the order of the docstring;
    `wide` draws the second range."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        eps = 0.0 if i % 6 == 0 and not wide else 10.0 ** rng.uniform(-9.0, -1.0)
        gt, theta = 10.0 ** rng.uniform(-8.0, -1.0), rng.uniform(0.0, math.pi)
        beta = rng.uniform(-0.3, 0.3, 3)
        upper = (10.0 ** rng.uniform(math.log10(0.3), 4.0) / eps if wide
                 else 10.0 ** rng.uniform(-0.5, 3.5))
        yield labels[i % len(labels)], eps, gt, theta, beta, upper


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=400, help="number of draws")
    parser.add_argument("--seed", type=int, default=1, help="numpy generator seed")
    parser.add_argument("--wide", action="store_true", help="draw eps U from 0.3 to 1e4")
    args = parser.parse_args(argv[1:])
    import mpmath

    tests = _reference()
    over, worst = 0, None
    for label, eps, gt, theta, beta, upper in draws(args.draws, args.seed,
                                                    sorted(tests._FUZZ_MODELS), args.wide):
        ref, got = tests.mp_line_integral(mpmath, tests._FUZZ_MODELS[label], theta, beta, eps,
                                          gt, upper)
        error = float(abs(got - ref) / max(1, abs(ref)))
        over += error > BOUND
        if worst is None or error > worst[0]:
            worst = (error, label, eps, gt, theta, beta.tolist(), upper, got, float(ref))
    wide = "  eps U from 0.3 to 1e4" if args.wide else ""
    print(f"draws {args.draws}  seed {args.seed}{wide}  over {BOUND:g}: {over}")
    if worst is not None:
        error, label, eps, gt, theta, beta, upper, got, ref = worst
        print(f"worst {error:.3g}: model={label} eps={eps!r} gt={gt!r} theta={theta!r} "
              f"beta={beta!r} U={upper!r} closed_form={got!r} reference={ref!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
