"""Independent references and the correctness check of every operation.

Runs in the parent process only (it imports scipy; the measured worker does
not). Nothing here calls movingatom: every reference is rebuilt from the
formulas stated in the package's module docstrings,

    D(x, delta)  = 1 - x (1 - delta) - eps x^2                (amplitudes)
    w(x)         = < x^3 G^2 / (D^2 + gt^2/4) >                (spectra)
    G^2          = |v|^2 - (n.v)^2,  v = b e_d + (e_d.n) beta_eff  (coupling)
    b            = 1 - n.beta_eff + eps x   (recoil term on),  beta_eff = beta + 2 eps x n
    rate         = x*^3 G^2(x*) / (1 - delta + 2 eps x*)       (rates)
    kappa        = 3 gt / (16 pi^2)                            (units)

and integrated with scipy (QUADPACK ``quad`` with breakpoints at the
resonance, ``voigt_profile``, ``expm``) or Gauss-Hermite rules of its own.

For a Gaussian packet G^2 depends on the velocity beyond delta = n.beta,
but only quadratically, so its average given delta follows from the
conditional Gaussian moments; the remaining average over delta is 1-D.

Each check returns (ok, detail). Tolerances follow the requested quadrature
tolerance `tol` of the scenario; see the README for the table.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np
from scipy import integrate, linalg, special

E_D = np.array([0.0, 0.0, 1.0])
GROWTH_FIT_POINTS = 5  # ACC-02/03 fit the last five cutoffs


# -- scenario pieces -------------------------------------------------------

def direction(cfg: dict) -> np.ndarray:
    geo = cfg.get("geometry", {"mode": "perpendicular"})
    if geo["mode"] == "perpendicular":
        return np.array([1.0, 0.0, 0.0])
    t, p = math.radians(geo["theta"]), math.radians(geo.get("phi", 0.0))
    return np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)])


def model(cfg: dict) -> tuple[str, bool, bool]:
    """(kind, recoil term, momentum shift)."""
    c = cfg.get("coupling", {})
    if c.get("model", "roentgen") == "standard":
        return ("standard", False, False)
    return ("roentgen", bool(c.get("recoil_term", True)), bool(c.get("momentum_shift", True)))


MODELS = {"roentgen": ("roentgen", True, True), "standard": ("standard", False, False),
          "roentgen_no_recoil_term": ("roentgen", False, True)}


def kappa(gt: float) -> float:
    return 3.0 * gt / (16.0 * math.pi ** 2)


def x_star(delta, eps):
    om = 1.0 - delta
    return 2.0 / (om + np.sqrt(om * om + 4.0 * eps))


def formfactor(cfg: dict):
    ff = cfg.get("formfactor", {"kind": "none"})
    kind, cut = ff.get("kind", "none"), ff.get("cutoff")
    if kind == "gaussian":
        return (lambda x: math.exp(-(x / cut) ** 2)), 8.0 * cut
    if kind == "exponential":
        return (lambda x: math.exp(-x / cut)), 60.0 * cut
    if kind == "sharp":
        return (lambda x: 1.0), float(cut)
    return (lambda x: 1.0), None


class Velocity:
    """A velocity distribution seen from direction n, reduced to what G^2 needs.

    With c = e_d.n and e_perp = e_d - c n, the transverse part of v gives

        G^2 = b^2 |e_perp|^2 + 2 b c (e_perp.beta) + c^2 |beta_perp|^2,

    quadratic in beta. Given delta = n.beta a Gaussian has conditional mean
    mean + (delta - mu) k with k = Sigma n / (n.Sigma.n), so the conditional
    averages of e_perp.beta and |beta_perp|^2 are polynomials in delta - mu;
    their coefficients are stored here. A point mass has sigma = 0.
    """

    def __init__(self, n, mean, cov=None):
        n = np.asarray(n, dtype=float)
        mean = np.asarray(mean, dtype=float)
        cov = np.zeros((3, 3)) if cov is None else np.asarray(cov, dtype=float)
        self.n = n
        self.mu = float(n @ mean)
        s2 = float(n @ cov @ n)
        self.sigma = math.sqrt(s2)
        gain = cov @ n / s2 if s2 > 0 else np.zeros(3)
        proj = np.eye(3) - np.outer(n, n)
        self.c = float(E_D @ n)
        e_perp = proj @ E_D
        m_perp, k_perp = proj @ mean, proj @ gain
        self.a = float(e_perp @ e_perp)
        self.b0, self.b1 = float(e_perp @ m_perp), float(e_perp @ k_perp)
        t_perp = float(np.trace(proj @ (cov - s2 * np.outer(gain, gain)) @ proj))
        self.c0 = float(m_perp @ m_perp) + t_perp
        self.c1, self.c2 = float(m_perp @ k_perp), float(k_perp @ k_perp)


def distribution(cfg: dict, n) -> Velocity:
    d = cfg.get("distribution", {"kind": "point"})
    if d["kind"] == "point":
        return Velocity(n, d.get("beta", [0.0, 0.0, 0.0]))
    mean = d.get("mean", [0.0, 0.0, 0.0])
    return Velocity(n, mean, d["sigma"] ** 2 * np.eye(3))


def g2_given_delta(mdl, x, delta, vel: Velocity, eps, shift=None):
    """E[sum_lambda G^2 | n.beta = delta] at frequency x (floats or arrays)."""
    kind, recoil, mshift = mdl
    c = vel.c
    if kind == "standard":
        return (1.0 - c * c) + 0.0 * (x + delta)
    shifted = mshift if shift is None else shift
    b = 1.0 - delta + eps * x * ((1.0 if recoil else 0.0)
                                 - (2.0 if shifted and eps != 0.0 else 0.0))
    u = delta - vel.mu
    return (b * b * vel.a + 2.0 * b * c * (vel.b0 + u * vel.b1)
            + c * c * (vel.c0 + u * (2.0 * vel.c1 + u * vel.c2)))


# -- integrals ---------------------------------------------------------------

def _breaks(center, width, lo, hi):
    pts = [center + k * width for k in (-1e3, -10.0, 0.0, 10.0, 1e3)]
    return sorted(p for p in pts if lo < p < hi)


def _quad(f, lo, hi, points):
    """QUADPACK at a tolerance near rounding; the returned error estimate
    widens the check's tolerance, so a warning that the target was not
    reached needs no other handling."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(f, lo, hi, points=points or None, limit=4000,
                              epsabs=1e-300, epsrel=1e-13)


def x_integral(mdl, vel: Velocity, delta: float, eps, gt, ff, upper):
    """kappa * int_0^upper ff(x) x^3 G^2 / (D^2 + gt^2/4) dx at one delta."""
    k = kappa(gt)
    xs = float(x_star(delta, eps))
    width = gt / (2.0 * abs((1.0 - delta) + 2.0 * eps * xs))

    def f(x):
        d = 1.0 - x * (1.0 - delta) - eps * x * x
        g2 = g2_given_delta(mdl, x, delta, vel, eps)
        return k * ff(x) * x ** 3 * g2 / (d * d + 0.25 * gt * gt)

    return _quad(f, 0.0, upper, _breaks(xs, width, 0.0, upper))


def probability(mdl, vel: Velocity, eps, gt, ff, upper, gh_order=64):
    """Probability per steradian: point mass directly, Gaussian by
    Gauss-Hermite over delta of the x-integral (error from a lower order)."""
    if vel.sigma == 0.0:
        return x_integral(mdl, vel, vel.mu, eps, gt, ff, upper)

    def gh(order):
        t, w = np.polynomial.hermite.hermgauss(order)
        deltas = vel.mu + math.sqrt(2.0) * vel.sigma * t
        vals = [x_integral(mdl, vel, float(d), eps, gt, ff, upper) for d in deltas]
        return (float(np.dot(w, [v for v, _ in vals])) / math.sqrt(math.pi),
                float(np.dot(w, [e for _, e in vals])) / math.sqrt(math.pi))

    hi, hi_err = gh(gh_order)
    lo, _ = gh(gh_order // 2)
    return hi, hi_err + abs(hi - lo)


def spectrum(mdl, vel: Velocity, eps, gt, x):
    """w(x) averaged over a Gaussian packet: quad over delta per frequency."""
    out, errs = [], []
    lo, hi = vel.mu - 12.0 * vel.sigma, vel.mu + 12.0 * vel.sigma
    norm = 1.0 / (vel.sigma * math.sqrt(2.0 * math.pi))
    for xv in x:
        d0 = (xv - 1.0 + eps * xv * xv) / xv

        def f(delta, xv=xv):
            z = (delta - vel.mu) / vel.sigma
            d = 1.0 - xv * (1.0 - delta) - eps * xv * xv
            g2 = g2_given_delta(mdl, xv, delta, vel, eps)
            return norm * math.exp(-0.5 * z * z) * xv ** 3 * g2 / (d * d + 0.25 * gt * gt)

        v, e = _quad(f, lo, hi, _breaks(d0, gt / (2.0 * xv), lo, hi))
        out.append(v)
        errs.append(e)
    return np.array(out), np.array(errs)


def voigt_spectrum(vel: Velocity, eps, gt, x):
    """Standard coupling: G^2 = sin^2(theta) is velocity-free, so the average
    is exactly a Voigt profile in delta: w = (2 pi x^2 / gt) sin^2 V."""
    x = np.asarray(x, dtype=float)
    c = float(E_D @ vel.n)
    d0 = (x - 1.0 + eps * x * x) / x
    return (2.0 * np.pi * x * x / gt) * (1.0 - c * c) * special.voigt_profile(
        d0 - vel.mu, vel.sigma, gt / (2.0 * x))


def golden_pattern_value(mdl, vel: Velocity, eps, variant: str):
    """(3/8pi) E[rate] over a Gaussian packet, 1-D quad over delta."""
    shift = variant == "shifted"

    def f(delta):
        xs = float(x_star(delta, eps))
        g2 = g2_given_delta(mdl, xs, delta, vel, eps, shift=shift)
        rate = xs ** 3 * g2 / (1.0 - delta + 2.0 * eps * xs)
        z = (delta - vel.mu) / vel.sigma
        return math.exp(-0.5 * z * z) * rate / (vel.sigma * math.sqrt(2.0 * math.pi))

    lo, hi = vel.mu - 12.0 * vel.sigma, vel.mu + 12.0 * vel.sigma
    v, e = _quad(f, lo, hi, None)
    return 3.0 / (8.0 * math.pi) * v, 3.0 / (8.0 * math.pi) * e


def growth_fit(lambdas, cumulative, points):
    """Own fit of a scan's tail: (log-log slope of increments, R^2 of I vs ln L)."""
    lam = np.asarray(lambdas[-points:], dtype=float)
    cum = np.asarray(cumulative[-points:], dtype=float)
    inc = np.diff(cum)
    slope = (float(np.polyfit(np.log(lam[1:]), np.log(inc), 1)[0])
             if np.all(inc > 0) else float("nan"))
    ll = np.log(lam)
    fitted = np.polyval(np.polyfit(ll, cum, 1), ll)
    ss_tot = float(np.sum((cum - cum.mean()) ** 2))
    r2 = 1.0 - float(np.sum((cum - fitted) ** 2)) / ss_tot if ss_tot > 0 else 0.0
    return slope, r2


# -- reading outputs ---------------------------------------------------------

def read_cli(sub: str, out_dir: Path) -> dict:
    """The fields each check needs from a CLI output directory, and no more."""
    if sub == "probability":
        data = json.loads((out_dir / "probability.json").read_text())
        return {"value": data["value"]}
    if sub == "divergence":
        data = json.loads((out_dir / "divergence.json").read_text())
        keys = ("lambdas", "cumulative", "kind")
        return {"verdict": data["verdict"],
                "models": {label: {k: m[k] for k in keys}
                           for label, m in data["models"].items()}}
    if sub == "rates":
        data = json.loads((out_dir / "limit_ordering.json").read_text())
        keys = ("epsilon", "x_star", "rate_unshifted", "rate_shifted", "rel_difference",
                "growth_kind", "window_lambdas", "window_cumulative")
        return {"rate_eps0": data["rate_eps0"],
                "rows": [{k: r[k] for k in keys} for r in data["rows"]]}
    if sub == "pattern":
        rows = _csv(out_dir / "pattern.csv")
        return {"theta": [float(r["theta_rad"]) for r in rows],
                "values": [float(r["density"]) for r in rows]}
    if sub == "oracle":
        data = json.loads((out_dir / "oracle.json").read_text())
        rows = _csv(out_dir / "oracle_modes.csv")
        return {k: data[k] for k in ("rate_ratio", "l2_shape_error", "max_norm_drift")} | {
            "final_population": [float(r["final_population"]) for r in rows]}
    raise ValueError(f"no reader for {sub!r}")


def _csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- checks ------------------------------------------------------------------

def _close(value, ref, allowed):
    return abs(value - ref) <= allowed


def _same_grid(values, ref, atol: float) -> bool:
    """True when the output grid has the reference's length and values."""
    return len(values) == len(ref) and np.allclose(values, ref, rtol=0, atol=atol)


class Checker:
    """Builds each operation's reference once and checks every pass against it."""

    def __init__(self, ops):
        self.ops = {op.name: op for op in ops}
        self._refs: dict = {}

    def check(self, name: str, output: dict) -> tuple[bool, str]:
        op = self.ops[name]
        kind = op.sub if op.call == "cli" else op.call
        if name not in self._refs:
            self._refs[name] = getattr(self, f"_ref_{kind}")(op)
        return getattr(self, f"_check_{kind}")(op, output, self._refs[name])

    # spectra -------------------------------------------------------------
    def _ref_spectrum(self, op):
        cfg = op.config
        g = cfg["grid"]
        x = np.linspace(g["start"], g["stop"], g["count"])
        n = direction(cfg)
        vel = distribution(cfg, n)
        eps, gt = cfg["atom"]["epsilon"], cfg["atom"]["gamma_tilde"]
        mdl = model(cfg)
        if mdl[0] == "standard":
            return x, voigt_spectrum(vel, eps, gt, x), np.zeros_like(x)
        w, err = spectrum(mdl, vel, eps, gt, x)
        return x, w, err

    def _check_spectrum(self, op, out, ref):
        x, w_ref, err_ref = ref
        tol = op.config["tolerances"]["quadrature"]
        w = np.asarray(out["w"])
        if not _same_grid(out["x"], x, 1e-15):
            return False, "frequency grid differs from the scenario"
        allowed = 10.0 * tol * np.maximum(1.0, np.abs(w_ref)) + 10.0 * err_ref
        rel = np.abs(w - w_ref) / np.abs(w_ref)
        ok = bool(np.all(np.abs(w - w_ref) <= allowed))
        return ok, f"max rel err {rel.max():.2e} (allowed {np.max(allowed / np.abs(w_ref)):.1e})"

    def _ref_probability(self, op):
        cfg = op.config
        n = direction(cfg)
        eps, gt = cfg["atom"]["epsilon"], cfg["atom"]["gamma_tilde"]
        ff, upper = formfactor(cfg)
        if cfg.get("probability", {}).get("upper_limit") is not None:
            upper = min(upper, cfg["probability"]["upper_limit"])
        mdl = model(cfg)
        if cfg["distribution"]["kind"] == "tabulated":
            table = op.table
            weights = table[:, 1] / table[:, 1].sum()
            total, total_err = 0.0, 0.0
            for delta, wt in zip(table[:, 0], weights):
                v, e = x_integral(mdl, Velocity(n, delta * n), float(delta), eps, gt, ff, upper)
                total += wt * v
                total_err += wt * e
            return total, total_err
        return probability(mdl, distribution(cfg, n), eps, gt, ff, upper)

    def _check_probability(self, op, out, ref):
        value_ref, err_ref = ref
        tol = op.config.get("tolerances", {}).get("quadrature", 1e-9)
        allowed = 10.0 * tol * max(1.0, abs(value_ref)) + 10.0 * err_ref
        diff = abs(out["value"] - value_ref)
        return diff <= allowed, (f"value {out['value']:.12e} vs {value_ref:.12e}: "
                                 f"rel err {diff / abs(value_ref):.2e} "
                                 f"(allowed abs {allowed:.1e})")

    def _ref_divergence(self, op):
        cfg = op.config
        n = direction(cfg)
        vel = distribution(cfg, n)
        eps, gt = cfg["atom"]["epsilon"], cfg["atom"]["gamma_tilde"]
        s = cfg["scan"]
        lambdas = np.geomspace(s["lambda_min"], s["lambda_max"], s["points"])
        ends = {}
        for label, mdl in MODELS.items():
            ends[label] = [probability(mdl, vel, eps, gt, lambda x: 1.0, float(lam))
                           for lam in (lambdas[0], lambdas[-1])]
        return lambdas, ends

    def _check_divergence(self, op, out, ref):
        lambdas, ends = ref
        tol = op.config["tolerances"]["quadrature"]
        notes, ok = [], True
        missing = sorted(set(MODELS) - set(out["models"]))
        if missing:
            return False, f"coupling models missing from the output: {missing}"
        for label in MODELS:
            m = out["models"][label]
            if not (len(m["lambdas"]) == len(lambdas) and len(m["cumulative"]) == len(lambdas)
                    and np.allclose(m["lambdas"], lambdas, rtol=1e-14, atol=0)):
                return False, f"{label}: cutoff ladder differs from the scenario"
            for (val_ref, err_ref), idx in zip(ends[label], (0, len(lambdas) - 1)):
                allowed = 10.0 * tol * (idx + 1 + abs(val_ref)) + 10.0 * err_ref
                if not _close(m["cumulative"][idx], val_ref, allowed):
                    ok = False
                    notes.append(f"{label} I({lambdas[idx]:.3g}) off by "
                                 f"{abs(m['cumulative'][idx] - val_ref):.2e}")
            slope, r2 = growth_fit(m["lambdas"], m["cumulative"], GROWTH_FIT_POINTS)
            if label == "standard":
                good = m["kind"] == "logarithmic" and r2 > 0.999
                notes.append(f"{label} log R^2 {r2:.6f}")
            else:
                good = m["kind"] == "power" and abs(slope - 2.0) <= 0.10
                notes.append(f"{label} exponent {slope:.3f}")
            ok = ok and good
        verdict = out["verdict"] or ""
        ok = ok and "strictly more divergent" in verdict
        return ok, "; ".join(notes)

    def _ref_pattern(self, op):
        cfg = op.config
        pat = cfg["pattern"]
        theta = np.linspace(0.0, math.pi, pat["theta_points"])
        eps, gt = cfg["atom"]["epsilon"], cfg["atom"]["gamma_tilde"]
        mdl = model(cfg)
        vals, errs = [], []
        for t in theta:
            n = np.array([math.sin(t), 0.0, math.cos(t)])
            vel = distribution(cfg, n)
            if pat["mode"] == "golden_rule":
                v, e = golden_pattern_value(mdl, vel, eps, pat.get("variant", "shifted"))
            else:
                ff, upper = formfactor(cfg)
                v, e = probability(mdl, vel, eps, gt, ff, upper)
            vals.append(v)
            errs.append(e)
        return theta, np.array(vals), np.array(errs)

    def _check_pattern(self, op, out, ref):
        theta, v_ref, err_ref = ref
        values = np.asarray(out["values"])
        if not _same_grid(out["theta"], theta, 1e-15):
            return False, "theta grid differs from the scenario"
        scale = float(np.max(np.abs(v_ref)))
        if op.config["pattern"]["mode"] == "golden_rule":
            # 40-node tensor Gauss-Hermite on a polynomial-like rate: near exact
            allowed = 1e-10 * scale + 10.0 * err_ref
            sym = float(np.max(np.abs(values - values[::-1])))
            ok = bool(np.all(np.abs(values - v_ref) <= allowed)) and sym <= 1e-12 * scale
            extra = f"; theta <-> pi-theta asymmetry {sym / scale:.1e} (allowed 1e-12)"
        else:
            tol = op.config["tolerances"]["quadrature"]
            allowed = 10.0 * tol * np.maximum(1.0, np.abs(v_ref)) + 10.0 * err_ref
            ok = bool(np.all(np.abs(values - v_ref) <= allowed))
            extra = ""
        dev = float(np.max(np.abs(values - v_ref))) / scale
        return ok, f"max deviation {dev:.2e} of the pattern maximum{extra}"

    # rates ---------------------------------------------------------------
    def _ref_rates(self, op):
        cfg = op.config
        eps_list = cfg["limit_ordering"]["epsilons"]
        gt = cfg["atom"]["gamma_tilde"]
        rows = []
        rest = Velocity(np.array([1.0, 0.0, 0.0]), [0.0, 0.0, 0.0])
        for eps in eps_list:
            xs = float(x_star(0.0, eps))
            # at rest, perpendicular: G^2 = b^2 with b = 1 -/+ eps x*
            shifted = xs ** 3 * (1.0 - eps * xs) ** 2 / (1.0 + 2.0 * eps * xs)
            unshifted = xs ** 3 * (1.0 + eps * xs) ** 2 / (1.0 + 2.0 * eps * xs)
            w = cfg["limit_ordering"]["window"]
            lam = np.geomspace(w[0] / eps, w[1] / eps, cfg["limit_ordering"]["window_points"])
            ends = [x_integral(MODELS["roentgen"], rest, 0.0, eps, gt, lambda x: 1.0, float(L))
                    for L in (lam[0], lam[-1])]
            rows.append({"epsilon": eps, "x_star": xs, "shifted": shifted,
                         "unshifted": unshifted, "lambdas": lam, "ends": ends})
        return rows

    def _check_rates(self, op, out, ref):
        tol = op.config["tolerances"]["quadrature"]
        if len(out["rows"]) != len(ref):
            return False, f"{len(out['rows'])} epsilon rows, expected {len(ref)}"
        notes, ok = [], abs(out["rate_eps0"] - 1.0) <= 1e-12
        rel = []
        for row, r in zip(out["rows"], ref):
            if abs(row["epsilon"] - r["epsilon"]) > 1e-12 * r["epsilon"]:
                return False, f"epsilon row {row['epsilon']!r}, expected {r['epsilon']!r}"
            if not (len(row["window_lambdas"]) == len(r["lambdas"])
                    and len(row["window_cumulative"]) == len(r["lambdas"])
                    and np.allclose(row["window_lambdas"], r["lambdas"], rtol=1e-12, atol=0)):
                return False, f"eps {row['epsilon']:.0e}: cutoff window differs from the scenario"
            for key in ("x_star", "rate_shifted", "rate_unshifted"):
                want = r[key.replace("rate_", "")]
                if abs(row[key] - want) > 1e-12 * abs(want):
                    ok = False
                    notes.append(f"eps {row['epsilon']:.0e} {key} {row[key]!r} vs {want!r}")
            rel.append(abs(r["shifted"] - r["unshifted"]) / r["unshifted"])
            if abs(row["rel_difference"] - rel[-1]) > 1e-9 * rel[-1]:
                ok = False
            for (val, err), idx in zip(r["ends"], (0, len(r["lambdas"]) - 1)):
                allowed = 10.0 * tol * (idx + 1 + abs(val)) + 10.0 * err
                if not _close(row["window_cumulative"][idx], val, allowed):
                    ok = False
                    notes.append(f"eps {row['epsilon']:.0e} window I off by "
                                 f"{abs(row['window_cumulative'][idx] - val):.2e}")
            slope, _ = growth_fit(row["window_lambdas"], row["window_cumulative"],
                                  len(row["window_lambdas"]))
            ok = ok and row["growth_kind"] == "power" and abs(slope - 2.0) <= 0.15
            notes.append(f"eps {row['epsilon']:.0e} exponent {slope:.3f}")
        ratios = [rel[i] / rel[i + 1] for i in range(len(rel) - 1)]
        ok = ok and all(abs(q - 10.0) <= 2.0 for q in ratios)
        notes.append("split ratios " + ", ".join(f"{q:.2f}" for q in ratios))
        return ok, "; ".join(notes)

    # oracle --------------------------------------------------------------
    def _ref_oracle(self, op):
        o = dict({"delta": 0.0, "epsilon": 0.0}, **op.config["oracle"])
        if o["modes"] > 201:
            return None
        # the flat band as documented in amplitudes.flat_band_system
        om = 1.0 - o["delta"]
        center = 2.0 / (om + math.sqrt(om * om + 4.0 * o["epsilon"]))
        x = np.linspace(center - o["half_width"], center + o["half_width"], o["modes"])
        g = math.sqrt(o["gamma_eff"] * (x[1] - x[0]) / (2.0 * math.pi))
        det = 1.0 - x * (1.0 - o["delta"]) - o["epsilon"] * x * x
        size = o["modes"] + 1
        gen = np.zeros((size, size), dtype=complex)
        gen[0, 1:] = -g
        gen[1:, 0] = g
        gen[np.arange(1, size), np.arange(1, size)] = 1j * det
        steps = math.ceil(o["lifetimes"] / o["gamma_eff"] / o["time_step"])
        state = linalg.expm(gen * (steps * o["time_step"]))[:, 0]
        return np.abs(state[1:]) ** 2

    def _check_oracle(self, op, out, ref):
        ok = out["max_norm_drift"] <= 1e-6
        detail = f"norm drift {out['max_norm_drift']:.1e}"
        if ref is None:  # a quasi-continuum band: ACC-06 thresholds
            ok = (ok and abs(out["rate_ratio"] - 1.0) <= 0.05
                  and out["l2_shape_error"] <= 0.03)
            return ok, (f"rate ratio {out['rate_ratio']:.4f}; line-shape L2 "
                        f"{out['l2_shape_error']:.4f}; {detail}")
        pops = np.asarray(out["final_population"])
        if pops.shape != ref.shape:
            return False, f"{pops.size} mode populations, expected {ref.size}"
        dev = float(np.max(np.abs(pops - ref))) / float(np.max(ref))
        return ok and dev <= 1e-6, f"final populations vs expm: {dev:.1e} of the peak; {detail}"
