"""Spans around the public functions of each movingatom module (traced runs only).

``Tracer.install`` replaces each function listed in ``WRAPPED`` by a wrapper
that records one span (name, start, end, parent) and the work counts of the
call. Modules import several of these functions by name (``spectra`` takes
``spectral_kernel`` and ``expectation``, ``cli`` takes ``load_config``), so
every loaded ``movingatom`` module attribute bound to an original function is
rebound as well. Integrands handed to ``integrate_adaptive`` and
``expectation`` are wrapped too, so quadrature self time excludes the time
spent inside them; their spans belong to the layer that called the
quadrature. ``uninstall`` restores every binding.

A span's self time is its duration minus its children's durations; a
layer's self time is the sum over its spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = ("cli", "config", "spectra", "wavepacket", "quadrature", "amplitudes",
          "coupling", "rates")

WRAPPED = {
    "cli": ("main",),
    "config": ("load_config",),
    "spectra": ("directional_spectrum", "directional_probability",
                "divergence_comparison", "angular_pattern"),
    "wavepacket": ("expectation", "project"),
    "quadrature": ("integrate_adaptive", "cutoff_scan", "classify_tail"),
    "amplitudes": ("spectral_kernel", "perpendicular_kernel",
                   "discrete_mode_evolution", "compare_to_pole"),
    "coupling": ("polarization_sum",),
    "rates": ("golden_rule_rates", "limit_ordering_demo"),
}


def _size(a) -> int:
    """Element count of a numpy result (1 for a scalar)."""
    return int(getattr(a, "size", 1))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, child seconds)
        self._stack: list[list] = []
        self._next_id = 0
        self._depth: dict[str, int] = defaultdict(int)
        self.inclusive = defaultdict(float)  # outermost spans of each name
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.passes = 0
        self._saved: list[tuple] = []
        self._first_pass_end = None

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, name, parent, 0.0, 0.0]  # id, name, parent, child s, start
        self._next_id += 1
        self._stack.append(frame)
        self._depth[name] += 1
        frame[4] = time.perf_counter()
        return frame

    def _close(self, frame: list, layer: str) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, parent, child, start = frame
        dur = end - start
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.inclusive[name] += dur
        if self._stack:
            self._stack[-1][3] += dur
        self.self_s[layer] += dur - child
        self.spans.append((span_id, name, start, end, parent, child))

    def _caller_layer(self) -> str:
        for frame in reversed(self._stack):
            layer = frame[1].split(".", 1)[0]
            if layer not in ("quadrature", "wavepacket"):
                return layer
        return "bench"

    def _wrap_integrand(self, f, counter: str | None):
        name = self._caller_layer() + ".integrand"
        layer = name.split(".", 1)[0]

        def integrand(arg):
            frame = self._open(name)
            try:
                return f(arg)
            finally:
                self._close(frame, layer)
                if counter is not None:
                    self.counts[counter] += int(arg.shape[0])
        return integrand

    # -- wrappers ----------------------------------------------------------
    def _wrapper(self, layer: str, fname: str, fn):
        name = f"{layer}.{fname}"
        counts = self.counts
        tracer = self

        def post(result):
            if fname == "integrate_adaptive":
                counts["quadrature.adaptive_calls"] += 1
                counts["quadrature.evals"] += result.evaluations
                counts["quadrature.unconverged"] += int(not result.converged)
            elif fname == "cutoff_scan":
                counts["quadrature.scan_segments"] += _size(result.lambdas)
            elif fname == "expectation":
                counts["wavepacket.expectation_calls"] += 1
            elif fname == "project":
                counts["wavepacket.project_calls"] += 1
            elif fname in ("spectral_kernel", "perpendicular_kernel"):
                counts["amplitudes.kernel_calls"] += 1
                counts["amplitudes.kernel_points"] += _size(result)
            elif fname == "golden_rule_rates":
                counts["rates.golden_rule_points"] += _size(result)
            elif fname == "discrete_mode_evolution":
                counts["amplitudes.evolution_steps"] += result.steps
                counts["amplitudes.mode_steps"] += result.steps * (result.final_state.size - 1)

        def wrapper(*args, **kwargs):
            if fname == "integrate_adaptive":
                args = (tracer._wrap_integrand(args[0], None),) + args[1:]
            elif fname == "expectation":
                args = (args[0], tracer._wrap_integrand(args[1], "wavepacket.nodes")) + args[2:]
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, layer)
            post(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "movingatom" or name.startswith("movingatom.")}
        originals = {}
        for layer, names in WRAPPED.items():
            mod = mods.get(f"movingatom.{layer}")
            if mod is None:  # never imported, so never called (cli on doppler)
                continue
            for fname in names:
                fn = getattr(mod, fname)
                originals[id(fn)] = (fn, self._wrapper(layer, fname, fn))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in self._saved:
            setattr(mod, attr, value)
        self._saved.clear()

    def end_pass(self) -> None:
        self.passes += 1
        if self._first_pass_end is None:
            self._first_pass_end = len(self.spans)

    def write_spans(self, path) -> None:
        """Spans of the first traced pass, one line each."""
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for span_id, name, start, end, parent, _ in self.spans[:self._first_pass_end]:
                fh.write(f"{span_id},{name},{start!r},{end!r},{parent}\n")

    def summary(self) -> dict:
        """Per-pass layer metrics: totals over the traced passes divided by their number."""
        k = float(max(self.passes, 1))
        inc = {name: s / k for name, s in self.inclusive.items()}
        cnt = {name: c / k for name, c in self.counts.items()}

        def s(name):
            return inc.get(name, 0.0)

        def c(name):
            return cnt.get(name, 0.0)

        kernel_s = s("amplitudes.spectral_kernel") + s("amplitudes.perpendicular_kernel")
        panels = c("quadrature.evals") / 15.0
        adaptive_self = self._self_of("quadrature.integrate_adaptive") / k
        evolution_s = s("amplitudes.discrete_mode_evolution")
        out = {
            "quadrature.adaptive_calls": c("quadrature.adaptive_calls"),
            "quadrature.evals": c("quadrature.evals"),
            "quadrature.adaptive_s": s("quadrature.integrate_adaptive"),
            "quadrature.adaptive_self_s": adaptive_self,
            "quadrature.self_us_per_panel": 1e6 * adaptive_self / panels if panels else 0.0,
            "quadrature.unconverged": c("quadrature.unconverged"),
            "quadrature.scan_segments": c("quadrature.scan_segments"),
            "wavepacket.expectation_calls": c("wavepacket.expectation_calls"),
            "wavepacket.expectation_s": s("wavepacket.expectation"),
            "wavepacket.nodes": c("wavepacket.nodes"),
            "wavepacket.project_calls": c("wavepacket.project_calls"),
            "amplitudes.kernel_calls": c("amplitudes.kernel_calls"),
            "amplitudes.kernel_points": c("amplitudes.kernel_points"),
            "amplitudes.kernel_s": kernel_s,
            "amplitudes.kernel_mpts_per_s": (c("amplitudes.kernel_points") / kernel_s / 1e6
                                             if kernel_s else 0.0),
            "coupling.polarization_sum_s": s("coupling.polarization_sum"),
            "rates.golden_rule_points": c("rates.golden_rule_points"),
            "rates.golden_rule_s": s("rates.golden_rule_rates"),
            "rates.limit_ordering_s": s("rates.limit_ordering_demo"),
            "spectra.spectrum_s": s("spectra.directional_spectrum"),
            "spectra.probability_s": s("spectra.directional_probability"),
            "spectra.divergence_s": s("spectra.divergence_comparison"),
            "spectra.pattern_s": s("spectra.angular_pattern"),
            "amplitudes.evolution_s": evolution_s,
            "amplitudes.evolution_steps": c("amplitudes.evolution_steps"),
            "amplitudes.mode_steps_per_s": (c("amplitudes.mode_steps") / evolution_s
                                            if evolution_s else 0.0),
            "amplitudes.compare_s": s("amplitudes.compare_to_pole"),
            "cli.main_s": s("cli.main"),
            "trace.spans": len(self.spans) / k,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0) / k
        return out

    def _self_of(self, name: str) -> float:
        """Summed self time of every span with this name."""
        return sum(end - start - child for _, sname, start, end, _, child in self.spans
                   if sname == name)
