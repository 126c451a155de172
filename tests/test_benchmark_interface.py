"""The names movbench reaches into must keep resolving.

movbench/tracer.py wraps the functions listed in its WRAPPED table by name,
and movbench/worker.py passes `max_panels=` to two library calls. The tracer
is loaded read-only from its file (no bytecode written next to it).
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from movingatom import spectra

TRACER = Path(__file__).resolve().parents[1] / "movbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("movbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_wrapped_name_resolves():
    wrapped = _load_tracer().WRAPPED
    missing = [f"{layer}.{name}" for layer, names in wrapped.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"movingatom.{layer}"), name, None))]
    assert not missing, f"movbench/tracer.py wraps names that no longer exist: {missing}"


def test_worker_keyword_arguments_are_accepted():
    for fn in (spectra.directional_probability, spectra.divergence_comparison):
        assert "max_panels" in inspect.signature(fn).parameters, fn.__name__
