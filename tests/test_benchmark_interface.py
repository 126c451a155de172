"""The names movbench reaches into must keep resolving.

movbench/tracer.py wraps the functions listed in its WRAPPED table by name,
and movbench/worker.py passes `max_panels=` to two library calls and reads
fields of the loaded `ScenarioConfig`. The tracer is loaded read-only from
its file (no bytecode written next to it); the worker is only read as text.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

from movingatom import spectra
from movingatom.config import ScenarioConfig

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


def test_scenario_config_has_every_field_the_worker_reads():
    # read as text: nothing is imported from, or written next to, movbench/worker.py
    source = (TRACER.parent / "worker.py").read_text()
    read = set(re.findall(r"\bcfg\.(\w+)", source))
    fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    assert read, "movbench/worker.py no longer reads any cfg.<field>"
    assert read <= fields, f"ScenarioConfig lacks {sorted(read - fields)}"
