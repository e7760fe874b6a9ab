"""The benchmark's tracer wraps library names that exist and puts them back."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer",
                                                  ROOT / "benchmark" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_library_names_and_restore_puts_back_each_original():
    # a traced benchmark run swaps these attributes by name, so renaming or
    # dropping one of them in the library fails here as well
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        swapped = list(tracer._undo)
        assert swapped
        for owner, attr, original in swapped:
            assert owner.__dict__[attr] is not original, (owner, attr)
    finally:
        tracer.restore()
    for owner, attr, original in swapped:
        assert owner.__dict__[attr] is original, (owner, attr)
