"""The benchmark's tracer wraps library names that exist and puts them back."""

import importlib.util
import os
import subprocess
import sys
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


def test_tracer_installs_from_a_fresh_interpreter():
    # inside pytest other tests have imported every module already; a fresh
    # interpreter that imports only the package shows what the lazy package
    # itself gives the tracer
    script = (
        "import importlib.util, sys, stochastica\n"
        "spec = importlib.util.spec_from_file_location('tracer', sys.argv[1])\n"
        "tr = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tr)\n"
        "tracer = tr.Tracer()\n"
        "tr.install(tracer)\n"
        "swapped = list(tracer._undo)\n"
        "assert all(o.__dict__[a] is not f for o, a, f in swapped)\n"
        "tracer.restore()\n"
        "assert all(o.__dict__[a] is f for o, a, f in swapped)\n"
        "print(len(swapped))\n")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, str(ROOT / "benchmark" / "tracer.py")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "27"
