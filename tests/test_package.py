"""The package loads its modules lazily and exports exactly its public names."""

import os
import subprocess
import sys

import stochastica


def _fresh(script: str) -> str:
    # a new interpreter, which has imported nothing of the package yet
    src = os.path.dirname(os.path.dirname(stochastica.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_submodule_and_no_numpy():
    loaded = _fresh(
        "import sys, stochastica\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('stochastica.') or m.split('.')[0] == 'numpy'))\n")
    assert loaded == "[]"


def test_all_lists_the_public_names_and_no_module():
    # __all__ used to be every name of the namespace, the nine submodules among them
    count = _fresh(
        "import types, stochastica\n"
        "names = stochastica.__all__\n"
        "assert set(names) <= set(dir(stochastica)), set(names) - set(dir(stochastica))\n"
        "values = [getattr(stochastica, name) for name in names]\n"
        "assert not [n for n, v in zip(names, values) if isinstance(v, types.ModuleType)]\n"
        "star = {}\n"
        "exec('from stochastica import *', star)\n"
        "assert not [n for n, v in star.items() if isinstance(v, types.ModuleType)]\n"
        "print(len(names))\n")
    assert int(count) == len(set(stochastica.__all__)) > 70


def test_names_and_submodules_resolve_to_their_modules():
    assert _fresh(
        "import stochastica\n"
        "from stochastica import pv_mc, noise\n"
        "assert pv_mc is stochastica.pricing.pv_mc and noise is stochastica.noise\n"
        "assert stochastica.cli.simulate_paths is stochastica.simulate_paths\n"
        "try:\n"
        "    stochastica.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n") == "module 'stochastica' has no attribute 'no_such_name'"
