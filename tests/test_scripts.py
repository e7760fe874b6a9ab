"""The scripts in scripts/ run end to end at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, header", [
    (["pricing_table.py", "--paths", "2000", "--strikes", "100",
      "--sigmas", "0.2", "--horizons", "1"], "analytic"),
    (["density_convergence.py", "--levels", "1"], "L1 lattice"),
    (["step_scaling.py", "--paths", "2000"], "step refinement"),
])
def test_script_runs_and_prints_its_table(argv, header):
    proc = _run(argv)
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout


def test_output_digest_repeats_itself_byte_for_byte():
    first, second = _run(["output_digest.py"]), _run(["output_digest.py"])
    assert first.returncode == 0, first.stderr
    assert len(first.stdout.splitlines()) == 6  # one line per route
    assert second.stdout == first.stdout


def test_cli_digest_repeats_itself_byte_for_byte():
    first, second = _run(["cli_digest.py", "1"]), _run(["cli_digest.py", "1"])
    assert first.returncode == 0, first.stderr
    assert len(first.stdout.splitlines()) == 8  # one line per cli_session call
    assert second.stdout == first.stdout


def _run(argv):
    """A script of scripts/ in a fresh interpreter, on this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=300)
