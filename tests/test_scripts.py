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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout
