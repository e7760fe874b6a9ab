"""Self-test of the benchmark at minimal sizes.

    python3 benchmark/selftest.py

For each workload: a plain run prints every end-to-end metric of
BENCHMARK.json and every workload metric of benchmark/README.md with its
unit, and no operation fails; two traced runs print every per-layer
metric, and their exact counts agree.  Last, the benchmark must refuse
to run in a directory that holds only the benchmark itself.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

OWN_METRICS = {
    "mc_grid": {"path_steps_per_s": "1/s", "mc_rel_se": "ratio"},
    "grid_solvers": {"node_steps_per_s": "1/s", "price_max_rel_err": "ratio",
                     "density_max_l1": "ratio"},
    "cli_session": {"cli_call_p50_s": "s", "cli_call_samples": "count"},
}
# per-layer figures that count work rather than time it
EXACT_UNITS = ("count", "bytes")
EXACT_RATIOS = ("pricing.pv_mc.distinct_path_share", "pathintegral.kernel_builds_per_step")


def run(workload: str, trace: int, cwd: str = ROOT, script: str = RUN):
    done = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return done


def table(stdout: str) -> dict:
    """name -> (value, unit) from the readable lines before the JSON line."""
    rows = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("#"):
            rows[parts[0]] = (float(parts[1]), parts[2])
    return rows


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for name in OWN_METRICS:       # every workload, listed in BENCHMARK.json or not
        done = run(name, 0)
        check(done.returncode == 0, f"{name} exited {done.returncode}:\n{done.stderr}")
        result = json.loads(done.stdout.splitlines()[-1])
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              f"{name}: result keys {sorted(result)}")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              f"{name}: {result['failed']} of {result['attempted']} operations failed")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == end_to_end, f"{name}: end-to-end metrics {got}")
        check(all(v["value"] > 0 for v in result["metrics"].values()),
              f"{name}: a zero end-to-end metric")
        rows = table(done.stdout)
        for metric, unit in dict(OWN_METRICS[name], fail_share="ratio").items():
            check(rows.get(metric, (None, None))[1] == unit,
                  f"{name}: {metric} not printed with unit {unit}")
        check(rows["fail_share"][0] == 0.0, f"{name}: fail_share {rows['fail_share'][0]}")

        traced = []
        for _ in range(2):
            done = run(name, 1)
            check(done.returncode == 0, f"{name} traced exited {done.returncode}:\n"
                                        f"{done.stderr}")
            result = json.loads(done.stdout.splitlines()[-1])
            check(result["correct"], f"{name}: traced run failed an operation")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == per_layer, f"{name}: per-layer metrics {sorted(got)}")
            traced.append({k: v["value"] for k, v in result["metrics"].items()})
        exact = [k for k, unit in per_layer.items()
                 if unit in EXACT_UNITS or k in EXACT_RATIOS]
        differ = [k for k in exact if traced[0][k] != traced[1][k]]
        check(not differ, f"{name}: counts differ between traced runs: {differ}")
        print(f"{name}: ok ({len(end_to_end)} end-to-end, {len(per_layer)} per-layer, "
              f"{len(exact)} exact counts repeat)")

    # a directory with only the benchmark in it has no library to measure
    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = run("mc_grid", 0, cwd=bare,
               script=os.path.join(bare, os.path.basename(HERE), "run.py"))
    shutil.rmtree(bare)
    check(done.returncode != 0 and "correct" not in done.stdout,
          "the benchmark ran without the library source")
    print("bare directory: refused")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
