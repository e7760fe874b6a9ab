"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload mc_grid --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout: the library is imported from
the checkout's ``src/`` and nowhere else.  With ``--trace 0`` the run
repeats passes of the workload until ``--seconds`` have gone by and
reports the end-to-end metrics; with ``--trace 1`` it makes a traced
pass between two plain ones and reports the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Lines before it are a readable table, the machine description and the
metrics named in benchmark/README.md that the JSON line does not carry.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracer as tr
from workloads import WORKLOADS, CliSession, Op

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
SETUP_PROBES = 5          # fresh interpreters timed for setup_s
IMPORT_PROBES = 3         # `-X importtime` runs for the import.* metrics
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
              "STOCHASTICA_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="minimal sizes, for benchmark/selftest.py")
    p.add_argument("--setup-probe", action="store_true",
                   help="import the library, build the inputs and exit")
    return p.parse_args(argv)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "STOCHASTICA_THREADS"}
    env["PYTHONPATH"] = SRC
    return env


def machine(thread_env: dict) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "thread_env": thread_env}


def time_setup(args) -> list[float]:
    """Wall time of fresh interpreters that import and build the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--small"] if args.small else [])
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, env=child_env(), check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def import_profile() -> dict:
    """Median cumulative import seconds per module over IMPORT_PROBES runs."""
    runs = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import stochastica"],
                              env=child_env(), check=True, capture_output=True, text=True)
        runs.append(tr.import_times(done.stderr))
    return {f"import.{mod}.s": (statistics.median(r.get(mod, 0.0) for r in runs), "s")
            for mod in tr.IMPORTS}


class Calibration:
    """The workload's calibration kernel, timed between passes.

    On a shared host the speed of the machine drifts by tens of percent
    over minutes.  Each workload has a fixed kernel made of the same kinds
    of work it does, using nothing from the library, so no change to the
    library can move it.  Timings are reported in calibrated seconds: the
    measured seconds times the kernel's reference time (wl.cal_ref_s) over
    its median time in the same run.
    """

    def __init__(self, wl):
        self.wl = wl
        self.samples = []

    def sample(self) -> None:
        self.samples.append(self.wl.calibrate())

    @property
    def scale(self) -> float:
        return self.wl.cal_ref_s / statistics.median(self.samples)


def wall(ops: list[Op]) -> float:
    return sum(o.seconds for o in ops)


def pass_wall(passes: list[list[Op]]) -> float:
    """Wall time of one pass: each operation's median over the passes, summed.

    Per-operation medians keep a stall in one pass from moving the figure.
    """
    return sum(statistics.median(op.seconds for op in same) for same in zip(*passes))


def timed_run(args, wl, inputs) -> tuple[list[list[Op]], dict, dict]:
    """Passes until --seconds have gone by.

    Returns the passes, the end-to-end metrics and the measured values
    behind the calibrated ones.
    """
    setup = time_setup(args)
    cal = Calibration(wl)
    cal.sample()
    passes, reference = [], {}
    start = time.perf_counter()
    while True:
        if isinstance(wl, CliSession):
            ops = wl.run_pass(inputs, child_env(), reference)
        else:
            ops = wl.run_pass(inputs)
        passes.append(ops)
        cal.sample()
        elapsed = time.perf_counter() - start
        # start another pass only if it would end within half a pass of the
        # deadline, so the number of passes is the nearest whole number
        if elapsed + 0.5 * elapsed / len(passes) > args.seconds:
            break
    if isinstance(wl, CliSession):
        # the largest call, per call the median over passes: the peak of
        # the call that builds a 28 MB string also depends on where the
        # allocator places it
        rss = max(statistics.median(o.info["rss_mb"] for o in same) for same in zip(*passes))
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # set-up is interpreter start and import, which the kernels do not
    # track (calibrated, it spread more than measured): it stays in seconds
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (pass_wall(passes) * cal.scale, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = {"wall_s.measured": (pass_wall(passes), "s"),
             "calibration_s": (statistics.median(cal.samples), "s")}
    notes["speed_scale"] = (cal.scale, "ratio")
    return passes, metrics, notes


def traced_run(args, wl, inputs) -> tuple[list[list[Op]], dict, dict]:
    """A traced pass between two plain ones; the per-layer metrics.

    The plain passes bracket the traced one so that a machine whose speed
    drifts over the run moves both sides of trace_overhead alike.
    """
    cli = isinstance(wl, CliSession)
    reference = {}

    def plain():
        return wl.run_inprocess(inputs, reference) if cli else wl.run_pass(inputs)

    before = plain()
    tracer = tr.Tracer()
    tr.install(tracer)
    try:
        traced = (wl.run_inprocess(inputs, reference, tracer) if cli
                  else wl.run_pass(inputs))
    finally:
        tracer.restore()
    after = plain()
    tracer.dump(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json"))
    metrics = tr.layer_metrics(tracer)
    metrics["cli.output_bytes"] = (sum(o.info.get("bytes", 0) for o in traced), "bytes")
    metrics.update(import_profile())
    untraced = 0.5 * (wall(before) + wall(after))
    metrics["trace_overhead"] = (wall(traced) / untraced - 1.0, "ratio")
    return [before, traced, after], metrics, {}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stochastica", "__init__.py")):
        print(f"error: no library source under {SRC}; run inside a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    thread_env = {k: os.environ[k] for k in THREAD_ENV if k in os.environ}
    os.environ.pop("STOCHASTICA_THREADS", None)   # the library default applies
    os.makedirs(WORK, exist_ok=True)

    wl = WORKLOADS[args.workload](args.small)
    if args.setup_probe:
        import stochastica  # noqa: F401  (the import is what is being timed)
        wl.build(args.seed, WORK)
        return 0

    inputs = wl.build(args.seed, WORK)
    run = traced_run if args.trace else timed_run
    passes, metrics, notes = run(args, wl, inputs)
    if isinstance(wl, CliSession):      # ~50 MB of outputs per seed
        shutil.rmtree(os.path.dirname(inputs[0].out))
    ops = [o for p in passes for o in p]
    failed = sum(not o.ok for o in ops)

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  operations {len(ops)}")
    print("# env " + json.dumps(machine(thread_env), sort_keys=True))
    if not args.trace:
        for name, (value, unit) in wl.metrics(passes, pass_wall(passes)).items():
            print(f"{name:<44} {value:>16.6g} {unit}")
        print(f"{'fail_share':<44} {failed / len(ops):>16.6g} ratio  "
              f"({failed} of {len(ops)} operations)")
    for name, (value, unit) in {**metrics, **notes}.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    for o in ops:
        if not o.ok:
            print(f"# FAILED {o.name}: measure {o.measure:.6g} {o.info.get('error', '')}")

    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != declared:
        print(f"error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(got.items()) ^ set(declared.items()))}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": {n: {"value": metrics[n][0], "unit": u}
                                  for n, u in declared.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
