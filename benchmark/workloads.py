"""The three benchmark workloads: inputs from a seed, one pass, checks.

Each workload is a closed loop with one client: operations run back to
back in one process (mc_grid, grid_solvers) or as one `stochastica`
process after another (cli_session).  An operation fails when it raises
or when its result misses the bound against the closed forms in
reference.py.  The library is always reached through module attributes
(``pricing.pv_mc`` and so on), so a traced run sees every call.  Each
workload also has a calibration kernel of its own kinds of work, built
without the library, against which run.py calibrates wall time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import reference as ref

S0, RATE = 100.0, 0.05
STRIKES = (80.0, 100.0, 120.0)
SIGMAS = (0.1, 0.2, 0.4)
HORIZONS = (0.25, 1.0, 2.0)
LADDER = ((401, 100), (801, 200), (1601, 400))

MC_Z_LIMIT = 4.0
PRICE_REL_LIMIT = 1e-3
DENSITY_L1_LIMIT = 5e-3


@dataclass
class Op:
    """One timed operation of a pass and the outcome of its check."""

    name: str
    seconds: float = 0.0
    ok: bool = False
    work: int = 0            # path-steps or node-steps done
    measure: float = 0.0     # z-score, relative error or L1 distance
    info: dict = field(default_factory=dict)


def _timed(op: Op, call):
    """Run call() as op's timed part; a raise marks the op failed."""
    start = time.perf_counter()
    try:
        return call()
    except Exception:
        op.ok = False
        op.info["error"] = traceback.format_exc(limit=3)
        print(f"operation {op.name} raised:\n{op.info['error']}", file=sys.stderr)
        return None
    finally:
        op.seconds = time.perf_counter() - start


def _rel(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


# ---------------------------------------------------------------------------
# mc_grid: criterion 01's call grid on the Euler route, scaled down


@dataclass
class McCell:
    K: float
    sigma: float
    T: float
    seed: int
    model: object
    payoff: object
    exact: float


class McGrid:
    name = "mc_grid"
    cal_ref_s = 0.022      # calibrate() on the baseline host, quiet period

    def __init__(self, small: bool):
        # small: one (sigma, T) pair, fewer paths and steps (self-test only)
        self.n_paths = 16384 if small else 131072
        self.steps = 16 if small else 64
        self.grid = ((0.2, 1.0),) if small else tuple(
            (s, T) for s in SIGMAS for T in HORIZONS)

    def calibrate(self) -> float:
        """Seconds of a fixed Philox + ndtri + Euler-step kernel (median of 5)."""
        import numpy as np
        from numpy.random import Philox
        from scipy.special import ndtri

        def kernel() -> float:
            start = time.perf_counter()
            x = np.full(1 << 16, S0)
            for step in range(8):
                raw = Philox(key=step).random_raw(1 << 16)
                u = ((raw >> np.uint64(11)) + 0.5) * 2.0 ** -53
                x = x + RATE * x / 64 + 0.025 * x * ndtri(u)
            return time.perf_counter() - start

        return statistics.median(kernel() for _ in range(5))

    def build(self, seed: int, workdir: str):
        from stochastica import models, portfolio, pricing

        rng = random.Random(seed)
        curve = portfolio.DiscountCurve.flat(RATE)
        cells = []
        for sigma, T in self.grid:
            shared = rng.getrandbits(63)      # the three strikes share paths
            model = models.make_gbm(RATE, sigma)
            cells.extend(McCell(K, sigma, T, shared, model, pricing.call_payoff(K),
                                ref.bs_call(S0, K, RATE, sigma, T))
                         for K in STRIKES)
        return {"curve": curve, "cells": cells}

    def run_pass(self, inputs) -> list[Op]:
        from stochastica import pricing

        ops = []
        for c in inputs["cells"]:
            op = Op(f"pv_mc K={c.K:g} sigma={c.sigma:g} T={c.T:g}")
            est = _timed(op, lambda: pricing.pv_mc(
                c.model, inputs["curve"], c.payoff, S0, c.T, c.T / self.steps,
                self.n_paths, c.seed, exact_terminal=False))
            if est is not None:
                op.measure = abs(est.mean - c.exact) / est.std_error
                op.ok = op.measure <= MC_Z_LIMIT
                op.work = self.n_paths * self.steps
                op.info["rel_se"] = est.std_error / est.mean
            ops.append(op)
        return ops

    def metrics(self, passes: list[list[Op]], wall: float) -> dict:
        rel_se = [o.info["rel_se"] for o in passes[0] if "rel_se" in o.info]
        return {
            "path_steps_per_s": (sum(o.work for o in passes[0]) / wall, "1/s"),
            "mc_rel_se": (sum(rel_se) / max(len(rel_se), 1), "ratio"),
        }


# ---------------------------------------------------------------------------
# grid_solvers: the deterministic routes, no noise


class GridSolvers:
    name = "grid_solvers"
    cal_ref_s = 0.022      # calibrate() on the baseline host, quiet period

    def __init__(self, small: bool):
        self.grid = ((0.2, 1.0),) if small else tuple(
            (s, T) for s in SIGMAS for T in HORIZONS)
        self.ladder = LADDER[:1] if small else LADDER
        self.pde_steps = 512          # pv_pde default
        self.green_steps = 256

    def calibrate(self) -> float:
        """Seconds of a fixed banded-solve + dense-matvec kernel (median of 5)."""
        import numpy as np
        from scipy.linalg import solve_banded

        n, m = 4097, 801
        ab = np.empty((3, n))
        ab[0], ab[1], ab[2] = -0.25, 1.5, -0.25
        x = np.linspace(-1.0, 1.0, m)
        kernel_rows = np.exp(-50.0 * np.subtract.outer(x, x) ** 2)

        def kernel() -> float:
            start = time.perf_counter()
            f = np.linspace(0.0, 1.0, n)
            for _ in range(128):
                f = solve_banded((1, 1), ab, f + 0.1 * np.maximum(f, 0.5))
            p = np.exp(-x * x)
            for _ in range(32):
                p = (0.0025 * p) @ kernel_rows
            return time.perf_counter() - start

        return statistics.median(kernel() for _ in range(5))

    def build(self, seed: int, workdir: str):
        # the solvers are deterministic: the seed has nothing to choose
        from stochastica import models, portfolio, pricing

        curve = portfolio.DiscountCurve.flat(RATE)
        cells = []
        for sigma, T in self.grid:
            rn = pricing.risk_neutralize(models.make_gbm(RATE, sigma), curve)
            strikes = [(K, pricing.call_payoff(K), ref.bs_call(S0, K, RATE, sigma, T))
                       for K in STRIKES]
            cells.append((sigma, T, rn, strikes))
        makers = {"bm": models.make_bm, "gbm": models.make_gbm,
                  "vasicek": models.make_vasicek}
        cases = [(c, makers[c.kind](**c.params)) for c in ref.DENSITY_CASES]
        return {"curve": curve, "cells": cells, "cases": cases}

    def run_pass(self, inputs) -> list[Op]:
        from stochastica import density, pathintegral, pricing

        curve = inputs["curve"]
        ops = []
        for sigma, T, rn, strikes in inputs["cells"]:
            label = f"sigma={sigma:g} T={T:g}"
            g_op = Op(f"greens_function {label}")
            green = _timed(g_op, lambda: pathintegral.greens_function(
                rn, curve, 0.0, S0, T, T / self.green_steps))
            if green is not None:
                g_op.ok = True
                g_op.work = green.native_values.size * (green.times.size - 1)
            ops.append(g_op)
            for K, payoff, exact in strikes:
                op = Op(f"pv_pde K={K:g} {label}")
                fn = _timed(op, lambda: pricing.pv_pde(payoff, curve, sigma, S0, T))
                if fn is not None:
                    op.measure = _rel(float(fn(S0)), exact)
                    op.ok = op.measure <= PRICE_REL_LIMIT
                    op.work = fn.s_values.size * self.pde_steps
                ops.append(op)
                if green is None:
                    ops.append(Op(f"pv_green K={K:g} {label}", info={"error": "no lattice"}))
                    continue
                op = Op(f"pv_green K={K:g} {label}")
                value = _timed(op, lambda: pricing.pv_green(green, payoff))
                if value is not None:
                    op.measure = _rel(value, exact)
                    op.ok = op.measure <= PRICE_REL_LIMIT
                ops.append(op)

        from stochastica import PointMass, one_step_kernel, point_mass_on_grid

        for n, steps in self.ladder:
            for case, model in inputs["cases"]:
                label = f"{case.kind} {n}x{steps}"
                op = Op(f"evolve_density {label}")
                out = _timed(op, lambda: density.evolve_density(
                    model, PointMass(center=case.S0, t=0.0), case.T,
                    n_steps=steps, n_nodes=n, half_width=ref.HALF_WIDTH))
                if out is not None:
                    self._density_ok(op, out.s_values, out.p_values,
                                     case.terminal(out.s_values), n * steps)
                ops.append(op)

                s = case.terminal_grid(n)
                op = Op(f"propagate {label}")
                out = _timed(op, lambda: pathintegral.propagate(
                    one_step_kernel(model, 0.0, case.T / steps),
                    point_mass_on_grid(s, case.S0), steps))
                if out is not None:
                    self._density_ok(op, s, out.p_values, case.terminal(s), n * steps)
                ops.append(op)

                s = case.backward_grid(n)
                phi, profile = case.backward_bump(s, 2.0 * (s[1] - s[0]))
                op = Op(f"kolmogorov_backward {label}")
                out = _timed(op, lambda: density.kolmogorov_backward(
                    model, phi, s, 0.0, case.T, n_steps=steps))
                if out is not None:
                    w = ref.trapezoid_weights(s)
                    u = out.values / float((w * out.values).sum())
                    self._density_ok(op, s, u, profile / float((w * profile).sum()),
                                     n * steps)
                ops.append(op)
        return ops

    @staticmethod
    def _density_ok(op: Op, s, p, exact, node_steps: int) -> None:
        op.measure = ref.l1(s, p, exact)
        op.ok = op.measure < DENSITY_L1_LIMIT
        op.work = node_steps

    def metrics(self, passes: list[list[Op]], wall: float) -> dict:
        first = passes[0]
        prices = [o.measure for o in first if o.name.startswith(("pv_pde", "pv_green"))]
        l1s = [o.measure for o in first
               if o.name.startswith(("evolve_density", "propagate", "kolmogorov"))]
        return {
            "node_steps_per_s": (sum(o.work for o in first) / wall, "1/s"),
            "price_max_rel_err": (max(prices), "ratio"),
            "density_max_l1": (max(l1s), "ratio"),
        }


# ---------------------------------------------------------------------------
# cli_session: eight fresh `stochastica` processes in sequence


@dataclass
class CliCall:
    command: str
    argv: list
    out: str
    check: Callable[[str], tuple[bool, float]]    # output path -> (ok, measure)


_NUMBER = r"(-?[0-9.eE+-]+)"


def _tail(path: str, size: int = 4096) -> str:
    with open(path, "rb") as fh:
        fh.seek(max(0, os.path.getsize(path) - size))
        return fh.read().decode("ascii", "replace")


class CliSession:
    name = "cli_session"
    cal_ref_s = 0.75      # calibrate() on the baseline host, quiet period

    def __init__(self, small: bool):
        self.mc_paths = 5000 if small else 100000
        self.sim_paths = 500 if small else 10000
        self.sim_steps = 64

    def calibrate(self) -> float:
        """Seconds of one fresh interpreter importing the library's
        dependencies and emitting JSON; nothing of the library is loaded."""
        script = ("import json, numpy, scipy.special, scipy.integrate, scipy.linalg; "
                  "json.dumps([[i / 64 for i in range(65)] for _ in range(2000)])")
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", script], check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    def build(self, seed: int, workdir: str) -> list[CliCall]:
        rng = random.Random(seed)
        cfg_dir = os.path.join(workdir, f"cli-{seed}")
        os.makedirs(cfg_dir, exist_ok=True)

        def call(name, command, cfg, check):
            path = os.path.join(cfg_dir, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=1, sort_keys=True)
            out = os.path.join(cfg_dir, name + ".out")
            return CliCall(command, [command, "--config", path, "--out", out], out, check)

        K, sigma, T = rng.choice(STRIKES), rng.choice(SIGMAS), rng.choice(HORIZONS)
        exact = ref.bs_call(S0, K, RATE, sigma, T)
        calls = [call("price", "price", {
            "model": {"type": "gbm", "params": {"mu": RATE, "sigma": sigma}},
            "curve": RATE, "payoff": {"kind": "call", "strike": K},
            "S0": S0, "T": T, "method": "all", "seed": rng.getrandbits(63),
            "mc": {"n_paths": self.mc_paths, "n_steps": 64, "exact_terminal": False},
        }, lambda p: _check_price(p, exact))]

        sim_sigma = 0.2
        euler_mean = S0 * (1.0 + RATE / self.sim_steps) ** self.sim_steps
        for fmt, extra in (("csv", {}), ("json", {"include_paths": True})):
            calls.append(call(f"simulate_{fmt}", "simulate", dict({
                "model": {"type": "gbm", "params": {"mu": RATE, "sigma": sim_sigma}},
                "S0": S0, "dt": 1.0 / self.sim_steps, "n_steps": self.sim_steps,
                "n_paths": self.sim_paths, "seed": rng.getrandbits(63), "format": fmt,
            }, **extra), lambda p, fmt=fmt: _check_simulate(p, fmt, euler_mean)))

        calls.append(call("density", "density", {
            "model": {"type": "vasicek", "params": {"a": 1.0, "b": 0.05, "sigma": 0.02}},
            "S0": 0.03, "t": 1.0,
            "method": ["analytic", "fokker-planck", "path-integral"],
        }, _check_density))

        gK, g_sigma, gT = rng.choice(STRIKES), rng.choice(SIGMAS), rng.choice(HORIZONS)
        calls.append(call("greeks", "greeks", {
            "S": S0, "K": gK, "r": RATE, "sigma": g_sigma, "t": gT,
        }, lambda p: _check_greeks(p, ref.bs_call(S0, gK, RATE, g_sigma, gT),
                                   ref.bs_put(S0, gK, RATE, g_sigma, gT))))

        instruments = [{"name": f"i{i}", "delta": rng.uniform(0.1, 0.9),
                        "kappa": rng.uniform(-1.0, 1.0), "gamma": rng.uniform(0.005, 0.05)}
                       for i in range(3)]
        calls.append(call("hedge", "hedge", {
            "instruments": instruments, "targets": ["kappa", "gamma"],
        }, lambda p: _check_hedge(p, instruments)))

        prices = [rng.uniform(10.0, 200.0) for _ in range(5)]
        sigmas = [rng.uniform(0.05, 0.5) for _ in range(5)]
        calls.append(call("index", "index", {"prices": prices, "sigmas": sigmas},
                          lambda p: _check_index(p, prices, sigmas)))

        calls.append(call("check", "check", {"seed": rng.getrandbits(63)}, _check_suite))
        return calls

    def run_pass(self, calls: list[CliCall], env: dict, reference: dict) -> list[Op]:
        """One process per call; reference maps out paths to first-pass digests."""
        ops = []
        for c in calls:
            op = Op(f"cli {c.command} {os.path.basename(c.out)}")
            start = time.perf_counter()
            with open(c.out + ".stderr", "wb") as err:
                proc = subprocess.Popen(
                    [sys.executable, "-c",
                     "import sys; from stochastica.cli import main; sys.exit(main())",
                     *c.argv], env=env, stdout=subprocess.DEVNULL, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
            op.seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            op.info["rss_mb"] = usage.ru_maxrss / 1024.0
            op.info["command"] = c.command
            self.finish(op, c, proc.returncode, reference)
            ops.append(op)
        return ops

    def run_inprocess(self, calls: list[CliCall], reference: dict,
                      tracer=None) -> list[Op]:
        """The same argv lists through stochastica.cli.main in this process."""
        from stochastica import cli

        ops = []
        for c in calls:
            op = Op(f"cli {c.command} {os.path.basename(c.out)}")
            if tracer is None:
                code = _timed(op, lambda: cli.main(c.argv))
            else:
                code = _timed(op, lambda: tracer.call(f"cli.{c.command}", cli.main, c.argv))
            op.info["command"] = c.command
            if code is not None:
                self.finish(op, c, code, reference)
            ops.append(op)
        return ops

    def finish(self, op: Op, c: CliCall, code: int, reference: dict) -> None:
        """Check exit code, content and byte identity with the first pass."""
        if code != 0:
            op.ok = False
            op.info["error"] = f"exit code {code}"
            print(f"{op.name} exited with {code}", file=sys.stderr)
            return
        digest = _sha256(c.out)
        op.info["bytes"] = os.path.getsize(c.out)
        first = reference.setdefault(c.out, digest)
        try:
            ok, op.measure = c.check(c.out)
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            ok = False
            op.info["error"] = f"unreadable output: {exc!r}"
            print(f"{op.name}: unreadable output: {exc!r}", file=sys.stderr)
        op.ok = ok and digest == first
        if digest != first:
            print(f"{op.name}: output differs from the first pass", file=sys.stderr)

    def metrics(self, passes: list[list[Op]], wall: float) -> dict:
        calls = [o.seconds for ops in passes for o in ops]
        return {"cli_call_p50_s": (statistics.median(calls), "s"),
                "cli_call_samples": (len(calls), "count")}


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _check_price(path: str, exact: float):
    with open(path, encoding="utf-8") as fh:
        res = json.load(fh)["results"]
    z = abs(res["mc"]["value"] - exact) / res["mc"]["std_error"]
    ok = (_rel(res["analytic"]["value"], exact) < 1e-10
          and _rel(res["pde"]["value"], exact) <= PRICE_REL_LIMIT
          and _rel(res["green"]["value"], exact) <= PRICE_REL_LIMIT
          and z <= MC_Z_LIMIT and res["mc"]["sampler"] == "euler-paths")
    return ok, z


def _check_simulate(path: str, fmt: str, euler_mean: float):
    # the Euler mean is exact: E[S_{m+1}] = E[S_m] (1 + mu dt)
    if fmt == "csv":
        with open(path, encoding="ascii") as fh:
            head = "".join(fh.readline() for _ in range(12))
        mean = float(re.search(r"# terminal_mean_0 = " + _NUMBER, head).group(1))
        se = float(re.search(r"# terminal_se_0 = " + _NUMBER, head).group(1))
    else:
        tail = _tail(path)
        mean = float(re.search(r'"mean": \[\s*' + _NUMBER, tail).group(1))
        se = float(re.search(r'"std_error": \[\s*' + _NUMBER, tail).group(1))
    z = abs(mean - euler_mean) / se
    return z <= MC_Z_LIMIT, z


def _check_density(path: str):
    with open(path, encoding="ascii") as fh:
        head = "".join(fh.readline() for _ in range(6))
    l1s = [float(v) for v in re.findall(r"# L1\([^)]*\) = " + _NUMBER, head)]
    worst = max(l1s) if l1s else math.inf
    return len(l1s) == 3 and worst < DENSITY_L1_LIMIT, worst


def _check_greeks(path: str, call: float, put: float):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    err = max(_rel(doc["call"], call), _rel(doc["put"], put))
    return err < 1e-9, err


def _check_hedge(path: str, instruments: list):
    with open(path, encoding="utf-8") as fh:
        w = json.load(fh)["weights"]
    resid = max(abs(sum(a * i[g] for a, i in zip(w, instruments)))
                for g in ("kappa", "gamma"))
    return resid < 1e-9 and abs(w[0] - 1.0) < 1e-12, resid


def _check_index(path: str, prices: list, sigmas: list):
    with open(path, encoding="utf-8") as fh:
        w = json.load(fh)["weights"]
    bar = 1.0 / sum(1.0 / (s * s) for s in sigmas)
    err = max(_rel(wi, bar / (x * s * s)) for wi, x, s in zip(w, prices, sigmas))
    return err < 1e-12, err


def _check_suite(path: str):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["passed"] is True and doc["n_checks"] == 15, float(doc["n_checks"])


# ---------------------------------------------------------------------------


WORKLOADS = {w.name: w for w in (McGrid, GridSolvers, CliSession)}
