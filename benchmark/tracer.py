"""Spans and counts at the library's layer boundaries, from outside.

A Tracer swaps module attributes that callers look up at call time for
wrappers that record a span (name, start, end, parent) and, where the
layer does countable work, a count.  It changes no file of the library:
``restore()`` puts every original attribute back.  Spans stay in memory
until the run writes them out.

``emit_json`` is deliberately not wrapped: it recurses once per JSON
value (about 700k calls for a 10k-path document), so JSON emission is
read from a CLI command's self time instead.
"""

from __future__ import annotations

import inspect
import json
import threading
import time
from collections import Counter, defaultdict

# Spans whose self time belongs to the pathintegral layer's own code.
PI_OUTER = ("pathintegral.greens_function", "pathintegral.propagate")
DENSITY_SOLVERS = ("density.fokker_planck_forward", "density.kolmogorov_backward")
CLI_COMMANDS = ("simulate", "density", "price", "greeks", "hedge", "index", "check")
IMPORTS = ("stochastica", "numpy", "scipy.special", "scipy.integrate", "scipy.linalg")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.mc_sets = []        # one key per simulated pv_mc path set
        self._lock = threading.RLock()
        self._local = threading.local()
        self._main = self._stack()
        self._undo = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        # a worker thread's spans hang under the span its pool was started from
        owner = stack or self._main
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0,
                               owner[-1] if owner else -1])
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack().pop()
        self.spans[idx][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn as a span of the benchmark's own (top-level) calls."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a span-recording wrapper.

        count(tracer, bound_arguments, result) adds the call's work counts.
        """
        fn = getattr(owner, attr)
        sig = inspect.signature(fn) if count else None
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                with tracer._lock:
                    count(tracer, bound.arguments, result)
            return result

        self._swap(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Replace owner.attr by a wrapper that only counts its calls."""
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        self._swap(owner, attr, wrapper)

    def _swap(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)

    # ------------------------------------------------------------------
    # Aggregation

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: summed duration, summed self time, call count.

        Self time is the span minus the union of its children's intervals,
        so children that overlap on worker threads are not counted twice.
        """
        children = defaultdict(list)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(i)
        total, self_s, calls = Counter(), Counter(), Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            covered, cursor = 0.0, start
            for lo, hi in sorted((self.spans[c][1], self.spans[c][2])
                                 for c in children.get(i, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            total[name] += end - start
            self_s[name] += end - start - covered
            calls[name] += 1
        return total, self_s, calls

    def ancestor(self, idx: int, names) -> str | None:
        """Name of the nearest ancestor span whose name is in names."""
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return self.spans[parent][0]
            parent = self.spans[parent][3]
        return None


# ---------------------------------------------------------------------------
# Counters for the wrapped calls


def _count_draws(t: Tracer, a: dict, result) -> None:
    t.counts["noise.calls"] += 1
    t.counts["noise.draws"] += int(result.size)


def _count_pv_mc(t: Tracer, a: dict, result) -> None:
    from stochastica.models import model_hash

    if result.metadata.get("sampler") == "euler-paths":
        steps = int(result.metadata["n_steps"])
    else:
        steps = 1
    t.counts["pricing.pv_mc.path_steps"] += result.n_paths * steps
    t.mc_sets.append((a["seed"], model_hash(a["model"]), a["S0"], a["T"], a["dt"],
                      a["n_paths"], result.metadata.get("sampler")))


def _count_fp(t: Tracer, a: dict, result) -> None:
    t.counts["density.node_steps"] += a["initial"].s_values.size * a["grid"].n_steps


def _count_kb(t: Tracer, a: dict, result) -> None:
    t.counts["density.node_steps"] += result.s_values.size * a["n_steps"]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import scipy.linalg
    from stochastica import (cli, density, mc, noise, pathintegral, portfolio,
                             pricing, risk)

    tracer.wrap(noise, "normal_block", "noise.normal_block")
    tracer.wrap(noise, "uniform_block", "noise.uniform_block", _count_draws)
    tracer.wrap(pricing, "pv_mc", "pricing.pv_mc", _count_pv_mc)
    tracer.wrap(pricing, "pv_pde", "pricing.pv_pde")
    tracer.wrap(pricing, "pv_green", "pricing.pv_green")
    tracer.wrap(pathintegral, "greens_function", "pathintegral.greens_function")
    tracer.wrap(pathintegral, "propagate", "pathintegral.propagate")
    tracer.wrap(pathintegral, "kernel_matrix", "pathintegral.kernel_matrix")
    tracer.wrap(pathintegral, "quadrature_apply", "pathintegral.quadrature_apply")
    tracer.wrap(density, "evolve_density", "density.evolve_density")
    tracer.wrap(density, "fokker_planck_forward", "density.fokker_planck_forward",
                _count_fp)
    tracer.wrap(density, "kolmogorov_backward", "density.kolmogorov_backward",
                _count_kb)
    tracer.wrap(scipy.linalg, "solve_banded", "scipy.linalg.solve_banded")
    tracer.wrap(cli, "simulate_paths", "mc.simulate_paths")
    _wrap_export(tracer, cli)

    for mod in (cli, pricing, pathintegral, density, mc):
        tracer.count_calls(mod, "model_hash", "models.calls")
    tracer.count_calls(cli, "load_model_config", "models.calls")
    tracer.count_calls(cli, "load_curve", "portfolio.calls")
    for attr in ("discount", "integral"):
        tracer.count_calls(portfolio.DiscountCurve, attr, "portfolio.calls")
    for attr in ("neutralize", "index_weights", "hedge_report_doc"):
        tracer.count_calls(risk, attr, "risk.calls")


def _wrap_export(tracer: Tracer, cli) -> None:
    export = cli.export_paths_csv

    def traced(batch, fh):
        start = fh.tell()
        tracer.call("mc.export_paths_csv", export, batch, fh)
        tracer.counts["mc.export_paths_csv.bytes"] += fh.tell() - start

    tracer._swap(cli, "export_paths_csv", traced)


# ---------------------------------------------------------------------------
# Layer metrics


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric, in the benchmark's units, from one traced pass."""
    total, self_s, calls = tracer.totals()
    c = tracer.counts
    banded = Counter()
    for i, span in enumerate(tracer.spans):
        if span[0] == "scipy.linalg.solve_banded":
            banded[tracer.ancestor(i, ("pricing.pv_pde",) + DENSITY_SOLVERS)] += 1

    noise_s = self_s["noise.normal_block"] + self_s["noise.uniform_block"]
    steps = calls["pathintegral.quadrature_apply"]
    sets = tracer.mc_sets
    m = {
        "noise.normal_block.self_s": (self_s["noise.normal_block"], "s"),
        "noise.uniform_block.self_s": (self_s["noise.uniform_block"], "s"),
        "noise.calls": (c["noise.calls"], "count"),
        "noise.draws": (c["noise.draws"], "count"),
        "noise.ns_per_draw": (1e9 * noise_s / c["noise.draws"] if c["noise.draws"] else 0.0,
                              "ns"),
        "pricing.pv_mc.self_s": (self_s["pricing.pv_mc"], "s"),
        "pricing.pv_mc.path_steps": (c["pricing.pv_mc.path_steps"], "count"),
        "pricing.pv_mc.distinct_path_share": (len(set(sets)) / len(sets) if sets else 0.0,
                                              "ratio"),
        "pricing.pv_pde.s": (total["pricing.pv_pde"], "s"),
        "pricing.pv_pde.banded_solves": (banded["pricing.pv_pde"], "count"),
        "pricing.pv_green.s": (total["pricing.pv_green"], "s"),
        "pathintegral.greens_function.s": (total["pathintegral.greens_function"], "s"),
        "pathintegral.propagate.s": (total["pathintegral.propagate"], "s"),
        "pathintegral.kernel_matrix.s": (total["pathintegral.kernel_matrix"], "s"),
        "pathintegral.kernel_matrix.calls": (calls["pathintegral.kernel_matrix"], "count"),
        "pathintegral.quadrature_apply.s": (total["pathintegral.quadrature_apply"], "s"),
        "pathintegral.quadrature_apply.calls": (steps, "count"),
        "pathintegral.kernel_builds_per_step": (
            calls["pathintegral.kernel_matrix"] / steps if steps else 0.0, "ratio"),
        "pathintegral.self_s": (sum(self_s[n] for n in PI_OUTER), "s"),
        "density.evolve_density.s": (total["density.evolve_density"], "s"),
        "density.fokker_planck_forward.s": (total["density.fokker_planck_forward"], "s"),
        "density.kolmogorov_backward.s": (total["density.kolmogorov_backward"], "s"),
        "density.banded_solves": (sum(banded[n] for n in DENSITY_SOLVERS), "count"),
        "density.node_steps": (c["density.node_steps"], "count"),
        "mc.simulate_paths.s": (total["mc.simulate_paths"], "s"),
        "mc.export_paths_csv.s": (total["mc.export_paths_csv"], "s"),
        "mc.export_paths_csv.bytes": (c["mc.export_paths_csv.bytes"], "bytes"),
        "models.calls": (c["models.calls"], "count"),
        "portfolio.calls": (c["portfolio.calls"], "count"),
        "risk.calls": (c["risk.calls"], "count"),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = (total[f"cli.{cmd}"], "s")
        m[f"cli.{cmd}.self_s"] = (self_s[f"cli.{cmd}"], "s")
    return m


def import_times(lines: str) -> dict:
    """Seconds per module from `python -X importtime -c "import stochastica"`.

    Each figure sums the cumulative time of the outermost imports inside
    the module's namespace (numpy.*, scipy.integrate.* and so on), i.e.
    everything loaded on its behalf.  scipy loads subpackages lazily and
    does not always print the subpackage's own line, so the package line
    alone would miss them.
    """
    rows = []
    for line in lines.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[0].strip().isdigit():
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    out = dict.fromkeys(IMPORTS, 0.0)
    stack = []          # (depth, module) of the enclosing imports
    for depth, module, cumulative_us in reversed(rows):   # parents print last
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        stack.append((depth, module))
        for name in IMPORTS:
            inside = module == name or module.startswith(name + ".")
            if inside and not (parent == name or parent.startswith(name + ".")):
                out[name] += cumulative_us * 1e-6
    return out
