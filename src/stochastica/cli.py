"""Batch command-line front end.

Subcommands: simulate | density | price | greeks | hedge | index | check.
Every run is a pure function of the JSON config file plus flag overrides
(flags win): identical inputs give byte-identical output bodies, with
wall-clock metadata confined to a sidecar file. Floats print with 17
significant digits so outputs round-trip exactly. Bodies are streamed:
float arrays (JSON) and path tables (CSV) are rendered a row at a time
by one %-template per row and written as they are rendered, so memory
does not grow with the output, and the bytes match a value-by-value
rendering. --out is moved into place only once its body is complete.

Exit codes: 0 success, 2 validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import math
import os
import re
import sys

import numpy as np

from . import density as density_mod
from . import pathintegral as pi_mod
from . import pricing as pricing_mod
from . import risk as risk_mod
from .errors import NumericalError
from .mc import (_CHUNK, TimeGrid, _mean_and_se, export_paths_csv, fmt17, simulate_paths,
                 _resolve_threads as _resolve_mc_threads)
from .models import (GBM, load_model_config, make_bm, make_gbm, make_vasicek,
                     model_hash)
from .noise import validate_seed
from .portfolio import DiscountCurve, load_curve

_FORMATS = ("csv", "json")
_DENSITY_METHODS = ("analytic", "fokker-planck", "path-integral")
_PRICE_METHODS = ("analytic", "pde", "green", "mc")
_NONFINITE = re.compile(r"-?inf|nan")


# ---------------------------------------------------------------------------
# Deterministic emitters


def _json_scalar(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        text = fmt17(x)
        return text if math.isfinite(x) else json.dumps(text)
    if isinstance(x, str):
        return json.dumps(x)
    raise ValueError(f"cannot serialize {type(x).__name__} to JSON")


def _float_rows(a: np.ndarray, indent: int):
    """Each leading-axis row of a non-empty float array as emit_json renders
    it, by one %-template per row ("%.17g", as fmt17); tolist() sees at
    most _CHUNK values (or one row) at once."""
    rows = a.astype(float, copy=False).reshape(len(a), -1)
    # emit_json's own layout of one row, with "%.17g" in place of each value
    template = emit_json(np.full(a.shape[1:], "%.17g", object).tolist(),
                         indent).replace('"', "")
    step = max(1, _CHUNK // rows.shape[1])
    for lo in range(0, len(rows), step):
        for values in rows[lo:lo + step].tolist():
            text = template % tuple(values)
            # of all "%.17g" renderings only inf and nan contain an "n";
            # they are quoted as _json_scalar quotes them
            yield _NONFINITE.sub(r'"\g<0>"', text) if "n" in text else text


def _json_pieces(obj, indent: int = 0):
    """Yield the text of obj as emit_json renders it, piece by piece."""
    if isinstance(obj, dict):
        items = ((json.dumps(str(k)) + ": ", _json_pieces(obj[k], indent + 1))
                 for k in sorted(obj))
    elif isinstance(obj, np.ndarray) and obj.ndim and obj.size and obj.dtype.kind == "f":
        items = (("", (row,)) for row in _float_rows(obj, indent + 1))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = (("", _json_pieces(v, indent + 1)) for v in obj)
    else:
        yield _json_scalar(obj)
        return
    brackets = "{}" if isinstance(obj, dict) else "[]"
    sep = brackets[0] + "\n"
    for key, pieces in items:
        yield sep + "  " * (indent + 1) + key
        yield from pieces
        sep = ",\n"
    yield brackets if sep != ",\n" else "\n" + "  " * indent + brackets[1]


def emit_json(obj, indent: int = 0) -> str:
    """Render with sorted keys and 17-digit floats; no timestamps."""
    return "".join(_json_pieces(obj, indent))


def _json_body(doc):
    """The pieces of a JSON output body: doc, then a newline."""
    yield from _json_pieces(doc)
    yield "\n"


def _write_output(out: str | None, meta: dict, body) -> None:
    """Write body, text pieces or a function that writes to the open file,
    to stdout or to out as it is rendered. The file is written under a
    temporary sibling name and moved into place only once complete, then
    the .meta.json sidecar is written, so a failed run leaves neither."""
    write = body if callable(body) else (lambda fh: fh.writelines(body))
    if out is None:
        write(sys.stdout)
        return
    # A FIFO or a device such as /dev/stdout is written in place: a rename
    # over it would replace the directory entry itself.
    direct = os.path.exists(out) and not os.path.isfile(out)
    part = out if direct else f"{out}.{os.getpid()}.tmp"
    try:
        with open(part, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
        if not direct:
            os.replace(part, out)
    except BaseException:
        if not direct and os.path.exists(part):
            os.remove(part)
        raise
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    meta = dict(meta, created_utc=stamp)
    with open(out + ".meta.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Config plumbing


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("config root must be a JSON object")
    return doc


def _require(cfg: dict, key: str, caster, what: str = "", default=None,
             where: str = "config"):
    """caster(cfg[key]), else caster(default); an error names the key as
    where.key. With no default the key is required."""
    if default is None and key not in cfg:
        raise ValueError(f"{where}.{key} is required ({what})")
    try:
        return caster(cfg.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}.{key}: {exc}") from exc


def _section(cfg: dict, key: str) -> dict | None:
    """config.key, an object of settings, or None when absent or null."""
    sub = cfg.get(key)
    if sub is not None and not isinstance(sub, dict):
        raise ValueError(f"config.{key} must be an object")
    return sub


def _resolve_seed(args, cfg: dict) -> int:
    if args.seed is not None:
        return args.seed
    return validate_seed(cfg.get("seed", 0))


def _resolve_threads(args, cfg: dict) -> int:
    """--threads, else config.threads, else the library default (the CPUs
    this process may use)."""
    if args.threads is not None:
        source, value = "--threads", args.threads
    else:
        source, value = "config.threads", cfg.get("threads")
    try:
        return _resolve_mc_threads(value)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _resolve_format(args, cfg: dict, default: str) -> str:
    fmt = args.format or cfg.get("format") or default
    if fmt not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}")
    return fmt


def _count(cfg: dict, key: str, low: int, default=None,
           where: str = "config") -> int:
    """cfg[key], else default, as an integer >= low; an error names the key
    as where.key. With no default the key is required."""
    if default is None and key not in cfg:
        raise ValueError(f"{where}.{key} is required")
    return density_mod._int_at_least(f"{where}.{key}", cfg.get(key, default),
                                     low)


def _flag(cfg: dict, key: str, default, where: str = "config"):
    """cfg[key], JSON true or false, else default when the key is absent;
    an error names the key as where.key."""
    if key in cfg and not isinstance(cfg[key], bool):
        raise ValueError(f"{where}.{key} must be true or false, not {cfg[key]!r}")
    return cfg.get(key, default)


def _dt_from(sub: dict, T: float, n_steps: int, where: str) -> float:
    """sub["dt"] if given, else T / sub["n_steps"]; the step count (default
    n_steps) must be a positive integer either way."""
    n = _count(sub, "n_steps", 1, n_steps, f"config.{where}")
    return _require(sub, "dt", float, default=T / n, where=f"config.{where}")


def _curve_from_config(cfg: dict) -> DiscountCurve:
    doc = cfg.get("curve")
    if doc is None:
        raise ValueError("config.curve is required (a rate or a [{t, r}] list)")
    if isinstance(doc, (int, float)):
        return DiscountCurve.flat(float(doc))
    return load_curve(doc)


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    model = load_model_config(_require(cfg, "model", dict, "model config"))
    S0 = _require(cfg, "S0", float, "initial state")
    grid = TimeGrid(t0=_require(cfg, "t0", float, default=0.0),
                    dt=_require(cfg, "dt", float, "step size"),
                    n_steps=_count(cfg, "n_steps", 1))
    n_paths = _count(cfg, "n_paths", 1)
    seed = _resolve_seed(args, cfg)
    threads = _resolve_threads(args, cfg)
    fmt = _resolve_format(args, cfg, "csv")
    include_paths = _flag(cfg, "include_paths", False)

    batch = simulate_paths(model, S0, grid, n_paths, seed, threads=threads)
    terminal = [_mean_and_se(batch.paths[:, -1, a]) for a in range(batch.dim)]

    if fmt == "csv":
        def body(fh):
            fh.write(f"# seed = {seed}\n"
                     f"# model_hash = {batch.model_hash}\n"
                     f"# t0 = {fmt17(grid.t0)}\n"
                     f"# dt = {fmt17(grid.dt)}\n"
                     f"# n_steps = {grid.n_steps}\n")
            for a, (mean, se) in enumerate(terminal):
                fh.write(f"# terminal_mean_{a} = {fmt17(mean)}\n"
                         f"# terminal_se_{a} = {fmt17(se)}\n")
            export_paths_csv(batch, fh)
    else:
        doc = {
            "seed": seed, "model_hash": batch.model_hash,
            "grid": {"t0": grid.t0, "dt": grid.dt, "n_steps": grid.n_steps},
            "n_paths": n_paths,
            "terminal": {"mean": [m for m, _ in terminal],
                         "std_error": [s for _, s in terminal]},
        }
        if include_paths:
            doc["paths"] = batch.paths
        body = _json_body(doc)
    _write_output(args.out, {"command": "simulate", "seed": seed}, body)
    return 0


# ---------------------------------------------------------------------------
# density


def _comparison_grid(model, S0: float, t: float, cfg: dict,
                     n_nodes: int, half_width: float) -> np.ndarray:
    explicit = _section(cfg, "grid")
    if explicit is not None:
        lo = _require(explicit, "lo", float, "grid start", where="config.grid")
        hi = _require(explicit, "hi", float, "grid end", where="config.grid")
        n = _count(explicit, "n", 3, n_nodes, "config.grid")
        if not hi > lo:
            raise ValueError("config.grid needs lo < hi")
        return np.linspace(lo, hi, n)
    return _analytic_density(model, S0, t).default_grid(n_nodes, half_width)


def _analytic_density(model, S0: float, t: float):
    analytic = None if model.family is None else model.family.density(S0, t)
    if analytic is None:
        raise ValueError("the model has no family with a closed-form density: "
                         "supply config.grid = {lo, hi, n} and leave out "
                         "method 'analytic'")
    return analytic


def _density_by_method(method: str, model, S0: float, t: float,
                       s: np.ndarray, n_steps: int, n_nodes: int,
                       half_width: float) -> np.ndarray:
    if method == "analytic":
        return np.asarray(_analytic_density(model, S0, t)(s), dtype=float)
    if method == "fokker-planck":
        result = density_mod.evolve_density(
            model, density_mod.PointMass(center=S0, t=0.0), t,
            n_steps=n_steps, n_nodes=n_nodes, half_width=half_width)
        return np.interp(s, result.s_values, result.p_values,
                         left=0.0, right=0.0)
    kernel = pi_mod.one_step_kernel(model, 0.0, t / n_steps)
    start = density_mod.point_mass_on_grid(s, S0, 0.0)
    return pi_mod.propagate(kernel, start, n_steps).p_values


def cmd_density(args) -> int:
    cfg = _load_config(args.config)
    model = load_model_config(_require(cfg, "model", dict, "model config"))
    S0 = _require(cfg, "S0", float, "initial state")
    t = _require(cfg, "t", float, "target time")
    if not t > 0:
        raise ValueError("config.t must be positive")
    methods = cfg.get("method", "analytic")
    if isinstance(methods, str):
        methods = [methods]
    if not isinstance(methods, list) or not methods \
            or any(m not in _DENSITY_METHODS for m in methods):
        raise ValueError("config.method must be a method or a non-empty list "
                         f"of methods from {_DENSITY_METHODS}")
    res = _section(cfg, "resolution") or {}
    half_width = _require(res, "half_width", float, default=8.0,
                          where="config.resolution")
    n_nodes = density_mod._grid_nodes(_count(res, "n_nodes", 5, 801, "config.resolution"),
                                      half_width)
    n_steps = _count(res, "n_steps", 1, 256, "config.resolution")
    fmt = _resolve_format(args, cfg, "csv")

    s = _comparison_grid(model, S0, t, cfg, n_nodes, half_width)
    tables = {m: _density_by_method(m, model, S0, t, s, n_steps, n_nodes,
                                    half_width) for m in methods}
    w = density_mod.trapezoid_weights(s)
    l1 = {f"{a}|{b}": float(np.sum(w * np.abs(tables[a] - tables[b])))
          for a, b in itertools.combinations(methods, 2)}

    mhash = model_hash(model)
    if fmt == "csv":
        body = [f"# t = {fmt17(t)}\n", f"# model_hash = {mhash}\n"]
        body += [f"# L1({key}) = {fmt17(l1[key])}\n" for key in sorted(l1)]
        body.append("S," + ",".join(m.replace("-", "_") for m in methods) + "\n")
        template = ",".join(["%.17g"] * (len(methods) + 1)) + "\n"
        columns = np.column_stack([s] + [tables[m] for m in methods])
        body += [template % tuple(row) for row in columns.tolist()]
    else:
        body = _json_body({"t": t, "model_hash": mhash, "s": s,
                           "densities": tables, "l1": l1})
    _write_output(args.out, {"command": "density"}, body)
    return 0


# ---------------------------------------------------------------------------
# price


def _price_one(method: str, model, curve: DiscountCurve,
               payoff, S0: float, T: float, cfg: dict, seed: int,
               threads: int) -> dict:
    if method in ("analytic", "pde") and not isinstance(model.family, GBM):
        raise ValueError(f"the {method} route prices models of family GBM only")
    if method == "analytic":
        if payoff.kind not in ("call", "put"):
            raise ValueError("analytic pricing covers call and put payoffs only")
        if not curve.is_flat:
            raise ValueError("analytic pricing needs a flat curve")
        p = pricing_mod.BSParams(S=S0, K=payoff.strike, r=curve.rates[0],
                                 sigma=model.family.sigma, t=T)
        return {"value": pricing_mod.bs_price(p, payoff.kind)}
    if method == "pde":
        sub = _section(cfg, "pde") or {}
        fn = pricing_mod.pv_pde(payoff, curve, model.family.sigma, S0, T,
                                n_nodes=_count(sub, "n_nodes", 5, 4097,
                                               "config.pde"),
                                n_steps=_count(sub, "n_steps", 1, 512,
                                               "config.pde"),
                                half_width=_require(sub, "half_width", float,
                                                    default=8.0, where="config.pde"))
        return {"value": float(fn(S0))}
    if method == "green":
        sub = _section(cfg, "green") or {}
        dt = _dt_from(sub, T, 256, "green")
        green = pi_mod.greens_function(
            pricing_mod.risk_neutralize(model, curve), curve, 0.0, S0, T, dt,
            n_nodes=_count(sub, "n_nodes", 5, 801, "config.green"),
            half_width=_require(sub, "half_width", float, default=8.0,
                                where="config.green"))
        return {"value": pricing_mod.pv_green(green, payoff),
                "mass": green.total_mass()}
    if method == "mc":
        sub = _section(cfg, "mc") or {}
        dt = _dt_from(sub, T, 64, "mc")
        est = pricing_mod.pv_mc(model, curve, payoff, S0, T, dt,
                                _count(sub, "n_paths", 1, 100000, "config.mc"),
                                seed,
                                threads=threads,
                                exact_terminal=_flag(sub, "exact_terminal", None,
                                                     "config.mc"))
        return {"value": est.mean, "std_error": est.std_error,
                "n_paths": est.n_paths,
                "sampler": est.metadata.get("sampler", "")}
    raise ValueError(f"price method must be 'all' or one of {_PRICE_METHODS}")


def cmd_price(args) -> int:
    cfg = _load_config(args.config)
    model = load_model_config(_require(cfg, "model", dict, "model config"))
    curve = _curve_from_config(cfg)
    payoff = pricing_mod.payoff_from_config(
        _require(cfg, "payoff", dict, "payoff config"))
    S0 = _require(cfg, "S0", float, "spot")
    T = _require(cfg, "T", float, "horizon")
    seed = _resolve_seed(args, cfg)
    threads = _resolve_threads(args, cfg)
    fmt = _resolve_format(args, cfg, "json")
    method = cfg.get("method", "analytic")
    methods = list(_PRICE_METHODS) if method == "all" else [method]

    results = {m: _price_one(m, model, curve, payoff, S0, T, cfg, seed,
                             threads) for m in methods}
    agreement = {}
    for a, b in itertools.combinations(methods, 2):
        va, vb = results[a]["value"], results[b]["value"]
        gap = abs(va - vb)
        agreement[f"{a}|{b}"] = {"abs": gap,
                                 "rel": gap / max(abs(va), abs(vb), 1e-300)}

    doc = {"S0": S0, "T": T, "seed": seed, "model_hash": model_hash(model),
           "results": results}
    if len(methods) > 1:
        doc["agreement"] = agreement
    body = _json_body(doc) if fmt == "json" else [
        f"# model_hash = {doc['model_hash']}\n",
        "method,value,std_error\n",
        *(f"{m},{fmt17(r['value'])},"
          f"{fmt17(r['std_error']) if 'std_error' in r else ''}\n"
          for m, r in results.items()),
        *(f"# gap({key}) = {fmt17(agreement[key]['abs'])}\n"
          for key in sorted(agreement))]
    _write_output(args.out, {"command": "price", "seed": seed}, body)
    return 0


# ---------------------------------------------------------------------------
# greeks / hedge / index


def cmd_greeks(args) -> int:
    cfg = _load_config(args.config)
    p = pricing_mod.BSParams(S=_require(cfg, "S", float, "spot"),
                             K=_require(cfg, "K", float, "strike"),
                             r=_require(cfg, "r", float, "flat rate"),
                             sigma=_require(cfg, "sigma", float, "volatility"),
                             t=_require(cfg, "t", float, "expiry"))
    g = pricing_mod.bs_greeks(p)
    doc = {"inputs": {"S": p.S, "K": p.K, "r": p.r, "sigma": p.sigma, "t": p.t},
           "call": pricing_mod.bs_price(p, "call"),
           "put": pricing_mod.bs_price(p, "put"),
           "delta": g.delta, "kappa": g.kappa, "gamma": g.gamma,
           "degenerate": g.degenerate}
    fmt = _resolve_format(args, cfg, "json")
    body = _json_body(doc) if fmt == "json" else [
        "quantity,value\n",
        *(f"{key},{fmt17(doc[key])}\n"
          for key in ("call", "put", "delta", "kappa", "gamma")),
        f"degenerate,{str(doc['degenerate']).lower()}\n"]
    _write_output(args.out, {"command": "greeks"}, body)
    return 0


def cmd_hedge(args) -> int:
    cfg = _load_config(args.config)
    rows = _require(cfg, "instruments", list, "instrument list")
    instruments = []
    for i, row in enumerate(rows):
        where = f"config.instruments[{i}]"
        if not isinstance(row, dict):
            raise ValueError(f"{where} must be an object")
        delta, kappa, gamma = (_require(row, greek, float, "a sensitivity", where=where)
                               for greek in ("delta", "kappa", "gamma"))
        instruments.append(risk_mod.Instrument(delta, kappa, gamma,
                                               name=str(row.get("name", i))))
    targets = _require(cfg, "targets", list, default=["kappa"])
    report = risk_mod.neutralize(
        instruments, targets,
        normalization=cfg.get("normalization", "first"),
        values=cfg.get("values"))
    doc = risk_mod.hedge_report_doc(report)
    doc["names"] = [inst.name for inst in instruments]
    doc["targets"] = list(targets)
    fmt = _resolve_format(args, cfg, "json")
    body = _json_body(doc) if fmt == "json" else [
        f"# delta = {fmt17(report.delta)}\n",
        f"# condition_number = {fmt17(report.condition_number)}\n",
        *(f"# residual_{t} = {fmt17(report.residual_greeks[t])}\n"
          for t in sorted(report.residual_greeks)),
        "name,alpha\n",
        *(f"{inst.name},{fmt17(alpha)}\n"
          for inst, alpha in zip(instruments, report.alphas))]
    _write_output(args.out, {"command": "hedge"}, body)
    return 0


def cmd_index(args) -> int:
    cfg = _load_config(args.config)
    inputs = risk_mod.IndexInputs(
        prices=_require(cfg, "prices", list, "asset prices"),
        sigmas=_require(cfg, "sigmas", list, "asset volatilities"))
    result = risk_mod.index_weights(inputs)
    doc = {"weights": list(result.weights),
           "index_variance": result.index_variance,
           "degenerate": result.degenerate}
    fmt = _resolve_format(args, cfg, "json")
    body = _json_body(doc) if fmt == "json" else [
        f"# index_variance = {fmt17(result.index_variance)}\n",
        f"# degenerate = {str(result.degenerate).lower()}\n",
        "asset,weight\n",
        *(f"{i},{fmt17(wv)}\n" for i, wv in enumerate(result.weights))]
    _write_output(args.out, {"command": "index"}, body)
    return 0


# ---------------------------------------------------------------------------
# check


def _check_price_cell(K: float, sigma: float, T: float, seed: int,
                      threads: int) -> list[dict]:
    S0, r = 100.0, 0.05
    model = make_gbm(r, sigma)
    curve = DiscountCurve.flat(r)
    payoff = pricing_mod.call_payoff(K)
    p = pricing_mod.BSParams(S=S0, K=K, r=r, sigma=sigma, t=T)
    ref = pricing_mod.bs_price(p, "call")
    label = f"K={K:g} sigma={sigma:g} T={T:g}"
    checks = []

    fn = pricing_mod.pv_pde(payoff, curve, sigma, S0, T)
    rel = abs(float(fn(S0)) - ref) / ref
    checks.append({"name": f"price pde vs analytic [{label}]",
                   "measure": rel, "limit": 1e-3, "passed": rel < 1e-3})

    rn = pricing_mod.risk_neutralize(model, curve)
    green = pi_mod.greens_function(rn, curve, 0.0, S0, T, T / 256)
    rel = abs(pricing_mod.pv_green(green, payoff) - ref) / ref
    checks.append({"name": f"price green vs analytic [{label}]",
                   "measure": rel, "limit": 1e-3, "passed": rel < 1e-3})

    est = pricing_mod.pv_mc(model, curve, payoff, S0, T, T / 64, 200000,
                            seed, threads=threads, exact_terminal=True)
    z = abs(est.mean - ref) / est.std_error
    checks.append({"name": f"price mc z-score [{label}]",
                   "measure": z, "limit": 4.0, "passed": z < 4.0})
    return checks


def _check_density(kind: str, method: str) -> dict:
    model, S0 = {"bm": (make_bm(0.1, 0.3), 0.0),
                 "gbm": (make_gbm(0.05, 0.2), 100.0),
                 "vasicek": (make_vasicek(1.0, 0.05, 0.02), 0.03)}[kind]
    t = 1.0
    analytic = _analytic_density(model, S0, t)
    s = analytic.default_grid(801, 8.0)
    approx = _density_by_method(method, model, S0, t, s, 256, 801, 8.0)
    w = density_mod.trapezoid_weights(s)
    l1 = float(np.sum(w * np.abs(approx - analytic(s))))
    return {"name": f"density {method} vs analytic [{kind}]",
            "measure": l1, "limit": 5e-3, "passed": l1 < 5e-3}


def cmd_check(args) -> int:
    cfg = _load_config(args.config)
    seed = _resolve_seed(args, cfg)
    threads = _resolve_threads(args, cfg)
    fmt = _resolve_format(args, cfg, "json")

    checks = []
    for K, sigma, T in ((80.0, 0.4, 2.0), (100.0, 0.2, 1.0),
                        (120.0, 0.1, 0.25)):
        checks.extend(_check_price_cell(K, sigma, T, seed, threads))
    checks += [_check_density(kind, method) for kind in ("bm", "gbm", "vasicek")
               for method in ("fokker-planck", "path-integral")]

    ok = all(c["passed"] for c in checks)
    doc = {"passed": ok, "n_checks": len(checks), "checks": checks}
    body = _json_body(doc) if fmt == "json" else [
        "name,measure,limit,passed\n",
        *(f"{json.dumps(c['name'])},{fmt17(c['measure'])},"
          f"{fmt17(c['limit'])},{str(c['passed']).lower()}\n" for c in checks)]
    _write_output(args.out, {"command": "check", "seed": seed}, body)
    if not ok:
        raise NumericalError(
            "cross-method agreement suite failed; see the report for the "
            "failing checks")
    return 0


# ---------------------------------------------------------------------------
# Entry point


_COMMANDS = {
    "simulate": (cmd_simulate, "sample Euler paths and summary statistics"),
    "density": (cmd_density, "tabulate a terminal density by one or more methods"),
    "price": (cmd_price, "value a payoff by analytic, pde, green or mc routes"),
    "greeks": (cmd_greeks, "closed-form call sensitivities"),
    "hedge": (cmd_hedge, "solve for sensitivity-neutral position sizes"),
    "index": (cmd_index, "variance-minimizing index weights"),
    "check": (cmd_check, "run the cross-method agreement suite"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochastica",
        description="Simulate diffusions, evolve densities, price and hedge.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, help="overrides config.seed")
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--format", choices=_FORMATS,
                        help="output format (default depends on command)")
        sp.add_argument("--threads", type=int,
                        help="worker threads (default: config.threads, else "
                             "the CPUs this process may use); results do not "
                             "depend on it")
        sp.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
