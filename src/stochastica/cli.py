"""Batch command-line front end.

Subcommands: simulate | density | price | greeks | hedge | index | check,
one row each of the command table _COMMANDS. main loads the config, refuses
a key the command's row does not declare, and resolves the format, and the
seed and thread count of the three commands that sample noise (only they
take --seed and --threads), for the handler.
Each handler computes its JSON document and its CSV body; main writes the
body the format picks and the sidecar, then fails a check suite that failed.
This module owns the config format: load_model_config, load_curve,
payoff_from_config and _section (pde, green, mc, resolution, grid) read each
key by _require and refuse undeclared keys by _declared; _section leaves
entries not given to the route's defaults.
Every run is a pure function of the JSON config file plus flag overrides
(flags win): identical inputs give byte-identical output bodies, with
wall-clock metadata confined to a sidecar file. Floats print with 17
significant digits so outputs round-trip exactly. Bodies are streamed:
float arrays (JSON) and path and density tables (CSV) are rendered a row
at a time by one %-template per row and written as they are rendered, so
memory does not grow with the output, and the bytes match a value-by-value
rendering. --out is moved into place only once its body is complete.

Handlers import the density, pathintegral, pricing and risk modules they
run when they run, so hedge and index load no grid, lattice or pricing code.

Exit codes: 0 success, 1 stdout closed by its reader before the output was
written, 2 validation failure, 3 numerical failure.
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

from .errors import NumericalError
from .mc import (_CHUNK, TimeGrid, _int_at_least, _mean_and_se, _resolve_threads,
                 export_paths_csv, fmt17, simulate_paths)
from .models import (GBM, ModelSpec, make_bm, make_correlated_bm, make_correlated_gbm,
                     make_custom_grid, make_gbm, make_vasicek, model_hash)
from .noise import validate_seed
from .portfolio import DiscountCurve, _require_finite, _require_positive

_FORMATS = ("csv", "json")
_DENSITY_METHODS = ("analytic", "fokker-planck", "path-integral")
_PRICE_METHODS = ("analytic", "pde", "green", "mc")
_NONFINITE = re.compile(r"-?inf|nan")
_JSON_TYPES = {float: "a number", bool: "true or false", str: "a string",
               list: "an array", dict: "an object"}


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


def _write_output(out: str | None, meta: dict, body) -> None:
    """Write body, text pieces or a function that writes to the open file,
    to stdout or to out as it is rendered. The file is written under a
    temporary sibling name, then the .meta.json sidecar is written, and the
    file is moved into place only once both are complete, so a failed run
    leaves neither. An OSError other than a closed pipe's is a ValueError
    that names the file it could not write."""
    write = body if callable(body) else (lambda fh: fh.writelines(body))
    if out is None:
        write(sys.stdout)
        return
    # A FIFO or a device such as /dev/stdout is written in place: a rename
    # over it would replace the directory entry itself.
    direct = os.path.exists(out) and not os.path.isfile(out)
    part = out if direct else f"{out}.{os.getpid()}.tmp"
    sidecar, at_sidecar = out + ".meta.json", False
    try:
        with open(part, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        meta = dict(meta, created_utc=stamp)
        at_sidecar = True
        with open(sidecar, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")
        if not direct:
            os.replace(part, out)
    except BaseException as exc:
        if not direct and os.path.exists(part):
            os.remove(part)
        if at_sidecar and os.path.isfile(sidecar):
            os.remove(sidecar)
        if isinstance(exc, OSError) and not isinstance(exc, BrokenPipeError):
            where = f"the sidecar {sidecar}" if at_sidecar else f"--out {out}"
            raise ValueError(f"cannot write {where}: {exc.strerror or exc}") from None
        raise


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


def _json_numbers(key: str, value):
    """value as given if it is a JSON number or an array of them, nested or
    not; float() and numpy would read a string such as "1" as a number, and
    true or false as 1 or 0, so anything else is refused by key."""
    if isinstance(value, list):
        for v in value:
            _json_numbers(key, v)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, not {value!r}")
    return value


def _declared(where: str, doc: dict, keys) -> dict:
    """doc once every key in it is one of keys; any other is refused by name,
    with the nearest declared key when one is close."""
    for key in (key for key in doc if key not in keys):
        import difflib  # only a refused key needs it
        near = "".join(f"; did you mean {where}.{k}?"
                       for k in difflib.get_close_matches(str(key), keys, 1))
        raise ValueError(f"{where}.{key} is not a setting of {where}, which takes "
                         f"{', '.join(keys)}{near}")
    return doc


def _require(cfg: dict, key: str, kind, what: str = "", default=...,
             where: str = "config"):
    """cfg[key], else default, of JSON kind; an error names the key as
    where.key, and with no default the key is required. float takes a
    number and gives it as a float, an int kind an integer >= that int, and
    list[float] an array of numbers; bool, str, list and dict take true or
    false, a string, an array and an object as they are, and a null object
    reads as absent."""
    name = f"{where}.{key}"
    value = cfg.get(key)
    if key not in cfg or (kind is dict and value is None):
        if default is ...:
            raise ValueError(f"{name} is required" + (f" ({what})" if what else ""))
        return default
    if isinstance(kind, int):
        return _int_at_least(name, value, kind)
    if kind is float and not isinstance(value, list):
        return float(_json_numbers(name, value))
    shape = list if kind == list[float] else kind
    if not isinstance(value, shape):
        raise ValueError(f"{name} must be {_JSON_TYPES[shape]}, not {value!r}")
    return _json_numbers(name, value) if kind == list[float] else value


def _flag_or_config(args, cfg: dict, key: str, check, default=None):
    """check(--key, else config.key, else default); an error names the
    source of the value it refuses."""
    source, value = f"--{key}", getattr(args, key)
    if value is None:
        source, value = f"config.{key}", cfg.get(key, default)
    try:
        return check(value)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _section(cfg: dict, name: str, **kinds) -> dict:
    """The entries that config.<name> gives, each checked by _require as its kind in
    kinds; an absent or null object gives none, and a key not in kinds is refused."""
    where = f"config.{name}"
    sub = _declared(where, _require(cfg, name, dict, default={}), kinds)
    if "n_steps" in sub and "dt" in sub:  # each alone sets the step; together one is lost
        raise ValueError(f"{where}.n_steps and {where}.dt both set the step: give one")
    return {key: _require(sub, key, kinds[key], where=where) for key in sub}


def _dt_from(sub: dict, T: float, n_steps: int) -> float:
    """Pop sub's checked dt or n_steps, never both: dt, else T / n_steps (default n_steps)."""
    n = sub.pop("n_steps", n_steps)
    return sub.pop("dt", T / n)


# type -> (one-asset builder, correlated builder or None, its params)
_BUILDERS = {
    "bm": (make_bm, make_correlated_bm, ("mu", "sigma")),
    "gbm": (make_gbm, make_correlated_gbm, ("mu", "sigma")),
    "vasicek": (make_vasicek, None, ("a", "b", "sigma")),
    "custom-grid": (make_custom_grid, None, ("s", "drift", "vol")),
}


def load_model_config(doc: dict) -> ModelSpec:
    """A ModelSpec from config.model, {"type": ..., "params": {...}, "correlation":
    [[...]]}; a correlated or custom-grid model's params are arrays, any other's numbers."""
    where = "config.model"
    doc = _declared(where, _require({"model": doc}, "model", dict, "model config"),
                    ("type", "params", "correlation"))
    type_name = _require(doc, "type", str, where=where)
    if type_name not in _BUILDERS:
        raise ValueError(f"{where}.type must be one of {', '.join(_BUILDERS)}, "
                         f"not {type_name!r}")
    one_asset, correlated, keys = _BUILDERS[type_name]
    params = _declared(f"{where}.params", _require(doc, "params", dict, where=where), keys)
    if doc.get("correlation") is None:
        kind = list[float] if type_name == "custom-grid" else float
        return one_asset(*(_require(params, k, kind, where=f"{where}.params") for k in keys))
    if correlated is None:
        raise ValueError(f"{where}.correlation: correlated {type_name} models are not supported")
    return correlated(*(_require(params, k, list[float], where=f"{where}.params") for k in keys),
                      _require(doc, "correlation", list[float], where=where))


def load_curve(doc) -> DiscountCurve:
    """A DiscountCurve from config.curve as a list, [{"t": years, "r": rate}, ...]."""
    points = _require({"curve": doc}, "curve", list)
    if not points:
        raise ValueError("config.curve must be a non-empty array of {t, r} points")
    times, rates = [], []
    for i, point in enumerate(points):
        where = f"config.curve[{i}]"
        if not isinstance(point, dict):  # present, so a null point is no object either
            raise ValueError(f"{where} must be an object, not {point!r}")
        _declared(where, point, ("t", "r"))
        times.append(_require(point, "t", float, where=where))
        rates.append(_require(point, "r", float, where=where))
    return DiscountCurve(times=tuple(times), rates=tuple(rates))


def payoff_from_config(doc: dict):
    """A PayoffSpec from config.payoff: {"kind": "call", "put" or "digital", "strike": K}
    or {"kind": "custom", "table": {"s": [...], "values": [...]}}."""
    from . import pricing as pricing_mod
    where = "config.payoff"
    doc = _require({"payoff": doc}, "payoff", dict, "payoff config")
    kind = _require(doc, "kind", str, where=where)
    makers = {"call": pricing_mod.call_payoff, "put": pricing_mod.put_payoff,
              "digital": pricing_mod.digital_payoff}
    if kind in makers:
        _declared(where, doc, ("kind", "strike"))
        return makers[kind](_require(doc, "strike", float, where=where))
    if kind != "custom":
        raise ValueError(f"{where}.kind must be one of call, put, digital, custom, "
                         f"not {kind!r}")
    _declared(where, doc, ("kind", "table"))
    table = _declared(f"{where}.table", _require(doc, "table", dict, "an {s, values} object",
                                                 where=where), ("s", "values"))
    return pricing_mod.table_payoff(*(_require(table, key, list[float], where=f"{where}.table")
                                      for key in ("s", "values")))


def _curve_from_config(cfg: dict) -> DiscountCurve:
    if isinstance(cfg.get("curve"), (int, float)):
        return DiscountCurve.flat(_require(cfg, "curve", float))
    if cfg.get("curve") is None:  # null reads as absent, as a null model or payoff does
        raise ValueError("config.curve is required (a rate or a [{t, r}] list)")
    return load_curve(_require(cfg, "curve", list))


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args, cfg: dict) -> tuple:
    model = load_model_config(cfg.get("model"))
    S0 = _require(cfg, "S0", float, "initial state")
    grid = TimeGrid(t0=_require(cfg, "t0", float, default=0.0),
                    dt=_require(cfg, "dt", float, "step size"),
                    n_steps=_require(cfg, "n_steps", 1))
    n_paths = _require(cfg, "n_paths", 1)
    include_paths = _require(cfg, "include_paths", bool, default=False)

    batch = simulate_paths(model, S0, grid, n_paths, args.seed, threads=args.threads)
    terminal = [_mean_and_se(batch.paths[:, -1, a]) for a in range(batch.dim)]

    doc = {
        "seed": args.seed, "model_hash": batch.model_hash,
        "grid": {"t0": grid.t0, "dt": grid.dt, "n_steps": grid.n_steps},
        "n_paths": n_paths,
        "terminal": {"mean": [m for m, _ in terminal],
                     "std_error": [s for _, s in terminal]},
    }
    if include_paths:
        doc["paths"] = batch.paths

    def csv(fh):
        fh.write(f"# seed = {args.seed}\n"
                 f"# model_hash = {batch.model_hash}\n"
                 f"# t0 = {fmt17(grid.t0)}\n"
                 f"# dt = {fmt17(grid.dt)}\n"
                 f"# n_steps = {grid.n_steps}\n")
        for a, (mean, se) in enumerate(terminal):
            fh.write(f"# terminal_mean_{a} = {fmt17(mean)}\n"
                     f"# terminal_se_{a} = {fmt17(se)}\n")
        export_paths_csv(batch, fh)
    return doc, csv


# ---------------------------------------------------------------------------
# density


def _comparison_grid(model, S0: float, t: float, cfg: dict,
                     n_nodes: int, half_width: float) -> np.ndarray:
    explicit = _section(cfg, "grid", lo=float, hi=float, n=3)
    if cfg.get("grid") is None:
        return _analytic_density(model, S0, t).default_grid(n_nodes, half_width)
    lo, hi = (_require_finite(f"config.grid.{key}",
                              _require(explicit, key, float, what, where="config.grid"))
              for key, what in (("lo", "grid start"), ("hi", "grid end")))
    if not 0 < hi - lo < math.inf:
        raise ValueError("config.grid needs lo < hi and a finite hi - lo")
    return np.linspace(lo, hi, explicit.get("n", n_nodes))


def _analytic_density(model, S0: float, t: float):
    analytic = None if model.family is None else model.family.density(S0, t)
    if analytic is None:
        raise ValueError("the model has no family: method 'analytic' needs one for its "
                         "closed form and 'fokker-planck' for its grid; supply config.grid "
                         "= {lo, hi, n} and method 'path-integral', which runs on it")
    return analytic


def _density_by_method(method: str, model, S0: float, t: float,
                       s: np.ndarray, n_steps: int, n_nodes: int,
                       half_width: float) -> np.ndarray:
    from . import density as density_mod, pathintegral as pi_mod
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


def cmd_density(args, cfg: dict) -> tuple:
    from . import density as density_mod
    model = load_model_config(cfg.get("model"))
    S0 = _require_finite("config.S0", _require(cfg, "S0", float, "initial state"))
    t = _require_positive("config.t", _require(cfg, "t", float, "target time"))
    methods = cfg.get("method", "analytic")
    if isinstance(methods, str):
        methods = [methods]
    if not isinstance(methods, list) or not methods \
            or any(m not in _DENSITY_METHODS for m in methods):
        raise ValueError("config.method must be a method or a non-empty list "
                         f"of methods from {_DENSITY_METHODS}")
    res = _section(cfg, "resolution", n_nodes=5, half_width=float, n_steps=1)
    half_width = res.get("half_width", 8.0)
    n_nodes = density_mod._grid_nodes(res.get("n_nodes", 801), half_width)
    n_steps = res.get("n_steps", 256)

    s = _comparison_grid(model, S0, t, cfg, n_nodes, half_width)
    tables = {m: _density_by_method(m, model, S0, t, s, n_steps, n_nodes,
                                    half_width) for m in methods}
    w = density_mod.trapezoid_weights(s)
    l1 = {f"{a}|{b}": float(np.sum(w * np.abs(tables[a] - tables[b])))
          for a, b in itertools.combinations(methods, 2)}

    mhash = model_hash(model)

    def csv():
        yield from (f"# t = {fmt17(t)}\n", f"# model_hash = {mhash}\n")
        yield from (f"# L1({key}) = {fmt17(l1[key])}\n" for key in sorted(l1))
        yield "S," + ",".join(m.replace("-", "_") for m in methods) + "\n"
        template = ",".join(["%.17g"] * (len(methods) + 1)) + "\n"
        columns = np.column_stack([s] + [tables[m] for m in methods])
        yield from (template % tuple(row) for row in columns.tolist())
    return {"t": t, "model_hash": mhash, "s": s, "densities": tables, "l1": l1}, csv()


# ---------------------------------------------------------------------------
# price


def _price_one(method: str, model, curve: DiscountCurve,
               payoff, S0: float, T: float, settings: dict, seed: int,
               threads: int) -> dict:
    from . import pathintegral as pi_mod, pricing as pricing_mod
    sub = dict(settings.get(method, {}))
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
        fn = pricing_mod.pv_pde(payoff, curve, model.family.sigma, S0, T, **sub)
        return {"value": float(fn(S0))}
    if method == "green":
        dt = _dt_from(sub, T, 256)
        green = pi_mod.greens_function(model, curve, 0.0, S0, T, dt, **sub)
        return {"value": pricing_mod.pv_green(green, payoff),
                "mass": green.total_mass()}
    if method == "mc":
        dt, n_paths = _dt_from(sub, T, 64), sub.pop("n_paths", 100000)
        est = pricing_mod.pv_mc(model, curve, payoff, S0, T, dt, n_paths, seed,
                                threads=threads, **sub)
        return {"value": est.mean, "std_error": est.std_error,
                "n_paths": est.n_paths,
                "sampler": est.metadata.get("sampler", "")}
    raise ValueError(f"price method must be 'all' or one of {_PRICE_METHODS}")


def cmd_price(args, cfg: dict) -> tuple:
    model = load_model_config(cfg.get("model"))
    curve = _curve_from_config(cfg)
    payoff = payoff_from_config(cfg.get("payoff"))
    S0 = _require_finite("config.S0", _require(cfg, "S0", float, "spot"))
    T = _require_finite("config.T", _require(cfg, "T", float, "horizon"))
    method = _require(cfg, "method", str, default="analytic")
    methods = list(_PRICE_METHODS) if method == "all" else [method]
    # each route's checked settings: all three are checked before any route runs
    settings = {"pde": _section(cfg, "pde", n_nodes=5, n_steps=1, half_width=float),
                "green": _section(cfg, "green", n_nodes=5, n_steps=1, dt=float, half_width=float),
                "mc": _section(cfg, "mc", n_paths=1, n_steps=1, dt=float, exact_terminal=bool)}

    results = {m: _price_one(m, model, curve, payoff, S0, T, settings, args.seed,
                             args.threads) for m in methods}
    agreement = {}
    for a, b in itertools.combinations(methods, 2):
        va, vb = results[a]["value"], results[b]["value"]
        gap = abs(va - vb)
        agreement[f"{a}|{b}"] = {"abs": gap,
                                 "rel": gap / max(abs(va), abs(vb), 1e-300)}

    doc = {"S0": S0, "T": T, "seed": args.seed, "model_hash": model_hash(model),
           "results": results}
    if len(methods) > 1:
        doc["agreement"] = agreement
    return doc, [
        f"# model_hash = {doc['model_hash']}\n",
        "method,value,std_error\n",
        *(f"{m},{fmt17(r['value'])},"
          f"{fmt17(r['std_error']) if 'std_error' in r else ''}\n"
          for m, r in results.items()),
        *(f"# gap({key}) = {fmt17(agreement[key]['abs'])}\n"
          for key in sorted(agreement))]


# ---------------------------------------------------------------------------
# greeks / hedge / index


def cmd_greeks(args, cfg: dict) -> tuple:
    from . import pricing as pricing_mod
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
    return doc, [
        "quantity,value\n",
        *(f"{key},{fmt17(doc[key])}\n"
          for key in ("call", "put", "delta", "kappa", "gamma")),
        f"degenerate,{str(doc['degenerate']).lower()}\n"]


def cmd_hedge(args, cfg: dict) -> tuple:
    from . import risk as risk_mod
    rows = _require(cfg, "instruments", list, "instrument list")
    instruments = []
    for i, row in enumerate(rows):
        where = f"config.instruments[{i}]"
        if not isinstance(row, dict):
            raise ValueError(f"{where} must be an object")
        _declared(where, row, ("name", "delta", "kappa", "gamma"))
        delta, kappa, gamma = (
            _require_finite(f"{where}.{greek}",
                            _require(row, greek, float, "a sensitivity", where=where))
            for greek in ("delta", "kappa", "gamma"))
        instruments.append(risk_mod.Instrument(
            delta, kappa, gamma, name=_require(row, "name", str, default=str(i), where=where)))
    targets = _require(cfg, "targets", list, default=["kappa"])
    report = risk_mod.neutralize(
        instruments, targets,
        normalization=cfg.get("normalization", "first"),
        values=None if cfg.get("values") is None else _require(cfg, "values", list[float]))
    doc = risk_mod.hedge_report_doc(report)
    doc["names"] = [inst.name for inst in instruments]
    doc["targets"] = list(targets)
    return doc, [
        f"# delta = {fmt17(report.delta)}\n",
        f"# condition_number = {fmt17(report.condition_number)}\n",
        *(f"# residual_{t} = {fmt17(report.residual_greeks[t])}\n"
          for t in sorted(report.residual_greeks)),
        "name,alpha\n",
        *(f"{inst.name},{fmt17(alpha)}\n"
          for inst, alpha in zip(instruments, report.alphas))]


def cmd_index(args, cfg: dict) -> tuple:
    from . import risk as risk_mod
    inputs = risk_mod.IndexInputs(
        prices=_require(cfg, "prices", list[float], "asset prices"),
        sigmas=_require(cfg, "sigmas", list[float], "asset volatilities"))
    result = risk_mod.index_weights(inputs)
    doc = {"weights": list(result.weights),
           "index_variance": result.index_variance,
           "degenerate": result.degenerate}
    return doc, [
        f"# index_variance = {fmt17(result.index_variance)}\n",
        f"# degenerate = {str(result.degenerate).lower()}\n",
        "asset,weight\n",
        *(f"{i},{fmt17(wv)}\n" for i, wv in enumerate(result.weights))]


# ---------------------------------------------------------------------------
# check


def _check_price_cell(K: float, sigma: float, T: float, seed: int,
                      threads: int) -> list[dict]:
    from . import pricing as pricing_mod
    S0, r = 100.0, 0.05
    args = (make_gbm(r, sigma), DiscountCurve.flat(r), pricing_mod.call_payoff(K),
            S0, T, {"mc": {"n_paths": 200000, "exact_terminal": True}}, seed,
            threads)
    ref = _price_one("analytic", *args)["value"]
    label = f"K={K:g} sigma={sigma:g} T={T:g}"
    checks = []
    for method in ("pde", "green"):
        rel = abs(_price_one(method, *args)["value"] - ref) / ref
        checks.append({"name": f"price {method} vs analytic [{label}]",
                       "measure": rel, "limit": 1e-3, "passed": rel < 1e-3})
    est = _price_one("mc", *args)
    z = abs(est["value"] - ref) / est["std_error"]
    checks.append({"name": f"price mc z-score [{label}]",
                   "measure": z, "limit": 4.0, "passed": z < 4.0})
    return checks


def _check_density(kind: str, method: str) -> dict:
    from . import density as density_mod
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


def cmd_check(args, cfg: dict) -> tuple:
    checks = []
    for K, sigma, T in ((80.0, 0.4, 2.0), (100.0, 0.2, 1.0),
                        (120.0, 0.1, 0.25)):
        checks.extend(_check_price_cell(K, sigma, T, args.seed, args.threads))
    checks += [_check_density(kind, method) for kind in ("bm", "gbm", "vasicek")
               for method in ("fokker-planck", "path-integral")]

    doc = {"passed": all(c["passed"] for c in checks), "n_checks": len(checks),
           "checks": checks}
    return doc, [
        "name,measure,limit,passed\n",
        *(f"{json.dumps(c['name'])},{fmt17(c['measure'])},"
          f"{fmt17(c['limit'])},{str(c['passed']).lower()}\n" for c in checks)]


# ---------------------------------------------------------------------------
# Entry point


# name: (handler, default format, whether it samples noise and so takes
# --seed and --threads and records the seed in the sidecar, help text, the
# config keys the handler reads; format, and seed and threads where it samples)
_COMMANDS = {
    "simulate": (cmd_simulate, "csv", True, "sample Euler paths and summary statistics",
                 ("model", "S0", "t0", "dt", "n_steps", "n_paths", "include_paths")),
    "density": (cmd_density, "csv", False, "tabulate a terminal density by one or more methods",
                ("model", "S0", "t", "method", "resolution", "grid")),
    "price": (cmd_price, "json", True, "value a payoff by analytic, pde, green or mc routes",
              ("model", "curve", "payoff", "S0", "T", "method", "pde", "green", "mc")),
    "greeks": (cmd_greeks, "json", False, "closed-form call sensitivities",
               ("S", "K", "r", "sigma", "t")),
    "hedge": (cmd_hedge, "json", False, "solve for sensitivity-neutral position sizes",
              ("instruments", "targets", "normalization", "values")),
    "index": (cmd_index, "json", False, "variance-minimizing index weights",
              ("prices", "sigmas")),
    "check": (cmd_check, "json", True, "run the cross-method agreement suite", ()),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochastica",
        description="Simulate diffusions, evolve densities, price and hedge.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, default_format, samples, help_text, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--format", choices=_FORMATS,
                        help="output format (default: config.format, else "
                             f"{default_format})")
        if samples:
            sp.add_argument("--seed", type=int, help="overrides config.seed")
            sp.add_argument("--threads", type=int,
                            help="worker threads (default: config.threads, "
                                 "else the CPUs this process may use); "
                                 "results do not depend on it")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, default_format, samples, _, keys = _COMMANDS[args.command]
    try:
        cfg = _declared("config", _load_config(args.config),
                        keys + ("format", "seed", "threads")[:3 if samples else 1])
        fmt = args.format or cfg.get("format") or default_format
        if fmt not in _FORMATS:
            raise ValueError(f"config.format must be one of {_FORMATS}, not {fmt!r}")
        meta = {"command": args.command}
        if samples:
            args.seed = meta["seed"] = _flag_or_config(args, cfg, "seed", validate_seed, 0)
            args.threads = _flag_or_config(args, cfg, "threads", _resolve_threads)
        doc, csv = handler(args, cfg)
        _write_output(args.out, meta,
                      csv if fmt == "csv" else itertools.chain(_json_pieces(doc), ["\n"]))
        if doc.get("passed") is False:
            raise NumericalError(
                "cross-method agreement suite failed; see the report for the "
                "failing checks")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout early; its final flush at exit would
        # raise again, so what is left of it goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
