"""Command-line front end: determinism, formats, exit codes."""

import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import stochastica
from stochastica import BSParams, bs_price, cli, load_model_config, mc, payoff_from_config
from stochastica.cli import _build_parser, _curve_from_config, emit_json, main


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


GBM_PRICE_DOC = {
    "model": {"type": "gbm", "params": {"mu": 0.05, "sigma": 0.2}},
    "curve": 0.05,
    "payoff": {"kind": "call", "strike": 100.0},
    "S0": 100.0,
    "T": 1.0,
    "method": "mc",
    "mc": {"n_paths": 20000, "dt": 0.25},
}

SIM_DOC = {
    "model": {"type": "gbm", "params": {"mu": 0.05, "sigma": 0.2}},
    "S0": 100.0,
    "dt": 0.25,
    "n_steps": 4,
    "n_paths": 3,
}


# ---------------------------------------------------------------------------
# deterministic JSON emitter


def test_emit_json_sorted_and_roundtrip():
    text = emit_json({"b": 1, "a": [0.1, True, None], "c": "x"})
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    doc = json.loads(text)
    assert doc["a"][0] == 0.1
    assert doc["a"][1] is True and doc["a"][2] is None


def test_emit_json_nonfinite_floats_are_strings():
    doc = json.loads(emit_json({"x": math.inf, "y": math.nan}))
    assert doc["x"] == "inf"
    assert doc["y"] == "nan"


def test_emit_json_rejects_unknown_types():
    with pytest.raises(ValueError):
        emit_json({"x": object()})
    for obj in ([1, object()], np.array([1 + 2j]), np.array([True]),
                np.array([0.5, object()], dtype=object),
                [np.array(["a"], dtype=bytes)]):
        with pytest.raises(ValueError):
            emit_json(obj)


def _reference_scalar(x) -> str:
    # value-by-value rendering the bulk float-array route must reproduce
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        text = f"{float(x):.17g}"
        return text if math.isfinite(float(x)) else json.dumps(text)
    if isinstance(x, str):
        return json.dumps(x)
    raise ValueError(f"cannot serialize {type(x).__name__} to JSON")


def _reference_emit_json(obj, indent=0):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: "
                 f"{_reference_emit_json(obj[k], indent + 1)}"
                 for k in sorted(obj)]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        parts = [f"{inner}{_reference_emit_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    return _reference_scalar(obj)


_SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1]
_RNG = np.random.default_rng(7)
_EMIT_CASES = {
    **{f"f64{shape}": _RNG.normal(size=shape) * 10.0 ** _RNG.integers(-5, 5, shape)
       for shape in [(3,), (2, 3), (4, 5, 1), (3, 2, 2)]},
    **{f"f32{shape}": _RNG.normal(size=shape).astype(np.float32)
       for shape in [(3,), (2, 3), (4, 5, 1)]},
    **{f"empty{shape}": np.zeros(shape) for shape in [(0,), (2, 0), (0, 3)]},
    "specials": np.array(_SPECIALS),
    "specials_2d": np.array(_SPECIALS[:6]).reshape(3, 2),
    "specials_f32": np.array([math.nan, math.inf, -math.inf, -0.0, 1e-45, 3e38,
                              0.1], dtype=np.float32),
    "ints": np.arange(6).reshape(2, 3),
    "mixed_list": [1, True, None, "s", np.int64(7), 2.5, np.float32(0.1),
                   [], [[1.0, [math.inf]], ()]],
    "mixed_tuple": (False, -3, np.uint8(4), ("x", [None, -0.0])),
    "arrays_in_lists": [np.ones((2, 2)), [np.array([math.nan])], np.zeros(0)],
    "nested_dict": {"b": {"a": np.array([[1.5, -2.0]])}, "a": [{}, {"x": 1}]},
}


@pytest.mark.parametrize("name", sorted(_EMIT_CASES))
def test_emit_json_matches_value_by_value_rendering(name):
    obj = _EMIT_CASES[name]
    for doc, indent in ((obj, 0), ({"k": obj}, 0), ([[obj]], 3)):
        assert emit_json(doc, indent) == _reference_emit_json(doc, indent)


def test_emit_json_blocks_of_rows_keep_the_bytes(monkeypatch):
    # rows split across tolist() blocks, and rows wider than a block
    monkeypatch.setattr(cli, "_CHUNK", 4)
    for name in ("f64(4, 5, 1)", "f64(3, 2, 2)", "specials", "specials_2d"):
        doc = {"k": _EMIT_CASES[name]}
        assert emit_json(doc, 1) == _reference_emit_json(doc, 1)


# ---------------------------------------------------------------------------
# rerun determinism


def test_price_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "price.json", GBM_PRICE_DOC)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["price", "--config", cfg, "--out", out1]) == 0
    assert main(["price", "--config", cfg, "--out", out2]) == 0
    body1 = open(out1, "rb").read()
    assert body1 == open(out2, "rb").read()

    # the seed changes the estimate, so the body must change
    out3 = str(tmp_path / "c.json")
    assert main(["price", "--config", cfg, "--seed", "9", "--out", out3]) == 0
    assert body1 != open(out3, "rb").read()


def test_thread_count_never_changes_the_body(tmp_path):
    cfg = write_config(tmp_path, "price.json",
                       dict(GBM_PRICE_DOC, mc={"n_paths": 20000, "dt": 0.25,
                                               "exact_terminal": False}))
    bodies = []
    for threads in ("1", "3"):
        out = str(tmp_path / f"t{threads}.json")
        assert main(["price", "--config", cfg, "--threads", threads,
                     "--out", out]) == 0
        bodies.append(open(out, "rb").read())
    assert bodies[0] == bodies[1]


def test_timestamps_live_in_the_sidecar_only(tmp_path):
    cfg = write_config(tmp_path, "sim.json", SIM_DOC)
    out = str(tmp_path / "paths.csv")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    body = open(out, encoding="utf-8").read()
    assert "created" not in body and "20" + "26" not in body.split("\n")[0]
    meta = json.loads(open(out + ".meta.json", encoding="utf-8").read())
    assert "created_utc" in meta
    assert meta["command"] == "simulate"
    assert meta["seed"] == 0


def test_seed_flag_overrides_config_seed(tmp_path, capsys):
    cfg5 = write_config(tmp_path, "s5.json", dict(SIM_DOC, seed=5,
                                                  format="json"))
    cfg9 = write_config(tmp_path, "s9.json", dict(SIM_DOC, seed=9,
                                                  format="json"))
    assert main(["simulate", "--config", cfg5, "--seed", "9"]) == 0
    flagged = capsys.readouterr().out
    assert main(["simulate", "--config", cfg9]) == 0
    assert flagged == capsys.readouterr().out
    assert main(["simulate", "--config", cfg5]) == 0
    assert flagged != capsys.readouterr().out


@pytest.mark.parametrize("where, source", [("flag", "--seed"), ("config", "config.seed")])
def test_a_bad_seed_exits_2_naming_its_source(tmp_path, capsys, where, source):
    # the error used to say only "seed must satisfy 0 <= seed < 2**64"
    doc = dict(SIM_DOC, seed=-1) if where == "config" else SIM_DOC
    argv = ["simulate", "--config", write_config(tmp_path, "sim.json", doc)]
    if where == "flag":
        argv += ["--seed", "-1"]
    assert main(argv) == 2
    assert f"error: {source}: seed must satisfy" in capsys.readouterr().err


@pytest.mark.parametrize("where,value,source", [
    ("config", 2.7, "config.threads"),
    ("config", True, "config.threads"),
    ("config", 0, "config.threads"),
    ("flag", "0", "--threads"),
])
def test_invalid_threads_exit_2_naming_their_source(tmp_path, capsys, where,
                                                    value, source):
    doc = dict(SIM_DOC, threads=value) if where == "config" else SIM_DOC
    cfg = write_config(tmp_path, "sim.json", doc)
    argv = ["simulate", "--config", cfg]
    if where == "flag":
        argv += ["--threads", value]
    assert main(argv) == 2
    assert f"error: {source}: threads must be" in capsys.readouterr().err


def test_threads_resolve_flag_then_config_then_env_then_cpus(tmp_path, monkeypatch):
    seen = []
    real = cli.simulate_paths

    def recording(*args, threads, **kwargs):
        seen.append(threads)
        return real(*args, threads=threads, **kwargs)

    def threads_of(cfg, *flag):
        path = write_config(tmp_path, "sim.json", dict(SIM_DOC, **cfg))
        out = str(tmp_path / "sim.csv")
        assert main(["simulate", "--config", path, "--out", out, *flag]) == 0
        return seen.pop()

    monkeypatch.setattr(cli, "simulate_paths", recording)
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    assert threads_of({}) == 3
    # the environment is not a source: config and flag alone override the CPUs
    monkeypatch.setenv("STOCHASTICA_THREADS", "2")
    assert threads_of({}) == 3
    assert threads_of({"threads": 4}) == 4
    assert threads_of({"threads": "bad"}, "--threads", "5") == 5


@pytest.mark.parametrize("fmt, digest", [
    # sha256 of the bodies written by the value-by-value emitters
    ("csv", "e97eb35cfb585a635ff760db1cc1ae1478389a92e08b5aa66379bf5a451b2f1f"),
    ("json", "f073ff4a74355ff60b001a1e7278e5a3287700039376197566396066c70b7379"),
])
def test_simulate_bodies_keep_their_bytes(tmp_path, fmt, digest):
    cfg = write_config(tmp_path, "sim.json", dict(SIM_DOC, include_paths=True))
    out = str(tmp_path / f"sim.{fmt}")
    assert main(["simulate", "--config", cfg, "--format", fmt, "--out", out]) == 0
    with open(out, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


def _env_with_the_package():
    # a subprocess sees the package under test however pytest found it
    src = os.path.dirname(os.path.dirname(stochastica.__file__))
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_hedge_and_index_load_no_scipy(tmp_path):
    # nor the grid, lattice and pricing routes, the noise generators or the
    # thread pool, none of which they run
    hedge = write_config(tmp_path, "hedge.json", {"instruments": [
        {"name": "a", "delta": 0.6, "kappa": 1.0, "gamma": 0.02},
        {"name": "b", "delta": 0.4, "kappa": -1.0, "gamma": 0.01}]})
    index = write_config(tmp_path, "index.json",
                         {"prices": [1.0, 2.0], "sigmas": [0.1, 0.2]})
    script = (
        "import sys\n"
        "from stochastica.cli import main\n"
        "unused = ('scipy', 'stochastica.density', 'stochastica.pathintegral',\n"
        "          'stochastica.pricing', 'numpy.random', 'concurrent.futures')\n"
        "def unused_loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if any(m == u or m.startswith(u + '.') for u in unused))\n"
        "print(unused_loaded())\n"
        "assert main(['hedge', '--config', sys.argv[1], '--out', sys.argv[3]]) == 0\n"
        "assert main(['index', '--config', sys.argv[2], '--out', sys.argv[4]]) == 0\n"
        "print(unused_loaded())\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, hedge, index,
         str(tmp_path / "hedge.out"), str(tmp_path / "index.out")],
        capture_output=True, text=True, env=_env_with_the_package())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_simulate_memory_does_not_grow_with_the_output(tmp_path, fmt):
    # the whole body used to be built in memory (several copies for JSON)
    # before it was written
    warm = write_config(tmp_path, "warm.json", SIM_DOC)
    assert main(["simulate", "--config", warm, "--out", str(tmp_path / "warm")]) == 0
    cfg = write_config(tmp_path, "sim.json", dict(
        SIM_DOC, dt=1 / 64, n_steps=64, n_paths=4000, include_paths=True))
    out = str(tmp_path / f"sim.{fmt}")
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", cfg, "--format", fmt,
                     "--threads", "1", "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < os.path.getsize(out)


def test_a_failed_body_leaves_no_partial_out(tmp_path, capsys, monkeypatch):
    def export_then_fail(batch, fh):
        fh.write("path_id,step,asset,value\n0,0,0,100\n")
        raise ValueError("failed mid-body")

    monkeypatch.setattr(cli, "export_paths_csv", export_then_fail)
    cfg = write_config(tmp_path, "sim.json", SIM_DOC)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "failed mid-body" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["sim.json"]
    out.write_text("earlier body", encoding="utf-8")
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert out.read_text(encoding="utf-8") == "earlier body"
    assert sorted(os.listdir(tmp_path)) == ["sim.csv", "sim.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_out_may_be_a_named_pipe(tmp_path):
    # a file renamed over a pipe or a device such as /dev/null would
    # replace it, so these are written in place
    pipe = str(tmp_path / "pipe")
    os.mkfifo(pipe)
    got = []

    def read():
        with open(pipe, "rb") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    cfg = write_config(tmp_path, "greeks.json",
                       {"S": 100.0, "K": 110.0, "r": 0.05, "sigma": 0.25, "t": 0.75})
    assert main(["greeks", "--config", cfg, "--out", pipe]) == 0
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert json.loads(got[0])["call"] > 0


# ---------------------------------------------------------------------------
# per-command output shapes


def test_simulate_csv_layout(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", SIM_DOC)
    assert main(["simulate", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "# seed = 0"
    assert lines[1].startswith("# model_hash = ")
    assert lines[2] == "# t0 = 0"
    assert lines[3] == "# dt = 0.25"
    assert lines[4] == "# n_steps = 4"
    assert lines[5].startswith("# terminal_mean_0 = ")
    assert lines[6].startswith("# terminal_se_0 = ")
    assert lines[7] == "path_id,step,asset,value"
    assert len(lines) == 8 + 3 * 5  # n_paths * (n_steps + 1) value rows


def test_simulate_json_omits_paths_by_default(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", dict(SIM_DOC, format="json"))
    assert main(["simulate", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "paths" not in doc
    assert len(doc["terminal"]["mean"]) == 1
    cfg2 = write_config(tmp_path, "sim2.json",
                        dict(SIM_DOC, format="json", include_paths=True))
    assert main(["simulate", "--config", cfg2]) == 0
    doc2 = json.loads(capsys.readouterr().out)
    assert len(doc2["paths"]) == 3


def test_density_csv_compares_methods(tmp_path, capsys):
    cfg = write_config(tmp_path, "den.json", {
        "model": {"type": "bm", "params": {"mu": 0.1, "sigma": 0.3}},
        "S0": 0.0,
        "t": 0.5,
        "method": ["analytic", "fokker-planck", "path-integral"],
        "resolution": {"n_nodes": 401, "n_steps": 64},
    })
    assert main(["density", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "# t = 0.5"
    assert lines[1].startswith("# model_hash = ")
    l1 = {}
    for line in lines[2:5]:
        key, val = line[2:].split(" = ")
        l1[key] = float(val)
    assert set(l1) == {"L1(analytic|fokker-planck)",
                       "L1(analytic|path-integral)",
                       "L1(fokker-planck|path-integral)"}
    assert all(v < 5e-3 for v in l1.values())
    assert lines[5] == "S,analytic,fokker_planck,path_integral"
    assert len(lines) == 6 + 401
    # each row as a value-by-value fmt17 rendering of the JSON tables
    assert main(["density", "--config", cfg, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    tables = [doc["densities"][m]
              for m in ("analytic", "fokker-planck", "path-integral")]
    assert lines[6:] == [",".join(mc.fmt17(v) for v in [s, *(t[i] for t in tables)])
                         for i, s in enumerate(doc["s"])]


def test_density_explicit_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, "den.json", {
        "model": {"type": "bm", "params": {"mu": 0.0, "sigma": 1.0}},
        "S0": 0.0,
        "t": 1.0,
        "method": "analytic",
        "format": "json",
        "grid": {"lo": -5.0, "hi": 5.0, "n": 11},
    })
    assert main(["density", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["s"][0] == -5.0 and doc["s"][-1] == 5.0
    assert len(doc["densities"]["analytic"]) == 11
    assert doc["l1"] == {}


def test_price_method_all_reports_agreement(tmp_path, capsys):
    cfg = write_config(tmp_path, "price.json", dict(
        GBM_PRICE_DOC, method="all",
        green={"n_steps": 128},
        mc={"n_paths": 50000, "dt": 0.25}))
    assert main(["price", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    want = bs_price(BSParams(S=100.0, K=100.0, r=0.05, sigma=0.2, t=1.0))
    res = doc["results"]
    assert res["analytic"]["value"] == pytest.approx(want, abs=1e-12)
    assert res["pde"]["value"] == pytest.approx(want, rel=1e-3)
    assert res["green"]["value"] == pytest.approx(want, rel=1e-3)
    assert res["mc"]["sampler"] == "exact-terminal"
    assert abs(res["mc"]["value"] - want) < 5 * res["mc"]["std_error"]
    assert doc["agreement"]["analytic|pde"]["rel"] < 1e-3
    assert doc["agreement"]["analytic|green"]["rel"] < 1e-3


def test_greeks_both_formats(tmp_path, capsys):
    doc_in = {"S": 100.0, "K": 110.0, "r": 0.05, "sigma": 0.25, "t": 0.75}
    cfg = write_config(tmp_path, "greeks.json", doc_in)
    assert main(["greeks", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    p = BSParams(**{k: doc_in[k] for k in ("S", "K", "r", "sigma", "t")})
    assert doc["call"] == pytest.approx(bs_price(p), abs=1e-15)
    assert doc["degenerate"] is False
    assert main(["greeks", "--config", cfg, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "quantity,value"
    assert [ln.split(",")[0] for ln in lines[1:]] == [
        "call", "put", "delta", "kappa", "gamma", "degenerate"]


def test_hedge_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "hedge.json", {
        "instruments": [
            {"name": "a", "delta": 0.6, "kappa": 1.0, "gamma": 0.02},
            {"name": "b", "delta": 0.4, "kappa": -1.0, "gamma": 0.01},
        ],
        "targets": ["kappa"],
    })
    assert main(["hedge", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["weights"] == [pytest.approx(1.0), pytest.approx(1.0)]
    assert doc["delta"] == pytest.approx(1.0)
    assert doc["residual_greeks"]["kappa"] == pytest.approx(0.0, abs=1e-12)
    assert main(["hedge", "--config", cfg, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "# delta = 1"
    rows = dict(line.split(",") for line in lines[-2:])
    assert float(rows["a"]) == pytest.approx(1.0, rel=1e-12)
    assert float(rows["b"]) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("name", [{"a": 1}, 7, None, ["a"]])
def test_hedge_instrument_names_must_be_strings(tmp_path, capsys, name):
    # str() used to write {"a": 1} into the CSV as {'a': 1} and exit 0
    rows = [dict(HEDGE_DOC["instruments"][0], name=name), HEDGE_DOC["instruments"][1]]
    cfg = write_config(tmp_path, "hedge.json", {"instruments": rows})
    assert main(["hedge", "--config", cfg, "--format", "csv"]) == 2
    assert "config.instruments[0].name must be a string" in capsys.readouterr().err


def test_an_unnamed_hedge_instrument_is_named_by_its_row(tmp_path, capsys):
    rows = [{k: v for k, v in row.items() if k != "name"} for row in HEDGE_DOC["instruments"]]
    cfg = write_config(tmp_path, "hedge.json", {"instruments": rows})
    assert main(["hedge", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["names"] == ["0", "1"]


def test_index_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "index.json",
                       {"prices": [1.0, 1.0], "sigmas": [0.1, 0.2]})
    assert main(["index", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["weights"] == [pytest.approx(0.8), pytest.approx(0.2)]
    assert doc["index_variance"] == pytest.approx(0.008)
    assert doc["degenerate"] is False


@pytest.mark.parametrize("sigma", [1e-200, 1e-160])
def test_index_takes_an_underflowing_volatility_as_riskless(tmp_path, capsys, sigma):
    # these used to exit 0 writing weights ["nan", 0] or [0, 0], variance 0, not degenerate
    cfg = write_config(tmp_path, "index.json", {"prices": [1.0, 1.0], "sigmas": [sigma, 0.2]})
    assert main(["index", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"weights": [1.0, 0.0], "index_variance": 0.0, "degenerate": True}


def test_index_keeps_a_weight_whose_price_times_variance_underflows(tmp_path, capsys):
    # this exited 0 writing weights ["inf", 2.4999999999999993e-199]
    cfg = write_config(tmp_path, "index.json", {"prices": [1e-200, 1.0],
                                                "sigmas": [1e-100, 0.2]})
    assert main(["index", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["weights"] == [1e200, 2.4999999999999993e-199]
    assert doc["degenerate"] is False


def test_check_suite_passes(tmp_path):
    out = str(tmp_path / "check.csv")
    assert main(["check", "--format", "csv", "--out", out]) == 0
    lines = open(out, encoding="utf-8").read().strip().split("\n")
    assert lines[0] == "name,measure,limit,passed"
    assert len(lines) == 1 + 15
    assert all(line.endswith(",true") for line in lines[1:])


# ---------------------------------------------------------------------------
# exit codes


def test_validation_errors_exit_2(tmp_path, capsys):
    missing = write_config(tmp_path, "bad.json",
                           {k: v for k, v in GBM_PRICE_DOC.items()
                            if k != "payoff"})
    assert main(["price", "--config", missing]) == 2
    assert "payoff" in capsys.readouterr().err

    bad_fmt = write_config(tmp_path, "fmt.json", dict(SIM_DOC, format="xml"))
    assert main(["simulate", "--config", bad_fmt]) == 2

    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert main(["simulate", "--config", str(bad_json)]) == 2
    assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("command, extra, key", [
    ("price", {"method": "green", "green": {"n_steps": 0}}, "config.green.n_steps"),
    ("price", {"method": "mc", "mc": {"n_steps": 0}}, "config.mc.n_steps"),
    ("price", {"method": "mc", "mc": {"n_steps": -2, "dt": 0.25}},
     "config.mc.n_steps"),
    ("density", {"resolution": {"n_steps": 0}}, "config.resolution.n_steps"),
    ("density", {"resolution": {"n_steps": 2.5}}, "config.resolution.n_steps"),
    # a zero dt divided by zero before any check
    ("price", {"method": "mc", "mc": {"dt": 0}}, "dt must be finite and positive"),
    ("price", {"method": "green", "green": {"dt": 0}},
     "dt must be finite and positive"),
])
def test_bad_step_counts_exit_2_naming_the_key(tmp_path, capsys, command,
                                               extra, key):
    # a zero step count used to divide by zero before any check
    base = GBM_PRICE_DOC if command == "price" else {
        "model": {"type": "bm", "params": {"mu": 0.1, "sigma": 0.3}},
        "S0": 0.0, "t": 1.0, "method": ["analytic", "path-integral"]}
    cfg = write_config(tmp_path, "steps.json", dict(base, **extra))
    assert main([command, "--config", cfg]) == 2
    assert key in capsys.readouterr().err


DENSITY_DOC = {
    "model": {"type": "bm", "params": {"mu": 0.1, "sigma": 0.3}},
    "S0": 0.0, "t": 1.0, "method": ["analytic", "path-integral"]}


@pytest.mark.parametrize("command, extra, key", [
    ("price", {"method": "mc", "mc": {"n_paths": 2000.9, "dt": 0.25}},
     "config.mc.n_paths"),
    ("price", {"method": "mc", "mc": {"n_paths": 0, "dt": 0.25}},
     "config.mc.n_paths"),
    ("price", {"method": "pde", "pde": {"n_nodes": 4}}, "config.pde.n_nodes"),
    ("price", {"method": "pde", "pde": {"n_nodes": 401.5}}, "config.pde.n_nodes"),
    ("price", {"method": "pde", "pde": {"n_steps": 0}}, "config.pde.n_steps"),
    ("price", {"method": "pde", "pde": {"n_steps": 64.5}}, "config.pde.n_steps"),
    ("price", {"method": "green", "green": {"n_nodes": 4}},
     "config.green.n_nodes"),
    ("price", {"method": "green", "green": {"n_nodes": 401.5}},
     "config.green.n_nodes"),
    ("density", {"resolution": {"n_nodes": 4}}, "config.resolution.n_nodes"),
    ("density", {"resolution": {"n_nodes": "801"}}, "config.resolution.n_nodes"),
    ("density", {"grid": {"lo": -2.0, "hi": 2.0, "n": 2}}, "config.grid.n"),
    ("density", {"grid": {"lo": -2.0, "hi": 2.0, "n": 401.5}}, "config.grid.n"),
    ("simulate", {"n_steps": 4.5}, "config.n_steps"),
    ("simulate", {"n_steps": 0}, "config.n_steps"),
    ("simulate", {"n_paths": 3.7}, "config.n_paths"),
    ("simulate", {"n_paths": True}, "config.n_paths"),
])
def test_bad_counts_exit_2_naming_the_key(tmp_path, capsys, command, extra,
                                          key):
    # int() used to truncate these: n_paths 2000.9 priced 2000 paths
    base = {"price": GBM_PRICE_DOC, "density": DENSITY_DOC,
            "simulate": SIM_DOC}[command]
    cfg = write_config(tmp_path, "counts.json", dict(base, **extra))
    assert main([command, "--config", cfg]) == 2
    assert key in capsys.readouterr().err


HEDGE_DOC = {"instruments": [
    {"name": "a", "delta": 0.6, "kappa": 1.0, "gamma": 0.02},
    {"name": "b", "delta": 0.4, "kappa": -1.0, "gamma": 0.01}]}
GREEKS_DOC = {"S": 100.0, "K": 100.0, "r": 0.05, "sigma": 0.2, "t": 1.0}
INDEX_DOC = {"prices": [100.0, 50.0], "sigmas": [0.2, 0.3]}


@pytest.mark.parametrize("command, extra, key", [
    ("density", {"grid": {"hi": 5}}, "config.grid.lo"),
    ("density", {"grid": {"lo": -2.0, "hi": None}}, "config.grid.hi"),
    ("density", {"grid": [1, 2]}, "config.grid"),
    ("density", {"resolution": {"half_width": None}}, "config.resolution.half_width"),
    ("density", {"resolution": [1, 2]}, "config.resolution"),
    ("price", {"method": "pde", "pde": {"half_width": None}}, "config.pde.half_width"),
    ("price", {"method": "pde", "pde": "fine"}, "config.pde"),
    ("price", {"method": "green", "green": {"half_width": "wide"}},
     "config.green.half_width"),
    ("price", {"method": "green", "green": {"dt": None}}, "config.green.dt"),
    ("price", {"mc": 5}, "config.mc"),
    ("price", {"payoff": {"kind": "call", "strike": 100.0, "stream": {"rate": 1.0}}},
     "config.payoff.stream is not a setting of config.payoff"),
    ("hedge", {"instruments": [dict(HEDGE_DOC["instruments"][0], delta=None),
                               HEDGE_DOC["instruments"][1]]},
     "config.instruments[0].delta"),
    ("hedge", {"instruments": [HEDGE_DOC["instruments"][0], {"delta": 0.4}]},
     "config.instruments[1].kappa"),
    ("hedge", {"targets": 5}, "config.targets"),
    ("simulate", {"t0": None}, "config.t0"),
    # a method that is not a string or a list used to raise a TypeError
    ("density", {"method": 5}, "config.method"),
    ("density", {"method": {"a": 1}}, "config.method"),
    ("density", {"method": {"analytic": 1}}, "config.method"),
    # flags used to be read by truthiness: "false" chose the exact sampler
    *(("price", {"mc": {"n_paths": 2000, "dt": 0.25, "exact_terminal": flag}},
       "config.mc.exact_terminal") for flag in ("false", "no", 0, 1)),
    *(("simulate", {"format": "json", "include_paths": flag},
       "config.include_paths") for flag in ("false", "no", 0, 1)),
    # float() read true as 1 (r = 1, sigma = 1, K = 1) and exited 0
    ("price", {"curve": True}, "config.curve"),
    ("greeks", {"sigma": True}, "config.sigma"),
    ("price", {"payoff": {"kind": "call", "strike": True}}, "payoff.strike"),
    ("price", {"model": {"type": "gbm", "params": {"mu": 0.05, "sigma": True}}},
     "params.sigma"),
    # an object in a list of numbers raised a TypeError
    ("index", {"prices": [100, {}]}, "config.prices"),
    ("hedge", {"normalization": "value", "values": [1, {}]}, "config.values"),
    # numpy and float() read true nested in a list as 1 and exited 0
    ("price", {"curve": [{"t": 0, "r": True}]}, "curve[0].r"),
    ("price", {"curve": [{"t": 0, "r": 0.05}, {"t": True, "r": 0.06}]}, "curve[1].t"),
    ("price", {"payoff": {"kind": "custom", "table": {"s": [True, 100, 150],
                                                      "values": [0, 0, 50]}}},
     "payoff.table.s"),
    ("price", {"payoff": {"kind": "custom", "table": {"s": [50, 100, 150],
                                                      "values": [0, True, 50]}}},
     "payoff.table.values"),
    ("simulate", {"model": {"type": "bm", "params": {"mu": [0, 0], "sigma": [1, 1]},
                            "correlation": [[1, 0], [0, True]]}}, "correlation"),
    ("simulate", {"model": {"type": "custom-grid", "params": {
        "s": [50, 100, 150], "drift": [0, 0, 0], "vol": [1, True, 1]}}}, "params.vol"),
    # dict() and list() read these as other JSON types and exited 0
    ("hedge", {"targets": {"kappa": 1}}, "config.targets must be an array"),
    ("price", {"model": [["type", "gbm"], ["params", {"mu": 0.05, "sigma": 0.2}]]},
     "config.model must be an object"),
    ("price", {"payoff": [["kind", "call"], ["strike", 100]]},
     "config.payoff must be an object"),
    # list() split a string into characters
    ("hedge", {"instruments": "ab"}, "config.instruments must be an array"),
    # float() read numbers written as JSON strings as numbers and exited 0
    ("price", {"S0": "100"}, "config.S0 must be a number"),
    ("price", {"T": "1"}, "config.T must be a number"),
    ("price", {"model": {"type": "gbm", "params": {"mu": "0.05", "sigma": 0.2}}},
     "params.mu must be a number"),
    ("price", {"payoff": {"kind": "call", "strike": "100"}}, "payoff.strike must be a number"),
    ("price", {"curve": [{"t": 0, "r": "0.05"}]}, "curve[0].r must be a number"),
    ("density", {"grid": {"lo": "-1", "hi": 2.0}}, "config.grid.lo must be a number"),
    # dt used to win without a word: n_steps 64 with dt 0.5 priced with 2 steps
    *(("price", {"method": route, route: {"n_steps": 64, "dt": 0.5}},
       f"error: config.{route}.n_steps and config.{route}.dt both set the step: give one\n")
      for route in ("mc", "green")),
    ("index", {"prices": [1.0, 5e-324], "sigmas": [1.0, 1.0]},
     "error: prices[1] is too small for a finite weight\n"),
    # a method that is no string failed as unhashable, with a traceback and exit 1
    ("price", {"method": ["pde"]}, "error: config.method must be a string, not ['pde']\n"),
    ("price", {"method": {"a": 1}}, "error: config.method must be a string, not {'a': 1}\n"),
    # float() was handed a list: a TypeError, a traceback and exit 1
    ("simulate", {"model": {"type": "gbm", "params": {"mu": [0.1, 0.2], "sigma": 0.2}}},
     "error: config.model.params.mu must be a number, not [0.1, 0.2]\n"),
    ("density", {"model": {"type": "vasicek", "params": {"a": [1.0], "b": 0.05,
                                                         "sigma": 0.02}}},
     "error: config.model.params.a must be a number, not [1.0]\n"),
    ("price", {"curve": [{"t": [0.0], "r": 0.05}]},
     "error: config.curve[0].t must be a number, not [0.0]\n"),
    ("price", {"payoff": {"kind": "call", "strike": [100.0]}},
     "error: config.payoff.strike must be a number, not [100.0]\n"),
    # a payoff key its kind does not take was read past, and mc priced with exit 0
    ("price", {"payoff": {"kind": "custom", "table": {
        "s": [50.0, 100.0, 150.0], "values": [0.0, 0.0, 50.0], "valuez": [1.0]}}},
     "error: config.payoff.table.valuez is not a setting of config.payoff.table, which takes "
     "s, values; did you mean config.payoff.table.values?\n"),
    ("price", {"payoff": {"kind": "call", "strike": 100.0,
                          "table": {"s": [50.0, 150.0], "values": [0.0, 50.0]}}},
     "error: config.payoff.table is not a setting of config.payoff, which takes kind, "
     "strike\n"),
    ("price", {"payoff": {"kind": "custom", "strike": 100.0,
                          "table": {"s": [50.0, 150.0], "values": [0.0, 50.0]}}},
     "error: config.payoff.strike is not a setting of config.payoff, which takes kind, "
     "table\n"),
    # a null curve reads as absent, as a null model or payoff does; a null point is present
    ("price", {"curve": None},
     "error: config.curve is required (a rate or a [{t, r}] list)\n"),
    ("price", {"curve": [None]}, "error: config.curve[0] must be an object, not None\n"),
])
def test_malformed_settings_exit_2_naming_the_key(tmp_path, capsys, command,
                                                  extra, key):
    base = {"price": GBM_PRICE_DOC, "density": DENSITY_DOC, "hedge": HEDGE_DOC,
            "simulate": SIM_DOC, "greeks": GREEKS_DOC, "index": INDEX_DOC}[command]
    cfg = write_config(tmp_path, "settings.json", dict(base, **extra))
    assert main([command, "--config", cfg]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, method, key", [
    ("density", "analytic", "grid"), ("density", "analytic", "resolution"),
    ("price", "pde", "pde"), ("price", "green", "green"), ("price", "mc", "mc")])
def test_a_null_section_reads_as_absent(tmp_path, capsys, command, method, key):
    base = {"price": GBM_PRICE_DOC, "density": DENSITY_DOC}[command]
    absent = {k: v for k, v in base.items() if k != key}
    bodies = []
    for doc in (dict(absent, method=method), dict(absent, method=method, **{key: None})):
        assert main([command, "--config", write_config(tmp_path, "null.json", doc)]) == 0
        bodies.append(capsys.readouterr().out)
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("command, extra, message", [
    # this priced 100,000 paths and exited 0
    ("price", {"mc": {"n_path": 10, "dt": 0.25}},
     "config.mc.n_path is not a setting of config.mc, which takes n_paths, n_steps, dt, "
     "exact_terminal; did you mean config.mc.n_paths?"),
    # price checks all three settings objects, whatever its method
    ("price", {"method": "analytic", "pde": {"nodes": 401}},
     "config.pde.nodes is not a setting of config.pde, which takes n_nodes, n_steps, "
     "half_width; did you mean config.pde.n_nodes?"),
    ("price", {"method": "analytic", "green": {"halfwidth": 6.0}},
     "config.green.halfwidth is not a setting of config.green, which takes n_nodes, "
     "n_steps, dt, half_width; did you mean config.green.half_width?"),
    ("density", {"resolution": {"n_step": 64}},
     "config.resolution.n_step is not a setting of config.resolution, which takes "
     "n_nodes, half_width, n_steps; did you mean config.resolution.n_steps?"),
    ("density", {"grid": {"lo": -2.0, "high": 2.0}},
     "config.grid.high is not a setting of config.grid, which takes lo, hi, n; did you "
     "mean config.grid.hi?"),
    ("density", {"grid": {"lo": -2.0, "hi": 2.0, "points": 5}},
     "config.grid.points is not a setting of config.grid, which takes lo, hi, n"),
])
def test_a_key_a_settings_object_does_not_declare_exits_2_naming_it(tmp_path, capsys,
                                                                     command, extra,
                                                                     message):
    # these keys were ignored, so the setting took its default
    base = {"price": GBM_PRICE_DOC, "density": DENSITY_DOC}[command]
    assert main([command, "--config", write_config(tmp_path, "key.json",
                                                   dict(base, **extra))]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("extra, message", [
    ({"model": {"type": "gbm", "params": {"mu": 0.05, "sigma": 0.2, "sigmaa": 0.9}}},
     "config.model.params.sigmaa is not a setting of config.model.params, which takes mu, "
     "sigma; did you mean config.model.params.sigma?"),
    ({"model": {"type": "gbm", "params": {"mu": 0.05, "sigma": 0.2}, "extra": 1}},
     "config.model.extra is not a setting of config.model, which takes type, params, "
     "correlation"),
    ({"curve": [{"t": 0.0, "r": 0.05, "x": 3}]},
     "config.curve[0].x is not a setting of config.curve[0], which takes t, r"),
])
def test_a_key_the_model_or_curve_does_not_declare_exits_2_naming_it(tmp_path, capsys,
                                                                     extra, message):
    # each was dropped, and the run printed the clean config's body with exit 0
    doc = dict(GBM_PRICE_DOC, method="analytic", **extra)
    assert main(["price", "--config", write_config(tmp_path, "key.json", doc)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


_PRICE_KEYS = "model, curve, payoff, S0, T, method, pde, green, mc, format, seed, threads"


@pytest.mark.parametrize("command, extra, message", [
    # priced by the analytic route only
    ("price", {"methd": "mc"},
     f"config.methd is not a setting of config, which takes {_PRICE_KEYS}; "
     "did you mean config.method?"),
    # ran with seed 0
    ("price", {"sead": 4},
     f"config.sead is not a setting of config, which takes {_PRICE_KEYS}; "
     "did you mean config.seed?"),
    # a density setting and a hedge setting that price does not read
    ("price", {"grid": {"n_node": 5}},
     f"config.grid is not a setting of config, which takes {_PRICE_KEYS}"),
    ("price", {"normalization": 3},
     f"config.normalization is not a setting of config, which takes {_PRICE_KEYS}"),
    ("index", {"extra": 1},
     "config.extra is not a setting of config, which takes prices, sigmas, format"),
    # only the three commands that sample noise take a seed
    ("greeks", {"seed": 3},
     "config.seed is not a setting of config, which takes S, K, r, sigma, t, format"),
    # a sensitivity neutralize does not know was dropped
    ("hedge", {"instruments": [dict(HEDGE_DOC["instruments"][0], vega=3),
                               HEDGE_DOC["instruments"][1]]},
     "config.instruments[0].vega is not a setting of config.instruments[0], which "
     "takes name, delta, kappa, gamma"),
])
def test_a_top_level_or_instrument_key_a_command_does_not_read_exits_2(tmp_path, capsys,
                                                                       command, extra,
                                                                       message):
    # each of these exited 0 with the key ignored
    base = {"price": dict(GBM_PRICE_DOC, method="analytic"), "index": INDEX_DOC,
            "greeks": GREEKS_DOC, "hedge": HEDGE_DOC}[command]
    doc = dict(base, **extra)
    assert main([command, "--config", write_config(tmp_path, "key.json", doc)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_every_benchmark_cli_config_keeps_to_its_commands_declared_keys(tmp_path,
                                                                        monkeypatch):
    # a key declaration that dropped a key the benchmark writes would fail
    # every cli_session call; the benchmark's own files are only read here,
    # through the loader of scripts/cli_digest.py
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "scripts"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    from cli_digest import load_workloads
    session = load_workloads().CliSession(small=True)
    seen = set()
    for seed in (1, 2):
        for call in session.build(seed, str(tmp_path)):
            command = call.argv[0]
            _, _, samples, _, keys = cli._COMMANDS[command]
            declared = set(keys) | {"format"} | ({"seed", "threads"} if samples else set())
            with open(call.argv[call.argv.index("--config") + 1], encoding="utf-8") as fh:
                assert set(json.load(fh)) <= declared, call.argv
            seen.add(command)
    assert seen == set(cli._COMMANDS)


def test_each_model_type_declares_its_own_params(tmp_path, capsys):
    # a vasicek param is no gbm param
    doc = dict(GBM_PRICE_DOC, method="analytic",
               model={"type": "gbm", "params": {"mu": 0.05, "sigma": 0.2, "a": 1.0}})
    assert main(["price", "--config", write_config(tmp_path, "key.json", doc)]) == 2
    assert ("config.model.params.a is not a setting of config.model.params"
            in capsys.readouterr().err)


def test_price_without_settings_objects_takes_each_routes_own_defaults(tmp_path):
    doc = {k: v for k, v in GBM_PRICE_DOC.items() if k != "mc"}
    out = tmp_path / "price.json"
    assert main(["price", "--config", write_config(tmp_path, "bare.json",
                                                   dict(doc, method="all")),
                 "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    curve, payoff = stochastica.DiscountCurve.flat(0.05), stochastica.call_payoff(100.0)
    rn = stochastica.risk_neutralize(stochastica.make_gbm(0.05, 0.2), curve)
    assert results["pde"]["value"] == float(
        stochastica.pv_pde(payoff, curve, 0.2, 100.0, 1.0)(100.0))
    assert results["green"]["value"] == stochastica.pv_green(
        stochastica.greens_function(rn, curve, 0.0, 100.0, 1.0, 1.0 / 256), payoff)
    assert (results["mc"]["n_paths"], results["mc"]["sampler"]) == (100000, "exact-terminal")


# a config each command runs quickly on
FORMAT_DOCS = {"simulate": SIM_DOC, "density": dict(DENSITY_DOC, method="analytic"),
               "price": dict(GBM_PRICE_DOC, method="analytic"), "greeks": GREEKS_DOC,
               "hedge": HEDGE_DOC, "index": INDEX_DOC, "check": {}}


@pytest.mark.parametrize("command, default", [
    ("simulate", "csv"), ("density", "csv"), ("price", "json"), ("greeks", "json"),
    ("hedge", "json"), ("index", "json"), ("check", "json")])
def test_format_is_the_flag_then_config_format_then_the_command_default(
        tmp_path, capsys, monkeypatch, command, default):
    # the suite's checks are not under test here, only the format of its report
    monkeypatch.setattr(cli, "_check_price_cell", lambda *args: [])
    monkeypatch.setattr(cli, "_check_density", lambda kind, method: {
        "name": method, "measure": 0.0, "limit": 1.0, "passed": True})
    other = {"csv": "json", "json": "csv"}[default]

    def written(doc, *flags):
        cfg = write_config(tmp_path, "fmt.json", doc)
        assert main([command, "--config", cfg, *flags]) == 0
        return "json" if capsys.readouterr().out.startswith("{") else "csv"

    doc = FORMAT_DOCS[command]
    assert written(doc) == default
    assert written(dict(doc, format=other)) == other
    assert written(dict(doc, format=other), "--format", default) == default
    cfg = write_config(tmp_path, "xml.json", dict(doc, format="xml"))
    assert main([command, "--config", cfg]) == 2
    assert "config.format must be one of ('csv', 'json'), not 'xml'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--seed", "--threads"])
@pytest.mark.parametrize("command", sorted(FORMAT_DOCS))
def test_only_the_commands_that_sample_take_seed_and_threads(command, flag):
    argv = [command, flag, "1"]
    if command in ("simulate", "price", "check"):
        assert getattr(_build_parser().parse_args(argv), flag[2:]) == 1
    else:
        # density, greeks, hedge and index never read them
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_readme_command_line_examples_load(tmp_path):
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        readme = fh.read()
    section = readme[readme.index("## Command line"):readme.index("## Scripts")]
    models, price = re.findall(r"```json\n(.*?)```", section, re.S)
    for line in models.splitlines():
        load_model_config(json.loads(line))
    curves = re.findall(r'`("curve": [^`]*)`', section)
    assert len(curves) == 2
    for curve in curves:
        _curve_from_config(json.loads("{" + curve + "}"))
    doc = json.loads(price)
    load_model_config(doc["model"])
    _curve_from_config(doc)
    payoff_from_config(doc["payoff"])
    # and runs as it stands, so the docs keep to the keys the reader declares
    assert main(["price", "--config", write_config(tmp_path, "price.json", doc),
                 "--out", str(tmp_path / "price.out.json")]) == 0
    # every example parses, and its --out file is named for the format it gets
    (commands,) = re.findall(r"```sh\n(.*?)```", section, re.S)
    for line in commands.splitlines():
        program, *argv = line.split()
        args = _build_parser().parse_args(argv)
        assert program == "stochastica"
        if args.out is not None:
            fmt = args.format or cli._COMMANDS[args.command][1]
            assert args.out.endswith("." + fmt), line


def test_missing_simulate_counts_are_named(tmp_path, capsys):
    for key in ("n_steps", "n_paths"):
        doc = {k: v for k, v in SIM_DOC.items() if k != key}
        cfg = write_config(tmp_path, "missing.json", doc)
        assert main(["simulate", "--config", cfg]) == 2
        assert f"config.{key} is required" in capsys.readouterr().err


@pytest.mark.parametrize("half_width", [math.nan, -1.0])
def test_density_half_width_must_be_finite_and_positive(tmp_path, capsys,
                                                       half_width):
    # a nan half width used to write a body of nan rows and exit 0
    cfg = write_config(tmp_path, "hw.json", dict(
        DENSITY_DOC, method="analytic", resolution={"half_width": half_width}))
    assert main(["density", "--config", cfg]) == 2
    assert "half_width must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, message", [
    ("greeks", {"S": 100.0, "K": 100.0, "r": 0.05, "sigma": 0.2, "t": math.inf},
     "t must be finite"),
    ("greeks", {"S": 100.0, "K": 100.0, "r": 0.05, "sigma": math.inf, "t": 1.0},
     "sigma must be finite"),
    ("price", dict(GBM_PRICE_DOC, method="analytic", T=math.inf), "config.T must be finite"),
    # the default dt is T / n_steps, so T must be named before dt
    ("price", dict(GBM_PRICE_DOC, T=math.inf, mc={"n_paths": 2000}),
     "config.T must be finite"),
    # the routes name their own arguments (t, S); the config keys come first
    ("price", dict(GBM_PRICE_DOC, method="green", T=math.inf), "config.T must be finite"),
    ("price", dict(GBM_PRICE_DOC, method="all", S0=math.inf), "config.S0 must be finite"),
    ("density", dict(DENSITY_DOC, t=math.inf), "config.t must be finite and positive"),
    ("density", dict(DENSITY_DOC, S0=math.inf), "config.S0 must be finite"),
], ids=["greeks t", "greeks sigma", "price analytic T", "price mc T", "price green T",
        "price all S0", "density t", "density S0"])
def test_non_finite_inputs_exit_2_naming_them(tmp_path, capsys, command, doc, message):
    # these used to write nan values, or fail on another name, and exit 0 or 1
    cfg = write_config(tmp_path, "inf.json", doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "got inf" in err
    assert not out.exists()


_VASICEK = {"type": "vasicek", "params": {"a": 1.0, "b": 0.05, "sigma": 0.02}}


def _with_params(model, **params):
    return dict(model, params=dict(model["params"], **params))


@pytest.mark.parametrize("command, doc, message", [
    ("density", dict(DENSITY_DOC, model=_with_params(_VASICEK, b=math.nan), S0=0.03,
                     method="analytic"), "b must be finite, got nan"),
    ("density", dict(DENSITY_DOC, grid={"lo": -math.inf, "hi": 5.0, "n": 11},
                     method="analytic"), "config.grid.lo must be finite, got -inf"),
    # finite bounds 2e308 apart used to write rows whose S is inf
    ("density", dict(DENSITY_DOC, grid={"lo": -1e308, "hi": 1e308, "n": 11},
                     method="analytic"), "config.grid needs lo < hi and a finite hi - lo"),
    ("density", dict(DENSITY_DOC, model=_with_params(DENSITY_DOC["model"], mu=math.inf),
                     method="analytic"), "mu must be finite, got inf"),
    ("density", dict(DENSITY_DOC, model=_with_params(_VASICEK, b=math.inf), S0=0.03,
                     method="analytic"), "b must be finite, got inf"),
    ("price", dict(GBM_PRICE_DOC, payoff={"kind": "put", "strike": math.inf}),
     "strike must be finite, got inf"),
    # the price routes replace mu by the rate, but the model is refused first
    ("price", dict(GBM_PRICE_DOC, model=_with_params(GBM_PRICE_DOC["model"], mu=math.nan)),
     "mu must be finite, got nan"),
    ("hedge", {"instruments": [dict(HEDGE_DOC["instruments"][0], delta=math.nan),
                               HEDGE_DOC["instruments"][1]]},
     "config.instruments[0].delta must be finite, got nan"),
    ("hedge", {"instruments": [HEDGE_DOC["instruments"][0],
                               dict(HEDGE_DOC["instruments"][1], gamma=math.inf)]},
     "config.instruments[1].gamma must be finite, got inf"),
    ("hedge", dict(HEDGE_DOC, normalization="value", values=[1.0, math.inf]),
     "values must be finite"),
], ids=["density vasicek b nan", "density grid lo", "density grid span", "density bm mu inf",
        "density vasicek b inf", "price mc put strike", "price mu nan", "hedge delta nan",
        "hedge gamma inf", "hedge values"])
def test_non_finite_parameters_exit_2_naming_them(tmp_path, capsys, command, doc, message):
    # these used to write a body of nan and exit 0, exit 2 naming a degenerate
    # support or a rank-deficient constraint, or exit 3 on a non-finite payoff
    cfg = write_config(tmp_path, "bad.json", doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_zero_volatility_on_the_lattice_exits_2(tmp_path, capsys):
    # the lattice used to exit 3, a numerical failure, where the other methods exit 2
    doc = dict(DENSITY_DOC, model=_with_params(DENSITY_DOC["model"], sigma=0.0),
               grid={"lo": -2.0, "hi": 2.0, "n": 41}, method="path-integral")
    cfg = write_config(tmp_path, "flat.json", doc)
    assert main(["density", "--config", cfg]) == 2
    assert "error: volatility vanishes at S=-2.0: transition is a deterministic shift" \
        in capsys.readouterr().err


def test_integral_counts_are_accepted(tmp_path, capsys):
    cfg = write_config(tmp_path, "ok.json", dict(
        DENSITY_DOC, grid={"lo": -2.0, "hi": 2.0, "n": 3},
        resolution={"n_nodes": 5, "n_steps": 8}, method=["analytic"],
        format="json"))
    assert main(["density", "--config", cfg]) == 0
    assert len(json.loads(capsys.readouterr().out)["s"]) == 3


def test_density_of_a_model_without_a_family(tmp_path, capsys):
    # a tabulated model has no closed-form density: the lattice needs an
    # explicit grid, and the analytic method is refused by name
    model = {"type": "custom-grid",
             "params": {"s": [-10.0, 10.0], "drift": [0.0, 0.0], "vol": [0.5, 0.5]}}
    doc = {"model": model, "S0": 0.0, "t": 1.0, "method": "path-integral",
           "resolution": {"n_steps": 32}, "format": "json"}
    cfg = write_config(tmp_path, "nofamily.json", doc)
    assert main(["density", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config.grid" in err and "method 'path-integral'" in err
    grid = {"lo": -4.0, "hi": 4.0, "n": 161}
    cfg = write_config(tmp_path, "grid.json", dict(doc, grid=grid))
    assert main(["density", "--config", cfg]) == 0
    p = json.loads(capsys.readouterr().out)["densities"]["path-integral"]
    assert np.trapezoid(p, np.linspace(-4.0, 4.0, 161)) == pytest.approx(1.0, abs=1e-3)
    cfg = write_config(tmp_path, "analytic.json", dict(doc, grid=grid,
                                                       method="analytic"))
    assert main(["density", "--config", cfg]) == 2
    assert "method 'analytic'" in capsys.readouterr().err
    # the advice names the one method that runs on config.grid alone: the
    # forward march still sizes its own grid from the family
    cfg = write_config(tmp_path, "fp.json", dict(doc, grid=grid,
                                                 method=["fokker-planck", "path-integral"]))
    assert main(["density", "--config", cfg]) == 2
    assert "no default domain rule for this model" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["analytic", "pde"])
@pytest.mark.parametrize("model", [
    {"type": "vasicek", "params": {"a": 1.0, "b": 0.05, "sigma": 0.02}},
    {"type": "gbm", "params": {"mu": [0.05], "sigma": [0.2]}, "correlation": [[1.0]]},
])
def test_closed_form_price_routes_need_the_gbm_family(tmp_path, capsys, method,
                                                      model):
    cfg = write_config(tmp_path, "price.json",
                       dict(GBM_PRICE_DOC, model=model, method=method))
    assert main(["price", "--config", cfg]) == 2
    assert f"the {method} route prices models of family GBM only" \
        in capsys.readouterr().err


def test_green_price_of_a_log_space_family_at_a_zero_spot_exits_2_naming_s0(tmp_path,
                                                                          capsys):
    # it exited 2 printing "math domain error"
    cfg = write_config(tmp_path, "green.json", dict(GBM_PRICE_DOC, S0=0.0, method="green"))
    assert main(["price", "--config", cfg]) == 2
    assert "needs S > 0; S0 = 0.0" in capsys.readouterr().err


def test_mc_price_of_a_log_space_family_below_zero_exits_2_naming_s0(tmp_path, capsys):
    # it printed the price of a put on a GBM started at -100
    cfg = write_config(tmp_path, "mc.json", dict(
        GBM_PRICE_DOC, S0=-100.0, payoff={"kind": "put", "strike": 100.0}))
    assert main(["price", "--config", cfg]) == 2
    assert "this model needs S > 0; S0 = -100.0" in capsys.readouterr().err


def test_pde_strike_next_to_the_spot_is_priced(tmp_path):
    # the snapped grid refused a strike within half a cell of the spot
    cfg = write_config(tmp_path, "pde.json", dict(
        GBM_PRICE_DOC, method="pde",
        payoff={"kind": "call", "strike": 100.001}))
    out = tmp_path / "pde_out.json"
    assert main(["price", "--config", cfg, "--out", str(out)]) == 0
    got = json.loads(out.read_text())["results"]["pde"]["value"]
    want = bs_price(BSParams(S=100.0, K=100.001, r=0.05, sigma=0.2, t=1.0))
    assert got == pytest.approx(want, rel=1e-3)


def test_pde_price_at_a_rate_step_without_an_m_matrix_exits_2(tmp_path, capsys):
    # r dt = -1 priced the call at -9.43e34 and exited 0
    cfg = write_config(tmp_path, "pde.json", dict(
        GBM_PRICE_DOC, curve=-4, method="pde", pde={"n_nodes": 5, "n_steps": 4}))
    assert main(["price", "--config", cfg]) == 2
    assert "1 + r*dt <= 0" in capsys.readouterr().err


def test_fractional_config_seed_is_rejected(tmp_path, capsys):
    # 7.9 must not silently become seed 7
    cfg = write_config(tmp_path, "seed.json", dict(SIM_DOC, seed=7.9))
    assert main(["simulate", "--config", cfg]) == 2
    assert "seed must be an integer" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path, capsys):
    # a lattice two and a half sigma wide loses over 1% of the mass
    cfg = write_config(tmp_path, "leak.json", dict(
        GBM_PRICE_DOC, method="green",
        green={"half_width": 2.5, "n_steps": 64}))
    assert main(["price", "--config", cfg]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_missing_command_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_a_reader_that_closes_stdout_early_gets_exit_1_and_no_traceback(tmp_path):
    # a body of about 4 MB, far more than a pipe holds
    cfg = write_config(tmp_path, "sim.json", dict(SIM_DOC, n_paths=2000, n_steps=64))
    proc = subprocess.Popen(
        [sys.executable, "-m", "stochastica.cli", "simulate", "--config", cfg],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env_with_the_package())
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert err == ""


@pytest.mark.parametrize("where, reason", [
    ("missing/out.json", "No such file or directory"),
    ("a-directory", "Is a directory"),
], ids=["missing-directory", "a-directory"])
def test_an_out_that_cannot_be_written_exits_2_naming_it(tmp_path, capsys, where, reason):
    (tmp_path / "a-directory").mkdir()
    cfg = write_config(tmp_path, "greeks.json",
                       {"S": 100.0, "K": 100.0, "r": 0.0, "sigma": 0.2, "t": 1.0})
    out = str(tmp_path / where)
    assert main(["greeks", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write --out {out}: {reason}\n"
    assert not list(tmp_path.rglob("*.tmp"))


def test_a_sidecar_that_cannot_be_written_leaves_no_body(tmp_path, capsys):
    # the body used to be moved into place before the sidecar was tried
    cfg = write_config(tmp_path, "greeks.json",
                       {"S": 100.0, "K": 100.0, "r": 0.0, "sigma": 0.2, "t": 1.0})
    out = tmp_path / "out.json"
    sidecar = tmp_path / "out.json.meta.json"
    sidecar.mkdir()
    assert main(["greeks", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write the sidecar {sidecar}: Is a directory\n"
    assert not out.exists()
    assert not list(tmp_path.rglob("*.tmp"))


def test_module_entry_point_runs(tmp_path):
    cfg = write_config(tmp_path, "greeks.json",
                       {"S": 100.0, "K": 100.0, "r": 0.0, "sigma": 0.2,
                        "t": 1.0})
    proc = subprocess.run(
        [sys.executable, "-m", "stochastica.cli", "greeks", "--config", cfg],
        capture_output=True, text=True, env=_env_with_the_package())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["call"] == pytest.approx(7.9656, abs=1e-4)
