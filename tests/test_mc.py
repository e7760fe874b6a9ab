"""Euler path engine: stepping, batches, estimators, scaling, exports."""

import io
import math

import numpy as np
import pytest
from scipy import stats

from stochastica import (
    DiscountCurve,
    MCEstimate,
    ModelSpec,
    PathBatch,
    TimeGrid,
    call_payoff,
    expectation,
    export_paths_csv,
    greens_function,
    ito_check,
    make_bm,
    make_correlated_gbm,
    make_gbm,
    make_vasicek,
    mgf,
    pi_expectation,
    pv_mc,
    risk_neutralize,
    scaling_check,
    simulate_paths,
    simulate_terminal,
)
from stochastica import mc, noise
from stochastica.errors import NumericalError
from stochastica.mc import fmt17


def test_time_grid_exact_times():
    grid = TimeGrid(t0=0.5, dt=0.1, n_steps=1000)
    assert grid.time(1000) == 0.5 + 1000 * 0.1
    assert grid.t_end == grid.time(grid.n_steps)
    assert grid.times().shape == (1001,)
    with pytest.raises(ValueError):
        TimeGrid(t0=0.0, dt=0.0, n_steps=10)
    with pytest.raises(ValueError):
        TimeGrid(t0=0.0, dt=0.1, n_steps=0)


@pytest.mark.parametrize("n_steps", [2.0, math.nan, True, np.float64(4.0)])
def test_time_grid_rejects_a_step_count_that_is_not_an_integer(n_steps):
    with pytest.raises(ValueError, match="n_steps"):
        TimeGrid(t0=0.0, dt=0.01, n_steps=n_steps)


def test_time_grid_keeps_an_integer_step_count():
    grid = TimeGrid(t0=0.0, dt=0.01, n_steps=np.int64(4))
    assert grid.n_steps == 4 and type(grid.n_steps) is int


# ---------------------------------------------------------------------------
# single step


def _euler_step(model, t, S, xi, dt):
    return mc._euler_inplace(model, t, np.array([S]), np.array([xi]), dt, np.sqrt(dt))


def test_euler_step_trivial():
    s = _euler_step(make_bm(0.0, 1.0), 0.0, [3.0], [0.0], 0.25)
    assert s[0, 0] == 3.0


def test_euler_step_pure_drift():
    s = _euler_step(make_bm(1.0, 0.0), 0.0, [3.0], [0.7], 0.5)
    assert s[0, 0] == pytest.approx(3.5, abs=1e-15)


def test_euler_step_hand_arithmetic():
    # 100 + 0.2 * 100 * sqrt(0.01) * 1 = 102
    s = _euler_step(make_gbm(0.0, 0.2), 0.0, [100.0], [1.0], 0.01)
    assert s[0, 0] == pytest.approx(102.0, abs=1e-12)


def test_euler_step_reports_bad_model():
    bad = ModelSpec(dim=1, noise_dim=1,
                    drift=lambda t, s: np.full_like(s, np.nan),
                    vol=lambda t, s: np.ones(s.shape + (1,)))
    s = _euler_step(bad, 1.25, [2.0], [0.1], 0.1)
    with pytest.raises(NumericalError, match="drift"):
        mc._check_finite_step(s, 1, 0)


# ---------------------------------------------------------------------------
# batches


def test_constant_model_constant_paths():
    m = make_bm(0.0, 0.0)
    batch = simulate_paths(m, 5.0, TimeGrid(0.0, 0.1, 8), 16, seed=1)
    np.testing.assert_array_equal(batch.paths, np.full((16, 9, 1), 5.0))


def test_same_seed_same_batch():
    m = make_bm(0.0, 1.0)
    grid = TimeGrid(0.0, 0.25, 4)
    a = simulate_paths(m, 0.0, grid, 50, seed=9)
    b = simulate_paths(m, 0.0, grid, 50, seed=9)
    np.testing.assert_array_equal(a.paths, b.paths)
    c = simulate_paths(m, 0.0, grid, 50, seed=10)
    assert not np.array_equal(a.paths, c.paths)


def test_thread_count_never_changes_results():
    m = make_gbm(0.05, 0.2)
    grid = TimeGrid(0.0, 0.125, 8)
    # n_paths above one chunk so multiple workers actually engage
    n = 70000
    a = simulate_paths(m, 100.0, grid, n, seed=3, threads=1)
    b = simulate_paths(m, 100.0, grid, n, seed=3, threads=4)
    np.testing.assert_array_equal(a.paths, b.paths)


def test_default_threads_match_one_thread_bit_for_bit():
    # 70,000 paths make two spans at one thread and at any other count
    m = make_gbm(0.05, 0.2)
    grid = TimeGrid(0.0, 0.125, 8)
    n = 70000
    a = simulate_paths(m, 100.0, grid, n, seed=3, threads=1)
    b = simulate_paths(m, 100.0, grid, n, seed=3)
    np.testing.assert_array_equal(a.paths, b.paths)
    term1, saved1 = simulate_terminal(m, 100.0, grid, n, seed=3,
                                      checkpoints=(2, 5), threads=1)
    term, saved = simulate_terminal(m, 100.0, grid, n, seed=3, checkpoints=(2, 5))
    np.testing.assert_array_equal(term, term1)
    for c in (2, 5):
        np.testing.assert_array_equal(saved[c], saved1[c])


def test_default_threads_follow_the_cpu_affinity(monkeypatch):
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    assert mc._resolve_threads(None) == 3
    monkeypatch.delattr(mc.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
    assert mc._resolve_threads(None) == 1


@pytest.mark.parametrize("bad", [0, -2, True, 2.7, 2.0, "2"])
def test_threads_must_be_a_positive_integer(bad):
    with pytest.raises(ValueError, match="threads"):
        mc._resolve_threads(bad)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 64, 65536, 100000, 131072, 10**6])
def test_spans_cover_every_path_once(n, threads):
    spans = mc._spans(n, threads)
    assert spans[0][0] == 0 and spans[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    sizes = [hi - lo for lo, hi in spans]
    assert min(sizes) >= 1 and max(sizes) <= mc._CHUNK
    assert max(sizes) - min(sizes) <= 1


def test_spans_are_balanced_over_the_threads():
    assert mc._spans(100000, 2) == [(0, 50000), (50000, 100000)]
    assert mc._spans(131072, 2) == [(0, 65536), (65536, 131072)]
    assert len(mc._spans(10**6, 3)) == 18
    assert mc._spans(1000, 4) == [(0, 1000)]
    assert mc._spans(2 * mc._MIN_SPAN - 1, 2) == [(0, 2 * mc._MIN_SPAN - 1)]


def test_worker_span_error_reaches_the_caller():
    # only the path with the largest first draw leaves [.., threshold] after
    # one step and overflows at step 2; it lies in the second span, run by a
    # pool worker, while paths of the first span overflow later, at step 3
    n, grid = 2 * mc._MIN_SPAN, TimeGrid(0.0, 1.0, 3)
    half = mc._MIN_SPAN
    assert mc._spans(n, 2) == [(0, half), (half, n)]
    for seed in range(20):
        xi = noise.normal_block(seed, noise.EULER, 3, 0, 0, n, 1)[:, 0]
        if int(np.argmax(xi)) >= half:
            break
    target = int(np.argmax(xi))
    assert target >= half
    threshold = 0.5 * (xi[target] + np.partition(xi, -2)[-2])

    def drift(t, s):
        return np.where(s > threshold, np.inf, 0.0)

    bad = ModelSpec(dim=1, noise_dim=1, drift=drift,
                    vol=lambda t, s: np.ones(s.shape + (1,)))
    with pytest.raises(NumericalError, match="step 3"):
        simulate_terminal(bad, 0.0, grid, half, seed)
    for threads in (1, 2, 3):
        with pytest.raises(NumericalError, match=f"path {target}, step 2"):
            simulate_terminal(bad, 0.0, grid, n, seed, threads=threads)


def test_gbm_terminal_mean():
    m = make_gbm(0.05, 0.2)
    batch = simulate_paths(m, 100.0, TimeGrid(0.0, 1 / 64, 64), 100000, seed=4)
    est = expectation(lambda p: p[:, -1, 0], batch)
    expect = 100.0 * math.exp(0.05)
    assert abs(est.mean - expect) < 3 * est.std_error


def test_bm_terminal_law_ks():
    mu, sigma, T = 0.1, 0.5, 1.0
    m = make_bm(mu, sigma)
    batch = simulate_paths(m, 2.0, TimeGrid(0.0, T / 16, 16), 100000, seed=8)
    term = batch.paths[:, -1, 0]
    assert abs(term.mean() - (2.0 + mu * T)) < 4 * sigma / math.sqrt(1e5)
    d, p = stats.kstest(term, "norm", args=(2.0 + mu * T, sigma * math.sqrt(T)))
    # 1% critical value for the KS statistic is 1.63 / sqrt(n)
    assert d < 1.63 / math.sqrt(term.size)


def test_nan_abort_names_path_and_step():
    def drift(t, s):
        return np.where(t > 0.35, np.nan, 0.0) * np.ones_like(s)

    bad = ModelSpec(dim=1, noise_dim=1, drift=drift,
                    vol=lambda t, s: np.ones(s.shape + (1,)))
    with pytest.raises(NumericalError, match="step"):
        simulate_paths(bad, 1.0, TimeGrid(0.0, 0.1, 8), 10, seed=0)


def test_memory_limit_guard():
    m = make_bm(0.0, 1.0)
    with pytest.raises(ValueError, match="simulate_terminal"):
        simulate_paths(m, 0.0, TimeGrid(0.0, 0.1, 10), 10**9, seed=0)


def test_initial_state_shared():
    m = make_bm(0.0, 1.0)
    batch = simulate_paths(m, 7.0, TimeGrid(0.0, 0.5, 2), 12, seed=2)
    np.testing.assert_array_equal(batch.paths[:, 0, 0], np.full(12, 7.0))


def test_simulate_terminal_matches_paths():
    m = make_gbm(0.02, 0.3)
    grid = TimeGrid(0.0, 0.125, 8)
    batch = simulate_paths(m, 10.0, grid, 1000, seed=5)
    term, saved = simulate_terminal(m, 10.0, grid, 1000, seed=5,
                                    checkpoints=(4, 8))
    np.testing.assert_array_equal(term[:, 0], batch.paths[:, -1, 0])
    np.testing.assert_array_equal(saved[4][:, 0], batch.paths[:, 4, 0])
    np.testing.assert_array_equal(saved[8][:, 0], batch.paths[:, 8, 0])


def test_every_checkpoint_equals_its_path_column():
    # both routes march with one Euler core; two chunks on two threads
    m = make_correlated_gbm([0.05, 0.02], [0.2, 0.3], [[1.0, 0.5], [0.5, 1.0]])
    grid = TimeGrid(0.0, 0.25, 6)
    n = (1 << 16) + 100
    batch = simulate_paths(m, [100.0, 50.0], grid, n, seed=8, threads=2)
    term, saved = simulate_terminal(m, [100.0, 50.0], grid, n, seed=8,
                                    checkpoints=range(7), threads=2)
    np.testing.assert_array_equal(term, batch.paths[:, -1, :])
    for c in range(7):
        np.testing.assert_array_equal(saved[c], batch.paths[:, c, :])


# ---------------------------------------------------------------------------
# estimators


def _small_batch():
    return simulate_paths(make_bm(0.0, 1.0), 0.0, TimeGrid(0.0, 0.25, 4),
                          4000, seed=6)


def test_expectation_constant_functional():
    est = expectation(lambda p: np.ones(p.shape[0]), _small_batch())
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_expectation_deterministic_model():
    m = make_gbm(0.1, 0.0)
    batch = simulate_paths(m, 100.0, TimeGrid(0.0, 0.01, 100), 50, seed=7)
    est = expectation(lambda p: p[:, -1, 0], batch)
    assert est.std_error == 0.0
    assert est.mean == pytest.approx(100.0 * (1 + 0.1 * 0.01) ** 100, rel=1e-12)


def test_expectation_linearity_exact():
    batch = _small_batch()

    def f(p):
        return p[:, -1, 0]

    def g(p):
        return np.abs(p[:, 2, 0])

    lhs = expectation(lambda p: 2.0 * f(p) + 3.0 * g(p), batch).mean
    rhs = 2.0 * expectation(f, batch).mean + 3.0 * expectation(g, batch).mean
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_mgf_zero_coefficients():
    est = mgf({}, _small_batch())
    assert est.mean == 1.0 and est.std_error == 0.0


def test_mgf_single_time_closed_form():
    mu, sigma, T, u = 0.1, 0.4, 1.0, 0.6
    m = make_bm(mu, sigma)
    batch = simulate_paths(m, 1.0, TimeGrid(0.0, T / 8, 8), 200000, seed=11)
    est = mgf({(8, 0): u}, batch)
    expect = math.exp(u * (1.0 + mu * T) + 0.5 * u * u * sigma * sigma * T)
    assert abs(est.mean - expect) < 3 * est.std_error


def test_mgf_two_time_covariance():
    # E exp(u W_s + v W_t) = exp(.5 (u^2 s + v^2 t + 2 u v min(s,t))) for BM(0,1)
    u, v = 0.5, 0.3
    m = make_bm(0.0, 1.0)
    batch = simulate_paths(m, 0.0, TimeGrid(0.0, 0.25, 8), 200000, seed=12)
    est = mgf({(2, 0): u, (8, 0): v}, batch)
    s, t = 0.5, 2.0
    expect = math.exp(0.5 * (u * u * s + v * v * t + 2 * u * v * min(s, t)))
    assert abs(est.mean - expect) < 3 * est.std_error


def test_mgf_overflow_reports_exponent():
    batch = _small_batch()
    with pytest.raises(NumericalError, match="exponent"):
        mgf({(4, 0): 1e6}, batch)


def test_std_error_shrinks_with_n():
    m = make_bm(0.0, 1.0)
    grid = TimeGrid(0.0, 0.5, 2)
    small = expectation(lambda p: p[:, -1, 0],
                        simulate_paths(m, 0.0, grid, 2000, seed=13))
    big = expectation(lambda p: p[:, -1, 0],
                      simulate_paths(m, 0.0, grid, 32000, seed=13))
    assert big.std_error < small.std_error / 3.0


# ---------------------------------------------------------------------------
# stochastic-calculus checks


def test_ito_identity_map():
    m = make_gbm(0.07, 0.25)
    rep = ito_check(m, lambda t, s: s[:, 0], 0.0, [1.0], [[0.0]],
                    S0=50.0, dt=1e-3, n_paths=200000, seed=14)
    assert rep.predicted_drift == pytest.approx(0.07 * 50.0, rel=1e-12)
    assert rep.predicted_vol == pytest.approx(0.25 * 50.0, rel=1e-12)
    assert abs(rep.z_drift) < 4 and abs(rep.z_vol) < 4


def test_ito_log_map_under_gbm():
    mu, sigma, S0 = 0.1, 0.3, 80.0
    m = make_gbm(mu, sigma)
    rep = ito_check(m, lambda t, s: np.log(s[:, 0]), 0.0, [1.0 / S0],
                    [[-1.0 / S0 ** 2]], S0=S0, dt=1e-3, n_paths=200000,
                    seed=15)
    assert rep.predicted_drift == pytest.approx(mu - 0.5 * sigma ** 2,
                                                rel=1e-12)
    assert rep.predicted_vol == pytest.approx(sigma, rel=1e-12)
    assert abs(rep.z_drift) < 4 and abs(rep.z_vol) < 4


def test_ito_square_map_under_bm():
    sigma, S0 = 0.2, 1.5
    m = make_bm(0.0, sigma)
    rep = ito_check(m, lambda t, s: s[:, 0] ** 2, 0.0, [2.0 * S0], [[2.0]],
                    S0=S0, dt=1e-3, n_paths=200000, seed=16)
    assert rep.predicted_drift == pytest.approx(sigma ** 2, rel=1e-12)
    assert rep.predicted_vol == pytest.approx(2 * sigma * S0, rel=1e-12)
    assert abs(rep.z_drift) < 4 and abs(rep.z_vol) < 4


def test_ito_rejects_wrong_derivative():
    m = make_bm(0.0, 1.0)
    with pytest.raises(ValueError, match="finite difference"):
        ito_check(m, lambda t, s: s[:, 0] ** 2, 0.0, [3.0], [[2.0]],
                  S0=1.0, dt=1e-3, n_paths=100, seed=0)


def test_scaling_deterministic_drift():
    m = make_bm(0.3, 0.0)
    rep = scaling_check(m, 1.0, T=1.0, dt=0.25, refine_factor=4,
                        n_paths=500, seed=17)
    assert rep.coarse.mean == pytest.approx(rep.fine.mean, abs=1e-12)
    assert abs(rep.coarse.variance) < 1e-20 and abs(rep.fine.variance) < 1e-20


def test_scaling_bm_variance_dt_free():
    m = make_bm(0.0, 1.0)
    rep = scaling_check(m, 0.0, T=1.0, dt=1 / 8, refine_factor=8,
                        n_paths=100000, seed=18)
    assert abs(rep.z_variance) < 3
    assert rep.coarse.bias_variance is not None
    assert abs(rep.coarse.bias_variance) < 3 * rep.coarse.se_variance


def test_scaling_gbm_weak_error():
    m = make_gbm(0.05, 0.2)
    rep = scaling_check(m, 100.0, T=1.0, dt=1 / 8, refine_factor=8,
                        n_paths=100000, seed=19)
    assert abs(rep.z_mean) < 4
    with pytest.raises(ValueError):
        scaling_check(m, 100.0, T=1.0, dt=0.3, refine_factor=2,
                      n_paths=100, seed=0)


@pytest.mark.parametrize("dt", [0.0, math.nan])
@pytest.mark.parametrize("route", ["pv_mc", "greens_function", "pi_expectation",
                                   "scaling_check"])
def test_a_zero_or_nan_dt_is_refused_naming_dt(route, dt):
    # span / dt came first: 0 raised ZeroDivisionError, nan "cannot convert
    # float NaN to integer"
    gbm, curve = make_gbm(0.05, 0.2), DiscountCurve.flat(0.05)
    call = {
        "pv_mc": lambda: pv_mc(gbm, curve, call_payoff(100.0), 100.0, 1.0, dt,
                               100, 0),
        "greens_function": lambda: greens_function(risk_neutralize(gbm, curve),
                                                   curve, 0.0, 100.0, 1.0, dt),
        "pi_expectation": lambda: pi_expectation(gbm, lambda s: s, 0.0, 100.0,
                                                 1.0, dt, 100, 0),
        "scaling_check": lambda: scaling_check(gbm, 100.0, 1.0, dt, 2, 100, 0),
    }[route]
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        call()


_GRID4 = TimeGrid(0.0, 0.25, 4)
_COUNT_CALLS = {
    "simulate_paths": lambda n: simulate_paths(make_gbm(0.05, 0.2), 100.0, _GRID4, n, 0),
    "simulate_terminal": lambda n: simulate_terminal(make_gbm(0.05, 0.2), 100.0,
                                                     _GRID4, n, 0),
    "ito_check": lambda n: ito_check(make_bm(0.0, 1.0), lambda t, s: s[:, 0], 0.0,
                                     [1.0], [[0.0]], S0=0.0, dt=0.01, n_paths=n,
                                     seed=0),
    "scaling_check": lambda n: scaling_check(make_bm(0.0, 1.0), 0.0, 1.0, 0.25, 2,
                                             n, 0),
    "pi_expectation": lambda n: pi_expectation(make_bm(0.0, 1.0), lambda s: s, 0.0,
                                               0.0, 1.0, 0.25, n, 0),
}


@pytest.mark.parametrize("bad", [True, 2.5, 3.0, float("nan"), 0, -1])
@pytest.mark.parametrize("name", sorted(_COUNT_CALLS))
def test_path_counts_must_be_integers_named_in_the_error(name, bad):
    with pytest.raises(ValueError, match="n_paths must be an integer >= "):
        _COUNT_CALLS[name](bad)


@pytest.mark.parametrize("name", ["ito_check", "scaling_check"])
def test_variance_checks_need_two_paths(name):
    with pytest.raises(ValueError, match="n_paths must be an integer >= 2"):
        _COUNT_CALLS[name](1)
    _COUNT_CALLS[name](np.int64(2))


@pytest.mark.parametrize("bad", [True, 2.5, 3.0, float("nan"), 1])
def test_refine_factor_must_be_an_integer_of_at_least_two(bad):
    with pytest.raises(ValueError, match="refine_factor must be an integer >= 2"):
        scaling_check(make_bm(0.0, 1.0), 0.0, 1.0, 0.25, bad, 100, 0)


# ---------------------------------------------------------------------------
# exports


def test_fmt17_round_trips():
    for x in (0.1, 1 / 3, math.pi, 1e-300, -7.25e17):
        assert float(fmt17(x)) == x


def test_csv_export_shape(tmp_path):
    m = make_bm(0.0, 1.0)
    batch = simulate_paths(m, 0.0, TimeGrid(0.0, 0.5, 2), 3, seed=21)
    out = tmp_path / "paths.csv"
    with open(out, "w") as fh:
        export_paths_csv(batch, fh)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "path_id,step,asset,value"
    assert len(lines) == 1 + 3 * 3 * 1
    fields = lines[1].split(",")
    assert fields[:3] == ["0", "0", "0"]
    assert float(fields[3]) == 0.0


def _reference_export_paths_csv(batch, fh):
    # the value-by-value writer the bulk export replaced
    fh.write("path_id,step,asset,value\n")
    n, steps, dim = batch.paths.shape
    for p in range(n):
        for m in range(steps):
            for a in range(dim):
                fh.write(f"{p},{m},{a},{fmt17(batch.paths[p, m, a])}\n")


@pytest.mark.parametrize("model, S0", [
    (make_gbm(0.05, 0.2), 100.0),
    (make_correlated_gbm([0.05, 0.02], [0.2, 0.3], [[1.0, 0.5], [0.5, 1.0]]),
     [100.0, 50.0]),
])
def test_csv_export_matches_value_by_value_writer(model, S0):
    batch = simulate_paths(model, S0, TimeGrid(0.0, 0.25, 4), 5, seed=23)
    batch.paths[1, 2, -1] = np.nan
    batch.paths[2, 3, 0] = np.inf
    batch.paths[3, 1, -1] = -np.inf
    batch.paths[4, 4, 0] = -0.0
    batch.paths[0, 1, 0] = 5e-324
    got, want = io.StringIO(), io.StringIO()
    export_paths_csv(batch, got)
    _reference_export_paths_csv(batch, want)
    assert got.getvalue() == want.getvalue()
    assert ",nan\n" in got.getvalue() and ",-0\n" in got.getvalue()


def test_csv_export_blocks_of_paths_keep_the_bytes(monkeypatch):
    batch = simulate_paths(make_gbm(0.05, 0.2), 100.0, TimeGrid(0.0, 0.25, 4), 7,
                           seed=29)
    whole = io.StringIO()
    export_paths_csv(batch, whole)
    for chunk in (10, 3):   # blocks of two paths, the last one short; one path
        monkeypatch.setattr(mc, "_CHUNK", chunk)
        blocks = io.StringIO()
        export_paths_csv(batch, blocks)
        assert blocks.getvalue() == whole.getvalue()


def test_mc_estimate_validation():
    with pytest.raises(ValueError):
        MCEstimate(mean=1.0, std_error=-0.5, n_paths=10)
