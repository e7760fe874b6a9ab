"""Acceptance gate: eleven end-to-end behaviors, one test (and one
pass/fail line under pytest -v) per criterion.

Every reference value comes from a source independent of the code under
test: adaptive quadrature, high-precision numerical differentiation,
closed-form moments, or exact algebraic identities.
"""

import json
import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from stochastica import (
    BSParams,
    DiscountCurve,
    IndexInputs,
    Instrument,
    PointMass,
    TimeGrid,
    TransitionMatrix,
    bs_greeks,
    bs_price,
    call_payoff,
    compose_transition,
    density_bm,
    density_gbm,
    density_vasicek,
    evolve_density,
    fixed_loan_schedule,
    greens_function,
    index_weights,
    ito_check,
    make_bm,
    make_gbm,
    make_vasicek,
    neutralize,
    one_step_kernel,
    point_mass_on_grid,
    portfolio_variance,
    propagate,
    pv_deterministic,
    pv_green,
    pv_mc,
    pv_pde,
    risk_neutralize,
    scaling_check,
    simulate_terminal,
    zero_coupon_price,
)
from stochastica.cli import main as cli_main
from stochastica.density import trapezoid_weights


def l1_distance(s, p, q):
    return float(np.sum(trapezoid_weights(s) * np.abs(p - q)))


_CELLS = [(K, sigma, T)
          for K in (80.0, 100.0, 120.0)
          for sigma in (0.1, 0.2, 0.4)
          for T in (0.25, 1.0, 2.0)]


def test_criterion_01_four_pricing_routes_agree_on_the_call_grid():
    # 27 cells: moneyness 0.8/1.0/1.2, three vols, three horizons.
    # pde and green must land within 1e-3 relative of the closed form;
    # the Euler Monte Carlo route (1e6 paths, dt = T/256) within 3 SE.
    # The three strikes of one (sigma, T) share the seed and the grid, so
    # their consecutive calls price them from a single simulation, bit for
    # bit as three cold calls would.
    S0, r, seed = 100.0, 0.05, 424242
    strikes = (80.0, 100.0, 120.0)
    curve = DiscountCurve.flat(r)
    start = time.monotonic()
    for sigma in (0.1, 0.2, 0.4):
        model = make_gbm(r, sigma)
        rn = risk_neutralize(model, curve)
        for T in (0.25, 1.0, 2.0):
            green = greens_function(rn, curve, 0.0, S0, T, T / 256)
            payoffs = [call_payoff(K) for K in strikes]
            estimates = [pv_mc(model, curve, payoff, S0, T, T / 256, 10**6,
                               seed, exact_terminal=False) for payoff in payoffs]
            for K, payoff, est in zip(strikes, payoffs, estimates):
                label = f"K={K:g} sigma={sigma:g} T={T:g}"
                ref = bs_price(BSParams(S=S0, K=K, r=r, sigma=sigma, t=T))
                pde_fn = pv_pde(payoff, curve, sigma, S0, T)
                rel_pde = abs(float(pde_fn(S0)) - ref) / ref
                assert rel_pde <= 1e-3, f"pde off by {rel_pde:.2e} at {label}"
                rel_green = abs(pv_green(green, payoff) - ref) / ref
                assert rel_green <= 1e-3, \
                    f"green off by {rel_green:.2e} at {label}"
                z = abs(est.mean - ref) / est.std_error
                assert z <= 3.0, f"mc z = {z:.2f} at {label}"
    assert time.monotonic() - start < 300.0


def test_criterion_02_atm_value_matches_an_independent_quadrature():
    p = BSParams(S=100.0, K=100.0, r=0.0, sigma=0.2, t=1.0)
    got = bs_price(p)
    # with r = 0 and S = K the value is S (2 Phi(sigma sqrt(t)/2) - 1)
    assert abs(got - 100.0 * (2.0 * norm.cdf(0.1) - 1.0)) <= 1e-10

    m, v = math.log(100.0) - 0.02, 0.2
    oracle, err = quad(
        lambda x: max(math.exp(x) - 100.0, 0.0) * norm.pdf(x, loc=m, scale=v),
        m - 12 * v, m + 12 * v, points=[math.log(100.0)], limit=200,
        epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    assert abs(got - oracle) <= 1e-10


_DENSITY_CASES = [
    (make_bm(0.1, 0.3), 0.0, lambda t, S0: density_bm(t, S0, 0.1, 0.3)),
    (make_gbm(0.05, 0.2), 100.0,
     lambda t, S0: density_gbm(t, S0, 0.05, 0.2)),
    (make_vasicek(1.0, 0.05, 0.02), 0.03,
     lambda t, S0: density_vasicek(t, S0, 1.0, 0.05, 0.02)),
]


def _density_errors(model, S0, exact, n_nodes, n_steps, t=1.0):
    out = evolve_density(model, PointMass(center=S0, t=0.0), t,
                         n_steps=n_steps, n_nodes=n_nodes, half_width=8.0)
    fp = l1_distance(out.s_values, out.p_values, exact(out.s_values))
    s = exact.default_grid(n_nodes, 8.0)
    kernel = one_step_kernel(model, 0.0, t / n_steps)
    lattice = propagate(kernel, point_mass_on_grid(s, S0), n_steps)
    pi = l1_distance(s, lattice.p_values, exact(s))
    return fp, pi


def test_criterion_03_solvers_reproduce_closed_forms_and_converge():
    for model, S0, family in _DENSITY_CASES:
        exact = family(1.0, S0)
        fp_coarse, pi_coarse = _density_errors(model, S0, exact, 401, 100)
        fp_fine, pi_fine = _density_errors(model, S0, exact, 801, 200)
        kind = type(model.family).__name__
        assert fp_fine < 5e-3, f"forward solver L1 {fp_fine:.2e} [{kind}]"
        assert pi_fine < 5e-3, f"lattice L1 {pi_fine:.2e} [{kind}]"
        assert fp_coarse >= 2.0 * fp_fine, \
            f"forward halving gained only {fp_coarse / fp_fine:.2f}x [{kind}]"
        assert pi_coarse >= 2.0 * pi_fine, \
            f"lattice halving gained only {pi_coarse / pi_fine:.2f}x [{kind}]"


def _bm_family(tau):
    mu, sigma = 0.1, 0.4

    def pdf(s0):
        var = sigma ** 2 * tau
        return lambda s: (np.exp(-0.5 * (s - s0 - mu * tau) ** 2 / var)
                          / math.sqrt(2 * math.pi * var))
    return pdf


def _gbm_family(tau):
    mu, sigma = 0.05, 0.2

    def pdf(s0):
        m = math.log(s0) + (mu - 0.5 * sigma ** 2) * tau
        v = sigma * math.sqrt(tau)
        return lambda s: (np.exp(-0.5 * ((np.log(s) - m) / v) ** 2)
                          / (s * v * math.sqrt(2 * math.pi)))
    return pdf


def _vasicek_family(tau):
    a, b, sigma = 1.0, 0.05, 0.02

    def pdf(s0):
        m = b + (s0 - b) * math.exp(-a * tau)
        var = sigma ** 2 * (1.0 - math.exp(-2 * a * tau)) / (2 * a)
        return lambda s: (np.exp(-0.5 * (s - m) ** 2 / var)
                          / math.sqrt(2 * math.pi * var))
    return pdf


def test_criterion_04_two_half_steps_compose_into_the_full_transition():
    cases = [
        (_bm_family, density_bm(1.0, 0.0, 0.1, 0.4), 0.0),
        (_gbm_family, density_gbm(1.0, 100.0, 0.05, 0.2), 100.0),
        (_vasicek_family, density_vasicek(1.0, 0.03, 1.0, 0.05, 0.02), 0.03),
    ]
    for family, terminal_density, S0 in cases:
        s = terminal_density.default_grid(801, 8.0)
        half1 = TransitionMatrix.from_pdf(family(0.5), 0.0, 0.5, s, s)
        half2 = TransitionMatrix.from_pdf(family(0.5), 0.5, 1.0, s, s)
        direct = TransitionMatrix.from_pdf(family(1.0), 0.0, 1.0, s, s)
        composed = compose_transition(half1, half2)
        i0 = int(np.argmin(np.abs(s - S0)))
        gap = l1_distance(s, composed.matrix[i0], direct.matrix[i0])
        assert gap < 5e-3, f"composition gap {gap:.2e} from S0 = {S0}"


def test_criterion_05_one_step_statistics_match_the_chain_rule():
    model = make_gbm(0.05, 0.2)
    S0 = 100.0
    cases = [
        (lambda t, s: s[:, 0], 0.0, [1.0], [[0.0]], 101),
        (lambda t, s: np.log(s[:, 0]), 0.0, [1.0 / S0],
         [[-1.0 / S0 ** 2]], 102),
        (lambda t, s: s[:, 0] ** 2, 0.0, [2.0 * S0], [[2.0]], 103),
    ]
    for f, dfdt, grad, hess, seed in cases:
        rep = ito_check(model, f, dfdt, grad, hess, S0, 1e-3, 10**6, seed)
        assert abs(rep.z_drift) <= 4.0, f"drift z = {rep.z_drift:.2f}"
        assert abs(rep.z_vol) <= 4.0, f"vol z = {rep.z_vol:.2f}"


def test_criterion_06_terminal_variance_is_step_free_and_linear_in_t():
    model = make_bm(0.1, 0.5)
    rep = scaling_check(model, 0.0, 1.0, 1.0 / 8, 8, 10**5, seed=61)
    assert abs(rep.z_variance) <= 3.0
    assert rep.coarse.n_steps == 8 and rep.fine.n_steps == 64

    horizons = (0.25, 0.5, 1.0, 2.0, 4.0)
    log_var = []
    for i, T in enumerate(horizons):
        grid = TimeGrid(t0=0.0, dt=T / 8, n_steps=8)
        terminal, _ = simulate_terminal(model, 0.0, grid, 10**5, seed=200 + i)
        log_var.append(math.log(float(np.var(terminal[:, 0], ddof=1))))
    slope = np.polyfit(np.log(horizons), log_var, 1)[0]
    assert abs(slope - 1.0) <= 0.02, f"variance grows like T^{slope:.4f}"


def _mp_call_price(S, K, r, sigma, t):
    S, K, r, sigma, t = (mp.mpf(v) for v in (S, K, r, sigma, t))
    z = sigma * mp.sqrt(t)
    d_plus = (mp.log(S / K) + (r + sigma ** 2 / 2) * t) / z
    phi = lambda x: mp.erfc(-x / mp.sqrt(2)) / 2
    return S * phi(d_plus) - K * mp.exp(-r * t) * phi(d_plus - z)


def test_criterion_07_greeks_match_high_precision_differentiation():
    # central differences evaluated at 40 significant digits remove the
    # double-precision roundoff floor that plain FD hits on tiny gammas
    mp.mp.dps = 40
    S0, r = 100.0, 0.05
    for K, sigma, T in _CELLS:
        g = bs_greeks(BSParams(S=S0, K=K, r=r, sigma=sigma, t=T))
        fd_delta = mp.diff(lambda S: _mp_call_price(S, K, r, sigma, T),
                           mp.mpf(S0))
        fd_kappa = mp.diff(lambda s: _mp_call_price(S0, K, r, s, T),
                           mp.mpf(sigma))
        fd_gamma = mp.diff(lambda S: _mp_call_price(S, K, r, sigma, T),
                           mp.mpf(S0), 2)
        label = f"K={K:g} sigma={sigma:g} T={T:g}"
        assert abs(g.delta - float(fd_delta)) <= 1e-6 * abs(g.delta), label
        assert abs(g.kappa - float(fd_kappa)) <= 1e-6 * abs(g.kappa), label
        assert abs(g.gamma - float(fd_gamma)) <= 1e-6 * abs(g.gamma), label

        # the cancellation identity behind the simplified forms
        p = BSParams(S=S0, K=K, r=r, sigma=sigma, t=T)
        lhs = p.S * norm.pdf(p.d_plus)
        rhs = p.K * math.exp(-p.r * p.t) * norm.pdf(p.d_minus)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), label


def test_criterion_08_index_weights_minimize_variance():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        x = rng.uniform(1.0, 300.0, n)
        s = rng.uniform(0.02, 1.0, n)
        best = index_weights(IndexInputs(prices=x, sigmas=s))
        law = 1.0 / float(np.sum(1.0 / s ** 2))
        assert abs(best.index_variance - law) <= 1e-12 * law
        achieved = portfolio_variance(best.weights, x, s)
        assert abs(achieved - law) <= 1e-12 * law
        # ten thousand random budget-respecting competitors per instance
        u = rng.dirichlet(np.ones(n), size=10_000)
        rivals = np.sum((u * s) ** 2, axis=1)
        assert float(rivals.min()) >= law - 1e-15

    for _ in range(20):
        rows = rng.uniform(0.1, 2.0, (4, 3))
        instruments = [Instrument(delta=d, kappa=k, gamma=g)
                       for d, k, g in rows]
        for targets in (("kappa",), ("kappa", "gamma")):
            rep = neutralize(instruments, targets)
            for t in targets:
                assert abs(rep.residual_greeks[t]) <= 1e-10


def test_criterion_09_discounted_price_is_a_martingale():
    r, sigma, S0 = 0.05, 0.2, 100.0
    model = make_gbm(r, sigma)
    grid = TimeGrid(t0=0.0, dt=1.0 / 64, n_steps=64)
    checkpoints = tuple(range(8, 65, 8))
    _, saved = simulate_terminal(model, S0, grid, 10**6, seed=1109,
                                 checkpoints=checkpoints)
    for m in checkpoints:
        t_m = m / 64
        disc = math.exp(-r * t_m)
        vals = disc * saved[m][:, 0]
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1)) / math.sqrt(vals.size)
        z = abs(mean - S0) / se
        assert z <= 3.0, f"checkpoint t={t_m:g}: z = {z:.2f}"


def test_criterion_10_deterministic_value_identities():
    rng = np.random.default_rng(10)
    for _ in range(50):
        X = float(rng.uniform(1.0, 1e6))
        r = float(rng.uniform(-0.05, 0.15))
        n = int(rng.integers(2, 42))
        dt = float(rng.uniform(0.05, 2.0))
        T = n * dt
        X_r = float(rng.uniform(0.0, 0.9)) * X * math.exp(r * T)
        schedule = fixed_loan_schedule(X, X_r, r, dt, T)
        pv = pv_deterministic(schedule, DiscountCurve.flat(r))
        assert abs(pv - X) <= 1e-12 * X

    for _ in range(20):
        knots = np.sort(rng.uniform(0.1, 5.0, 2))
        curve = DiscountCurve(times=(0.0, float(knots[0]), float(knots[1])),
                              rates=tuple(rng.uniform(-0.03, 0.12, 3)))
        t0, t1, t2 = np.sort(rng.uniform(0.0, 6.0, 3))
        lhs = (zero_coupon_price(curve, t0, t1)
               * zero_coupon_price(curve, t1, t2))
        rhs = zero_coupon_price(curve, t0, t2)
        assert abs(lhs - rhs) <= 1e-12 * rhs

    r, T = 0.05, 1.0
    curve = DiscountCurve.flat(r)
    rn = risk_neutralize(make_gbm(0.1, 0.2), curve)
    green = greens_function(rn, curve, 0.0, 100.0, T, 1.0 / 64)
    assert abs(green.total_mass(-1) - math.exp(-r * T)) <= 1e-6
    assert abs(green.total_mass(32) - math.exp(-r * 0.5)) <= 1e-6


def test_criterion_11_cli_outputs_are_reproducible_bytes(tmp_path):
    cfg = tmp_path / "price.json"
    cfg.write_text(json.dumps({
        "model": {"type": "gbm", "params": {"mu": 0.05, "sigma": 0.2}},
        "curve": 0.05,
        "payoff": {"kind": "call", "strike": 100.0},
        "S0": 100.0, "T": 1.0, "seed": 33, "method": "mc",
        "mc": {"n_paths": 50000, "dt": 0.015625, "exact_terminal": False},
    }), encoding="utf-8")
    bodies = set()
    for run, threads in enumerate(("1", "2", "4")):
        out = str(tmp_path / f"out{run}.json")
        assert cli_main(["price", "--config", str(cfg), "--threads", threads,
                         "--out", out]) == 0
        bodies.add(open(out, "rb").read())
    assert len(bodies) == 1

    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({
        "model": {"type": "bm", "params": {"mu": 0.0, "sigma": 1.0}},
        "S0": 0.0, "dt": 0.125, "n_steps": 8, "n_paths": 64, "seed": 5,
    }), encoding="utf-8")
    sim_bodies = set()
    for run, threads in enumerate(("1", "3")):
        out = str(tmp_path / f"sim{run}.csv")
        assert cli_main(["simulate", "--config", str(sim), "--threads",
                         threads, "--out", out]) == 0
        sim_bodies.add(open(out, "rb").read())
    assert len(sim_bodies) == 1
