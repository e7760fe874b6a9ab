"""Closed-form option values, greeks, and the three numerical PV routes.

The quadrature oracle below is the reference: option values are written
as explicit lognormal integrals and evaluated with adaptive quadrature,
independent of every closed form in the package.
"""

import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from stochastica import (
    BSParams,
    DiscountCurve,
    NumericalError,
    PayoffSpec,
    bs_greeks,
    bs_price,
    call_payoff,
    digital_payoff,
    greens_function,
    make_bm,
    make_correlated_gbm,
    make_gbm,
    make_vasicek,
    norm_cdf,
    norm_pdf,
    payoff_from_config,
    put_payoff,
    pv_green,
    pv_mc,
    pv_pde,
    risk_neutralize,
    table_payoff,
)
from stochastica import density, mc, noise, pathintegral, pricing
from stochastica.cli import main
from stochastica.mc import TimeGrid, _mean_and_se, simulate_terminal
from stochastica.models import GBM, model_hash


def quad_price(payoff_fn, S, r, sigma, t, K_break=None):
    """Discounted lognormal expectation of a payoff by adaptive quadrature."""
    m = math.log(S) + (r - 0.5 * sigma ** 2) * t
    v = sigma * math.sqrt(t)

    def integrand(x):
        return payoff_fn(math.exp(x)) * norm.pdf(x, loc=m, scale=v)

    pts = [math.log(K_break)] if K_break else None
    val, err = quad(integrand, m - 12 * v, m + 12 * v, points=pts,
                    limit=200, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-9
    return math.exp(-r * t) * val


_GRID = [(K, sigma, T)
         for K in (80.0, 100.0, 120.0)
         for sigma in (0.1, 0.2, 0.4)
         for T in (0.25, 1.0, 2.0)]


# ---------------------------------------------------------------------------
# closed forms against the oracle


def test_atm_zero_rate_value_matches_oracle():
    # r = 0, S = K, so the value reduces to S * (2 Phi(sigma sqrt(t)/2) - 1)
    p = BSParams(S=100.0, K=100.0, r=0.0, sigma=0.2, t=1.0)
    got = bs_price(p)
    assert got == pytest.approx(100.0 * (2.0 * norm.cdf(0.1) - 1.0), abs=1e-10)
    oracle = quad_price(lambda s: max(s - 100.0, 0.0), 100.0, 0.0, 0.2, 1.0,
                        K_break=100.0)
    assert got == pytest.approx(oracle, abs=1e-10)
    assert got == pytest.approx(7.9656, abs=1e-4)


@pytest.mark.parametrize("K,sigma,T", [(80.0, 0.4, 2.0), (100.0, 0.2, 1.0),
                                       (120.0, 0.1, 0.25)])
def test_call_and_put_match_oracle(K, sigma, T):
    S, r = 100.0, 0.05
    p = BSParams(S=S, K=K, r=r, sigma=sigma, t=T)
    call = quad_price(lambda s: max(s - K, 0.0), S, r, sigma, T, K_break=K)
    put = quad_price(lambda s: max(K - s, 0.0), S, r, sigma, T, K_break=K)
    assert bs_price(p, "call") == pytest.approx(call, abs=1e-9)
    assert bs_price(p, "put") == pytest.approx(put, abs=1e-9)


def bs_price_moneyness(p: BSParams, kind: str = "call") -> float:
    """Equivalent dimensionless form: f = Ke^{-rt} [e^m Phi(m/z + z/2) - Phi(m/z - z/2)]

    with moneyness m = ln(S / (K e^{-rt})) and z = sigma sqrt(t).
    """
    if p.sigma * math.sqrt(p.t) == 0.0:
        return bs_price(p, kind)
    disc_k = p.K * math.exp(-p.r * p.t)
    m = math.log(p.S / disc_k)
    z = p.sigma * math.sqrt(p.t)
    call = disc_k * (math.exp(m) * norm_cdf(m / z + 0.5 * z)
                     - norm_cdf(m / z - 0.5 * z))
    if kind == "call":
        return call
    return call - p.S + disc_k


def test_moneyness_form_agrees_everywhere():
    for K, sigma, T in _GRID:
        p = BSParams(S=100.0, K=K, r=0.05, sigma=sigma, t=T)
        for kind in ("call", "put"):
            a = bs_price(p, kind)
            b = bs_price_moneyness(p, kind)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_put_call_parity():
    for K, sigma, T in _GRID:
        p = BSParams(S=100.0, K=K, r=0.05, sigma=sigma, t=T)
        lhs = bs_price(p, "call") - bs_price(p, "put")
        rhs = 100.0 - K * math.exp(-0.05 * T)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_price_monotonicity_and_bounds():
    base = dict(S=100.0, K=100.0, r=0.05, t=1.0)
    vols = [0.05, 0.1, 0.2, 0.4, 0.8]
    prices = [bs_price(BSParams(sigma=v, **base)) for v in vols]
    assert all(a < b for a, b in zip(prices, prices[1:]))
    for T in (0.25, 1.0, 2.0):
        for sigma in (0.1, 0.4):
            p = BSParams(S=100.0, K=90.0, r=0.05, sigma=sigma, t=T)
            val = bs_price(p)
            assert max(p.S - p.K * math.exp(-p.r * p.t), 0.0) <= val <= p.S


def test_degenerate_price_is_discounted_intrinsic():
    p = BSParams(S=100.0, K=90.0, r=0.05, sigma=0.0, t=2.0)
    assert bs_price(p) == pytest.approx(100.0 - 90.0 * math.exp(-0.1), abs=1e-14)
    p0 = BSParams(S=100.0, K=110.0, r=0.05, sigma=0.3, t=0.0)
    assert bs_price(p0) == 0.0
    assert bs_price(p0, "put") == pytest.approx(10.0, abs=1e-14)


def test_params_validation():
    with pytest.raises(ValueError):
        BSParams(S=0.0, K=100.0, r=0.0, sigma=0.2, t=1.0)
    with pytest.raises(ValueError):
        BSParams(S=100.0, K=-1.0, r=0.0, sigma=0.2, t=1.0)
    with pytest.raises(ValueError):
        BSParams(S=100.0, K=100.0, r=0.0, sigma=-0.2, t=1.0)
    with pytest.raises(ValueError):
        BSParams(S=100.0, K=100.0, r=0.0, sigma=0.2, t=-1.0)
    with pytest.raises(ValueError):
        bs_price(BSParams(S=100.0, K=100.0, r=0.0, sigma=0.2, t=1.0), "straddle")


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["S", "K", "r", "sigma", "t"])
def test_params_refuse_a_non_finite_input_by_name(field, value):
    # an infinite expiry or volatility used to price as nan, an infinite spot as inf
    base = dict(S=100.0, K=100.0, r=0.05, sigma=0.2, t=1.0)
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got "):
        BSParams(**dict(base, **{field: value}))


def test_gaussian_helpers_match_scipy():
    x = np.linspace(-6.0, 6.0, 25)
    np.testing.assert_allclose(norm_cdf(x), norm.cdf(x), atol=1e-15)
    np.testing.assert_allclose(norm_pdf(x), norm.pdf(x), atol=1e-15)
    assert isinstance(norm_cdf(0.3), float)


# ---------------------------------------------------------------------------
# greeks


def test_greeks_match_finite_differences():
    p = BSParams(S=100.0, K=110.0, r=0.05, sigma=0.25, t=0.75)
    g = bs_greeks(p)
    eps = 1e-3

    def price_at(S=p.S, sigma=p.sigma):
        return bs_price(BSParams(S=S, K=p.K, r=p.r, sigma=sigma, t=p.t))

    fd_delta = (price_at(S=p.S + eps) - price_at(S=p.S - eps)) / (2 * eps)
    fd_kappa = (price_at(sigma=p.sigma + 1e-5)
                - price_at(sigma=p.sigma - 1e-5)) / 2e-5
    fd_gamma = (price_at(S=p.S + eps) - 2 * price_at()
                + price_at(S=p.S - eps)) / eps ** 2
    assert g.delta == pytest.approx(fd_delta, rel=1e-7)
    assert g.kappa == pytest.approx(fd_kappa, rel=1e-7)
    assert g.gamma == pytest.approx(fd_gamma, rel=1e-5)
    assert not g.degenerate


def delta_expanded(p):
    """Spot sensitivity written out term by term before simplification;
    the trailing bracket cancels because S N(d+) = K e^{-rt} N(d-)."""
    z = p.sigma * math.sqrt(p.t)
    return (norm_cdf(p.d_plus)
            + (norm_pdf(p.d_plus)
               - p.K * math.exp(-p.r * p.t) / p.S * norm_pdf(p.d_minus)) / z)


def kappa_expanded(p):
    """Volatility sensitivity via the explicit d+- derivatives,
    d(d+-)/dsigma = -(ln(S/K) + rt)/(sigma^2 sqrt(t)) +- sqrt(t)/2."""
    core = -(math.log(p.S / p.K) + p.r * p.t) / (p.sigma ** 2 * math.sqrt(p.t))
    dd_plus = core + 0.5 * math.sqrt(p.t)
    dd_minus = core - 0.5 * math.sqrt(p.t)
    return (p.S * norm_pdf(p.d_plus) * dd_plus
            - p.K * math.exp(-p.r * p.t) * norm_pdf(p.d_minus) * dd_minus)


def test_collapsing_identity_holds():
    # S N(d+) = K e^{-rt} N(d-) is what makes the short greek forms valid
    for K, sigma, T in _GRID:
        p = BSParams(S=100.0, K=K, r=0.05, sigma=sigma, t=T)
        lhs = p.S * norm_pdf(p.d_plus)
        rhs = p.K * math.exp(-p.r * p.t) * norm_pdf(p.d_minus)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        g = bs_greeks(p)
        assert abs(delta_expanded(p) - g.delta) <= 1e-9 * max(1.0, abs(g.delta))
        assert abs(kappa_expanded(p) - g.kappa) <= 1e-9 * max(1.0, abs(g.kappa))


@pytest.mark.parametrize("sigma, delta_tol", [
    (1e-8, 1e-8),
    # rounding K = 100 e^0.05 to a double alone puts d+ at -1.13e-6 here (by
    # exact arithmetic on the doubles), so delta itself is 0.5 - 4.5e-7
    (1e-10, 5e-7)])
def test_greeks_near_the_forward_with_a_tiny_volatility(tmp_path, sigma, delta_tol):
    # the long-hand bracket cancels to rounding here and is divided by
    # sigma sqrt(t); comparing with it rejected these correct answers
    doc = {"S": 100.0, "K": 100.0 * math.exp(0.05), "r": 0.05, "sigma": sigma,
           "t": 1.0}
    cfg = tmp_path / "greeks.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "greeks_out.json"
    assert main(["greeks", "--config", str(cfg), "--out", str(out)]) == 0
    shown = json.loads(out.read_text())
    g = bs_greeks(BSParams(**doc))
    for delta, kappa, gamma in ((g.delta, g.kappa, g.gamma),
                                (shown["delta"], shown["kappa"], shown["gamma"])):
        assert abs(delta - 0.5) <= delta_tol
        assert kappa == pytest.approx(100.0 / math.sqrt(2 * math.pi), rel=1e-6)
        assert gamma == pytest.approx(
            1.0 / (100.0 * sigma * math.sqrt(2 * math.pi)), rel=1e-6)


def test_degenerate_greeks():
    itm = bs_greeks(BSParams(S=100.0, K=90.0, r=0.05, sigma=0.0, t=1.0))
    assert (itm.delta, itm.kappa, itm.gamma) == (1.0, 0.0, 0.0)
    assert itm.degenerate
    otm = bs_greeks(BSParams(S=80.0, K=90.0, r=0.0, sigma=0.0, t=1.0))
    assert otm.delta == 0.0
    atm_fwd = bs_greeks(
        BSParams(S=90.0 * math.exp(-0.05), K=90.0, r=0.05, sigma=0.0, t=1.0))
    assert atm_fwd.delta == 0.5
    assert atm_fwd.gamma == math.inf
    assert atm_fwd.kappa == pytest.approx(
        90.0 * math.exp(-0.05) / math.sqrt(2 * math.pi))
    expired = bs_greeks(BSParams(S=100.0, K=100.0, r=0.0, sigma=0.3, t=0.0))
    assert expired.gamma == 0.0 and expired.kappa == 0.0


# ---------------------------------------------------------------------------
# payoff construction


def test_payoff_builders():
    s = np.array([80.0, 100.0, 125.0])
    np.testing.assert_allclose(call_payoff(100.0).terminal(s), [0.0, 0.0, 25.0])
    np.testing.assert_allclose(put_payoff(100.0).terminal(s), [20.0, 0.0, 0.0])
    np.testing.assert_allclose(digital_payoff(100.0).terminal(s),
                               [0.0, 0.0, 1.0])
    tab = table_payoff([0.0, 100.0, 200.0], [0.0, 0.0, 100.0])
    np.testing.assert_allclose(tab.terminal(np.array([50.0, 150.0])),
                               [0.0, 50.0])


@pytest.mark.parametrize("make", [call_payoff, put_payoff, digital_payoff])
def test_built_in_payoffs_refuse_an_infinite_strike(make):
    # a put of strike inf used to fail in pv_mc as a non-finite payoff
    with pytest.raises(ValueError, match="^strike must be finite, got inf$"):
        make(math.inf)


def test_payoff_validation():
    with pytest.raises(ValueError, match="kind"):
        PayoffSpec(terminal=lambda s: s, kind="barrier")
    with pytest.raises(ValueError, match="strike"):
        PayoffSpec(terminal=lambda s: s, kind="call")
    with pytest.raises(ValueError):
        table_payoff([1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        table_payoff([0.0, 1.0], [0.0, math.nan])


def test_payoff_from_config():
    assert payoff_from_config({"kind": "call", "strike": 90.0}).strike == 90.0
    assert payoff_from_config({"kind": "put", "strike": 90.0}).kind == "put"
    assert payoff_from_config({"kind": "digital", "strike": 90.0}).kind == "digital"
    custom = payoff_from_config(
        {"kind": "custom", "table": {"s": [0.0, 1.0], "values": [1.0, 2.0]}})
    assert custom.terminal(0.5) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        payoff_from_config({"strike": 90.0})
    with pytest.raises(ValueError, match="strike"):
        payoff_from_config({"kind": "call"})
    with pytest.raises(ValueError, match="must be one of"):
        payoff_from_config({"kind": "asian", "strike": 90.0})
    with pytest.raises(ValueError, match="table"):
        payoff_from_config({"kind": "custom"})


# ---------------------------------------------------------------------------
# risk-neutral drift


@pytest.mark.parametrize("value", [0, -1, math.nan])
@pytest.mark.parametrize("route, name", [("mc", "T"), ("pde", "T"), ("pde", "S0")])
def test_pricing_routes_name_a_spot_or_horizon_that_is_not_positive(route, name, value):
    # pv_pde said "S0 and T must be positive" for either; pv_mc "T must be positive"
    args = dict({"S0": 100.0, "T": 1.0}, **{name: value})
    curve, model = DiscountCurve.flat(0.05), make_gbm(0.05, 0.2)
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be finite and positive, got {value!r}")):
        if route == "mc":
            pv_mc(model, curve, call_payoff(100.0), args["S0"], args["T"], 0.25, 100, 1)
        else:
            pv_pde(call_payoff(100.0), curve, 0.2, args["S0"], args["T"])


@pytest.mark.parametrize("curve", [
    DiscountCurve.flat(0.05), DiscountCurve(times=(0.0, 0.5), rates=(0.02, 0.06)),
], ids=["flat", "two-rate"])
@pytest.mark.parametrize("exact", [None, False], ids=["exact-terminal", "euler-paths"])
@pytest.mark.parametrize("S0", [0.0, -100.0])
def test_pv_mc_refuses_a_log_space_family_at_a_spot_at_or_below_zero(S0, exact, curve):
    # it priced a put on a GBM started at -100 at 194.94, where pv_pde and
    # greens_function refuse the spot
    with pytest.raises(ValueError, match=re.escape(f"this model needs S > 0; S0 = {S0!r}")):
        pv_mc(make_gbm(0.05, 0.2), curve, put_payoff(100.0), S0, 1.0, 0.25, 20000, 1,
              exact_terminal=exact)


def test_pv_mc_prices_a_bm_from_a_negative_spot():
    # a Gaussian family has no log-space form, so any finite S0 is priced;
    # each Euler step multiplies the mean by 1 + r dt
    curve = DiscountCurve.flat(0.05)
    model = risk_neutralize(make_bm(0.0, 20.0), curve, override_drift=lambda t, S: 0.05 * S)
    est = pv_mc(model, curve, PayoffSpec(terminal=lambda s: s), -100.0, 1.0, 0.25, 20000, 1)
    expect = -100.0 * (1.0 + 0.05 * 0.25) ** 4 * math.exp(-0.05)
    assert abs(est.mean - expect) < 4 * est.std_error


@pytest.mark.parametrize("threads", [1, 2])
def test_pv_mc_euler_terminal_states_equal_simulate_terminals(threads):
    # one march, mc._euler_batch, serves both; 40,000 paths make two spans
    # at two threads
    seen = []

    def recording(s):
        seen.append(np.array(s))
        return np.zeros_like(s)

    curve, model, n_paths = DiscountCurve.flat(0.05), make_gbm(0.1, 0.2), 40000
    pv_mc(model, curve, PayoffSpec(terminal=recording), 100.0, 1.0, 0.25, n_paths,
          seed=5, threads=threads, exact_terminal=False)
    terminal, _ = simulate_terminal(risk_neutralize(model, curve), 100.0,
                                    TimeGrid(0.0, 0.25, 4), n_paths, 5, threads=threads)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0].view(np.uint64), terminal[:, 0].view(np.uint64))


def test_risk_neutralize_gbm():
    curve = DiscountCurve(times=(0.0,), rates=(0.05,))
    rn = risk_neutralize(make_gbm(0.12, 0.2), curve)
    assert rn.risk_neutral
    assert rn.family == GBM(mu=0.05, sigma=0.2)
    assert rn.config["params"]["mu"] == 0.05
    assert rn.config["params"]["sigma"] == 0.2
    s = np.array([[100.0]])
    np.testing.assert_allclose(rn.drift(0.0, s), 0.05 * s, rtol=1e-15)
    np.testing.assert_allclose(rn.vol(0.0, s), 0.2 * s[..., None], rtol=1e-15)


def test_risk_neutralize_non_flat_curve():
    curve = DiscountCurve(times=(0.0, 1.0), rates=(0.02, 0.06))
    rn = risk_neutralize(make_gbm(0.12, 0.2), curve)
    assert rn.family == GBM(mu=None, sigma=0.2)
    assert "mu" not in rn.config["params"]
    assert rn.config["curve"]["rates"] == [0.02, 0.06]
    s = np.array([[100.0]])
    np.testing.assert_allclose(rn.drift(1.5, s), 0.06 * s, rtol=1e-15)


def test_risk_neutralize_requires_override_for_other_kinds():
    curve = DiscountCurve(times=(0.0,), rates=(0.05,))
    with pytest.raises(ValueError, match="override"):
        risk_neutralize(make_vasicek(1.0, 0.05, 0.02), curve)
    rn = risk_neutralize(make_vasicek(1.0, 0.05, 0.02), curve,
                         override_drift=lambda t, S: 0.05 * S)
    assert rn.risk_neutral
    assert rn.family is None
    assert rn.config["drift_override"] is True
    overridden = risk_neutralize(make_gbm(0.05, 0.2), curve,
                                 override_drift=lambda t, S: 0.30 * S)
    # a drift the caller set is used as it is, on any curve
    assert risk_neutralize(overridden, curve) is overridden
    assert risk_neutralize(overridden, DiscountCurve.flat(0.10)) is overridden


def test_risk_neutralize_on_a_second_curve_forgets_the_first():
    # the drift comes from the curve given last, and so does the hash
    g = make_gbm(0.12, 0.2)
    two_rate = DiscountCurve(times=(0.0, 1.0), rates=(0.02, 0.06))
    flat = DiscountCurve.flat(0.05)
    again = risk_neutralize(risk_neutralize(g, two_rate), flat)
    fresh = risk_neutralize(g, flat)
    assert again.config == fresh.config
    assert model_hash(again) == model_hash(fresh)
    assert again.family == fresh.family == GBM(mu=0.05, sigma=0.2)
    s = np.array([[100.0]])
    assert np.array_equal(again.drift(1.5, s), fresh.drift(1.5, s))


def test_risk_neutralize_moves_a_correlated_gbm_to_the_new_curve():
    model = make_correlated_gbm([0.1, 0.2], [0.2, 0.3], [[1.0, 0.5], [0.5, 1.0]])
    on_a = risk_neutralize(model, DiscountCurve(times=(0.0, 1.0), rates=(0.02, 0.06)))
    on_b = risk_neutralize(on_a, DiscountCurve.flat(0.10))
    assert on_b.config == risk_neutralize(model, DiscountCurve.flat(0.10)).config
    assert on_b.config["params"]["mu"] == 0.10
    s = np.array([[100.0, 50.0]])
    np.testing.assert_allclose(on_b.drift(0.0, s), 0.10 * s, rtol=1e-15)


def test_risk_neutralize_correlated_gbm_without_a_family():
    # a correlated gbm has no family, yet stays price-homogeneous
    curve = DiscountCurve(times=(0.0, 1.0), rates=(0.02, 0.06))
    model = make_correlated_gbm([0.1, 0.2], [0.2, 0.3], [[1.0, 0.5], [0.5, 1.0]])
    rn = risk_neutralize(model, curve)
    assert rn.risk_neutral and rn.family is None
    assert rn.config["params"] == {"sigma": [0.2, 0.3]}
    assert rn.config["curve"]["rates"] == [0.02, 0.06]
    s = np.array([[100.0, 50.0]])
    np.testing.assert_allclose(rn.drift(1.5, s), 0.06 * s, rtol=1e-15)
    assert rn.vol is model.vol
    one = make_correlated_gbm([0.1], [0.2], [[1.0]])
    est = pv_mc(one, DiscountCurve.flat(0.05), call_payoff(100.0), 100.0, 1.0,
                0.25, 1000, seed=1)
    assert est.metadata["sampler"] == "euler-paths"


@pytest.mark.parametrize("S0", [100.0, [100.0, 50.0]], ids=["scalar-S0", "vector-S0"])
def test_pv_mc_refuses_a_multi_asset_model(S0):
    # asset 0 alone used to be priced, silently, at its Black-Scholes value
    model = make_correlated_gbm([0.05, 0.05], [0.2, 0.4], [[1.0, 0.5], [0.5, 1.0]])
    for payoff in (call_payoff(100.0), put_payoff(100.0)):
        with pytest.raises(ValueError, match="dim 2"):
            pv_mc(model, DiscountCurve.flat(0.05), payoff, S0, 1.0, 0.25, 1000, seed=1)


# ---------------------------------------------------------------------------
# Monte Carlo route


def test_pv_mc_exact_terminal_matches_closed_form():
    curve = DiscountCurve(times=(0.0,), rates=(0.05,))
    est = pv_mc(make_gbm(0.12, 0.2), curve, call_payoff(100.0),
                100.0, 1.0, 0.25, 200_000, seed=7)
    assert est.metadata["sampler"] == "exact-terminal"
    assert est.metadata["risk_neutralized"] is True
    assert est.metadata["discount"] == pytest.approx(math.exp(-0.05))
    want = bs_price(BSParams(S=100.0, K=100.0, r=0.05, sigma=0.2, t=1.0))
    assert abs(est.mean - want) < 3.0 * est.std_error


def test_pv_mc_put_within_three_se():
    curve = DiscountCurve(times=(0.0,), rates=(0.03,))
    est = pv_mc(make_gbm(0.0, 0.3), curve, put_payoff(110.0),
                100.0, 2.0, 0.5, 200_000, seed=21)
    want = bs_price(BSParams(S=100.0, K=110.0, r=0.03, sigma=0.3, t=2.0), "put")
    assert abs(est.mean - want) < 3.0 * est.std_error


def test_pv_mc_euler_route_consistent():
    curve = DiscountCurve(times=(0.0,), rates=(0.05,))
    kwargs = dict(S0=100.0, T=1.0, n_paths=100_000, seed=7)
    exact = pv_mc(make_gbm(0.12, 0.2), curve, call_payoff(100.0),
                  dt=0.25, **kwargs)
    euler = pv_mc(make_gbm(0.12, 0.2), curve, call_payoff(100.0),
                  dt=1.0 / 64, exact_terminal=False, **kwargs)
    assert euler.metadata["sampler"] == "euler-paths"
    want = bs_price(BSParams(S=100.0, K=100.0, r=0.05, sigma=0.2, t=1.0))
    assert abs(euler.mean - want) < 4.0 * euler.std_error
    assert abs(exact.mean - euler.mean) < 4.0 * math.hypot(
        exact.std_error, euler.std_error)


def test_pv_mc_thread_count_does_not_change_values():
    curve = DiscountCurve(times=(0.0,), rates=(0.05,))
    args = (make_gbm(0.12, 0.2), curve, call_payoff(100.0), 100.0, 1.0, 0.25,
            70_000)
    a = pv_mc(*args, seed=5, threads=1, exact_terminal=False)
    pricing._clear_path_memo()
    b = pv_mc(*args, seed=5, threads=3, exact_terminal=False)
    assert a.mean == b.mean and a.std_error == b.std_error


def test_pv_mc_default_threads_match_one_thread():
    # 70,000 paths make three spans at one thread and four at two
    curve = DiscountCurve(times=(0.0,), rates=(0.05,))
    args = (make_gbm(0.12, 0.2), curve, call_payoff(100.0), 100.0, 1.0, 0.25,
            70_000)
    for exact in (False, None):
        a = pv_mc(*args, seed=5, threads=1, exact_terminal=exact)
        pricing._clear_path_memo()
        b = pv_mc(*args, seed=5, exact_terminal=exact)
        assert a.mean == b.mean and a.std_error == b.std_error


def test_pv_mc_euler_on_half_size_spans_is_the_same_at_one_two_and_three_threads():
    # on two threads 131,072 paths are four 32,768-path spans, two each
    assert mc._spans(131_072, 2) == [(k * 32_768, (k + 1) * 32_768) for k in range(4)]
    args = (make_gbm(0.05, 0.4), DiscountCurve.flat(0.05), call_payoff(80.0), 100.0,
            2.0, 2.0 / 16, 131_072, 3)
    got = set()
    for threads in (1, 2, 3):
        pricing._clear_path_memo()
        est = pv_mc(*args, threads=threads, exact_terminal=False)
        got.add((est.mean, est.std_error))
    assert len(got) == 1


_STREAM = PayoffSpec(terminal=lambda s: np.maximum(s - 100.0, 0.0),
                     stream=lambda t, s: 0.01 * s + t)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("curve", [DiscountCurve.flat(0.05),
                                   DiscountCurve(times=(0.0, 0.5),
                                                 rates=(0.03, 0.07))],
                         ids=["flat", "two-rate"])
@pytest.mark.parametrize("route,strip", [
    ("euler", (call_payoff(90.0), put_payoff(110.0), digital_payoff(100.0))),
    ("euler", (call_payoff(100.0), _STREAM, put_payoff(95.0))),
    ("exact", (call_payoff(90.0), put_payoff(110.0), digital_payoff(100.0))),
    ("default", (call_payoff(100.0), _STREAM)),
], ids=["euler", "euler-stream", "exact", "mixed"])
def test_pv_mc_strip_equals_one_call_per_payoff(route, strip, curve, threads):
    # a strip priced by consecutive calls on one path set, memo hits
    # included, equals cold calls; 32,768 paths make two spans on two threads
    exact = {"euler": False, "exact": True, "default": None}[route]
    args = (make_gbm(0.1, 0.2), curve)
    rest = (100.0, 1.0, 1.0 / 8, 32_768, 21)
    got = [pv_mc(*args, payoff, *rest, threads=threads, exact_terminal=exact)
           for payoff in strip]
    for est, payoff in zip(got, strip):
        pricing._clear_path_memo()
        one = pv_mc(*args, payoff, *rest, threads=threads, exact_terminal=exact)
        assert est.mean == one.mean and est.std_error == one.std_error
        assert est.metadata == one.metadata


def test_pv_mc_strip_under_thread_switch_stress():
    # five spans on five threads (more than the cores) write disjoint
    # slices of shared arrays while the interpreter switches threads often
    curve = DiscountCurve.flat(0.05)
    strip = (call_payoff(100.0), _STREAM)
    n = 5 * mc._MIN_SPAN + 3
    args = (make_gbm(0.1, 0.2), curve)
    rest = (100.0, 1.0, 1.0 / 4, n, 9)

    def run(threads):
        pricing._clear_path_memo()    # the first payoff simulates too
        return [(e.mean, e.std_error) for e in (
            pv_mc(*args, payoff, *rest, threads=threads, exact_terminal=False)
            for payoff in strip)]

    want = run(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert run(5) == want
    finally:
        sys.setswitchinterval(interval)


def test_pv_mc_strip_validation():
    # each payoff of a strip is checked by its own call
    curve = DiscountCurve.flat(0.05)
    args = (make_gbm(0.1, 0.2), curve)
    rest = (100.0, 1.0, 0.25, 100, 0)
    one = pv_mc(*args, call_payoff(100.0), *rest, exact_terminal=True)
    assert one.metadata["sampler"] == "exact-terminal"
    with pytest.raises(ValueError, match="exact terminal"):
        pv_mc(*args, _STREAM, *rest, exact_terminal=True)


@pytest.mark.parametrize("payoff", [
    (call_payoff(90.0), put_payoff(110.0)), [call_payoff(100.0)], (), 3.0],
    ids=["tuple", "list", "empty", "float"])
def test_pv_mc_refuses_anything_but_one_payoff(payoff):
    # a sequence used to be priced as a strip and return a tuple
    with pytest.raises(ValueError, match="payoff must be a PayoffSpec, got "
                       + type(payoff).__name__):
        pv_mc(make_gbm(0.1, 0.2), DiscountCurve.flat(0.05), payoff, 100.0, 1.0,
              0.25, 100, 0)


def test_pv_mc_stream_is_left_riemann_sum():
    # a state-independent unit stream makes every path identical
    r, T, dt = 0.05, 1.0, 0.125
    curve = DiscountCurve(times=(0.0,), rates=(r,))
    payoff = PayoffSpec(terminal=lambda s: np.zeros_like(s),
                        stream=lambda t, s: np.ones_like(s))
    est = pv_mc(make_gbm(0.1, 0.2), curve, payoff, 100.0, T, dt, 500, seed=0)
    n = round(T / dt)
    want = sum(math.exp(-r * m * dt) * dt for m in range(n))
    assert est.mean == pytest.approx(want, abs=1e-12)
    assert est.std_error < 1e-12
    assert est.metadata["sampler"] == "euler-paths"


@pytest.mark.parametrize("with_stream", [False, True])
def test_pv_mc_euler_route_equals_payoff_of_simulated_paths(with_stream):
    # pv_mc steps with the same Euler core as simulate_terminal, so pricing
    # the simulated states by hand reproduces it bit for bit
    curve = DiscountCurve(times=(0.0, 0.5), rates=(0.03, 0.07))
    stream = (lambda t, s: 0.01 * s + t) if with_stream else None
    payoff = PayoffSpec(terminal=lambda s: np.maximum(s - 100.0, 0.0),
                        stream=stream)
    model = make_gbm(0.1, 0.2)
    dt, n_steps, n_paths = 1.0 / 16, 16, 3000
    est = pv_mc(model, curve, payoff, 100.0, 1.0, dt, n_paths, seed=17,
                exact_terminal=False)

    rn = risk_neutralize(model, curve)
    terminal, saved = simulate_terminal(rn, 100.0, TimeGrid(0.0, dt, n_steps),
                                        n_paths, 17, checkpoints=range(n_steps))
    values = curve.discount(0.0, 1.0) * payoff.terminal(terminal[:, 0])
    if with_stream:
        acc = np.zeros(n_paths)
        for m in range(n_steps):
            acc += curve.discount(0.0, m * dt) * dt * stream(m * dt, saved[m][:, 0])
        values = values + acc
    assert (est.mean, est.std_error) == _mean_and_se(values)


def test_pv_mc_rejects_zero_threads():
    curve = DiscountCurve(times=(0.0,), rates=(0.05,))
    for exact in (None, False):
        with pytest.raises(ValueError, match="threads"):
            pv_mc(make_gbm(0.1, 0.2), curve, call_payoff(100.0), 100.0, 1.0,
                  0.25, 100, seed=0, threads=0, exact_terminal=exact)


def test_overridden_drift_never_takes_the_exact_sampler():
    # the exact lognormal sampler would ignore the override and price at
    # the curve's rate (about 10.4) instead of the 30% drift
    curve = DiscountCurve(times=(0.0,), rates=(0.05,))
    rn = risk_neutralize(make_gbm(0.05, 0.2), curve,
                         override_drift=lambda t, S: 0.30 * S)
    assert rn.family is None
    est = pv_mc(rn, curve, call_payoff(100.0), 100.0, 1.0, 1.0 / 64, 50_000,
                seed=3)
    assert est.metadata["sampler"] == "euler-paths"
    grown = bs_price(BSParams(S=100.0, K=100.0, r=0.30, sigma=0.2, t=1.0))
    want = grown * math.exp(0.30 - 0.05)
    assert abs(est.mean - want) < 4.0 * est.std_error


def test_pv_mc_validation():
    curve = DiscountCurve(times=(0.0,), rates=(0.05,))
    model = make_gbm(0.1, 0.2)
    with pytest.raises(ValueError):
        pv_mc(model, curve, call_payoff(100.0), 100.0, 0.0, 0.25, 100, seed=0)
    with pytest.raises(ValueError):
        pv_mc(model, curve, call_payoff(100.0), 100.0, 1.0, 0.3, 100, seed=0)
    with pytest.raises(ValueError):
        pv_mc(model, curve, call_payoff(100.0), 100.0, 1.0, 0.25, 0, seed=0)
    stream = PayoffSpec(terminal=lambda s: np.zeros_like(s),
                        stream=lambda t, s: np.ones_like(s))
    with pytest.raises(ValueError, match="exact"):
        pv_mc(model, curve, stream, 100.0, 1.0, 0.25, 100, seed=0,
              exact_terminal=True)


@pytest.mark.parametrize("bad", [True, 2.5, 3.0, math.nan, 0])
def test_pv_mc_path_count_must_be_an_integer_named_in_the_error(bad):
    curve = DiscountCurve.flat(0.05)
    for exact in (None, False):
        with pytest.raises(ValueError, match="n_paths must be an integer >= 1"):
            pv_mc(make_gbm(0.05, 0.2), curve, call_payoff(100.0), 100.0, 1.0,
                  0.25, bad, 1, exact_terminal=exact)


@pytest.mark.parametrize("exact", [None, False])
@pytest.mark.parametrize("S0, message", [
    (math.nan, "S0 must be finite"),
    (math.inf, "S0 must be finite"),
    ([100.0, 100.0], "S0 must be a scalar or a vector"),
])
def test_pv_mc_rejects_a_bad_spot_on_both_routes(S0, message, exact):
    # the exact route blamed the payoff ("non-finite values") or numpy
    with pytest.raises(ValueError, match=message):
        pv_mc(make_gbm(0.05, 0.2), DiscountCurve.flat(0.05), call_payoff(100.0),
              S0, 1.0, 0.25, 1000, 1, exact_terminal=exact)


@pytest.mark.parametrize("exact", [True, False])
def test_pv_mc_refuses_a_payoff_that_is_not_finite_on_its_paths(exact):
    # no test reached this guard; the paths cross S = 120, so both samplers trip it
    payoff = PayoffSpec(terminal=lambda s: np.where(s > 120.0, np.inf, 0.0))
    with pytest.raises(NumericalError, match="payoff produced non-finite values"):
        pv_mc(make_gbm(0.05, 0.2), DiscountCurve.flat(0.05), payoff, 100.0, 1.0,
              1.0 / 64, 4096, 1, exact_terminal=exact)


# ---------------------------------------------------------------------------
# pv_mc's memo of its latest simulation


@pytest.fixture
def draws(monkeypatch):
    """Counts noise block draws; a simulation makes at least one."""
    calls = []
    uniform_block = noise.uniform_block

    def counted(*args):
        calls.append(args)
        return uniform_block(*args)

    monkeypatch.setattr(noise, "uniform_block", counted)
    pricing._clear_path_memo()
    yield calls
    pricing._clear_path_memo()


# pre-neutralized, so that a change of curve alone leaves the model hash
_MEMO_MODEL = risk_neutralize(make_gbm(0.05, 0.2), DiscountCurve.flat(0.05))


def _memo_call(model=_MEMO_MODEL, curve=DiscountCurve.flat(0.05),
               payoff=call_payoff(100.0), S0=100.0, T=1.0, dt=0.25, n_paths=2000,
               seed=3, exact=False):
    return pv_mc(model, curve, payoff, S0, T, dt, n_paths, seed,
                 exact_terminal=exact)


def _same_estimate(a, b) -> bool:
    return (a.mean, a.std_error, a.metadata, a.n_paths) == \
        (b.mean, b.std_error, b.metadata, b.n_paths)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("model", [make_gbm(0.05, 0.2), _MEMO_MODEL],
                         ids=["physical", "risk-neutral"])
def test_pv_mc_memo_hit_equals_a_cold_call(draws, model, exact):
    put = put_payoff(110.0)
    cold_put = _memo_call(model, payoff=put, exact=exact)
    pricing._clear_path_memo()
    cold = _memo_call(model, exact=exact)
    assert draws
    draws.clear()
    hit, hit_put = _memo_call(model, exact=exact), _memo_call(model, payoff=put,
                                                              exact=exact)
    assert not draws
    assert _same_estimate(hit, cold) and _same_estimate(hit_put, cold_put)


@pytest.mark.parametrize("change", [
    {"model": risk_neutralize(make_gbm(0.05, 0.2), DiscountCurve.flat(0.05))},
    {"curve": DiscountCurve.flat(0.04)},
    {"S0": 101.0},
    {"T": 1.0 + 1e-12},           # same step count
    {"dt": 0.25 * (1.0 + 1e-12)},  # same step count
    {"n_paths": 2001},
    {"seed": 4},
    {"exact": True},
], ids=["model", "curve", "S0", "T", "dt", "n_paths", "seed", "sampler"])
def test_pv_mc_memo_misses_when_one_key_field_changes(draws, change):
    _memo_call()
    draws.clear()
    _memo_call()
    assert not draws
    _memo_call(**change)
    assert draws


def test_pv_mc_memo_misses_after_the_model_config_changes(draws):
    model = make_gbm(0.05, 0.2)
    cold = _memo_call(model)
    model.config["label"] = "renamed"    # config is a plain dict
    draws.clear()
    renamed = _memo_call(model)
    assert draws
    assert renamed.metadata["model_hash"] != cold.metadata["model_hash"]


@pytest.mark.parametrize("exact", [False, True])
def test_pv_mc_strip_simulates_once_per_sampler(draws, exact):
    # a strip is priced by one call per payoff; the memo serves all but the first
    strip = (call_payoff(90.0), put_payoff(110.0), digital_payoff(100.0))
    _memo_call(payoff=strip[0], exact=exact)
    lone = list(draws)
    pricing._clear_path_memo()
    draws.clear()
    for payoff in strip:
        _memo_call(payoff=payoff, exact=exact)
    assert lone and draws == lone


def test_pv_mc_stream_payoff_still_simulates(draws):
    _memo_call()
    draws.clear()
    _memo_call(payoff=_STREAM)
    assert draws


def test_pv_mc_failed_simulation_stores_nothing(draws):
    blowup = risk_neutralize(make_gbm(0.05, 0.2), DiscountCurve.flat(0.05),
                             override_drift=lambda t, S: np.full_like(S, np.inf))
    _memo_call()
    with pytest.raises(NumericalError):
        _memo_call(blowup)
    draws.clear()
    _memo_call()
    assert not draws


def test_pv_mc_payoff_writing_into_its_argument_cannot_change_a_hit(draws):
    def doubling(s):
        s *= 2.0
        return np.maximum(s - 100.0, 0.0)

    cold = _memo_call()
    _memo_call(payoff=PayoffSpec(terminal=doubling))
    draws.clear()
    assert _same_estimate(_memo_call(), cold)
    assert not draws


def test_pv_mc_memo_keeps_one_path_set(draws):
    simulations = 0
    for seed in (3, 4, 3):
        draws.clear()
        _memo_call(seed=seed)
        simulations += bool(draws)
    assert simulations == 3


def test_pv_mc_memo_under_thread_switch_stress():
    # four threads price two path sets in turn through the one shared entry
    # while the interpreter switches threads often; each result must still
    # come from its own path set
    from concurrent.futures import ThreadPoolExecutor

    model, curve = make_gbm(0.05, 0.2), DiscountCurve.flat(0.05)

    def price(seed):
        est = pv_mc(model, curve, call_payoff(100.0), 100.0, 1.0, 0.25, 2000,
                    seed, threads=1, exact_terminal=False)
        return est.mean, est.std_error

    want = {}
    for seed in (1, 2):
        pricing._clear_path_memo()
        want[seed] = price(seed)
    seeds = [1, 2] * 20
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(price, seeds, timeout=60))
    finally:
        sys.setswitchinterval(interval)
        pricing._clear_path_memo()
    assert got == [want[s] for s in seeds]


# ---------------------------------------------------------------------------
# PDE route


def test_pv_pde_matches_closed_form():
    curve = DiscountCurve(times=(0.0,), rates=(0.05,))
    gf = pv_pde(call_payoff(100.0), curve, 0.2, 100.0, 1.0)
    want = bs_price(BSParams(S=100.0, K=100.0, r=0.05, sigma=0.2, t=1.0))
    assert abs(gf(100.0) - want) < 1e-3 * want
    # the grid is centred on ln S0, so the spot is a node of every grid
    assert float(np.min(np.abs(gf.s_values - 100.0))) < 1e-9 * 100.0
    pf = pv_pde(put_payoff(120.0), curve, 0.4, 100.0, 0.5)
    want_p = bs_price(BSParams(S=100.0, K=120.0, r=0.05, sigma=0.4, t=0.5),
                      "put")
    assert abs(pf(100.0) - want_p) < 1e-3 * want_p
    # a digital jumps by a whole cell at a node; the cell-averaged payoff
    # weights the jump by where it falls (the snapped grid missed by 7.7e-3)
    for K, sigma, T in _GRID:
        p = BSParams(S=100.0, K=K, r=0.05, sigma=sigma, t=T)
        want_d = math.exp(-p.r * T) * norm_cdf(p.d_minus)
        got = float(pv_pde(digital_payoff(K), curve, sigma, 100.0, T)(100.0))
        assert abs(got - want_d) <= 1e-3 * want_d, (K, sigma, T)


def test_pv_pde_constant_stream_is_an_annuity():
    # terminal 0 with unit stream has value (1 - e^{-rT})/r independent of S
    r, T = 0.05, 1.0
    curve = DiscountCurve(times=(0.0,), rates=(r,))
    payoff = PayoffSpec(terminal=lambda s: np.zeros_like(s),
                        stream=lambda t, s: np.ones_like(s))
    gf = pv_pde(payoff, curve, 0.2, 100.0, T, n_nodes=513, n_steps=256)
    want = (1.0 - math.exp(-r * T)) / r
    assert gf(100.0) == pytest.approx(want, rel=1e-5)
    assert gf(80.0) == pytest.approx(gf(125.0), rel=1e-9)


def test_pv_pde_validation():
    flat = DiscountCurve(times=(0.0,), rates=(0.05,))
    bumpy = DiscountCurve(times=(0.0, 1.0), rates=(0.02, 0.06))
    with pytest.raises(ValueError, match="flat"):
        pv_pde(call_payoff(100.0), bumpy, 0.2, 100.0, 1.0)
    with pytest.raises(ValueError, match=r"strike 100\.0 lies outside the grid's "
                       r"price range \[0\.\d+, [\d.]+\]"):
        pv_pde(call_payoff(100.0), flat, 0.2, 1.0, 1.0, half_width=2.0)
    with pytest.raises(ValueError):
        pv_pde(call_payoff(100.0), flat, -0.2, 100.0, 1.0)
    with pytest.raises(ValueError):
        pv_pde(call_payoff(100.0), flat, 0.2, 100.0, 0.0)


def test_pv_pde_refuses_a_sigma_that_is_nan_at_the_spot():
    # the NaN width made a NaN grid, and the strike was said to lie outside it
    flat = DiscountCurve(times=(0.0,), rates=(0.05,))
    with pytest.raises(ValueError, match="sigma must be positive at the spot"):
        pv_pde(call_payoff(100.0), flat, lambda t, s: np.full_like(s, np.nan), 100.0, 1.0)


def test_pv_pde_names_a_non_finite_stream_payoff():
    # this failed inside the theta step with "array must not contain infs or NaNs"
    payoff = PayoffSpec(terminal=np.zeros_like,
                        stream=lambda t, s: np.where(s > 300.0, np.inf, 0.0))
    with pytest.raises(ValueError, match="stream payoff must be finite on the grid"):
        pv_pde(payoff, DiscountCurve.flat(0.05), 0.2, 100.0, 1.0)


def test_pv_pde_names_values_that_overflow():
    # at r = -400 and dt 1/800 (r dt = -0.5, which the M-matrix refusal lets
    # through) the values grow each step until they overflow; the next step
    # would refuse the infinities as bad input
    with pytest.raises(NumericalError, match="pricing solve produced non-finite values "
                       "at step 418"):
        pv_pde(call_payoff(100.0), DiscountCurve.flat(-400.0), 1e-3, 100.0, 1.0,
               n_nodes=5, n_steps=800)


@pytest.mark.parametrize("r, sigma, n_steps", [
    (-100.0, 0.2, 100),   # priced the call at -1.15e132
    (-1.0, 1e-8, 1),      # raised a bare LinAlgError: singular matrix
    (-4.0, 1e-3, 4),      # priced the call at -1.08e30
], ids=["huge", "singular", "r-4"])
def test_pv_pde_refuses_a_rate_step_without_an_m_matrix(r, sigma, n_steps):
    # 1 + r dt <= 0 leaves the implicit system without diagonal dominance
    with pytest.raises(ValueError, match=rf"r\*dt = -1 leaves 1 \+ r\*dt <= 0.*"
                       rf"n_steps > -r\*T = {-r:g} \(now {n_steps}\)"):
        pv_pde(call_payoff(100.0), DiscountCurve.flat(r), sigma, 100.0, 1.0,
               n_nodes=5, n_steps=n_steps)


def test_pv_pde_prices_a_strike_next_to_the_spot():
    # the snapped grid could not place a node on a strike within half a
    # cell of the spot and refused it
    flat = DiscountCurve(times=(0.0,), rates=(0.05,))
    for sigma in (0.1, 0.2, 0.4):
        for T in (0.25, 1.0, 2.0):
            want = bs_price(BSParams(S=100.0, K=100.001, r=0.05, sigma=sigma, t=T))
            gf = pv_pde(call_payoff(100.001), flat, sigma, 100.0, T)
            assert float(gf(100.0)) == pytest.approx(want, rel=1e-3), (sigma, T)


@pytest.mark.parametrize("kwargs, name", [
    ({"n_nodes": 2}, "n_nodes"),
    ({"n_nodes": 4}, "n_nodes"),
    ({"n_nodes": 100.5}, "n_nodes"),
    ({"half_width": 0.0}, "half_width"),
    ({"half_width": -8.0}, "half_width"),
    ({"half_width": math.inf}, "half_width"),
    ({"n_steps": 0}, "n_steps"),
    ({"n_steps": 1.5}, "n_steps"),
    ({"n_steps": -4}, "n_steps"),
    ({"sigma": math.nan}, "sigma"),
    ({"sigma": math.inf}, "sigma"),
])
def test_pv_pde_rejects_bad_grid_arguments_by_name(kwargs, name):
    # n_nodes=2 priced the BS 10.45 call at 15.23 and half_width=0 at 3.99
    flat = DiscountCurve(times=(0.0,), rates=(0.05,))
    args = {"sigma": 0.2, **kwargs}
    sigma = args.pop("sigma")
    with pytest.raises(ValueError, match=name):
        pv_pde(call_payoff(100.0), flat, sigma, 100.0, 1.0, **args)


def test_pv_pde_smallest_grid_still_prices():
    flat = DiscountCurve(times=(0.0,), rates=(0.05,))
    gf = pv_pde(call_payoff(100.0), flat, 0.2, 100.0, 1.0, n_nodes=5, n_steps=1)
    assert np.all(np.isfinite(gf.values))


@pytest.mark.parametrize("payoff", [
    call_payoff(90.0),
    PayoffSpec(terminal=lambda s: np.maximum(s - 100.0, 0.0),
               stream=lambda t, s: 0.01 * s),
])
def test_pv_pde_scalar_sigma_equals_the_same_sigma_as_a_callable(payoff):
    # the scalar route builds and factors its system once; the callable
    # route evaluates sigma at every step and rebuilds when it changes
    curve = DiscountCurve(times=(0.0,), rates=(0.03,))
    fixed = pv_pde(payoff, curve, 0.25, 100.0, 1.5, n_nodes=1025, n_steps=128)
    per_step = pv_pde(payoff, curve, lambda t, s: np.full_like(s, 0.25), 100.0, 1.5,
                      n_nodes=1025, n_steps=128)
    assert np.array_equal(fixed.s_values, per_step.s_values)
    assert np.array_equal(fixed.values, per_step.values)


@pytest.fixture
def theta_builds(monkeypatch):
    """Counts the theta systems pv_pde builds."""
    builds = []

    class Counted(density._ThetaSystem):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(density, "_ThetaSystem", Counted)
    return builds


def test_pv_pde_builds_once_for_a_time_independent_callable_sigma(theta_builds):
    curve = DiscountCurve.flat(0.05)
    scalar = pv_pde(call_payoff(100.0), curve, 0.2, 100.0, 1.0)
    assert len(theta_builds) == 1
    callable_sigma = pv_pde(call_payoff(100.0), curve,
                            lambda t, s: np.full_like(s, 0.2), 100.0, 1.0)
    assert len(theta_builds) == 2
    assert np.array_equal(scalar.s_values, callable_sigma.s_values)
    assert np.array_equal(scalar.values, callable_sigma.values)


def test_pv_pde_rebuilds_every_step_for_a_time_dependent_sigma(theta_builds):
    pv_pde(call_payoff(100.0), DiscountCurve.flat(0.05),
           lambda t, s: np.full_like(s, 0.2 + 0.01 * t), 100.0, 1.0)
    assert len(theta_builds) == 512


# ---------------------------------------------------------------------------
# Green's-function route


def test_lattice_and_euler_take_the_drift_from_the_curve_they_discount_with():
    # a model neutralized at 5% and priced on a 10% curve prices as the
    # physical model does, bit for bit, at the 10% Black-Scholes value
    g = make_gbm(0.05, 0.2)
    rn_a = risk_neutralize(g, DiscountCurve.flat(0.05))
    b = DiscountCurve.flat(0.10)
    call = call_payoff(100.0)
    bs = bs_price(BSParams(S=100.0, K=100.0, r=0.10, sigma=0.2, t=1.0))
    lattice = [pv_green(greens_function(m, b, 0.0, 100.0, 1.0, 1.0 / 256), call)
               for m in (rn_a, g)]
    assert lattice[0] == lattice[1]
    assert lattice[0] == pytest.approx(bs, rel=1e-3)
    euler = [pv_mc(m, b, call, 100.0, 1.0, 1.0 / 64, 20_000, seed=1, exact_terminal=False)
             for m in (rn_a, g)]
    assert euler[0].mean == euler[1].mean
    assert euler[0].metadata == euler[1].metadata
    assert abs(euler[0].mean - bs) <= 3 * euler[0].std_error


def test_pv_green_matches_closed_form():
    r, sigma, S0, T = 0.05, 0.2, 100.0, 1.0
    curve = DiscountCurve(times=(0.0,), rates=(r,))
    rn = risk_neutralize(make_gbm(0.1, sigma), curve)
    g = greens_function(rn, curve, 0.0, S0, T, 1.0 / 64)
    got = pv_green(g, call_payoff(100.0))
    want = bs_price(BSParams(S=S0, K=100.0, r=r, sigma=sigma, t=T))
    assert abs(got - want) < 1e-3 * want
    # digitals jump at the strike, so quadrature error is first order in
    # the node spacing: bounded by pdf(K) * h / 2 at each resolution
    p = BSParams(S=S0, K=100.0, r=r, sigma=sigma, t=T)
    want_dig = math.exp(-r * T) * norm_cdf(p.d_minus)
    dig = pv_green(g, digital_payoff(100.0))
    assert abs(dig - want_dig) < 4e-3
    g_fine = greens_function(rn, curve, 0.0, S0, T, 1.0 / 64, n_nodes=3201)
    dig_fine = pv_green(g_fine, digital_payoff(100.0))
    assert abs(dig_fine - want_dig) < 1e-3


def test_pv_green_stream_annuity():
    r, T = 0.05, 1.0
    curve = DiscountCurve(times=(0.0,), rates=(r,))
    rn = risk_neutralize(make_gbm(0.1, 0.2), curve)
    g = greens_function(rn, curve, 0.0, 100.0, T, 1.0 / 64)
    payoff = PayoffSpec(terminal=lambda s: np.zeros_like(s),
                        stream=lambda t, s: np.ones_like(s))
    want = (1.0 - math.exp(-r * T)) / r
    assert pv_green(g, payoff) == pytest.approx(want, rel=1e-4)


def test_pv_green_stream_equals_the_per_slice_integrate_sum(monkeypatch):
    curve = DiscountCurve.flat(0.05)
    g = greens_function(risk_neutralize(make_gbm(0.1, 0.2), curve), curve, 0.0,
                        100.0, 1.0, 1.0 / 32, n_nodes=401)
    payoff = PayoffSpec(terminal=lambda s: np.maximum(s - 100.0, 0.0),
                        stream=lambda t, s: (1.0 + t) * np.sqrt(s))
    tw = pricing.trapezoid_weights(g.times)
    want = g.integrate(payoff.terminal)
    for idx, t_m in enumerate(g.times):
        want += tw[idx] * g.integrate(lambda s: payoff.stream(t_m, s), idx)
    builds = []

    def counted(real):
        def weights(x):
            builds.append(x.size)
            return real(x)
        return weights

    for module in (pricing, pathintegral):
        monkeypatch.setattr(module, "trapezoid_weights", counted(module.trapezoid_weights))
    assert pv_green(g, payoff) == want
    # one set of weights for the nodes and one for the times, not one per slice
    assert sorted(builds) == [g.times.size, g.native_values.size]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pv_green_refuses_a_payoff_that_is_not_finite_on_the_lattice(bad):
    # a terminal payoff of nan (inf) above S = 150 used to price as nan (inf)
    # with no warning, where pv_pde and pv_mc refuse it
    curve = DiscountCurve.flat(0.05)
    g = greens_function(risk_neutralize(make_gbm(0.05, 0.2), curve), curve, 0.0,
                        100.0, 1.0, 1.0 / 64)
    with pytest.raises(ValueError, match="terminal payoff must be finite on the grid"):
        pv_green(g, PayoffSpec(terminal=lambda s: np.where(s > 150.0, bad, 0.0)))
    with pytest.raises(ValueError, match="stream payoff must be finite on the grid"):
        pv_green(g, PayoffSpec(terminal=np.zeros_like,
                               stream=lambda t, s: np.where(s > 150.0, bad, 0.0)))


def test_pv_green_warns_when_payoff_leaks():
    r, sigma, S0, T = 0.05, 0.2, 100.0, 1.0
    curve = DiscountCurve(times=(0.0,), rates=(r,))
    rn = risk_neutralize(make_gbm(0.1, sigma), curve)
    g = greens_function(rn, curve, 0.0, S0, T, 1.0 / 64, half_width=3.5)
    with pytest.warns(RuntimeWarning, match="leak"):
        pv_green(g, call_payoff(100.0))


# ---------------------------------------------------------------------------
# Full-size temporaries: the same bits from fewer arrays


_EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                   1e-310, -1e-310, 1e308, -1e308, 1.7976931348623157e308])


@pytest.mark.parametrize("K", [5e-324, 1e-300, 0.5, 80.0, 100.0, 120.0, 1e300, 1e308])
def test_one_temporary_call_and_put_keep_the_bits_of_the_textbook_forms(K):
    # the one-temporary forms must give the textbook forms' bits, NaN signs included
    sample = np.random.default_rng(3).lognormal(math.log(100.0), 0.4, 100_000)
    s = np.concatenate([_EDGES, np.nextafter(K, [-np.inf, np.inf]), [K], sample])
    with np.errstate(over="ignore"):    # K - s overflows at s = -1e308, as it should
        pairs = ((call_payoff(K).terminal(s), np.maximum(s - K, 0.0)),
                 (put_payoff(K).terminal(s), np.maximum(K - s, 0.0)))
    for got, want in pairs:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("curve", [DiscountCurve.flat(0.05),
                                   DiscountCurve(times=(0.0, 0.5), rates=(0.03, 0.07))],
                         ids=["flat", "two-rate"])
def test_exact_pv_mc_keeps_the_bits_of_the_textbook_draw(curve):
    # the in-place draw must give the out-of-place expression's bits
    sigma, T, K, n, seed = 0.4, 2.0, 80.0, 200_000, 3
    pricing._clear_path_memo()
    est = pv_mc(make_gbm(0.05, sigma), curve, call_payoff(K), 100.0, T, T, n, seed)
    assert est.metadata["sampler"] == "exact-terminal"
    z = noise.normal_block(seed, noise.TERMINAL, 1, 0, 0, n, 1)[:, 0]
    s = 100.0 * np.exp(curve.integral(0.0, T) - 0.5 * sigma * sigma * T
                       + sigma * math.sqrt(T) * z)
    v = curve.discount(0.0, T) * np.maximum(s - K, 0.0)
    assert (est.mean, est.std_error) == _mean_and_se(v)


def _traced_peak_mib(run) -> float:
    """tracemalloc's peak over run(), after a warm-up call: first-use imports
    and caches are not the route's memory. Each run starts with no path memo."""
    pricing._clear_path_memo()
    run()
    pricing._clear_path_memo()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
        pricing._clear_path_memo()


_BUDGET_CALL = (make_gbm(0.05, 0.4), DiscountCurve.flat(0.05), call_payoff(80.0), 100.0, 2.0)
_BUDGET_RUNS = {
    "euler-1-thread": lambda m, c, p, S0, T: pv_mc(m, c, p, S0, T, T / 64, 131_072, 3,
                                                   threads=1, exact_terminal=False),
    "euler-2-threads": lambda m, c, p, S0, T: pv_mc(m, c, p, S0, T, T / 64, 131_072, 3,
                                                    threads=2, exact_terminal=False),
    "exact": lambda m, c, p, S0, T: pv_mc(m, c, p, S0, T, T, 200_000, 3),
    "pde": lambda m, c, p, S0, T: pv_pde(p, c, 0.4, S0, T),
}


@pytest.mark.parametrize("route, budget", [
    ("euler-1-thread", 3.4), ("euler-2-threads", 4.0), ("exact", 5.2), ("pde", 1.3)])
def test_each_pricing_route_keeps_its_traced_memory_budget(route, budget):
    # these peaks repeat to the KB, and one more full-size temporary in a payoff
    # call, the exact draw or a span's arrays (0.5 to 1.5 MiB here) breaks a budget
    peak = _traced_peak_mib(lambda: _BUDGET_RUNS[route](*_BUDGET_CALL))
    assert peak <= budget, f"traced peak {peak:.3f} MiB over the {budget} MiB budget"
