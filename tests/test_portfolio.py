"""Deterministic valuation: curves, discounting, loans.

The coupon oracle below solves the present-value balance by bisection and
never touches the closed form under test.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from stochastica import (
    BSParams,
    Cashflow,
    DensityGrid,
    DiscountCurve,
    TimeGrid,
    bs_price,
    fixed_loan_coupon,
    fixed_loan_schedule,
    kernel_matrix,
    kolmogorov_backward,
    make_bm,
    make_custom_grid,
    make_gbm,
    make_vasicek,
    one_step_kernel,
    point_mass_on_grid,
    pv_deterministic,
    table_payoff,
    zero_coupon_price,
)


def coupon_oracle(X: float, X_r: float, r: float, dt: float, T: float) -> float:
    """Root-find the coupon whose discounted schedule repays the notional."""
    N = round(T / dt) - 1

    def balance(c):
        pv = sum(c * math.exp(-r * n * dt) for n in range(1, N + 1))
        return pv + X_r * math.exp(-r * T) - X

    hi = 10 * max(abs(X), abs(X_r), 1.0)
    return brentq(balance, -hi, hi, xtol=1e-14, rtol=1e-15)


# ---------------------------------------------------------------------------
# rates


def test_zero_coupon_price():
    flat = DiscountCurve.flat(0.0)
    assert zero_coupon_price(flat, 0.0, 3.0) == 1.0
    curve = DiscountCurve.flat(math.log(1.1))
    assert zero_coupon_price(curve, 0.0, 0.0) == 1.0
    assert zero_coupon_price(curve, 1.0, 3.0) == pytest.approx(1.1 ** -2,
                                                               rel=1e-12)
    with pytest.raises(ValueError, match=r"^need T >= t$"):
        zero_coupon_price(curve, 2.0, 1.0)


def test_discount_composition_flat_and_piecewise():
    flat = DiscountCurve.flat(0.04)
    stepped = DiscountCurve(times=(0.0, 1.0, 2.5), rates=(0.02, 0.05, 0.03))
    for curve in (flat, stepped):
        left = zero_coupon_price(curve, 0.3, 1.7) * zero_coupon_price(curve, 1.7, 3.1)
        right = zero_coupon_price(curve, 0.3, 3.1)
        assert left == pytest.approx(right, rel=1e-12)


def test_piecewise_rate_lookup():
    curve = DiscountCurve(times=(0.0, 1.0, 2.0), rates=(0.01, 0.02, 0.03))
    assert curve.rate(0.5) == 0.01
    assert curve.rate(1.0) == 0.02
    assert curve.rate(5.0) == 0.03
    assert curve.integral(0.0, 2.5) == pytest.approx(0.01 + 0.02 + 0.5 * 0.03)
    assert not curve.is_flat
    assert DiscountCurve.flat(0.05).is_flat


# ---------------------------------------------------------------------------
# loans


def test_coupon_matches_root_finding_oracle():
    c = fixed_loan_coupon(100.0, 0.0, 0.05, 1.0, 5.0)
    assert c == pytest.approx(coupon_oracle(100.0, 0.0, 0.05, 1.0, 5.0),
                              rel=1e-12)


def test_coupon_trivial_cases():
    # residual grown at the loan rate repays everything
    X, r, T = 100.0, 0.07, 5.0
    assert fixed_loan_coupon(X, X * math.exp(r * T), r, 1.0, T) == \
        pytest.approx(0.0, abs=1e-10)
    # zero-rate limit: equal split over N coupons
    assert fixed_loan_coupon(100.0, 0.0, 0.0, 1.0, 5.0) == pytest.approx(25.0)
    assert fixed_loan_coupon(100.0, 0.0, 1e-14, 1.0, 5.0) == pytest.approx(
        25.0, rel=1e-9)


def test_coupon_validation():
    with pytest.raises(ValueError, match=r"^need T > dt \(at least one coupon before maturity\)$"):
        fixed_loan_coupon(100.0, 0.0, 0.05, 1.0, 1.0)
    with pytest.raises(ValueError):
        fixed_loan_coupon(100.0, 0.0, 0.05, 1.0, 4.5)


@pytest.mark.parametrize("dt", [0, -1, math.nan])
def test_coupon_names_a_period_that_is_not_positive(dt):
    # it said "dt must be positive", or "dt must be finite" for NaN
    with pytest.raises(ValueError, match=re.escape(
            f"dt must be finite and positive, got {dt!r}")):
        fixed_loan_coupon(100.0, 0.0, 0.05, dt, 5.0)


@settings(max_examples=60, deadline=None)
@given(
    X=st.floats(1.0, 1e6),
    share=st.floats(0.0, 0.9),
    r=st.floats(-0.05, 0.15),
    N=st.integers(1, 40),
    dt=st.floats(0.05, 2.0),
)
def test_coupon_balance_identity(X, share, r, N, dt):
    T = (N + 1) * dt
    X_r = share * X
    c = fixed_loan_coupon(X, X_r, r, dt, T)
    pv = sum(c * math.exp(-r * n * dt) for n in range(1, N + 1))
    pv += X_r * math.exp(-r * T)
    assert abs(pv - X) <= 1e-12 * max(1.0, abs(X))


def test_coupon_at_a_tiny_rate_still_discounts():
    # r*T = 4e-12 used to take the r = 0 limit, which drops a 2e-12
    # discount: the coupon must still price the loan to X within 1e-12
    X, r, dt = 1.0, 1e-12, 2.0
    c = fixed_loan_coupon(X, 0.0, r, dt, 2 * dt)
    assert abs(c * math.exp(-r * dt) - X) <= 1e-12


def test_schedule_prices_to_notional():
    X, X_r, r, dt, T = 250.0, 40.0, 0.06, 0.5, 4.0
    curve = DiscountCurve.flat(r)
    flows = fixed_loan_schedule(X, X_r, r, dt, T)
    assert pv_deterministic(flows, curve) == pytest.approx(X, rel=1e-12)
    assert len(flows) == round(T / dt)


# ---------------------------------------------------------------------------
# aggregation


def test_pv_deterministic_linearity():
    curve = DiscountCurve.flat(0.03)
    assert pv_deterministic([], curve) == 0.0
    one = [Cashflow(1.0, 2.0)]
    assert pv_deterministic(one, curve) == pytest.approx(
        zero_coupon_price(curve, 0.0, 2.0), rel=1e-15)
    a = [Cashflow(3.0, 1.0), Cashflow(-2.0, 4.0)]
    b = [Cashflow(5.0, 0.5)]
    assert pv_deterministic(a + b, curve) == pytest.approx(
        pv_deterministic(a, curve) + pv_deterministic(b, curve), rel=1e-14)
    stepped = DiscountCurve(times=(0.0, 1.0), rates=(0.02, 0.04))
    flows = [Cashflow(10.0, 0.5), Cashflow(-3.0, 2.0)]
    assert pv_deterministic(flows, stepped) == pytest.approx(
        10.0 * math.exp(-0.02 * 0.5) - 3.0 * math.exp(-0.02 - 0.04), rel=1e-12)


# ---------------------------------------------------------------------------
# types and loaders


def test_cashflow_validation():
    with pytest.raises(ValueError):
        Cashflow(1.0, -0.5)
    with pytest.raises(ValueError, match="amount must be finite"):
        Cashflow(float("nan"), 1.0)


def test_curve_validation():
    with pytest.raises(ValueError):
        DiscountCurve(times=(1.0, 0.0), rates=(0.01, 0.02))
    # increasing times that leave [0, 0.5) without a rate
    with pytest.raises(ValueError, match=r"^curve must start at t=0$"):
        DiscountCurve(times=(0.5, 1.0), rates=(0.01, 0.02))
    with pytest.raises(ValueError):
        DiscountCurve(times=(0.0,), rates=(float("inf"),))
    curve = DiscountCurve.flat(0.05)
    assert curve.integral(1.0, 1.0) == 0.0
    a = curve.integral(0.0, 1.0) + curve.integral(1.0, 2.0)
    assert a == pytest.approx(curve.integral(0.0, 2.0), rel=1e-14)


_STEP_CURVE = DiscountCurve(times=(0.0, 1.0), rates=(0.01, 0.08))


@pytest.mark.parametrize("call, name", [
    (lambda: _STEP_CURVE.rate(math.nan), "t"),
    (lambda: _STEP_CURVE.rate(math.inf), "t"),
    (lambda: _STEP_CURVE.integral(0.0, math.nan), "t1"),
    (lambda: _STEP_CURVE.integral(math.nan, 1.0), "t0"),
    (lambda: _STEP_CURVE.discount(0.0, math.inf), "t1"),
    (lambda: zero_coupon_price(_STEP_CURVE, 0.0, math.nan), "t1"),
    (lambda: zero_coupon_price(_STEP_CURVE, math.nan, 1.0), "t0"),
], ids=["rate nan", "rate inf", "integral t1", "integral t0", "discount inf",
        "zero coupon T", "zero coupon t"])
def test_curve_refuses_a_non_finite_time_by_name(call, name):
    # a nan time used to read as no time: discount 1.0 and rate(nan) the
    # last rate, 0.08
    with pytest.raises(ValueError, match=f"^{name} must be finite, got"):
        call()


# ---------------------------------------------------------------------------
# one refusal rule per condition


_GRID_SITES = {
    # a uniform density of unit mass on a grid of unit steps
    "DensityGrid": ("s_values", 3, lambda s: DensityGrid(
        s, np.full(len(s), 1.0 / (len(s) - 1)), 0.0)),
    "point_mass_on_grid": ("s_values", 5, lambda s: point_mass_on_grid(s, 2.0)),
    "kolmogorov_backward": ("s_values", 3, lambda s: kolmogorov_backward(
        make_bm(0.0, 1.0), np.ones(len(s)), s, 0.0, 1.0, n_steps=2)),
    "kernel_matrix": ("source_values", 2, lambda s: kernel_matrix(
        one_step_kernel(make_bm(0.0, 1.0), 0.0, 0.01), 0.0, s)),
    "table_payoff": ("payoff table s_values", 2, lambda s: table_payoff(s, np.ones(len(s)))),
    "make_custom_grid": ("s_values", 2, lambda s: make_custom_grid(
        s, np.zeros(len(s)), np.ones(len(s)))),
}


@pytest.mark.parametrize("grid", [[0.0, 1.0, 1.0, 3.0, 4.0], [0.0, 1.0, 2.0, 4.0, 3.0],
                                  # a NaN node passed DensityGrid, table_payoff and
                                  # make_custom_grid, which then gave NaN masses and values
                                  [0.0, 1.0, math.nan, 3.0, 4.0]],
                         ids=["repeated node", "decreasing node", "NaN node"])
@pytest.mark.parametrize("site", sorted(_GRID_SITES))
def test_each_grid_route_refuses_a_grid_that_is_not_strictly_increasing_by_name(site, grid):
    name, min_nodes, build = _GRID_SITES[site]
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be a strictly increasing 1-D grid of >= {min_nodes} nodes, got [")):
        build(grid)


@pytest.mark.parametrize("site", sorted(s for s in _GRID_SITES if _GRID_SITES[s][1]))
def test_each_grid_route_refuses_too_few_nodes_at_its_own_minimum(site):
    name, min_nodes, build = _GRID_SITES[site]
    build(np.arange(float(min_nodes)))  # the fewest it takes
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a strictly increasing")):
        build(np.arange(min_nodes - 1.0))


@pytest.mark.parametrize("s, shown", [([], "[]"), ([1.0], "[1.]")], ids=["no node", "one node"])
def test_kernel_matrix_refuses_a_grid_of_fewer_than_two_nodes(s, shown):
    # no node returned an empty TransitionMatrix, one node raised a NumericalError
    with pytest.raises(ValueError, match=re.escape(
            f"source_values must be a strictly increasing 1-D grid of >= 2 nodes, got {shown}")):
        kernel_matrix(one_step_kernel(make_bm(0.0, 1.0), 0.0, 0.01), 0.0, s)


@pytest.mark.parametrize("value", [-0.5, -math.inf, math.nan])
@pytest.mark.parametrize("name, build", [
    ("sigma", lambda v: make_bm(0.0, v)),
    ("sigma", lambda v: make_gbm(0.0, v)),
    ("sigma", lambda v: make_vasicek(1.0, 0.0, v)),
    ("t", lambda v: Cashflow(1.0, v)),
], ids=["bm sigma", "gbm sigma", "vasicek sigma", "cashflow t"])
def test_a_non_negative_input_is_refused_with_one_wording(name, build, value):
    # the cashflow said "cashflow time must be >= 0", the builders named no value
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be finite and >= 0, got {value!r}")):
        build(value)


@pytest.mark.parametrize("name", ["sigma", "t"])
def test_bsparams_refuses_a_negative_sigma_or_t_with_the_same_wording(name):
    inputs = dict(S=100.0, K=100.0, r=0.05, sigma=0.2, t=1.0)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be finite and >= 0, got -1.0")):
        BSParams(**dict(inputs, **{name: -1.0}))
    # the finite check still comes first
    with pytest.raises(ValueError, match=f"^{name} must be finite, got nan"):
        BSParams(**dict(inputs, **{name: math.nan}))


def test_the_scalar_sites_keep_the_float_they_checked():
    # a string that float() reads passed the checks and was kept as given:
    # time(1) and the price then raised a TypeError
    assert TimeGrid("1.0", 0.1, 2).time(1) == 1.1
    assert TimeGrid(0.0, "0.5", 2).t_end == 1.0
    assert bs_price(BSParams(100.0, 100.0, 0.05, "0.2", 1.0)) == bs_price(
        BSParams(100.0, 100.0, 0.05, 0.2, 1.0))
    assert Cashflow("2.5", "0.5") == Cashflow(2.5, 0.5)
    # a float keeps its bits, the sign of zero included
    assert math.copysign(1.0, TimeGrid(-0.0, 0.1, 2).t0) == -1.0


def test_time_grid_start_and_vasicek_speed_name_their_value():
    with pytest.raises(ValueError, match=re.escape("t0 must be finite, got nan")):
        TimeGrid(math.nan, 0.1, 2)
    with pytest.raises(ValueError, match=re.escape(
            "mean-reversion speed a must be finite and positive, got 0.0")):
        make_vasicek(0.0, 0.05, 0.02)
