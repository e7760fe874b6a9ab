"""Deterministic valuation: curves, discounting, loans.

The coupon oracle below solves the present-value balance by bisection and
never touches the closed form under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from stochastica import (
    Cashflow,
    DiscountCurve,
    annual_to_continuous,
    continuous_to_annual,
    fixed_loan_coupon,
    fixed_loan_schedule,
    futures_value,
    pv_deterministic,
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


def test_rate_conversions():
    assert annual_to_continuous(0.0) == 0.0
    assert annual_to_continuous(math.e - 1) == pytest.approx(1.0, abs=1e-15)
    assert annual_to_continuous(0.10) == pytest.approx(math.log(1.1), abs=1e-15)
    assert continuous_to_annual(annual_to_continuous(0.07)) == pytest.approx(0.07)
    with pytest.raises(ValueError):
        annual_to_continuous(-1.0)


def test_zero_coupon_price():
    flat = DiscountCurve.flat(0.0)
    assert zero_coupon_price(flat, 0.0, 3.0) == 1.0
    curve = DiscountCurve.flat(math.log(1.1))
    assert zero_coupon_price(curve, 0.0, 0.0) == 1.0
    assert zero_coupon_price(curve, 1.0, 3.0) == pytest.approx(1.1 ** -2,
                                                               rel=1e-12)
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
        fixed_loan_coupon(100.0, 0.0, 0.05, 1.0, 1.0)
    with pytest.raises(ValueError):
        fixed_loan_coupon(100.0, 0.0, 0.05, 1.0, 4.5)


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
# futures and aggregation


def test_futures_value():
    curve = DiscountCurve.flat(0.05)
    assert futures_value(100.0, 0.0, curve, 0.0, 1.0) == 100.0
    assert futures_value(50.0, 50.0, DiscountCurve.flat(0.0), 0.0, 2.0) == 0.0
    expect = 100.0 - 95.0 * math.exp(-0.05)
    assert futures_value(100.0, 95.0, curve, 0.0, 1.0) == pytest.approx(expect)
    long = futures_value(100.0, 95.0, curve, 0.5, 2.0, side="long")
    short = futures_value(100.0, 95.0, curve, 0.5, 2.0, side="short")
    assert long == -short
    with pytest.raises(ValueError):
        futures_value(100.0, 95.0, curve, 0.0, 1.0, side="straddle")
    with pytest.raises(ValueError):
        futures_value(100.0, 95.0, curve, 2.0, 1.0)


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
    with pytest.raises(ValueError):
        DiscountCurve(times=(0.0,), rates=(float("inf"),))
    curve = DiscountCurve.flat(0.05)
    assert curve.integral(1.0, 1.0) == 0.0
    a = curve.integral(0.0, 1.0) + curve.integral(1.0, 2.0)
    assert a == pytest.approx(curve.integral(0.0, 2.0), rel=1e-14)
