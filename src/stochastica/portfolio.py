"""Cashflows, discount curves and deterministic present value.

Everything here is risk-free arithmetic: continuously compounded
discounting against a piecewise-constant rate curve, zero-coupon bond
prices, the fixed-rate loan coupon, and the forward/futures value
identity.

All types are immutable after construction and safe to share between
workers.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass


def _no_bools(key: str, value):
    """value as given; a bool in it or its nested lists would read as 1 or 0."""
    if isinstance(value, bool):
        raise ValueError(f"{key} must be numeric, not {str(value).lower()}")
    if isinstance(value, list):
        for v in value:
            _no_bools(key, v)
    return value


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class Cashflow:
    """A fixed amount of numeraire paid at a fixed future time (years)."""

    amount: float
    t: float

    def __post_init__(self):
        _require_finite("amount", self.amount)
        if _require_finite("t", self.t) < 0:
            raise ValueError("cashflow time must be >= 0")


@dataclass(frozen=True)
class DiscountCurve:
    """Piecewise-constant continuously compounded short rate r(t).

    ``rates[i]`` applies on [times[i], times[i+1]); the last rate extends
    to infinity. Negative rates are allowed, NaN is not.
    """

    times: tuple
    rates: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        rates = tuple(float(r) for r in self.rates)
        if len(times) != len(rates) or not times:
            raise ValueError("times and rates must be equally long and non-empty")
        if times[0] != 0.0:
            raise ValueError("curve must start at t=0")
        for i, t in enumerate(times):
            _require_finite(f"times[{i}]", t)
            if i and t <= times[i - 1]:
                raise ValueError("curve times must be strictly increasing")
        for i, r in enumerate(rates):
            _require_finite(f"rates[{i}]", r)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "rates", rates)

    @classmethod
    def flat(cls, r: float) -> "DiscountCurve":
        return cls(times=(0.0,), rates=(float(r),))

    @property
    def is_flat(self) -> bool:
        return len(set(self.rates)) == 1

    def rate(self, t: float) -> float:
        """Short rate in force at time t >= 0."""
        if t < 0:
            raise ValueError("curve is defined for t >= 0")
        return self.rates[bisect_right(self.times, t) - 1]

    def integral(self, t0: float, t1: float) -> float:
        """R(t0, t1) = integral of r over [t0, t1]; exact for the step curve."""
        if t1 < t0:
            raise ValueError("need t1 >= t0")
        if t0 < 0:
            raise ValueError("curve is defined for t >= 0")
        total = 0.0
        lo = t0
        i = bisect_right(self.times, t0) - 1
        while lo < t1:
            hi = self.times[i + 1] if i + 1 < len(self.times) else t1
            hi = min(hi, t1)
            total += self.rates[i] * (hi - lo)
            lo = hi
            i += 1
        return total

    def discount(self, t0: float, t1: float) -> float:
        return math.exp(-self.integral(t0, t1))


def annual_to_continuous(r1: float) -> float:
    """Convert an annually compounded simple rate to a continuous rate.

    r = ln(1 + r1); inverse of continuous_to_annual.
    """
    r1 = _require_finite("r1", r1)
    if r1 <= -1.0:
        raise ValueError("annual rate must exceed -1")
    return math.log1p(r1)


def continuous_to_annual(r: float) -> float:
    """Inverse of annual_to_continuous: r1 = e^r - 1."""
    return math.expm1(_require_finite("r", r))


def zero_coupon_price(curve: DiscountCurve, t: float, T: float) -> float:
    """Price at t of one unit of numeraire delivered at T: e^{-R(t,T)}."""
    if T < t:
        raise ValueError("need T >= t")
    return curve.discount(t, T)


def fixed_loan_coupon(X: float, X_r: float, r: float, dt: float, T: float) -> float:
    """Level coupon c paid at dt, 2dt, ..., N*dt with residual X_r at T=(N+1)dt.

    Solves X = c * sum_{n=1..N} e^{-r n dt} + X_r e^{-rT} for c. The r=0
    limit (X - X_r)/N is used below |r*T| < 1e-17, where the discounting
    it drops is under one rounding of X; elsewhere expm1 keeps the closed
    form cancellation-free.
    """
    X = _require_finite("X", X)
    X_r = _require_finite("X_r", X_r)
    r = _require_finite("r", r)
    dt = _require_finite("dt", dt)
    T = _require_finite("T", T)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T <= dt:
        raise ValueError("need T > dt (at least one coupon before maturity)")
    ratio = T / dt
    n_periods = round(ratio)
    if abs(ratio - n_periods) > 1e-9 * max(1.0, ratio) or n_periods < 2:
        raise ValueError(
            f"T/dt = {ratio!r} must be an integer >= 2; "
            f"nearest valid dt = {T / max(2, n_periods)!r}")
    N = n_periods - 1
    if abs(r * T) < 1e-17:
        return (X - X_r) / N
    disc_T = math.exp(-r * T)
    # denominator e^{-r dt} - e^{-r T} = e^{-rT} * expm1(r*(T-dt))
    return (X - X_r * disc_T) * (-math.expm1(-r * dt)) / (disc_T * math.expm1(r * (T - dt)))


def fixed_loan_schedule(X: float, X_r: float, r: float, dt: float, T: float) -> list[Cashflow]:
    """Cashflow list of the loan's repayments: N coupons plus the residual."""
    c = fixed_loan_coupon(X, X_r, r, dt, T)
    N = round(T / dt) - 1
    flows = [Cashflow(c, n * dt) for n in range(1, N + 1)]
    flows.append(Cashflow(X_r, T))
    return flows


def futures_value(S: float, K: float, curve: DiscountCurve, t: float, T: float,
                  side: str = "long") -> float:
    """Mark-to-market of a futures/forward struck at K maturing at T.

    Long value is S - K * zero_coupon_price(curve, t, T); short is its
    negative.
    """
    S = _require_finite("S", S)
    K = _require_finite("K", K)
    if S < 0:
        raise ValueError("spot must be >= 0")
    if side not in ("long", "short"):
        raise ValueError("side must be 'long' or 'short'")
    value = S - K * zero_coupon_price(curve, t, T)
    return value if side == "long" else -value


def pv_deterministic(cashflows, curve: DiscountCurve) -> float:
    """Present value at t=0 of a list of deterministic cashflows."""
    return sum(cf.amount * curve.discount(0.0, cf.t) for cf in cashflows)


# ---------------------------------------------------------------------------
# JSON interface


def load_curve(doc) -> DiscountCurve:
    """Build a DiscountCurve from [{"t": years, "r": rate}, ...]."""
    if not isinstance(doc, list) or not doc:
        raise ValueError("curve must be a non-empty list of {t, r} entries")
    times, rates = [], []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict) or "t" not in entry or "r" not in entry:
            raise ValueError(f"curve[{i}] must be an object with keys 't' and 'r'")
        times.append(_no_bools(f"curve[{i}].t", entry["t"]))
        rates.append(_no_bools(f"curve[{i}].r", entry["r"]))
    return DiscountCurve(times=tuple(times), rates=tuple(rates))
