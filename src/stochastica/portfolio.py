"""Cashflows, discount curves and deterministic present value.

Everything here is risk-free arithmetic: continuously compounded
discounting against a piecewise-constant rate curve, zero-coupon bond
prices and the fixed-rate loan coupon.

All types are immutable after construction and safe to share between
workers. No config format lives here: cli reads a curve's JSON.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> float:
    number = float(value)
    if not (math.isfinite(number) and number > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return number


def _require_nonnegative(name: str, value: float) -> float:
    number = float(value)
    if not (math.isfinite(number) and number >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return number


def _require_grid(name: str, values, min_nodes: int):
    """values as a float array once they are a strictly increasing 1-D grid of
    min_nodes or more nodes; a NaN node fails the comparison and is refused."""
    import numpy as np  # only the grid routes, which have loaded it, call this
    s = np.asarray(values, dtype=float)
    if s.ndim != 1 or s.size < min_nodes or not np.all(np.diff(s) > 0):
        raise ValueError(f"{name} must be a strictly increasing 1-D grid of >= {min_nodes} "
                         f"nodes, got {np.array2string(s, threshold=8)}")
    return s


@dataclass(frozen=True, slots=True)
class Cashflow:
    """A fixed amount of numeraire paid at a fixed future time (years)."""

    amount: float
    t: float

    def __post_init__(self):
        object.__setattr__(self, "amount", _require_finite("amount", self.amount))
        object.__setattr__(self, "t", _require_nonnegative("t", self.t))


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
        """Short rate in force at a finite time t >= 0."""
        if _require_finite("t", t) < 0:
            raise ValueError("curve is defined for t >= 0")
        return self.rates[bisect_right(self.times, t) - 1]

    def integral(self, t0: float, t1: float) -> float:
        """R(t0, t1) = integral of r over [t0, t1], both finite; exact for the step curve."""
        if _require_finite("t1", t1) < _require_finite("t0", t0):
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
    dt = _require_positive("dt", dt)
    T = _require_finite("T", T)
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


def pv_deterministic(cashflows, curve: DiscountCurve) -> float:
    """Present value at t=0 of a list of deterministic cashflows."""
    return sum(cf.amount * curve.discount(0.0, cf.t) for cf in cashflows)
