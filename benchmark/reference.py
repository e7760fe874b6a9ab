"""Closed forms the benchmark checks results against.

Written from the textbook formulas with math and numpy only, so a defect
in the library's own closed forms cannot hide a defect in a solver.
"""

from __future__ import annotations

import math

import numpy as np

HALF_WIDTH = 8.0     # grids span mean +- this many standard deviations


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bs_call(S: float, K: float, r: float, sigma: float, T: float) -> float:
    """Black-Scholes value of a European call."""
    z = sigma * math.sqrt(T)
    d1 = (math.log(S / K) + (r + 0.5 * sigma * sigma) * T) / z
    return S * _phi(d1) - K * math.exp(-r * T) * _phi(d1 - z)


def bs_put(S: float, K: float, r: float, sigma: float, T: float) -> float:
    return bs_call(S, K, r, sigma, T) - S + K * math.exp(-r * T)


def trapezoid_weights(s: np.ndarray) -> np.ndarray:
    d = np.diff(s)
    w = np.zeros_like(s)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def l1(s: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """Trapezoid L1 distance between two functions tabulated on s."""
    return float(np.sum(trapezoid_weights(s) * np.abs(p - q)))


def gaussian(s, mean: float, var: float) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    return np.exp(-0.5 * (s - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def lognormal(s, log_mean: float, log_var: float) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0
    out[pos] = gaussian(np.log(s[pos]), log_mean, log_var) / s[pos]
    return out


def _grid(mean: float, std: float, n: int, floor: float | None = None) -> np.ndarray:
    lo = mean - HALF_WIDTH * std
    hi = mean + HALF_WIDTH * std
    if floor is not None and lo <= floor:
        lo = floor + 1e-9 * max(1.0, abs(hi))
    return np.linspace(lo, hi, n)


class Case:
    """One model of the density ladder with its terminal law at time T.

    kind is "bm" (dS = mu dt + sigma dW), "gbm" (dS = mu S dt + sigma S dW)
    or "vasicek" (dS = a (b - S) dt + sigma dW).
    """

    def __init__(self, kind: str, params: dict, S0: float, T: float = 1.0):
        self.kind, self.params, self.S0, self.T = kind, dict(params), S0, T

    def terminal(self, s) -> np.ndarray:
        """Density of S_T given S_0 = S0."""
        p, T = self.params, self.T
        if self.kind == "bm":
            return gaussian(s, self.S0 + p["mu"] * T, p["sigma"] ** 2 * T)
        if self.kind == "gbm":
            return lognormal(s, math.log(self.S0) + (p["mu"] - 0.5 * p["sigma"] ** 2) * T,
                             p["sigma"] ** 2 * T)
        mean, var = self._vasicek()
        return gaussian(s, mean, var)

    def terminal_grid(self, n: int) -> np.ndarray:
        p, T = self.params, self.T
        if self.kind == "bm":
            return _grid(self.S0 + p["mu"] * T, p["sigma"] * math.sqrt(T), n)
        if self.kind == "gbm":
            mean = self.S0 * math.exp(p["mu"] * T)
            std = mean * math.sqrt(math.expm1(p["sigma"] ** 2 * T))
            return _grid(mean, std, n, floor=0.0)
        mean, var = self._vasicek()
        return _grid(mean, math.sqrt(var), n)

    def _vasicek(self) -> tuple[float, float]:
        a, b, sigma = self.params["a"], self.params["b"], self.params["sigma"]
        decay = math.exp(-a * self.T)
        return b + (self.S0 - b) * decay, sigma ** 2 * -math.expm1(-2 * a * self.T) / (2 * a)

    # Backward check: u(s0) = E[phi(S_T) | S_0 = s0] for a narrow Gaussian
    # bump phi around a target y, as a function of the start s0.  For
    # Gaussian bumps (in log-price for gbm) the expectation has a closed
    # form, and normalized over s0 it is again a density.

    def backward_target(self) -> float:
        """Target y whose start profile is centred on S0."""
        p, T = self.params, self.T
        if self.kind == "bm":
            return self.S0 + p["mu"] * T
        if self.kind == "gbm":
            return self.S0 * math.exp((p["mu"] - 0.5 * p["sigma"] ** 2) * T)
        return self._vasicek()[0]

    def backward_grid(self, n: int) -> np.ndarray:
        # sized by the un-smoothed profile, which is what the bump widens
        p, T = self.params, self.T
        if self.kind == "bm":
            return _grid(self.S0, p["sigma"] * math.sqrt(T), n)
        if self.kind == "gbm":
            v = p["sigma"] ** 2 * T
            mean = self.S0 * math.exp(1.5 * v)
            return _grid(mean, mean * math.sqrt(math.expm1(v)), n, floor=0.0)
        _, var = self._vasicek()
        return _grid(self.S0, math.sqrt(var) * math.exp(self.params["a"] * T), n)

    def backward_bump(self, s: np.ndarray, width: float):
        """Terminal data phi and the closed-form normalized start profile."""
        y = self.backward_target()
        p, T = self.params, self.T
        if self.kind == "gbm":
            eta2 = (width / y) ** 2
            phi = gaussian(np.log(np.maximum(s, 1e-300)), math.log(y), eta2)
            V = p["sigma"] ** 2 * T + eta2
            M = math.log(y) - (p["mu"] - 0.5 * p["sigma"] ** 2) * T
            return phi, lognormal(s, M + V, V)
        phi = gaussian(s, y, width * width)
        if self.kind == "bm":
            return phi, gaussian(s, y - p["mu"] * T, p["sigma"] ** 2 * T + width * width)
        a, b = self.params["a"], self.params["b"]
        _, var = self._vasicek()
        grow = math.exp(a * T)
        return phi, gaussian(s, b + (y - b) * grow, (var + width * width) * grow * grow)


DENSITY_CASES = (
    Case("bm", {"mu": 0.1, "sigma": 0.3}, 0.0),
    Case("gbm", {"mu": 0.05, "sigma": 0.2}, 100.0),
    Case("vasicek", {"a": 1.0, "b": 0.05, "sigma": 0.02}, 0.03),
)
