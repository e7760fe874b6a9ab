"""Present value of European payoffs by four routes.

Closed-form prices and greeks for lognormal dynamics, discounted Monte
Carlo over simulated paths, a backward PDE solve in log-price, and
quadrature against a Green's function lattice. All routes price in the
risk-neutral measure: every asset drifts at the short rate and values are
discounted expectations.

The call max(s, K) - K and the put K - min(s, K) are bit for bit max(s - K, 0)
and max(K - s, 0). numpy subtracts into max's temporary, so a call holds one
full-size array, not two; the put's array is the right operand and gets none.

The Monte Carlo route steps with mc's Euler core (_euler_batch) and keeps
its latest simulation's terminal states: consecutive pv_mc calls on one
path set, one per payoff, simulate once, stream payoffs excepted. The exact
draw S0 exp(R(0,T) - sigma^2 T/2 + sigma sqrt(T) z) runs in place in z's buffer.
The PDE route solves on one grid per spot, whatever the strike, starting
from the payoff averaged over each log cell, and steps with density's
factored theta system (_ThetaSystem), rebuilt only when sigma's values
change, by the one reuse rule of the grid marches, density._Reused. The
routes share these numerical primitives but never call each other.

scipy is imported inside the functions that use it (scipy.special in
norm_cdf), so importing this module loads no scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import noise
from .density import (GridFunction, _ThetaSystem, _grid_nodes, _Reused,
                      trapezoid_weights)
from .errors import NumericalError
from .mc import (MCEstimate, TimeGrid, _batch_args, _euler_batch, _int_at_least,
                 _mean_and_se, _step_count)
from .models import GBM, ModelSpec, model_hash, risk_neutralize
from .pathintegral import GreensFunction
from .portfolio import DiscountCurve, _json_numbers, _require_finite, _require_positive

_PAYOFF_KINDS = ("call", "put", "digital", "custom")


@dataclass(frozen=True)
class PayoffSpec:
    """Terminal payoff P(S) plus an optional continuous stream rate p(t, S)."""

    terminal: Callable[[np.ndarray], np.ndarray]
    kind: str = "custom"
    strike: float | None = None
    stream: Callable[[float, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in _PAYOFF_KINDS:
            raise ValueError(f"payoff kind must be one of {_PAYOFF_KINDS}")
        if self.kind in ("call", "put", "digital"):
            if self.strike is None or not _require_finite("strike", self.strike) > 0:
                raise ValueError("built-in payoffs need a strike K > 0")


def call_payoff(K: float) -> PayoffSpec:
    K = float(K)
    return PayoffSpec(terminal=lambda s: np.maximum(s, K) - K,
                      kind="call", strike=K)


def put_payoff(K: float) -> PayoffSpec:
    K = float(K)
    return PayoffSpec(terminal=lambda s: K - np.minimum(s, K),
                      kind="put", strike=K)


def digital_payoff(K: float) -> PayoffSpec:
    """Cash-or-nothing: pays 1 when the terminal price exceeds K."""
    K = float(K)
    return PayoffSpec(terminal=lambda s: (np.asarray(s) > K).astype(float),
                      kind="digital", strike=K)


def table_payoff(s_values, payoff_values) -> PayoffSpec:
    """Custom payoff tabulated on a price grid, linearly interpolated."""
    s = np.asarray(s_values, dtype=float)
    v = np.asarray(payoff_values, dtype=float)
    if s.ndim != 1 or s.size < 2 or np.any(np.diff(s) <= 0):
        raise ValueError("payoff table grid must be strictly increasing")
    if v.shape != s.shape or not np.all(np.isfinite(v)):
        raise ValueError("payoff table values must be finite and match the grid")
    return PayoffSpec(terminal=lambda q: np.interp(q, s, v), kind="custom")


def payoff_from_config(doc: dict) -> PayoffSpec:
    """A payoff from {"kind": ..., "strike": ...} or {"kind": "custom",
    "table": {"s": [...], "values": [...]}}; any other key is refused."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("payoff must be an object with a 'kind' key")
    unknown = [key for key in doc if key not in ("kind", "strike", "table")]
    if unknown:
        raise ValueError(f"unknown payoff key {unknown[0]!r}: a payoff takes "
                         "kind, strike and table only")
    kind = doc["kind"]
    if kind in ("call", "put", "digital"):
        if doc.get("strike") is None:
            raise ValueError(f"payoff.strike (a number) required for kind {kind!r}")
        maker = {"call": call_payoff, "put": put_payoff,
                 "digital": digital_payoff}[kind]
        return maker(_json_numbers("payoff.strike", doc["strike"]))
    if kind == "custom":
        table = doc.get("table")
        if not isinstance(table, dict) or "s" not in table or "values" not in table:
            raise ValueError("custom payoff needs table: {s: [...], values: [...]}")
        return table_payoff(_json_numbers("payoff.table.s", table["s"]),
                            _json_numbers("payoff.table.values", table["values"]))
    raise ValueError(f"unknown payoff kind {kind!r}")


# ---------------------------------------------------------------------------
# Closed forms


def norm_cdf(x):
    """Standard Gaussian CDF via the complementary error function."""
    from scipy.special import erfc  # loaded on first use, not at import

    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(-x / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BSParams:
    """Lognormal pricing inputs: spot, strike, flat rate, volatility, expiry."""

    S: float
    K: float
    r: float
    sigma: float
    t: float

    def __post_init__(self):
        for name in ("S", "K", "r", "sigma", "t"):
            _require_finite(name, getattr(self, name))
        if not (self.S > 0 and self.K > 0):
            raise ValueError("S and K must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.t < 0:
            raise ValueError("t must be >= 0")

    @property
    def d_plus(self) -> float:
        z = self.sigma * math.sqrt(self.t)
        return (math.log(self.S / self.K) + (self.r + 0.5 * self.sigma ** 2)
                * self.t) / z

    @property
    def d_minus(self) -> float:
        return self.d_plus - self.sigma * math.sqrt(self.t)


def _is_degenerate(p: BSParams) -> bool:
    return p.sigma * math.sqrt(p.t) == 0.0


def bs_price(p: BSParams, kind: str = "call") -> float:
    """European option value under lognormal dynamics.

    call = S Phi(d+) - K e^{-rt} Phi(d-); the put follows from
    call - put = S - K e^{-rt}. Zero volatility or zero expiry collapse to
    the discounted intrinsic value.
    """
    if kind not in ("call", "put"):
        raise ValueError("kind must be 'call' or 'put'")
    disc_k = p.K * math.exp(-p.r * p.t)
    if _is_degenerate(p):
        call = max(p.S - disc_k, 0.0)
    else:
        call = p.S * norm_cdf(p.d_plus) - disc_k * norm_cdf(p.d_minus)
    if kind == "call":
        return call
    return call - p.S + disc_k


@dataclass(frozen=True)
class GreeksReport:
    delta: float
    kappa: float
    gamma: float
    degenerate: bool = False


def bs_greeks(p: BSParams) -> GreeksReport:
    """Call sensitivities: delta = Phi(d+), kappa = S sqrt(t) N(d+),
    gamma = N(d+) / (S sigma sqrt(t)).

    The short forms rest on the identity S N(d+) = K e^{-rt} N(d-); the
    tests compare them with the long-hand forms, whose cancelling bracket
    loses its digits as sigma sqrt(t) shrinks, so they are not evaluated
    here. Degenerate inputs (sigma = 0 or t = 0) return limit values
    flagged.
    """
    if _is_degenerate(p):
        forward_itm = p.S - p.K * math.exp(-p.r * p.t)
        if forward_itm > 0:
            delta = 1.0
        elif forward_itm < 0:
            delta = 0.0
        else:
            delta = 0.5
        gamma = math.inf if forward_itm == 0 and p.t > 0 else 0.0
        kappa = (p.S * math.sqrt(p.t) / math.sqrt(2 * math.pi)
                 if forward_itm == 0 else 0.0)
        return GreeksReport(delta=delta, kappa=kappa, gamma=gamma,
                            degenerate=True)

    z = p.sigma * math.sqrt(p.t)
    delta = norm_cdf(p.d_plus)
    kappa = p.S * math.sqrt(p.t) * norm_pdf(p.d_plus)
    gamma = norm_pdf(p.d_plus) / (p.S * z)
    return GreeksReport(delta=delta, kappa=kappa, gamma=gamma)


# ---------------------------------------------------------------------------
# Monte Carlo present value


# pv_mc's latest simulation: (caller's model, key, terminal states)
_last_paths = None


def _clear_path_memo() -> None:
    global _last_paths
    _last_paths = None


def _terminal_states(model, key: tuple, simulate, reuse: bool) -> np.ndarray:
    """The stored states if reuse and model and key match, else simulate()'s
    (stored in their place); the entry is replaced whole, never edited."""
    global _last_paths
    last = _last_paths
    if reuse and last is not None and last[0] is model and last[1] == key:
        return last[2]
    states = simulate()
    _last_paths = (model, key, states)
    return states


def pv_mc(model: ModelSpec, curve: DiscountCurve, payoff, S0: float, T: float,
          dt: float, n_paths: int, seed, *, threads=None,
          exact_terminal: bool | None = None) -> MCEstimate:
    """Discounted Monte Carlo value of one payoff (a PayoffSpec) at T.

    To price several payoffs, call pv_mc once per payoff: consecutive calls
    on one path set simulate once, through the memo below.

    The model must have dim 1: a payoff reads one asset's state, which under
    a model of family GBM must start above 0. It is
    risk-neutralized on curve, as in greens_function (recorded in metadata).
    Stream payoffs accumulate sum_m p(t_m, S_m) e^{-R(0,t_m)} dt over the
    left endpoints. For plain terminal payoffs under a model of family GBM
    the terminal value is drawn from its exact lognormal law instead of
    stepping (metadata sampler flag); pass exact_terminal=False to force
    the Euler path route. Paths run on `threads` threads (default: the
    CPUs this process may use), so payoff callables must be pure.

    The latest simulation's terminal states are kept until the next one
    replaces them, keyed by the model object, curve, risk-neutral model
    hash, S0, T, dt, step and path counts, seed and sampler: a call with
    that key draws no noise unless its payoff has a stream, which always
    simulates. The terminal payoff is evaluated once, on a copy of the full
    terminal array.
    """
    if not isinstance(payoff, PayoffSpec):
        raise ValueError(f"payoff must be a PayoffSpec, got {type(payoff).__name__}")
    if model.dim != 1:
        raise ValueError(f"pv_mc prices one asset; the model has dim {model.dim}")
    n_steps = _step_count(_require_positive("T", T), dt)
    rn = risk_neutralize(model, curve)
    start, n_paths, seed, threads = _batch_args(rn, S0, n_paths, seed, threads)
    if isinstance(rn.family, GBM) and not start[0] > 0:
        # density._point_source's rule: a family with a log-space form (GBM) needs
        # S > 0; asked by type, as log_space() refuses the non-flat curves priced here
        raise ValueError(f"this model needs S > 0; S0 = {float(start[0])!r}")
    can = isinstance(rn.family, GBM) and payoff.stream is None
    if exact_terminal and not can:
        raise ValueError("exact terminal sampling needs a model of family GBM "
                         "and a pure terminal payoff")
    exact = can if exact_terminal is None else bool(exact_terminal)
    disc_T = curve.discount(0.0, T)
    metadata = {"risk_neutralized": True, "model_hash": model_hash(rn),
                "dt": dt, "n_steps": n_steps, "discount": disc_T,
                "sampler": "exact-terminal" if exact else "euler-paths"}
    key = (curve, metadata["model_hash"], start.tobytes(), T, dt, n_steps,
           n_paths, seed, exact)
    acc = None if payoff.stream is None else np.zeros(n_paths)

    def draw() -> np.ndarray:
        sigma = rn.family.sigma
        z = noise.normal_block(seed, noise.TERMINAL, 1, 0, 0, n_paths, 1)[:, 0]
        z *= sigma * math.sqrt(T)
        z += curve.integral(0.0, T) - 0.5 * sigma * sigma * T
        return np.multiply(np.exp(z, out=z), start[0], out=z)

    def march() -> np.ndarray:
        grid = TimeGrid(t0=0.0, dt=dt, n_steps=n_steps)
        disc_steps = [curve.discount(0.0, m * dt) * dt for m in range(n_steps)]

        def visit(lo: int, hi: int, m: int, s: np.ndarray) -> None:
            if m < n_steps:
                acc[lo:hi] += disc_steps[m] * np.asarray(
                    payoff.stream(m * dt, s[:, 0]), dtype=float)

        return _euler_batch(rn, start, grid, seed, n_paths, threads,
                            visit if payoff.stream else None)[:, 0]

    states = _terminal_states(model, key, draw if exact else march,
                              payoff.stream is None)
    v = disc_T * np.asarray(payoff.terminal(states.copy()), dtype=float)
    v = v if payoff.stream is None else v + acc
    if not np.all(np.isfinite(v)):
        raise NumericalError("payoff produced non-finite values")
    mean, se = _mean_and_se(v)
    return MCEstimate(mean=mean, std_error=se, n_paths=n_paths, metadata=metadata)


# ---------------------------------------------------------------------------
# Backward PDE in log-price


# points of the midpoint rule that averages the payoff over each log cell
_CELL_POINTS = 16


def _finite_payoff(part: str, values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{part} payoff must be finite on the grid")
    return values


def _resolve_sigma(sigma) -> Callable[[float, np.ndarray], np.ndarray]:
    if callable(sigma):
        return lambda t, s: np.asarray(sigma(t, s), dtype=float)
    sig = _require_positive("sigma", sigma)
    return lambda t, s: np.full_like(np.asarray(s, dtype=float), sig)


def pv_pde(payoff: PayoffSpec, curve: DiscountCurve, sigma, S0: float,
           T: float, *, n_nodes: int = 4097, n_steps: int = 512,
           half_width: float = 8.0) -> GridFunction:
    """Backward solve of the pricing PDE; returns the t=0 value function.

    Log-price coordinates make the diffusion coefficient constant for
    constant sigma: a scalar sigma builds (and factors) the system once; a
    callable sigma(t, S) is evaluated every step and the system rebuilt
    only when its values differ from those of the last build. The grid is
    the same for every payoff: n_nodes // 2 cells either side of ln S0 (so
    S0 is a node), spanning half_width standard deviations plus the drift.
    Each node starts from the payoff averaged over its log cell (a midpoint
    rule with _CELL_POINTS points), so a kink or jump between nodes is
    weighted by where it falls (Pooley, Vetzal and Forsyth 2003). Two fully
    implicit startup steps damp what is left of it before trapezoidal time
    stepping takes over; edge rows impose zero curvature in price. A strike
    outside the grid is refused. n_steps must be a positive integer (with
    1 + r*dt > 0), n_nodes an integer >= 5 and half_width finite and positive.
    """
    if not curve.is_flat:
        raise ValueError("pv_pde requires a flat discount curve")
    r = curve.rates[0]
    _require_positive("S0", S0)
    _require_positive("T", T)
    n_steps = _int_at_least("n_steps", n_steps, 1)
    dt = T / n_steps
    if not 1 + r * dt > 0:  # the implicit steps then lose diagonal dominance
        raise ValueError(f"r*dt = {r * dt:.6g} leaves 1 + r*dt <= 0, so the implicit system is "
                         f"no M-matrix: use n_steps > -r*T = {-r * T:.6g} (now {n_steps})")
    n_nodes = _grid_nodes(n_nodes, half_width)
    sig_fn = _resolve_sigma(sigma)
    sig0 = float(np.max(sig_fn(0.0, np.asarray([S0]))))
    if not sig0 > 0:
        raise ValueError("sigma must be positive at the spot")
    width = half_width * sig0 * math.sqrt(T) + abs(r - 0.5 * sig0 ** 2) * T
    h = 2 * width / (n_nodes - 1)
    x = math.log(S0) + h * np.arange(-(n_nodes // 2), n_nodes // 2 + 1)
    s = np.exp(x)
    n = x.size
    if payoff.strike is not None and not s[0] < payoff.strike < s[-1]:
        raise ValueError(f"strike {payoff.strike!r} lies outside the grid's "
                         f"price range [{s[0]:.6g}, {s[-1]:.6g}]; increase "
                         "half_width")

    u = (np.arange(_CELL_POINTS) + 0.5) / _CELL_POINTS - 0.5
    cell = np.exp(x[:, None] + h * u).ravel()
    f = _finite_payoff("terminal", payoff.terminal(cell)).reshape(n, _CELL_POINTS).mean(axis=1)

    # ghost-node elimination coefficients for zero price-curvature edges
    alpha = 2.0 / (1.0 + 0.5 * h)
    beta = -(1.0 - 0.5 * h) / (1.0 + 0.5 * h)
    gamma_c = 2.0 / (1.0 - 0.5 * h)
    delta_c = -(1.0 + 0.5 * h) / (1.0 - 0.5 * h)

    def system(tau: float, sig_m: np.ndarray) -> _ThetaSystem:
        a = 0.5 * sig_m ** 2
        b = r - 0.5 * sig_m ** 2
        lower, diag, upper = np.zeros((3, n))
        upper[1:-1] = a[1:-1] / (h * h) + b[1:-1] / (2 * h)
        lower[1:-1] = a[1:-1] / (h * h) - b[1:-1] / (2 * h)
        diag[1:-1] = -2 * a[1:-1] / (h * h) - r
        diag[0] = a[0] * (alpha - 2) / (h * h) - b[0] * alpha / (2 * h) - r
        upper[0] = a[0] * (1 + beta) / (h * h) + b[0] * (1 - beta) / (2 * h)
        diag[-1] = a[-1] * (gamma_c - 2) / (h * h) + b[-1] * gamma_c / (2 * h) - r
        lower[-1] = a[-1] * (1 + delta_c) / (h * h) + b[-1] * (delta_c - 1) / (2 * h)
        return _ThetaSystem(lower, diag, upper, dt)

    operator = _Reused(system, lambda tau: (sig_fn(tau, s),), not callable(sigma))
    for m in range(n_steps):
        tau = T - (m + 0.5) * dt
        source = None if payoff.stream is None \
            else dt * _finite_payoff("stream", payoff.stream(tau, s))
        f = operator(tau).step(f, m, source)
        if not np.isfinite(f).all():
            raise NumericalError(
                f"pricing solve produced non-finite values at step {m + 1}")
    return GridFunction(s_values=s, values=f)


# ---------------------------------------------------------------------------
# Green's-function quadrature


def pv_green(green: GreensFunction, payoff: PayoffSpec) -> float:
    """Integrate the payoff against the discounted transition lattice.

    Terminal payoffs use the final time slice; stream payoffs add a
    trapezoid time integral over the lattice times. A payoff that is not
    finite on the lattice is refused. Warns when the payoff weight near the
    lattice edges exceeds 1e-4 of the total.
    """
    w = trapezoid_weights(green.native_values)
    weighted = w * green.transition[-1] * _finite_payoff(
        "terminal", payoff.terminal(green.price_values))
    value = float(green.discounts[-1] * np.sum(weighted))
    if payoff.stream is not None:
        # GreensFunction.integrate per slice, with w built once, not per slice
        tw = trapezoid_weights(green.times)
        for idx, t_m in enumerate(green.times):
            rate = _finite_payoff("stream", payoff.stream(t_m, green.price_values))
            value += tw[idx] * float(green.discounts[idx]
                                     * np.sum(w * green.transition[idx] * rate))
    # the weights and the transition are >= 0, so this is the weight of |payoff|
    size = np.abs(weighted)
    total = float(np.sum(size))
    k = max(2, len(w) // 100)
    edge = float(np.sum(size[:k]) + np.sum(size[-k:])) / total if total != 0 else 0.0
    if edge > 1e-4:
        warnings.warn(
            f"payoff support leaks past the lattice edges (edge share "
            f"{edge:.3g}); the value is biased by up to that fraction",
            RuntimeWarning, stacklevel=2)
    return value
