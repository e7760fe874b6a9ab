"""Portfolio variance minimization and sensitivity hedging.

Index construction solves for capitalization weights that minimize the
variance of a basket of independent assets under a budget constraint;
hedging solves small linear systems that zero out selected option
sensitivities across a set of instruments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .portfolio import _require_finite

_TARGETS = ("kappa", "gamma")


@dataclass(frozen=True)
class IndexInputs:
    """Per-asset prices and volatilities for index construction."""

    prices: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.prices, dtype=float)
        s = np.asarray(self.sigmas, dtype=float)
        if x.ndim != 1 or x.size < 1 or s.shape != x.shape:
            raise ValueError("prices and sigmas must be 1-d arrays of equal length")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(s)):
            raise ValueError("prices and sigmas must be finite")
        if np.any(x <= 0):
            raise ValueError("prices must be positive")
        if np.any(s < 0):
            raise ValueError("sigmas must be >= 0")
        object.__setattr__(self, "prices", x)
        object.__setattr__(self, "sigmas", s)
        x.setflags(write=False)
        s.setflags(write=False)


@dataclass(frozen=True)
class IndexWeights:
    """Variance-minimizing holdings with the achieved index variance."""

    weights: np.ndarray
    index_variance: float
    degenerate: bool = False


def index_weights(inputs: IndexInputs) -> IndexWeights:
    """Holdings w_i = sigma_bar^2 / (x_i sigma_i^2) with
    1 / sigma_bar^2 = sum_i 1 / sigma_i^2.

    Minimizes the variance of sum_i w_i x_i (unit total value, independent
    proportional fluctuations). An asset whose n / sigma_i^2 overflows, as
    at sigma 0, is riskless, and riskless assets collapse the problem: they
    share all the weight and the result is flagged degenerate. A price so
    small that its weight overflows is refused.
    """
    x = inputs.prices
    s = inputs.sigmas
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / (s * s)
        riskless = ~np.isfinite(inv * s.size)   # so the sum of inv cannot overflow
        sigma_bar_sq = 0.0 if np.any(riskless) else 1.0 / float(np.sum(inv))
        # an x sigma^2 below the normal range has lost bits: divide by its factors
        w = np.where(x * s * s < np.finfo(float).tiny, sigma_bar_sq * inv / x,
                     sigma_bar_sq / (x * s * s))
        if np.any(riskless):
            w = np.where(riskless, 1.0 / (x * np.count_nonzero(riskless)), 0.0)
    if not np.all(np.isfinite(w)):
        raise ValueError(f"prices[{np.argmin(np.isfinite(w))}] is too small for a finite weight")
    return IndexWeights(weights=w, index_variance=sigma_bar_sq, degenerate=bool(np.any(riskless)))


def portfolio_variance(weights, prices, sigmas) -> float:
    """Variance of sum_i w_i x_i under independent proportional noise:
    sum_i w_i^2 x_i^2 sigma_i^2."""
    w = np.asarray(weights, dtype=float)
    x = np.asarray(prices, dtype=float)
    s = np.asarray(sigmas, dtype=float)
    if not (w.shape == x.shape == s.shape):
        raise ValueError("weights, prices and sigmas must have equal shapes")
    return float(np.sum((w * x * s) ** 2))


# ---------------------------------------------------------------------------
# Hedging


def delta_hedge(f, S0: float, *, rel_step: float = 1e-4) -> float:
    """Central-difference spot sensitivity of a value function.

    A relative mismatch above 1e-3 between the one-sided slopes signals a
    kink (payoff not smoothed, barrier, digital) and triggers a warning;
    the central estimate is still returned.
    """
    S0 = float(S0)
    h = rel_step * max(1.0, abs(S0))
    up = float(f(S0 + h))
    down = float(f(S0 - h))
    mid = float(f(S0))
    fwd = (up - mid) / h
    bwd = (mid - down) / h
    central = (up - down) / (2 * h)
    scale = max(abs(fwd), abs(bwd), 1e-12)
    if abs(fwd - bwd) > 1e-3 * scale:
        warnings.warn(
            f"one-sided slopes differ by {abs(fwd - bwd) / scale:.3g} "
            f"(relative) at S = {S0}; the value function may have a kink "
            "and the central difference is unreliable there",
            RuntimeWarning, stacklevel=2)
    return central


@dataclass(frozen=True)
class Instrument:
    """Option sensitivities used as hedge ingredients."""

    delta: float
    kappa: float
    gamma: float
    name: str = ""

    def __post_init__(self):
        for greek in ("delta", "kappa", "gamma"):
            _require_finite(greek, getattr(self, greek))


@dataclass(frozen=True)
class HedgeReport:
    alphas: np.ndarray
    delta: float
    residual_greeks: dict[str, float]
    condition_number: float


def neutralize(instruments, targets=("kappa",), *, normalization: str = "first",
               values=None) -> HedgeReport:
    """Solve for position sizes alpha_i that zero the chosen sensitivities.

    targets is a subset of {"kappa", "gamma"}; one linear constraint per
    target plus one normalization row: alpha_1 = 1 ("first") or
    sum_i alpha_i v_i = 1 ("value", requires values). The residual spot
    sensitivity sum_i alpha_i delta_i is reported for a final futures or
    cash hedge; it is not constrained here.
    """
    instruments = list(instruments)
    n = len(instruments)
    targets = tuple(targets)
    if not targets or any(t not in _TARGETS for t in targets):
        raise ValueError(f"targets must be a non-empty subset of {_TARGETS}")
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate targets")
    if n < len(targets) + 1:
        raise ValueError(
            f"need at least {len(targets) + 1} instruments to zero "
            f"{len(targets)} sensitivities with a nontrivial position")
    if normalization not in ("first", "value"):
        raise ValueError("normalization must be 'first' or 'value'")

    rows = [[getattr(inst, t) for inst in instruments] for t in targets]
    if normalization == "first":
        norm_row = [0.0] * n
        norm_row[0] = 1.0
    else:
        if values is None:
            raise ValueError("normalization='value' requires values")
        values = np.asarray(values, dtype=float)
        if values.shape != (n,):
            raise ValueError("values must have one entry per instrument")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        norm_row = list(values)
    rows.append(norm_row)

    A = np.asarray(rows, dtype=float)
    b = np.array([0.0] * len(targets) + [1.0])
    sv = np.linalg.svd(A, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if cond > 1e12:
        u, _, _ = np.linalg.svd(A)
        null = u[:, -1]
        labels = list(targets) + ["normalization"]
        worst = labels[int(np.argmax(np.abs(null)))]
        raise ValueError(
            f"hedge system is rank-deficient (condition {cond:.3g}); the "
            f"{worst} constraint is (nearly) a combination of the others. "
            "Add an instrument with independent sensitivities.")
    alphas, *_ = np.linalg.lstsq(A, b, rcond=None)

    residual = {t: float(np.dot([getattr(i, t) for i in instruments], alphas))
                for t in _TARGETS}
    delta = float(np.dot([i.delta for i in instruments], alphas))
    return HedgeReport(alphas=alphas, delta=delta, residual_greeks=residual,
                       condition_number=cond)


def hedge_report_doc(report: HedgeReport) -> dict:
    """JSON-ready view of a hedge solution."""
    return {
        "weights": [float(a) for a in report.alphas],
        "delta": report.delta,
        "residual_greeks": dict(report.residual_greeks),
        "condition_number": report.condition_number,
    }
