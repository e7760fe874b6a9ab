"""Probability densities on price grids.

Closed forms for the three model families, change of variables for
monotone maps, a conservative finite-difference solver for the forward
(Fokker-Planck) equation, a backward solver for conditional expectations,
and quadrature composition of transition densities. The forward and
backward solvers and pricing.pv_pde share one theta step, _ThetaSystem:
one gttrs solve a step, factored (LAPACK gttrf) at most once per theta, the
bits of solve_banded on the one-solve right-hand side. Each solver builds
its own coefficients and runs its own checks. The one rule for when a
march reuses its operator lives here, in _Reused: those two solvers,
pricing.pv_pde and the pathintegral lattice rebuild only when the maps
they read on the grid change, bit for bit, and read maps free of t once.
The forward march checks each density slice as it makes it.

Grid densities are plain values-per-unit-price on a strictly increasing
grid; all integrals are trapezoid sums with the weights of the grid the
values live on. The composition rule and the lattice propagator in the
pathintegral module share one quadrature helper so their results agree to
the last bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError
from .mc import TimeGrid, _int_at_least
from .models import BM, GBM, ModelSpec, Vasicek, model_hash  # benchmark tracer counts its calls
from .portfolio import _require_finite, _require_positive

_MASS_TOL = 1e-3          # allowed |trapezoid mass - 1| for a density grid
_NEG_CLAMP = 1e-12        # negatives within this fraction of peak are zeroed


def trapezoid_weights(s: np.ndarray) -> np.ndarray:
    """Quadrature weights w with sum(w * f) = trapezoid integral of f."""
    s = np.asarray(s, dtype=float)
    w = np.zeros_like(s)
    d = np.diff(s)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


# ---------------------------------------------------------------------------
# Grid densities


def _check_densities(s: np.ndarray, p: np.ndarray, w: np.ndarray | None = None) -> None:
    """The checks of a density p on grid s, whose trapezoid weights w are
    built when not given, in this order: values finite, no value below
    -_NEG_CLAMP of the peak, trapezoid mass (negatives left out) within
    _MASS_TOL of 1. Negatives that pass are zeroed in place.
    """
    if w is None:
        w = trapezoid_weights(s)
    mass = float(np.sum(w * p))
    # the weights are > 0, so a value that is not finite makes the mass so
    if not math.isfinite(mass) and not np.isfinite(p).all():
        raise ValueError("density values must be finite")
    if float(p.min()) < 0:
        bad = np.flatnonzero(p < -_NEG_CLAMP * max(float(p.max()), 1e-300))
        if bad.size:
            raise ValueError(
                f"density is negative at S={s[bad[0]]!r} (value {p[bad[0]]!r})")
        p[p < 0] = 0.0
        mass = float(np.sum(w * p))
    if abs(mass - 1.0) > _MASS_TOL:
        raise ValueError(
            f"density mass {mass!r} outside [1-{_MASS_TOL}, 1+{_MASS_TOL}]")


@dataclass(frozen=True)
class DensityGrid:
    """Density sampled on a strictly increasing price grid at one time."""

    s_values: np.ndarray
    p_values: np.ndarray
    t: float

    def __post_init__(self):
        _require_finite("t", self.t)
        s = np.asarray(self.s_values, dtype=float)
        p = np.array(self.p_values, dtype=float)
        if s.ndim != 1 or s.size < 3 or p.shape != s.shape:
            raise ValueError("s_values and p_values must be 1-D arrays of equal length >= 3")
        if np.any(np.diff(s) <= 0):
            raise ValueError("grid must be strictly increasing")
        _check_densities(s, p)
        # a read-only grid that owns its memory, as a DensityGrid's, is shared
        if s.flags.writeable or not s.flags.owndata:
            s = s.copy()
        for arr in (s, p):
            arr.setflags(write=False)
        object.__setattr__(self, "s_values", s)
        object.__setattr__(self, "p_values", p)

    @classmethod
    def _of_checked(cls, s: np.ndarray, p: np.ndarray, t: float):
        """The grid of values p that a march has density-checked on s, a
        DensityGrid's grid: p is made read-only in place, not copied or
        checked again."""
        p.setflags(write=False)
        grid = object.__new__(cls)
        vars(grid).update(s_values=s, p_values=p, t=t)
        return grid

    @property
    def weights(self) -> np.ndarray:
        return trapezoid_weights(self.s_values)

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights * self.p_values))

    @property
    def mean(self) -> float:
        return float(np.sum(self.weights * self.s_values * self.p_values) / self.mass)

    @property
    def variance(self) -> float:
        m = self.mean
        return float(np.sum(self.weights * (self.s_values - m) ** 2 * self.p_values)
                     / self.mass)


@dataclass(frozen=True)
class PointMass:
    """Degenerate density: all mass at one point (zero-time marker)."""

    center: float
    t: float = 0.0

    def __post_init__(self):
        _require_finite("center", self.center)
        _require_finite("t", self.t)

    @property
    def mean(self) -> float:
        return self.center

    @property
    def variance(self) -> float:
        return 0.0


def point_mass_on_grid(s_values, center: float, t: float = 0.0) -> DensityGrid:
    """Regularize a point mass as a narrow Gaussian (one grid cell wide).

    The width keeps >= 99% of the mass within three cells of the center
    while staying resolvable by the solvers; the discrete values are
    rescaled so the trapezoid mass is exactly 1.
    """
    s = np.asarray(s_values, dtype=float)
    if s.ndim != 1 or s.size < 5:
        raise ValueError("grid must be a 1-D array with at least 5 nodes")
    if not (s[0] <= center <= s[-1]):
        raise ValueError("center must lie inside the grid")
    h = float(np.min(np.diff(s)))
    p = np.exp(-0.5 * ((s - center) / h) ** 2)
    p /= np.sum(trapezoid_weights(s) * p)
    return DensityGrid(s_values=s, p_values=p, t=t)


@dataclass(frozen=True)
class TransitionMatrix:
    """Family of transition densities: one target-grid row per source node.

    matrix[i, j] is the density at target node j given source node i; each
    row integrates to 1 under the target grid's trapezoid weights.
    raw_row_mass keeps the pre-normalization masses for leak accounting.
    matrix is a dense array or a scipy.sparse array (the lattice kernels
    are CSR); either way it is read-only once built.
    """

    t_from: float
    t_to: float
    source_values: np.ndarray
    target_values: np.ndarray
    matrix: np.ndarray
    raw_row_mass: np.ndarray | None = None

    def __post_init__(self):
        src = np.asarray(self.source_values, dtype=float)
        tgt = np.asarray(self.target_values, dtype=float)
        sparse = _is_sparse(self.matrix)
        m = self.matrix if sparse else np.asarray(self.matrix, dtype=float)
        if m.shape != (src.size, tgt.size):
            raise ValueError("matrix shape must be (n_source, n_target)")
        if not np.isfinite(m.data if sparse else m).all():
            raise ValueError("transition weights must be finite")
        if np.any((m.data if sparse else m) < 0):
            raise ValueError("transition weights must be >= 0")
        masses = m @ trapezoid_weights(tgt)
        if np.any(np.abs(masses - 1.0) > 1e-6):
            worst = int(np.argmax(np.abs(masses - 1.0)))
            raise ValueError(
                f"row {worst} has mass {masses[worst]!r}; rows must be "
                "normalized to 1 within 1e-6")

    @classmethod
    def from_pdf(cls, pdf, t_from: float, t_to: float, source_values,
                 target_values) -> "TransitionMatrix":
        """Build from pdf(s0) -> callable density over target values."""
        src = np.asarray(source_values, dtype=float)
        tgt = np.asarray(target_values, dtype=float)
        w = trapezoid_weights(tgt)
        rows = np.empty((src.size, tgt.size))
        for i, s0 in enumerate(src):
            rows[i] = np.asarray(pdf(s0)(tgt), dtype=float)
        raw = rows @ w
        if np.any(raw <= 0):
            raise ValueError("a transition row has no mass on the target grid")
        rows /= raw[:, None]
        return cls(t_from=t_from, t_to=t_to, source_values=src,
                   target_values=tgt, matrix=rows, raw_row_mass=raw)


def _is_sparse(matrix) -> bool:
    """Whether matrix is a scipy.sparse array. Nothing builds one without
    importing scipy.sparse, so the check never imports it."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(matrix)


def quadrature_apply(weights: np.ndarray, p: np.ndarray,
                     matrix) -> np.ndarray:
    """One composition step: q[j] = sum_i weights[i] * p[i] * matrix[i, j].

    A dense matrix is a vector-matrix product. A sparse one is applied as
    its transposed CSR form, built on the first apply and kept on the
    matrix, so each q[j] sums only the nonzero entries of column j, in
    source order. Shared by compose_transition and pathintegral.propagate
    so the two code paths produce bit-identical arrays.
    """
    v = weights * p
    if not _is_sparse(matrix):
        return v @ matrix
    by_target = getattr(matrix, "_by_target", None)
    if by_target is None:
        by_target = matrix._by_target = matrix.T.tocsr()
    return by_target @ v


def compose_transition(first, second: TransitionMatrix):
    """Chain transitions through a shared intermediate grid.

    first may be a DensityGrid at the intermediate time or a
    TransitionMatrix; second maps the intermediate grid onward. The
    intermediate integral is the trapezoid rule of the shared grid.
    """
    if not isinstance(second, TransitionMatrix):
        raise TypeError("second argument must be a TransitionMatrix")
    if isinstance(first, DensityGrid):
        if not np.array_equal(first.s_values, second.source_values):
            raise ValueError("grid mismatch: intermediate grids differ")
        p = quadrature_apply(first.weights, first.p_values, second.matrix)
        return DensityGrid(s_values=second.target_values, p_values=p,
                           t=second.t_to)
    if isinstance(first, TransitionMatrix):
        if not np.array_equal(first.target_values, second.source_values):
            raise ValueError("grid mismatch: intermediate grids differ")
        w = trapezoid_weights(second.source_values)
        composed = (first.matrix * w) @ second.matrix
        return TransitionMatrix(t_from=first.t_from, t_to=second.t_to,
                                source_values=first.source_values,
                                target_values=second.target_values,
                                matrix=composed)
    raise TypeError("first argument must be a DensityGrid or TransitionMatrix")


# ---------------------------------------------------------------------------
# Analytic densities


class AnalyticDensity1D:
    """Closed-form density: a pdf callable plus its exact mean and variance."""

    def __init__(self, pdf: Callable[[np.ndarray], np.ndarray], *, t: float,
                 mean: float, variance: float,
                 support: tuple[float, float] = (-math.inf, math.inf)):
        self.pdf = pdf
        self.t = float(t)
        self.support = (float(support[0]), float(support[1]))
        self.mean = float(mean)
        self.variance = float(variance)

    def __call__(self, s):
        return self.pdf(np.asarray(s, dtype=float))

    @property
    def std(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    def default_grid(self, n: int = 801, half_width: float = 8.0) -> np.ndarray:
        """n uniform nodes over mean +- half_width std, clipped to the support;
        n must be an integer >= 5 and half_width finite and positive."""
        n = _grid_nodes(n, half_width)
        lo = max(self.support[0], self.mean - half_width * self.std)
        hi = min(self.support[1], self.mean + half_width * self.std)
        if self.support[0] > -math.inf and lo <= self.support[0]:
            lo = self.support[0] + 1e-9 * max(1.0, abs(hi))
        if not hi > lo:
            raise ValueError("degenerate support; cannot build a grid")
        return np.linspace(lo, hi, n)

    def on_grid(self, s_values=None, *, n: int = 801, half_width: float = 8.0) -> DensityGrid:
        s = self.default_grid(n, half_width) if s_values is None \
            else np.asarray(s_values, dtype=float)
        return DensityGrid(s_values=s, p_values=self(s), t=self.t)


def _gaussian_density(family, t: float, S0: float):
    """The Gaussian terminal density of the family's exact moments; a
    PointMass at t <= 0."""
    _require_finite("t", t)
    _require_finite("S0", S0)
    if t <= 0:
        return PointMass(center=float(S0), t=float(t))
    mean, var = family.moments(S0, t)
    inv = 1.0 / math.sqrt(2.0 * math.pi * var)

    def pdf(s):
        return inv * np.exp(-0.5 * (s - mean) ** 2 / var)

    return AnalyticDensity1D(pdf, t=t, mean=mean, variance=var)


def density_bm(t: float, S0: float, mu: float, sigma: float):
    """Terminal density of constant-coefficient additive dynamics.

    Gaussian with mean S0 + mu*t and variance sigma^2*t; at t <= 0 the
    density degenerates and an explicit PointMass marker is returned.
    """
    _require_finite("mu", mu)
    _require_positive("sigma", sigma)
    return _gaussian_density(BM(mu, sigma), t, S0)


def density_gbm(t: float, S0: float, mu: float, sigma: float):
    """Terminal density of proportional dynamics: lognormal, support S > 0."""
    _require_finite("t", t)
    _require_positive("S0", S0)
    _require_finite("mu", mu)
    _require_positive("sigma", sigma)
    if t <= 0:
        return PointMass(center=float(S0), t=float(t))
    m = (mu - 0.5 * sigma * sigma) * t
    v = sigma * sigma * t
    inv = 1.0 / math.sqrt(2.0 * math.pi * v)

    def pdf(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        pos = s > 0
        ls = np.log(s[pos] / S0)
        out[pos] = inv / s[pos] * np.exp(-0.5 * (ls - m) ** 2 / v)
        return out

    mean, var = GBM(mu, sigma).moments(S0, t)
    return AnalyticDensity1D(pdf, t=t, mean=mean, variance=var,
                             support=(0.0, math.inf))


def density_vasicek(t: float, S0: float, a: float, b: float, sigma: float):
    """Terminal density of the mean-reverting model: Gaussian.

    Mean relaxes from S0 to b at rate a; variance saturates at
    sigma^2/(2a). The squared deviation in the exponent is taken from the
    relaxed mean, not from S0.
    """
    _require_positive("mean-reversion speed a", a)
    _require_finite("b", b)
    _require_positive("sigma", sigma)
    return _gaussian_density(Vasicek(a, b, sigma), t, S0)


# ---------------------------------------------------------------------------
# Change of variables


def change_of_variable(p_x, Y, dYdx):
    """Density of y = Y(x) for a strictly monotone map.

    p_y(Y(x)) = p_x(x) / |dYdx(x)|. Works on a DensityGrid (transforms the
    nodes); anything else, an AnalyticDensity1D included, is a TypeError:
    sample it with on_grid first. Monotonicity is checked by the sign of dYdx
    at every node.
    """
    if not isinstance(p_x, DensityGrid):
        raise TypeError("p_x must be a DensityGrid; sample an "
                        "analytic density with on_grid first")
    s = p_x.s_values
    d = np.asarray([float(dYdx(x)) for x in s])
    if not np.all(np.isfinite(d)) or np.any(d == 0):
        raise ValueError("dYdx must be finite and nonzero on the grid")
    if np.any(np.sign(d) != np.sign(d[0])):
        raise ValueError("map is not monotone: dYdx changes sign on the grid")
    y = np.asarray([float(Y(x)) for x in s])
    p = p_x.p_values / np.abs(d)
    if d[0] < 0:
        y, p = y[::-1], p[::-1]
    return DensityGrid(s_values=y, p_values=p, t=p_x.t)


# ---------------------------------------------------------------------------
# Forward solver


def _bernoulli(x: np.ndarray) -> np.ndarray:
    """x / (e^x - 1), the exponential-fitting weight; B(0) = 1."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-5
    xs = x[small]
    out[small] = 1.0 - 0.5 * xs + xs * xs / 12.0
    xl = np.clip(x[~small], -700.0, 700.0)
    out[~small] = xl / np.expm1(xl)
    return out


def _require_uniform(s: np.ndarray) -> float:
    d = np.diff(s)
    h = float(d[0])
    if np.max(np.abs(d - h)) > 1e-9 * abs(h):
        raise ValueError("solver grids must be uniformly spaced")
    return h


def _flux_inputs(model: ModelSpec, s: np.ndarray, tau: float):
    """What the stencil reads of the model: sigma at nodes and faces, mu at faces."""
    faces = 0.5 * (s[:-1] + s[1:])
    return model.sigma1(tau, s), model.sigma1(tau, faces), model.mu1(tau, faces)


def _flux_stencil(sig_nodes, sig_faces, mu_faces, h: float):
    """Exponential-fitted flux stencil for the conservative forward operator.

    Returns (lower, diag, upper) of the tridiagonal L with
    (L p)_i = (F_{i+1/2} - F_{i-1/2}) / h and zero flux through the
    outermost faces, so columns of L sum to zero and sum(p)*h is conserved
    exactly.
    """
    n = sig_nodes.size
    d_nodes = 0.5 * sig_nodes ** 2
    d_faces = 0.5 * sig_faces ** 2
    if np.any(d_nodes <= 0) or np.any(d_faces <= 0):
        raise ValueError("forward solver requires sigma > 0 on the grid")
    what = -mu_faces * h / d_faces          # face Peclet-like ratio
    bp = _bernoulli(what)                   # weight toward the lower node
    bm = _bernoulli(-what)                  # weight toward the upper node

    inv_h2 = 1.0 / (h * h)
    lower = np.zeros(n)
    diag = np.zeros(n)
    upper = np.zeros(n)
    upper[:-1] = d_nodes[1:] * bm * inv_h2
    lower[1:] = d_nodes[:-1] * bp * inv_h2
    diag[:-1] -= d_nodes[:-1] * bp * inv_h2
    diag[1:] -= d_nodes[1:] * bm * inv_h2
    return lower, diag, upper


class _Reused:
    """The operator reuse of every grid march: self(t) is build(t, *inputs(t)), rebuilt
    only when the arrays inputs(t) change bit for bit; if fixed, built at the first t only."""

    def __init__(self, build, inputs, fixed: bool):
        self.build, self.inputs, self.fixed, self.key = build, inputs, fixed, None

    def __call__(self, t):
        if self.key is None or not self.fixed:
            new = self.inputs(t)
            key = [(a.shape, a.tobytes()) for a in new]  # bytes compare faster than values
            if key != self.key:
                self.key, self.operator = key, self.build(t, *new)
        return self.operator


def _fixed_maps(model: ModelSpec) -> bool:
    """Whether a march may evaluate the maps once: their family declares them free of t."""
    return model.family is not None and model.family.time_homogeneous()


class _ThetaSystem:
    """Theta stepping of du/dt = L u (+ source/dt) for a fixed tridiagonal L.

    step(u, m) is step m of the Rannacher (1984) schedule: two fully
    implicit startup steps, then trapezoidal stepping. As A = I - theta*dt*L
    gives I + (1 - theta)*dt*L = (I - (1 - theta)*A)/theta, a step is the one
    solve x = A^-1 (u/theta + source) - (1/theta - 1) u, with exact scalings.
    A is factored with LAPACK gttrf at most once per theta; a solve is one
    gttrs, the bits of scipy.linalg.solve_banded on that right-hand side, and
    non-finite input is a ValueError, a singular system a LinAlgError.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                 dt: float):
        self.lower, self.diag, self.upper, self.dt = lower, diag, upper, dt
        self._factors = {}

    def _factor(self, theta: float):
        from scipy.linalg import lapack  # loaded on first use, not at import

        dt = self.dt
        dl = -theta * dt * self.lower[1:]
        d = 1.0 - theta * dt * self.diag
        du = -theta * dt * self.upper[:-1]
        if not all(np.isfinite(a).all() for a in (dl, d, du)):
            raise ValueError("array must not contain infs or NaNs")
        *factors, info = lapack.dgttrf(dl, d, du, overwrite_dl=1, overwrite_d=1,
                                       overwrite_du=1)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        return lapack.dgttrs, factors   # the solver, looked up once per factoring

    def step(self, u: np.ndarray, m: int, source=None) -> np.ndarray:
        """u advanced by step m; source is added to the right-hand side as is."""
        theta = 1.0 if m < 2 else 0.5
        rhs = u / theta
        if source is not None:
            rhs += source
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        if theta not in self._factors:
            self._factors[theta] = self._factor(theta)
        solve, factors = self._factors[theta]
        x, _info = solve(*factors, rhs, overwrite_b=1)
        if theta != 1.0:
            x -= u      # (1/theta - 1) u at theta 1/2
        return x


def _require_vanishing_edges(p: np.ndarray, remedy: str = "") -> None:
    """An initial density must vanish (<= 1e-8 of its peak) at both edges. With
    no remedy given, a start under 1.5 cells wide (as point_mass_on_grid makes
    it), which a wider grid widens too, is told its cells to the nearer edge."""
    if max(p[0], p[-1]) <= 1e-8 * float(p.max()):
        return
    cells, peak = np.arange(p.size), int(np.argmax(p))
    if not remedy and p @ (cells - p @ cells / p.sum()) ** 2 < 1.5 ** 2 * p.sum():
        remedy = (f"the start is about one cell wide and lies {min(peak, p.size - 1 - peak)} "
                  "cells from the nearer edge, which needs about seven: add nodes or move "
                  "that edge away")
    raise ValueError("initial density does not vanish at the domain edges "
                     f"(boundary > 1e-8 of peak); {remedy or 'widen the grid'}")


def fokker_planck_forward(model: ModelSpec, initial: DensityGrid,
                          grid: TimeGrid) -> list[DensityGrid]:
    """March the forward equation dP/dt = d/dS[-mu P + d/dS(sigma^2/2 P)].

    Conservative exponential-fitted flux discretization, zero flux through
    the domain edges, trapezoidal-rule-in-time stepping with two damped
    (fully implicit) startup steps. Returns one DensityGrid per grid time,
    the initial condition included, each built as the march yields its
    slice, which the march has checked, so it is not checked again; all of
    them share the initial density's grid.
    """
    return [DensityGrid._of_checked(initial.s_values, p, grid.time(m))
            for m, p in enumerate(_forward_march(model, initial, grid))]


def _forward_march(model: ModelSpec, initial: DensityGrid, grid: TimeGrid):
    """Yield the march's slices: the initial density's values, then each
    step's slice, density-checked right after the step's own guards, so the
    first error raised is that of the earliest failing step."""
    if model.dim != 1:
        raise ValueError("forward solver handles one-dimensional models")
    s = initial.s_values
    h = _require_uniform(s)
    if abs(initial.t - grid.t0) > 1e-9 * max(1.0, abs(grid.t0)):
        raise ValueError("initial density time must equal grid.t0")
    p = initial.p_values
    _require_vanishing_edges(p)
    w = trapezoid_weights(s)
    mass0 = float(np.sum(w * p))
    tv0 = float(np.abs(np.diff(p)).sum())
    yield p
    operator = _Reused(lambda t, *maps: _ThetaSystem(*_flux_stencil(*maps, h), grid.dt),
                       lambda t: _flux_inputs(model, s, t), _fixed_maps(model))
    for m in range(grid.n_steps):
        p = operator(grid.time(m) + 0.5 * grid.dt).step(p, m)
        peak = float(p.max())
        if float(p.min()) < -1e-6 * peak:
            raise NumericalError(
                f"solution went negative at step {m + 1}: the advection is "
                f"under-resolved; retry with dt <= {grid.dt / 4:.6g}")
        p[p < 0] = 0.0
        tv = float(np.abs(np.diff(p)).sum())
        if tv > 10.0 * tv0 and tv > 1e-9:
            raise NumericalError(
                f"total variation grew {tv / max(tv0, 1e-300):.3g}x at step "
                f"{m + 1}: unstable resolution; retry with dt <= {grid.dt / 4:.6g}")
        # the edge first: the trapezoid mass falls as the density piles into
        # the half-weighted edge nodes, so when both trip the edge is the reason
        if max(p[0], p[-1]) > 1e-3 * peak:
            raise NumericalError(
                f"density reached the domain edge at step {m + 1}; widen the grid")
        mass = float(np.sum(w * p))
        if abs(mass - mass0) > _MASS_TOL:
            raise NumericalError(
                f"mass drifted to {mass!r} at step {m + 1}; the domain or "
                "resolution cannot represent this evolution")
        _check_densities(s, p, w)
        yield p


def _grid_nodes(n_nodes, half_width) -> int:
    """n_nodes as an int if it is an integer >= 5 and half_width is finite
    and positive; anything else is a ValueError."""
    n_nodes = _int_at_least("n_nodes", n_nodes, 5)
    _require_positive("half_width", half_width)
    return n_nodes


def _point_source(model: ModelSpec, S0: float, t0: float, horizon: float,
                  n_nodes, half_width):
    """(work_model, x0, start) for evolve_density and greens_function. A family
    with a log-space form (GBM) works at x0 = ln S0 and refuses S0 <= 0. start
    is the point regularised at t0 on n_nodes (an integer >= 5) uniform nodes
    over x0 and the family's end spread within +-half_width (finite, > 0) std."""
    n_nodes = _grid_nodes(n_nodes, half_width)
    work_model, x0 = model, float(S0)
    log_model = None if model.family is None else model.family.log_space()
    if log_model is not None:
        if not S0 > 0:
            raise ValueError(f"this model needs S > 0; S0 = {float(S0)!r}")
        work_model, x0 = log_model, math.log(S0)
    spread = None if work_model.family is None else work_model.family.spread(x0, horizon)
    if spread is None:
        override = " (drift overridden)" if model.config.get("drift_override") else ""
        raise ValueError(f"no default domain rule for this model{override}: grids "
                         "are sized from the closed-form spread of a model family")
    mean, std = spread
    if std <= 0:
        raise ValueError("model has zero terminal spread; no grid to build")
    pad = half_width * std
    lo = min(x0, mean) - pad
    hi = max(x0, mean) + pad
    return work_model, x0, point_mass_on_grid(np.linspace(lo, hi, n_nodes), x0, t0)


def evolve_density(model: ModelSpec, initial: PointMass, t1: float, *,
                   n_steps: int = 200, n_nodes: int = 801,
                   half_width: float = 8.0) -> DensityGrid:
    """Forward-evolve a point mass to time t1 at default resolutions.

    The start and its grid are _point_source's, so the model needs a family;
    a density on its own grid evolves with fokker_planck_forward. A model
    whose family has a log-space form (GBM) runs on a log-price grid and the
    result is mapped back, so the returned grid is log-uniform in that case.
    Only the latest slice is kept, so memory is O(n_nodes) whatever n_steps
    is; each slice is checked as the march makes it.
    """
    if not isinstance(initial, PointMass):
        raise TypeError(f"initial must be a PointMass, got {type(initial).__name__}; "
                        "evolve a density on its own grid with fokker_planck_forward")
    n_steps = _int_at_least("n_steps", n_steps, 1)
    _require_finite("t1", t1)
    t0 = float(initial.t)
    if not t1 > t0:
        raise ValueError("t1 must exceed the initial density's time")
    horizon = t1 - t0
    tg = TimeGrid(t0=t0, dt=horizon / n_steps, n_steps=n_steps)

    work_model, _, start = _point_source(model, initial.center, t0, horizon,
                                         n_nodes, half_width)
    _require_vanishing_edges(start.p_values, "a point-mass start is one cell wide "
                             f"whatever the domain: raise n_nodes (now {n_nodes})")
    for last in _forward_march(work_model, start, tg):
        pass
    final = DensityGrid(s_values=start.s_values, p_values=last, t=tg.time(n_steps))
    try:
        return final if work_model is model else change_of_variable(final, np.exp, np.exp)
    except ValueError as exc:
        raise ValueError(f"the {n_nodes}-node price grid cannot hold the density that "
                         f"the log-space march evolved ({exc}); raise n_nodes") from None


# ---------------------------------------------------------------------------
# Backward solver


@dataclass(frozen=True)
class GridFunction:
    """Function of the initial state, tabulated on a grid (linear interp)."""

    s_values: np.ndarray
    values: np.ndarray

    def __call__(self, s):
        return np.interp(s, self.s_values, self.values)


def kolmogorov_backward(model: ModelSpec, terminal, s_values, t0: float,
                        t1: float, *, n_steps: int = 200) -> GridFunction:
    """Conditional expectation u(t0, S0) = E[terminal(S_t1) | S_t0 = S0].

    Marches du/dtau = mu du/dS + sigma^2/2 d2u/dS2 from the terminal data
    back to t0 on the given grid. Edge rows use one-sided first derivatives
    from zero-curvature extrapolation, so constants and linear functions
    pass through to rounding.
    """
    if model.dim != 1:
        raise ValueError("backward solver handles one-dimensional models")
    _require_finite("t0", t0)
    _require_finite("t1", t1)
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    n_steps = _int_at_least("n_steps", n_steps, 1)
    s = np.asarray(s_values, dtype=float)
    if s.ndim != 1 or s.size < 3 or not np.all(np.diff(s) > 0):
        raise ValueError("s_values must be a strictly increasing grid of >= 3 nodes")
    h = _require_uniform(s)
    u = np.asarray(terminal(s) if callable(terminal) else terminal, dtype=float)
    if u.shape != s.shape:
        raise ValueError("terminal values must match the grid")
    if not np.all(np.isfinite(u)):
        raise ValueError("terminal values must be finite")

    dt = (t1 - t0) / n_steps
    tv0 = float(np.abs(np.diff(u)).sum())

    def stencil(tau, mu, d):
        lower, diag, upper = np.zeros((3, s.size))
        # interior: central first and second differences
        upper[1:-1] = mu[1:-1] / (2 * h) + d[1:-1] / (h * h)
        lower[1:-1] = -mu[1:-1] / (2 * h) + d[1:-1] / (h * h)
        diag[1:-1] = -2 * d[1:-1] / (h * h)
        # edges: zero curvature, one-sided slope
        diag[0], upper[0] = -mu[0] / h, mu[0] / h
        diag[-1], lower[-1] = mu[-1] / h, -mu[-1] / h
        return _ThetaSystem(lower, diag, upper, dt)

    operator = _Reused(stencil, lambda t: (model.mu1(t, s), 0.5 * model.sigma1(t, s) ** 2),
                       _fixed_maps(model))
    for m in range(n_steps):
        u = operator(t1 - (m + 0.5) * dt).step(u, m)
        if not np.isfinite(u).all():
            raise NumericalError(f"backward solve produced non-finite values at step {m + 1}")
        tv = float(np.abs(np.diff(u)).sum())
        scale = float(np.abs(u).max())
        if tv > 10.0 * tv0 and tv > 1e-9 * max(1.0, scale):
            # central differences keep an M-matrix only while |mu| h / sigma^2 <= 1
            tau = t1 - (m + 0.5) * dt
            peclet = float(np.max(np.abs(model.mu1(tau, s)) * h / model.sigma1(tau, s) ** 2))
            raise NumericalError(
                f"total variation grew {tv / max(tv0, 1e-300):.3g}x at step {m + 1}: " + (
                    f"the cell Peclet number |mu| h / sigma^2 is {peclet:.4g}, over 1; add grid "
                    f"nodes (now {s.size})" if peclet > 1 else f"retry with dt <= {dt / 4:.6g}"))
    return GridFunction(s_values=s, values=u)
