"""Lattice propagation of transition densities via short-time kernels.

One Euler step has a Gaussian transition law; iterating its quadrature on
a price grid yields finite-horizon transition densities, and discounting
yields present-value Green's functions. A kernel row keeps only the
targets within +-8 std of its drifted center, so kernel_matrix computes
just those entries and stores them as a scipy.sparse CSR array (imported
on first use), and each lattice step is one sparse product through
density.quadrature_apply. Kernel rows are normalized on the working grid,
so each propagation step conserves mass exactly; the mass removed by
window truncation is tracked as boundary leak. A kernel matrix is rebuilt
only when mu or sigma on the grid change, by the reuse rule of the density
solvers, density._Reused. The march checks each slice as
it makes it; propagate, which returns one slice, keeps only the latest, so
its memory is O(n) in the grid size n and does not grow with the step count.

A model whose family has a log-space form (GBM) propagates on a log-price
lattice where the kernel is translation invariant; results are reported on
the mapped price lattice with quadrature kept in the native coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import noise
from .errors import NumericalError
from .mc import _CHUNK, MCEstimate, _check_finite_step, _estimate, _int_at_least, _step_count
from .density import (DensityGrid, TransitionMatrix, quadrature_apply, trapezoid_weights,
                      _check_densities, _fixed_maps, _point_source,
                      _require_vanishing_edges, _Reused)
from .models import ModelSpec, model_hash, risk_neutralize  # benchmark tracer counts model_hash
from .portfolio import DiscountCurve, _require_finite, _require_grid, _require_positive

_WINDOW_STD = 8.0   # kernel row support: +- this many std around the drifted center
_LEAK_LIMIT = 0.01  # cumulative truncated mass that aborts propagation


@dataclass(frozen=True)
class ShortTimeKernel:
    """One-step transition law: Gaussian around the drifted departure point.

    weight(t, s_from, s_to) is the density of S_{m+1} at s_to given
    S_m = s_from, with drift and volatility frozen at the departure point;
    a volatility of 0 there is a ValueError, as kernel_matrix's, since the
    step is then a deterministic shift with no density.
    """

    model: ModelSpec
    t: float
    dt: float

    def __post_init__(self):
        if self.model.dim != 1:
            raise ValueError("kernels are one-dimensional")
        _require_positive("dt", self.dt)

    def mean(self, t: float, s_from) -> np.ndarray:
        s = np.asarray(s_from, dtype=float)
        return s + self.model.mu1(t, s) * self.dt

    def std(self, t: float, s_from) -> np.ndarray:
        s = np.asarray(s_from, dtype=float)
        return self.model.sigma1(t, s) * math.sqrt(self.dt)

    def weight(self, t: float, s_from, s_to) -> np.ndarray:
        """Transition density per unit price; broadcasts s_from against s_to."""
        s_from = np.asarray(s_from, dtype=float)
        s_to = np.asarray(s_to, dtype=float)
        sig = self.model.sigma1(t, s_from)
        if np.any(sig == 0):
            where = np.asarray(s_from)[np.asarray(sig == 0)]
            raise ValueError(
                f"volatility vanishes at S={np.atleast_1d(where)[0]!r}: "
                "transition is a deterministic shift")
        var = sig ** 2 * self.dt
        mean = s_from + self.model.mu1(t, s_from) * self.dt
        return np.exp(-0.5 * (s_to - mean) ** 2 / var) / np.sqrt(2 * math.pi * var)


def one_step_kernel(model: ModelSpec, t: float, dt: float) -> ShortTimeKernel:
    """The Euler transition law of the model over one step of length dt."""
    return ShortTimeKernel(model=model, t=float(t), dt=float(dt))


def kernel_matrix(kernel: ShortTimeKernel, t: float, source_values) -> TransitionMatrix:
    """Discretize the kernel from a grid onto itself: rows windowed, then row-normalized.

    Each row keeps only the nodes with |z| <= 8, z the distance from the
    row's drifted center in std, and only those entries are computed and
    stored, as a scipy.sparse CSR array. A row's candidates are the nodes
    between center -+ 8 std, found by binary search and widened by one node
    per side, so the |z| test alone decides the window. The trapezoid mass
    of each row before normalization is recorded in raw_row_mass for leak
    accounting. The grid must be strictly increasing, of >= 2 nodes.
    """
    from scipy import sparse

    src = _require_grid("source_values", source_values, 2)
    mean = kernel.mean(t, src)
    std = kernel.std(t, src)
    if np.any(std == 0):
        bad = float(src[np.argwhere(std == 0)[0][0]])
        raise ValueError(
            f"volatility vanishes at S={bad!r}: transition is a deterministic "
            "shift")
    w = trapezoid_weights(src)
    # candidates: the nodes between mean -+ 8 std, one more node per side
    reach = _WINDOW_STD * np.abs(std)
    lo = np.maximum(np.searchsorted(src, mean - reach) - 1, 0)
    hi = np.minimum(np.searchsorted(src, mean + reach, side="right") + 1,
                    src.size)
    width = hi - lo
    row = np.repeat(np.arange(src.size), width)
    col = np.arange(row.size) - np.repeat(np.cumsum(width) - width - lo, width)
    z = (src[col] - mean[row]) / std[row]
    keep = np.abs(z) <= _WINDOW_STD
    row, col, z = row[keep], col[keep], z[keep]
    data = np.exp(-0.5 * z * z) / (np.sqrt(2 * math.pi) * std[row])
    indptr = np.zeros(src.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=src.size), out=indptr[1:])
    # row masses by pairwise summation, as accurate as the dense product
    raw = np.zeros(src.size)
    filled = indptr[:-1] < indptr[1:]
    raw[filled] = np.add.reduceat(data * w[col], indptr[:-1][filled])
    if np.any(raw <= 0):
        bad = float(src[np.argwhere(raw <= 0)[0][0]])
        raise NumericalError(
            f"kernel row at S={bad!r} has no mass on the grid; "
            "the grid does not cover the one-step transition")
    data /= raw[row]
    index = np.int32 if max(data.size, src.size) < 2 ** 31 else np.int64
    matrix = sparse.csr_array((data, col.astype(index), indptr.astype(index)),
                              shape=(src.size, src.size))
    return TransitionMatrix(t_from=t, t_to=t + kernel.dt, source_values=src,
                            target_values=src, matrix=matrix, raw_row_mass=raw)


def _propagate_sequence(kernel: ShortTimeKernel, s: np.ndarray, t0: float,
                        p: np.ndarray, n_steps: int):
    """Yield the n_steps lattice steps from p, the density on grid s at time
    t0, each slice density-checked as it is made; aborts when the cumulative
    mass truncated at the grid edges exceeds 1%, and refuses a cell wider than
    the kernel: the density-weighted raw row mass then exceeds 1 by over 1e-3."""
    _require_vanishing_edges(p)
    w = trapezoid_weights(s)
    mass0 = float(np.sum(w * p))
    leak = 0.0

    def build(t_m, *maps):  # kernel_matrix evaluates the maps itself
        tm = kernel_matrix(kernel, t_m, s)
        return tm.matrix, w * (1.0 - tm.raw_row_mass), w * np.maximum(tm.raw_row_mass - 1, 0)

    operator = _Reused(build, lambda t: (kernel.model.mu1(t, s), kernel.model.sigma1(t, s)),
                       _fixed_maps(kernel.model))
    for m in range(n_steps):
        matrix, leak_weights, excess_weights = operator(t0 + m * kernel.dt)
        excess = float(excess_weights @ p) / mass0
        if excess > 1e-3:
            raise ValueError(f"the grid cell is wider than the one-step kernel ({excess:.3g} "
                             f"excess row mass at step {m + 1}): add nodes or lengthen dt")
        leak += float(leak_weights @ p) / mass0
        if leak > _LEAK_LIMIT:
            raise NumericalError(
                f"boundary leak reached {leak:.3%} of the mass by step {m + 1}; "
                "the grid is too narrow for this horizon")
        p = quadrature_apply(w, p, matrix)
        _check_densities(s, p, w)
        yield p


def propagate(kernel: ShortTimeKernel, initial: DensityGrid,
              n_steps: int) -> DensityGrid:
    """Apply the kernel quadrature n_steps times to a grid density.

    n_steps = 0 returns the initial density unchanged. Aborts when the
    cumulative mass truncated at the grid edges exceeds 1%. Only the latest
    slice is kept, so memory is O(n) whatever n_steps is; each slice is
    checked as it is made.
    """
    n_steps = _int_at_least("n_steps", n_steps, 0)
    if n_steps == 0:
        return initial
    for last in _propagate_sequence(kernel, initial.s_values, initial.t,
                                    initial.p_values, n_steps):
        pass
    # t_{n-1} + dt, as the step loop counts time, not t0 + n*dt
    t_last = initial.t + (n_steps - 1) * kernel.dt + kernel.dt
    return DensityGrid(s_values=initial.s_values, p_values=last, t=t_last)


# ---------------------------------------------------------------------------
# Green's functions


@dataclass(frozen=True)
class GreensFunction:
    """Discounted transition density lattice from a point source.

    transition[m] is the unit-mass transition density at times[m] in the
    native propagation coordinate (log-price for proportional models);
    price_values maps lattice nodes to prices, and values() applies the
    per-unit-price Jacobian and the discount factors. Quadrature against
    payoffs stays in native coordinates, where mass is exact.
    """

    times: np.ndarray
    native_values: np.ndarray
    price_values: np.ndarray
    transition: np.ndarray
    discounts: np.ndarray
    log_coordinates: bool = False

    def values(self) -> np.ndarray:
        """Discounted density per unit price on the price lattice, per time."""
        jac = self.price_values if self.log_coordinates else 1.0
        return self.discounts[:, None] * self.transition / jac

    def total_mass(self, index: int = -1) -> float:
        """Discounted lattice mass at the indexed time: the integral of payoff 1."""
        return self.integrate(np.ones_like, index)

    def integrate(self, payoff, index: int = -1) -> float:
        """Discounted expectation of payoff(S) at the indexed lattice time."""
        w = trapezoid_weights(self.native_values)
        vals = np.asarray(payoff(self.price_values), dtype=float)
        return float(self.discounts[index]
                     * np.sum(w * self.transition[index] * vals))


def greens_function(model: ModelSpec, curve: DiscountCurve, t0: float,
                    S0: float, t: float, dt: float, *, n_nodes: int = 801,
                    half_width: float = 8.0) -> GreensFunction:
    """Propagate a regularized point source and discount each time slice.

    The model is risk-neutralized on the curve it is discounted with
    (models.risk_neutralize). n_nodes must be an integer >= 5 and half_width
    finite and positive. Each slice is checked as it is made and stored in transition.
    """
    model = risk_neutralize(model, curve)
    _require_finite("t0", t0)
    _require_finite("S0", S0)
    _require_finite("t", t)
    if not t > t0:
        raise ValueError("t must exceed t0")
    n_steps = _step_count(t - t0, dt)

    work_model, x0, start = _point_source(model, S0, t0, t - t0, n_nodes, half_width)
    log_coords = work_model is not model
    grid = start.s_values
    kernel = one_step_kernel(work_model, t0, dt)
    cell, std = grid[1] - grid[0], float(kernel.std(t0, x0))
    if cell > std:  # a coarser lattice smears the kernel into a wrong law
        raise ValueError(f"grid cell {cell:.4g} is wider than the one-step kernel's std "
                         f"{std:.4g}: raise n_nodes (now {n_nodes}) or lengthen dt (now {dt!r})")
    # slice 0 stores the regularized source; the first transition is taken
    # as the exact normalized kernel row so the source width never smears
    # the later slices
    row = np.asarray(kernel.weight(t0, x0, grid), dtype=float)
    w = trapezoid_weights(grid)
    row_mass = float(np.sum(w * row))
    if row_mass <= 0:
        raise NumericalError("grid does not cover the one-step transition")
    transition = np.empty((n_steps + 1, grid.size))
    transition[0] = start.p_values
    transition[1] = row / row_mass
    _check_densities(grid, transition[1], w)
    if n_steps > 1:
        for m, p in enumerate(_propagate_sequence(kernel, grid, t0 + dt, transition[1],
                                                  n_steps - 1), 2):
            transition[m] = p

    times = t0 + dt * np.arange(n_steps + 1)
    discounts = np.asarray([curve.discount(t0, tm) for tm in times])
    price_values = np.exp(grid) if log_coords else grid
    return GreensFunction(times=times,
                          native_values=grid, price_values=price_values,
                          transition=transition, discounts=discounts,
                          log_coordinates=log_coords)


# ---------------------------------------------------------------------------
# Path-measure Monte Carlo (independent of the mc-engine path code)


def pi_expectation(model: ModelSpec, f, t0: float, S0: float, T: float,
                   dt: float, n_paths: int, seed) -> MCEstimate:
    """Estimate E f(S_T) by sampling the one-step kernel law repeatedly.

    Uses its own noise substream, so estimates are independent of the
    mc-engine path simulator while following the same discrete law.
    f is called once per chunk of paths, on its 1-D float array of terminal
    values, and returns one value per path (or one for them all) as floats;
    a value that is not finite is a NumericalError.
    """
    seed = noise.validate_seed(seed)
    _require_finite("t0", t0)
    _require_finite("S0", S0)
    _require_finite("T", T)
    if not T > t0:
        raise ValueError("T must exceed t0")
    n_paths = _int_at_least("n_paths", n_paths, 1)
    n_steps = _step_count(T - t0, dt)
    kernel = one_step_kernel(model, t0, dt)

    values = np.empty(n_paths)
    for lo in range(0, n_paths, _CHUNK):
        hi = min(lo + _CHUNK, n_paths)
        s = np.full(hi - lo, float(S0))
        for m in range(n_steps):
            t_m = t0 + m * dt
            z = noise.normal_block(seed, noise.KERNEL, n_steps, m, lo, hi, 1)[:, 0]
            s = kernel.mean(t_m, s) + kernel.std(t_m, s) * z
            _check_finite_step(s, m + 1, lo)
        values[lo:hi] = np.asarray(f(s), dtype=float)
    return _estimate(values, "functional", n_paths, method="pathintegral")
