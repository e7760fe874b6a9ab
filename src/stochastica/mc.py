"""Path simulation and Monte Carlo estimation.

Simulation follows the explicit Euler update

    S_{m+1} = S_m + mu(t_m, S_m) dt + vol(t_m, S_m) sqrt(dt) xi_m

with no higher-order corrections. Noise is addressed positionally per
(seed, grid, step, path, component) through the noise module, so a batch
is a pure function of (model, S0, grid, n_paths, seed): bit-identical
across reruns, chunk sizes and thread counts.

One stepping core, _euler_batch, holds the time loop for simulate_paths,
simulate_terminal, ito_check and the Euler route of pricing.pv_mc; each
caller sees the states through a per-step callback.

Reductions materialize one value per path and sum once with numpy's
pairwise summation; partial sums are never accumulated across spans,
which is what keeps results byte-stable under --threads.

A batch is cut into near-equal path spans, dealt into one share per thread:
the calling thread works the first and up to `threads` - 1 pool workers the
rest, each holding one span's arrays at a time; threads=None (the default)
means the CPUs this process may use. Model drift/vol maps and payoff callables
thus run on the calling and worker threads and must be pure functions.
Spans hold at most _CHUNK = 32,768 paths, so that each Euler array is 256 KB;
the spans of a step share its noise key, which noise derives once.
_run_chunks imports concurrent.futures on first use, not at import.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import noise
from .errors import NumericalError
from .models import ModelSpec, model_hash
from .portfolio import _require_finite, _require_positive

_DEFAULT_MEMORY_LIMIT = 4 << 30  # bytes of path storage allowed in one batch
_CHUNK = 1 << 15                 # most paths in one span of work
# Fewest paths worth a span of their own: on smaller spans a second thread
# loses more to interpreter-lock hand-offs per step than it gains.
_MIN_SPAN = 1 << 14


def _int_at_least(name: str, value, low: int) -> int:
    """value as an int; anything but an integer >= low is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t0 + m*dt for m = 0..n_steps.

    Times are always computed as t0 + m*dt, never by repeated addition,
    so the grid carries no accumulated rounding.
    """

    t0: float
    dt: float
    n_steps: int

    def __post_init__(self):
        object.__setattr__(self, "t0", _require_finite("t0", self.t0))
        object.__setattr__(self, "dt", _require_positive("dt", self.dt))
        object.__setattr__(self, "n_steps", _int_at_least("n_steps", self.n_steps, 1))

    def time(self, m: int) -> float:
        return self.t0 + m * self.dt

    @property
    def t_end(self) -> float:
        return self.t0 + self.n_steps * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class PathBatch:
    """Simulated trajectories: paths[path, step, asset]."""

    grid: TimeGrid
    paths: np.ndarray
    model_hash: str

    def __post_init__(self):
        p = self.paths
        if p.ndim != 3 or p.shape[1] != self.grid.n_steps + 1:
            raise ValueError("paths must have shape (n_paths, n_steps+1, dim)")
        if p.shape[0] >= 1 and not (p[:, 0, :] == p[0, 0, :]).all():
            raise ValueError("all paths must start from the shared initial state")

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def dim(self) -> int:
        return self.paths.shape[2]


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    n_paths: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")


def _check_finite_step(S: np.ndarray, step: int, lo: int) -> None:
    bad = ~np.isfinite(S)
    if bad.any():
        path = lo + int(np.argwhere(bad)[0][0])
        err = NumericalError(
            f"non-finite state at path {path}, step {step}; "
            "reduce dt or check the model's drift/vol maps")
        err.where = (step, path)    # lets _run_chunks report the earliest
        raise err


def _euler_inplace(model: ModelSpec, t: float, S: np.ndarray, xi: np.ndarray,
                   dt: float, sqdt: float) -> np.ndarray:
    """Hot-loop Euler update without per-call validation (S is (batch, dim)):
    (S + mu dt) + (sqrt(dt) vol) xi, in that order, in arrays of its own."""
    step = np.multiply(model.drift(t, S), dt, out=np.empty_like(S))
    step += S
    sig, term = model.vol(t, S), np.empty_like(S)
    if model.noise_dim == 1:
        np.multiply(np.multiply(sig[..., 0], sqdt, out=term), xi, out=term)
    else:
        np.multiply(np.einsum("pnk,pk->pn", sig, xi, out=term), sqdt, out=term)
    step += term
    return step


def _initial_state(model: ModelSpec, S0) -> np.ndarray:
    S0 = np.asarray(S0, dtype=float)
    if S0.ndim == 0:
        S0 = np.full(model.dim, float(S0))
    if S0.shape != (model.dim,):
        raise ValueError(f"S0 must be a scalar or a vector of length {model.dim}")
    if not np.all(np.isfinite(S0)):
        raise ValueError("S0 must be finite")
    return S0


def _resolve_threads(threads) -> int:
    """Worker count: an integer >= 1, or None for the CPUs this process may
    use (its affinity set, else the CPU count, else 1)."""
    if threads is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return _int_at_least("threads", threads, 1)


def _step_count(span: float, dt: float) -> int:
    """Number of steps of length dt in span; span/dt must be a positive integer."""
    steps = span / _require_positive("dt", dt)
    if abs(steps - round(steps)) > 1e-9 * max(1.0, steps) or round(steps) < 1:
        raise ValueError(f"horizon/dt = {steps!r} must be a positive integer")
    return round(steps)


def _spans(n_paths: int, threads: int) -> list[tuple[int, int]]:
    """Near-equal path spans [lo, hi) covering 0..n_paths.

    The count is the smallest multiple of threads that keeps every span
    within _CHUNK paths, lowered so no span falls under _MIN_SPAN paths
    (a tiny batch stays in one span).
    """
    count = threads * -(-n_paths // (threads * _CHUNK))
    count = max(1, min(count, n_paths // _MIN_SPAN))
    bounds = [i * n_paths // count for i in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _run_chunks(n_paths: int, threads: int, work) -> None:
    """Apply work(lo, hi) over the path spans, on up to `threads` threads.

    The spans are dealt round-robin into one share per thread, at most one
    per span: the calling thread works the first share and pool workers the
    rest, so one thread or one span starts no worker. Draws are positional,
    so neither the spans nor the thread count change a value. A NumericalError
    does not stop the other spans: once all have run, the earliest failure by
    (step, path) is raised, so the error, too, is the same for every split.
    """
    from concurrent.futures import ThreadPoolExecutor  # loaded on first use, not at import
    spans = _spans(n_paths, threads)
    shares = min(threads, len(spans))
    failures = []

    def run(share) -> None:
        for span in share:
            try:
                work(*span)
            except NumericalError as err:
                failures.append((getattr(err, "where", (np.inf, span[0])), err))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        helped = pool.map(run, [spans[k::shares] for k in range(1, shares)])
        run(spans[::shares])
        list(helped)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]


def _euler_batch(model: ModelSpec, S0: np.ndarray, grid: TimeGrid, seed: int,
                 n_paths: int, threads: int, visit=None) -> np.ndarray:
    """March n_paths paths from S0 across the grid, in the spans of _run_chunks:
    draw, Euler update and finiteness check per step. Returns the (n_paths,
    dim) final states; visit(lo, hi, m, S), when given, reads the (hi-lo, dim)
    state of paths lo..hi at every step m = 0..n_steps.
    """
    final = np.empty((n_paths, model.dim))
    sqdt = np.sqrt(grid.dt)

    def work(lo: int, hi: int) -> None:
        S = np.broadcast_to(S0, (hi - lo, model.dim)).copy()
        if visit is not None:
            visit(lo, hi, 0, S)
        for m in range(grid.n_steps):
            xi = noise.normal_block(seed, noise.EULER, grid.n_steps, m,
                                    lo, hi, model.noise_dim)
            S = _euler_inplace(model, grid.time(m), S, xi, grid.dt, sqdt)
            _check_finite_step(S, m + 1, lo)
            if visit is not None:
                visit(lo, hi, m + 1, S)
        final[lo:hi] = S

    _run_chunks(n_paths, threads, work)
    return final


def _batch_args(model: ModelSpec, S0, n_paths, seed, threads):
    """The checked (S0, n_paths, seed, threads) of a path batch."""
    seed = noise.validate_seed(seed)
    threads = _resolve_threads(threads)
    n_paths = _int_at_least("n_paths", n_paths, 1)
    return _initial_state(model, S0), n_paths, seed, threads


def simulate_paths(model: ModelSpec, S0, grid: TimeGrid, n_paths: int, seed,
                   *, threads=None) -> PathBatch:
    """Simulate a full batch of Euler paths.

    Deterministic for fixed (model, S0, grid, n_paths, seed); an overflow
    or NaN aborts the whole batch with the offending path and step.
    """
    S0, n_paths, seed, threads = _batch_args(model, S0, n_paths, seed, threads)
    need = n_paths * (grid.n_steps + 1) * model.dim * 8
    if need > _DEFAULT_MEMORY_LIMIT:
        raise ValueError(
            f"batch would need {need} bytes of path storage (> {_DEFAULT_MEMORY_LIMIT}); "
            "reduce n_paths or use simulate_terminal for streaming statistics")
    out = np.empty((n_paths, grid.n_steps + 1, model.dim))

    def visit(lo: int, hi: int, m: int, S: np.ndarray) -> None:
        out[lo:hi, m, :] = S

    _euler_batch(model, S0, grid, seed, n_paths, threads, visit)
    return PathBatch(grid=grid, paths=out, model_hash=model_hash(model))


def simulate_terminal(model: ModelSpec, S0, grid: TimeGrid, n_paths: int, seed,
                      *, checkpoints=(), threads=None):
    """Streaming variant of simulate_paths keeping only selected steps.

    Returns (terminal, saved) where terminal is (n_paths, dim) at the last
    step and saved maps each requested checkpoint step to its (n_paths,
    dim) snapshot. Draw addressing is identical to simulate_paths, so the
    trajectories agree bit for bit.
    """
    S0, n_paths, seed, threads = _batch_args(model, S0, n_paths, seed, threads)
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if checkpoints and (checkpoints[0] < 0 or checkpoints[-1] > grid.n_steps):
        raise ValueError("checkpoints must lie within 0..n_steps")
    saved = {c: np.empty((n_paths, model.dim)) for c in checkpoints}

    def visit(lo: int, hi: int, m: int, S: np.ndarray) -> None:
        if m in saved:
            saved[m][lo:hi] = S

    return _euler_batch(model, S0, grid, seed, n_paths, threads, visit), saved


# ---------------------------------------------------------------------------
# Estimation


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    n = values.size
    mean = float(np.sum(values) / n)
    if n < 2:
        return mean, 0.0
    var = float(np.sum((values - mean) ** 2) / (n - 1))
    return mean, float(np.sqrt(var / n))


def _estimate(values: np.ndarray, what: str, n_paths: int, **metadata) -> MCEstimate:
    """The MCEstimate of n_paths paths' finite values (a payoff may give one for
    all); a value that is not finite is a NumericalError naming what produced it."""
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{what} produced non-finite values")
    mean, se = _mean_and_se(values)
    return MCEstimate(mean=mean, std_error=se, n_paths=n_paths, metadata=metadata)


def expectation(f, batch: PathBatch) -> MCEstimate:
    """Estimate E f over the batch; f maps paths (n,steps+1,dim) -> (n,) values."""
    values = np.asarray(f(batch.paths), dtype=float)
    if values.shape != (batch.n_paths,):
        raise ValueError("functional must return one value per path")
    return _estimate(values, "functional", batch.n_paths)


# ---------------------------------------------------------------------------
# Ito and scaling diagnostics


@dataclass(frozen=True)
class ItoCheckReport:
    empirical_drift: float
    predicted_drift: float
    empirical_vol: float
    predicted_vol: float
    z_drift: float
    z_vol: float
    n_paths: int


def _fd_guard(name: str, supplied: float, estimate: float, scale: float) -> None:
    tol = 1e-6 * max(abs(supplied), abs(estimate)) + 1e-9 * scale
    if abs(supplied - estimate) > tol:
        raise ValueError(
            f"supplied {name} = {supplied!r} disagrees with finite difference "
            f"{estimate!r} beyond 1e-6 relative")


def _validate_derivatives(f, dfdt, grad, hess, t0, S0):
    n = S0.size

    def at(*moves, t=t0) -> float:
        """f of one state: at t and S0 moved by d along axis j for each (j, d)."""
        x = S0.copy()
        for j, d in moves:
            x[j] += d
        return float(np.asarray(f(t, x[None, :]), dtype=float).reshape(()))

    f0 = at()
    scale = max(1.0, abs(f0))
    ht = 6e-6 * max(1.0, abs(t0))
    _fd_guard("df/dt", dfdt, (at(t=t0 + ht) - at(t=t0 - ht)) / (2 * ht), scale)
    for j in range(n):
        h = 6e-6 * max(1.0, abs(S0[j]))
        _fd_guard(f"df/dS[{j}]", grad[j], (at((j, h)) - at((j, -h))) / (2 * h), scale)
    for j in range(n):
        h = 1e-4 * max(1.0, abs(S0[j]))
        est = (at((j, h)) - 2 * f0 + at((j, -h))) / (h * h)
        _fd_guard(f"d2f/dS[{j}]2", hess[j, j], est, scale)
    for j in range(n):
        for l in range(j + 1, n):
            hj = 1e-4 * max(1.0, abs(S0[j]))
            hl = 1e-4 * max(1.0, abs(S0[l]))
            est = (at((j, hj), (l, hl)) - at((j, hj), (l, -hl)) - at((j, -hj), (l, hl))
                   + at((j, -hj), (l, -hl))) / (4 * hj * hl)
            _fd_guard(f"d2f/dS[{j}]dS[{l}]", hess[j, l], est, scale)


def ito_check(model: ModelSpec, f, dfdt: float, dfdS, d2fdS2, S0, dt: float,
              n_paths: int, seed, *, t0: float = 0.0) -> ItoCheckReport:
    """Compare the one-step statistics of X = f(t, S) with the second-order
    chain-rule prediction.

    Predicted drift is df/dt + mu . grad f + 1/2 tr(vol vol^T hess f);
    predicted vol is |vol^T grad f|. The supplied derivatives are checked
    against finite differences at (t0, S0) to 1e-6 relative; z-scores
    compare the sample mean/std of dX against prediction*dt and
    prediction*sqrt(dt). f must accept batched states of shape (n, dim)
    and return (n,) values.
    """
    seed = noise.validate_seed(seed)
    grid = TimeGrid(t0=t0, dt=dt, n_steps=1)
    n_paths = _int_at_least("n_paths", n_paths, 2)
    S0 = _initial_state(model, S0)
    grad = np.atleast_1d(np.asarray(dfdS, dtype=float))
    hess = np.atleast_2d(np.asarray(d2fdS2, dtype=float))
    if grad.shape != (model.dim,) or hess.shape != (model.dim, model.dim):
        raise ValueError("derivative shapes must match the model dimension")
    _validate_derivatives(f, float(dfdt), grad, hess, t0, S0)

    mu = model.drift(t0, S0[None, :])[0]
    sig = model.vol(t0, S0[None, :])[0]
    diffusion = sig @ sig.T
    predicted_drift = float(dfdt + mu @ grad + 0.5 * np.sum(diffusion * hess))
    predicted_vol = float(np.linalg.norm(sig.T @ grad))

    S1 = _euler_batch(model, S0, grid, seed, n_paths, 1)
    dX = np.asarray(f(t0 + dt, S1), dtype=float) - float(f(t0, S0[None, :])[0])
    if dX.shape != (n_paths,):
        raise ValueError("f must return one value per path")

    mean, se_mean = _mean_and_se(dX)
    s = float(np.std(dX, ddof=1))
    centered = dX - mean
    m4 = float(np.mean(centered ** 4))
    se_std = float(np.sqrt(max(m4 - s ** 4, 0.0) / (4 * s ** 2 * n_paths))) if s > 0 else 0.0
    z_drift = (mean - predicted_drift * dt) / se_mean if se_mean > 0 else 0.0
    z_vol = (s - predicted_vol * np.sqrt(dt)) / se_std if se_std > 0 else 0.0
    return ItoCheckReport(
        empirical_drift=mean / dt, predicted_drift=predicted_drift,
        empirical_vol=s / np.sqrt(dt), predicted_vol=predicted_vol,
        z_drift=float(z_drift), z_vol=float(z_vol), n_paths=n_paths)


@dataclass(frozen=True)
class ScalingResolution:
    dt: float
    n_steps: int
    mean: float
    variance: float
    se_mean: float
    se_variance: float
    bias_mean: float | None
    bias_variance: float | None


@dataclass(frozen=True)
class ScalingReport:
    coarse: ScalingResolution
    fine: ScalingResolution
    z_mean: float
    z_variance: float


def scaling_check(model: ModelSpec, S0, T: float, dt: float, refine_factor: int,
                  n_paths: int, seed, *, threads=None) -> ScalingReport:
    """Terminal mean/variance at dt versus dt/refine_factor.

    The two resolutions use independent noise streams; the z-scores test
    whether their terminal moments differ beyond Monte Carlo noise. When
    the model's family has exact terminal moments, the bias against them
    is also reported.
    """
    if model.dim != 1:
        raise ValueError("scaling_check handles one-dimensional models")
    refine_factor = _int_at_least("refine_factor", refine_factor, 2)
    n_paths = _int_at_least("n_paths", n_paths, 2)
    n1 = _step_count(T, dt)

    resolutions = []
    for n_steps in (n1, n1 * refine_factor):
        grid = TimeGrid(t0=0.0, dt=T / n_steps, n_steps=n_steps)
        terminal, _ = simulate_terminal(model, S0, grid, n_paths, seed, threads=threads)
        v = terminal[:, 0]
        mean, se_mean = _mean_and_se(v)
        var = float(np.var(v, ddof=1))
        centered = v - mean
        m4 = float(np.mean(centered ** 4))
        se_var = float(np.sqrt(max(m4 - var ** 2, 0.0) / n_paths))
        exact = None if model.family is None else model.family.moments(
            float(np.asarray(S0).reshape(-1)[0]), T)
        bias_m = bias_v = None
        if exact is not None:
            bias_m, bias_v = mean - exact[0], var - exact[1]
        resolutions.append(ScalingResolution(
            dt=grid.dt, n_steps=n_steps, mean=mean, variance=var,
            se_mean=se_mean, se_variance=se_var,
            bias_mean=bias_m, bias_variance=bias_v))

    coarse, fine = resolutions
    dm = np.hypot(coarse.se_mean, fine.se_mean)
    dv = np.hypot(coarse.se_variance, fine.se_variance)
    z_mean = (coarse.mean - fine.mean) / dm if dm > 0 else 0.0
    z_var = (coarse.variance - fine.variance) / dv if dv > 0 else 0.0
    return ScalingReport(coarse=coarse, fine=fine,
                         z_mean=float(z_mean), z_variance=float(z_var))


# ---------------------------------------------------------------------------
# Export


def fmt17(x: float) -> str:
    """Render a float with 17 significant digits (round-trip safe)."""
    return f"{float(x):.17g}"


def export_paths_csv(batch: PathBatch, fh) -> None:
    """Columnar CSV export: path_id, step, asset, value.

    One %-template covers a path's steps x assets rows; "%.17g" renders
    each value exactly as fmt17 does. Each path is written as it is
    rendered, and tolist() sees a block of at most _CHUNK values (or one
    path), so memory does not grow with the batch.
    """
    n, steps, dim = batch.paths.shape
    k = steps * dim
    template = "".join(f"%d,{m},{a},%.17g\n"
                       for m in range(steps) for a in range(dim))
    args = [0] * (2 * k)
    fh.write("path_id,step,asset,value\n")
    flat = batch.paths.reshape(n, k)
    block = max(1, _CHUNK // k)
    for lo in range(0, n, block):
        for p, values in enumerate(flat[lo:lo + block].tolist(), lo):
            args[0::2] = [p] * k
            args[1::2] = values
            fh.write(template % tuple(args))
