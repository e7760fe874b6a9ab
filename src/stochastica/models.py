"""Model dynamics: drift/volatility maps, model families and correlated noise.

A ModelSpec fixes the discrete-time dynamics

    S_{m+1} = S_m + mu(t_m, S_m) dt + vol(t_m, S_m) sqrt(dt) xi_m

with xi_m a vector of independent standard Gaussians. Drift maps take
arrays of shape (..., dim) and return the same shape; vol maps return
(..., dim, noise_dim). Built-in maps are pure functions of (t, S).

A model's family (BM, GBM, Vasicek or None) is the closed-form law its
maps follow; the routes ask it, never the config, for their shortcuts.

Correlated multi-asset noise is handled by diagonalizing the correlation
matrix and scaling eigenvectors into a volatility matrix Z with
(Z Z^T)_{ab} = z_a z_b C_{ab}.

model_hash imports hashlib on first use, not at import.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .portfolio import (DiscountCurve, _require_finite, _require_grid, _require_nonnegative,
                        _require_positive)


# ---------------------------------------------------------------------------
# Model families


class Family:
    """The closed-form law of a model's dynamics. Each method answers one
    capability question for the routes; None means no such shortcut.

    An overridden drift, a tabulated or correlated model and a hand-built
    ModelSpec have family None and take no shortcut at all.
    """

    def moments(self, S0: float, T: float) -> tuple[float, float] | None:
        """Exact terminal (mean, variance) from S0 after T."""
        return None

    def spread(self, S0: float, T: float) -> tuple[float, float] | None:
        """(terminal mean, terminal std) that sizes default grid domains; by
        default from the exact moments."""
        moments = self.moments(S0, T)
        return None if moments is None else (moments[0], math.sqrt(moments[1]))

    def density(self, S0: float, t: float):
        """The terminal density from S0 at t (a PointMass at t <= 0)."""
        return None

    def log_space(self) -> ModelSpec | None:
        """A model of ln S with a family of its own, run in place of this one."""
        return None

    def time_homogeneous(self) -> bool:
        """Whether the maps are the same at every t, so that a march may
        evaluate them once. Opt-in: a wrong True freezes them at their first t."""
        return False


@dataclass(frozen=True)
class BM(Family):
    """dS = mu dt + sigma dW: Gaussian, mean S0 + mu t, variance sigma^2 t."""

    mu: float
    sigma: float

    def moments(self, S0, T):
        return S0 + self.mu * T, self.sigma * self.sigma * T

    def spread(self, S0, T):
        # sigma sqrt(T), not the root of the variance: that can differ in the last bit
        return S0 + self.mu * T, self.sigma * math.sqrt(T)

    def density(self, S0, t):
        from .density import density_bm

        return density_bm(t, S0, self.mu, self.sigma)

    def time_homogeneous(self):
        return True


@dataclass(frozen=True)
class GBM(Family):
    """dS = mu S dt + sigma S dW: lognormal. mu is None for the drift r(t) of
    a non-flat curve, which keeps the exact sampler but no mu-dependent form."""

    mu: float | None
    sigma: float

    def moments(self, S0, T):
        if self.mu is None:
            return None
        return (S0 * math.exp(self.mu * T),
                S0 * S0 * math.exp(2 * self.mu * T) * math.expm1(self.sigma * self.sigma * T))

    def density(self, S0, t):
        from .density import density_gbm

        return None if self.mu is None else density_gbm(t, S0, self.mu, self.sigma)

    def log_space(self):
        if self.mu is None:
            raise ValueError("log-space evolution needs a flat curve; under a non-flat "
                             "curve the log drift r(t) - sigma^2/2 is time-dependent")
        return make_bm(self.mu - 0.5 * self.sigma ** 2, self.sigma)

    def time_homogeneous(self):
        return self.mu is not None


@dataclass(frozen=True)
class Vasicek(Family):
    """dS = a (b - S) dt + sigma dW: Gaussian, mean relaxing from S0 to b."""

    a: float
    b: float
    sigma: float

    def moments(self, S0, T):
        decay = math.exp(-self.a * T)
        return (S0 * decay + self.b * (1.0 - decay),
                self.sigma * self.sigma * (-math.expm1(-2.0 * self.a * T)) / (2.0 * self.a))

    def density(self, S0, t):
        from .density import density_vasicek

        return density_vasicek(t, S0, self.a, self.b, self.sigma)

    def time_homogeneous(self):
        return True


@dataclass(frozen=True)
class ModelSpec:
    """Drift and volatility maps defining the simulated dynamics.

    ``family`` is the closed-form law the maps follow, or None. ``config``
    is the JSON-style description hashed into output metadata.
    """

    dim: int
    noise_dim: int
    drift: Callable[[float, np.ndarray], np.ndarray]
    vol: Callable[[float, np.ndarray], np.ndarray]
    family: Family | None = None
    config: dict = field(default_factory=dict)
    risk_neutral: bool = False

    def __post_init__(self):
        if int(self.dim) < 1 or int(self.noise_dim) < 1:
            raise ValueError("dim and noise_dim must be positive")

    # Scalar-grid conveniences for the 1-D solvers -------------------------

    def mu1(self, t: float, s: np.ndarray) -> np.ndarray:
        """Drift on an arbitrary-shaped array of scalar states (dim == 1)."""
        if self.dim != 1:
            raise ValueError("mu1 requires a one-dimensional model")
        s = np.asarray(s, dtype=float)
        return self.drift(t, s[..., None])[..., 0]

    def sigma1(self, t: float, s: np.ndarray) -> np.ndarray:
        """Volatility on an arbitrary-shaped array of scalar states (dim == 1)."""
        if self.dim != 1:
            raise ValueError("sigma1 requires a one-dimensional model")
        s = np.asarray(s, dtype=float)
        return self.vol(t, s[..., None])[..., 0, 0]


def model_hash(model: "ModelSpec | dict") -> str:
    """SHA-256 of the canonical JSON model description."""
    import hashlib  # loaded on first use, not at import
    config = model.config if isinstance(model, ModelSpec) else model
    if not config:
        config = {"type": "custom"}
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def make_bm(mu: float, sigma: float) -> ModelSpec:
    """Arithmetic Brownian motion: constant drift and volatility."""
    mu = _require_finite("mu", mu)
    sigma = _require_nonnegative("sigma", sigma)

    def drift(t, S):
        return np.full_like(S, mu)

    def vol(t, S):
        return np.full(S.shape + (1,), sigma)

    return ModelSpec(dim=1, noise_dim=1, drift=drift, vol=vol, family=BM(mu, sigma),
                     config={"type": "bm", "params": {"mu": mu, "sigma": sigma}})


def make_gbm(mu: float, sigma: float) -> ModelSpec:
    """Geometric Brownian motion: drift mu*S, volatility sigma*S."""
    mu = _require_finite("mu", mu)
    sigma = _require_nonnegative("sigma", sigma)

    def drift(t, S):
        return mu * S

    def vol(t, S):
        return sigma * S[..., None]

    return ModelSpec(dim=1, noise_dim=1, drift=drift, vol=vol, family=GBM(mu, sigma),
                     config={"type": "gbm", "params": {"mu": mu, "sigma": sigma}})


def make_vasicek(a: float, b: float, sigma: float) -> ModelSpec:
    """Mean-reverting rate model: drift a*(b - S), constant volatility."""
    a = _require_positive("mean-reversion speed a", a)
    b = _require_finite("b", b)
    sigma = _require_nonnegative("sigma", sigma)

    def drift(t, S):
        return a * (b - S)

    def vol(t, S):
        return np.full(S.shape + (1,), sigma)

    return ModelSpec(dim=1, noise_dim=1, drift=drift, vol=vol, family=Vasicek(a, b, sigma),
                     config={"type": "vasicek", "params": {"a": a, "b": b, "sigma": sigma}})


def make_custom_grid(s_values, drift_values, vol_values) -> ModelSpec:
    """1-D model with drift/vol tabulated on a price grid (linear interpolation)."""
    s = _require_grid("s_values", s_values, 2)
    dv = np.asarray(drift_values, dtype=float)
    vv = np.asarray(vol_values, dtype=float)
    if dv.shape != s.shape or vv.shape != s.shape:
        raise ValueError("drift_values and vol_values must match s_values in shape")
    if not (np.all(np.isfinite(dv)) and np.all(np.isfinite(vv))):
        raise ValueError("tabulated drift/vol must be finite")
    if np.any(vv < 0):
        raise ValueError("tabulated vol must be >= 0")

    def drift(t, S):
        return np.interp(S, s, dv)

    def vol(t, S):
        return np.interp(S, s, vv)[..., None]

    config = {"type": "custom-grid",
              "params": {"s": s.tolist(), "drift": dv.tolist(), "vol": vv.tolist()}}
    return ModelSpec(dim=1, noise_dim=1, drift=drift, vol=vol, config=config)


# ---------------------------------------------------------------------------
# Correlated noise


@dataclass(frozen=True)
class CovarianceSpec:
    """A validated symmetric noise-correlation matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        c = np.array(self.matrix, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("covariance must be a square matrix")
        if not np.all(np.isfinite(c)):
            raise ValueError("covariance entries must be finite")
        scale = max(1.0, float(np.abs(c).max()))
        if float(np.abs(c - c.T).max()) > 1e-12 * scale:
            raise ValueError("covariance must be symmetric to 1e-12")
        c = 0.5 * (c + c.T)
        c.setflags(write=False)
        object.__setattr__(self, "matrix", c)


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factors of a covariance: descending eigenvalues, orthonormal columns.

    ``rank`` counts the strictly positive eigenvalues after near-zero
    clamping; downstream noise construction only uses that many columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int


def diagonalize_covariance(cov) -> EigenDecomposition:
    """Eigendecompose a covariance, clamping near-zero eigenvalues to 0.

    Eigenvalues are returned sorted descending. A negative eigenvalue
    beyond -1e-10 * max|lambda| means the input is not a covariance and
    raises.
    """
    spec = cov if isinstance(cov, CovarianceSpec) else CovarianceSpec(np.asarray(cov))
    lam, vec = np.linalg.eigh(spec.matrix)
    lam = lam[::-1].copy()
    vec = vec[:, ::-1].copy()
    scale = max(float(np.abs(lam).max()), 1e-300)
    if lam.min() < -1e-10 * scale:
        raise ValueError(
            f"matrix is not positive semidefinite: eigenvalue {lam.min()!r}")
    lam[np.abs(lam) <= 1e-12 * scale] = 0.0
    lam[lam < 0] = 0.0
    for arr in (lam, vec):
        arr.setflags(write=False)
    return EigenDecomposition(eigenvalues=lam, eigenvectors=vec,
                              rank=int(np.count_nonzero(lam > 0)))


def volatility_matrix(z, eig: EigenDecomposition) -> np.ndarray:
    """Scale eigenvectors into the noise matrix Z with (ZZ^T)_ab = z_a z_b C_ab.

    Z_{ak} = z_a * sqrt(lambda_k) * v_a^{(k)}, keeping only the `rank`
    strictly positive modes, so rank-deficient correlation simply yields
    fewer noise components.
    """
    z = np.asarray(z, dtype=float)
    n = eig.eigenvectors.shape[0]
    if z.shape != (n,):
        raise ValueError(f"z must have length {n}")
    k = eig.rank
    return z[:, None] * eig.eigenvectors[:, :k] * np.sqrt(eig.eigenvalues[:k])[None, :]


def _correlated(mus, sigmas, correlation, geometric: bool, type_name: str) -> ModelSpec:
    mu = np.asarray(mus, dtype=float)
    sig = np.asarray(sigmas, dtype=float)
    if mu.ndim != 1 or mu.shape != sig.shape:
        raise ValueError("mus and sigmas must be equal-length vectors")
    for name, values in (("mus", mu), ("sigmas", sig)):
        for i, v in enumerate(values):
            _require_finite(f"{name}[{i}]", v)
    if np.any(sig < 0):
        raise ValueError("sigmas must be >= 0")
    eig = diagonalize_covariance(correlation)
    n = mu.size
    if eig.eigenvectors.shape[0] != n:
        raise ValueError("correlation size must match the number of assets")
    Z = volatility_matrix(sig, eig)
    k = max(Z.shape[1], 1)
    if Z.shape[1] == 0:
        Z = np.zeros((n, 1))

    if geometric:
        def drift(t, S):
            return mu * S

        def vol(t, S):
            return S[..., None] * Z
    else:
        def drift(t, S):
            return np.broadcast_to(mu, S.shape).copy()

        def vol(t, S):
            return np.broadcast_to(Z, S.shape + (k,)).copy()

    config = {"type": type_name,
              "params": {"mu": mu.tolist(), "sigma": sig.tolist()},
              "correlation": np.asarray(correlation, dtype=float).tolist()}
    return ModelSpec(dim=n, noise_dim=k, drift=drift, vol=vol, config=config)


def make_correlated_bm(mus, sigmas, correlation) -> ModelSpec:
    """Multi-asset Brownian motion with correlated noise."""
    return _correlated(mus, sigmas, correlation, geometric=False, type_name="bm")


def make_correlated_gbm(mus, sigmas, correlation) -> ModelSpec:
    """Multi-asset geometric Brownian motion with correlated noise."""
    return _correlated(mus, sigmas, correlation, geometric=True, type_name="gbm")


# ---------------------------------------------------------------------------
# Risk-neutral drift


def risk_neutralize(model: ModelSpec, curve: DiscountCurve,
                    override_drift=None) -> ModelSpec:
    """Replace the drift with r(t) * S on curve, keeping the volatility.

    The one rule for the pricing drift: pv_mc and greens_function apply it on
    their own curve. Only a gbm, one-asset or correlated, is price-homogeneous:
    physical or neutralized on any curve, it is neutralized on this one. Else pass
    override_drift, a risk-neutral drift map (t, S) -> array; a drift the caller set
    (an override, a risk_neutral ModelSpec of another type) is kept. A one-asset
    gbm has family GBM(r, sigma) on a flat curve, GBM(None, sigma) otherwise.
    """
    config = dict(model.config)
    if override_drift is not None:
        drift, family = override_drift, None
        config["drift_override"] = True
    elif config.get("drift_override") or (model.risk_neutral and config.get("type") != "gbm"):
        return model
    elif config.get("type") != "gbm":
        # a correlated gbm carries no family, so its serialized type decides
        raise ValueError(
            "only a gbm with its own drift is price-homogeneous; supply "
            "override_drift with an explicit risk-neutral drift")
    else:
        def drift(t, S):
            return curve.rate(t) * S

        params = dict(config.get("params", {}))
        if curve.is_flat:
            params["mu"] = curve.rates[0]
            config.pop("curve", None)  # left by a neutralization on a non-flat curve
        else:
            params.pop("mu", None)
            config["curve"] = {"times": list(curve.times), "rates": list(curve.rates)}
        config["params"] = params
        family = GBM(params.get("mu"), model.family.sigma) \
            if isinstance(model.family, GBM) else None
    config["risk_neutral"] = True
    return ModelSpec(dim=model.dim, noise_dim=model.noise_dim, drift=drift,
                     vol=model.vol, family=family, config=config, risk_neutral=True)
