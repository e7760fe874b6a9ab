"""Model specs, covariance diagonalization, volatility matrices."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from stochastica import (
    AnalyticDensity1D,
    CovarianceSpec,
    ModelSpec,
    PointMass,
    diagonalize_covariance,
    evolve_density,
    load_model_config,
    make_bm,
    make_correlated_bm,
    make_correlated_gbm,
    make_custom_grid,
    make_gbm,
    make_vasicek,
    model_hash,
    scaling_check,
    volatility_matrix,
)
from stochastica.cli import _analytic_density
from stochastica.density import trapezoid_weights
from stochastica.models import BM, GBM, Family, Vasicek


# ---------------------------------------------------------------------------
# eigendecomposition (hand oracles first)


def test_identity_covariance():
    eig = diagonalize_covariance(CovarianceSpec(np.eye(3)))
    np.testing.assert_allclose(eig.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)
    v = eig.eigenvectors
    np.testing.assert_allclose(v @ v.T, np.eye(3), atol=1e-12)


def test_rank_one_covariance():
    # hand solve: [[1,1],[1,1]] has eigenpairs 2 -> (1,1)/sqrt2, 0 -> (1,-1)/sqrt2
    eig = diagonalize_covariance(CovarianceSpec(np.array([[1.0, 1.0],
                                                          [1.0, 1.0]])))
    np.testing.assert_allclose(eig.eigenvalues, [2.0, 0.0], atol=1e-12)
    lead = eig.eigenvectors[:, 0]
    np.testing.assert_allclose(np.abs(lead), [np.sqrt(0.5)] * 2, atol=1e-12)
    assert eig.rank == 1


def test_half_correlation_eigenvalues():
    # characteristic polynomial of [[1,.5],[.5,1]]: (1-l)^2 = 1/4
    eig = diagonalize_covariance(CovarianceSpec(np.array([[1.0, 0.5],
                                                          [0.5, 1.0]])))
    np.testing.assert_allclose(eig.eigenvalues, [1.5, 0.5], atol=1e-12)


def test_covariance_validation():
    with pytest.raises(ValueError):
        CovarianceSpec(np.array([[1.0, 0.2], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        diagonalize_covariance(CovarianceSpec(np.array([[1.0, 2.0],
                                                        [2.0, 1.0]])))


def test_reconstruction_and_orthonormality():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4))
    c = a @ a.T
    eig = diagonalize_covariance(CovarianceSpec(c))
    v, lam = eig.eigenvectors, eig.eigenvalues
    np.testing.assert_allclose((v * lam) @ v.T, c, atol=1e-10)
    np.testing.assert_allclose(v.T @ v, np.eye(4), atol=1e-12)
    assert np.all(np.diff(lam) <= 1e-12)


# ---------------------------------------------------------------------------
# volatility matrix


def test_volatility_matrix_scalar_case():
    eig = diagonalize_covariance(CovarianceSpec(np.array([[1.0]])))
    z = volatility_matrix(np.array([0.3]), eig)
    np.testing.assert_allclose(z @ z.T, [[0.09]], atol=1e-14)


def test_volatility_matrix_cross_terms():
    # direct multiplication oracle for z=(0.2,0.3), corr 0.5
    c = np.array([[1.0, 0.5], [0.5, 1.0]])
    eig = diagonalize_covariance(CovarianceSpec(c))
    z = volatility_matrix(np.array([0.2, 0.3]), eig)
    np.testing.assert_allclose(z @ z.T, [[0.04, 0.03], [0.03, 0.09]],
                               atol=1e-12)
    with pytest.raises(ValueError):
        volatility_matrix(np.array([0.2, 0.3, 0.4]), eig)
    # one scale broadcasts over both assets
    with pytest.raises(ValueError, match=r"^z must have length 2$"):
        volatility_matrix(np.array([0.2]), eig)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_full_covariance_reproduced(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n + 1))
    c = a @ a.T
    scale = np.sqrt(np.outer(np.diag(c), np.diag(c)))
    corr = c / np.where(scale == 0, 1.0, scale)
    np.fill_diagonal(corr, 1.0)
    corr = 0.5 * (corr + corr.T)
    vols = rng.uniform(0.05, 0.8, size=n)
    eig = diagonalize_covariance(CovarianceSpec(corr))
    z = volatility_matrix(vols, eig)
    np.testing.assert_allclose(z @ z.T, np.outer(vols, vols) * corr,
                               atol=1e-9)


# ---------------------------------------------------------------------------
# built-in models


def test_bm_maps():
    m = make_bm(0.0, 1.0)
    assert m.drift(0.0, np.array([5.0]))[0] == 0.0
    assert m.vol(0.0, np.array([5.0]))[0, 0] == 1.0
    assert m.dim == 1 and m.noise_dim == 1


def test_gbm_maps():
    m = make_gbm(0.05, 0.2)
    assert m.vol(0.0, np.array([100.0]))[0, 0] == pytest.approx(20.0)
    assert m.drift(0.3, np.array([100.0]))[0] == pytest.approx(5.0)


def test_vasicek_maps():
    m = make_vasicek(1.0, 0.03, 0.01)
    assert m.drift(0.0, np.array([0.03]))[0] == 0.0
    assert m.drift(0.0, np.array([0.05]))[0] == pytest.approx(-0.02)
    assert m.vol(0.0, np.array([0.05]))[0, 0] == 0.01
    with pytest.raises(ValueError):
        make_vasicek(0.0, 0.03, 0.01)
    with pytest.raises(ValueError):
        make_gbm(0.05, -0.2)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("rule, build", [
    ("mu must be finite", lambda v: make_bm(v, 0.3)),
    ("mu must be finite", lambda v: make_gbm(v, 0.2)),
    # a, which must be positive, is refused as density_vasicek refuses it
    ("mean-reversion speed a must be finite and positive",
     lambda v: make_vasicek(v, 0.05, 0.02)),
    ("b must be finite", lambda v: make_vasicek(1.0, v, 0.02)),
    (r"mus\[1\] must be finite",
     lambda v: make_correlated_bm([0.0, v], [0.2, 0.3], [[1, 0], [0, 1]])),
    (r"sigmas\[0\] must be finite",
     lambda v: make_correlated_gbm([0.0, 0.0], [v, 0.3], [[1, 0], [0, 1]])),
], ids=["bm mu", "gbm mu", "vasicek a", "vasicek b", "correlated mus", "correlated sigmas"])
def test_builders_refuse_a_non_finite_parameter_by_name(rule, build, value):
    # these used to build a model whose densities were nan, or whose grid
    # was refused as "degenerate support"; a nan sigma passed sigma < 0
    with pytest.raises(ValueError, match=rf"^{rule}, got "):
        build(value)


def test_maps_are_pure():
    m = make_gbm(0.1, 0.3)
    s = np.array([42.0])
    a = m.drift(1.0, s)
    b = m.drift(1.0, s)
    np.testing.assert_array_equal(a, b)


def test_correlated_model_covariance():
    c = [[1.0, 0.5], [0.5, 1.0]]
    m = make_correlated_gbm([0.05, 0.05], [0.2, 0.3], c)
    assert m.dim == 2
    s = np.array([100.0, 50.0])
    z = m.vol(0.0, s)
    cov = z @ z.T
    expect = np.outer([0.2 * 100, 0.3 * 50], [0.2 * 100, 0.3 * 50]) * np.array(c)
    np.testing.assert_allclose(cov, expect, rtol=1e-10)


def test_custom_grid_model():
    s = np.linspace(1.0, 10.0, 10)
    m = make_custom_grid(s, 0.5 * s, 0.1 * s)
    assert m.drift(0.0, np.array([2.0]))[0] == pytest.approx(1.0)
    assert m.vol(0.0, np.array([4.0]))[0, 0] == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# hashing and config


def test_model_hash_stability():
    a = make_gbm(0.05, 0.2)
    b = make_gbm(0.05, 0.2)
    c = make_gbm(0.05, 0.21)
    assert model_hash(a) == model_hash(b)
    assert model_hash(a) != model_hash(c)
    assert len(model_hash(a)) == 64


def test_load_model_config():
    m = load_model_config({"type": "vasicek",
                           "params": {"a": 1.0, "b": 0.05, "sigma": 0.02}})
    assert m.family == Vasicek(a=1.0, b=0.05, sigma=0.02)
    with pytest.raises(ValueError):
        load_model_config({"params": {}})
    with pytest.raises(ValueError):
        load_model_config({"type": "heston", "params": {}})
    with pytest.raises(ValueError):
        load_model_config({"type": "gbm", "params": {"mu": 0.1}})


# ---------------------------------------------------------------------------
# families


def test_builders_attach_a_family_and_keep_their_config():
    cases = [
        (make_bm(0.1, 0.3), BM(mu=0.1, sigma=0.3),
         {"type": "bm", "params": {"mu": 0.1, "sigma": 0.3}}),
        (make_gbm(0.05, 0.2), GBM(mu=0.05, sigma=0.2),
         {"type": "gbm", "params": {"mu": 0.05, "sigma": 0.2}}),
        (make_vasicek(1.0, 0.05, 0.02), Vasicek(a=1.0, b=0.05, sigma=0.02),
         {"type": "vasicek", "params": {"a": 1.0, "b": 0.05, "sigma": 0.02}}),
    ]
    for model, family, config in cases:
        assert model.family == family
        assert model.config == config
    c = [[1.0, 0.5], [0.5, 1.0]]
    for model in (make_custom_grid([0.0, 1.0], [0.1, 0.2], [0.3, 0.3]),
                  make_correlated_bm([0.1, 0.2], [0.2, 0.3], c),
                  make_correlated_gbm([0.1], [0.2], [[1.0]]),
                  ModelSpec(dim=1, noise_dim=1, drift=lambda t, s: s,
                            vol=lambda t, s: s[..., None])):
        assert model.family is None


def test_gbm_without_mu_has_no_mu_dependent_closed_form():
    family = GBM(mu=None, sigma=0.2)
    assert family.moments(100.0, 1.0) is None
    assert family.density(100.0, 1.0) is None
    with pytest.raises(ValueError, match="non-flat curve"):
        family.log_space()


@dataclass(frozen=True)
class _Ramp(Family):
    """dS = b t dt + sigma dW: Gaussian, mean S0 + b t^2 / 2, variance sigma^2 t."""

    b: float
    sigma: float

    def moments(self, S0, T):
        return S0 + 0.5 * self.b * T * T, self.sigma ** 2 * T

    def density(self, S0, t):
        mean, var = self.moments(S0, t)
        return AnalyticDensity1D(lambda s: norm.pdf(s, mean, math.sqrt(var)), t=t,
                                 mean=mean, variance=var)


def test_a_new_family_defined_in_one_class_unlocks_the_shortcuts():
    b, sigma, S0, T = 0.4, 0.3, 1.0, 1.0
    model = ModelSpec(dim=1, noise_dim=1, drift=lambda t, s: np.full_like(s, b * t),
                      vol=lambda t, s: np.full(s.shape + (1,), sigma),
                      family=_Ramp(b, sigma))
    mean, var = model.family.moments(S0, T)

    report = scaling_check(model, S0, T, 0.1, 2, 20_000, seed=4, threads=1)
    for res in (report.coarse, report.fine):
        assert res.bias_mean == res.mean - mean
        assert res.bias_variance == res.variance - var
    # the Euler drift is taken at left endpoints: bias -b T dt / 2
    assert report.coarse.bias_mean == pytest.approx(-0.02, abs=0.01)
    assert report.fine.bias_mean == pytest.approx(-0.01, abs=0.01)

    analytic = _analytic_density(model, S0, T)
    assert (analytic.mean, analytic.variance) == (mean, var)

    out = evolve_density(model, PointMass(center=S0, t=0.0), T, n_steps=200,
                         n_nodes=801)
    assert out.s_values[0] == pytest.approx(S0 - 8.0 * sigma, rel=1e-12)
    assert out.s_values[-1] == pytest.approx(mean + 8.0 * sigma, rel=1e-12)
    l1 = float(np.sum(trapezoid_weights(out.s_values)
                      * np.abs(out.p_values - analytic(out.s_values))))
    assert l1 < 5e-3
