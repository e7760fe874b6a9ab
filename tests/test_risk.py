"""Minimum-variance index weights and sensitivity-neutral hedging."""

import math
import warnings

import numpy as np
import pytest

from stochastica import (
    BSParams,
    HedgeReport,
    IndexInputs,
    Instrument,
    bs_greeks,
    bs_price,
    delta_hedge,
    hedge_report_doc,
    index_weights,
    neutralize,
    portfolio_variance,
)


# ---------------------------------------------------------------------------
# index weights


def test_harmonic_variance_law():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 11))
        x = rng.uniform(1.0, 500.0, n)
        s = rng.uniform(0.01, 1.0, n)
        out = index_weights(IndexInputs(prices=x, sigmas=s))
        want = 1.0 / np.sum(1.0 / s ** 2)
        assert out.index_variance == pytest.approx(want, rel=1e-12)
        # achieved variance equals the optimum predicted by the law
        assert portfolio_variance(out.weights, x, s) == pytest.approx(
            want, rel=1e-12)


def test_two_asset_example():
    out = index_weights(IndexInputs(prices=[1.0, 1.0], sigmas=[0.1, 0.2]))
    assert out.index_variance == pytest.approx(0.008, rel=1e-12)
    np.testing.assert_allclose(out.weights, [0.8, 0.2], rtol=1e-12)
    assert not out.degenerate


def test_weights_exhaust_unit_budget():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(1, 11))
        x = rng.uniform(1.0, 500.0, n)
        s = rng.uniform(0.01, 1.0, n)
        out = index_weights(IndexInputs(prices=x, sigmas=s))
        assert float(np.dot(out.weights, x)) == pytest.approx(1.0, abs=1e-12)


def test_optimum_beats_random_weightings():
    rng = np.random.default_rng(17)
    x = rng.uniform(1.0, 200.0, 8)
    s = rng.uniform(0.05, 0.8, 8)
    best = index_weights(IndexInputs(prices=x, sigmas=s))
    for _ in range(500):
        # random value shares on the budget simplex
        u = rng.dirichlet(np.ones(8))
        w = u / x
        assert portfolio_variance(w, x, s) >= best.index_variance - 1e-15


def test_riskless_asset_degenerates():
    out = index_weights(IndexInputs(prices=[50.0, 100.0], sigmas=[0.3, 0.0]))
    assert out.degenerate
    assert out.index_variance == 0.0
    np.testing.assert_allclose(out.weights, [0.0, 0.01], rtol=1e-15)
    assert float(np.dot(out.weights, [50.0, 100.0])) == pytest.approx(1.0)


@pytest.mark.parametrize("sigmas, weights", [
    ([1e-200, 0.2], [1.0, 0.0]), ([1e-160, 0.2], [1.0, 0.0]), ([1e-155, 0.2], [1.0, 0.0]),
    ([1e-154, 1e-154], [0.5, 0.5])])
def test_a_volatility_whose_inverse_square_overflows_is_riskless(sigmas, weights):
    # these used to give weights [nan, 0] or [0, 0]: sigma^2 underflows, 1/sigma^2
    # overflows, or the sum of two finite 1/sigma^2 does, and none was sigma == 0
    out = index_weights(IndexInputs(prices=[1.0, 1.0], sigmas=sigmas))
    assert out.degenerate
    assert out.index_variance == 0.0
    assert out.weights.tolist() == weights


@pytest.mark.parametrize("prices, sigmas", [
    ([1e-200, 1.0], [1e-100, 0.2]), ([1e-300, 1.0], [1e-10, 0.2])])
def test_a_weight_whose_price_times_variance_underflows_stays_exact(prices, sigmas):
    # x sigma^2 is 0 or subnormal here: these used to give weights [inf, 2.5e-199]
    # with a divide-by-zero warning, or a budget sum_i w_i x_i of 1.0000111
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = index_weights(IndexInputs(prices=prices, sigmas=sigmas))
    assert not out.degenerate
    inv = 1.0 / np.asarray(sigmas) ** 2
    np.testing.assert_allclose(out.weights * prices, inv / inv.sum(), rtol=1e-15)
    assert float(np.dot(out.weights, prices)) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("prices, sigmas", [
    ([1.0, 5e-324], [1.0, 1.0]), ([1.0, 1e-320], [1.0, 0.0]), ([1.0, 1e-320], [0.2, 1e5])])
def test_a_price_with_no_finite_weight_is_refused_by_name(prices, sigmas):
    with pytest.raises(ValueError, match=r"^prices\[1\] is too small for a finite weight$"):
        index_weights(IndexInputs(prices=prices, sigmas=sigmas))


def test_index_inputs_validation():
    with pytest.raises(ValueError):
        IndexInputs(prices=[1.0, 2.0], sigmas=[0.1])
    with pytest.raises(ValueError):
        IndexInputs(prices=[1.0, -2.0], sigmas=[0.1, 0.1])
    with pytest.raises(ValueError):
        IndexInputs(prices=[1.0, 2.0], sigmas=[0.1, -0.1])
    with pytest.raises(ValueError):
        IndexInputs(prices=[1.0, math.nan], sigmas=[0.1, 0.1])
    with pytest.raises(ValueError):
        portfolio_variance([0.5], [1.0, 2.0], [0.1, 0.1])
    inputs = IndexInputs(prices=[1.0, 2.0], sigmas=[0.1, 0.1])
    with pytest.raises(ValueError):
        inputs.prices[0] = 5.0


# ---------------------------------------------------------------------------
# delta hedge by finite differences


def test_delta_hedge_matches_closed_form():
    p = BSParams(S=100.0, K=100.0, r=0.05, sigma=0.2, t=1.0)

    def value(S):
        return bs_price(BSParams(S=S, K=p.K, r=p.r, sigma=p.sigma, t=p.t))

    got = delta_hedge(value, 100.0)
    assert got == pytest.approx(bs_greeks(p).delta, rel=1e-6)


def test_delta_hedge_warns_on_kink():
    with pytest.warns(RuntimeWarning, match="kink"):
        got = delta_hedge(lambda s: max(s - 100.0, 0.0), 100.0)
    assert got == pytest.approx(0.5, abs=1e-9)


def test_delta_hedge_linear_is_exact():
    assert delta_hedge(lambda s: 3.0 * s - 7.0, 42.0) == pytest.approx(
        3.0, rel=1e-12)


# ---------------------------------------------------------------------------
# sensitivity neutralization


def test_neutralize_opposite_kappas():
    a = Instrument(delta=0.6, kappa=1.0, gamma=0.02)
    b = Instrument(delta=0.4, kappa=-1.0, gamma=0.01)
    rep = neutralize([a, b], targets=("kappa",))
    np.testing.assert_allclose(rep.alphas, [1.0, 1.0], rtol=1e-12)
    assert rep.residual_greeks["kappa"] == pytest.approx(0.0, abs=1e-12)
    assert rep.delta == pytest.approx(1.0, rel=1e-12)


def test_neutralize_kappa_and_gamma():
    rng = np.random.default_rng(3)
    instruments = [Instrument(delta=float(d), kappa=float(k), gamma=float(g))
                   for d, k, g in rng.uniform(0.1, 2.0, (3, 3))]
    rep = neutralize(instruments, targets=("kappa", "gamma"))
    assert abs(rep.residual_greeks["kappa"]) < 1e-10
    assert abs(rep.residual_greeks["gamma"]) < 1e-10
    assert rep.alphas[0] == pytest.approx(1.0, rel=1e-12)
    assert rep.condition_number < 1e6


def test_neutralize_from_real_options():
    # long one call, sized offsets in two others: kappa net of zero
    cells = [(90.0, 0.5), (100.0, 1.0), (110.0, 2.0)]
    instruments = []
    for K, T in cells:
        g = bs_greeks(BSParams(S=100.0, K=K, r=0.05, sigma=0.2, t=T))
        instruments.append(Instrument(delta=g.delta, kappa=g.kappa,
                                      gamma=g.gamma, name=f"K{K:.0f}"))
    rep = neutralize(instruments, targets=("kappa",))
    kappas = [i.kappa for i in instruments]
    assert float(np.dot(kappas, rep.alphas)) == pytest.approx(0.0, abs=1e-10)


def test_neutralize_value_normalization():
    a = Instrument(delta=0.6, kappa=1.0, gamma=0.02)
    b = Instrument(delta=0.4, kappa=-2.0, gamma=0.01)
    rep = neutralize([a, b], targets=("kappa",), normalization="value",
                     values=[10.0, 5.0])
    assert rep.alphas[1] == pytest.approx(0.5 * rep.alphas[0], rel=1e-12)
    assert float(np.dot([10.0, 5.0], rep.alphas)) == pytest.approx(1.0)


def test_neutralize_rank_deficient():
    # proportional sensitivities cannot be zeroed with a unit first leg
    a = Instrument(delta=0.5, kappa=1.0, gamma=0.02)
    b = Instrument(delta=0.5, kappa=1.0, gamma=0.02)
    with pytest.raises(ValueError, match="rank-deficient"):
        neutralize([a, b, a], targets=("kappa", "gamma"))


def test_neutralize_validation():
    a = Instrument(delta=0.5, kappa=1.0, gamma=0.02)
    b = Instrument(delta=0.5, kappa=-1.0, gamma=0.01)
    with pytest.raises(ValueError, match="targets"):
        neutralize([a, b], targets=("theta",))
    with pytest.raises(ValueError, match="duplicate"):
        neutralize([a, b], targets=("kappa", "kappa"))
    with pytest.raises(ValueError, match="at least"):
        neutralize([a], targets=("kappa",))
    with pytest.raises(ValueError, match="normalization"):
        neutralize([a, b], targets=("kappa",), normalization="none")
    with pytest.raises(ValueError, match="values"):
        neutralize([a, b], targets=("kappa",), normalization="value")
    with pytest.raises(ValueError, match="one entry"):
        neutralize([a, b], targets=("kappa",), normalization="value",
                   values=[1.0])


@pytest.mark.parametrize("greek", ["delta", "kappa", "gamma"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_instrument_refuses_a_non_finite_sensitivity_by_name(greek, value):
    # an infinite kappa used to hang neutralize in LAPACK's SVD, and a nan
    # delta was reported as the hedge's delta
    base = dict(delta=0.5, kappa=1.0, gamma=0.01)
    with pytest.raises(ValueError, match=rf"^{greek} must be finite, got "):
        Instrument(**dict(base, **{greek: value}))


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_neutralize_refuses_non_finite_values(value):
    # these used to be blamed on a rank-deficient kappa constraint
    a = Instrument(delta=0.6, kappa=1.0, gamma=0.02)
    b = Instrument(delta=0.4, kappa=-1.0, gamma=0.01)
    with pytest.raises(ValueError, match="^values must be finite$"):
        neutralize([a, b], normalization="value", values=[1.0, value])


def test_hedge_report_doc_roundtrip():
    a = Instrument(delta=0.6, kappa=1.0, gamma=0.02)
    b = Instrument(delta=0.4, kappa=-1.0, gamma=0.01)
    rep = neutralize([a, b], targets=("kappa",))
    doc = hedge_report_doc(rep)
    assert doc["weights"] == [pytest.approx(1.0), pytest.approx(1.0)]
    assert set(doc) == {"weights", "delta", "residual_greeks",
                        "condition_number"}
    assert isinstance(rep, HedgeReport)
