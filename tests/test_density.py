"""Closed-form densities, change of variables, forward/backward solvers."""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from stochastica import (
    DensityGrid,
    DiscountCurve,
    PayoffSpec,
    PointMass,
    TimeGrid,
    TransitionMatrix,
    call_payoff,
    change_of_variable,
    compose_transition,
    density_bm,
    density_gbm,
    density_vasicek,
    evolve_density,
    fokker_planck_forward,
    greens_function,
    kolmogorov_backward,
    make_bm,
    make_correlated_bm,
    make_gbm,
    make_vasicek,
    one_step_kernel,
    point_mass_on_grid,
    propagate,
    pv_mc,
    pv_pde,
    risk_neutralize,
)
from stochastica import density, pathintegral
from stochastica.density import _check_densities, _ThetaSystem, trapezoid_weights
from stochastica.models import GBM, Family
from stochastica.errors import NumericalError


def l1_distance(s, p, q):
    return float(np.sum(trapezoid_weights(s) * np.abs(p - q)))


# ---------------------------------------------------------------------------
# closed forms


def test_bm_density_moments():
    d = density_bm(4.0, 0.0, 1.0, 0.5)
    assert d.mean == pytest.approx(4.0, rel=1e-12)
    assert d.variance == pytest.approx(1.0, rel=1e-12)


def test_bm_density_symmetry():
    d = density_bm(2.0, 5.0, 0.0, 0.3)
    x = np.linspace(0.0, 1.5, 7)
    np.testing.assert_allclose(d(5.0 + x), d(5.0 - x), rtol=1e-12)


def test_bm_degenerate_time_gives_point_mass():
    d = density_bm(0.0, 3.0, 0.1, 0.5)
    assert isinstance(d, PointMass)
    assert d.center == 3.0
    with pytest.raises(ValueError):
        density_bm(1.0, 0.0, 0.0, -0.5)


def test_gbm_density_median_and_mass():
    mu, sigma, S0, t = 0.08, 0.25, 50.0, 2.0
    d = density_gbm(t, S0, mu, sigma)
    median = S0 * math.exp((mu - 0.5 * sigma ** 2) * t)
    below, _ = quad(d, 0.0, median, limit=200)
    assert below == pytest.approx(0.5, abs=1e-9)
    total, _ = quad(d, 0.0, np.inf, limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert d(np.array([-1.0, 0.0]))[0] == 0.0


def test_gbm_density_mean_by_grid_quadrature():
    mu, sigma, S0, t = 0.05, 0.2, 100.0, 1.0
    d = density_gbm(t, S0, mu, sigma)
    grid = d.on_grid(n=4001, half_width=10.0)
    assert grid.mean == pytest.approx(S0 * math.exp(mu * t), rel=1e-6)


def test_vasicek_density_example():
    # e^{-at} = 1/2 at t = ln 2: mean = 0.05/2 + 0.03/2 = 0.04
    d = density_vasicek(math.log(2.0), 0.05, 1.0, 0.03, 0.01)
    assert d.mean == pytest.approx(0.04, rel=1e-12)
    assert d.variance == pytest.approx(0.01 ** 2 * (1 - 0.25) / 2.0, rel=1e-12)


def test_vasicek_limits():
    long_run = density_vasicek(500.0, 0.05, 1.0, 0.03, 0.01)
    assert long_run.mean == pytest.approx(0.03, abs=1e-12)
    assert long_run.variance == pytest.approx(0.01 ** 2 / 2.0, rel=1e-10)
    short = density_vasicek(1e-10, 0.05, 1.0, 0.03, 0.01)
    assert short.mean == pytest.approx(0.05, abs=1e-9)
    assert short.variance < 1e-11
    with pytest.raises(ValueError):
        density_vasicek(1.0, 0.05, 0.0, 0.03, 0.01)


# every argument of each closed-form constructor, at a valid value
_DENSITY_ARGS = {
    density_bm: {"t": 1.0, "S0": 0.0, "mu": 0.1, "sigma": 0.2},
    density_gbm: {"t": 1.0, "S0": 100.0, "mu": 0.05, "sigma": 0.2},
    density_vasicek: {"t": 1.0, "S0": 0.03, "a": 1.0, "b": 0.05, "sigma": 0.02},
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("build, name", [
    (build, name) for build, args in _DENSITY_ARGS.items() for name in args])
def test_closed_form_densities_refuse_a_non_finite_argument_by_name(build, name, value):
    # an infinite t, S0, mu or b, and a NaN sigma, S0 or a, used to give a
    # density with an infinite or NaN mean or variance
    with pytest.raises(ValueError, match=rf"(^| ){name} must be finite"):
        build(**dict(_DENSITY_ARGS[build], **{name: value}))


@pytest.mark.parametrize("value", [0, -1, math.nan])
@pytest.mark.parametrize("build, name, label", [
    (density_bm, "sigma", "sigma"), (density_gbm, "sigma", "sigma"),
    (density_gbm, "S0", "S0"), (density_vasicek, "sigma", "sigma"),
    (density_vasicek, "a", "mean-reversion speed a")])
def test_closed_form_densities_name_an_argument_that_is_not_positive(build, name, label,
                                                                      value):
    with pytest.raises(ValueError, match=re.escape(
            f"{label} must be finite and positive, got {value!r}")):
        build(**dict(_DENSITY_ARGS[build], **{name: value}))


# ---------------------------------------------------------------------------
# grids and point masses


def test_density_grid_validation():
    s = np.linspace(-4, 4, 201)
    p = np.exp(-0.5 * s * s) / math.sqrt(2 * math.pi)
    g = DensityGrid(s_values=s, p_values=p, t=1.0)
    assert g.mass == pytest.approx(1.0, abs=1e-4)
    assert g.mean == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        DensityGrid(s_values=s, p_values=2 * p, t=1.0)
    with pytest.raises(ValueError):
        DensityGrid(s_values=s[::-1], p_values=p, t=1.0)
    bad = p.copy()
    bad[100] = -0.1
    with pytest.raises(ValueError):
        DensityGrid(s_values=s, p_values=bad, t=1.0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_one_slice_density_check_reports_as_density_grid():
    # a march passes its grid's weights; the message is the one the rebuilt
    # weights and DensityGrid give, checks in the order finite, sign, mass
    s = np.linspace(-4, 4, 201)
    w = trapezoid_weights(s)
    p = np.exp(-0.5 * s * s) / math.sqrt(2 * math.pi)
    cases = [("density values must be finite", [(7, np.nan), (150, -0.1)]),
             ("density values must be finite", [(3, -np.inf)]),
             ("density is negative at S=", [(150, -0.1), (None, 2.0)]),
             ("density mass 1.999", [(None, 2.0)]),
             # -0.1 is within the clamp of a 1e300 peak: left out of the mass
             ("density mass 4.0", [(150, -0.1), (160, 1e300)]),
             ("density mass inf", [(slice(None), 1.7e308)])]   # finite, but the mass overflows
    for message, faults in cases:
        bad = p.copy()
        for j, v in faults:
            if j is None:
                bad *= v
            else:
                bad[j] = v
        errors = []
        for check in (lambda q: _check_densities(s, q, w), lambda q: _check_densities(s, q),
                      lambda q: DensityGrid(s_values=s, p_values=q, t=0.0)):
            with pytest.raises(ValueError) as err:
                check(bad.copy())
            errors.append(str(err.value))
        assert errors[0].startswith(message), errors
        assert errors[0] == errors[1] == errors[2]
    # negatives within the clamp are zeroed in place, as DensityGrid does
    tiny_negative = p.copy()
    tiny_negative[0] = -1e-15
    checked = tiny_negative.copy()
    _check_densities(s, checked, w)
    assert checked[0] == 0.0
    assert np.array_equal(checked,
                          DensityGrid(s_values=s, p_values=tiny_negative, t=0.0).p_values)


def test_point_mass_on_grid_concentration():
    s = np.linspace(0.0, 10.0, 501)
    g = point_mass_on_grid(s, 5.0)
    assert g.mass == pytest.approx(1.0, abs=1e-13)
    h = s[1] - s[0]
    w = trapezoid_weights(s)
    near = np.abs(s - 5.0) <= 3 * h + 1e-12
    assert np.sum((w * g.p_values)[near]) >= 0.99
    with pytest.raises(ValueError):
        point_mass_on_grid(s, 11.0)
    # just outside, the regularized point still has unit mass on the grid
    with pytest.raises(ValueError, match=r"^center must lie inside the grid$"):
        point_mass_on_grid(s, 10.01)


# ---------------------------------------------------------------------------
# change of variables


def test_change_of_variable_identity():
    g = density_bm(1.0, 0.0, 0.0, 1.0).on_grid()
    same = change_of_variable(g, lambda x: x, lambda x: np.ones_like(x))
    np.testing.assert_allclose(same.s_values, g.s_values, rtol=1e-12)
    np.testing.assert_allclose(same.p_values, g.p_values, rtol=1e-12)


def test_change_of_variable_linear_scaling():
    g = density_bm(1.0, 0.0, 0.0, 1.0).on_grid()
    doubled = change_of_variable(g, lambda x: 2 * x, lambda x: 2 * np.ones_like(x))
    mid = g.s_values.size // 2
    assert doubled.s_values[mid] == g.s_values[mid] == 0.0
    assert doubled.p_values[mid] == pytest.approx(g.p_values[mid] / 2)
    assert doubled.variance == pytest.approx(4.0, rel=1e-6)


def test_log_return_of_gbm_is_bm():
    mu, sigma, S0, t = 0.1, 0.3, 20.0, 1.5
    g = density_gbm(t, S0, mu, sigma).on_grid()
    log_ret = change_of_variable(g, lambda s: np.log(s / S0), lambda s: 1.0 / s)
    target = density_bm(t, 0.0, mu - 0.5 * sigma ** 2, sigma)
    np.testing.assert_allclose(log_ret.s_values, np.log(g.s_values / S0), rtol=1e-12)
    np.testing.assert_allclose(log_ret.p_values, target(log_ret.s_values), rtol=1e-9)


def test_change_of_variable_roundtrip():
    g = density_gbm(1.0, 10.0, 0.05, 0.2).on_grid()
    fwd = change_of_variable(g, np.log, lambda s: 1.0 / s)
    back = change_of_variable(fwd, np.exp, np.exp)
    np.testing.assert_allclose(back.s_values, g.s_values, rtol=1e-9)
    np.testing.assert_allclose(back.p_values, g.p_values, rtol=1e-9)


def test_change_of_variable_rejects_non_monotone():
    g = density_bm(1.0, 0.0, 0.0, 1.0).on_grid()
    with pytest.raises(ValueError, match="monotone|nonzero"):
        change_of_variable(g, lambda x: x ** 2, lambda x: 2 * x)
    shifted = DensityGrid(s_values=g.s_values + 0.01, p_values=g.p_values, t=g.t)
    with pytest.raises(ValueError, match="not monotone"):
        change_of_variable(shifted, lambda x: x ** 2, lambda x: 2 * x)
    # an infinite derivative where the density vanishes leaves the mass at 1
    s = np.linspace(0.0, 4.0, 401)
    bump = DensityGrid(s, np.exp(-0.5 * ((s - 2.0) / 0.3) ** 2) / (0.3 * math.sqrt(2 * math.pi)),
                       0.0)
    with np.errstate(divide="ignore"), pytest.raises(
            ValueError, match=r"^dYdx must be finite and nonzero on the grid$"):
        change_of_variable(bump, np.sqrt, lambda x: 0.5 / np.sqrt(x))


def test_change_of_variable_asks_to_sample_an_analytic_density():
    with pytest.raises(TypeError, match="on_grid"):
        change_of_variable(density_gbm(1.0, 10.0, 0.05, 0.2), np.log, lambda s: 1.0 / s)


def test_change_of_variable_point_mass():
    # a point moves by its map alone; only a grid density has a Jacobian to apply
    with pytest.raises(TypeError, match="^p_x must be a DensityGrid; "):
        change_of_variable(PointMass(center=4.0, t=0.0), np.log, lambda x: 1 / x)


def test_change_of_variable_on_grid_density():
    s = np.linspace(1.0, 9.0, 401)
    var = 0.25
    p = np.exp(-0.5 * (s - 5.0) ** 2 / var) / math.sqrt(2 * math.pi * var)
    g = DensityGrid(s_values=s, p_values=p, t=0.0)
    flipped = change_of_variable(g, lambda x: -x, lambda x: -np.ones_like(x))
    assert isinstance(flipped, DensityGrid)
    assert flipped.mean == pytest.approx(-5.0, abs=1e-9)
    assert flipped.mass == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# forward solver


def test_heat_kernel_spreads_gaussian():
    sigma = 0.4
    model = make_bm(0.0, sigma)
    s = np.linspace(-6.0, 6.0, 801)
    v0 = 0.04
    p0 = np.exp(-0.5 * s * s / v0) / math.sqrt(2 * math.pi * v0)
    initial = DensityGrid(s_values=s, p_values=p0, t=0.0)
    out = fokker_planck_forward(model, initial, TimeGrid(0.0, 0.005, 200))
    final = out[-1]
    v1 = v0 + sigma ** 2
    target = np.exp(-0.5 * s * s / v1) / math.sqrt(2 * math.pi * v1)
    assert l1_distance(s, final.p_values, target) < 5e-4
    assert abs(final.mass - 1.0) < 1e-6
    assert final.t == pytest.approx(1.0)


def test_forward_solver_matches_vasicek():
    a, b, sigma, S0, t = 1.0, 0.05, 0.02, 0.03, 1.0
    model = make_vasicek(a, b, sigma)
    final = evolve_density(model, PointMass(center=S0, t=0.0), t)
    exact = density_vasicek(t, S0, a, b, sigma)
    assert l1_distance(final.s_values, final.p_values,
                       exact(final.s_values)) < 5e-3


def test_forward_solver_matches_gbm():
    mu, sigma, S0, t = 0.05, 0.2, 100.0, 1.0
    model = make_gbm(mu, sigma)
    final = evolve_density(model, PointMass(center=S0, t=0.0), t)
    exact = density_gbm(t, S0, mu, sigma)
    assert l1_distance(final.s_values, final.p_values,
                       exact(final.s_values)) < 5e-3


@pytest.mark.parametrize("mu, sigma, S0, t0, t1", [
    (0.05, 0.2, 100.0, 0.5, 1.5),
    (0.1, 0.4, 20.0, 0.25, 1.0),
])
def test_forward_solver_evolves_an_analytic_gbm_start(mu, sigma, S0, t0, t1):
    # the start is sampled on the terminal density's grid and evolved there,
    # in price space, from t0
    exact = density_gbm(t1, S0, mu, sigma)
    start = density_gbm(t0, S0, mu, sigma).on_grid(exact.default_grid())
    final = fokker_planck_forward(make_gbm(mu, sigma), start,
                                  TimeGrid(t0, (t1 - t0) / 200, 200))[-1]
    assert final.t == pytest.approx(t1)
    assert l1_distance(final.s_values, final.p_values,
                       exact(final.s_values)) < 5e-3


def test_evolve_density_refuses_a_start_that_is_not_a_point():
    s = np.linspace(-8.0, 8.0, 401)
    for start, name in ((density_bm(0.5, 0.0, 0.0, 1.0), "AnalyticDensity1D"),
                        (point_mass_on_grid(s, 0.0), "DensityGrid")):
        with pytest.raises(TypeError, match=f"^initial must be a PointMass, got {name}; "
                           "evolve a density on its own grid with fokker_planck_forward$"):
            evolve_density(make_bm(0.0, 1.0), start, 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("start, reached", [
    (PointMass(center=0.0), 0.0),
    (PointMass(center=-1.0), -1.0),
], ids=["point-mass-at-0", "point-mass-below-0"])
def test_log_space_model_refuses_a_start_at_or_below_zero(start, reached):
    # both point-start routes refuse it in their one setup, with one message
    message = re.escape(f"this model needs S > 0; S0 = {reached!r}")
    with pytest.raises(ValueError, match=message):
        evolve_density(make_gbm(0.05, 0.2), start, start.t + 1.0)
    with pytest.raises(ValueError, match=message):
        greens_function(make_gbm(0.05, 0.2), DiscountCurve.flat(0.05), start.t,
                        start.center, start.t + 1.0, 1.0 / 64)


@pytest.mark.parametrize("model", [
    risk_neutralize(make_gbm(0.05, 0.2), DiscountCurve.flat(0.05)),
    dataclasses.replace(make_bm(0.05, 20.0), risk_neutral=True),
], ids=["gbm-log-space", "bm-price-space"])
def test_both_point_start_routes_work_on_the_one_source_grid(model, monkeypatch):
    # the lattice's native grid is the very grid the forward march runs on
    S0, T, n_nodes, half_width = 100.0, 0.75, 301, 7.0
    marched = []
    real = density._forward_march

    def forward_march(work_model, initial, grid):
        marched.append(initial.s_values)
        return real(work_model, initial, grid)

    monkeypatch.setattr(density, "_forward_march", forward_march)
    evolve_density(model, PointMass(center=S0), T, n_steps=50, n_nodes=n_nodes,
                   half_width=half_width)
    g = greens_function(model, DiscountCurve.flat(0.05), 0.0, S0, T, T / 50,
                        n_nodes=n_nodes, half_width=half_width)
    work_model, x0, start = density._point_source(model, S0, 0.0, T, n_nodes, half_width)
    assert (work_model is not model) == g.log_coordinates == isinstance(model.family, GBM)
    assert x0 == (math.log(S0) if g.log_coordinates else S0)
    assert np.array_equal(g.native_values, marched[0])
    assert np.array_equal(g.native_values, start.s_values)
    assert np.array_equal(g.transition[0], start.p_values)


def test_forward_solver_rejects_boundary_pileup():
    # drift pushes everything into the right wall well before t = 1
    model = make_bm(2.0, 0.05)
    s = np.linspace(-0.5, 0.5, 401)
    initial = point_mass_on_grid(s, 0.0)
    with pytest.raises(NumericalError, match="dt|grid"):
        fokker_planck_forward(model, initial, TimeGrid(0.0, 0.005, 200))


def test_forward_solver_asks_for_wider_grid():
    # diffusion reaches the edges of a grid that is only two sigma wide
    model = make_bm(0.0, 1.0)
    s = np.linspace(-2.0, 2.0, 401)
    initial = point_mass_on_grid(s, 0.0)
    with pytest.raises(NumericalError, match="widen the grid"):
        fokker_planck_forward(model, initial, TimeGrid(0.0, 0.005, 200))


def test_forward_solver_names_the_edge_before_the_mass_it_costs():
    # one step carries the point mass into the right edge, whose half
    # trapezoid weight drops the mass to 0.994: this used to be reported
    # as "mass drifted"
    s = np.linspace(-1.0, 1.0, 501)
    with pytest.raises(NumericalError, match="density reached the domain edge at step 1"):
        fokker_planck_forward(make_bm(4.0, 0.2), point_mass_on_grid(s, 0.0),
                              TimeGrid(0.0, 0.0625, 16))


def test_forward_solver_refuses_total_variation_growth():
    # a stiff pull (a dt = 0.2 a step) toward b = 0 on cells of 0.1: without
    # this guard the march returns a density 1.52 from the exact law in L1,
    # and no other guard fires
    s = np.linspace(-8.0, 8.0, 161)
    start = DensityGrid(s_values=s, p_values=np.exp(-0.5 * s * s) / math.sqrt(2 * math.pi),
                        t=0.0)
    with pytest.raises(NumericalError, match=r"total variation grew \S+x at step 14: "
                       r"unstable resolution; retry with dt <= 0\.0025$"):
        fokker_planck_forward(make_vasicek(20.0, 0.0, 0.1), start, TimeGrid(0.0, 0.01, 100))


def test_forward_solver_requires_vanishing_edges():
    model = make_bm(0.0, 1.0)
    s = np.linspace(-1.0, 1.0, 101)
    p = np.full_like(s, 0.5)
    broad = DensityGrid(s_values=s, p_values=p, t=0.0)
    with pytest.raises(ValueError, match="edge|boundary|grid"):
        fokker_planck_forward(model, broad, TimeGrid(0.0, 0.01, 10))


@pytest.mark.parametrize("half_width", [8.0, 40.0])
def test_forward_solver_names_the_cells_a_point_mass_start_lacks(half_width):
    # a one-cell-wide start widens with the grid: this used to say "widen
    # the grid" for +-8 and +-40 alike; a start two cells from the edge
    # is told two
    for center, k in ((0.0, 5), (-0.6 * half_width, 2)):
        start = point_mass_on_grid(np.linspace(-half_width, half_width, 11), center)
        with pytest.raises(ValueError, match=f"about one cell wide and lies {k} cells from "
                           "the nearer edge, which needs about seven: add nodes or move "
                           "that edge away"):
            fokker_planck_forward(make_bm(0.0, 1.0), start, TimeGrid(0.0, 1.0 / 16, 16))


def test_forward_solver_start_seven_cells_from_each_edge_vanishes():
    start = point_mass_on_grid(np.linspace(-7.0, 7.0, 15), 0.0)
    fokker_planck_forward(make_bm(0.0, 1.0), start, TimeGrid(0.0, 1.0 / 16, 1))


@pytest.mark.parametrize("n_nodes, half_width", [
    (5, 8.0), (9, 8.0), (11, 8.0), (11, 4.0), (11, 16.0)])
def test_point_mass_start_on_too_few_nodes_asks_for_more_nodes(n_nodes, half_width):
    # the regularised start is one cell wide, so widening the domain widens
    # it too; this used to say "widen the grid"
    with pytest.raises(ValueError, match=rf"one cell wide .*raise n_nodes \(now {n_nodes}\)"):
        evolve_density(make_bm(0.0, 1.0), PointMass(center=0.0), 1.0,
                       n_nodes=n_nodes, half_width=half_width)


def test_point_mass_start_on_enough_nodes_evolves():
    final = evolve_density(make_bm(0.0, 1.0), PointMass(center=0.0), 1.0, n_nodes=15)
    assert abs(final.mass - 1.0) < 1e-3


def test_own_grid_start_that_does_not_vanish_still_asks_to_widen_the_grid():
    # no family spread rule: the forward march runs on the caller's grid as
    # given, and a broad start is not told the point-mass remedy
    rn = risk_neutralize(make_bm(0.0, 1.0), DiscountCurve.flat(0.0),
                         override_drift=lambda t, S: np.zeros_like(S))
    s = np.linspace(-1.0, 1.0, 101)
    broad = DensityGrid(s_values=s, p_values=np.full_like(s, 0.5), t=0.0)
    with pytest.raises(ValueError, match="; widen the grid$"):
        fokker_planck_forward(rn, broad, TimeGrid(0.0, 1.0 / 200, 200))


@pytest.mark.parametrize("n_nodes", [21, 31, 41])
def test_log_space_density_too_coarse_for_its_price_grid_asks_for_more_nodes(n_nodes):
    # the march in ln S kept its mass, but the trapezoid mass on the mapped
    # price grid is off (1.0044 at 21 nodes); this used to name only the mass
    with pytest.raises(ValueError, match=f"the {n_nodes}-node price grid cannot hold "
                       r"the density .*\(density mass .*\); raise n_nodes"):
        evolve_density(make_gbm(0.05, 0.2), PointMass(center=100.0), 1.0, n_nodes=n_nodes)
    final = evolve_density(make_gbm(0.05, 0.2), PointMass(center=100.0), 1.0, n_nodes=61)
    assert abs(final.mass - 1.0) < 1e-3


def _banded(lower, diag, upper, dt, theta):
    """I - theta*dt*L in scipy.linalg.solve_banded's (1, 1) layout."""
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = -theta * dt * upper[:-1]
    ab[1, :] = 1.0 - theta * dt * diag
    ab[2, :-1] = -theta * dt * lower[1:]
    return ab


def _solve_banded_step(u, lower, diag, upper, dt, m, source=None):
    """One theta step in its one-solve form, written out with
    scipy.linalg.solve_banded: A^-1 (u/theta + source) - (1/theta - 1) u
    with A = I - theta*dt*L."""
    from scipy.linalg import solve_banded

    theta = 1.0 if m < 2 else 0.5
    rhs = u / theta
    if source is not None:
        rhs += source
    x = solve_banded((1, 1), _banded(lower, diag, upper, dt, theta), rhs)
    return x - (1.0 / theta - 1.0) * u


def _explicit_product_step(u, lower, diag, upper, dt, m, source=None):
    """One theta step as A^-1 (B u + source) with the explicit half
    B = I + (1 - theta)*dt*L applied as a tridiagonal product."""
    from scipy.linalg import solve_banded

    theta = 1.0 if m < 2 else 0.5
    Lu = diag * u
    Lu[:-1] += upper[:-1] * u[1:]
    Lu[1:] += lower[1:] * u[:-1]
    rhs = u + (1.0 - theta) * dt * Lu
    if source is not None:
        rhs += source
    return solve_banded((1, 1), _banded(lower, diag, upper, dt, theta), rhs)


@pytest.mark.parametrize("n", [401, 4097])
@pytest.mark.parametrize("m", [0, 1, 2, 7])      # theta = 1, 1, 1/2, 1/2
def test_theta_system_step_equals_solve_banded_bit_for_bit(n, m):
    rng = np.random.default_rng(n + m)
    lower = rng.uniform(-1.0, 1.0, n)
    upper = rng.uniform(-1.0, 1.0, n)
    diag = -(np.abs(lower) + np.abs(upper)) - rng.uniform(0.0, 1.0, n)
    dt = 0.7
    system = _ThetaSystem(lower, diag, upper, dt)
    for k in range(3):          # later steps reuse the factors of the first
        u = rng.normal(size=n)
        source = rng.normal(size=n) if k == 1 else None
        want = _solve_banded_step(u.copy(), lower, diag, upper, dt, m, source)
        got = system.step(u, m, None if source is None else source.copy())
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [401, 4097])
@pytest.mark.parametrize("m", [0, 2])            # theta = 1, 1/2
@pytest.mark.parametrize("dt", [0.01, 0.7, 50.0])
def test_one_solve_step_agrees_with_the_explicit_product_step(n, m, dt):
    # the two forms differ only in rounding: at theta 1 not at all, at
    # theta 1/2 by at most 32 eps of the larger of |x| and |u| (5 eps seen)
    rng = np.random.default_rng(n + m)
    lower = rng.uniform(-1.0, 1.0, n)
    upper = rng.uniform(-1.0, 1.0, n)
    diag = -(np.abs(lower) + np.abs(upper)) - rng.uniform(0.0, 1.0, n)
    system = _ThetaSystem(lower, diag, upper, dt)
    for k in range(2):
        u = rng.normal(size=n)
        source = rng.normal(size=n) if k == 1 else None
        want = _explicit_product_step(u.copy(), lower, diag, upper, dt, m, source)
        got = system.step(u, m, None if source is None else source.copy())
        bound = 32 * np.finfo(float).eps * max(np.abs(want).max(), np.abs(u).max())
        assert np.abs(got - want).max() <= (0.0 if m < 2 else bound)


def test_theta_system_rejects_what_solve_banded_rejects():
    n = 50
    lower, upper, diag = np.full(n, 1.0), np.full(n, 1.0), np.full(n, -2.0)
    u = np.ones(n)
    u_nan = u.copy()
    u_nan[9] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        _ThetaSystem(lower, diag, upper, 0.1).step(u_nan, 0)
    bad_diag = diag.copy()
    bad_diag[3] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        _ThetaSystem(lower, bad_diag, upper, 0.1).step(u, 0)
    # I - dt*L with L = I/dt is the zero matrix
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        _ThetaSystem(np.zeros(n), np.full(n, 10.0), np.zeros(n), 0.1).step(u, 0)


def test_fokker_planck_forward_matches_solve_banded_steps():
    # the forward march is one theta step per time step, nothing more
    from stochastica.density import _flux_inputs, _flux_stencil

    model = make_vasicek(1.2, 0.04, 0.015)
    s = np.linspace(-0.08, 0.16, 401)
    initial = point_mass_on_grid(s, 0.03)
    grid = TimeGrid(0.0, 1.0 / 40, 40)
    out = fokker_planck_forward(model, initial, grid)
    p = initial.p_values.copy()
    for m in range(grid.n_steps):
        lower, diag, upper = _flux_stencil(
            *_flux_inputs(model, s, grid.time(m) + 0.5 * grid.dt), s[1] - s[0])
        p = _solve_banded_step(p, lower, diag, upper, grid.dt, m)
        p[p < 0] = 0.0
        assert np.array_equal(out[m + 1].p_values, p)


@pytest.mark.parametrize("n_steps", [0, -3, 1.5, True])
def test_solvers_reject_a_bad_step_count(n_steps):
    model = make_bm(0.0, 0.5)
    s = np.linspace(-4.0, 4.0, 201)
    with pytest.raises(ValueError, match="n_steps"):
        kolmogorov_backward(model, lambda x: x, s, 0.0, 1.0, n_steps=n_steps)
    with pytest.raises(ValueError, match="n_steps"):
        evolve_density(model, PointMass(center=0.0), 1.0, n_steps=n_steps)


@pytest.mark.parametrize("bad, message", [
    ({"half_width": -1.0}, "half_width must be finite and positive, got -1.0"),
    ({"half_width": math.nan}, "half_width must be finite and positive, got nan"),
    ({"half_width": 0}, "half_width must be finite and positive, got 0"),
    ({"n_nodes": 2.5}, "n_nodes must be an integer >= 5, got 2.5"),
    ({"n_nodes": True}, "n_nodes must be an integer >= 5, got True"),
])
def test_default_domain_routes_name_a_bad_grid_argument(bad, message):
    curve = DiscountCurve.flat(0.05)
    with pytest.raises(ValueError, match=re.escape(message)):
        evolve_density(make_bm(0.0, 1.0), PointMass(center=0.0, t=0.0), 1.0, **bad)
    with pytest.raises(ValueError, match=re.escape(message)):
        greens_function(risk_neutralize(make_gbm(0.05, 0.2), curve), curve,
                        0.0, 100.0, 1.0, 0.25, **bad)
    with pytest.raises(ValueError, match=re.escape(message)):
        density_bm(1.0, 0.0, 0.1, 0.3).default_grid(bad.get("n_nodes", 801),
                                                     bad.get("half_width", 8.0))


def test_a_model_without_a_family_has_no_default_domain():
    model = make_correlated_bm([0.05], [0.2], [[1.0]])
    assert model.family is None
    with pytest.raises(ValueError, match="no default domain rule"):
        evolve_density(model, PointMass(center=0.0, t=0.0), 1.0)


# ---------------------------------------------------------------------------
# operator reuse: a solver rebuilds its operator only when the model's
# coefficients on the grid change


_REUSE_CASES = {  # model, grid, start, horizon
    "bm": (make_bm(0.1, 0.3), np.linspace(-2.0, 2.2, 201), 0.1, 1.0),
    "gbm": (make_gbm(0.05, 0.2), np.linspace(40.0, 220.0, 201), 100.0, 0.5),
    "vasicek": (make_vasicek(1.0, 0.05, 0.02), np.linspace(-0.05, 0.13, 201), 0.03, 1.0),
}


def _solvers(model, s, S0, T, n=40):
    """Every grid solver on one model, n steps each, as calls that return
    the solver's output array."""
    curve = DiscountCurve.flat(0.05)
    rn = risk_neutralize(model, curve) if isinstance(model.family, GBM) \
        else dataclasses.replace(model, risk_neutral=True)
    start = point_mass_on_grid(s, S0)
    return {
        "fokker_planck_forward": lambda: np.stack([
            d.p_values for d in fokker_planck_forward(model, start, TimeGrid(0.0, T / n, n))]),
        "evolve_density": lambda: evolve_density(
            model, PointMass(center=S0), T, n_steps=n, n_nodes=s.size).p_values,
        "kolmogorov_backward": lambda: kolmogorov_backward(
            model, lambda x: np.tanh((x - S0) / (s[-1] - s[0])), s, 0.0, T,
            n_steps=n).values,
        "propagate": lambda: propagate(one_step_kernel(model, 0.0, T / n), start,
                                       n).p_values,
        "greens_function": lambda: greens_function(rn, curve, 0.0, S0, T, T / n,
                                                   n_nodes=s.size).transition,
    }


def _count_builds(monkeypatch) -> dict:
    """Count theta systems built, factorizations and kernel matrices built."""
    counts = {"systems": 0, "factors": 0, "kernels": 0}
    real_factor, real_kernel = _ThetaSystem._factor, pathintegral.kernel_matrix

    class Counted(_ThetaSystem):
        def __init__(self, *args):
            counts["systems"] += 1
            super().__init__(*args)

    def factor(self, theta):
        counts["factors"] += 1
        return real_factor(self, theta)

    def kernel(*args):
        counts["kernels"] += 1
        return real_kernel(*args)

    monkeypatch.setattr(_ThetaSystem, "_factor", factor)
    monkeypatch.setattr(density, "_ThetaSystem", Counted)
    monkeypatch.setattr(pathintegral, "kernel_matrix", kernel)
    return counts


def _pde_solvers(n=64):
    """pv_pde on each kind of sigma and on a stream payoff, as calls that
    return the value array."""
    curve = DiscountCurve.flat(0.05)
    stream = PayoffSpec(terminal=lambda s: np.maximum(s - 100.0, 0.0),
                        stream=lambda t, s: 0.01 * s)
    cases = {
        "scalar sigma": (call_payoff(100.0), 0.2),
        "constant callable sigma": (call_payoff(100.0), lambda t, s: np.full_like(s, 0.2)),
        "time-dependent sigma": (call_payoff(100.0),
                                 lambda t, s: np.full_like(s, 0.2 + 0.01 * t)),
        "stream payoff": (stream, lambda t, s: 0.2 + 0.05 * np.tanh(np.log(s / 100.0) + t)),
    }
    return {name: lambda payoff=payoff, sigma=sigma: pv_pde(
        payoff, curve, sigma, 100.0, 1.0, n_nodes=513, n_steps=n).values
        for name, (payoff, sigma) in cases.items()}


@pytest.mark.parametrize("kind", sorted(_REUSE_CASES) + ["pv_pde"])
def test_reused_operators_equal_a_rebuild_every_step_bit_for_bit(kind, monkeypatch):
    # the reference evaluates the maps and builds the operator anew every
    # step: every march gets its operator from density._Reused
    solvers = _pde_solvers if kind == "pv_pde" else lambda: _solvers(*_REUSE_CASES[kind])
    builds = []

    def rebuild_every_step(build, inputs, fixed):
        return lambda t: builds.append(t) or build(t, *inputs(t))

    for module in (density, pathintegral):
        monkeypatch.setattr(module, "_Reused", rebuild_every_step)
    want = {}
    for name, run in solvers().items():
        builds.clear()
        want[name] = run()
        assert builds, name
    monkeypatch.undo()
    for name, run in solvers().items():
        assert np.array_equal(run(), want[name]), name


@pytest.mark.parametrize("kind", sorted(_REUSE_CASES))
def test_homogeneous_model_builds_each_operator_once(kind, monkeypatch):
    builds = {  # theta systems, factorizations (theta 1 then 1/2), kernels
        "fokker_planck_forward": (1, 2, 0),
        "evolve_density": (1, 2, 0),
        "kolmogorov_backward": (1, 2, 0),
        "propagate": (0, 0, 1),
        "greens_function": (0, 0, 1),
    }
    counts = _count_builds(monkeypatch)
    for name, run in _solvers(*_REUSE_CASES[kind]).items():
        before = dict(counts)
        run()
        assert tuple(counts[k] - before[k] for k in counts) == builds[name], name


def test_time_dependent_drift_rebuilds_every_step(monkeypatch):
    n = 40
    rn = risk_neutralize(make_bm(0.0, 0.3), DiscountCurve.flat(0.0),
                         override_drift=lambda t, S: np.full_like(S, 0.2 * t))
    s = np.linspace(-2.0, 2.2, 201)
    counts = _count_builds(monkeypatch)
    fokker_planck_forward(rn, point_mass_on_grid(s, 0.0), TimeGrid(0.0, 1.0 / n, n))
    assert (counts["systems"], counts["factors"]) == (n, n)
    kolmogorov_backward(rn, lambda x: x, s, 0.0, 1.0, n_steps=n)
    assert (counts["systems"], counts["factors"]) == (2 * n, 2 * n)
    propagate(one_step_kernel(rn, 0.0, 1.0 / n), point_mass_on_grid(s, 0.0), n)
    assert counts["kernels"] == n


_TWO_RATES = DiscountCurve(times=(0.0, 0.25), rates=(0.03, 0.06))
_MAP_CASES = {  # model, whether its family declares maps independent of t
    "bm": (make_bm(0.1, 0.3), True),
    "vasicek": (make_vasicek(1.0, 0.05, 0.02), True),
    "gbm": (risk_neutralize(make_gbm(0.05, 0.2), DiscountCurve.flat(0.05)), True),
    "gbm two-rate": (risk_neutralize(make_gbm(0.05, 0.2), _TWO_RATES), False),
    "undeclared": (dataclasses.replace(make_bm(0.1, 0.3), family=Family()), False),
}


@pytest.mark.parametrize("kind", sorted(_MAP_CASES))
def test_marches_evaluate_fixed_maps_once_and_others_every_step(kind):
    model, fixed = _MAP_CASES[kind]
    times = []

    def drift(t, S):
        times.append(t)
        return model.drift(t, S)

    counted = dataclasses.replace(model, drift=drift)
    # the grid and start of the reuse case of the same maps
    _, s, S0, _ = _REUSE_CASES[{"gbm two-rate": "gbm", "undeclared": "bm"}.get(kind, kind)]
    n, T = 40, 0.5
    marches = {
        "forward": lambda: fokker_planck_forward(counted, point_mass_on_grid(s, S0),
                                                 TimeGrid(0.0, T / n, n)),
        "backward": lambda: kolmogorov_backward(counted, lambda x: np.tanh(x - S0), s,
                                                0.0, T, n_steps=n),
        "lattice": lambda: propagate(one_step_kernel(counted, 0.0, T / n),
                                     point_mass_on_grid(s, S0), n),
    }
    for name, march in marches.items():
        times.clear()
        march()
        assert len(set(times)) == (1 if fixed else n), name


def _start_point_masses_at(mass, monkeypatch):
    """Give evolve_density's regularised point start this mass, as a test's
    own-grid start has, so that a slice can fail the density checks alone:
    from mass 1 the drift guard trips first."""
    real = density.point_mass_on_grid

    def point_mass_on_grid(*args, **kwargs):
        start = real(*args, **kwargs)
        return DensityGrid(s_values=start.s_values, p_values=mass * start.p_values,
                           t=start.t)

    monkeypatch.setattr(density, "point_mass_on_grid", point_mass_on_grid)


@pytest.mark.parametrize("fault, message", [
    ("mass", r"density mass 0\.9988"), ("nan", "density values must be finite")])
def test_forward_march_reports_the_first_failing_slice(fault, message, monkeypatch):
    # slice f + 4 fails the density checks only, and a later step would
    # fail a guard: the error is slice f + 4's, early in the march (f = 0)
    # or late (f = 69)
    model = make_bm(0.0, 0.5)
    s = np.linspace(-4.0, 4.0, 201)
    start = point_mass_on_grid(s, 0.0)
    initial = DensityGrid(s_values=s, p_values=0.9995 * start.p_values, t=0.0)
    grids = []
    real_uniform, real_step = density._require_uniform, _ThetaSystem.step

    def require_uniform(grid):
        grids.append(grid)      # the grid the march runs on
        return real_uniform(grid)

    def step(self, u, m, source=None):
        x = real_step(self, u, m, source)
        w = trapezoid_weights(grids[-1])
        if m == f + 3 and fault == "mass":
            x *= 0.99881 / float(np.sum(w * x))    # 6.9e-4 from the start's mass,
            # so that every summation order prints the mass as 0.9988...
        if m == f + 4 and fault == "mass":
            x *= 0.9986 / float(np.sum(w * x))     # slice f + 5 fails too
        if m == f + 3 and fault == "nan":
            x[x.size // 2] = np.nan
        if m == f + 6:
            x[x.size // 2] = -1.0                  # a NumericalError at step f + 7
        return x

    monkeypatch.setattr(density, "_require_uniform", require_uniform)
    monkeypatch.setattr(_ThetaSystem, "step", step)
    _start_point_masses_at(0.9995, monkeypatch)
    for f in (0, 69):
        n = f + 10
        with pytest.raises(ValueError, match=message):
            fokker_planck_forward(model, initial, TimeGrid(0.0, 0.01, n))
        with pytest.raises(ValueError, match=message):
            evolve_density(model, PointMass(center=0.0), 0.01 * n, n_steps=n,
                           n_nodes=s.size)


def test_fokker_planck_forward_checks_each_slice_once(monkeypatch):
    # the start is checked when it is built and each step's slice by the
    # march; the grids returned are built from those slices as they are
    checks = []
    real_check = density._check_densities

    def check(*args):
        checks.append(1)
        return real_check(*args)

    monkeypatch.setattr(density, "_check_densities", check)
    n = 200
    s = np.linspace(-40.0, 40.0, 401)
    start = point_mass_on_grid(s, 0.0)
    grids = fokker_planck_forward(make_bm(0.0, 1.0), start, TimeGrid(0.0, 1.0 / n, n))
    assert len(checks) == n + 1
    assert np.array_equal(grids[0].p_values, start.p_values)
    for g in grids:
        assert g.s_values is start.s_values
        assert not g.p_values.flags.writeable
        rebuilt = DensityGrid(s_values=g.s_values, p_values=g.p_values, t=g.t)
        assert np.array_equal(rebuilt.p_values, g.p_values)


_S = np.linspace(-4.0, 4.0, 101)
_FLAT = DiscountCurve.flat(0.05)
_RN_GBM = risk_neutralize(make_gbm(0.05, 0.2), _FLAT)


@pytest.mark.parametrize("name, call", [
    pytest.param("t1", lambda: kolmogorov_backward(make_bm(0.0, 0.5), np.tanh, _S, 0.0,
                                                   math.inf), id="kolmogorov_backward t1"),
    pytest.param("t0", lambda: kolmogorov_backward(make_bm(0.0, 0.5), np.tanh, _S, -math.inf,
                                                   1.0), id="kolmogorov_backward t0"),
    pytest.param("S0", lambda: greens_function(_RN_GBM, _FLAT, 0.0, math.inf, 1.0, 0.01),
                 id="greens_function S0"),
    pytest.param("t", lambda: greens_function(_RN_GBM, _FLAT, 0.0, 100.0, math.inf, 0.01),
                 id="greens_function t"),
    # T is checked before dt, which a caller may derive from T
    pytest.param("T", lambda: pv_mc(make_gbm(0.05, 0.2), _FLAT, call_payoff(100.0), 100.0,
                                    math.inf, math.inf, 100, 1), id="pv_mc T"),
    pytest.param("center", lambda: evolve_density(make_bm(0.0, 0.5),
                                                  PointMass(center=math.nan), 1.0),
                 id="evolve_density nan center"),
    pytest.param("center", lambda: evolve_density(make_gbm(0.0, 0.5),
                                                  PointMass(center=math.inf), 1.0),
                 id="evolve_density inf center"),
    pytest.param("t1", lambda: evolve_density(make_bm(0.0, 0.5), PointMass(center=0.0),
                                              math.inf), id="evolve_density t1"),
    pytest.param("T", lambda: pv_pde(call_payoff(100.0), _FLAT, 0.2, 100.0, math.inf),
                 id="pv_pde T"),
    pytest.param("T", lambda: pathintegral.pi_expectation(make_bm(0.0, 0.5), np.tanh, 0.0, 0.0,
                                                          math.inf, 0.01, 100, 1),
                 id="pi_expectation T"),
    pytest.param("dt", lambda: one_step_kernel(make_bm(0.0, 0.5), 0.0, math.inf),
                 id="one_step_kernel dt"),
    pytest.param("S0", lambda: pv_pde(call_payoff(100.0), _FLAT, 0.2, math.inf, 1.0),
                 id="pv_pde S0"),
    # a start at t = nan was refused as not before t1, or marched to t = nan
    pytest.param("t", lambda: evolve_density(make_bm(0.0, 1.0),
                                             PointMass(center=0.0, t=math.nan), 1.0),
                 id="evolve_density nan start time"),
    pytest.param("t", lambda: fokker_planck_forward(
        make_bm(0.0, 1.0), point_mass_on_grid(_S, 0.0, t=math.nan), TimeGrid(0.0, 0.01, 10)),
                 id="fokker_planck_forward nan start time"),
    pytest.param("t", lambda: propagate(one_step_kernel(make_bm(0.0, 1.0), 0.0, 0.01),
                                        point_mass_on_grid(_S, 0.0, t=math.nan), 10),
                 id="propagate nan start time"),
])
def test_non_finite_horizons_spots_and_centres_are_named(name, call):
    # refused by name before any array is built, so numpy never warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            call()


_BM2 = make_correlated_bm([0.0, 0.0], [0.5, 0.5], [[1.0, 0.3], [0.3, 1.0]])
_BM = make_bm(0.0, 0.5)


@pytest.mark.parametrize("message, call", [
    pytest.param("forward solver handles one-dimensional models",
                 lambda: fokker_planck_forward(_BM2, point_mass_on_grid(_S, 0.0),
                                               TimeGrid(0.0, 0.01, 10)), id="forward two-asset"),
    pytest.param("initial density time must equal grid.t0",
                 lambda: fokker_planck_forward(_BM, point_mass_on_grid(_S, 0.0, t=0.5),
                                               TimeGrid(0.0, 0.01, 10)), id="forward start time"),
    pytest.param("backward solver handles one-dimensional models",
                 lambda: kolmogorov_backward(_BM2, np.tanh, _S, 0.0, 1.0),
                 id="backward two-asset"),
    pytest.param("t1 must exceed t0", lambda: kolmogorov_backward(_BM, np.tanh, _S, 1.0, 1.0),
                 id="backward t1 equal to t0"),
    pytest.param("t1 must exceed t0", lambda: kolmogorov_backward(_BM, np.tanh, _S, 1.0, 0.5),
                 id="backward t1 before t0"),
    pytest.param("terminal values must match the grid",
                 lambda: kolmogorov_backward(_BM, np.tanh(_S[:-1]), _S, 0.0, 1.0),
                 id="backward terminal length"),
    pytest.param("terminal values must be finite",
                 lambda: kolmogorov_backward(_BM, np.where(_S > 3.0, np.nan, np.tanh(_S)), _S,
                                             0.0, 1.0), id="backward non-finite terminal"),
])
def test_grid_marches_refuse_inputs_they_cannot_march(message, call):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("n_steps", [1, 63, 64, 65, 131])
def test_windowed_marches_equal_every_slice_bit_for_bit(n_steps):
    # evolve_density keeps only the latest slice; it is the last of the
    # march that keeps every slice
    model, S0, T = make_bm(0.1, 0.3), 0.2, 0.5
    _, _, start = density._point_source(model, S0, 0.0, T, 201, 8.0)
    s = start.s_values
    final = evolve_density(model, PointMass(center=S0), T, n_steps=n_steps,
                           n_nodes=s.size)
    every = fokker_planck_forward(model, start, TimeGrid(0.0, T / n_steps, n_steps))
    assert len(every) == n_steps + 1
    assert np.array_equal(final.s_values, s)
    assert np.array_equal(final.p_values, every[-1].p_values)
    assert final.t == every[-1].t


@pytest.mark.parametrize("bad", [1, 64, 65, 131])
def test_windowed_marches_check_every_slice(bad, monkeypatch):
    # only slice `bad` fails the density checks and no guard trips: every
    # march still reports it, wherever it lies in the march
    n = 131
    model = dataclasses.replace(make_bm(0.0, 0.5), risk_neutral=True)
    s = np.linspace(-4.0, 4.0, 201)
    start = point_mass_on_grid(s, 0.0)
    initial = DensityGrid(s_values=s, p_values=0.9995 * start.p_values, t=0.0)
    real_step, real_apply = _ThetaSystem.step, pathintegral.quadrature_apply
    applied, scale = [], []

    def fault(x, k):    # slice k has mass 0.99881, 6.9e-4 from the start's; k + 1 is restored
        if k == bad:
            x *= scale[0]
        if k == bad + 1:
            x /= scale[0]
        return x

    def step(self, u, m, source=None):
        return fault(real_step(self, u, m, source), m + 1)

    def apply(w, p, matrix):
        applied.append(1)
        return fault(real_apply(w, p, matrix), len(applied))

    monkeypatch.setattr(_ThetaSystem, "step", step)
    monkeypatch.setattr(pathintegral, "quadrature_apply", apply)
    _start_point_masses_at(0.9995, monkeypatch)
    marches = {  # start mass, march
        "fokker_planck_forward": (0.9995, lambda: fokker_planck_forward(
            model, initial, TimeGrid(0.0, 0.5 / n, n))),
        "evolve_density": (0.9995, lambda: evolve_density(
            model, PointMass(center=0.0), 0.5, n_steps=n, n_nodes=s.size)),
        "propagate": (0.9995, lambda: propagate(
            one_step_kernel(model, 0.0, 0.5 / n), initial, n)),
        # the lattice's slice k + 1 is step k from the unit-mass kernel row
        "greens_function": (1.0, lambda: greens_function(
            model, DiscountCurve.flat(0.0), 0.0, 0.0, 0.5 / n * (n + 1), 0.5 / n,
            n_nodes=s.size)),
    }
    for name, (mass, march) in marches.items():
        applied.clear()
        scale[:] = [0.99881 / mass]
        with pytest.raises(ValueError, match=r"density mass 0\.9988"):
            march()


def _traced_peak(run) -> int:
    run()   # first-use imports and caches are not the march's memory
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_single_slice_routes_hold_memory_bounded_by_the_grid():
    # propagate and evolve_density return one slice: ten times the steps
    # must not cost ten times the memory
    model = make_bm(0.0, 1.0)
    # cells of 0.02, under the one-step std at dt 1/2000 (0.022), so that
    # propagate resolves its kernel
    s = np.linspace(-8.0, 8.0, 801)
    routes = {
        "propagate": lambda n: propagate(one_step_kernel(model, 0.0, 1.0 / n),
                                         point_mass_on_grid(s, 0.0), n),
        "evolve_density": lambda n: evolve_density(model, PointMass(center=0.0), 1.0,
                                                   n_steps=n, n_nodes=s.size),
    }
    for name, route in routes.items():
        short = _traced_peak(lambda: route(200))
        long = _traced_peak(lambda: route(2000))
        assert long <= 1.5 * short, (name, short, long)


def test_forward_slices_share_one_grid_and_hold_little_beyond_their_rows():
    # each slice used to copy the grid and the row on top of the march's own
    # row buffer: the peak read about 3x the bytes of the rows
    model = make_bm(0.0, 1.0)
    s = np.linspace(-12.0, 12.0, 801)
    start = point_mass_on_grid(s, 0.0)
    grid = TimeGrid(0.0, 1.0 / 500, 500)
    slices = fokker_planck_forward(model, start, grid)
    assert all(g.s_values is start.s_values for g in slices)
    rows = len(slices) * s.nbytes
    peak = _traced_peak(lambda: fokker_planck_forward(model, start, grid))
    assert peak <= 1.3 * rows, (peak, rows)


# ---------------------------------------------------------------------------
# backward solver


@pytest.mark.parametrize("s", [np.array([0.5]), np.array([0.0, 1.0]), np.full(41, 0.5),
                               np.linspace(3.0, -3.0, 601)],
                         ids=["one-node", "two-nodes", "constant", "decreasing"])
def test_backward_refuses_a_grid_that_is_short_or_not_increasing(s):
    # these raised IndexError, a LAPACK size error and a NaN error; the
    # decreasing grid read E[S_1^2 | S_0 = 0.5] as 9.0 where 0.34 is right
    model = make_bm(0.0, 0.3)
    with pytest.raises(ValueError, match="s_values"):
        kolmogorov_backward(model, lambda x: x * x, s, 0.0, 1.0)
    fn = kolmogorov_backward(model, lambda x: x * x, np.linspace(-3.0, 3.0, 601), 0.0, 1.0)
    assert float(fn(0.5)) == pytest.approx(0.34, rel=1e-9)


# mu 50 and sigma 0.02 on 27 nodes over +-0.25: the cell Peclet number
# |mu| h / sigma^2 is 2404, far past the M-matrix limit of 1
PECLET_CASE = (make_bm(50.0, 0.02), np.linspace(-0.25, 0.25, 27), 2.5)


@pytest.mark.parametrize("n_steps, step", [(23, 1), (92, 2), (5000, 93)])
def test_backward_total_variation_guard_names_the_grid_when_the_peclet_number_passes_1(
        n_steps, step):
    # the guard said "retry with dt <= ...", yet every dt aborted alike;
    # 2,701 nodes give 125.01 (exact 125)
    model, s, t1 = PECLET_CASE
    with pytest.raises(NumericalError, match=rf"total variation grew \S+x at step {step}: "
                       r"the cell Peclet number \|mu\| h / sigma\^2 is 2404, over 1; add "
                       r"grid nodes \(now 27\)"):
        kolmogorov_backward(model, lambda x: np.maximum(x, 0.0), s, 0.0, t1, n_steps=n_steps)


def test_backward_names_values_that_overflow():
    # a first step that amplifies terminal values near the float limit; the
    # next step would refuse the infinities as bad input, and a last step
    # would return them
    model, s, t1 = PECLET_CASE
    with pytest.raises(NumericalError, match="non-finite values at step 1"):
        kolmogorov_backward(model, lambda x: 1e306 * np.maximum(x, 0.0), s, 0.0, t1,
                            n_steps=23)


def test_backward_constant_terminal():
    model = make_vasicek(1.0, 0.05, 0.02)
    s = np.linspace(-0.05, 0.15, 401)
    fn = kolmogorov_backward(model, lambda x: np.ones_like(x), s, 0.0, 1.0)
    inner = fn(s[100:300])
    np.testing.assert_allclose(inner, 1.0, atol=1e-10)


def test_backward_linear_terminal_under_bm():
    mu, sigma = 0.2, 0.5
    model = make_bm(mu, sigma)
    s = np.linspace(-6.0, 8.0, 701)
    fn = kolmogorov_backward(model, lambda x: x, s, 0.0, 2.0)
    probe = np.array([-1.0, 0.0, 1.5])
    np.testing.assert_allclose(fn(probe), probe + mu * 2.0, rtol=1e-6)


def test_backward_linear_terminal_under_gbm():
    mu, sigma = 0.05, 0.2
    model = make_gbm(mu, sigma)
    s = np.linspace(20.0, 400.0, 1901)
    fn = kolmogorov_backward(model, lambda x: x, s, 0.0, 1.0)
    probe = np.array([80.0, 100.0, 120.0])
    np.testing.assert_allclose(fn(probe), probe * math.exp(mu), rtol=1e-3)


def test_backward_forward_duality():
    rng = np.random.default_rng(5)
    model = make_vasicek(1.2, 0.04, 0.015)
    s = np.linspace(-0.08, 0.16, 601)
    v0 = (3 * (s[1] - s[0])) ** 2
    center = 0.03
    p0 = np.exp(-0.5 * (s - center) ** 2 / v0) / math.sqrt(2 * math.pi * v0)
    initial = DensityGrid(s_values=s, p_values=p0, t=0.0)
    grid = TimeGrid(0.0, 1.0 / 200, 200)
    forward = fokker_planck_forward(model, initial, grid)[-1]
    w = trapezoid_weights(s)
    coeffs = rng.normal(size=3)

    def terminal(x):
        u = (x - 0.04) / 0.05
        return coeffs[0] + coeffs[1] * np.tanh(u) + coeffs[2] * np.exp(-u * u)

    backward = kolmogorov_backward(model, terminal, s, 0.0, 1.0)
    lhs = float(np.sum(w * forward.p_values * terminal(s)))
    rhs = float(np.sum(w * initial.p_values * backward(s)))
    assert lhs == pytest.approx(rhs, rel=1e-3)


# ---------------------------------------------------------------------------
# composition


def _bm_transition_matrix(mu, sigma, t_from, t_to, s):
    var = sigma ** 2 * (t_to - t_from)

    def pdf(src):
        def row(dst):
            return np.exp(-0.5 * (dst - src - mu * (t_to - t_from)) ** 2 / var) \
                / math.sqrt(2 * math.pi * var)
        return row

    return TransitionMatrix.from_pdf(pdf, t_from, t_to, s, s)


def test_compose_bm_halves_match_direct():
    mu, sigma, T = 0.1, 0.4, 1.0
    s = np.linspace(-4.0, 4.0, 801)
    half1 = _bm_transition_matrix(mu, sigma, 0.0, 0.5, s)
    half2 = _bm_transition_matrix(mu, sigma, 0.5, 1.0, s)
    direct = _bm_transition_matrix(mu, sigma, 0.0, T, s)
    composed = compose_transition(half1, half2)
    mid = len(s) // 2
    diff = np.abs(composed.matrix[mid] - direct.matrix[mid])
    assert diff.max() < 1e-3
    assert composed.t_from == 0.0 and composed.t_to == 1.0


def test_compose_gbm_halves_match_direct():
    mu, sigma, S0, T = 0.05, 0.2, 100.0, 1.0
    d = density_gbm(T, S0, mu, sigma)
    s = d.default_grid(801, 8.0)

    def pdf_for(dt_span):
        def pdf(src):
            return lambda dst: _lognormal_row(src, dst, dt_span)

        def _lognormal_row(src, dst, dt_span):
            src = np.asarray(src, dtype=float)
            var = sigma ** 2 * dt_span
            m = (mu - 0.5 * sigma ** 2) * dt_span
            out = np.zeros(np.broadcast(src, dst).shape)
            pos = dst > 0
            z = (np.log(np.broadcast_to(dst, out.shape)[pos]
                        / np.broadcast_to(src, out.shape)[pos]) - m)
            out[pos] = np.exp(-0.5 * z * z / var) / (
                np.broadcast_to(dst, out.shape)[pos]
                * math.sqrt(2 * math.pi * var))
            return out
        return pdf

    half1 = TransitionMatrix.from_pdf(pdf_for(0.5), 0.0, 0.5, s, s)
    half2 = TransitionMatrix.from_pdf(pdf_for(0.5), 0.5, 1.0, s, s)
    direct = TransitionMatrix.from_pdf(pdf_for(1.0), 0.0, 1.0, s, s)
    composed = compose_transition(half1, half2)
    i0 = int(np.argmin(np.abs(s - S0)))
    assert l1_distance(s, composed.matrix[i0], direct.matrix[i0]) < 5e-3


def test_compose_near_delta_is_identity():
    sigma = 0.4
    s = np.linspace(-4.0, 4.0, 801)
    h = s[1] - s[0]
    wide = _bm_transition_matrix(0.0, sigma, 0.0, 1.0, s)

    def near_delta(src):
        var = (0.5 * h) ** 2
        return lambda dst: (np.exp(-0.5 * (dst - src) ** 2 / var)
                            / math.sqrt(2 * math.pi * var))

    tiny = TransitionMatrix.from_pdf(near_delta, -1e-9, 0.0, s, s)
    composed = compose_transition(tiny, wide)
    mid = len(s) // 2
    assert l1_distance(s, composed.matrix[mid], wide.matrix[mid]) < 0.05


def test_transition_matrix_refuses_weights_that_are_not_finite():
    # an all-NaN matrix passed the sign and mass checks, built directly or
    # from a NaN pdf, and composing two of them gave a NaN matrix silently
    s = np.linspace(-4.0, 4.0, 41)
    with pytest.raises(ValueError, match="transition weights must be finite"):
        TransitionMatrix(t_from=0.0, t_to=1.0, source_values=s, target_values=s,
                         matrix=np.full((s.size, s.size), np.nan))
    with pytest.raises(ValueError, match="transition weights must be finite"):
        TransitionMatrix.from_pdf(lambda s0: lambda x: np.full_like(x, np.nan),
                                  0.0, 1.0, s, s)


def test_compose_grid_mismatch():
    s1 = np.linspace(-4.0, 4.0, 801)
    s2 = np.linspace(-4.0, 4.0, 401)
    a = _bm_transition_matrix(0.0, 1.0, 0.0, 0.5, s1)
    b = _bm_transition_matrix(0.0, 1.0, 0.5, 1.0, s2)
    with pytest.raises(ValueError, match="grid mismatch"):
        compose_transition(a, b)
