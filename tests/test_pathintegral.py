"""Short-time kernels, lattice propagation, Green's functions."""

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.stats import norm

from stochastica import (
    DensityGrid,
    DiscountCurve,
    NumericalError,
    compose_transition,
    greens_function,
    kernel_matrix,
    make_bm,
    make_correlated_gbm,
    make_gbm,
    make_vasicek,
    one_step_kernel,
    pi_expectation,
    point_mass_on_grid,
    propagate,
    risk_neutralize,
)
from stochastica import pathintegral
from stochastica.density import TransitionMatrix, quadrature_apply, trapezoid_weights
from stochastica.pathintegral import _WINDOW_STD


def l1_distance(s, p, q):
    return float(np.sum(trapezoid_weights(s) * np.abs(p - q)))


# ---------------------------------------------------------------------------
# one-step kernels


def test_kernel_weight_matches_gaussian_oracle():
    mu, sigma, dt = 0.1, 0.2, 0.01
    k = one_step_kernel(make_bm(mu, sigma), 0.0, dt)
    s_to = np.linspace(0.8, 1.2, 41)
    got = k.weight(0.0, 1.0, s_to)
    want = norm.pdf(s_to, loc=1.0 + mu * dt, scale=sigma * math.sqrt(dt))
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_kernel_weight_state_dependence():
    # vasicek: the drifted center moves toward b from either side
    a, b, sigma, dt = 2.0, 0.05, 0.02, 0.25
    k = one_step_kernel(make_vasicek(a, b, sigma), 0.0, dt)
    assert k.mean(0.0, 0.03) == pytest.approx(0.03 + a * 0.02 * dt)
    assert k.mean(0.0, 0.07) == pytest.approx(0.07 - a * 0.02 * dt)
    assert float(np.asarray(k.std(0.0, 0.03))) == pytest.approx(
        sigma * math.sqrt(dt))
    # gbm: both center offset and width scale with the departure price
    kg = one_step_kernel(make_gbm(0.05, 0.2), 0.0, dt)
    assert float(np.asarray(kg.std(0.0, 100.0))) == pytest.approx(
        2.0 * float(np.asarray(kg.std(0.0, 50.0))))


def test_kernel_weight_broadcasts():
    k = one_step_kernel(make_bm(0.0, 0.3), 0.0, 0.04)
    s_from = np.array([[0.0], [1.0]])
    s_to = np.linspace(-1.0, 2.0, 7)
    got = k.weight(0.0, s_from, s_to)
    assert got.shape == (2, 7)
    np.testing.assert_allclose(got[0], k.weight(0.0, 0.0, s_to), rtol=1e-15)
    np.testing.assert_allclose(got[1], k.weight(0.0, 1.0, s_to), rtol=1e-15)


def test_kernel_validation():
    with pytest.raises(ValueError, match="dt"):
        one_step_kernel(make_bm(0.0, 1.0), 0.0, 0.0)
    with pytest.raises(ValueError, match="one-dimensional"):
        one_step_kernel(make_correlated_gbm([0.0, 0.0], [0.2, 0.2],
                                            [[1.0, 0.0], [0.0, 1.0]]), 0.0, 0.01)


def test_zero_volatility_kernel_is_an_input_error():
    k = one_step_kernel(make_bm(0.5, 0.0), 0.0, 0.01)
    with pytest.raises(ValueError,
                       match="vanishes at S=.*1.0.*: transition is a deterministic shift"):
        k.weight(0.0, 1.0, np.array([1.0, 1.1]))
    with pytest.raises(ValueError,
                       match="vanishes at S=0.0: transition is a deterministic shift"):
        kernel_matrix(k, 0.0, np.linspace(0.0, 1.0, 5))


# ---------------------------------------------------------------------------
# kernel discretization


def test_kernel_matrix_rows_normalized():
    k = one_step_kernel(make_bm(0.1, 0.4), 0.0, 1.0 / 64)
    s = np.linspace(-2.0, 2.0, 401)
    tm = kernel_matrix(k, 0.0, s)
    w = trapezoid_weights(s)
    np.testing.assert_allclose(tm.matrix @ w, np.ones(s.size), rtol=1e-12)
    assert np.all(tm.matrix.toarray() >= 0.0)
    # interior rows are fully covered, edge rows are truncated
    assert tm.raw_row_mass[s.size // 2] == pytest.approx(1.0, abs=1e-9)
    assert tm.raw_row_mass[0] < 0.75


def test_kernel_matrix_rejects_uncovered_grid():
    # a drift of 1 a step carries the top node's row off the grid, so it has
    # no mass (a one-node grid, which did the same, is refused by name now)
    k = one_step_kernel(make_bm(100.0, 0.1), 0.0, 0.01)
    with pytest.raises(NumericalError, match="does not cover the one-step transition"):
        kernel_matrix(k, 0.0, np.array([0.0, 1.0]))


def dense_kernel_reference(kernel, t, s):
    """The dense windowed construction: every entry of the full matrix is
    computed, those with |z| > 8 are zeroed, rows are normalized by their
    trapezoid mass."""
    s = np.asarray(s, dtype=float)
    mean = kernel.mean(t, s)
    std = kernel.std(t, s)
    z = (s[None, :] - mean[:, None]) / std[:, None]
    rows = np.where(np.abs(z) <= _WINDOW_STD, np.exp(-0.5 * z * z),
                    0.0) / (np.sqrt(2 * math.pi) * std[:, None])
    raw = rows @ trapezoid_weights(s)
    return rows / raw[:, None], raw


KERNEL_CASES = {
    "bm": (make_bm(0.1, 0.3), np.linspace(-2.5, 2.7, 801), 1.0 / 200),
    "gbm": (make_gbm(0.05, 0.2), np.linspace(40.0, 250.0, 801), 1.0 / 200),
    "gbm-log": (make_gbm(0.05, 0.2).family.log_space(),
                np.linspace(3.0, 6.2, 1601), 1.0 / 400),
    "vasicek": (make_vasicek(1.0, 0.05, 0.02), np.linspace(-0.03, 0.09, 1601),
                1.0 / 400),
}


def assert_matches_dense_reference(tm, kernel, s):
    dense, raw = dense_kernel_reference(kernel, 0.0, s)
    assert tm.matrix.format == "csr"
    got = tm.matrix.toarray()
    assert np.array_equal(got != 0, dense != 0)
    assert tm.matrix.nnz == np.count_nonzero(dense)
    nz = dense != 0
    np.testing.assert_allclose(got[nz], dense[nz], rtol=1e-15, atol=0)
    np.testing.assert_allclose(tm.raw_row_mass, raw, rtol=1e-15, atol=0)


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_kernel_matrix_matches_dense_windowed_construction(name):
    model, s, dt = KERNEL_CASES[name]
    k = one_step_kernel(model, 0.0, dt)
    tm = kernel_matrix(k, 0.0, s)
    assert_matches_dense_reference(tm, k, s)
    assert tm.matrix.nnz < 0.6 * s.size ** 2


def test_kernel_matrix_rejects_a_non_increasing_target_grid():
    k = one_step_kernel(make_bm(0.0, 0.3), 0.0, 1.0 / 16)
    s = np.linspace(-1.0, 1.0, 21)
    for grid in (s[::-1], np.concatenate([s[:10], s[9:]])):
        with pytest.raises(ValueError, match="strictly increasing"):
            kernel_matrix(k, 0.0, grid)


def test_sparse_transition_matrix_keeps_its_checks():
    s = np.linspace(-1.0, 1.0, 41)
    tm = kernel_matrix(one_step_kernel(make_bm(0.0, 0.3), 0.0, 1.0 / 16), 0.0, s)
    negative = tm.matrix.copy()
    negative.data[5] = -negative.data[5]
    with pytest.raises(ValueError, match=">= 0"):
        TransitionMatrix(t_from=0.0, t_to=1.0, source_values=s,
                         target_values=s, matrix=negative)
    heavy = tm.matrix.copy()
    heavy.data[heavy.indptr[7]:heavy.indptr[8]] *= 1.01
    with pytest.raises(ValueError, match="row 7"):
        TransitionMatrix(t_from=0.0, t_to=1.0, source_values=s,
                         target_values=s, matrix=heavy)


def test_compose_sparse_kernels_and_dense_pdf_families():
    s = np.linspace(-2.0, 2.0, 201)
    w = trapezoid_weights(s)
    k = one_step_kernel(make_bm(0.05, 0.4), 0.0, 1.0 / 16)
    tm = kernel_matrix(k, 0.0, s)
    dense, _ = dense_kernel_reference(k, 0.0, s)

    both = compose_transition(tm, tm)                     # CSR o CSR
    np.testing.assert_allclose(both.matrix.toarray(), (dense * w) @ dense,
                               rtol=1e-12, atol=1e-12)
    p0 = norm.pdf(s, scale=0.3)
    np.testing.assert_allclose(
        quadrature_apply(w, p0, both.matrix),
        quadrature_apply(w, quadrature_apply(w, p0, tm.matrix), tm.matrix),
        rtol=1e-9, atol=1e-12)

    wide = TransitionMatrix.from_pdf(                     # dense o CSR
        lambda x0: (lambda x: norm.pdf(x, loc=x0, scale=0.2)), 0.0, 0.5, s, s)
    mixed = compose_transition(wide, tm)
    assert isinstance(mixed.matrix, np.ndarray)
    np.testing.assert_allclose(mixed.matrix, (wide.matrix * w) @ dense,
                               rtol=1e-12, atol=1e-12)
    assert mixed.t_to == tm.t_to


# ---------------------------------------------------------------------------
# propagation


def test_propagate_zero_steps_is_identity():
    s = np.linspace(-3.0, 3.0, 101)
    initial = point_mass_on_grid(s, 0.0)
    k = one_step_kernel(make_bm(0.0, 1.0), 0.0, 0.01)
    assert propagate(k, initial, 0) is initial


def test_propagate_matches_bm_closed_form():
    mu, sigma, T, n = 0.1, 0.3, 1.0, 64
    s = np.linspace(-2.5, 2.7, 1301)
    initial = point_mass_on_grid(s, 0.0)
    k = one_step_kernel(make_bm(mu, sigma), 0.0, T / n)
    final = propagate(k, initial, n)
    want = norm.pdf(s, loc=mu * T, scale=sigma * math.sqrt(T))
    assert l1_distance(s, final.p_values, want) < 1e-3
    assert final.mass == pytest.approx(1.0, abs=1e-9)
    assert final.t == pytest.approx(T)


def test_propagate_agrees_with_composed_matrices():
    s = np.linspace(-3.0, 3.0, 301)
    w = trapezoid_weights(s)
    p0 = norm.pdf(s, loc=0.0, scale=0.4)
    initial = DensityGrid(s_values=s, p_values=p0, t=0.0)
    k = one_step_kernel(make_bm(0.05, 0.5), 0.0, 0.125)
    tm = kernel_matrix(k, 0.0, s)

    # sequential quadrature is the exact op propagate performs
    p2 = quadrature_apply(w, quadrature_apply(w, p0, tm.matrix), tm.matrix)
    out = propagate(k, initial, 2)
    assert np.array_equal(out.p_values, p2)

    # pre-composing the two matrices reassociates the same sums
    both = compose_transition(tm, tm)
    pc = quadrature_apply(w, p0, both.matrix)
    np.testing.assert_allclose(pc, p2, rtol=1e-9, atol=1e-12)


def test_propagate_equals_step_by_step_composition_bit_for_bit():
    # compose_transition and propagate share quadrature_apply, so chaining
    # one-step compositions reproduces the lattice to the last bit
    for model, s in ((make_bm(0.1, 0.3), np.linspace(-2.0, 2.2, 401)),
                     (make_vasicek(1.0, 0.05, 0.02), np.linspace(-0.03, 0.09, 301))):
        initial = point_mass_on_grid(s, float(s[s.size // 2]))
        k = one_step_kernel(model, 0.0, 1.0 / 16)
        tm = kernel_matrix(k, 0.0, s)
        chained = initial
        for _ in range(16):
            chained = compose_transition(chained, tm)
        out = propagate(k, initial, 16)
        assert np.array_equal(out.p_values, chained.p_values)
        assert np.array_equal(out.s_values, s)
        assert out.t == 15 * (1.0 / 16) + 1.0 / 16


def test_greens_slices_equal_step_by_step_composition_bit_for_bit():
    rn, curve = _rn_gbm(0.05, 0.2)
    g = greens_function(rn, curve, 0.0, 100.0, 1.0, 1.0 / 32, n_nodes=401)
    x = g.native_values
    k = one_step_kernel(make_bm(0.05 - 0.5 * 0.2 ** 2, 0.2), 0.0, 1.0 / 32)
    tm = kernel_matrix(k, 0.0, x)
    assert g.transition.shape == (33, x.size)
    assert np.array_equal(g.transition[0],
                          point_mass_on_grid(x, math.log(100.0)).p_values)
    chained = DensityGrid(s_values=x, p_values=g.transition[1], t=1.0 / 32)
    for m in range(2, 33):
        chained = compose_transition(chained, tm)
        assert np.array_equal(g.transition[m], chained.p_values)


def test_propagate_aborts_when_grid_too_narrow():
    s = np.linspace(-1.5, 1.5, 301)
    initial = point_mass_on_grid(s, 0.0)
    k = one_step_kernel(make_bm(0.0, 1.0), 0.0, 1.0 / 32)
    with pytest.raises(NumericalError, match="narrow"):
        propagate(k, initial, 32)


@pytest.mark.parametrize("half_width", [8.0, 40.0])
def test_propagate_names_the_cells_a_point_mass_start_lacks(half_width):
    # a one-cell-wide start widens with the grid: this used to say "widen
    # the grid" for +-8 and +-40 alike
    start = point_mass_on_grid(np.linspace(-half_width, half_width, 11), 0.0)
    with pytest.raises(ValueError, match="about one cell wide and lies 5 cells from the "
                       "nearer edge, which needs about seven: add nodes or move that edge away"):
        propagate(one_step_kernel(make_bm(0.0, 1.0), 0.0, 1.0 / 16), start, 16)


@pytest.mark.parametrize("n_nodes", [41, 101, 201])
def test_propagate_refuses_a_cell_wider_than_the_one_step_kernel(n_nodes):
    # these returned variance 0.160, 0.026 and 0.489 (exact 1) with no error:
    # a kernel narrower than a cell is sampled at the nodes, not integrated
    start = point_mass_on_grid(np.linspace(-8.0, 8.0, n_nodes), 0.0)
    with pytest.raises(ValueError, match=r"the grid cell is wider than the one-step kernel "
                       r"\(\S+ excess row mass at step 1\): add nodes or lengthen dt"):
        propagate(one_step_kernel(make_bm(0.0, 1.0), 0.0, 1e-3), start, 1000)


def test_propagate_keeps_a_cell_just_wider_than_the_kernel_std_that_it_resolves():
    # cell 0.04 against a one-step std of 0.0316: the rows still integrate
    s = np.linspace(-8.0, 8.0, 401)
    out = propagate(one_step_kernel(make_bm(0.0, 1.0), 0.0, 1e-3),
                    point_mass_on_grid(s, 0.0), 1000)
    variance = float(np.sum(trapezoid_weights(s) * out.p_values * s * s))
    assert variance == pytest.approx(1.0, rel=2e-3)


def test_leak_abort_reports_an_earlier_bad_slice_of_its_window(monkeypatch):
    # the grid is too narrow: the leak aborts the march late, and a slice
    # that fails the density checks before the abort is the error reported,
    # with the march stopped at that slice
    s = np.linspace(-1.5, 1.5, 301)
    k = one_step_kernel(make_bm(0.0, 1.0), 0.0, 1.0 / 400)
    start = point_mass_on_grid(s, 0.0)
    with pytest.raises(NumericalError, match=r"narrow") as clean:
        propagate(k, start, 400)
    abort = int(str(clean.value).split("by step ")[1].split(";")[0])
    assert 84 < abort <= 128
    real_apply, calls = pathintegral.quadrature_apply, []

    def apply(w, p, matrix):
        calls.append(1)
        q = real_apply(w, p, matrix)
        return 0.99851 * q if len(calls) == 84 else q   # mass 0.9985...

    monkeypatch.setattr(pathintegral, "quadrature_apply", apply)
    with pytest.raises(ValueError, match=r"density mass 0\.9985"):
        propagate(k, start, 400)
    assert len(calls) == 84


@pytest.mark.parametrize("n_steps", [1, 63, 64, 65, 131])
def test_propagate_equals_a_plain_quadrature_loop_across_windows(n_steps):
    # propagate keeps only the latest slice; its result is the last of a
    # loop that keeps them all
    s = np.linspace(-2.0, 2.2, 401)
    w = trapezoid_weights(s)
    initial = point_mass_on_grid(s, 0.1)
    k = one_step_kernel(make_bm(0.1, 0.3), 0.0, 1.0 / 256)
    tm = kernel_matrix(k, 0.0, s)
    p = initial.p_values
    for _ in range(n_steps):
        p = quadrature_apply(w, p, tm.matrix)
    assert np.array_equal(propagate(k, initial, n_steps).p_values, p)


def test_propagate_input_validation():
    s = np.linspace(-3.0, 3.0, 101)
    initial = point_mass_on_grid(s, 0.0)
    k = one_step_kernel(make_bm(0.0, 1.0), 0.0, 0.01)
    with pytest.raises(ValueError):
        propagate(k, initial, -1)
    with pytest.raises(ValueError):
        propagate(k, initial, 1.5)
    # a density pressed against the edges is refused up front
    flat = DensityGrid(s_values=s, p_values=np.full(s.size, 1.0 / 6.0), t=0.0)
    with pytest.raises(ValueError, match="widen"):
        propagate(k, flat, 1)


def test_time_dependent_override_drift_is_not_frozen():
    # drift 0 before t = 0.5 and 1 after: the mean moves by 0.5, which a
    # kernel frozen at t0 would miss entirely
    curve = DiscountCurve(times=(0.0,), rates=(0.0,))
    rn = risk_neutralize(make_bm(0.0, 1.0), curve,
                         override_drift=lambda t, S: np.full_like(S, 0.0 if t < 0.5 else 1.0))
    s = np.linspace(-7.0, 8.0, 801)
    out = propagate(one_step_kernel(rn, 0.0, 1.0 / 200), point_mass_on_grid(s, 0.0), 200)
    assert out.mean == pytest.approx(0.5, abs=0.01)


def test_time_dependent_rate_is_not_frozen():
    # a gbm risk-neutralized on a curve whose rate steps from 0 to 0.4 at
    # t = 0.5 has E S_1 = 100 e^0.2, as the backward solver finds; a kernel
    # kept from t0 leaves the mean at 100
    curve = DiscountCurve(times=(0.0, 0.5), rates=(0.0, 0.4))
    rn = risk_neutralize(make_gbm(0.05, 0.2), curve)
    s = np.linspace(20.0, 300.0, 1601)
    out = propagate(one_step_kernel(rn, 0.0, 1 / 200), point_mass_on_grid(s, 100.0), 200)
    assert out.mean == pytest.approx(100.0 * math.exp(0.2), rel=1e-3)


@pytest.mark.parametrize("n_steps", [True, math.nan, 2.0, np.float64(3.0)])
def test_propagate_rejects_a_step_count_that_is_not_an_integer(n_steps):
    s = np.linspace(-3.0, 3.0, 101)
    k = one_step_kernel(make_bm(0.0, 1.0), 0.0, 0.01)
    with pytest.raises(ValueError, match="n_steps"):
        propagate(k, point_mass_on_grid(s, 0.0), n_steps)


# ---------------------------------------------------------------------------
# Green's functions


def _rn_gbm(r, sigma):
    curve = DiscountCurve(times=(0.0,), rates=(r,))
    return risk_neutralize(make_gbm(0.0, sigma), curve), curve


def test_greens_neutralizes_the_model_on_its_curve():
    curve = DiscountCurve(times=(0.0,), rates=(0.05,))
    physical = greens_function(make_gbm(0.12, 0.2), curve, 0.0, 100.0, 1.0, 1.0 / 64)
    twin = greens_function(risk_neutralize(make_gbm(0.12, 0.2), curve), curve,
                           0.0, 100.0, 1.0, 1.0 / 64)
    for field in ("times", "native_values", "price_values", "transition", "discounts"):
        assert np.array_equal(getattr(physical, field), getattr(twin, field)), field
    # a bm is not price-homogeneous: its risk-neutral drift is the caller's to give
    with pytest.raises(ValueError, match="override_drift"):
        greens_function(make_bm(0.05, 0.2), curve, 0.0, 100.0, 1.0, 1.0 / 64)


def test_greens_mass_equals_discount():
    r, sigma = 0.05, 0.2
    model, curve = _rn_gbm(r, sigma)
    g = greens_function(model, curve, 0.0, 100.0, 1.0, 1.0 / 64)
    assert g.total_mass(0) == pytest.approx(1.0, abs=1e-12)
    assert g.total_mass(32) == pytest.approx(math.exp(-r * 0.5), abs=1e-9)
    assert g.total_mass(-1) == pytest.approx(math.exp(-r * 1.0), abs=1e-9)


def test_greens_terminal_slice_matches_lognormal():
    r, sigma, S0, T = 0.05, 0.2, 100.0, 1.0
    model, curve = _rn_gbm(r, sigma)
    g = greens_function(model, curve, 0.0, S0, T, 1.0 / 64)
    assert g.log_coordinates
    x = g.native_values
    m = math.log(S0) + (r - 0.5 * sigma ** 2) * T
    want_x = norm.pdf(x, loc=m, scale=sigma * math.sqrt(T))
    assert l1_distance(x, g.transition[-1], want_x) < 1e-3

    # per-unit-price values carry the jacobian and the discount
    mid = slice(x.size // 4, 3 * x.size // 4)
    S = g.price_values[mid]
    want_S = math.exp(-r * T) * want_x[mid] / S
    np.testing.assert_allclose(g.values()[-1][mid], want_S, rtol=2e-3)


def test_greens_times_and_shapes():
    model, curve = _rn_gbm(0.02, 0.3)
    g = greens_function(model, curve, 0.5, 50.0, 1.0, 0.125, n_nodes=201)
    assert g.transition.shape == (5, 201)
    np.testing.assert_allclose(g.times, 0.5 + 0.125 * np.arange(5), rtol=1e-15)
    np.testing.assert_allclose(g.price_values, np.exp(g.native_values),
                               rtol=1e-15)
    with pytest.raises(ValueError):
        greens_function(model, curve, 0.0, 50.0, 1.0, 0.3)
    with pytest.raises(ValueError, match=r"^t must exceed t0$"):
        greens_function(model, curve, 1.0, 50.0, 1.0, 0.125)


def test_greens_integrate_prices_forward():
    # discounted expectation of S itself is the spot for a martingale law
    r, sigma, S0, T = 0.05, 0.2, 100.0, 1.0
    model, curve = _rn_gbm(r, sigma)
    g = greens_function(model, curve, 0.0, S0, T, 1.0 / 64)
    assert g.integrate(lambda s: s) == pytest.approx(S0, rel=1e-4)


@pytest.mark.parametrize("S0", [0.0, -5.0])
def test_greens_on_a_log_space_family_refuses_a_spot_at_or_below_zero(S0):
    # log(S0) used to raise "math domain error"
    model, curve = _rn_gbm(0.05, 0.2)
    with pytest.raises(ValueError, match=re.escape(f"needs S > 0; S0 = {S0!r}")):
        greens_function(model, curve, 0.0, S0, 1.0, 1.0 / 64)


def test_greens_names_a_non_flat_curve():
    curve = DiscountCurve(times=(0.0, 1.0), rates=(0.02, 0.06))
    model = risk_neutralize(make_gbm(0.1, 0.2), curve)
    with pytest.raises(ValueError, match="non-flat curve"):
        greens_function(model, curve, 0.0, 100.0, 1.0, 1.0 / 64)


def test_greens_names_the_missing_domain_rule_for_an_override():
    curve = DiscountCurve(times=(0.0,), rates=(0.05,))
    model = risk_neutralize(make_bm(0.0, 1.0), curve,
                            override_drift=lambda t, S: 0.05 * S)
    with pytest.raises(ValueError, match="no default domain rule") as err:
        greens_function(model, curve, 0.0, 1.0, 1.0, 1.0 / 64)
    assert "drift overridden" in str(err.value)
    assert "DensityGrid" not in str(err.value)


@pytest.mark.parametrize("n_nodes, dt", [(41, 1e-3), (401, 1e-3), (101, 1.0 / 64),
                                         (129, 1.0 / 64)])
def test_greens_refuses_a_cell_wider_than_the_one_step_std(n_nodes, dt):
    # the lattice used to return a silently wrong law: pv_green was 86% low
    # at 41 nodes, 0.88% at 321 and 2.1e-4 at 401 (dt 1e-3)
    model, curve = _rn_gbm(0.05, 0.2)
    std = 0.2 * math.sqrt(dt)
    with pytest.raises(ValueError, match=rf"grid cell \S+ is wider than the one-step "
                       rf"kernel's std {std:.4g}: raise n_nodes \(now {n_nodes}\) "
                       r"or lengthen dt \(now "):
        greens_function(model, curve, 0.0, 100.0, 1.0, dt, n_nodes=n_nodes)


def test_greens_on_the_narrowest_accepted_cell_prices_to_bs():
    # 131 nodes put the cell just under the one-step std at dt 1/64
    model, curve = _rn_gbm(0.05, 0.2)
    g = greens_function(model, curve, 0.0, 100.0, 1.0, 1.0 / 64, n_nodes=131)
    assert g.native_values[1] - g.native_values[0] <= 0.2 * math.sqrt(1.0 / 64)
    bs = 10.450583572185565   # Black-Scholes ATM call, S0 = K = 100, r 0.05, sigma 0.2
    assert g.integrate(lambda s: np.maximum(s - 100.0, 0.0)) == pytest.approx(bs, rel=1e-3)


def test_greens_refuses_a_first_step_that_leaves_the_grid():
    # an Euler step of a * dt = 100 throws the kernel's center to -99, far
    # beyond a grid sized by the exact law, which stays near b = 0
    model = dataclasses.replace(make_vasicek(100.0, 0.0, 1.0), risk_neutral=True)
    with pytest.raises(NumericalError, match="does not cover the one-step transition"):
        greens_function(model, DiscountCurve.flat(0.05), 0.0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# kernel-law Monte Carlo


def test_pi_expectation_constant_functional():
    est = pi_expectation(make_gbm(0.05, 0.2), lambda s: np.ones_like(s),
                         0.0, 100.0, 1.0, 0.25, 500, seed=3)
    assert est.mean == pytest.approx(1.0, abs=1e-15)
    assert est.std_error == 0.0
    assert est.metadata["method"] == "pathintegral"


def test_pi_expectation_matches_discrete_gbm_mean():
    # the one-step chain has mean S0*(1 + mu*dt)^n exactly
    mu, sigma, S0, T, n_steps = 0.05, 0.2, 100.0, 1.0, 16
    dt = T / n_steps
    est = pi_expectation(make_gbm(mu, sigma), lambda s: s,
                         0.0, S0, T, dt, 200_000, seed=11)
    want = S0 * (1.0 + mu * dt) ** n_steps
    assert abs(est.mean - want) < 3.0 * est.std_error


def test_pi_expectation_validation():
    model = make_gbm(0.05, 0.2)
    f = lambda s: s
    with pytest.raises(ValueError, match=r"^T must exceed t0$"):
        pi_expectation(model, f, 0.0, 100.0, 0.0, 0.25, 100, seed=0)
    with pytest.raises(ValueError):
        pi_expectation(model, f, 0.0, 100.0, 1.0, 0.3, 100, seed=0)
    with pytest.raises(ValueError):
        pi_expectation(model, f, 0.0, 100.0, 1.0, 0.25, 0, seed=0)


@pytest.mark.parametrize("S0", [math.inf, math.nan])
def test_pi_expectation_refuses_a_non_finite_start_by_name(S0):
    # it used to march the start and raise NumericalError naming dt and the maps
    with pytest.raises(ValueError, match="S0 must be finite"):
        pi_expectation(make_gbm(0.05, 0.2), lambda s: s, 0.0, S0, 1.0, 0.25, 100, seed=0)


def test_pi_expectation_rejects_nonfinite_functional():
    with pytest.raises(NumericalError, match="non-finite"):
        pi_expectation(make_gbm(0.05, 0.2), lambda s: np.full_like(s, np.inf),
                       0.0, 100.0, 1.0, 0.25, 100, seed=0)
