#!/usr/bin/env python3
"""One sha256 per pricing or density route, over fixed inputs.

Each case feeds its route's hash with the float64 bytes of what it returns,
or, when the route refuses the case, with the error's class and message. Two
runs that print the same lines computed the same bits, so the script checks
that a rerun repeats itself and that a change to the library kept every
output: it hashes the stochastica found on PYTHONPATH, for example

    PYTHONPATH=src python scripts/output_digest.py
    PYTHONPATH=/path/to/other/checkout/src python scripts/output_digest.py

and the two outputs are compared with diff.
"""

import hashlib
import itertools

import numpy as np

import stochastica as st

CURVE = st.DiscountCurve.flat(0.05)


def pv_pde_cases():
    payoffs = (st.call_payoff, st.put_payoff, st.digital_payoff)
    for sigma, T, K, payoff in itertools.product((0.1, 0.2, 0.4), (0.25, 1.0, 2.0),
                                                 (80.0, 100.0, 120.0), payoffs):
        yield lambda: st.pv_pde(payoff(K), CURVE, sigma, 100.0, T, n_nodes=1025, n_steps=128)
    local = (lambda t, s: np.full_like(s, 0.2 + 0.01 * t),
             lambda t, s: 0.2 + 0.05 * np.tanh(np.log(s / 100.0) + t))
    for sigma in local:
        yield lambda: st.pv_pde(st.call_payoff(100.0), CURVE, sigma, 100.0, 1.0,
                                n_nodes=513, n_steps=64)
    stream = st.PayoffSpec(terminal=lambda s: np.maximum(s - 100.0, 0.0),
                           stream=lambda t, s: 0.01 * s)
    yield lambda: st.pv_pde(stream, CURVE, 0.25, 100.0, 1.0, n_nodes=513, n_steps=64)
    for r in (-0.5, 0.0, 0.5, 2.0, 5.0):
        yield lambda: st.pv_pde(st.put_payoff(100.0), st.DiscountCurve.flat(r), 0.2, 100.0,
                                1.0, n_nodes=513, n_steps=64)


def kolmogorov_backward_cases():
    models = ((st.make_bm(0.0, 0.5), np.linspace(-4.0, 4.0, 161)),
              (st.make_bm(0.3, 0.5), np.linspace(-4.0, 4.0, 161)),
              (st.make_gbm(0.05, 0.3), np.linspace(10.0, 400.0, 391)),
              (st.make_vasicek(2.0, 0.05, 0.02), np.linspace(-0.1, 0.2, 151)),
              (st.make_bm(50.0, 0.02), np.linspace(-0.25, 0.25, 27)))  # cell Peclet 2404
    for (model, s), n_steps in itertools.product(models, (1, 7, 200)):
        mid = s[s.size // 2]
        for terminal in (lambda x: x, lambda x: (x - mid) ** 2,
                         lambda x: np.maximum(x - mid, 0.0), lambda x: np.tanh(x - mid)):
            yield lambda: st.kolmogorov_backward(model, terminal, s, 0.0, 1.0,
                                                 n_steps=n_steps)


def pv_green_cases():
    for model in (st.make_gbm(0.05, 0.2), st.make_gbm(0.0, 0.4)):
        green = st.greens_function(model, CURVE, 0.0, 100.0, 1.0, 1.0 / 16, n_nodes=301)
        for payoff in (st.call_payoff(100.0), st.put_payoff(90.0), st.digital_payoff(110.0)):
            yield lambda: st.pv_green(green, payoff)


def evolve_density_cases():
    for model, S0 in ((st.make_bm(0.1, 0.5), 0.0), (st.make_gbm(0.05, 0.2), 100.0),
                      (st.make_vasicek(2.0, 0.05, 0.02), 0.03)):
        yield lambda: st.evolve_density(model, st.PointMass(S0), 1.0, n_steps=50,
                                        n_nodes=201)


def propagate_cases():
    s = np.linspace(-0.1, 0.2, 241)
    for model in (st.make_bm(0.01, 0.02), st.make_vasicek(2.0, 0.05, 0.02)):
        yield lambda: st.propagate(st.one_step_kernel(model, 0.0, 1.0 / 32),
                                   st.point_mass_on_grid(s, 0.03), 32)


def pv_mc_cases():
    for exact, payoff in itertools.product((False, True), (st.call_payoff(100.0),
                                                           st.put_payoff(90.0))):
        yield lambda: st.pv_mc(st.make_gbm(0.05, 0.2), CURVE, payoff, 100.0, 1.0, 1.0 / 32,
                               4096, 7, exact_terminal=exact)


def _outputs(result):
    """The arrays a route's result holds, in a fixed order."""
    if isinstance(result, st.GridFunction):
        return result.s_values, result.values
    if isinstance(result, st.DensityGrid):
        return result.s_values, result.p_values, result.t
    if isinstance(result, st.MCEstimate):
        return result.mean, result.std_error
    return (result,)


def digest(cases) -> tuple[int, int, str]:
    """(cases run, cases refused, sha256). Each case runs before the next is
    made, so its lambda reads the loop variables of its own iteration."""
    h, count, refused = hashlib.sha256(), 0, 0
    for count, run in enumerate(cases, 1):
        try:
            for out in _outputs(run()):
                h.update(np.ascontiguousarray(out, dtype=np.float64).tobytes())
        except (ValueError, st.NumericalError) as exc:
            refused += 1
            h.update(f"{type(exc).__name__}: {exc}".encode())
    return count, refused, h.hexdigest()


def main():
    for name, cases in (("pv_pde", pv_pde_cases), ("kolmogorov_backward",
                                                   kolmogorov_backward_cases),
                        ("pv_green", pv_green_cases), ("evolve_density", evolve_density_cases),
                        ("propagate", propagate_cases), ("pv_mc", pv_mc_cases)):
        count, refused, sha = digest(cases())
        print(f"{name:20} {count:3} cases {refused:2} refused  {sha}")


if __name__ == "__main__":
    main()
