#!/usr/bin/env python3
"""Cross-method pricing table for European calls under GBM.

Prints the closed-form value next to the backward PDE solve, the
discounted lattice propagator, and Monte Carlo, with relative errors
and the MC z-score. Useful as a quick health check of all four routes.
"""

import argparse
import time

from stochastica import (
    BSParams,
    DiscountCurve,
    bs_price,
    call_payoff,
    greens_function,
    make_gbm,
    pv_green,
    pv_mc,
    pv_pde,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spot", type=float, default=100.0)
    ap.add_argument("--rate", type=float, default=0.05)
    ap.add_argument("--strikes", type=float, nargs="+",
                    default=[80.0, 100.0, 120.0])
    ap.add_argument("--sigmas", type=float, nargs="+", default=[0.1, 0.2, 0.4])
    ap.add_argument("--horizons", type=float, nargs="+", default=[0.25, 1.0])
    ap.add_argument("--paths", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    S0, r = args.spot, args.rate
    curve = DiscountCurve.flat(r)
    print(f"{'K':>7} {'sigma':>6} {'T':>5} {'analytic':>12} {'pde rel':>9} "
          f"{'green rel':>9} {'mc z':>6}")
    start = time.monotonic()
    for sigma in args.sigmas:
        model = make_gbm(r, sigma)
        for T in args.horizons:
            # one lattice per (sigma, T), shared across strikes
            green = greens_function(model, curve, 0.0, S0, T, T / 256)
            for K in args.strikes:
                ref = bs_price(BSParams(S=S0, K=K, r=r, sigma=sigma, t=T))
                payoff = call_payoff(K)
                pde = float(pv_pde(payoff, curve, sigma, S0, T)(S0))
                grn = pv_green(green, payoff)
                est = pv_mc(model, curve, payoff, S0, T, T / 64, args.paths,
                            args.seed)
                z = (est.mean - ref) / est.std_error
                print(f"{K:7.2f} {sigma:6.2f} {T:5.2f} {ref:12.6f} "
                      f"{abs(pde - ref) / ref:9.2e} "
                      f"{abs(grn - ref) / ref:9.2e} {z:6.2f}")
    print(f"elapsed {time.monotonic() - start:.1f}s")


if __name__ == "__main__":
    main()
