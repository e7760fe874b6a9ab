"""Stochastic process toolkit: simulation, densities, pricing, hedging.

One-dimensional (and correlated multi-asset) diffusions with a
deterministic counter-based noise source, forward and backward grid
solvers for the associated densities and value functions, short-time
kernel propagation, four independent pricing routes and small-scale
portfolio optimization.

The package loads lazily (PEP 562): importing it loads no submodule and
no numpy. The first use of a public name, or of a submodule such as
stochastica.pricing, imports the module that defines it.
"""

import importlib

# Each public name, by the module that defines it.
_EXPORTS = {
    "cli": ["load_curve", "load_model_config", "payoff_from_config"],
    "density": ["AnalyticDensity1D", "DensityGrid", "GridFunction", "PointMass",
                "TransitionMatrix", "change_of_variable", "compose_transition",
                "density_bm", "density_gbm", "density_vasicek", "evolve_density",
                "fokker_planck_forward", "kolmogorov_backward", "point_mass_on_grid"],
    "errors": ["NumericalError"],
    "mc": ["MCEstimate", "PathBatch", "TimeGrid", "expectation", "export_paths_csv",
           "ito_check", "scaling_check", "simulate_paths", "simulate_terminal"],
    "models": ["CovarianceSpec", "ModelSpec", "diagonalize_covariance", "make_bm",
               "make_correlated_bm", "make_correlated_gbm", "make_custom_grid", "make_gbm",
               "make_vasicek", "model_hash", "risk_neutralize", "volatility_matrix"],
    "pathintegral": ["GreensFunction", "ShortTimeKernel", "greens_function",
                     "kernel_matrix", "one_step_kernel", "pi_expectation", "propagate"],
    "portfolio": ["Cashflow", "DiscountCurve", "fixed_loan_coupon", "fixed_loan_schedule",
                  "pv_deterministic", "zero_coupon_price"],
    "pricing": ["BSParams", "GreeksReport", "PayoffSpec", "bs_greeks", "bs_price",
                "call_payoff", "digital_payoff", "norm_cdf", "norm_pdf", "put_payoff",
                "pv_green", "pv_mc", "pv_pde", "table_payoff"],
    "risk": ["HedgeReport", "IndexInputs", "IndexWeights", "Instrument", "hedge_report_doc",
             "index_weights", "neutralize", "portfolio_variance"],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "noise"}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module behind a public name or submodule on first use."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
