"""Stochastic process toolkit: simulation, densities, pricing, hedging.

One-dimensional (and correlated multi-asset) diffusions with a
deterministic counter-based noise source, forward and backward grid
solvers for the associated densities and value functions, short-time
kernel propagation, four independent pricing routes and small-scale
portfolio optimization.
"""

from .density import (
    AnalyticDensity1D,
    DensityGrid,
    GridFunction,
    PointMass,
    TransitionMatrix,
    change_of_variable,
    compose_transition,
    density_bm,
    density_gbm,
    density_vasicek,
    evolve_density,
    fokker_planck_forward,
    kolmogorov_backward,
    point_mass_on_grid,
)
from .errors import NumericalError
from .mc import (
    MCEstimate,
    PathBatch,
    TimeGrid,
    expectation,
    export_paths_csv,
    ito_check,
    scaling_check,
    simulate_paths,
    simulate_terminal,
)
from .models import (
    CovarianceSpec,
    ModelSpec,
    diagonalize_covariance,
    load_model_config,
    make_bm,
    make_correlated_bm,
    make_correlated_gbm,
    make_custom_grid,
    make_gbm,
    make_vasicek,
    model_hash,
    risk_neutralize,
    volatility_matrix,
)
from .pathintegral import (
    GreensFunction,
    ShortTimeKernel,
    greens_function,
    kernel_matrix,
    one_step_kernel,
    pi_expectation,
    propagate,
)
from .portfolio import (
    Cashflow,
    DiscountCurve,
    fixed_loan_coupon,
    fixed_loan_schedule,
    load_curve,
    pv_deterministic,
    zero_coupon_price,
)
from .pricing import (
    BSParams,
    GreeksReport,
    PayoffSpec,
    bs_greeks,
    bs_price,
    call_payoff,
    digital_payoff,
    norm_cdf,
    norm_pdf,
    payoff_from_config,
    put_payoff,
    pv_green,
    pv_mc,
    pv_pde,
    table_payoff,
)
from .risk import (
    HedgeReport,
    IndexInputs,
    IndexWeights,
    Instrument,
    hedge_report_doc,
    index_weights,
    neutralize,
    portfolio_variance,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
