"""Tail risk of credit portfolios under Gumbel-copula dependence.

Sharp asymptotic approximations plus three Monte Carlo estimators (naive,
two-step importance sampling, conditional Monte Carlo) for the probability of
large portfolio losses and the expected shortfall.
"""

from .archimedean import GumbelGenerator, sample_uniforms
from .asymptotics import (
    AsymptoticInputs,
    expected_shortfall_asymptotic,
    homogeneous_shortfall_asymptotic,
    homogeneous_tail_asymptotic,
    tail_probability_asymptotic,
)
from .errors import EstimationError, NumericalError
from .estimators import (
    EstimateReport,
    EstimatorConfig,
    RunContext,
    TwistState,
    aggregate,
    condmc_one_rep,
    is_expected_shortfall,
    is_sample_v,
    is_tail_one_rep,
    naive_tail_one_rep,
    run_tail_estimate,
    solve_theta_star,
)
from .portfolio import (
    DefaultScale,
    LossModel,
    Portfolio,
    SubPortfolio,
    limiting_mean_loss,
    realized_loss,
    solve_vstar,
    threshold_index,
)
from .rng import RngStream
from .stable import PositiveStableLaw

__all__ = [
    "AsymptoticInputs",
    "DefaultScale",
    "EstimateReport",
    "EstimationError",
    "EstimatorConfig",
    "GumbelGenerator",
    "LossModel",
    "NumericalError",
    "Portfolio",
    "PositiveStableLaw",
    "RngStream",
    "RunContext",
    "SubPortfolio",
    "TwistState",
    "aggregate",
    "condmc_one_rep",
    "expected_shortfall_asymptotic",
    "homogeneous_shortfall_asymptotic",
    "homogeneous_tail_asymptotic",
    "is_expected_shortfall",
    "is_sample_v",
    "is_tail_one_rep",
    "limiting_mean_loss",
    "naive_tail_one_rep",
    "realized_loss",
    "run_tail_estimate",
    "sample_uniforms",
    "solve_theta_star",
    "solve_vstar",
    "tail_probability_asymptotic",
    "threshold_index",
]

__version__ = "0.1.0"
