"""Tail risk of credit portfolios under Gumbel-copula dependence.

Sharp asymptotic approximations plus three Monte Carlo estimators (naive,
two-step importance sampling, conditional Monte Carlo) for the probability of
large portfolio losses and the expected shortfall.
"""

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
    aggregate,
    condmc_block,
    is_expected_shortfall,
    is_sample_v,
    is_tail_block,
    naive_tail_block,
    replicate,
    run_tail_estimate,
)
from .portfolio import (
    DefaultScale,
    LossModel,
    Portfolio,
    SubPortfolio,
    limiting_mean_loss,
    solve_vstar,
)
from .rng import RngStream
from .stable import PositiveStableLaw

__all__ = [
    "AsymptoticInputs",
    "DefaultScale",
    "EstimateReport",
    "EstimationError",
    "EstimatorConfig",
    "LossModel",
    "NumericalError",
    "Portfolio",
    "PositiveStableLaw",
    "RngStream",
    "RunContext",
    "SubPortfolio",
    "aggregate",
    "condmc_block",
    "expected_shortfall_asymptotic",
    "homogeneous_shortfall_asymptotic",
    "homogeneous_tail_asymptotic",
    "is_expected_shortfall",
    "is_sample_v",
    "is_tail_block",
    "limiting_mean_loss",
    "naive_tail_block",
    "replicate",
    "run_tail_estimate",
    "solve_vstar",
    "tail_probability_asymptotic",
]

__version__ = "0.1.0"
