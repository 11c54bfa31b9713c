"""The package's public surface, written out by hand.

A name belongs in ``archcredit.__all__`` only if it is reached from the
package's own modules, from the benchmark in ``perfbench/`` or from the
README; a helper that only tests call stays out of the package.  Adding or
removing a public name fails here, as an option edit fails
``test_option_inventory``.
"""

import archcredit

PUBLIC = [
    "DefaultScale", "EstimateReport", "EstimationError", "EstimatorConfig", "LossModel",
    "NumericalError", "Portfolio", "PositiveStableLaw", "RngStream", "RunContext",
    "SubPortfolio", "aggregate", "condmc_block", "expected_shortfall_asymptotic",
    "homogeneous_shortfall_asymptotic", "homogeneous_tail_asymptotic", "is_expected_shortfall",
    "is_sample_v", "limiting_mean_loss", "naive_tail_block", "replicate",
    "run_tail_estimate", "solve_vstar", "tail_probability_asymptotic",
]


def test_public_surface_inventory():
    assert len(PUBLIC) == 24
    assert sorted(archcredit.__all__) == PUBLIC
    assert all(hasattr(archcredit, name) for name in PUBLIC)
