"""Properties over random small portfolios: one to three groups with their
own exposures, default scales and sizes.

Hypothesis runs derandomized and each Monte Carlo seed is drawn as part of the
example, so every run of the suite checks the same examples with the same
streams.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from archcredit import (
    DefaultScale,
    EstimatorConfig,
    LossModel,
    Portfolio,
    SubPortfolio,
    expected_shortfall_asymptotic,
    is_expected_shortfall,
    run_tail_estimate,
    tail_probability_asymptotic,
)

M = 4000  # replications per estimate
SIGMAS = 4.0


@st.composite
def desks(draw):
    """(portfolio, alpha, f, b, seed) under a constant default scale f; b is
    u times the expected loss per obligor, u in [0.3, 1.5], so that the loss
    event is common in most examples."""
    size = draw(st.integers(1, 3))
    groups = draw(
        st.lists(
            st.builds(SubPortfolio, exposure=st.floats(0.5, 3.0), pd_scale=st.floats(0.2, 1.0),
                      count=st.integers(2, 12)),
            min_size=size,
            max_size=size,
        )
    )
    pf = Portfolio(groups)
    alpha = draw(st.floats(1.2, 3.0))
    f = draw(st.floats(0.05, 0.5))  # below 1 - 1/e, where the IS splice is defined
    mean_loss = sum(g.count * g.exposure * g.pd_scale * f for g in groups) / pf.n
    b = draw(st.floats(0.3, 1.5)) * mean_loss
    return pf, alpha, f, b, draw(st.integers(0, 2**32 - 1))


def config(pf, alpha, f, b, seed, kind):
    return EstimatorConfig(LossModel(pf, alpha, DefaultScale.constant(f), b),
                           m=M, seed=seed, kind=kind)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(desks())
def test_three_estimators_agree_on_common_events(desk):
    reports = {kind: run_tail_estimate(config(*desk, kind))
               for kind in ("naive", "importance", "conditional")}
    # common: at least about 80 of the naive draws fall on each side
    assume(0.02 <= reports["naive"].estimate <= 0.98)
    kinds = list(reports)
    for i, a in enumerate(kinds):
        for b in kinds[i + 1:]:
            ra, rb = reports[a], reports[b]
            band = SIGMAS * math.hypot(ra.std_error, rb.std_error)
            assert abs(ra.estimate - rb.estimate) <= band, (a, b, ra, rb)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(desks())
def test_expected_shortfall_lies_between_level_and_total_exposure(desk):
    pf, alpha, f, b, seed = desk
    nb = pf.n * b
    total = sum(g.count * g.exposure for g in pf.groups)
    es = is_expected_shortfall(config(*desk, "importance")).estimate
    assert nb <= es <= total
    asym = expected_shortfall_asymptotic(LossModel(pf, alpha, DefaultScale.constant(f), b))
    assert nb <= asym <= total


@settings(max_examples=40, deadline=None, derandomize=True)
@given(desks(), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_asymptotic_tail_monotone_in_level_and_default_scale(desk, u, v):
    # falls as the level b rises, rises with n f_n at a fixed portfolio
    pf, alpha, f, _, _ = desk
    cbar = sum(g.count * g.exposure for g in pf.groups) / pf.n
    (b_lo, b_hi), (f_lo, f_hi) = sorted((u * cbar, v * cbar)), sorted((f, f * u))

    def tail(f_n, b):
        return tail_probability_asymptotic(LossModel(pf, alpha, DefaultScale.constant(f_n), b))

    assert tail(f, b_lo) >= tail(f, b_hi)
    assert tail(f_lo, b_lo) <= tail(f_hi, b_lo)
