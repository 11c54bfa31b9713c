"""Properties over random small portfolios: one to three groups with their
own exposures, default scales and sizes; and the v* solve's contract over
up to forty groups.

Hypothesis runs derandomized and each Monte Carlo seed is drawn as part of the
example, so every run of the suite checks the same examples with the same
streams.
"""

import math
import sys

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from archcredit import (
    DefaultScale,
    EstimatorConfig,
    LossModel,
    NumericalError,
    Portfolio,
    SubPortfolio,
    expected_shortfall_asymptotic,
    is_expected_shortfall,
    limiting_mean_loss,
    run_tail_estimate,
    solve_vstar,
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


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


WIDE = [SubPortfolio(1.0, 1000.0, 5), SubPortfolio(1.0, 0.001, 5)]  # l**100 = 1e300 and 1e-300
FORTY = [SubPortfolio(0.5 + 0.05 * j, 0.1 + 0.04 * j, 5 + j) for j in range(40)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    groups=st.lists(st.builds(SubPortfolio, exposure=_log_uniform(1e-3, 1e3),
                              pd_scale=_log_uniform(1e-3, 1e3), count=st.integers(1, 20)),
                    min_size=1, max_size=40),
    alpha=st.floats(1.0, 100.0, exclude_min=True),
    frac=st.floats(-290.0, 0.0, exclude_max=True).map(lambda e: 10.0**e),
)
# past v*, v l**alpha of the fast group passes the float range
@example(groups=WIDE, alpha=100.0, frac=0.6)
@example(groups=WIDE, alpha=100.0, frac=1 - 1e-11)
@example(groups=WIDE, alpha=100.0, frac=0.5)
# l**alpha = 100**200 overflows: the curve has no v* in floating point
@example(groups=[SubPortfolio(1.0, 100.0, 1000)], alpha=200.0, frac=0.5)
# forty groups near the mean exposure take about 30 Newton steps
@example(groups=FORTY, alpha=100.0, frac=1 - 1e-15)
@example(groups=FORTY, alpha=100.0, frac=1 - 1e-9)
def test_vstar_meets_tolerance_or_names_the_cause(groups, alpha, frac):
    # |r(v*) - b| <= 1e-12 b, or an error that names why no float meets it;
    # an overflow warning fails the suite
    pf = Portfolio(groups)
    b = frac * pf.mean_exposure
    try:
        v = solve_vstar(pf, alpha, b)
    except NumericalError as exc:
        if "stalled" in str(exc):  # v* is subnormal or underflows
            assert limiting_mean_loss(pf, alpha, sys.float_info.min) >= b - 1e-12 * b
        else:
            assert "is not finite" in str(exc)
        return
    except ValueError as exc:  # b rounds to the mean exposure
        assert "loss level must lie in" in str(exc)
        return
    assert abs(limiting_mean_loss(pf, alpha, v) - b) <= 1e-12 * b
