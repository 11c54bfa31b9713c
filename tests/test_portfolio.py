import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import archcredit.portfolio as portfolio
from archcredit import (
    DefaultScale,
    GumbelGenerator,
    LossModel,
    NumericalError,
    Portfolio,
    SubPortfolio,
    limiting_mean_loss,
    realized_loss,
    solve_vstar,
    threshold_index,
)


@pytest.fixture
def homog():
    return Portfolio.homogeneous(500, exposure=1.0, pd_scale=0.5)


@pytest.fixture
def two_group():
    return Portfolio(
        [SubPortfolio(1.0, 0.5, 300), SubPortfolio(2.0, 0.8, 200)]
    )


class TestTypes:
    def test_group_validation(self):
        with pytest.raises(ValueError):
            SubPortfolio(0.0, 0.5, 10)
        with pytest.raises(ValueError):
            SubPortfolio(1.0, -0.1, 10)
        with pytest.raises(ValueError):
            SubPortfolio(1.0, 0.5, 0)

    def test_empty_portfolio(self):
        with pytest.raises(ValueError):
            Portfolio([])

    def test_counts_and_weights(self, two_group):
        assert two_group.n == 500
        np.testing.assert_allclose(two_group.weights, [0.6, 0.4])
        assert two_group.mean_exposure == pytest.approx(0.6 * 1.0 + 0.4 * 2.0)
        assert two_group.total_exposure == pytest.approx(300 + 400)
        assert two_group.homogeneous_exposure is None

    def test_scale_kinds(self):
        assert DefaultScale.reciprocal().resolve(500) == pytest.approx(1 / 500)
        assert DefaultScale.log_reciprocal().resolve(100) == pytest.approx(1 / math.log(100))
        assert DefaultScale.constant(0.3).resolve(10) == 0.3
        with pytest.raises(ValueError):
            DefaultScale("weekly")
        with pytest.raises(ValueError):
            DefaultScale.constant(1.2)
        with pytest.raises(ValueError):
            DefaultScale("reciprocal", 0.1)

    def test_scale_log_reciprocal_needs_big_n(self):
        with pytest.raises(ValueError):
            DefaultScale.log_reciprocal().resolve(2)  # 1/ln 2 > 1

    def test_scale_validate_marginal_probability(self):
        pf = Portfolio.homogeneous(4, pd_scale=5.0)
        with pytest.raises(ValueError):
            DefaultScale.constant(0.3).validate(pf)  # 5 * 0.3 >= 1


class TestConditionalDefaultProb:
    def test_limits(self, homog):
        model = LossModel(homog, 1.5, DefaultScale.reciprocal(), 0.8)
        assert model.default_probs(1e-12)[0] == pytest.approx(0.0, abs=1e-12)
        assert model.default_probs(1e12)[0] == pytest.approx(1.0, abs=1e-6)

    def test_monotone_in_v_and_scale(self, two_group):
        model = LossModel(two_group, 1.5, DefaultScale.reciprocal(), 0.8)
        p1, q1 = model.default_probs(10.0)
        p2 = model.default_probs(20.0)[0]
        assert 0.0 < p1 < p2 < 1.0
        # group 1 has the larger pd multiplier
        assert q1 > p1

    def test_bad_group_index(self, homog):
        probs = LossModel(homog, 1.5, DefaultScale.reciprocal(), 0.8).default_probs(1.0)
        assert len(probs) == 1  # one probability per group
        with pytest.raises(IndexError):
            probs[3]

    def test_scaled_form_cross_check(self, homog):
        # at the normalized value v = V * phi(1 - f_n) = 1 the probability is
        # 1 - exp(-phi(0.999)/phi(0.998)), by direct evaluation
        gen = GumbelGenerator(1.5)
        model = LossModel(homog, 1.5, DefaultScale.reciprocal(), 0.8)
        phi_f = gen.phi_one_minus(1 / 500)
        got = model.default_probs(1.0 / phi_f)[0]
        ratio = gen.phi_one_minus(0.5 / 500) / phi_f
        assert got == pytest.approx(-math.expm1(-ratio), rel=1e-12)
        assert model.phis == (gen.phi_one_minus(0.5 / 500),)

    def test_small_scale_limit(self):
        # as f_n -> 0 the probability at v = 1 / phi(1 - f_n) approaches
        # 1 - exp(-l**alpha)
        gen = GumbelGenerator(1.5)
        pf = Portfolio.homogeneous(500, pd_scale=0.5)
        model = LossModel(pf, 1.5, DefaultScale.constant(1e-6), 0.8)
        got = model.default_probs(1.0 / gen.phi_one_minus(1e-6))[0]
        assert got == pytest.approx(1.0 - math.exp(-(0.5**1.5)), abs=1e-3)
        assert got == pytest.approx(0.29781149867344037, abs=1e-3)

    def test_exceedance_is_strict(self, homog):
        model = LossModel(homog, 1.5, DefaultScale.reciprocal(), 0.8)
        assert not model.exceeds(400.0)
        assert model.exceeds(401.0)
        np.testing.assert_array_equal(model.exceeds(np.array([399.0, 400.0, 401.0])),
                                      [False, False, True])


class TestLimitingMeanLoss:
    def test_endpoints(self, two_group):
        assert limiting_mean_loss(two_group, 1.5, 0.0) == 0.0
        assert limiting_mean_loss(two_group, 1.5, 1e9) == pytest.approx(
            two_group.mean_exposure, rel=1e-12
        )

    def test_example_value(self, homog):
        assert limiting_mean_loss(homog, 1.5, 4.552177847123493) == pytest.approx(0.8, abs=1e-9)

    @given(v=st.tuples(st.floats(0.001, 50.0), st.floats(0.001, 50.0)))
    @settings(max_examples=60, deadline=None)
    def test_strictly_increasing(self, v):
        pf = Portfolio([SubPortfolio(1.0, 0.5, 300), SubPortfolio(2.0, 0.8, 200)])
        v1, v2 = sorted(v)
        if v1 == v2:
            return
        assert limiting_mean_loss(pf, 1.5, v1) < limiting_mean_loss(pf, 1.5, v2)


class TestSolveVstar:
    def test_homogeneous_closed_form(self, homog):
        # vstar = l**-alpha ln(c / (c - b))
        want = 0.5**-1.5 * math.log(1.0 / 0.2)
        assert solve_vstar(homog, 1.5, 0.8) == pytest.approx(want, rel=1e-10)

    def test_inverse_of_mean_loss(self, two_group):
        cbar = two_group.mean_exposure
        for b in (0.1, 0.5, 0.9 * cbar):
            v = solve_vstar(two_group, 1.3, b)
            assert abs(limiting_mean_loss(two_group, 1.3, v) - b) <= 1e-12 * cbar

    def test_two_group_against_plain_bisection(self, two_group):
        b = 0.77
        alpha = 1.5
        lo, hi = 0.0, 1.0
        while limiting_mean_loss(two_group, alpha, hi) <= b:
            hi *= 2
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if limiting_mean_loss(two_group, alpha, mid) < b:
                lo = mid
            else:
                hi = mid
        assert solve_vstar(two_group, alpha, b) == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_small_b(self, homog):
        assert solve_vstar(homog, 1.5, 1e-9) < 1e-7

    def test_step_cap_raises(self, homog, monkeypatch):
        monkeypatch.setattr(portfolio, "_VSTAR_STEPS", 1)
        with pytest.raises(NumericalError, match="did not converge") as info:
            solve_vstar(homog, 1.5, 0.8)
        assert info.value.achieved > 1e-12

    def test_domain_error_names_bound(self, homog):
        with pytest.raises(ValueError, match="1"):
            solve_vstar(homog, 1.5, 1.5)
        with pytest.raises(ValueError):
            solve_vstar(homog, 1.5, 0.0)


class TestThresholdIndex:
    def test_strict_exceedance_at_integer_boundary(self, homog):
        # 400 defaults lose exactly n*b; the event needs strictly more
        assert threshold_index(homog, 0.8) == 401

    def test_small_portfolio(self):
        pf = Portfolio.homogeneous(100)
        assert threshold_index(pf, 0.3) == 31

    def test_non_integer_boundary_matches_ceiling(self):
        pf = Portfolio.homogeneous(100)
        assert threshold_index(pf, 0.305) == 31  # ceil(30.5)

    def test_zero_level(self, homog):
        assert threshold_index(homog, 0.0) == 1

    def test_unattainable(self, homog):
        with pytest.raises(ValueError, match="unattainable"):
            threshold_index(homog, 1.0)

    def test_heterogeneous_exposures_deferred(self, two_group):
        # mixed exposures: the index is found per replication
        assert threshold_index(two_group, 0.5) is None


class TestRealizedLoss:
    def test_examples(self, two_group):
        assert realized_loss(two_group, [0, 0]) == 0.0
        assert realized_loss(two_group, [300, 200]) == pytest.approx(700.0)
        pf = Portfolio([SubPortfolio(1.0, 0.5, 10), SubPortfolio(2.0, 0.5, 10)])
        assert realized_loss(pf, [3, 5]) == pytest.approx(13.0)

    def test_invalid_counts(self, two_group):
        with pytest.raises(ValueError):
            realized_loss(two_group, [301, 0])
        with pytest.raises(ValueError):
            realized_loss(two_group, [-1, 0])
        with pytest.raises(ValueError):
            realized_loss(two_group, [1, 2, 3])

    @given(d1=st.integers(0, 300), d2=st.integers(0, 200))
    @settings(max_examples=50, deadline=None)
    def test_linear_in_counts(self, d1, d2):
        pf = Portfolio([SubPortfolio(1.0, 0.5, 300), SubPortfolio(2.0, 0.8, 200)])
        assert realized_loss(pf, [d1, d2]) == pytest.approx(d1 + 2.0 * d2)
