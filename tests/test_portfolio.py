import contextlib
import itertools
import math
import random
import traceback

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import archcredit.asymptotics as asymptotics
import archcredit.portfolio as portfolio
from archcredit import (
    DefaultScale,
    LossModel,
    NumericalError,
    Portfolio,
    SubPortfolio,
    expected_shortfall_asymptotic,
    limiting_mean_loss,
    solve_vstar,
    tail_probability_asymptotic,
)


@pytest.fixture
def homog():
    return Portfolio.homogeneous(500, exposure=1.0, pd_scale=0.5)


@pytest.fixture
def two_group():
    return Portfolio(
        [SubPortfolio(1.0, 0.5, 300), SubPortfolio(2.0, 0.8, 200)]
    )


@pytest.fixture
def forty_group():
    # pd scales from 0.1 to 1.66 and exposures from 0.5 to 2.45, unequal counts
    return Portfolio([SubPortfolio(0.5 + 0.05 * j, 0.1 + 0.04 * j, 5 + j) for j in range(40)])


class TestTypes:
    def test_group_validation(self):
        with pytest.raises(ValueError):
            SubPortfolio(0.0, 0.5, 10)
        with pytest.raises(ValueError):
            SubPortfolio(1.0, -0.1, 10)
        with pytest.raises(ValueError):
            SubPortfolio(1.0, 0.5, 0)
        # the int count column would truncate 2.5 and store True or 3.0 as given
        for count in (2.5, 3.0, True, np.float64(3.0), "3"):
            with pytest.raises(ValueError, match="integer"):
                SubPortfolio(1.0, 0.5, count)
        assert SubPortfolio(1.0, 0.5, np.int64(3)).count == 3

    def test_empty_portfolio(self):
        with pytest.raises(ValueError):
            Portfolio([])

    def test_counts_and_weights(self, two_group):
        assert two_group.n == 500
        np.testing.assert_allclose(two_group.weights, [0.6, 0.4])
        assert two_group.mean_exposure == pytest.approx(0.6 * 1.0 + 0.4 * 2.0)
        assert two_group.total_exposure == pytest.approx(300 + 400)

    def test_group_arrays_are_shared_and_read_only(self, two_group):
        assert type(two_group.n) is int
        assert two_group.counts.dtype.kind == "i" and two_group.exposures.dtype == np.float64
        assert two_group.exposures is two_group.exposures
        model = LossModel(two_group, 1.5, DefaultScale.reciprocal(), 0.8)
        assert model.exposures is two_group.exposures
        arrays = (two_group.counts, two_group.exposures, two_group.pd_scales, two_group.weights,
                  model.phis, model.obligor_phis, model.obligor_exposures)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_curve_store_shares_only_equal_mixes(self):
        # portfolios given one store share a curve where their columns c_j,
        # w_j and l_j are equal bit for bit, whatever their sizes
        store = {}
        homog = [Portfolio.homogeneous(n, pd_scale=0.5, curves=store) for n in (50, 500, 1000)]
        assert len({id(pf.curve(1.5)) for pf in homog}) == 1
        assert homog[0].curve(2.0) is not homog[0].curve(1.5)
        mixes = [Portfolio([SubPortfolio(1.0, 0.5, 3 * k), SubPortfolio(2.0, 0.8, 2 * k)], store)
                 for k in (10, 100)]
        assert mixes[0].curve(1.5) is mixes[1].curve(1.5)
        others = [
            Portfolio.homogeneous(500, pd_scale=0.5000000000000001, curves=store),
            Portfolio.homogeneous(500, exposure=2.0, pd_scale=0.5, curves=store),
            Portfolio([SubPortfolio(1.0, 0.5, 301), SubPortfolio(2.0, 0.8, 200)], store),
            Portfolio([SubPortfolio(2.0, 0.8, 20), SubPortfolio(1.0, 0.5, 30)], store),
        ]
        curves = [pf.curve(1.5) for pf in homog[:1] + mixes[:1] + others]
        assert len({id(c) for c in curves}) == len(curves)
        assert len(store) == len(curves) + 1
        # without a store, each portfolio holds its own
        assert Portfolio.homogeneous(50).curve(1.5) is not Portfolio.homogeneous(50).curve(1.5)

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
        with pytest.raises(ValueError):
            DefaultScale.log_reciprocal().resolve(1)  # 1/ln 1 is a division by zero

    def test_scale_validate_marginal_probability(self):
        pf = Portfolio.homogeneous(4, pd_scale=5.0)
        with pytest.raises(ValueError, match="marginal default probability"):
            LossModel(pf, 1.5, DefaultScale.constant(0.3), 0.5)  # 5 * 0.3 >= 1
        with pytest.raises(ValueError, match="marginal default probability"):
            portfolio.check_model(pf, 1.5, DefaultScale.constant(0.3), 0.5)

    def test_total_exposure_must_be_finite(self):
        # each exposure and the mean are finite; their total is past the float range
        pf = Portfolio([SubPortfolio(1e308, 0.5, 1), SubPortfolio(1e308, 0.5, 1)])
        assert pf.mean_exposure == 1e308 and pf.total_exposure == math.inf
        with pytest.raises(ValueError, match="total exposure .* is not finite"):
            LossModel(pf, 1.5, DefaultScale.constant(0.3), 0.5)


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
        model = LossModel(homog, 1.5, DefaultScale.reciprocal(), 0.8)
        phi_f = (-math.log1p(-1 / 500)) ** 1.5
        got = model.default_probs(1.0 / phi_f)[0]
        ratio = (-math.log1p(-0.5 / 500)) ** 1.5 / phi_f
        assert got == pytest.approx(-math.expm1(-ratio), rel=1e-12)
        assert model.phi_f == phi_f
        assert model.phis == ((-math.log1p(-0.5 / 500)) ** 1.5,)

    def test_small_scale_limit(self):
        # as f_n -> 0 the probability at v = 1 / phi(1 - f_n) approaches
        # 1 - exp(-l**alpha)
        pf = Portfolio.homogeneous(500, pd_scale=0.5)
        model = LossModel(pf, 1.5, DefaultScale.constant(1e-6), 0.8)
        got = model.default_probs(1.0 / (-math.log1p(-1e-6)) ** 1.5)[0]
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
    @example(v=(49.99999999999999, 50.0))  # adjacent floats: r rounds to the same value
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_strictly_increasing(self, v):
        # r never falls; it rises in floating point once the step is not lost
        # to rounding (1e-6 relative: at v = 50 the values then differ by 2.2e-13)
        pf = Portfolio([SubPortfolio(1.0, 0.5, 300), SubPortfolio(2.0, 0.8, 200)])
        v1, v2 = sorted(v)
        r1, r2 = limiting_mean_loss(pf, 1.5, v1), limiting_mean_loss(pf, 1.5, v2)
        assert r1 <= r2
        if v2 - v1 >= 1e-6 * v2:
            assert r1 < r2

    def test_non_finite_inputs_rejected(self, two_group):
        for v in (-1.0, math.nan, -math.inf):
            with pytest.raises(ValueError, match="v must be nonnegative"):
                limiting_mean_loss(two_group, 1.5, v)
        for alpha in (1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tail index must be finite and exceed 1"):
                limiting_mean_loss(two_group, alpha, 1.0)


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

    def test_meets_tolerance_on_grid(self, homog, two_group, forty_group):
        # one group, two and forty; ten tail indices; 43 levels from 1e-45 c
        # to 0.999 c (c the mean exposure) and the levels 1e-9, 1e-3, 0.3 and
        # 0.77: each v* meets |r(v*) - b| <= 1e-12 b with r = limiting_mean_loss
        alphas = (1.01, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 30.0)
        fracs = np.geomspace(1e-45, 0.999, 43).tolist()
        for pf, alpha in itertools.product((homog, two_group, forty_group), alphas):
            for b in (1e-9, 1e-3, 0.3, 0.77, *(f * pf.mean_exposure for f in fracs)):
                v = solve_vstar(pf, alpha, b)
                assert abs(limiting_mean_loss(pf, alpha, v) - b) <= 1e-12 * b, (pf.n, alpha, b)

    def test_meets_tolerance_at_hard_levels(self, homog, two_group, forty_group):
        # b within 1 ulp, 1e-15, 1e-12 and 1e-9 relative of the mean exposure,
        # and b = 1e-200 c and 1e-290 c, at tail indices up to 100; forty
        # groups at alpha = 100 near the mean exposure take about 30 steps
        for pf, alpha in itertools.product((homog, two_group, forty_group),
                                           (1.01, 1.5, 2.0, 5.0, 10.0, 30.0, 50.0, 100.0)):
            c = pf.mean_exposure
            for b in (math.nextafter(c, 0.0), c * (1 - 1e-15), c * (1 - 1e-12), c * (1 - 1e-9),
                      1e-200 * c, 1e-290 * c):
                v = solve_vstar(pf, alpha, b)
                assert abs(limiting_mean_loss(pf, alpha, v) - b) <= 1e-12 * b, (pf.n, alpha, b)

    def test_small_b(self, homog):
        assert solve_vstar(homog, 1.5, 1e-9) < 1e-7

    def test_tiny_b_relative_accuracy(self):
        # the tolerance is relative to b, so v* keeps its digits at tiny b
        pf = Portfolio.homogeneous(1000, pd_scale=0.5)
        for b in (1e-50, 1e-150, 1e-290):
            want = -math.log1p(-b) / 0.5**1.5
            assert solve_vstar(pf, 1.5, b) == pytest.approx(want, rel=1e-11)

    def test_step_cap_raises(self, two_group, monkeypatch):
        # two groups take more than one Newton step
        monkeypatch.setattr(asymptotics, "_NEWTON_STEPS", 1)
        with pytest.raises(NumericalError, match="did not converge") as info:
            solve_vstar(two_group, 1.5, 0.8)
        assert 1e-12 * 0.8 < info.value.achieved < math.inf

    def test_few_evaluations_on_asym_surface_grid(self, homog, monkeypatch):
        # the benchmark's asymptotic grid, one solve per (portfolio, alpha)
        # holding its eight levels: one evaluation of r on one group, where
        # one Newton step lands, and at most 6 on two
        calls = []
        real = asymptotics._curve
        monkeypatch.setattr(asymptotics, "_curve", lambda *a: calls.append(a) or real(*a))
        mixed = Portfolio([SubPortfolio(1.0, 0.5, 60), SubPortfolio(2.0, 0.8, 40)])
        levels = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        for (pf, most), alpha in itertools.product(((homog, 1), (mixed, 6)),
                                                   (1.1, 1.25, 1.5, 2.0, 3.0, 5.0)):
            calls.clear()
            assert all(isinstance(v, float) for v in solve_vstar(pf, alpha, levels))
            assert 0 < len(calls) <= most, (pf.n, alpha)

    def test_extreme_rates_meet_tolerance(self, two_group):
        # rates l**alpha from 1e-300 to 1e200 and exposures from 3e-8 to 1e10,
        # and two groups at rates 1e300 and 1e-300, up to levels where v l**alpha
        # of the fast group passes the float range: the weights and r take
        # that product as inf without an overflow warning (which fails the suite)
        extreme = Portfolio([SubPortfolio(1e10, 100.0, 3), SubPortfolio(1.0, 1e-3, 5),
                             SubPortfolio(3e-8, 7.0, 2)])
        wide = Portfolio([SubPortfolio(1.0, 1000.0, 5), SubPortfolio(1.0, 0.001, 5)])
        cases = [(two_group, 1.5, (1e-3, 0.3, 0.9)), (extreme, 100.0, (1e-3, 0.3, 0.9)),
                 (wide, 100.0, (0.3, 0.5, 0.6, 0.9, 1 - 1e-6, 1 - 1e-9, 1 - 1e-11))]
        for pf, alpha, fracs in cases:
            for b in (f * pf.mean_exposure for f in fracs):
                v = solve_vstar(pf, alpha, b)
                assert abs(limiting_mean_loss(pf, alpha, v) - b) <= 1e-12 * b, (pf.n, b)

    def test_curve_error_far_below_window_margin(self, homog, two_group, forty_group):
        # the solver stops once _curve is within tol = 1e-12 b of b, which
        # certifies the true r only if _curve's relative error is far below tol
        for pf, alpha in itertools.product((homog, two_group, forty_group), (1.1, 2.0, 5.0)):
            cw, l_a, _, _ = pf.curve(alpha).columns
            columns = list(zip(cw.tolist(), l_a.tolist()))
            for v in (1e-300, 1e-9, 0.03, 0.7, 4.0, 90.0):
                want = math.fsum(c * -math.expm1(-v * x) for c, x in columns)
                assert asymptotics._curve(cw, l_a, v) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_domain_error_names_bound(self, homog):
        with pytest.raises(ValueError, match="1"):
            solve_vstar(homog, 1.5, 1.5)
        with pytest.raises(ValueError):
            solve_vstar(homog, 1.5, 0.0)
        with pytest.raises(ValueError, match="loss level"):
            solve_vstar(homog, 1.5, math.nan)
        for alpha in (math.nan, math.inf, 1.0):
            with pytest.raises(ValueError, match="tail index must be finite and exceed 1"):
                solve_vstar(homog, alpha, 0.5)
        # 0.01**200 underflows to 0: that group never defaults, and r stays
        # below the level beyond the other group's share
        slow = Portfolio([SubPortfolio(1.0, 0.01, 5), SubPortfolio(1.0, 2.0, 5)])
        assert solve_vstar(slow, 200.0, 0.3) > 0.0
        for pf, b in ((Portfolio.homogeneous(10, pd_scale=0.01), 0.3), (slow, 0.7)):
            with pytest.raises(ValueError, match="unreachable"):
                solve_vstar(pf, 200.0, b)


def _outcome(call):
    """A call's value, or the type, message and miss of the error it raises."""
    try:
        return call()
    except (ArithmeticError, NumericalError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "achieved", None)


def _point_values(model):
    return [_outcome(lambda: model.vstar), _outcome(lambda: tail_probability_asymptotic(model)),
            _outcome(lambda: expected_shortfall_asymptotic(model))]


class TestBatchInvariance:
    # the levels of one (portfolio, alpha) are solved together; each must get
    # the bits, or the error, that it gets alone
    WIDE = Portfolio([SubPortfolio(1.0, 1000.0, 5), SubPortfolio(1.0, 0.001, 5)])
    SCALE = DefaultScale.constant(1e-4)

    @staticmethod
    def _levels(pf):
        # the asym-surface levels, the hard levels of
        # test_meets_tolerance_at_hard_levels, a level whose v* is subnormal
        # and two outside (0, c); shuffled, and with a repeated level
        c = pf.mean_exposure
        levels = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, math.nextafter(c, 0.0),
                  c * (1 - 1e-15), c * (1 - 1e-12), c * (1 - 1e-9), 1e-200 * c, 1e-290 * c,
                  1e-320 * c, 1.5 * c, 0.0]
        random.Random(len(pf.groups)).shuffle(levels)
        return levels + levels[:3]

    def test_batch_equals_single_level(self, homog, two_group, forty_group):
        slow = Portfolio([SubPortfolio(1.0, 0.01, 5), SubPortfolio(1.0, 2.0, 5)])
        cases = list(itertools.product((homog, two_group, forty_group, self.WIDE),
                                       (1.01, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 30.0, 100.0)))
        cases.append((slow, 200.0))  # 0.01**200 = 0: levels above 0.5 are unreachable
        failed = 0
        for pf, alpha in cases:
            levels = self._levels(pf)
            alone = [_outcome(lambda: solve_vstar(pf, alpha, b)) for b in levels]
            batch = solve_vstar(pf, alpha, levels)
            for b, one, got in zip(levels, alone, batch):
                if isinstance(got, Exception):
                    got = type(got), str(got), getattr(got, "achieved", None)
                    failed += 1
                assert repr(got) == repr(one), (pf.n, alpha, b)
            # through the models: each level registers on its curve, the first
            # read solves them all, and the first shortfall read integrates them
            batch_pf = Portfolio(pf.groups)
            models = {}
            for b in dict.fromkeys(levels):
                with contextlib.suppress(ValueError):  # b outside (0, c), or n*b unattainable
                    models[b] = LossModel(batch_pf, alpha, self.SCALE, b)
            for b, model in reversed(models.items()):
                single = LossModel(Portfolio(pf.groups), alpha, self.SCALE, b)
                assert repr(_point_values(model)) == repr(_point_values(single)), (pf.n, alpha, b)
        assert failed > len(cases) * 3  # every case has failing levels

    def test_capped_levels_fail_alone(self, two_group, monkeypatch):
        # with three Newton steps allowed, some levels converge and the others
        # miss; each keeps its single-level value or error
        monkeypatch.setattr(asymptotics, "_NEWTON_STEPS", 3)
        levels = [0.2, 0.5, 0.8, 1.1, 1.3, 1.39]
        batch = solve_vstar(two_group, 1.5, levels)
        kinds = []
        for b, got in zip(levels, batch):
            one = _outcome(lambda: solve_vstar(two_group, 1.5, b))
            if isinstance(got, Exception):
                got = type(got), str(got), getattr(got, "achieved", None)
            kinds.append(isinstance(got, tuple))
            assert repr(got) == repr(one), b
        assert any(kinds) and not all(kinds)


class TestStoredErrors:
    # a failed level keeps its error and raises it at every read; each read's
    # traceback is its own, not the traceback of every read before it
    SCALE = DefaultScale.reciprocal()

    @staticmethod
    def _depths(read) -> list[int]:
        depths = []
        for _ in range(5):
            with pytest.raises(NumericalError) as info:
                read()
            depths.append(len(traceback.extract_tb(info.value.__traceback__)))
        return depths

    def test_vstar_traceback_does_not_grow(self):
        # three sizes share one curve store, and so the stored error of b = 1e-320,
        # where v* is subnormal and the solve stalls
        curves: dict = {}
        models = [LossModel(Portfolio.homogeneous(n, pd_scale=50.0, curves=curves), 5.0,
                            self.SCALE, 1e-320) for n in (100, 250, 1000)]
        for model in models:
            depths = self._depths(lambda: model.vstar)
            assert depths[-1] <= depths[0], depths
        stored = models[0].curve.vstars[1e-320]
        assert all(model.curve.vstars[1e-320] is stored for model in models)
        assert "stalled" in str(stored) and stored.achieved > 0.0

    def test_integral_traceback_does_not_grow(self, monkeypatch):
        def fail(s, x):
            raise NumericalError("GammaUpper failed", achieved=1.0)

        monkeypatch.setattr(asymptotics, "_upper_gamma", fail)
        curves: dict = {}
        models = [LossModel(Portfolio.homogeneous(n, curves=curves), 1.5, self.SCALE, 0.8)
                  for n in (100, 250, 1000)]
        for model in models:
            depths = self._depths(lambda: expected_shortfall_asymptotic(model))
            assert depths[-1] <= depths[0], depths


def model_k(pf, b):
    return LossModel(pf, 1.5, DefaultScale.reciprocal(), b).k


class TestThresholdIndex:
    def test_strict_exceedance_at_integer_boundary(self, homog):
        # 400 defaults lose exactly n*b; the event needs strictly more
        assert model_k(homog, 0.8) == 401

    def test_small_portfolio(self):
        pf = Portfolio.homogeneous(100)
        assert model_k(pf, 0.3) == 31

    def test_non_integer_boundary_matches_ceiling(self):
        pf = Portfolio.homogeneous(100)
        assert model_k(pf, 0.305) == 31  # ceil(30.5)

    def test_zero_level(self, homog):
        # b = 0 is not a model; the least level it takes tips at the first default
        with pytest.raises(ValueError, match="loss level"):
            model_k(homog, 0.0)
        assert model_k(homog, 1e-12) == 1

    def test_unattainable(self, homog):
        # below the mean exposure, yet n*b sits within the event's snap of the total
        with pytest.raises(ValueError, match="unattainable"):
            model_k(homog, 1.0 - 1e-13)

    def test_heterogeneous_exposures_deferred(self, two_group):
        # mixed exposures, or equal ones over two groups: the index is found
        # per replication
        assert model_k(two_group, 0.5) is None
        equal = Portfolio([SubPortfolio(1.0, 0.5, 300), SubPortfolio(1.0, 0.8, 200)])
        assert model_k(equal, 0.5) is None

    def test_large_exposures_snap_in_loss_units(self):
        # n*b is 5 below 3c: three defaults exceed it, as exceeds() says;
        # snapping n*b/c by the loss tolerance would wrongly ask for four
        c = 1e10
        pf = Portfolio.homogeneous(4, exposure=c, pd_scale=1.0)
        model = LossModel(pf, 1.5, DefaultScale.reciprocal(), (3 * c - 5) / 4)
        assert model.exceeds(3 * c) and not model.exceeds(2 * c)
        assert model.k == 3
