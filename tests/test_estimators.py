import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import archcredit.estimators as est_mod
from archcredit import (
    DefaultScale,
    EstimationError,
    EstimatorConfig,
    NumericalError,
    Portfolio,
    RngStream,
    RunContext,
    SubPortfolio,
    aggregate,
    condmc_block,
    is_expected_shortfall,
    is_sample_v,
    is_tail_block,
    naive_tail_block,
    replicate,
    run_tail_estimate,
)

RARE = dict(
    portfolio=Portfolio.homogeneous(500, exposure=1.0, pd_scale=0.5),
    alpha=1.5,
    scale=DefaultScale.reciprocal(),
    b=0.8,
)

DESK = dict(
    portfolio=Portfolio.homogeneous(20, exposure=1.0, pd_scale=0.5),
    alpha=1.5,
    scale=DefaultScale.constant(0.3),
    b=0.4,
)


def config(base=RARE, **kw):
    args = dict(base, m=1000, seed=1, kind="conditional")
    args.update(kw)
    return EstimatorConfig(**args)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            config(m=1)
        with pytest.raises(ValueError):
            config(x0=0.0)
        with pytest.raises(ValueError):
            config(kind="antithetic")
        with pytest.raises(ValueError):
            config(b=1.0)
        with pytest.raises(ValueError):
            config(alpha=1.0)
        # a bool or a float used to run as its int part (seed) or crash in range (m)
        for bad in (dict(seed=1.7), dict(seed=True), dict(seed=1.0), dict(m=200.5),
                    dict(m=True), dict(m=200.0), dict(seed=-1)):
            with pytest.raises(ValueError, match="must be an integer"):
                config(**bad)
        assert config(m=np.int64(200), seed=np.uint32(3)).m == 200

    def test_underflowing_phi_rejected_for_every_kind(self):
        # phi(1 - 0.5/1000) = (-ln(1 - 5e-4))**100 underflows to 0.0: naive and
        # conditional estimates would be 0 with no error
        steep = dict(RARE, portfolio=Portfolio.homogeneous(1000, pd_scale=0.5), alpha=100.0)
        for kind in ("naive", "importance", "conditional"):
            with pytest.raises(ValueError, match="underflows"):
                config(steep, kind=kind)
        # n = 50: phi = 1.7e-200, and the largest draws still default with certainty
        small = dict(steep, portfolio=Portfolio.homogeneous(50, pd_scale=0.5))
        assert run_tail_estimate(config(small, m=200)).estimate > 0.0


def solve_twist(pf, probs, b):
    """theta and the twisted probabilities of one replication."""
    probs = np.array([probs], dtype=float)
    theta, twisted = est_mod._solve_twist(pf.counts, pf.exposures, probs, pf.n * b)
    return theta[0], tuple(twisted[0])


def test_one_loss_model_per_config(monkeypatch):
    # the config validates with the model its runs use: one build, not one
    # per validation and one per run
    builds = []
    real = est_mod.LossModel

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(est_mod, "LossModel", counting)
    cfg = config(kind="importance", m=200)
    run_tail_estimate(cfg)
    is_expected_shortfall(cfg)
    assert len(builds) == 1


class TestTwist:
    def test_no_twist_when_mean_loss_reaches_target(self):
        pf = Portfolio.homogeneous(500)
        theta, twisted = solve_twist(pf, [0.9], 0.8)
        assert theta == 0.0
        assert twisted == (0.9,)

    def test_homogeneous_closed_form(self):
        # 500 obligors at p=0.1 twisted to mean 400: odds ratio 36
        pf = Portfolio.homogeneous(500)
        theta, twisted = solve_twist(pf, [0.1], 0.8)
        assert theta == pytest.approx(math.log(36.0), rel=1e-12)
        assert twisted[0] == pytest.approx(0.8, rel=1e-12)

    def test_multi_group_calibration(self):
        pf = Portfolio(
            [SubPortfolio(1.0, 0.5, 300), SubPortfolio(2.5, 0.8, 200)]
        )
        probs = (0.05, 0.02)
        b = 1.1
        theta, twisted = solve_twist(pf, probs, b)
        assert theta > 0.0
        mean = sum(
            n * c * pt
            for n, c, pt in zip(
                [g.count for g in pf.groups], [g.exposure for g in pf.groups], twisted
            )
        )
        assert abs(mean - pf.n * b) <= 1e-9 * pf.n * b

    def test_twisted_probabilities_form(self):
        pf = Portfolio([SubPortfolio(1.0, 0.5, 50), SubPortfolio(3.0, 0.5, 50)])
        probs = (0.1, 0.2)
        theta, twisted = solve_twist(pf, probs, 1.2)
        for p, pt, c in zip(probs, twisted, (1.0, 3.0)):
            want = p * math.exp(theta * c) / (1.0 + p * (math.exp(theta * c) - 1.0))
            assert pt == pytest.approx(want, rel=1e-12)

    def test_step_cap_raises(self, monkeypatch):
        # bracketed at the first doubling, but one Newton step cannot converge
        pf = Portfolio([SubPortfolio(1.0, 0.5, 50), SubPortfolio(3.0, 0.5, 50)])
        monkeypatch.setattr(est_mod, "_TWIST_STEPS", 1)
        with pytest.raises(NumericalError, match="did not converge") as info:
            solve_twist(pf, (0.1, 0.2), 1.2)
        assert info.value.achieved > 1e-9 * 120.0

    def test_unattainable_target(self):
        pf = Portfolio.homogeneous(10)
        with pytest.raises(ValueError, match="attainable"):
            solve_twist(pf, [0.5], 1.5)  # n*b beyond total exposure


@st.composite
def twist_problems(draw):
    """1-3 groups with their own sizes and exposures, 1-4 rows of conditional
    probabilities (one row per replication) and a target n*b below the total
    exposure."""
    groups = draw(st.integers(1, 3))
    counts = tuple(draw(st.integers(1, 300)) for _ in range(groups))
    exposures = tuple(draw(st.floats(0.25, 5.0)) for _ in range(groups))
    rows = draw(st.integers(1, 4))
    probs = np.array([[draw(st.floats(1e-6, 0.9)) for _ in range(groups)] for _ in range(rows)])
    nb = draw(st.floats(0.01, 0.99)) * float(np.dot(counts, exposures))
    return counts, exposures, probs, nb


def twisted_mean(counts, exposures, p, theta):
    return sum(
        n * c * q / (q + (1.0 - q) * math.exp(-theta * c)) for n, c, q in zip(counts, exposures, p)
    )


def brentq_theta(counts, exposures, p, nb):
    hi = 1.0
    while twisted_mean(counts, exposures, p, hi) <= nb:
        hi *= 2.0
    return brentq(lambda t: twisted_mean(counts, exposures, p, t) - nb, 0.0, hi, xtol=1e-15)


class TestTwistProperties:
    """The twist solved for several replications at once, against a root-finding oracle."""

    @settings(max_examples=300, deadline=None)
    @given(twist_problems())
    # a row whose untwisted mean sits 4e-16 below n*b: the root is at 0 to
    # rounding, and the last Newton step lands just below the bracket
    @example((
        (1, 1), (0.5117755851281873, 4.314594893293652),
        np.array([[0.5, 0.5], [0.4570129379084901, 0.4570129379084901]]), 2.20571375177837,
    ))
    def test_matches_oracle_row_by_row(self, problem):
        counts, exposures, probs, nb = problem
        theta, twisted = est_mod._solve_twist(counts, exposures, probs, nb)
        assert theta.shape == (len(probs),) and twisted.shape == probs.shape
        # the untwisted means summed as the solver sums them: a row whose mean
        # sits on n*b to rounding may fall either side of it
        reached = probs @ np.multiply(counts, exposures) >= nb
        for p, t, pt, done in zip(probs, theta, twisted, reached):
            if done:
                assert t == 0.0
                np.testing.assert_array_equal(pt, p)
                continue
            mean = sum(n * c * q for n, c, q in zip(counts, exposures, pt))
            assert abs(mean - nb) <= 1e-9 * nb
            assert t == pytest.approx(brentq_theta(counts, exposures, p, nb), rel=1e-10, abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(twist_problems(), st.integers(1, 3))
    def test_step_cap_raises_or_converges(self, problem, steps):
        # a capped solve either meets the tolerance or raises; it never
        # returns an unconverged twist
        counts, exposures, probs, nb = problem
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(est_mod, "_TWIST_STEPS", steps)
            try:
                _, twisted = est_mod._solve_twist(counts, exposures, probs, nb)
            except NumericalError:
                return
        means = twisted @ np.multiply(counts, exposures)
        need = probs @ np.multiply(counts, exposures) < nb
        assert np.all(np.abs(means[need] - nb) <= 1e-9 * nb)


class TestSpliceSampler:
    def test_shape_parameter(self):
        ctx = RunContext(config(kind="importance", x0=1.0))
        assert ctx.eta == pytest.approx(0.10729140712187804, rel=1e-12)

    def test_unit_factor_below_splice(self):
        ctx = RunContext(config(kind="importance", x0=1.0))
        v, lr = is_sample_v(ctx, RngStream(8), 300)
        assert v.shape == lr.shape == (300,)
        assert np.all(v > 0.0)
        body = v < ctx.config.x0
        assert np.all(lr[body] == 1.0)
        assert np.all(lr[~body] >= 0.0)
        assert body.sum() > 0

    def test_mean_likelihood_factor_is_one(self):
        # change-of-measure identity for the spliced proposal
        ctx = RunContext(config(kind="importance", x0=1.0))
        n = 100_000
        lrs = is_sample_v(ctx, RngStream(44), n)[1]
        z = (lrs.mean() - 1.0) / (lrs.std(ddof=1) / math.sqrt(n))
        assert abs(z) <= 4.0

    def test_proposal_law_is_the_spliced_cdf(self):
        # F below x0; F(x0) plus the Pareto share of the tail mass sf(x0) above it
        ctx = RunContext(config(kind="importance", x0=1.0))
        x0, law, n = ctx.config.x0, ctx.law, 200_000
        v = np.sort(is_sample_v(ctx, RngStream(45), n)[0])
        t = np.array([0.2, 0.35, 0.5, 0.75, 0.9, 1.0, 1.5, 10.0, 1e3, 1e6])
        body = np.minimum(t, x0)
        spliced = 1.0 - law.sf(body) + np.where(
            t >= x0, law.sf(x0) * (1.0 - (x0 / t) ** ctx.eta), 0.0
        )
        empirical = np.searchsorted(v, t, side="right") / n
        sigma = np.sqrt(spliced * (1.0 - spliced) / n)
        assert np.all(np.abs(empirical - spliced) <= 4.0 * sigma)

    def test_scale_too_large_for_splice(self):
        # phi(1 - f_n) >= 1 leaves the Pareto shape undefined
        pf = Portfolio.homogeneous(20, pd_scale=0.2)
        with pytest.raises(ValueError, match="phi"):
            RunContext(
                EstimatorConfig(
                    portfolio=pf,
                    alpha=1.5,
                    scale=DefaultScale.constant(0.95),
                    b=0.1,
                    m=10,
                    seed=0,
                    kind="importance",
                )
            )


class TestNaiveRep:
    def test_block_of_indicators(self):
        ctx = RunContext(config(base=DESK, kind="naive", m=100, seed=3))
        vals = naive_tail_block(ctx, RngStream(4), 64)
        assert vals.shape == (64,)
        assert set(vals) == {0.0, 1.0}


class TestImportanceRep:
    def test_plain_indicator_when_untwisted_below_splice(self, monkeypatch):
        # with the mixture pinned below x0 and a mean loss above target the
        # replication must return the bare indicator
        cfg = config(base=DESK, kind="importance", m=10, seed=2, b=0.05)
        ctx = RunContext(cfg)
        v_fix = 4.0  # mean loss 20 * p(4.0) > 1 = n*b, so no twist
        model = ctx.model
        probs = model.default_probs(v_fix)
        assert sum(n * c * p for n, c, p in zip(model.counts, model.exposures, probs)) > model.nb
        monkeypatch.setattr(
            est_mod, "is_sample_v", lambda c, r, size: (np.full(size, v_fix), np.ones(size))
        )
        vals = set(is_tail_block(ctx, RngStream(6), 50))
        assert vals <= {0.0, 1.0}

    def test_values_nonnegative(self):
        cfg = config(kind="importance", m=500, seed=5)
        vals = replicate(RunContext(cfg), is_tail_block)
        assert vals.shape == (500,)
        assert np.all(vals >= 0.0)

    def test_matches_naive_in_non_rare_regime(self):
        m = 40_000
        naive = run_tail_estimate(config(base=DESK, kind="naive", m=m, seed=11))
        imp = run_tail_estimate(config(base=DESK, kind="importance", m=m, seed=12))
        gap = abs(naive.estimate - imp.estimate)
        assert gap <= 4.0 * math.hypot(naive.std_error, imp.std_error)


class TestConditionalRep:
    def test_single_obligor_unwinds_definition(self):
        pf = Portfolio.homogeneous(1, exposure=1.0, pd_scale=0.5)
        cfg = EstimatorConfig(
            portfolio=pf,
            alpha=1.5,
            scale=DefaultScale.constant(0.3),
            b=0.5,
            m=10,
            seed=21,
            kind="conditional",
        )
        ctx = RunContext(cfg)
        got = condmc_block(ctx, RngStream(99), 5)
        r = RngStream(99).standard_exponential(5)
        want = ctx.law.sf(r / (-math.log1p(-0.5 * 0.3)) ** 1.5)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize(
        "pf",
        [
            Portfolio.homogeneous(30, exposure=1.0, pd_scale=0.5),
            Portfolio([SubPortfolio(1.0, 0.5, 12), SubPortfolio(3.0, 0.7, 8)]),
        ],
        ids=["equal-exposures", "mixed-exposures"],
    )
    def test_block_matches_row_by_row_threshold_search(self, pf):
        # the partition / argsort-cumsum pass over a block against a loop that
        # adds up defaults in time order, row by row, on the same draws
        cfg = EstimatorConfig(
            portfolio=pf, alpha=1.5, scale=DefaultScale.constant(0.3), b=0.6, m=10, seed=0,
            kind="conditional",
        )
        ctx = RunContext(cfg)
        model = ctx.model
        got = condmc_block(ctx, RngStream(5), 64)
        times = RngStream(5).standard_exponential((64, model.n))
        times /= np.repeat(model.phis, model.counts)
        exposure = np.repeat(model.exposures, model.counts)
        want = []
        for row in times:
            loss = 0.0
            for i in np.argsort(row, kind="stable"):
                loss += exposure[i]
                if model.exceeds(loss):
                    want.append(ctx.law.sf(row[i]))
                    break
        np.testing.assert_array_equal(got, want)

    def test_values_in_unit_interval_and_rao_blackwell(self):
        cfg = config(base=DESK, kind="conditional", m=4000, seed=31)
        vals = replicate(RunContext(cfg), condmc_block)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        p_hat = vals.mean()
        assert vals.var(ddof=1) <= p_hat * (1.0 - p_hat)

    def test_heterogeneous_exposures_match_naive(self):
        # two exposure classes force the per-replication threshold search
        pf = Portfolio([SubPortfolio(1.0, 0.5, 12), SubPortfolio(3.0, 0.7, 8)])
        base = dict(portfolio=pf, alpha=1.5, scale=DefaultScale.constant(0.3), b=0.6)
        m = 40_000
        naive = run_tail_estimate(config(base=base, kind="naive", m=m, seed=41))
        cond = run_tail_estimate(config(base=base, kind="conditional", m=m, seed=42))
        gap = abs(naive.estimate - cond.estimate)
        assert gap <= 4.0 * math.hypot(naive.std_error, cond.std_error)

    def test_large_exposures_share_the_loss_event(self):
        # n*b is 5 below 3c: the conditional estimator must tip at the third
        # default, where exceeds() puts the event for naive and importance too
        c = 1e10
        base = dict(portfolio=Portfolio.homogeneous(4, exposure=c, pd_scale=1.0), alpha=1.5,
                    scale=DefaultScale.reciprocal(), b=(3 * c - 5) / 4)
        m = 40_000
        reps = [run_tail_estimate(config(base=base, kind=kind, m=m, seed=seed))
                for kind, seed in (("naive", 51), ("importance", 52), ("conditional", 53))]
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                gap = abs(a.estimate - b.estimate)
                assert gap <= 4.0 * math.hypot(a.std_error, b.std_error)

    def test_fast_scale_decay_warns(self):
        pf = Portfolio.homogeneous(100, pd_scale=0.5)
        cfg = EstimatorConfig(
            portfolio=pf,
            alpha=1.5,
            scale=DefaultScale.constant(5e-4),  # below 1/(10 n)
            b=0.5,
            m=10,
            seed=0,
            kind="conditional",
        )
        with pytest.warns(UserWarning, match="conditional"):
            RunContext(cfg)


class TestAggregate:
    def test_equal_positive_values(self):
        rep = aggregate(np.full(100, 0.25), seed=7)
        assert rep.estimate == 0.25
        assert rep.rel_error_pct == 0.0
        assert math.isinf(rep.variance_reduction)
        assert "capped" in rep.notes

    def test_all_zero_values_flagged(self):
        rep = aggregate(np.zeros(50))
        assert rep.estimate == 0.0
        assert math.isnan(rep.rel_error_pct)
        assert "undefined" in rep.notes

    def test_bernoulli_values_have_unit_variance_reduction(self):
        rng = RngStream(3)
        vals = (rng.uniform(size=20_000) < 0.3).astype(float)
        rep = aggregate(vals)
        assert rep.variance_reduction == pytest.approx(1.0, abs=1e-3)

    def test_matches_numpy_moments(self):
        vals = RngStream(9).uniform(size=500)
        rep = aggregate(vals, seed=5, runtime_s=1.5)
        assert rep.estimate == vals.mean()
        assert rep.std_error == pytest.approx(vals.std(ddof=1) / math.sqrt(500), rel=1e-12)
        assert rep.m == 500 and rep.seed == 5 and rep.runtime_s == 1.5

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            aggregate(np.array([1.0]))

    def test_non_finite_values_rejected(self):
        # a NaN used to give a NaN estimate with "variance reduction capped"
        with pytest.raises(NumericalError, match="2 of 4 replication values are not finite"):
            aggregate(np.array([1.0, np.nan, 0.5, np.inf]))


class TestRunners:
    def test_bitwise_determinism(self):
        cfg = config(kind="conditional", m=400, seed=17)
        a = run_tail_estimate(cfg)
        b = run_tail_estimate(cfg)
        assert a.estimate == b.estimate
        assert a.std_error == b.std_error
        assert a.variance_reduction == b.variance_reduction

    def test_naive_rare_event_often_all_zero(self):
        rep = run_tail_estimate(config(kind="naive", m=200, seed=2))
        assert rep.estimate <= 0.05


class TestExpectedShortfall:
    def test_zero_exceedances_error(self):
        cfg = config(kind="importance", m=2, seed=13)
        with pytest.raises(EstimationError, match="increase m"):
            is_expected_shortfall(cfg)

    def test_non_finite_weight_rejected(self, monkeypatch):
        def losses_and_weights(ctx, rng, size):
            weight = np.ones(size)
            weight[0] = np.inf
            return np.stack((np.full(size, ctx.model.nb + 1.0), weight))

        monkeypatch.setattr(est_mod, "_is_loss_and_weight", losses_and_weights)
        with pytest.raises(NumericalError, match="not finite"):
            is_expected_shortfall(config(kind="importance", m=10))

    def test_kind_coerced_to_importance(self):
        rep = is_expected_shortfall(config(kind="conditional", m=4000, seed=3))
        assert rep.estimate > 400.0
        assert math.isnan(rep.variance_reduction)

    def test_estimate_tracks_asymptotic(self):
        rep = is_expected_shortfall(config(kind="importance", m=8000, seed=19))
        # coarse run stays within a percent of the deterministic approximation
        assert rep.estimate == pytest.approx(476.95, rel=0.01)
        assert rep.std_error < 5.0

    def test_likelihood_normalization(self):
        # mean of the unbiasing weight without the indicator is 1; sampled on
        # the non-rare desk instance where the weight tail is light enough
        # for the sample mean to see the full mass
        cfg = config(base=DESK, kind="importance", m=60_000, seed=29)
        w = replicate(RunContext(cfg), est_mod._is_loss_and_weight)[1]
        z = (w.mean() - 1.0) / (w.std(ddof=1) / math.sqrt(cfg.m))
        assert abs(z) <= 4.0
