import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import archcredit.asymptotics as asym_mod
import archcredit.portfolio as portfolio

from archcredit import (
    DefaultScale,
    LossModel,
    NumericalError,
    Portfolio,
    SubPortfolio,
    expected_shortfall_asymptotic,
    homogeneous_shortfall_asymptotic,
    homogeneous_tail_asymptotic,
    tail_probability_asymptotic,
)


def homog_model(n, alpha=1.5, b=0.8, l=0.5, c=1.0):
    pf = Portfolio.homogeneous(n, exposure=c, pd_scale=l)
    return LossModel(pf, alpha, DefaultScale.reciprocal(), b)


class TestInputs:
    def test_validation(self):
        pf = Portfolio.homogeneous(100)
        with pytest.raises(ValueError):
            LossModel(pf, 1.0, DefaultScale.reciprocal(), 0.5)
        with pytest.raises(ValueError):
            LossModel(pf, 1.5, DefaultScale.reciprocal(), 1.5)
        with pytest.raises(ValueError):
            LossModel(pf, 1.5, DefaultScale.reciprocal(), 0.0)

    def test_resolved_scale(self):
        model = homog_model(250)
        assert model.f_n == pytest.approx(1 / 250)

    def test_vstar_solved_once_for_both_approximations(self, monkeypatch):
        # LossModel.vstar calls the solver through the portfolio module's binding
        calls = []
        real = portfolio.solve_vstar
        monkeypatch.setattr(portfolio, "solve_vstar", lambda *a: calls.append(a) or real(*a))
        model = homog_model(500)
        tail_probability_asymptotic(model)
        expected_shortfall_asymptotic(model)
        assert model.vstar == real(model.portfolio, 1.5, 0.8)
        assert len(calls) == 1

    def test_cli_runs_with_scipy_blocked(self):
        # SciPy is a test-only dependency: with every scipy import made to
        # fail, the CLI still runs asymptotic rows, every estimator, and two
        # importance rows whose splice weights reach the stable law's kernel
        # rule (x0 = 0.1 at 121 points; alpha = 1.001)
        runs = [
            ["estimate", "--method", "naive", "--method", "importance", "--method",
             "conditional", "--asymptotic", "--m", "200"],
            ["es", "--m", "200"],
            ["asymptotic", "--es"],
            ["estimate", "--method", "importance", "--alpha", "1.5", "--x0", "0.1", "--m", "3000",
             "--seed", "1"],
            ["estimate", "--method", "importance", "--alpha", "1.001", "--n", "50", "--b", "0.3",
             "--m", "500"],
        ]
        code = (
            "import sys, contextlib, io\n"
            "sys.modules['scipy'] = None\n"
            "import archcredit.cli as cli\n"
            f"runs = {runs!r}\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(argv) for argv in runs]\n"
            "print(codes)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={"PYTHONPATH": src})
        assert out.stdout.strip() == "[0, 0, 0, 0, 0]"


class TestUpperGamma:
    @pytest.mark.parametrize("alpha", [1.001, 1.1, 1.5, 2.0, 5.0, 100.0])
    def test_matches_scipy(self, alpha):
        # the series side, the fraction side and the crossover between them;
        # s -> 0 is where Gamma(s) - gamma(s, x) would cancel; at x = 0 it is
        # Gamma(s)
        from scipy.special import gamma, gammaincc

        s = 1.0 - 1.0 / alpha
        cut = asym_mod._CF_FROM
        xs = [0.0] + np.geomspace(1e-8, 700.0, 400).tolist() + [np.nextafter(cut, 0.0), cut]
        for x in xs:
            want = gammaincc(s, x) * gamma(s)
            assert asym_mod._upper_gamma(s, x) == pytest.approx(want, rel=1e-12, abs=0), x

    @pytest.mark.parametrize("x", [0.5, 10.0])
    def test_step_cap_raises(self, x, monkeypatch):
        monkeypatch.setattr(asym_mod, "_GAMMA_STEPS", 3)
        with pytest.raises(NumericalError, match="did not converge"):
            asym_mod._upper_gamma(0.25, x)


class TestTailProbability:
    # the size sweep at alpha=1.5, b=0.8, l=0.5, c=1, f_n=1/n
    SWEEP = {100: 1.359e-3, 250: 5.436e-4, 500: 2.718e-4, 1000: 1.359e-4}

    @pytest.mark.parametrize("n,want", sorted(SWEEP.items()))
    def test_size_sweep_to_four_digits(self, n, want):
        got = tail_probability_asymptotic(homog_model(n))
        assert float(f"{got:.4g}") == want

    def test_homogeneous_closed_form_identity(self):
        got = tail_probability_asymptotic(homog_model(500))
        closed = homogeneous_tail_asymptotic(1.5, 1 / 500, 0.8, 0.5, 1.0)
        assert got == pytest.approx(closed, rel=1e-12)

    def test_proportional_to_scale(self):
        pf = Portfolio.homogeneous(500, pd_scale=0.5)
        a = tail_probability_asymptotic(
            LossModel(pf, 1.5, DefaultScale.constant(0.001), 0.8)
        )
        b = tail_probability_asymptotic(
            LossModel(pf, 1.5, DefaultScale.constant(0.002), 0.8)
        )
        assert b / a == pytest.approx(2.0, rel=1e-12)

    def test_decreasing_in_level(self):
        vals = [tail_probability_asymptotic(homog_model(500, b=b)) for b in (0.2, 0.4, 0.6, 0.8)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_increasing_in_alpha_at_high_level(self):
        # b/c = 0.8 exceeds 1 - exp(-exp(-gamma)), so the approximation
        # increases with the dependence index
        vals = [tail_probability_asymptotic(homog_model(500, alpha=a)) for a in (1.1, 1.5, 2.0, 5.0)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_heterogeneous_portfolio_runs(self):
        pf = Portfolio([SubPortfolio(1.0, 0.5, 300), SubPortfolio(2.0, 0.8, 200)])
        model = LossModel(pf, 1.5, DefaultScale.reciprocal(), 0.9)
        assert tail_probability_asymptotic(model) > 0.0


@pytest.mark.parametrize("b", [1e-6, 1e-9, 1e-12, 1e-15])
def test_small_level_keeps_relative_accuracy(b):
    # v* = -log1p(-b) / l**alpha for c = 1; a stop at an absolute tolerance
    # in r, or ln(c / (c - b)), would lose its digits as b shrinks
    model = homog_model(1000, b=b)
    assert model.vstar == pytest.approx(-math.log1p(-b) / 0.5**1.5, rel=1e-11)
    tail = homogeneous_tail_asymptotic(1.5, 1 / 1000, b, 0.5, 1.0)
    assert tail_probability_asymptotic(model) == pytest.approx(tail, rel=1e-11)
    shortfall = homogeneous_shortfall_asymptotic(1.5, b, 1.0, 1000)
    assert expected_shortfall_asymptotic(model) == pytest.approx(shortfall, rel=1e-11)


class TestExpectedShortfall:
    SWEEP = {50: 47.695, 100: 95.390, 250: 238.475, 500: 476.950}

    @pytest.mark.parametrize("n,want", sorted(SWEEP.items()))
    def test_size_sweep(self, n, want):
        got = expected_shortfall_asymptotic(homog_model(n))
        assert got == pytest.approx(want, abs=5.1e-4)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0, 5.0])
    @pytest.mark.parametrize("b", [0.3, 0.5, 0.8])
    def test_quadrature_matches_incomplete_gamma(self, alpha, b):
        got = expected_shortfall_asymptotic(homog_model(500, alpha=alpha, b=b))
        closed = homogeneous_shortfall_asymptotic(alpha, b, 1.0, 500)
        assert got == pytest.approx(closed, rel=1e-9)

    def test_exceeds_threshold(self):
        for b in (0.1, 0.5, 0.9):
            n_psi = expected_shortfall_asymptotic(homog_model(500, b=b))
            assert n_psi > 500 * b

    def test_saturation_near_mean_exposure(self):
        cbar = 1.0
        b = cbar * (1.0 - 1e-6)
        psi = expected_shortfall_asymptotic(homog_model(500, b=b)) / 500
        assert psi == pytest.approx(cbar, abs=1e-3)

    def test_heterogeneous_matches_mixture_quadrature(self):
        # oracle: integrate the two-group loss-curve derivative directly
        pf = Portfolio([SubPortfolio(1.0, 0.5, 300), SubPortfolio(2.0, 0.8, 200)])
        alpha, b = 1.5, 0.9
        model = LossModel(pf, alpha, DefaultScale.reciprocal(), b)
        got = expected_shortfall_asymptotic(model)

        from scipy.integrate import quad
        from archcredit import solve_vstar

        vstar = solve_vstar(pf, alpha, b)
        c = pf.exposures
        w = pf.weights
        l_a = pf.pd_scales**alpha

        def rprime(v):
            return float((c * w * l_a * [math.exp(-v * la) for la in l_a]).sum())

        # truncate where the integrand has decayed by e**-60 relative
        hi = vstar + 60.0 / float(l_a.min())
        val, _ = quad(lambda v: rprime(v) * v ** (-1 / alpha), vstar, hi, limit=400)
        want = pf.n * (b + val / vstar ** (-1 / alpha))
        assert got == pytest.approx(want, rel=1e-6)
