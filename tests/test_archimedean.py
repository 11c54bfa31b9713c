"""The Gumbel generator phi(t) = (-ln t)**alpha, as the loss model evaluates it,
and its mixing law: the positive stable law with index 1/alpha."""

import math

import numpy as np
import pytest
from scipy.stats import kendalltau, kstest

from archcredit import (
    DefaultScale,
    EstimatorConfig,
    LossModel,
    Portfolio,
    PositiveStableLaw,
    RngStream,
    RunContext,
)


def phi_f(alpha, f_n):
    """phi(1 - f_n) as the loss model of a small portfolio at constant scale f_n holds it."""
    return LossModel(Portfolio.homogeneous(10), alpha, DefaultScale.constant(f_n), 0.5).phi_f


class TestGenerator:
    def test_alpha_must_exceed_one(self):
        for bad in (1.0, 0.5, 0.0, -2.0):
            with pytest.raises(ValueError):
                LossModel(Portfolio.homogeneous(10), bad, DefaultScale.reciprocal(), 0.5)

    def test_near_one_precision(self):
        # (-ln(1 - 1/500))**1.5 via 40-digit arithmetic: 8.95770959579e-5
        model = LossModel(Portfolio.homogeneous(500), 1.5, DefaultScale.reciprocal(), 0.8)
        assert model.phi_f == pytest.approx(8.957709595788e-05, rel=1e-12)

    def test_phi_inv_is_mixing_laplace_transform(self):
        # the inverse generator exp(-s**(1/alpha)) must equal E[exp(-s V)] for
        # the run's mixing law
        cfg = EstimatorConfig(portfolio=Portfolio.homogeneous(10), alpha=2.0,
                              scale=DefaultScale.reciprocal(), b=0.5, m=2, seed=0)
        assert RunContext(cfg).law.beta == 0.5
        law = PositiveStableLaw(1 / 2.0)
        v = law.sample(RngStream(17), size=200_000)
        for s in (0.5, 1.0, 2.0):
            e = np.exp(-s * v)
            z = (e.mean() - math.exp(-math.sqrt(s))) / (e.std(ddof=1) / math.sqrt(v.size))
            assert abs(z) <= 4.0

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0, 5.0])
    def test_regular_variation_at_one(self, alpha):
        t = 1e6
        for x in (2.0, 10.0):
            ratio = phi_f(alpha, 1.0 / (t * x)) / phi_f(alpha, 1.0 / t)
            assert ratio == pytest.approx(x**-alpha, rel=0.01)


class TestSampling:
    def test_marginal_uniformity_ks(self):
        # V redrawn per replicate so pooled coordinates are iid Uniform(0,1)
        law = PositiveStableLaw(1 / 1.5)
        rng = RngStream(271)
        # one copula coordinate U = exp(-(R / V)**(1/alpha)) per draw of V
        u = np.concatenate([
            np.exp(-((rng.standard_exponential(1) / v) ** (1 / 1.5)))
            for v in law.sample(rng, 100_000)
        ])
        stat = kstest(u, "uniform").statistic
        assert stat <= 1.6276 / math.sqrt(u.size)  # 99% critical value

    def test_kendall_tau_identity(self):
        # Gumbel pair concordance: tau = 1 - 1/alpha
        alpha = 1.1
        law = PositiveStableLaw(1 / alpha)
        rng = RngStream(55)
        n = 100_000
        v = law.sample(rng, size=n)
        r1 = rng.standard_exponential(n)
        r2 = rng.standard_exponential(n)
        u1 = np.exp(-((r1 / v) ** (1.0 / alpha)))
        u2 = np.exp(-((r2 / v) ** (1.0 / alpha)))
        tau = kendalltau(u1, u2).statistic
        assert tau == pytest.approx(1.0 - 1.0 / alpha, abs=0.01)

    def test_upper_tail_positive_dependence(self):
        alpha = 5.0
        law = PositiveStableLaw(1 / alpha)
        rng = RngStream(91)
        n = 200_000
        v = law.sample(rng, size=n)
        r1 = rng.standard_exponential(n)
        r2 = rng.standard_exponential(n)
        u1 = np.exp(-((r1 / v) ** (1.0 / alpha)))
        u2 = np.exp(-((r2 / v) ** (1.0 / alpha)))
        joint = float(((u1 > 0.99) & (u2 > 0.99)).mean())
        prod = float((u1 > 0.99).mean()) * float((u2 > 0.99).mean())
        assert joint >= prod
