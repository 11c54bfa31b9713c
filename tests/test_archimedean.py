import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau, kstest

from archcredit import GumbelGenerator, PositiveStableLaw, RngStream, sample_uniforms


class TestGenerator:
    def test_alpha_must_exceed_one(self):
        for bad in (1.0, 0.5, 0.0, -2.0):
            with pytest.raises(ValueError):
                GumbelGenerator(bad)

    def test_boundary_values(self):
        gen = GumbelGenerator(2.0)
        assert gen.phi(1.0) == 0.0
        assert gen.phi_inv(0.0) == 1.0
        assert gen.phi(math.exp(-1.0)) == pytest.approx(1.0, rel=1e-14)

    def test_domain_errors(self):
        gen = GumbelGenerator(1.5)
        for bad in (0.0, -0.5, 1.0001):
            with pytest.raises(ValueError):
                gen.phi(bad)
        with pytest.raises(ValueError):
            gen.phi_inv(-1e-9)
        with pytest.raises(ValueError):
            gen.phi_one_minus(1.0)

    def test_near_one_precision(self):
        # (-ln(1 - 1/500))**1.5 via 40-digit arithmetic: 8.95770959579e-5
        gen = GumbelGenerator(1.5)
        assert gen.phi_one_minus(1.0 / 500.0) == pytest.approx(8.957709595788e-05, rel=1e-12)
        assert gen.phi(1.0 - 1.0 / 500.0) == pytest.approx(8.957709595788e-05, rel=1e-12)

    @pytest.mark.parametrize("u", [0.01, 0.5, 0.999])
    def test_round_trip_examples(self, u):
        gen = GumbelGenerator(1.5)
        assert gen.phi_inv(gen.phi(u)) == pytest.approx(u, rel=1e-12)

    @given(
        alpha=st.floats(1.05, 8.0),
        u=st.floats(1e-6, 1.0, exclude_max=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property(self, alpha, u):
        gen = GumbelGenerator(alpha)
        assert gen.phi_inv(gen.phi(u)) == pytest.approx(u, rel=1e-12)

    def test_phi_inv_is_mixing_laplace_transform(self):
        # phi_inv(s) must equal E[exp(-s V)] for the factory's mixing law
        gen = GumbelGenerator(2.0)
        law = gen.mixing_law()
        assert isinstance(law, PositiveStableLaw)
        assert law.beta == 0.5
        v = law.sample(RngStream(17), size=200_000)
        for s in (0.5, 1.0, 2.0):
            e = np.exp(-s * v)
            z = (e.mean() - gen.phi_inv(s)) / (e.std(ddof=1) / math.sqrt(v.size))
            assert abs(z) <= 4.0

    def test_convexity(self):
        gen = GumbelGenerator(1.5)
        us = np.linspace(0.02, 0.99, 40)
        for u1, u2, u3 in zip(us, us[1:], us[2:]):
            lam = (u2 - u1) / (u3 - u1)
            chord = (1 - lam) * gen.phi(u1) + lam * gen.phi(u3)
            assert gen.phi(u2) <= chord + 1e-15

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0, 5.0])
    def test_regular_variation_at_one(self, alpha):
        gen = GumbelGenerator(alpha)
        t = 1e6
        for x in (2.0, 10.0):
            ratio = gen.phi_one_minus(1.0 / (t * x)) / gen.phi_one_minus(1.0 / t)
            assert ratio == pytest.approx(x**-alpha, rel=0.01)


class TestSampling:
    def test_monotone_limits(self):
        gen = GumbelGenerator(1.5)
        assert gen.phi_inv(1e12) < 1e-6  # huge exponential -> coordinate near 0
        assert gen.phi_inv(1e-12) > 1.0 - 1e-3  # tiny exponential -> near 1

    def test_rejects_nonpositive_mixture(self):
        gen = GumbelGenerator(1.5)
        with pytest.raises(ValueError):
            sample_uniforms(gen, 3, 0.0, RngStream(1))

    def test_marginal_uniformity_ks(self):
        # V redrawn per replicate so pooled coordinates are iid Uniform(0,1)
        gen = GumbelGenerator(1.5)
        law = gen.mixing_law()
        rng = RngStream(271)
        u = np.concatenate(
            [sample_uniforms(gen, 1, v, rng) for v in law.sample(rng, 100_000)]
        )
        stat = kstest(u, "uniform").statistic
        assert stat <= 1.6276 / math.sqrt(u.size)  # 99% critical value

    def test_kendall_tau_identity(self):
        # Gumbel pair concordance: tau = 1 - 1/alpha
        alpha = 1.1
        gen = GumbelGenerator(alpha)
        law = gen.mixing_law()
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
        gen = GumbelGenerator(alpha)
        law = gen.mixing_law()
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
