"""One-sided stable law: closed-form oracle at beta = 1/2, sampler laws, and
internal consistency of the density/survival evaluations.

The beta = 1/2 case is the Levy distribution with scale 1/2, whose density
and survival have elementary closed forms; it pins the numerics end to end.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erf, gammaln

import archcredit.stable as stable_mod
from archcredit import NumericalError, PositiveStableLaw, RngStream


def levy_pdf(x):
    return 1.0 / (2.0 * math.sqrt(math.pi)) * x**-1.5 * math.exp(-1.0 / (4.0 * x))


def levy_sf(x):
    return erf(1.0 / (2.0 * math.sqrt(x)))


BETAS = [0.2, 1 / 3, 0.5, 2 / 3, 0.8, 1 / 1.1]


@pytest.fixture(scope="module")
def half():
    return PositiveStableLaw(0.5)


class TestValidation:
    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.2, 1.7])
    def test_index_outside_unit_interval(self, beta):
        with pytest.raises(ValueError):
            PositiveStableLaw(beta)

    def test_nonpositive_x(self, half):
        with pytest.raises(ValueError):
            half.pdf(0.0)
        with pytest.raises(ValueError):
            half.sf(-1.0)


class TestClosedFormOracle:
    def test_pdf_at_one(self, half):
        assert half.pdf(1.0) == pytest.approx(0.2196956447338612, abs=1e-12)

    def test_sf_examples(self, half):
        assert half.sf(1.0) == pytest.approx(0.5204998778130465, abs=1e-12)
        assert half.sf(25.0) == pytest.approx(0.1124629160182849, abs=1e-12)

    def test_log_grid(self, half):
        xs = np.logspace(-2, 4, 49)
        pdf = half.pdf(xs)
        sf = half.sf(xs)
        assert np.max(np.abs(pdf - [levy_pdf(x) for x in xs])) <= 1e-8
        assert np.max(np.abs(sf - [levy_sf(x) for x in xs])) <= 1e-8

    def test_pdf_vanishes_at_origin(self, half):
        assert half.pdf(1e-4) <= 1e-10
        assert half.pdf(1e-3) == pytest.approx(levy_pdf(1e-3), abs=1e-10)


class TestShapeInvariants:
    @pytest.mark.parametrize("beta", [0.2, 1 / 3, 0.5, 2 / 3, 0.8, 1 / 1.1])
    def test_sf_monotone_and_bounded(self, beta):
        law = PositiveStableLaw(beta)
        xs = np.logspace(-3, 6, 40)
        sf = law.sf(xs)
        assert np.all(sf >= 0.0) and np.all(sf <= 1.0)
        assert np.all(np.diff(sf) <= 1e-12)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 2 / 3, 1 / 1.1])
    def test_pdf_matches_sf_derivative(self, beta):
        law = PositiveStableLaw(beta)
        for x in np.logspace(-1, 3, 9):
            p = law.pdf(x)
            if p <= 1e-8:
                continue
            h = 1e-4 * x
            deriv = -(law.sf(x + h) - law.sf(x - h)) / (2.0 * h)
            assert deriv == pytest.approx(p, rel=1e-5)

    def test_quadrature_near_index_one(self):
        # at beta = 1/1.001, lam = x**(-1000) and the kernel overflow a float
        # where their product does not: every point gives a value, no
        # OverflowError, and the density still matches the survival slope
        law = PositiveStableLaw(1 / 1.001)
        xs = np.geomspace(0.5, 3.0, 60)
        sf, pdf = law.sf(xs), law.pdf(xs)
        assert np.all(sf >= 0.0) and np.all(sf <= 1.0) and np.all(np.diff(sf) <= 1e-12)
        assert np.all(pdf >= 0.0)
        for x in (1.0, 1.5, 3.0):
            h = 1e-6 * x  # the density peaks sharply at 1
            deriv = -(law.sf(x + h) - law.sf(x - h)) / (2.0 * h)
            assert deriv == pytest.approx(law.pdf(x), rel=1e-6)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
    def test_tail_series_self_consistency(self, beta):
        # far enough out, the density is the leading power-law term; the
        # first non-vanishing correction term gauges "far enough"
        law = PositiveStableLaw(beta)
        from scipy.special import gamma

        def term(k, x):
            return (
                gamma(k * beta + 1.0)
                / math.factorial(k)
                * abs(math.sin(k * math.pi * beta))
                / math.pi
                * x ** (-k * beta - 1.0)
            )

        k2 = 2 if abs(math.sin(2 * math.pi * beta)) > 1e-12 else 3
        x = 10.0
        while term(k2, x) > 0.005 * term(1, x):
            x *= 2.0
        assert law.pdf(x) == pytest.approx(term(1, x), rel=0.01)


class TestSampler:
    def test_laplace_transform_identity(self):
        # E exp(-sV) = exp(-s**beta), checked by sample averaging
        rng = RngStream(2024)
        n = 200_000
        for beta in (0.3, 0.5, 0.8):
            v = PositiveStableLaw(beta).sample(rng, size=n)
            assert np.all(v > 0.0)
            for s in (0.25, 1.0, 4.0):
                e = np.exp(-s * v)
                z = (e.mean() - math.exp(-(s**beta))) / (e.std(ddof=1) / math.sqrt(n))
                assert abs(z) <= 4.0, f"beta={beta}, s={s}, z={z}"

    def test_laplace_at_zero_is_exact(self):
        v = PositiveStableLaw(0.5).sample(RngStream(5), size=1000)
        assert np.exp(-0.0 * v).mean() == 1.0

    def test_empirical_cdf_at_one(self, half):
        n = 200_000
        v = half.sample(RngStream(99), size=n)
        p = float((v <= 1.0).mean())
        ref = 1.0 - erf(0.5)
        se = math.sqrt(ref * (1.0 - ref) / n)
        assert abs(p - ref) <= 3.0 * se

    def test_scalar_sampling_matches_distribution(self, half):
        rng = RngStream(3)
        vals = np.array([half.sample(rng, 1)[0] for _ in range(20_000)])
        p = float((vals <= 1.0).mean())
        ref = 1.0 - erf(0.5)
        assert abs(p - ref) <= 4.0 * math.sqrt(ref * (1 - ref) / vals.size)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
    def test_edge_draws_take_their_limits_in_one_pass(self, beta):
        class OneBatch:
            """Serves one batch of each draw; a redraw finds none and raises."""

            def __init__(self):
                self.batches = {"uniform": np.array([0.0, math.pi / 2]),
                                "standard_exponential": np.array([1.0, 0.0])}
                self.calls = []

            def uniform(self, low, high, size):
                self.calls.append(("uniform", low, high, size))
                return self.batches.pop("uniform")

            def standard_exponential(self, size):
                self.calls.append(("standard_exponential", size))
                return self.batches.pop("standard_exponential")

        rng = OneBatch()
        v = PositiveStableLaw(beta).sample(rng, 2)
        assert rng.calls == [("uniform", 0.0, math.pi, 2), ("standard_exponential", 2)]
        # Theta = 0 takes the kernel's limit a(0+); W = 0 gives the limit +inf
        assert v[0] == pytest.approx(stable_mod._kernel_min(beta) ** ((1 - beta) / beta), rel=1e-14)
        assert v[1] == math.inf


class TestQuantilesAgainstSamples:
    @pytest.mark.parametrize("beta", [0.5, 2 / 3])
    def test_dkw_band_at_deciles(self, beta):
        law = PositiveStableLaw(beta)
        n = 1_000_000
        v = np.sort(law.sample(RngStream(31), size=n))
        eps = math.sqrt(math.log(2.0 / 0.01) / (2.0 * n))  # 99% DKW band
        for q in np.arange(0.1, 0.95, 0.1):
            hi = 1.0
            while law.sf(hi) > 1.0 - q:
                hi *= 4.0
            xq = brentq(lambda x: law.sf(x) - (1.0 - q), 1e-9, hi, xtol=1e-12)
            emp = np.searchsorted(v, xq, side="right") / n
            assert abs(emp - q) <= eps, f"beta={beta}, q={q}"


def series_oracle(beta, x, kind, terms=20_000):
    """The power series summed term by term to ``terms`` terms with
    ``math.fsum``, and the largest term's magnitude."""
    k = np.arange(1, terms + 1, dtype=float)
    delta = 1.0 if kind == "pdf" else 0.0
    log_c = gammaln(k * beta + delta) - gammaln(k + 1.0) - (k * beta + delta) * math.log(x)
    t = np.where(k % 2 == 1, 1.0, -1.0) * np.sin(k * math.pi * beta) * np.exp(log_c) / math.pi
    return math.fsum(t), float(np.abs(t).max())


def term_counts(law, xs, kind):
    """Terms each point sums: its certified count K(x), or the full series."""
    counts = np.searchsorted(law._series[kind].steps, -np.log(xs)) + 1
    return np.where(counts > stable_mod._SHORT_TERMS, stable_mod._SERIES_TERMS, counts)


class TestSeriesTruncation:
    @pytest.mark.parametrize("beta", BETAS)
    def test_truncated_series_within_rounding_of_full_sum(self, beta):
        # each point sums only its certified term count; the left-out tail is
        # below 1e-17 of the first term, so what remains is the rounding of
        # the terms, a few eps times the log of each, here and in the oracle
        law = PositiveStableLaw(beta)
        xs = np.logspace(0.5, 16, 32)
        for kind in ("sf", "pdf"):
            assert len(set(term_counts(law, xs, kind))) > 3
            got = getattr(law, kind)(xs)
            for x, g in zip(xs, got):
                want, biggest = series_oracle(beta, x, kind)
                assert abs(g - want) <= 64 * np.finfo(float).eps * biggest, (kind, x)

    def test_full_series_accepted_only_within_tolerance(self):
        # at beta = 0.99 the terms near x = 1 fall by a ratio close to 1, so
        # ten times the last terms underestimates the left-out tail; a point
        # the series cannot certify goes to the kernel rule.  At beta =
        # 1/1.001 the density reaches 23, so a relative 1e-8 would not do
        for beta, xs in ((0.99, np.linspace(0.97, 1.05, 33)),
                         (1 / 1.001, np.linspace(1.0, 1.06, 61))):
            law = PositiveStableLaw(beta)
            for kind in ("sf", "pdf"):
                assert not law._series_eval(xs, kind)[1].all()
                got = getattr(law, kind)(xs)
                for x, g in zip(xs, got):
                    assert abs(g - series_oracle(beta, x, kind)[0]) <= 1e-10, (beta, kind, x)

    @pytest.mark.parametrize("beta", BETAS + [0.99, 0.999])
    def test_envelope_ratio_bound_holds_past_the_table(self, beta):
        # the table bounds every envelope ratio past term N + 1 by one
        # closed-form value; check it term by term far beyond
        for kind, delta in (("pdf", 1.0), ("sf", 0.0)):
            j = np.arange(stable_mod._SERIES_TERMS + 2, 200_000, dtype=float)
            g = gammaln((j + 1.0) * beta + delta) - gammaln(j * beta + delta) - np.log(j + 1.0)
            assert g.max() <= PositiveStableLaw(beta)._series[kind].log_ratio_sup[-1], kind


def kernel_oracle(beta, x, kind):
    """The kernel integral of the density or survival at x by SciPy's
    adaptive quad, split where lam a(theta) = 1 (found by brentq)."""
    log_lam = -beta / (1.0 - beta) * math.log(x)

    def log_z(theta):
        return log_lam + (math.log(math.sin((1.0 - beta) * theta))
                          + beta / (1.0 - beta) * math.log(math.sin(beta * theta))
                          - 1.0 / (1.0 - beta) * math.log(math.sin(theta)))

    def integrand(theta):
        lz = log_z(theta)
        if kind == "sf":
            return 1.0 / math.pi if lz > 700.0 else -math.expm1(-math.exp(lz)) / math.pi
        pref = beta / ((1.0 - beta) * math.pi * x)
        return 0.0 if lz > 700.0 else pref * math.exp(lz - math.exp(lz))

    ends = (1e-12, math.pi - 1e-12)
    cuts = [brentq(log_z, *ends, xtol=1e-14)] if log_z(ends[0]) < 0.0 < log_z(ends[1]) else []
    edges = [0.0] + cuts + [math.pi]
    return sum(quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=400)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))


# PR 7's log grid and a finer one over the body of the law
KERNEL_GRID = np.unique(np.concatenate([np.logspace(-2, 16, 1801), np.logspace(-3, 3, 6001)]))


def series_rejected(law, xs, kind):
    """The points of xs that the series cannot certify, chunk by chunk."""
    step = stable_mod._CHUNK
    ok = np.concatenate([law._series_eval(xs[i : i + step], kind)[1] for i in range(0, xs.size, step)])
    return xs[~ok]


class TestKernelRule:
    @pytest.mark.parametrize("beta", [1 / 3, 1 / 2, 2 / 3, 0.8, 10 / 11, 0.99, 1 / 1.001])
    def test_matches_quad_within_tolerance(self, beta):
        # every point the series rejects gets a value; a strided subset of
        # them, plus the largest density, is held to the quad oracle
        law = PositiveStableLaw(beta)
        for kind in ("sf", "pdf"):
            xs = series_rejected(law, KERNEL_GRID, kind)
            got = getattr(law, kind)(xs)
            assert np.all(np.isfinite(got))
            picks = set(range(0, xs.size, 7)) | {int(np.argmax(got))} if xs.size else set()
            for i in sorted(picks):
                assert abs(got[i] - kernel_oracle(beta, xs[i], kind)) <= 1e-10, (kind, xs[i])

    def test_no_point_raises_near_index_one(self):
        # every point the series rejects at alpha = 1.0005 gets a value; the
        # survival stays a survival across them
        law = PositiveStableLaw(1 / 1.0005)
        xs = series_rejected(law, KERNEL_GRID, "sf")
        sf = law.sf(xs)
        assert xs.size > 3000 and np.all(sf >= 0.0) and np.all(sf <= 1.0)
        assert np.all(np.diff(sf) <= 1e-12)
        xs = series_rejected(law, KERNEL_GRID, "pdf")
        assert xs.size > 3000 and np.all(law.pdf(xs) >= 0.0)

    @pytest.mark.parametrize("kind", ["sf", "pdf"])
    def test_level_cap_raises(self, kind, monkeypatch):
        # at beta = 1/1.001 and x = 1 two levels do not agree within 1e-10
        monkeypatch.setattr(stable_mod, "_TS_LEVELS", (3, 4))
        law = PositiveStableLaw(1 / 1.001)
        assert not law._series_eval(np.array([1.0]), kind)[1][0]
        with pytest.raises(NumericalError, match="did not converge") as caught:
            getattr(law, kind)(1.0)
        assert caught.value.achieved > 1e-10


class TestSeriesTables:
    @pytest.mark.parametrize("beta", [0.05, 0.5, 2 / 3, 10 / 11, 0.999])
    def test_log_gamma_tables_match_gammaln(self, beta, monkeypatch):
        # the tables built from math.lgamma against the same builder fed
        # scipy's gammaln: the log coefficients agree to 1e-12 relative; the
        # ratio and step tables are differences of logs near 3 000, so they
        # agree to a few ulps of those logs, 5e-12 absolute (measured <= 2.7e-12)
        tables = stable_mod._series_tables(beta)
        monkeypatch.setattr(stable_mod, "_lgamma", gammaln)
        oracle = stable_mod._series_tables.__wrapped__(beta)
        for kind in ("pdf", "sf"):
            got, want = tables[kind], oracle[kind]
            for name in ("exponent", "sign"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            for name in ("log_mag", "log_env"):
                np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                           rtol=1e-12, atol=0, err_msg=f"{kind} {name}")
            for name in ("log_ratio_sup", "steps"):
                np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                           rtol=0, atol=5e-12, err_msg=f"{kind} {name}")

    def test_tables_built_once_per_beta_and_read_only(self):
        assert PositiveStableLaw(0.5)._series is PositiveStableLaw(0.5)._series
        for table in PositiveStableLaw(0.5)._series.values():
            assert not any(column.flags.writeable for column in table)


class TestBatchedEvaluation:
    @pytest.mark.parametrize("beta", [0.5, 2 / 3, 10 / 11])
    def test_one_call_matches_point_by_point_bits(self, beta):
        # 200 points span several chunks, many term counts, the full series
        # and the quadrature regime; batching must not change a bit
        law = PositiveStableLaw(beta)
        xs = np.logspace(-2, 8, 200)
        assert stable_mod._CHUNK < xs.size
        for kind in ("sf", "pdf"):
            series_ok = law._series_eval(xs, kind)[1]
            assert series_ok.any() and not series_ok.all()
            assert len(set(term_counts(law, xs[series_ok], kind))) > 2
            assert stable_mod._SERIES_TERMS in term_counts(law, xs, kind)
            evaluate = getattr(law, kind)
            batch = evaluate(xs)
            single = np.array([evaluate(float(x)) for x in xs])
            assert batch.tobytes() == single.tobytes(), kind

    @pytest.mark.parametrize("size", [0, 1, 2, 64, 65])
    def test_array_sizes_match_point_by_point_bits(self, size):
        # sizes around the chunk of 64; the points mix term counts, so one
        # call sums more columns than most of its points need
        law = PositiveStableLaw(1 / 1.1)
        xs = np.geomspace(2.0, 1e15, 65)[::-1][:size]
        for kind in ("sf", "pdf"):
            evaluate = getattr(law, kind)
            batch = evaluate(xs)
            assert batch.shape == (size,)
            single = np.array([evaluate(float(x)) for x in xs])
            assert batch.tobytes() == single.tobytes(), (kind, size)

    def test_zero_dimensional_input_gives_a_float(self):
        law = PositiveStableLaw(1 / 1.1)
        for kind in ("sf", "pdf"):
            evaluate = getattr(law, kind)
            got = evaluate(np.array(37.5))
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == evaluate(np.array([37.5]))[0].tobytes()
