"""Numerics for the one-sided (positive) stable law.

This is the mixing distribution behind the Gumbel copula: the positive random
variable V with Laplace transform ``E[exp(-s V)] = exp(-s**beta)`` for a
stability index ``beta`` in (0, 1).  The module provides exact sampling via
the Kanter transform plus density and survival evaluation, which have no
closed form for general ``beta``.

Evaluation strategy
-------------------
Two complementary representations are used, with an automatic crossover:

* a convergent power series in ``x**-beta`` (fast and accurate for moderate
  to large ``x``; its truncation/cancellation error is estimated per point);
* a one-dimensional integral over the Kanter kernel ``a(theta)`` on
  ``(0, pi)``, evaluated by adaptive quadrature with the integrand's peak
  located first (robust for small ``x`` where the series loses precision).

The series is attempted first; the quadrature is used whenever the series
cannot certify the accuracy target (1e-10 absolute, and much better in
relative terms wherever the series converges).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from .errors import NumericalError
from .rng import RngStream

_SERIES_TERMS = 500
_ABS_TOL = 1e-13
_REL_TOL = 1e-11
_LOG_TINY = -745.0  # exp underflows below this
_CHUNK = 64  # points per series evaluation; bounds the (points, terms) temporaries
LOG_V_MAX = 700.0  # sampled log V is clamped here, clear of exp overflow at about 709.8


def _log_kernel(theta, beta: float):
    """log a(theta) for the Kanter kernel on (0, pi).

    a(theta) = sin((1-b) theta) * sin(b theta)^(b/(1-b)) / sin(theta)^(1/(1-b))
    evaluated in log space to avoid overflow near theta = pi.
    """
    return (
        np.log(np.sin((1.0 - beta) * theta))
        + beta / (1.0 - beta) * np.log(np.sin(beta * theta))
        - 1.0 / (1.0 - beta) * np.log(np.sin(theta))
    )


def _kernel_min(beta: float) -> float:
    """Limit of a(theta) as theta -> 0+, the kernel's smallest value."""
    return (1.0 - beta) * beta ** (beta / (1.0 - beta))


def _peak_theta(lam: float, beta: float) -> float:
    """theta at which lam * a(theta) = 1, used as a quadrature break point.

    a is increasing from a(0+) to infinity at pi, so bisection on log a
    applies; endpoints are returned when the equation has no root.
    """
    target = -math.log(lam)
    lo, hi = 1e-12, math.pi - 1e-12
    if _log_kernel(lo, beta) >= target:
        return lo
    if _log_kernel(hi, beta) <= target:
        return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _log_kernel(mid, beta) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class PositiveStableLaw:
    """One-sided stable law with Laplace transform exp(-s**beta), 0 < beta < 1."""

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"stability index must lie in (0, 1), got {self.beta}")

    # series tables ---------------------------------------------------------

    @cached_property
    def _series(self):
        """Per-term log magnitudes and signs of the x**-beta power series.

        Term k of the density is
            (-1)^(k+1) Gamma(k b + 1) / k! * sin(k pi b) * x^(-k b - 1) / pi
        and the survival series integrates it term-wise (exponent -k b,
        coefficient Gamma(k b) / k!).
        """
        k = np.arange(1, _SERIES_TERMS + 1)
        s = np.sin(k * math.pi * self.beta)
        sign = np.where(k % 2 == 1, 1.0, -1.0) * np.sign(s)
        with np.errstate(divide="ignore"):
            log_s = np.log(np.abs(s))
            log_pdf = gammaln(k * self.beta + 1.0) - gammaln(k + 1.0) + log_s - math.log(math.pi)
            log_sf = gammaln(k * self.beta) - gammaln(k + 1.0) + log_s - math.log(math.pi)
        return k.astype(float), sign, log_pdf, log_sf

    # sampling --------------------------------------------------------------

    def sample(self, rng: RngStream, size: int) -> np.ndarray:
        """Draw ``size`` values from the law by the Kanter transform.

        V = (a(Theta) / W) ** ((1 - beta) / beta) with Theta uniform on
        (0, pi) and W standard exponential; one exact draw per pair.
        """
        out = np.empty(size)
        filled = 0
        while filled < size:
            need = size - filled
            theta = rng.uniform(0.0, math.pi, need)
            w = rng.standard_exponential(need)
            ok = (theta > 0.0) & (w > 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                log_v = (1.0 - self.beta) / self.beta * (_log_kernel(theta, self.beta) - np.log(w))
            log_v = np.where(ok, log_v, np.nan)
            good = np.isfinite(log_v) & (log_v < LOG_V_MAX)
            # overflow-scale draws are clamped rather than resampled
            log_v = np.where(np.isfinite(log_v) & ~good, LOG_V_MAX, log_v)
            keep = np.isfinite(log_v)
            n_keep = int(keep.sum())
            out[filled : filled + n_keep] = np.exp(log_v[keep])
            filled += n_keep
        return out

    # density / survival ----------------------------------------------------

    def pdf(self, x):
        """Density at x > 0 (scalar or array), absolute accuracy <= 1e-10."""
        return self._evaluate(x, kind="pdf")

    def sf(self, x):
        """Survival function P(V > x) for x > 0, absolute accuracy <= 1e-10."""
        return self._evaluate(x, kind="sf")

    def _evaluate(self, x, kind: str):
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        if np.any(~(xs > 0.0)):
            raise ValueError("stable pdf/sf require x > 0")
        out = np.empty_like(xs)
        need_quad = np.zeros(xs.shape, dtype=bool)
        for start in range(0, xs.size, _CHUNK):
            sl = slice(start, min(start + _CHUNK, xs.size))
            vals, ok = self._series_eval(xs[sl], kind)
            out[sl] = vals
            need_quad[sl] = ~ok
        for i in np.nonzero(need_quad)[0]:
            out[i] = self._quad_eval(float(xs[i]), kind)
        if kind == "sf":
            np.clip(out, 0.0, 1.0, out=out)
        else:
            np.maximum(out, 0.0, out=out)
        return float(out[0]) if scalar else out.reshape(np.shape(x))

    def _series_eval(self, xs: np.ndarray, kind: str):
        k, sign, log_pdf, log_sf = self._series
        if kind == "pdf":
            exponent = k * self.beta + 1.0
            logmag = log_pdf
        else:
            exponent = k * self.beta
            logmag = log_sf
        # one (points, terms) array, updated in place: log terms, terms, magnitudes
        terms = np.log(xs)[:, None] * exponent
        np.subtract(logmag, terms, out=terms)
        with np.errstate(over="ignore", invalid="ignore"):
            np.exp(terms, out=terms)
            terms *= sign
            bad = ~np.isfinite(terms)
            finite = ~bad.any(axis=1)
            terms[bad] = 0.0
            vals = terms.sum(axis=1)
            np.abs(terms, out=terms)
            err = terms.max(axis=1) * 5e-16 + 10.0 * terms[:, -3:].max(axis=1)
        ok = finite & np.isfinite(vals) & (err <= _ABS_TOL + _REL_TOL * np.abs(vals))
        vals = np.where(np.isfinite(vals), vals, 0.0)
        return vals, ok

    def _quad_eval(self, x: float, kind: str) -> float:
        # imported here: scipy.integrate costs about 26 MB and 0.2 s to import
        from scipy.integrate import quad

        beta = self.beta
        lam = x ** (-beta / (1.0 - beta))
        if not math.isfinite(lam):
            # x so small that the density/cdf vanish below any tolerance
            return 0.0 if kind == "pdf" else 1.0
        if lam == 0.0:
            # x beyond the far tail; both density and survival are below tolerance
            return 0.0
        if lam * _kernel_min(beta) > -_LOG_TINY:
            return 0.0 if kind == "pdf" else 1.0
        peak = _peak_theta(lam, beta)

        if kind == "pdf":
            # fold the x-dependent prefactor into the integrand (in log space)
            # so the quadrature's epsabs bounds the final absolute error
            log_pref = math.log(beta / ((1.0 - beta) * math.pi)) - math.log(x) / (1.0 - beta)

            def integrand(theta: float) -> float:
                if theta <= 0.0 or theta >= math.pi:
                    return 0.0
                la = float(_log_kernel(theta, beta))
                e = log_pref + la - lam * math.exp(la)
                return math.exp(e) if e > _LOG_TINY else 0.0

        else:

            def integrand(theta: float) -> float:
                if theta <= 0.0:
                    return -math.expm1(-lam * _kernel_min(beta)) / math.pi
                if theta >= math.pi:
                    return 1.0 / math.pi
                z = lam * math.exp(float(_log_kernel(theta, beta)))
                return (-math.expm1(-z) if z < -_LOG_TINY else 1.0) / math.pi

        val, abserr = 0.0, 0.0
        for lo, hi in ((0.0, peak), (peak, math.pi)):
            if hi <= lo:
                continue
            res = quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-11, limit=300, full_output=1)
            val += res[0]
            abserr += res[1]
        if abserr > max(1e-10, 1e-8 * abs(val)):
            raise NumericalError(
                f"stable {kind} quadrature did not converge at x={x:g}, beta={self.beta:g}",
                achieved=abserr,
            )
        return val
