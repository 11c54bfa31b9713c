"""Numerics for the one-sided (positive) stable law.

This is the mixing distribution behind the Gumbel copula: the positive random
variable V with Laplace transform ``E[exp(-s V)] = exp(-s**beta)`` for a
stability index ``beta`` in (0, 1).  The module provides exact sampling via
the Kanter transform, in which a draw past the float range is +inf, plus
density and survival evaluation, which have no closed form for general
``beta``.

Evaluation strategy
-------------------
Two complementary representations are used, with an automatic crossover:

* a convergent power series in ``x**-beta`` (fast and accurate for moderate
  to large ``x``).  Each point sums only as many terms as a certified bound
  on the rest needs: |sin| <= 1 gives an envelope of the terms whose ratio
  is known in closed form, a step table built once per law maps log x to
  the least term count K(x) past which every envelope ratio is <= 1/2 and
  the tail is <= 1e-17 of the first term, and a point needing more than 128
  terms sums all 500.  A point's error bound is the rounding of its largest
  term plus the geometric-series bound on the terms it leaves out;
* a one-dimensional integral over the Kanter kernel ``a(theta)`` on
  ``(0, pi)``, evaluated by adaptive quadrature with the integrand's peak
  located first (robust for small ``x`` where the series loses precision;
  Nolan 1997).

The series is attempted first; the quadrature is used whenever the series
cannot certify the accuracy target (1e-10 absolute, and much better in
relative terms wherever the series converges).  K(x) depends on x alone, so
a point gets the same bits in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .errors import NumericalError
from .rng import RngStream

_SERIES_TERMS = 500
# A point whose certified count K(x) is at most _SHORT_TERMS sums K(x) terms in
# a block of columns rounded up to a multiple of _COLUMN_STEP, the rest zero.
# NumPy sums a row of at most 128 values with 8 interleaved accumulators, so
# zero columns added in steps of 8 leave each sum bit for bit unchanged: a
# point gets the same bits whichever points share its call.
_SHORT_TERMS = 128
_COLUMN_STEP = 8
_TAIL_REL = 1e-17  # truncated tail bound relative to the first envelope term
_LOG2 = math.log(2.0)
_ABS_TOL = 1e-13
_REL_TOL = 1e-11
_LOG_TINY = -745.0  # exp underflows below this
_LOG_SATURATED = math.log(-_LOG_TINY)  # exp(-z) underflows once log z exceeds this
_CHUNK = 64  # points per series evaluation; bounds the (points, terms) temporaries


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


class _Series(NamedTuple):
    """Power series of one kind (pdf or sf) with its truncation table."""

    exponent: np.ndarray  # term k is proportional to x**-exponent[k - 1], k = 1 .. N + 1
    sign: np.ndarray  # sign of term k, k = 1 .. N
    log_mag: np.ndarray  # log |coefficient| of term k, k = 1 .. N
    log_env: np.ndarray  # log envelope coefficient of term k, k = 1 .. N + 1
    log_ratio_sup: np.ndarray  # log of sup over j >= k of e_{j+1} / e_j at x = 1, k = 1 .. N + 1
    steps: np.ndarray  # K(x) = 1 + searchsorted(steps, -log x); see PositiveStableLaw._series


def _partial_sums(table: _Series, lx: np.ndarray, count: np.ndarray):
    """Sum of the first count[i] terms at log x = lx[i], and the largest
    term's magnitude; non-finite where a term overflows."""
    width = int(count.max(initial=1))
    if width > _SHORT_TERMS:  # the full series, at every point
        log_mag = table.log_mag[:width]
    else:  # terms past a point's own count are exp(-inf) = 0
        width = -(-width // _COLUMN_STEP) * _COLUMN_STEP
        log_mag = np.where(np.arange(width) < count[:, None], table.log_mag[:width], -np.inf)
    # one (points, terms) array, updated in place: log terms, terms, magnitudes
    terms = lx[:, None] * table.exponent[:width]
    np.subtract(log_mag, terms, out=terms)
    with np.errstate(over="ignore", invalid="ignore"):
        np.exp(terms, out=terms)
        terms *= table.sign[:width]
        vals = terms.sum(axis=1)
        np.abs(terms, out=terms)
        return vals, terms.max(axis=1, initial=0.0)


def _tail_bound(table: _Series, beta: float, lx: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Certified bound on the terms after the first K = count[i] at log x =
    lx[i]: the geometric series e_{K+1}(x) / (1 - r), with r the supremum of
    the later envelope ratios; inf where r is not below 1."""
    log_r = table.log_ratio_sup[count] - beta * lx
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bound = np.exp(table.log_env[count] - table.exponent[count] * lx) / -np.expm1(log_r)
    return np.where(log_r < 0.0, bound, np.inf)


@dataclass(frozen=True)
class PositiveStableLaw:
    """One-sided stable law with Laplace transform exp(-s**beta), 0 < beta < 1."""

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"stability index must lie in (0, 1), got {self.beta}")

    # series tables ---------------------------------------------------------

    @cached_property
    def _series(self) -> dict[str, _Series]:
        """The x**-beta power series of the density and of the survival.

        Term k of the density is
            (-1)^(k+1) Gamma(k b + 1) / k! * sin(k pi b) * x^(-k b - 1) / pi
        and the survival series integrates it term-wise (exponent -k b,
        coefficient Gamma(k b) / k!).  With delta = 1 (pdf) or 0 (sf), the
        envelope e_k(x) = Gamma(k b + delta) / (k! pi) * x^(-k b - delta)
        bounds |term k|, since |sin| <= 1.  Its term ratio e_{j+1}/e_j is
        exp(g_j) x^-b with g_j = log Gamma((j+1) b + delta) - log Gamma(j b + delta)
        - log(j + 1), taken from gammaln up to j = N + 1.  Past that, log-gamma's
        convexity and psi(y) < log y give
            g_j <= (b - 1) log(j + 1) + b log(b + delta / (j + 1)),
        which falls with j, so its value at j = N + 2 bounds every later g_j.
        """
        beta = self.beta
        k = np.arange(1, _SERIES_TERMS + 3, dtype=float)  # terms 1 .. N + 2
        s = np.sin(k[:_SERIES_TERMS] * math.pi * beta)
        sign = np.where(k[:_SERIES_TERMS] % 2 == 1, 1.0, -1.0) * np.sign(s)
        with np.errstate(divide="ignore"):
            log_s = np.log(np.abs(s))
        tables = {}
        for kind, delta in (("pdf", 1.0), ("sf", 0.0)):
            log_coef = gammaln(k * beta + delta) - gammaln(k + 1.0)
            log_env = log_coef - math.log(math.pi)
            log_mag = log_coef[:_SERIES_TERMS] + log_s - math.log(math.pi)
            j_far = _SERIES_TERMS + 3
            far = (beta - 1.0) * math.log(j_far) + beta * math.log(beta + delta / j_far)
            g = np.diff(log_env)  # g_j, j = 1 .. N + 1
            log_ratio_sup = np.maximum(np.maximum.accumulate(g[::-1])[::-1], far)
            # K terms leave a certified tail once every envelope ratio after
            # term K + 1 is <= 1/2: the tail is then at most 2 e_{K+1}(x), which
            # must be <= _TAIL_REL * e_1(x).  Both hold from a least log x on;
            # steps[K - 1] is minus the least log x at which some count <= K
            # qualifies, so steps is non-decreasing.
            count = np.arange(1, _SERIES_TERMS + 1)
            least = np.maximum(
                (log_ratio_sup[count] + _LOG2) / beta,
                (log_env[count] - log_env[0] + _LOG2 - math.log(_TAIL_REL)) / (count * beta),
            )
            tables[kind] = _Series(
                exponent=k[: _SERIES_TERMS + 1] * beta + delta,
                sign=sign,
                log_mag=log_mag,
                log_env=log_env[: _SERIES_TERMS + 1],
                log_ratio_sup=log_ratio_sup,
                steps=-np.minimum.accumulate(least),
            )
        return tables

    # sampling --------------------------------------------------------------

    def sample(self, rng: RngStream, size: int) -> np.ndarray:
        """Draw ``size`` values from the law by the Kanter transform.

        V = (a(Theta) / W) ** ((1 - beta) / beta) with Theta uniform on
        (0, pi) and W standard exponential; one exact draw per pair.  At
        Theta = 0 the kernel takes its limit a(0+); a draw past the float
        range is +inf, the exact limit as W -> 0.
        """
        theta = rng.uniform(0.0, math.pi, size)
        w = rng.standard_exponential(size)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_a = np.where(theta > 0.0, _log_kernel(theta, self.beta),
                             math.log(_kernel_min(self.beta)))
            return np.exp((1.0 - self.beta) / self.beta * (log_a - np.log(w)))

    # density / survival ----------------------------------------------------

    def pdf(self, x):
        """Density at x > 0 (scalar or array), absolute accuracy <= 1e-10."""
        return self._evaluate(x, kind="pdf")

    def sf(self, x):
        """Survival function P(V > x) for x > 0, absolute accuracy <= 1e-10."""
        return self._evaluate(x, kind="sf")

    def _evaluate(self, x, kind: str):
        xs = np.asarray(x, dtype=float)
        if not np.all(xs > 0.0):
            raise ValueError("stable pdf/sf require x > 0")
        flat = xs.ravel()
        out = np.empty(flat.shape)
        for start in range(0, flat.size, _CHUNK):
            out[start : start + _CHUNK], ok = self._series_eval(flat[start : start + _CHUNK], kind)
            for i in np.flatnonzero(~ok) + start:
                out[i] = self._quad_eval(float(flat[i]), kind)
        if kind == "sf":
            np.clip(out, 0.0, 1.0, out=out)
        else:
            np.maximum(out, 0.0, out=out)
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)

    def _series_eval(self, xs: np.ndarray, kind: str):
        """Series values at xs and whether each meets the tolerance.

        Each point sums the least term count K(x) its step table certifies,
        or all _SERIES_TERMS terms when that is more than _SHORT_TERMS.  Its
        error bound is the rounding of its largest term plus the certified
        envelope bound on the terms it leaves out.
        """
        table = self._series[kind]
        lx = np.log(xs)
        count = np.searchsorted(table.steps, -lx) + 1
        if count.max(initial=0) <= _SHORT_TERMS:
            vals, biggest = _partial_sums(table, lx, count)
        else:
            count[count > _SHORT_TERMS] = _SERIES_TERMS
            vals, biggest = np.empty_like(lx), np.empty_like(lx)
            for part in (count == _SERIES_TERMS, count < _SERIES_TERMS):
                vals[part], biggest[part] = _partial_sums(table, lx[part], count[part])
        err = 5e-16 * biggest + _tail_bound(table, self.beta, lx, count)
        return vals, np.isfinite(vals) & (err <= _ABS_TOL + _REL_TOL * np.abs(vals))

    def _quad_eval(self, x: float, kind: str) -> float:
        # imported here: scipy.integrate costs about 26 MB and 0.2 s to import
        from scipy.integrate import quad

        beta = self.beta
        # lam * a(theta) is handled through its log: near beta = 1 both lam
        # and a(theta) overflow where their product does not
        log_lam = -beta / (1.0 - beta) * math.log(x)
        if log_lam + math.log(_kernel_min(beta)) > _LOG_SATURATED:
            # x so small that the density/cdf vanish below any tolerance
            return 0.0 if kind == "pdf" else 1.0
        lam = math.exp(log_lam)
        if lam == 0.0:
            # x beyond the far tail; both density and survival are below tolerance
            return 0.0
        peak = _peak_theta(lam, beta)

        if kind == "pdf":
            # fold the x-dependent prefactor into the integrand (in log space)
            # so the quadrature's epsabs bounds the final absolute error
            log_pref = math.log(beta / ((1.0 - beta) * math.pi)) - math.log(x) / (1.0 - beta)

            def integrand(theta: float) -> float:
                if theta <= 0.0 or theta >= math.pi:
                    return 0.0
                la = float(_log_kernel(theta, beta))
                log_z = log_lam + la
                if log_z > _LOG_SATURATED:
                    return 0.0
                e = log_pref + la - math.exp(log_z)
                return math.exp(e) if e > _LOG_TINY else 0.0

        else:

            def integrand(theta: float) -> float:
                if theta <= 0.0:
                    return -math.expm1(-lam * _kernel_min(beta)) / math.pi
                if theta >= math.pi:
                    return 1.0 / math.pi
                log_z = log_lam + float(_log_kernel(theta, beta))
                if log_z > _LOG_SATURATED:
                    return 1.0 / math.pi
                return -math.expm1(-math.exp(log_z)) / math.pi

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
