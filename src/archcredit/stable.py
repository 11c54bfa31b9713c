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
  is known in closed form, a step table maps log x to the least term count
  K(x) past which every envelope ratio is <= 1/2 and the tail is <= 1e-17
  of the first term, and a point needing more than 128 terms sums all 500.
  A point's error bound is the rounding of its largest term plus the
  geometric-series bound on the terms it leaves out.  The coefficients come
  from ``math.lgamma``; the tables are built once per beta and shared by
  every law of that beta;
* a one-dimensional integral over the Kanter kernel ``a(theta)`` on
  ``(0, pi)``, split at the integrand's peak (robust for small ``x`` where
  the series loses precision; Nolan 1997).  Each side takes tanh-sinh rules
  (Takahasi & Mori 1974) of step 2**-3 .. 2**-8, whose nodes crowd toward
  both ends, at every point that the series rejects at once; a point is
  accepted once two successive steps agree within the tolerance.

The series is attempted first; the kernel rule is used whenever the series
cannot certify the accuracy target (1e-10 absolute, and much better in
relative terms wherever the series converges).  Both work point by point,
so a point gets the same bits in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

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
_LOG_SATURATED = math.log(745.0)  # exp(-z) underflows once log z exceeds this
_CHUNK = 64  # points per series evaluation; bounds the (points, terms) temporaries
_RULE_TOL = 1e-10  # absolute tolerance of the kernel rule, the one pdf and sf state
_PEAK_STEPS = 20  # bisection steps for the break point theta*
_TS_SPAN = 3.25  # tanh-sinh steps k h reach |k h| <= this: nodes within e**-40 of an end
_TS_LEVELS = (3, 4, 5, 6, 7, 8)  # step 2**-level of each successive rule


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


def _peak_theta(log_lam: np.ndarray, beta: float) -> np.ndarray:
    """theta at which lam * a(theta) = 1 at each point, by bisection on log a,
    which increases from log a(0+) to infinity at pi; a point with no root
    ends next to 0.  Only a break point for the kernel rule, so coarse."""
    theta, target = np.full_like(log_lam, 0.5 * math.pi), -log_lam
    for step in 0.25 * math.pi * 0.5 ** np.arange(_PEAK_STEPS):
        theta += np.where(_log_kernel(theta, beta) < target, step, -step)
    return theta


@lru_cache(maxsize=None)
def _ts_nodes(level: int, odd: bool):
    """Tanh-sinh nodes on the unit interval at k h, h = 2**-level, |k h| <=
    _TS_SPAN, every k or odd k only (those a level adds).  With u = pi sinh(k h)
    a node lies 1/(1 + e**-u) from the left end and 1/(1 + e**u) from the
    right; the weight, h pi cosh(k h) times both distances, cancels nothing."""
    k = np.arange(-int(_TS_SPAN * 2**level), int(_TS_SPAN * 2**level) + 1)
    t = k[k % 2 == 1] / 2**level if odd else k / 2**level
    u = math.pi * np.sinh(t)
    left, right = 1.0 / (1.0 + np.exp(-u)), 1.0 / (1.0 + np.exp(u))
    weight = math.pi * np.cosh(t) * left * right / 2**level
    left.flags.writeable = weight.flags.writeable = False
    return left, weight


class _Series(NamedTuple):
    """Power series of one kind (pdf or sf) with its truncation table."""

    exponent: np.ndarray  # term k is proportional to x**-exponent[k - 1], k = 1 .. N + 1
    sign: np.ndarray  # sign of term k, k = 1 .. N
    log_mag: np.ndarray  # log |coefficient| of term k, k = 1 .. N
    log_env: np.ndarray  # log envelope coefficient of term k, k = 1 .. N + 1
    log_ratio_sup: np.ndarray  # log of sup over j >= k of e_{j+1} / e_j at x = 1, k = 1 .. N + 1
    steps: np.ndarray  # K(x) = 1 + searchsorted(steps, -log x); see _series_tables


def _lgamma(y: np.ndarray) -> np.ndarray:
    """log Gamma of each element of y."""
    return np.array([math.lgamma(v) for v in y.tolist()])


@lru_cache(maxsize=16)
def _series_tables(beta: float) -> dict[str, _Series]:
    """The x**-beta power series of the density and of the survival.

    Built once per beta (about 1 500 log-gamma calls) and shared, read-only,
    by every law of that beta.

    Term k of the density is
        (-1)^(k+1) Gamma(k b + 1) / k! * sin(k pi b) * x^(-k b - 1) / pi
    and the survival series integrates it term-wise (exponent -k b,
    coefficient Gamma(k b) / k!).  With delta = 1 (pdf) or 0 (sf), the
    envelope e_k(x) = Gamma(k b + delta) / (k! pi) * x^(-k b - delta)
    bounds |term k|, since |sin| <= 1.  Its term ratio e_{j+1}/e_j is
    exp(g_j) x^-b with g_j = log Gamma((j+1) b + delta) - log Gamma(j b + delta)
    - log(j + 1), taken from log-gamma up to j = N + 1.  Past that, log-gamma's
    convexity and psi(y) < log y give
        g_j <= (b - 1) log(j + 1) + b log(b + delta / (j + 1)),
    which falls with j, so its value at j = N + 2 bounds every later g_j.
    """
    k = np.arange(1, _SERIES_TERMS + 3, dtype=float)  # terms 1 .. N + 2
    s = np.sin(k[:_SERIES_TERMS] * math.pi * beta)
    sign = np.where(k[:_SERIES_TERMS] % 2 == 1, 1.0, -1.0) * np.sign(s)
    with np.errstate(divide="ignore"):
        log_s = np.log(np.abs(s))
    log_factorial = _lgamma(k + 1.0)
    tables = {}
    for kind, delta in (("pdf", 1.0), ("sf", 0.0)):
        log_coef = _lgamma(k * beta + delta) - log_factorial
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
        for column in tables[kind]:
            column.flags.writeable = False
    return tables


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

    @property
    def _series(self) -> dict[str, _Series]:
        """The series tables of this law's beta; see _series_tables."""
        return _series_tables(self.beta)

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
            part = flat[start : start + _CHUNK]
            out[start : start + _CHUNK], ok = self._series_eval(part, kind)
            if not ok.all():
                out[start : start + _CHUNK][~ok] = self._kernel_eval(part[~ok], kind)
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

    def _kernel_eval(self, xs: np.ndarray, kind: str) -> np.ndarray:
        """Values at xs from the integral over the Kanter kernel a on (0, pi):
            sf(x) = (1/pi) int (1 - exp(-z)) dtheta,
            pdf(x) = beta / ((1 - beta) pi x) int z exp(-z) dtheta,
        with z = lam a(theta) and lam = x**(-beta / (1 - beta)), taken through
        log z: near beta = 1 both lam and a overflow where z does not.  Each
        side of the peak theta* (Nolan 1997) takes the tanh-sinh rule at each
        of _TS_LEVELS in turn, and a point is accepted once two successive
        levels agree within the tolerance; else NumericalError.
        """
        beta = self.beta
        log_lam = -beta / (1.0 - beta) * np.log(xs)
        # x so small that pdf and 1 - sf vanish below any tolerance
        saturated = log_lam + math.log(_kernel_min(beta)) > _LOG_SATURATED
        out = np.where(saturated, float(kind == "sf"), 0.0)
        todo = np.flatnonzero(~saturated)
        log_lam = log_lam[todo, None]
        scale = (beta / ((1.0 - beta) * xs[todo]) if kind == "pdf" else np.ones(todo.size)) / math.pi
        peak = _peak_theta(log_lam, beta)
        lo, width = np.stack([np.zeros_like(peak), peak]), np.stack([peak, math.pi - peak])  # two sides
        value = change = None
        for level in _TS_LEVELS:
            if not todo.size:
                break
            left, weight = _ts_nodes(level, value is not None)
            with np.errstate(over="ignore"):
                log_z = log_lam + _log_kernel(lo + width * left, beta)
                f = np.exp(log_z - np.exp(log_z)) if kind == "pdf" else -np.expm1(-np.exp(log_z))
            # each point summed along its own row, so its bits do not depend on the batch
            new = scale * ((f * weight).sum(axis=2) * width[..., 0]).sum(axis=0)
            if value is not None:
                new += 0.5 * value
                change = np.abs(new - value)
                done = change <= _RULE_TOL
                out[todo[done]] = new[done]
                todo, log_lam, scale, new, change = (a[~done] for a in (todo, log_lam, scale, new, change))
                lo, width = lo[:, ~done], width[:, ~done]
            value = new
        if todo.size:
            raise NumericalError(
                f"stable {kind} kernel rule did not converge at x={xs[todo[0]]:g}, beta={beta:g}",
                achieved=float(change.max()),
            )
        return out
