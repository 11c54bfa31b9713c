"""Deterministic sharp approximations for large-loss probability and expected
shortfall, the limiting loss curve they invert, and closed forms for
equal-parameter portfolios used as oracles.

The limiting mean loss per obligor at normalized mixture value v is
r(v) = sum_j c_j w_j (1 - exp(-v l_j**alpha)); vstar is the v with r(v) = b.
The tail probability of the per-obligor loss exceeding level b decays like
``f_n * vstar**(-1/alpha) / Gamma(1 - 1/alpha)``; the conditional mean loss
beyond the threshold grows linearly in portfolio size with slope
``psi(alpha, b)``.  For finitely many groups psi has the closed form

    psi = b + vstar**(1/alpha) * sum_j c_j w_j l_j GammaUpper(1 - 1/alpha, vstar l_j**alpha)

with GammaUpper the (non-regularized) upper incomplete gamma function, so
neither approximation needs quadrature.  Both take a
:class:`~archcredit.portfolio.LossModel`, which solves vstar once and shares
it.  Gamma is ``math.gamma``, and GammaUpper, needed only for 0 < s < 1, is
evaluated here (``_upper_gamma``), so this module imports no SciPy.

``solve_vstar`` bisects for vstar but evaluates r only at the probes inside
a window [lo, hi] around it.  A few Newton steps locate vstar, and the
window is kept only if r(lo) <= b - 2 tol and r(hi) >= b + 2 tol, with
tol = 1e-12 b the bisection's stopping tolerance.  r is increasing and its
computed value is far closer than tol to the true one, so a probe outside
the window is decided without evaluating r: the probes and the result are
those of the plain bisection to the bit.  When no window can be certified
(b within about tol of the mean exposure, or tol subnormal) every probe is
evaluated, as in the plain bisection.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError

if TYPE_CHECKING:
    from .portfolio import LossModel, Portfolio

_VSTAR_STEPS = 200  # bisection steps allowed to solve_vstar from its bracket [hi / 2, hi]
_NEWTON_STEPS = 24  # Newton steps allowed to _window before it gives up
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_EPS = 2.0**-52  # relative stop of the gamma series and continued fraction
_CF_FROM = 3.0  # GammaUpper(s, x) by the continued fraction for x >= this, else by the series
# cap on series terms and fraction steps; for 0 < s < 1 neither takes more
# than 35 on its side of _CF_FROM
_GAMMA_STEPS = 100


def _upper_gamma(s: float, x: float) -> float:
    """GammaUpper(s, x), the integral of t**(s-1) exp(-t) over (x, inf), for
    0 < s < 1 and x > 0, to about 1e-13 relative.

    Below _CF_FROM it is Gamma(s) - gamma(s, x), the lower function gamma by
    its power series.  Both terms are close to 1/s when s is small, so each
    is taken less 1/s, which leaves two terms of order one.
    """
    if x >= _CF_FROM:
        return _upper_gamma_cf(s, x)
    return _gamma_less_pole(s) - _lower_gamma_less_pole(s, x)


def _upper_gamma_cf(s: float, x: float) -> float:
    """GammaUpper(s, x) for x > s by the continued fraction DLMF 8.9.2, in
    the even form of Numerical Recipes 6.2, summed by Lentz's method.

    Partial denominator i of either Lentz sequence is at least i + 1 + x - s
    > 0, so no step needs Lentz's guard against a zero denominator.
    """
    b = x + 1.0 - s
    c = math.inf  # Lentz's C_0: the first step makes c = b
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_STEPS + 1):
        an = -i * (i - s)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return math.exp(s * math.log(x) - x) * h
    raise NumericalError(f"upper incomplete gamma fraction did not converge at s={s:g}, x={x:g}")


def _lower_gamma_less_pole(s: float, x: float) -> float:
    """gamma(s, x) - 1/s for 0 < x <= _CF_FROM.

    gamma(s, x) = x**s * sum over k >= 0 of (-x)**k / (k! (s + k)) (DLMF
    8.7.1); its k = 0 term less 1/s is expm1(s log x) / s.
    """
    term = 1.0  # (-x)**k / k!
    acc = 0.0  # the sum over k >= 1
    for k in range(1, _GAMMA_STEPS + 1):
        term *= -x / k
        part = term / (s + k)
        acc += part
        if abs(part) <= _EPS * abs(acc):
            s_log_x = s * math.log(x)
            return math.expm1(s_log_x) / s + math.exp(s_log_x) * acc
    raise NumericalError(f"lower incomplete gamma series did not converge at s={s:g}, x={x:g}")


@lru_cache(maxsize=16)
def _gamma_less_pole(s: float) -> float:
    """Gamma(s) - 1/s, as GammaUpper(s, x) + (gamma(s, x) - 1/s) at x = _CF_FROM.

    Gamma(s) - 1/s from math.gamma would lose the digits of 1/s as s -> 0;
    this sum keeps them, and makes _upper_gamma continuous at _CF_FROM.
    """
    return _upper_gamma_cf(s, _CF_FROM) + _lower_gamma_less_pole(s, _CF_FROM)


def _curve_columns(pf: Portfolio, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The columns (c_j w_j, l_j**alpha) of the limiting loss curve at alpha.

    A largest l_j**alpha past the float range is a NumericalError, decided
    on alpha * log(max l_j) before any power is taken, so no overflow
    warning is raised; the margin of 1e-12 covers the rounding of that
    product.  (The curve would read the mean exposure at every v > 0 and
    leave no v* to find.)
    """
    if not 1.0 < alpha < math.inf:
        raise ValueError(f"tail index must be finite and exceed 1, got {alpha}")
    l_max = float(pf.pd_scales.max())
    if alpha * math.log(l_max) > _LOG_FLOAT_MAX - 1e-12:
        raise NumericalError(
            f"largest l_j**alpha = {l_max:g}**{alpha:g} is not finite: "
            "the limiting loss curve has no v* in floating point"
        )
    return pf.exposures * pf.weights, pf.pd_scales**alpha


def _curve(cw: np.ndarray, l_a: np.ndarray, v: float) -> float:
    """r(v) from the columns of _curve_columns."""
    return float(np.dot(cw, -np.expm1(-v * l_a)))


def limiting_mean_loss(pf: Portfolio, alpha: float, v: float) -> float:
    """Large-portfolio mean loss per obligor at normalized mixture value v.

    r(v) = sum_j c_j w_j (1 - exp(-v l_j**alpha)); strictly increasing from 0
    to the mean exposure.  Each call checks v and alpha and builds the
    columns c_j w_j and l_j**alpha; solve_vstar checks alpha and builds them
    once per solve and evaluates r by the same expression (_curve), so its
    r agrees with this one to the bit.
    """
    if not v >= 0.0:
        raise ValueError(f"v must be nonnegative, got {v}")
    return _curve(*_curve_columns(pf, alpha), v)


def _window(cw: np.ndarray, l_a: np.ndarray, b: float, tol: float) -> tuple[float, ...]:
    """A window [lo, hi] around v* with _curve(lo) <= b - 2 tol and
    _curve(hi) >= b + 2 tol, as (lo, _curve(lo), hi, _curve(hi)); the empty
    window (-inf, nan, inf, nan) when that cannot be certified.

    Newton steps from v = 0 locate v*.  They run on g(v) = log(cbar - r(v)),
    the log of sum_j c_j w_j exp(-v l_j**alpha): g - g(v*) =
    log1p((b - r) / (cbar - b)) has the root of r - b, and g is decreasing
    and convex, so the steps climb toward v* from the left without
    overshooting (on one group g is linear and one step lands).  They stop
    once the step's quadratic term |g''| step**2 / 2 is below tol / 4 in
    r-units, which leaves the last iterate well inside tol / r' of v*; the
    window is that iterate plus or minus 4 tol / r'.  The steps run in
    u = v * max_j l_j**alpha, so that no rate exceeds 1 and no moment
    overflows.

    The window is empty when cbar - b does not round above 0, when tol is
    subnormal (the rounding of _curve is then not far below it), when the
    largest rate rounds to 0 or inf, when cbar - r or the slope underflows,
    an iterate leaves (0, inf) or the window reaches 0, and when
    _NEWTON_STEPS steps do not stop.
    """
    empty = (-math.inf, math.nan, math.inf, math.nan)
    gap = float(cw.sum()) - b
    scale = float(l_a.max())
    if not (gap > 0.0 and tol >= sys.float_info.min and 0.0 < scale < math.inf):
        return empty
    rates = l_a / scale
    cwl = cw * rates
    moments = np.stack((cw, cwl, cwl * rates))  # sums at exp(-u rates): cbar - r, r', -r'' in u
    u, r = 0.0, 0.0
    rest, slope, m2 = moments.sum(axis=1).tolist()
    for _ in range(_NEWTON_STEPS):
        below = (b - r) / gap
        if not (rest > 0.0 and slope > 0.0 and below > -1.0):
            return empty
        g1 = slope / rest  # -g'(u)
        step = math.log1p(below) / g1
        u += step
        if not 0.0 < u < math.inf:
            return empty
        if (m2 - slope * g1) * step * step <= 0.5 * tol:  # rest * g''(u) * step**2
            break
        x = -u * rates
        r = -float(np.dot(cw, np.expm1(x)))
        rest, slope, m2 = (moments @ np.exp(x)).tolist()
    else:
        return empty
    half = 4.0 * tol / (g1 * gap)  # 4 tol / r'(u*)
    if not half < u:
        return empty
    lo, hi = (u - half) / scale, (u + half) / scale
    r_lo, r_hi = _curve(cw, l_a, lo), _curve(cw, l_a, hi)
    if r_lo <= b - 2.0 * tol and r_hi >= b + 2.0 * tol:
        return lo, r_lo, hi, r_hi
    return empty


def solve_vstar(pf: Portfolio, alpha: float, b: float) -> float:
    """Invert the limiting loss curve: the unique v with r(v) = b.

    Checks b and alpha and builds the curve's columns once per solve.  hi
    doubles from 1 until r(hi) > b, then halves while r(hi / 2) > b: these
    are the first midpoints a bisection of [0, hi] takes, and they do not
    count against _VSTAR_STEPS, so a tiny b still converges.  The bisection
    of [hi / 2, hi] follows.  A midpoint is returned as v* once
    |r - b| <= 1e-12 b (r-units, so v* stays accurate relative to itself at
    small b).  53 steps leave no float inside a bracket whose ends differ by
    a factor of 2, so the cap is reached only when rounding keeps r from
    the tolerance, and then NumericalError is raised.

    r is evaluated (by _curve) only at probes inside the window [lo, hi] of
    _window.  r is increasing and _curve's relative error is far below
    1e-12, so a probe at or below lo has r below b - tol and one at or above
    hi has r above b + tol: there the window end's value stands in for r,
    and each loop takes the branch that r itself would.  The probes, and so
    the returned v*, are those of the plain bisection to the bit; with no
    certified window every probe is evaluated.
    """
    cbar = pf.mean_exposure
    if not 0.0 < b < cbar:
        raise ValueError(f"loss level must lie in (0, {cbar}), got {b}")
    cw, l_a = _curve_columns(pf, alpha)
    tol = 1e-12 * b
    lo_w, r_lo, hi_w, r_hi = _window(cw, l_a, b, tol)

    def curve(v: float) -> float:
        if v <= lo_w:
            return r_lo
        if v >= hi_w:
            return r_hi
        return _curve(cw, l_a, v)

    hi = 1.0
    while curve(hi) <= b:
        hi *= 2.0
        if hi > 1e308:
            raise ValueError(f"loss level {b} unreachable below the mean exposure {cbar}")
    while True:  # ends: r(0) = 0 < b once hi / 2 underflows
        mid = 0.5 * hi
        r = curve(mid)
        if abs(r - b) <= tol:
            return mid
        if r < b:
            break
        hi = mid
    lo = mid
    for _ in range(_VSTAR_STEPS):
        mid = 0.5 * (lo + hi)
        r = curve(mid)
        if abs(r - b) <= tol:
            return mid
        if r < b:
            lo = mid
        else:
            hi = mid
    raise NumericalError(
        f"bisection for v* at b={b} did not converge in {_VSTAR_STEPS} steps",
        achieved=abs(_curve(cw, l_a, mid) - b),
    )


def tail_probability_asymptotic(model: LossModel) -> float:
    """Leading-order approximation of P(per-obligor loss > b)."""
    a = model.alpha
    return model.f_n * model.vstar ** (-1.0 / a) / math.gamma(1.0 - 1.0 / a)


def expected_shortfall_asymptotic(model: LossModel) -> float:
    """Leading-order conditional mean loss given the exceedance, scaled by n.

    Returns n * psi with psi = b + vstar**(1/alpha) times the integral of
    r'(v) v**(-1/alpha) over (vstar, inf).  Substituting t = v l_j**alpha in
    group j's term of r'(v) = sum_j c_j w_j l_j**alpha exp(-v l_j**alpha)
    turns the integral into sum_j c_j w_j l_j GammaUpper(1 - 1/alpha, vstar l_j**alpha).
    """
    pf = model.portfolio
    vstar = model.vstar
    s = 1.0 - 1.0 / model.alpha
    upper = np.array([_upper_gamma(s, x) for x in (vstar * pf.pd_scales**model.alpha).tolist()])
    integral = float((pf.exposures * pf.weights * pf.pd_scales * upper).sum())
    return pf.n * (model.b + vstar ** (1.0 / model.alpha) * integral)


def homogeneous_tail_asymptotic(alpha: float, f_n: float, b: float, l: float, c: float) -> float:
    """Closed form of the tail asymptotic for equal-parameter portfolios."""
    if not 0.0 < b < c:
        raise ValueError(f"loss level must lie in (0, {c}), got {b}")
    return l * f_n * (-math.log1p(-b / c)) ** (-1.0 / alpha) / math.gamma(1.0 - 1.0 / alpha)


def homogeneous_shortfall_asymptotic(alpha: float, b: float, c: float, n: int) -> float:
    """Closed form of the shortfall asymptotic for equal-parameter portfolios.

    psi = b + c * GammaUpper(1 - 1/alpha, L) * L**(1/alpha) with
    L = ln(c / (c - b)), taken as -log1p(-b / c); the pd multiplier
    cancels.  GammaUpper is the (non-regularized) upper incomplete gamma
    function.
    """
    if not 0.0 < b < c:
        raise ValueError(f"loss level must lie in (0, {c}), got {b}")
    big_l = -math.log1p(-b / c)
    upper = _upper_gamma(1.0 - 1.0 / alpha, big_l)
    return n * (b + c * upper * big_l ** (1.0 / alpha))
