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
neither approximation needs quadrature.  Gamma is ``math.gamma``, and
GammaUpper, needed only for 0 < s < 1, is evaluated here (``_upper_gamma``),
so this module imports no SciPy.

Every level b of one group mix (the columns c_j, w_j, l_j) and alpha
inverts the same curve, whatever the portfolio size, so the curve has one
home, a :class:`LossCurve` in the portfolio's curve store: its columns are
built and checked once, and each :class:`~archcredit.portfolio.LossModel` on
it registers its b.  The portfolios of one command share a store, so the
sizes of an n grid share the curve of their mix.  The first read of any
level's v* solves every level not yet solved in one ``solve_vstar`` call,
and the first shortfall read evaluates the integral for every solved level
in one pass; both approximations take the model and share its v*.

``solve_vstar`` finds vstar by Newton steps on g(v) = log(cbar - r(v)),
with cbar the mean exposure, for one level or a vector of levels at once: g
is decreasing and convex, so the steps climb to vstar from v = 0 without
overshooting, and each level's first iterate whose r is within
tol = 1e-12 b of b is returned.  Every sum over the groups is a sum over
the last axis, so a level gets the same bits in any batch.  A level where
no float meets the tolerance (vstar subnormal or underflowing) fails with
NumericalError, alone: the other levels of its batch keep their values.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError

if TYPE_CHECKING:
    from .portfolio import LossModel, Portfolio

# Newton steps allowed to solve_vstar; one group takes 1, and 200 to 1 000
# groups with l_j**alpha spread over 600 decades take up to 200
_NEWTON_STEPS = 256
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_EPS = 2.0**-52  # relative stop of the gamma series and continued fraction
_CF_FROM = 3.0  # GammaUpper(s, x) by the continued fraction for x >= this, else by the series
# cap on series terms and fraction steps; for 0 < s < 1 neither takes more
# than 35 on its side of _CF_FROM
_GAMMA_STEPS = 100


def _upper_gamma(s: float, x: float) -> float:
    """GammaUpper(s, x), the integral of t**(s-1) exp(-t) over (x, inf), for
    0 < s < 1 and x >= 0, to about 1e-13 relative; 0 exactly at x = inf,
    and Gamma(s) at x = 0, where v* l_j**alpha of a slow group underflows.

    Below _CF_FROM it is Gamma(s) - gamma(s, x), the lower function gamma by
    its power series.  Both terms are close to 1/s when s is small, so each
    is taken less 1/s, which leaves two terms of order one.
    """
    if x >= _CF_FROM:
        return _upper_gamma_cf(s, x) if x < math.inf else 0.0
    if x == 0.0:  # gamma(s, 0) = 0, and the series would take log 0
        return _gamma_less_pole(s) + 1.0 / s
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


class LossCurve:
    """The limiting loss curve r of one group mix and alpha, and the levels b
    that its models read: the one home of what every level on the curve
    shares.  ``Portfolio.curve(alpha)`` keeps one per (mix, alpha) in the
    portfolio's curve store, which the portfolios of one command share, so
    the models of one mix at every size read one curve.

    Its columns c_j w_j, l_j**alpha, log c_j w_j and c_j w_j l_j are built
    and checked once, on first use (``columns``).  ``vstars`` maps each level
    registered on the curve to its v*, to the error its solve raised, or to
    None while it is unsolved; ``integrals`` maps each solved level to its
    shortfall integral or to the error that raised, evaluated for every
    solved level in one pass at the first shortfall read (``integral``).
    The curve keeps the group columns it reads, not the portfolio, whose
    store holds it.
    """

    def __init__(self, pf: Portfolio, alpha: float):
        if not 1.0 < alpha < math.inf:
            raise ValueError(f"tail index must be finite and exceed 1, got {alpha}")
        self.alpha = alpha
        self._groups = (pf.exposures, pf.weights, pf.pd_scales)
        self.vstars: dict[float, float | Exception | None] = {}
        self.integrals: dict[float, float | Exception] = {}

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(c_j w_j, l_j**alpha, log c_j w_j, c_j w_j l_j).

        A largest l_j**alpha past the float range is a NumericalError, decided
        on alpha * log(max l_j) before any power is taken, so no overflow
        warning is raised; the margin of 1e-12 covers the rounding of that
        product.  (The curve would read the mean exposure at every v > 0 and
        leave no v* to find.)  A failed build is not kept: each read raises.
        """
        exposures, weights, pd_scales = self._groups
        l_max = float(pd_scales.max())
        if self.alpha * math.log(l_max) > _LOG_FLOAT_MAX - 1e-12:
            raise NumericalError(
                f"largest l_j**alpha = {l_max:g}**{self.alpha:g} is not finite: "
                "the limiting loss curve has no v* in floating point"
            )
        cw = exposures * weights
        return cw, pd_scales**self.alpha, np.log(cw), cw * pd_scales

    def integral(self, b: float) -> float:
        """sum_j c_j w_j l_j GammaUpper(1 - 1/alpha, v* l_j**alpha) at a solved
        level b.  The first read evaluates it for every level solved so far,
        in one pass whose row sums do not depend on how many levels it holds;
        a level whose GammaUpper fails keeps the error, raised at its reads
        with a traceback of that read alone.
        """
        integrals = self.integrals
        if b not in integrals:
            levels = [lv for lv, v in self.vstars.items()
                      if isinstance(v, float) and lv not in integrals]
            _, l_a, _, cwl = self.columns
            s = 1.0 - 1.0 / self.alpha
            with np.errstate(over="ignore"):  # v* l_j**alpha past the float range: GammaUpper is 0
                x = np.multiply.outer([self.vstars[lv] for lv in levels], l_a)
            upper = {}
            for level, row in zip(levels, x.tolist()):
                try:
                    upper[level] = [_upper_gamma(s, x_j) for x_j in row]
                except (ValueError, NumericalError) as exc:
                    integrals[level] = exc
            rows = np.array(list(upper.values())).reshape(-1, l_a.size)
            integrals.update(zip(upper, (cwl * rows).sum(axis=-1).tolist()))
        integral = integrals[b]
        if isinstance(integral, Exception):
            raise integral.with_traceback(None)  # or its traceback grows at every read
        return integral


def _curve(cw: np.ndarray, l_a: np.ndarray, v) -> np.ndarray:
    """r at each v of a vector (or one v) from the columns (c_j w_j, l_j**alpha).

    Each r is a sum over the last axis, whose bits do not depend on how many
    v are evaluated together (a BLAS dot or matrix-vector product would not
    promise that).  A product v l_j**alpha past the float range is inf, and
    its term is then the whole c_j w_j; callers hold np.errstate(over="ignore")
    so that it raises no warning."""
    return (cw * -np.expm1(np.multiply.outer(-v, l_a))).sum(axis=-1)


def limiting_mean_loss(pf: Portfolio, alpha: float, v: float) -> float:
    """Large-portfolio mean loss per obligor at normalized mixture value v.

    r(v) = sum_j c_j w_j (1 - exp(-v l_j**alpha)); strictly increasing from 0
    to the mean exposure, which it reaches without warning where
    v l_j**alpha passes the float range.  Each call checks v and alpha and
    reads the columns of pf.curve(alpha); solve_vstar evaluates r by the same
    expression (_curve), whose bits do not depend on the batch, so the r it
    meets the tolerance with is this one to the bit.
    """
    if not v >= 0.0:
        raise ValueError(f"v must be nonnegative, got {v}")
    cw, l_a, _, _ = pf.curve(alpha).columns
    with np.errstate(over="ignore"):
        return float(_curve(cw, l_a, np.array([v], dtype=float))[0])


def solve_vstar(pf: Portfolio, alpha: float, b):
    """Invert the limiting loss curve at one level b, or at each level of a
    1-D sequence b: a v with |r(v) - b| <= tol = 1e-12 b (r-units, so v*
    stays accurate relative to itself at small b).

    Newton steps from v = 0 on g(v) = log(cbar - r(v)), the log of
    sum_j c_j w_j exp(-v l_j**alpha), taken for every level at once on the
    columns of pf.curve(alpha).  g - g(v*) = log1p((b - r) / (cbar - b)) has
    the root of r - b, and g is decreasing and convex, so the steps climb
    toward v* from the left without overshooting; on one group g is linear
    and one step lands.  -g'(v) is the mean of the l_j**alpha weighted by
    softmax(log c_j w_j - v l_j**alpha), which neither overflows nor loses a
    slow group's rate beside a fast one.  Every step is elementwise or a sum
    over the last axis, and a level leaves the loop at its first iterate
    whose r, evaluated by _curve as limiting_mean_loss evaluates it, meets
    the tolerance: each level takes the iterates, and gets the bits, that it
    takes alone.

    NumericalError, with the miss as ``achieved``, is the result of a level
    whose step leaves (0, inf) or does not move v (v* underflows or is
    subnormal, where rounding keeps r from the tolerance), and of one that
    _NEWTON_STEPS steps do not bring within it; so is every level of a curve
    whose largest l_j**alpha passes the float range.  A level outside
    (0, cbar), or above every group with l_j**alpha > 0, and a bad alpha,
    are ValueErrors.  One level returns its v* or raises its error; a
    sequence returns a list holding, per level, its v* or its error (not
    raised), so that a failing level fails alone.
    """
    one = np.ndim(b) == 0
    levels = [b] if one else list(b)
    out: list[float | Exception | None] = [None] * len(levels)
    cbar = pf.mean_exposure
    for i, level in enumerate(levels):
        if not 0.0 < level < cbar:
            out[i] = ValueError(f"loss level must lie in (0, {cbar}), got {level}")
    todo = [i for i, o in enumerate(out) if o is None]
    if todo:
        try:
            cw, l_a, log_cw, _ = pf.curve(alpha).columns
        except (ValueError, NumericalError) as exc:  # a bad alpha, or no v* on the curve
            out = [exc if o is None else o for o in out]
        else:
            _newton(out, levels, todo, cbar, cw, l_a, log_cw)
    if not one:
        return out
    if isinstance(out[0], Exception):
        raise out[0]
    return out[0]


def _newton(out: list, levels: list, todo: list[int], cbar: float, cw: np.ndarray,
            l_a: np.ndarray, log_cw: np.ndarray) -> None:
    """solve_vstar's Newton loop over the levels at positions ``todo``: writes
    each one's v* or error into ``out``.  Arrays hold one row per level still
    stepping; a level that meets the tolerance or fails leaves them."""
    pos = np.array(todo)
    b = np.array([levels[i] for i in todo], dtype=float)
    v = np.zeros_like(b)
    r = np.zeros_like(b)
    # v l_j**alpha past the float range: weight 0 and a term of c_j w_j; a
    # slope of 0 makes a step inf or nan, so its level leaves, as unreachable
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            x = log_cw - np.multiply.outer(v, l_a)
            p = np.exp(x - x.max(axis=-1, keepdims=True))
            slope = (p * l_a).sum(axis=-1) / p.sum(axis=-1)  # -g'(v)
            step_to = v + np.log1p((b - r) / (cbar - b)) / slope
            moves = (0.0 < step_to) & (step_to < math.inf) & (step_to != v)
            if not moves.all():
                for k in np.flatnonzero(~moves).tolist():
                    level = levels[pos[k]]
                    if not slope[k] > 0.0:  # the groups left have l_j**alpha = 0: r stays below b
                        out[pos[k]] = ValueError(
                            f"loss level {level} unreachable below the mean exposure {cbar}")
                    else:
                        out[pos[k]] = NumericalError(
                            f"Newton solve for v* at b={level!r} stalled: a step from "
                            f"v={float(v[k])!r} reached {float(step_to[k])!r}",
                            achieved=float(abs(r[k] - b[k])),
                        )
            v = step_to
            r = _curve(cw, l_a, v)
            met = moves & (np.abs(r - b) <= 1e-12 * b)
            for i, v_i in zip(pos[met].tolist(), v[met].tolist()):
                out[i] = v_i
            going = moves & ~met
            if not going.all():
                if not going.any():
                    return
                pos, b, v, r = pos[going], b[going], v[going], r[going]
    for k, i in enumerate(pos.tolist()):
        out[i] = NumericalError(
            f"Newton solve for v* at b={levels[i]!r} did not converge in {_NEWTON_STEPS} steps",
            achieved=float(abs(r[k] - b[k])),
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
    turns the integral into sum_j c_j w_j l_j GammaUpper(1 - 1/alpha, vstar l_j**alpha),
    which the model's curve evaluates for all its solved levels at once.
    """
    vstar = model.vstar
    integral = model.curve.integral(model.b)
    return model.n * (model.b + vstar ** (1.0 / model.alpha) * integral)


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
