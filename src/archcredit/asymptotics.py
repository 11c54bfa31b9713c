"""Deterministic sharp approximations for large-loss probability and expected
shortfall, plus closed forms for equal-parameter portfolios used as oracles.

The tail probability of the per-obligor loss exceeding level b decays like
``f_n * vstar**(-1/alpha) / Gamma(1 - 1/alpha)`` where vstar inverts the
limiting loss curve at b; the conditional mean loss beyond the threshold
grows linearly in portfolio size with slope ``psi(alpha, b)``.  For finitely
many groups psi has the closed form

    psi = b + vstar**(1/alpha) * sum_j c_j w_j l_j GammaUpper(1 - 1/alpha, vstar l_j**alpha)

with GammaUpper the (non-regularized) upper incomplete gamma function, so
neither approximation needs quadrature; vstar is solved once per set of
inputs and shared by both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from scipy.special import gamma, gammaincc

from .portfolio import DefaultScale, Portfolio, check_model, solve_vstar


@dataclass(frozen=True)
class AsymptoticInputs:
    portfolio: Portfolio
    alpha: float
    scale: DefaultScale
    b: float

    def __post_init__(self):
        check_model(self.portfolio, self.alpha, self.scale, self.b)

    @property
    def f_n(self) -> float:
        return self.scale.resolve(self.portfolio.n)

    @cached_property
    def vstar(self) -> float:
        """The v with r(v) = b, solved on first use."""
        return solve_vstar(self.portfolio, self.alpha, self.b)


def tail_probability_asymptotic(inputs: AsymptoticInputs) -> float:
    """Leading-order approximation of P(per-obligor loss > b)."""
    a = inputs.alpha
    return inputs.f_n * inputs.vstar ** (-1.0 / a) / gamma(1.0 - 1.0 / a)


def expected_shortfall_asymptotic(inputs: AsymptoticInputs) -> float:
    """Leading-order conditional mean loss given the exceedance, scaled by n.

    Returns n * psi with psi = b + vstar**(1/alpha) times the integral of
    r'(v) v**(-1/alpha) over (vstar, inf).  Substituting t = v l_j**alpha in
    group j's term of r'(v) = sum_j c_j w_j l_j**alpha exp(-v l_j**alpha)
    turns the integral into sum_j c_j w_j l_j GammaUpper(1 - 1/alpha, vstar l_j**alpha).
    """
    pf = inputs.portfolio
    vstar = inputs.vstar
    s = 1.0 - 1.0 / inputs.alpha
    upper = gammaincc(s, vstar * pf.pd_scales**inputs.alpha) * gamma(s)
    integral = float((pf.exposures * pf.weights * pf.pd_scales * upper).sum())
    return pf.n * (inputs.b + vstar ** (1.0 / inputs.alpha) * integral)


def homogeneous_tail_asymptotic(alpha: float, f_n: float, b: float, l: float, c: float) -> float:
    """Closed form of the tail asymptotic for equal-parameter portfolios."""
    if not 0.0 < b < c:
        raise ValueError(f"loss level must lie in (0, {c}), got {b}")
    return l * f_n * math.log(c / (c - b)) ** (-1.0 / alpha) / gamma(1.0 - 1.0 / alpha)


def homogeneous_shortfall_asymptotic(alpha: float, b: float, c: float, n: int) -> float:
    """Closed form of the shortfall asymptotic for equal-parameter portfolios.

    psi = b + c * GammaUpper(1 - 1/alpha, L) * L**(1/alpha) with
    L = ln(c / (c - b)); the pd multiplier cancels.  GammaUpper is the
    (non-regularized) upper incomplete gamma function.
    """
    if not 0.0 < b < c:
        raise ValueError(f"loss level must lie in (0, {c}), got {b}")
    big_l = math.log(c / (c - b))
    a = 1.0 - 1.0 / alpha
    upper = gammaincc(a, big_l) * gamma(a)
    return n * (b + c * upper * big_l ** (1.0 / alpha))
