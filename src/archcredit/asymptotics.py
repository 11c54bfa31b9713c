"""Deterministic sharp approximations for large-loss probability and expected
shortfall, plus closed forms for equal-parameter portfolios used as oracles.

The tail probability of the per-obligor loss exceeding level b decays like
``f_n * vstar**(-1/alpha) / Gamma(1 - 1/alpha)`` where vstar inverts the
limiting loss curve at b; the conditional mean loss beyond the threshold
grows linearly in portfolio size with slope ``psi(alpha, b)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma, gammaincc

from .errors import NumericalError
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


def tail_probability_asymptotic(inputs: AsymptoticInputs) -> float:
    """Leading-order approximation of P(per-obligor loss > b)."""
    vstar = solve_vstar(inputs.portfolio, inputs.alpha, inputs.b)
    a = inputs.alpha
    return inputs.f_n * vstar ** (-1.0 / a) / gamma(1.0 - 1.0 / a)


def expected_shortfall_asymptotic(inputs: AsymptoticInputs) -> float:
    """Leading-order conditional mean loss given the exceedance, scaled by n.

    Returns n * psi with psi = b + integral of r'(v) v**(-1/alpha) over
    (vstar, inf), normalized by vstar**(-1/alpha).  The integral is computed
    after substituting u = v * min_j(l_j**alpha), which standardizes the
    exponential decay, with adaptive quadrature at 1e-10 relative tolerance.
    """
    pf = inputs.portfolio
    a = inputs.alpha
    vstar = solve_vstar(pf, a, inputs.b)
    c = pf.exposures
    w = pf.weights
    l_a = pf.pd_scales**a
    lmin = float(l_a.min())
    u_lo = vstar * lmin

    def integrand(u: float) -> float:
        v = u / lmin
        rprime = float(np.dot(c * w * l_a, np.exp(-v * l_a)))
        return rprime * v ** (-1.0 / a) / lmin

    val, abserr = quad(integrand, u_lo, np.inf, epsabs=0.0, epsrel=1e-10, limit=300)
    if abserr > 1e-8 * max(abs(val), 1e-300):
        raise NumericalError("shortfall asymptotic quadrature did not converge", achieved=abserr)
    psi = inputs.b + val / vstar ** (-1.0 / a)
    return pf.n * psi


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
