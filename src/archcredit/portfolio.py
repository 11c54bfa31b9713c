"""Credit portfolio model: obligor groups, default-probability scale, the
Gumbel-copula loss model, and the limiting loss curve whose inverse locates
the systemic-risk threshold.

A portfolio is a finite union of homogeneous sub-portfolios; group j holds
``count_j`` obligors, each with exposure ``exposure_j`` and marginal default
probability ``pd_scale_j * f_n``.  The scale f_n shrinks with portfolio size
to encode diversification.

The copula is determined by its generator phi, whose inverse is the Laplace
transform of a positive mixing variable V.  For the Gumbel family,
phi(t) = (-ln t)**alpha and V follows the positive stable law with index
1/alpha; conditionally on V, obligors default independently (see
:class:`LossModel`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError

LOSS_EPS = 1e-9  # "loss exceeds n*b" means loss > n*b + LOSS_EPS; snaps integer boundaries
_VSTAR_STEPS = 200  # bisection steps allowed to solve_vstar
_LOG_V_CERTAIN = 700.0  # some default must be certain at V = exp(this); see LossModel


def _phi_near_one(alpha: float, eps: float) -> float:
    """The Gumbel generator phi(1 - eps) = (-ln(1 - eps))**alpha, computed from
    eps directly so that it is exact for tiny eps."""
    return (-math.log1p(-eps)) ** alpha


def _read_only(values, dtype=float) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SubPortfolio:
    """A homogeneous obligor group: exposure c, default scale multiplier l, size."""

    exposure: float
    pd_scale: float
    count: int

    def __post_init__(self):
        if not 0.0 < self.exposure < math.inf:
            raise ValueError(f"exposure must be positive and finite, got {self.exposure}")
        if not 0.0 < self.pd_scale < math.inf:
            raise ValueError(f"pd_scale must be positive and finite, got {self.pd_scale}")
        if self.count < 1 or not float(self.count).is_integer():
            raise ValueError(f"count must be an integer >= 1, got {self.count}")


@dataclass(frozen=True)
class Portfolio:
    groups: tuple[SubPortfolio, ...]

    def __init__(self, groups):
        groups = tuple(groups)
        if not groups:
            raise ValueError("portfolio needs at least one group")
        object.__setattr__(self, "groups", groups)

    # each group column is built once and read-only: every model and run shares it
    @cached_property
    def counts(self) -> np.ndarray:
        return _read_only([g.count for g in self.groups], int)

    @cached_property
    def exposures(self) -> np.ndarray:
        return _read_only([g.exposure for g in self.groups])

    @cached_property
    def pd_scales(self) -> np.ndarray:
        return _read_only([g.pd_scale for g in self.groups])

    @cached_property
    def n(self) -> int:
        return int(self.counts.sum())

    @cached_property
    def weights(self) -> np.ndarray:
        """Group weights n_j / n, the finite-n group proportions."""
        return _read_only(self.counts / self.n)

    @cached_property
    def mean_exposure(self) -> float:
        """Average loss per obligor if every obligor defaults."""
        return float(np.dot(self.exposures, self.weights))

    @cached_property
    def total_exposure(self) -> float:
        return float(np.dot(self.exposures, self.counts))

    @staticmethod
    def homogeneous(n: int, exposure: float = 1.0, pd_scale: float = 1.0) -> "Portfolio":
        return Portfolio((SubPortfolio(exposure, pd_scale, n),))


@dataclass(frozen=True)
class DefaultScale:
    """Default-probability scale f_n: 1/n, 1/ln(n), or a fixed constant."""

    kind: str
    value: float | None = None

    _KINDS = ("reciprocal", "log_reciprocal", "constant")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown scale kind {self.kind!r}; expected one of {self._KINDS}")
        if self.kind == "constant":
            if self.value is None or not 0.0 < self.value < 1.0:
                raise ValueError(f"constant scale needs a value in (0, 1), got {self.value}")
        elif self.value is not None:
            raise ValueError(f"{self.kind} scale takes no value")

    @staticmethod
    def reciprocal() -> "DefaultScale":
        return DefaultScale("reciprocal")

    @staticmethod
    def log_reciprocal() -> "DefaultScale":
        return DefaultScale("log_reciprocal")

    @staticmethod
    def constant(value: float) -> "DefaultScale":
        return DefaultScale("constant", value)

    def resolve(self, n: int) -> float:
        """f_n for a portfolio of n obligors; always in (0, 1)."""
        if self.kind == "reciprocal":
            f = 1.0 / n
        elif self.kind == "log_reciprocal":
            f = 1.0 / math.log(n) if n > 1 else math.inf  # 1/ln n blows up at n = 1
        else:
            f = self.value
        if not 0.0 < f < 1.0:
            raise ValueError(f"resolved default scale {f} outside (0, 1) for n={n}")
        return f


# operations -----------------------------------------------------------------


def check_model(pf: Portfolio, alpha: float, scale: DefaultScale, b: float) -> float:
    """Validate 1 < alpha < inf, 0 < b < mean exposure and every marginal default
    probability l_j f_n < 1; return f_n resolved against pf."""
    if not 1.0 < alpha < math.inf:
        raise ValueError(f"tail index must be finite and exceed 1, got {alpha}")
    cbar = pf.mean_exposure
    if not 0.0 < b < cbar:
        raise ValueError(f"loss level must lie in (0, {cbar}), got {b}")
    f = scale.resolve(pf.n)
    worst = max(g.pd_scale for g in pf.groups) * f
    if not worst < 1.0:
        raise ValueError(
            f"marginal default probability {worst} >= 1; shrink pd_scale or the scale f_n"
        )
    return f


class LossModel:
    """The conditional default model that every estimator simulates.

    Given the raw mixing variable V, a group-j obligor defaults independently
    with probability p_j(V) = 1 - exp(-V * phi(1 - l_j f_n)), and the loss
    event is loss > n*b.  Built once per EstimatorConfig, which validates
    it; its methods take one value or an array of replications.
    """

    def __init__(self, pf: Portfolio, alpha: float, scale: DefaultScale, b: float):
        self.f_n = check_model(pf, alpha, scale, b)
        self.n = pf.n
        self.nb = pf.n * b
        self.counts = pf.counts
        self.exposures = pf.exposures
        self.phi_f = _phi_near_one(alpha, self.f_n)  # phi(1 - f_n), read by importance sampling
        self.phis = _read_only([_phi_near_one(alpha, pd * self.f_n) for pd in pf.pd_scales])
        # p_j(V) = 1 - exp(-V phi_j) rounds to 1 once V phi_j >= 40; a phi_j so
        # small that this takes V beyond exp(_LOG_V_CERTAIN), near the float
        # range, has underflowed in all but name
        if min(self.phis) * math.exp(_LOG_V_CERTAIN) < 40.0:
            raise ValueError(
                f"smallest phi(1 - l_j f_n) = {min(self.phis):g} underflows: no mixing draw "
                f"makes a default certain (alpha={alpha}, f_n={self.f_n:g})"
            )
        if not self.exceeds(pf.total_exposure):
            raise ValueError(
                f"loss level unattainable: n*b={self.nb} >= total exposure {pf.total_exposure}"
            )
        # per-obligor columns, in group order
        self.obligor_phis = _read_only(np.repeat(self.phis, self.counts))
        self.obligor_exposures = _read_only(np.repeat(self.exposures, self.counts))
        # the index of the default that tips the loss into the event: a
        # constant only when exposures are equal, else found per replication
        self.k = None
        c = self.exposures[0]
        if (self.exposures == c).all():
            self.k = int(np.count_nonzero(~self.exceeds(np.arange(1, self.n + 1) * c))) + 1

    def default_probs(self, v) -> np.ndarray:
        """p_j(v) for every group, along a new last axis of v's shape;
        increasing in v and in the group's pd_scale."""
        return -np.expm1(-np.multiply.outer(v, self.phis))

    def exceeds(self, loss):
        """The loss event, for one loss or elementwise for an array of losses."""
        return loss > self.nb + LOSS_EPS


def limiting_mean_loss(pf: Portfolio, alpha: float, v: float) -> float:
    """Large-portfolio mean loss per obligor at normalized mixture value v.

    r(v) = sum_j c_j w_j (1 - exp(-v l_j**alpha)); strictly increasing from 0
    to the mean exposure.
    """
    if v < 0.0:
        raise ValueError(f"v must be nonnegative, got {v}")
    w = pf.weights
    c = pf.exposures
    l_a = pf.pd_scales**alpha
    return float(np.dot(c * w, -np.expm1(-v * l_a)))


def solve_vstar(pf: Portfolio, alpha: float, b: float) -> float:
    """Invert the limiting loss curve: the unique v with r(v) = b.

    Bracketing bisection with doubling; tolerance 1e-12 of the mean exposure
    in r-units, else NumericalError.
    """
    cbar = pf.mean_exposure
    if not 0.0 < b < cbar:
        raise ValueError(f"loss level must lie in (0, {cbar}), got {b}")
    hi = 1.0
    while limiting_mean_loss(pf, alpha, hi) <= b:
        hi *= 2.0
        if hi > 1e308:
            raise ValueError(f"loss level {b} unreachable below the mean exposure {cbar}")
    lo = 0.0
    tol = 1e-12 * cbar
    for _ in range(_VSTAR_STEPS):
        mid = 0.5 * (lo + hi)
        r = limiting_mean_loss(pf, alpha, mid)
        if abs(r - b) <= tol:
            return mid
        if r < b:
            lo = mid
        else:
            hi = mid
    raise NumericalError(
        f"bisection for v* at b={b} did not converge in {_VSTAR_STEPS} steps", achieved=abs(r - b)
    )
