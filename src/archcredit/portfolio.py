"""Credit portfolio model: obligor groups, default-probability scale, and the
Gumbel-copula loss model, the one validated object of an (alpha, n, b) point
that both the asymptotic approximations and the estimators read.

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
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# the limiting loss curve and its inverse live beside the approximations that
# read v*, whose module docstring defines them; a portfolio holds its curves
# and a model solves its level on one of them
from .asymptotics import LossCurve, solve_vstar

LOSS_EPS = 1e-9  # "loss exceeds n*b" means loss > n*b + LOSS_EPS; snaps integer boundaries


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
        count = self.count
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
            raise ValueError(f"count must be an integer >= 1, got {count!r}")


@dataclass(frozen=True)
class Portfolio:
    """A finite union of obligor groups.

    ``curves`` is the store of its limiting loss curves (``curve``); a fresh
    one by default.  Portfolios given one store share a curve wherever their
    group columns are equal bit for bit, so that the portfolios of one group
    mix at several sizes solve each level once per tail index.
    """

    groups: tuple[SubPortfolio, ...]

    def __init__(self, groups, curves: dict | None = None):
        groups = tuple(groups)
        if not groups:
            raise ValueError("portfolio needs at least one group")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "_curves", {} if curves is None else curves)

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

    @cached_property
    def _mix(self) -> tuple[bytes, bytes, bytes]:
        """The bytes of the columns c_j, w_j and l_j: the group mix that the
        limiting loss curves read, whatever the size."""
        return self.exposures.tobytes(), self.weights.tobytes(), self.pd_scales.tobytes()

    def curve(self, alpha: float) -> LossCurve:
        """The limiting loss curve at tail index alpha, built once per (mix,
        alpha) in the portfolio's curve store and shared by every model,
        solve and r evaluation on it, at every size of that mix."""
        key = (alpha, self._mix)
        curve = self._curves.get(key)
        if curve is None:
            curve = self._curves[key] = LossCurve(self, alpha)
        return curve

    @staticmethod
    def homogeneous(n: int, exposure: float = 1.0, pd_scale: float = 1.0,
                    curves: dict | None = None) -> "Portfolio":
        return Portfolio((SubPortfolio(exposure, pd_scale, n),), curves)


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
    """The one validated model of an (alpha, n, b) point: the asymptotic
    approximations read its v*, and every estimator simulates it.

    Given the raw mixing variable V, a group-j obligor defaults independently
    with probability p_j(V) = 1 - exp(-V * phi(1 - l_j f_n)), and the loss
    event is loss > n*b.  The model registers b on its portfolio's curve at
    alpha (``curve``, shared by the portfolios of its mix in one curve store)
    when it is built; the first read of v* on that curve
    solves every level registered there and not yet solved, in one
    solve_vstar call, and a level whose solve failed raises its own error at
    every read, with a traceback of that read alone.  v* and every member that only the estimators read (the
    generator values phi and the per-obligor columns) are computed on first
    use; the methods take one value or an array of replications.
    """

    def __init__(self, pf: Portfolio, alpha: float, scale: DefaultScale, b: float):
        self.f_n = check_model(pf, alpha, scale, b)
        self.portfolio = pf
        self.alpha = alpha
        self.b = b
        self.n = pf.n
        self.nb = pf.n * b
        self.counts = pf.counts
        self.exposures = pf.exposures
        if not self.exceeds(pf.total_exposure):
            raise ValueError(
                f"loss level unattainable: n*b={self.nb} >= total exposure {pf.total_exposure}"
            )
        self.curve = pf.curve(alpha)
        self.curve.vstars.setdefault(b, None)

    @cached_property
    def vstar(self) -> float:
        """The v with r(v) = b, solved on first use with the other unsolved
        levels of the curve."""
        vstars = self.curve.vstars
        if vstars[self.b] is None:
            todo = [b for b, v in vstars.items() if v is None]
            vstars.update(zip(todo, solve_vstar(self.portfolio, self.alpha, todo)))
        vstar = vstars[self.b]
        if isinstance(vstar, Exception):
            raise vstar.with_traceback(None)  # or its traceback grows at every read
        return vstar

    @cached_property
    def phi_f(self) -> float:
        """phi(1 - f_n), read by importance sampling."""
        return _phi_near_one(self.alpha, self.f_n)

    @cached_property
    def phis(self) -> np.ndarray:
        """phi(1 - l_j f_n) for every group."""
        return _read_only([_phi_near_one(self.alpha, pd * self.f_n)
                           for pd in self.portfolio.pd_scales])

    # per-obligor columns, in group order
    @cached_property
    def obligor_phis(self) -> np.ndarray:
        return _read_only(np.repeat(self.phis, self.counts))

    @cached_property
    def obligor_exposures(self) -> np.ndarray:
        return _read_only(np.repeat(self.exposures, self.counts))

    @cached_property
    def k(self) -> int | None:
        """The index of the default that tips the loss into the event, read by
        the single-group order-statistic draw; None for other portfolios,
        which find it per replication."""
        if len(self.counts) != 1:
            return None
        losses = np.arange(1, self.n + 1) * self.exposures[0]
        return int(np.count_nonzero(~self.exceeds(losses))) + 1

    def default_probs(self, v) -> np.ndarray:
        """p_j(v) for every group, along a new last axis of v's shape;
        increasing in v and in the group's pd_scale."""
        return -np.expm1(-np.multiply.outer(v, self.phis))

    def exceeds(self, loss):
        """The loss event, for one loss or elementwise for an array of losses."""
        return loss > self.nb + LOSS_EPS
