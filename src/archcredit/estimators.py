"""Monte Carlo estimators for the large-loss probability and expected
shortfall: naive simulation, a two-step importance sampler, and a conditional
Monte Carlo estimator that integrates the systemic factor out analytically.

The importance sampler re-weights in two stages: the mixing variable V is
drawn from a spliced density that keeps the body of the stable law but swaps
in a Pareto tail at a splice point x0, and the conditional default
probabilities are exponentially twisted so the mean loss under the proposal
sits exactly at the target level.  Each replication returns an unbiased
weighted indicator.  Conditional Monte Carlo instead draws only the obligor
exponentials and returns the exact conditional exceedance probability, a
survival evaluation of the stable law at an order statistic.

The model itself (conditional default probabilities, threshold index, loss
event) comes from :class:`~archcredit.portfolio.LossModel`.  Replications are
independent given disjoint substreams: replication i always consumes
``RngStream(seed).substream(i)``, and aggregation runs over the stored
per-replication values in index order.
"""

from __future__ import annotations

import dataclasses
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .archimedean import GumbelGenerator
from .errors import EstimationError, NumericalError
from .portfolio import LOSS_EPS, DefaultScale, LossModel, Portfolio, check_model
from .rng import RngStream
from .stable import PositiveStableLaw

_KINDS = ("naive", "importance", "conditional")
_REJECTION_CAP = 10**6
_TWIST_STEPS = 200  # cap on the bracket doublings and on the Newton steps of the twist solve


@dataclass(frozen=True)
class EstimatorConfig:
    """Parameters of one Monte Carlo run."""

    portfolio: Portfolio
    alpha: float
    scale: DefaultScale
    b: float
    m: int
    seed: int
    x0: float = 1.0
    kind: str = "conditional"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}; expected one of {_KINDS}")
        if self.m < 2:
            raise ValueError(f"need at least 2 replications, got {self.m}")
        if not self.x0 > 0.0:
            raise ValueError(f"splice point x0 must be positive, got {self.x0}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        f_n = check_model(self.portfolio, self.alpha, self.scale, self.b)
        if self.kind == "importance":
            phi_f = GumbelGenerator(self.alpha).phi_one_minus(f_n)
            if not phi_f < 1.0:
                raise ValueError(
                    f"splice tail shape undefined: phi(1 - f_n)={phi_f} >= 1; "
                    "the default scale is too large for importance sampling"
                )


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with sampling-error and variance-reduction diagnostics."""

    estimate: float
    std_error: float
    rel_error_pct: float
    variance_reduction: float
    m: int
    seed: int
    runtime_s: float
    notes: str = ""


@dataclass(frozen=True)
class TwistState:
    """Exponential twist of the conditional default probabilities."""

    theta: float
    twisted: tuple[float, ...]


class RunContext:
    """Run-level state shared by every replication: the loss model, the mixing
    law and, for importance sampling, the splice constants."""

    def __init__(self, config: EstimatorConfig):
        self.config = config
        self.model = model = LossModel(config.portfolio, config.alpha, config.scale, config.b)
        self.law: PositiveStableLaw = model.gen.mixing_law()

        if config.kind == "importance":
            self.eta = -1.0 / math.log(model.gen.phi_one_minus(model.f_n))
            self.sf_x0 = self.law.sf(config.x0)
            self.cdf_x0 = 1.0 - self.sf_x0
            self.log_tail_norm = (
                math.log(self.sf_x0 * self.eta) + self.eta * math.log(config.x0)
                if self.sf_x0 > 0.0
                else -math.inf
            )

        if config.kind == "conditional" and model.f_n < 1.0 / (10.0 * model.n):
            warnings.warn(
                f"default scale f_n={model.f_n:g} decays faster than 1/(10 n); the "
                "conditional estimator's error guarantees weaken in this regime",
                stacklevel=3,
            )


# twisting ---------------------------------------------------------------


def solve_theta_star(pf: Portfolio, probs, b: float) -> TwistState:
    """Twist parameter making the mean loss under the proposal equal n*b.

    If the untwisted mean loss already reaches n*b the probabilities are left
    unchanged (theta = 0).  Otherwise the strictly increasing derivative of
    the conditional cumulant is inverted by safeguarded Newton iteration to
    |mean loss - n*b| <= 1e-9 * n*b, else NumericalError.
    """
    counts = tuple(int(g.count) for g in pf.groups)
    exposures = tuple(float(g.exposure) for g in pf.groups)
    probs = tuple(float(p) for p in probs)
    if any(not 0.0 < p < 1.0 for p in probs):
        raise ValueError("conditional probabilities must lie strictly inside (0, 1)")
    nb = pf.n * b
    return _solve_twist(counts, exposures, probs, nb)


def _solve_twist(counts, exposures, probs, nb: float) -> TwistState:
    mean0 = sum(n * c * p for n, c, p in zip(counts, exposures, probs))
    if mean0 >= nb:
        return TwistState(0.0, tuple(probs))
    attainable = sum(n * c for n, c, p in zip(counts, exposures, probs) if p > 0.0)
    if nb >= attainable:
        raise ValueError(
            f"twist target n*b={nb} not attainable: twisted mean loss is capped at {attainable}"
        )

    if len(counts) == 1 and probs[0] > 0.0:
        # single group: p_twisted = nb / (n c) has a closed form
        n, c, p = counts[0], exposures[0], probs[0]
        q = nb / (n * c)
        theta = math.log(q * (1.0 - p) / (p * (1.0 - q))) / c
        return TwistState(theta, (q,))

    def mean_at(theta: float) -> float:
        total = 0.0
        for n, c, p in zip(counts, exposures, probs):
            if p > 0.0:
                total += n * c * p / (p + (1.0 - p) * math.exp(-theta * c))
        return total

    hi = 1.0
    for _ in range(_TWIST_STEPS):
        if mean_at(hi) > nb:
            break
        hi *= 2.0
    else:
        raise NumericalError(f"could not bracket the twist parameter for n*b={nb}")
    lo, theta = 0.0, hi / 2.0
    tol = 1e-9 * nb
    for _ in range(_TWIST_STEPS):
        g = mean_at(theta) - nb
        if abs(g) <= tol:
            break
        if g < 0.0:
            lo = theta
        else:
            hi = theta
        # Newton step on the strictly increasing mean, bisection as fallback
        slope = 0.0
        for n, c, p in zip(counts, exposures, probs):
            if p > 0.0:
                e = math.exp(-theta * c)
                d = p + (1.0 - p) * e
                slope += n * c * c * p * (1.0 - p) * e / (d * d)
        step = theta - g / slope if slope > 0.0 else None
        theta = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
    else:
        raise NumericalError(
            f"twist solve for n*b={nb} did not converge in {_TWIST_STEPS} steps", achieved=abs(g)
        )
    twisted = tuple(
        p / (p + (1.0 - p) * math.exp(-theta * c)) if p > 0.0 else 0.0
        for c, p in zip(exposures, probs)
    )
    return TwistState(theta, twisted)


# per-replication estimators ----------------------------------------------


def naive_tail_one_rep(ctx: RunContext, rng: RngStream) -> float:
    """Indicator of the loss event under plain simulation of the mixture model."""
    model = ctx.model
    v = ctx.law.sample(rng)
    loss = 0.0
    for n_j, c_j, p in zip(model.counts, model.exposures, model.default_probs(v)):
        loss += c_j * rng.binomial(n_j, p)
    return 1.0 if model.exceeds(loss) else 0.0


def is_sample_v(ctx: RunContext, rng: RngStream) -> tuple[float, float]:
    """Draw the mixing variable from the spliced proposal density.

    Below the splice point x0 the stable law itself is used (rejection
    against the unconditional sampler) and the likelihood factor is 1; above
    it a Pareto tail is drawn and the factor is the density ratio.
    """
    if rng.uniform() < ctx.cdf_x0:
        for _ in range(_REJECTION_CAP):
            v = ctx.law.sample(rng)
            if v < ctx.config.x0:
                return v, 1.0
        raise NumericalError(
            f"rejection sampling below x0={ctx.config.x0} exceeded {_REJECTION_CAP} draws; "
            "the splice point is too far into the left tail"
        )
    u = rng.uniform()
    while u <= 0.0:
        u = rng.uniform()
    v = ctx.config.x0 * u ** (-1.0 / ctx.eta)
    num = ctx.law.pdf(v)
    if num <= 0.0:
        return v, 0.0
    log_den = ctx.log_tail_norm - (ctx.eta + 1.0) * math.log(v)
    return v, math.exp(math.log(num) - log_den)


def _is_loss_and_weight(ctx: RunContext, rng: RngStream) -> tuple[float, float]:
    """One proposal draw: realized loss and its unbiasing likelihood ratio."""
    model = ctx.model
    v, lr_v = is_sample_v(ctx, rng)
    probs = model.default_probs(v)
    twist = _solve_twist(model.counts, model.exposures, probs, model.nb)
    theta = twist.theta
    loss = 0.0
    log_w = 0.0
    for n_j, c_j, p, pt in zip(model.counts, model.exposures, probs, twist.twisted):
        d = rng.binomial(n_j, pt) if pt > 0.0 else 0
        loss += c_j * d
        if theta != 0.0:
            # log(p/pt) = log D and log((1-p)/(1-pt)) = theta c + log D
            # with D = p + (1-p) exp(-theta c); exact also at p = 1
            log_d = math.log(p + (1.0 - p) * math.exp(-theta * c_j))
            log_w += n_j * log_d + (n_j - d) * theta * c_j
    return loss, lr_v * math.exp(log_w) if lr_v > 0.0 else 0.0


def is_tail_one_rep(ctx: RunContext, rng: RngStream) -> float:
    """Weighted indicator: likelihood ratio when the loss event occurs, else 0."""
    loss, weight = _is_loss_and_weight(ctx, rng)
    return weight if ctx.model.exceeds(loss) else 0.0


def condmc_one_rep(ctx: RunContext, rng: RngStream) -> float:
    """Conditional exceedance probability given the obligor exponentials.

    Draws the n obligor exponentials, maps them onto the mixing-variable
    scale, and returns the stable survival function at the order statistic
    that tips the cumulative exposure above n*b.
    """
    model = ctx.model
    k = model.k
    if len(model.counts) == 1:
        r = rng.standard_exponential(model.counts[0])
        o_k = np.partition(r, k - 1)[k - 1] / model.phis[0]
        return float(ctx.law.sf(o_k))
    chunks = [
        rng.standard_exponential(n_j) / phi for n_j, phi in zip(model.counts, model.phis)
    ]
    o = np.concatenate(chunks)
    if k is not None:
        o_k = np.partition(o, k - 1)[k - 1]
        return float(ctx.law.sf(o_k))
    order = np.argsort(o, kind="stable")
    cum = np.cumsum(np.repeat(np.asarray(model.exposures), model.counts)[order])
    # first default after which the loss event holds
    idx = int(np.searchsorted(cum, model.nb + LOSS_EPS, side="right"))
    if idx >= o.size:
        raise ValueError(f"loss level unattainable: n*b={model.nb} >= total exposure")
    return float(ctx.law.sf(o[order[idx]]))


# aggregation and runners ---------------------------------------------------


def aggregate(
    values: np.ndarray,
    baseline_variance_mode: str = "bernoulli",
    *,
    seed: int = 0,
    runtime_s: float = 0.0,
) -> EstimateReport:
    """Fold per-replication values into a report.

    The relative error is that of the final estimate (per-replication std
    over sqrt(m), divided by the mean).  Variance reduction compares the
    per-replication variance against the Bernoulli variance p(1-p) a plain
    indicator estimator with the same mean would have.
    """
    values = np.asarray(values, dtype=float)
    m = values.size
    if m < 2:
        raise ValueError("aggregation needs at least 2 replications")
    mean = float(values.mean())
    var = float(values.var(ddof=1))
    std_error = math.sqrt(var / m)
    notes = []
    if mean > 0.0:
        rel = 100.0 * std_error / mean
    else:
        rel = math.nan
        notes.append("relative error undefined (zero estimate)")
    if baseline_variance_mode == "bernoulli":
        baseline = mean * (1.0 - mean)
        if var > 0.0:
            vr = baseline / var
        else:
            vr = math.inf
            notes.append("variance reduction capped (+inf): degenerate replication values")
    elif baseline_variance_mode == "none":
        vr = math.nan
    else:
        raise ValueError(f"unknown baseline variance mode {baseline_variance_mode!r}")
    return EstimateReport(
        estimate=mean,
        std_error=std_error,
        rel_error_pct=rel,
        variance_reduction=vr,
        m=m,
        seed=seed,
        runtime_s=runtime_s,
        notes="; ".join(notes),
    )


_ONE_REP = {
    "naive": naive_tail_one_rep,
    "importance": is_tail_one_rep,
    "conditional": condmc_one_rep,
}


def run_tail_estimate(config: EstimatorConfig) -> EstimateReport:
    """Estimate the loss-event probability with the configured estimator."""
    t0 = time.perf_counter()
    ctx = RunContext(config)
    one_rep = _ONE_REP[config.kind]
    root = RngStream(config.seed)
    values = np.empty(config.m)
    for i in range(config.m):
        values[i] = one_rep(ctx, root.substream(i))
    return aggregate(values, "bernoulli", seed=config.seed, runtime_s=time.perf_counter() - t0)


def is_expected_shortfall(config: EstimatorConfig) -> EstimateReport:
    """Estimate the conditional mean loss beyond n*b with importance sampling.

    Uses the ratio form n*b + E[(loss - n*b)+ w] / E[1{loss > n*b} w] over a
    single set of weighted replications; the standard error comes from the
    delta method on the (numerator, denominator) pair.
    """
    if config.kind != "importance":
        config = dataclasses.replace(config, kind="importance")
    t0 = time.perf_counter()
    ctx = RunContext(config)
    nb = ctx.model.nb
    root = RngStream(config.seed)
    losses = np.empty(config.m)
    weights = np.empty(config.m)
    for i in range(config.m):
        losses[i], weights[i] = _is_loss_and_weight(ctx, root.substream(i))
    exceed = ctx.model.exceeds(losses)
    if not exceed.any():
        raise EstimationError(
            f"no replication exceeded the loss level (m={config.m}); increase m"
        )
    num = np.where(exceed, (losses - nb) * weights, 0.0)
    den = np.where(exceed, weights, 0.0)
    num_mean = float(num.mean())
    den_mean = float(den.mean())
    if den_mean <= 0.0:
        raise EstimationError(
            "all exceeding replications carried zero likelihood weight; increase m"
        )
    estimate = nb + num_mean / den_mean
    cov = np.cov(np.vstack([num, den]), ddof=1)
    var_ratio = (
        cov[0, 0] / den_mean**2
        - 2.0 * num_mean * cov[0, 1] / den_mean**3
        + num_mean**2 * cov[1, 1] / den_mean**4
    ) / config.m
    std_error = math.sqrt(max(var_ratio, 0.0))
    return EstimateReport(
        estimate=estimate,
        std_error=std_error,
        rel_error_pct=100.0 * std_error / estimate,
        variance_reduction=math.nan,
        m=config.m,
        seed=config.seed,
        runtime_s=time.perf_counter() - t0,
        notes="shortfall ratio estimator; variance reduction not defined",
    )
