"""Monte Carlo estimators for the large-loss probability and expected
shortfall: naive simulation, a two-step importance sampler, and a conditional
Monte Carlo estimator that integrates the systemic factor out analytically.

The importance sampler re-weights in two stages: the mixing variable V is
drawn from the stable law and each draw above a splice point x0 is replaced by
a Pareto draw (a spliced density), and the conditional default
probabilities are exponentially twisted so the mean loss under the proposal
sits exactly at the target level.  Each replication returns an unbiased
weighted indicator.  Conditional Monte Carlo instead draws only the obligor
exponentials and returns the exact conditional exceedance probability, a
survival evaluation of the stable law at an order statistic.

The model itself (conditional default probabilities, threshold index, loss
event) comes from :class:`~archcredit.portfolio.LossModel`.  Replications run
in blocks of ``B = 64``, each in one array pass: block j holds replications
jB .. min((j+1)B, m) - 1 (the last block is partial) and draws everything from
``RngStream(seed).substream(j)``.  Aggregation runs over the stored
per-replication values in index order.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, NumericalError
from .portfolio import DefaultScale, LossModel, Portfolio
from .rng import RngStream
from .stable import PositiveStableLaw

B = 64  # replications per block; block j draws from RngStream(seed).substream(j)
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
        # an int or a NumPy integer: a float or bool seed would run as its int part
        for name, least in (("m", 2), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not 0.0 < self.x0 < math.inf:
            raise ValueError(f"splice point x0 must be positive and finite, got {self.x0}")
        model = self.model
        if self.kind == "importance":
            if not model.phi_f < 1.0:
                raise ValueError(
                    f"splice tail shape undefined: phi(1 - f_n)={model.phi_f} >= 1; "
                    "the default scale is too large for importance sampling"
                )

    @functools.cached_property
    def model(self) -> LossModel:
        """The run's loss model, built once: ``__post_init__`` reads it to validate."""
        return LossModel(self.portfolio, self.alpha, self.scale, self.b)


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


class RunContext:
    """Run-level state shared by every replication: the loss model, the mixing
    law and, for importance sampling, the splice constants."""

    def __init__(self, config: EstimatorConfig):
        self.config = config
        self.model = model = config.model
        # the mixing variable V, whose Laplace transform exp(-s**(1/alpha)) is
        # the inverse Gumbel generator
        self.law = PositiveStableLaw(1.0 / config.alpha)

        if config.kind == "importance":
            self.eta = -1.0 / math.log(model.phi_f)
            self.sf_x0 = self.law.sf(config.x0)
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


def _solve_twist(counts, exposures, probs: np.ndarray, nb: float):
    """Twist of each row of ``probs`` (one row per replication, one column per
    group): the parameters theta, shape (rows,), and the twisted probabilities."""
    nc = np.multiply(counts, exposures)
    theta = np.zeros(len(probs))
    twisted = probs.copy()
    need = probs @ nc < nb
    if not need.any():
        return theta, twisted
    p = probs[need]
    attainable = np.where(p > 0.0, nc, 0.0).sum(axis=1)
    if np.any(nb >= attainable):
        raise ValueError(
            f"twist target n*b={nb} not attainable: twisted mean loss is capped at "
            f"{attainable.min()}"
        )
    if len(exposures) == 1:
        # single group: p_twisted = nb / (n c) has a closed form
        q = nb / nc[0]
        theta[need] = np.log(q * (1.0 - p[:, 0]) / (p[:, 0] * (1.0 - q))) / exposures[0]
        twisted[need] = q
        return theta, twisted
    t = _twist_newton(p, nc, exposures, nb)
    with np.errstate(divide="ignore", invalid="ignore"):
        twisted[need] = np.where(
            p > 0.0, p / (p + (1.0 - p) * np.exp(-t[:, None] * exposures)), 0.0
        )
    theta[need] = t
    return theta, twisted


def _twist_newton(p: np.ndarray, nc: np.ndarray, c: np.ndarray, nb: float) -> np.ndarray:
    """theta >= 0 with twisted mean loss n*b for every row of p.

    Bracket doubling, then safeguarded Newton steps; a row stops once its
    mean loss is within 1e-9 * n*b, and every row ends with the Newton step
    from its last point, held inside the bracket, which puts theta at the
    root to rounding at no extra evaluation.  A step that rounding carries
    past a bracket end lands nearer the root than that step did: a row whose
    untwisted mean sits below n*b by rounding alone gets theta = 0.
    """
    live = p > 0.0

    def mean_and_slope(theta):
        e = np.exp(-theta[:, None] * c)
        d = p + (1.0 - p) * e
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = np.where(live, nc * p / d, 0.0).sum(axis=1)
            slope = np.where(live, nc * c * p * (1.0 - p) * e / (d * d), 0.0).sum(axis=1)
        return mean, slope

    hi = np.ones(len(p))
    for _ in range(_TWIST_STEPS):
        short = mean_and_slope(hi)[0] <= nb
        if not short.any():
            break
        hi[short] *= 2.0
    else:
        raise NumericalError(f"could not bracket the twist parameter for n*b={nb}")
    lo, theta = np.zeros(len(p)), hi / 2.0
    tol = 1e-9 * nb
    for _ in range(_TWIST_STEPS):
        mean, slope = mean_and_slope(theta)
        g = mean - nb
        active = np.abs(g) > tol
        lo = np.where(active & (g < 0.0), theta, lo)
        hi = np.where(active & (g > 0.0), theta, hi)
        # Newton step on the strictly increasing mean, bisection as fallback
        with np.errstate(divide="ignore", invalid="ignore"):
            step = theta - g / slope
        if not active.any():
            return np.where(slope > 0.0, np.clip(step, lo, hi), theta)
        newton = (slope > 0.0) & (lo < step) & (step < hi)
        theta = np.where(active, np.where(newton, step, 0.5 * (lo + hi)), theta)
    raise NumericalError(
        f"twist solve for n*b={nb} did not converge in {_TWIST_STEPS} steps",
        achieved=float(np.abs(g).max()),
    )


# block estimators --------------------------------------------------------
#
# Each takes the run context, the substream of one block and the block's
# size, and returns one value per replication of the block.


def naive_tail_block(ctx: RunContext, rng: RngStream, size: int) -> np.ndarray:
    """Indicators of the loss event under plain simulation of the mixture model."""
    model = ctx.model
    probs = model.default_probs(ctx.law.sample(rng, size))
    defaults = rng.binomial(model.counts, probs)
    return model.exceeds(defaults @ model.exposures).astype(float)


def is_sample_v(ctx: RunContext, rng: RngStream, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``size`` mixing variables from the spliced proposal density, with
    their likelihood factors.

    By composition: a stable draw falls below the splice point x0 with the
    body's mass and law, so it is kept (factor 1); a draw at or above x0 is
    replaced by a Pareto draw (factor: the density ratio).  A block draws
    ``size`` stable values, then one uniform per tail replication.
    """
    x0 = ctx.config.x0
    v = ctx.law.sample(rng, size)
    tail = v >= x0
    u = 1.0 - rng.uniform(size=int(tail.sum()))  # in (0, 1]
    v[tail] = x0 * u ** (-1.0 / ctx.eta)
    num = ctx.law.pdf(v[tail])
    log_den = ctx.log_tail_norm - (ctx.eta + 1.0) * np.log(v[tail])
    lr = np.ones(size)
    with np.errstate(divide="ignore"):
        lr[tail] = np.where(num > 0.0, np.exp(np.log(num) - log_den), 0.0)
    return v, lr


def _is_loss_and_weight(ctx: RunContext, rng: RngStream, size: int) -> np.ndarray:
    """Proposal draws: realized losses (row 0) and their unbiasing likelihood
    ratios (row 1)."""
    model = ctx.model
    v, lr_v = is_sample_v(ctx, rng, size)
    probs = model.default_probs(v)
    theta, twisted = _solve_twist(model.counts, model.exposures, probs, model.nb)
    d = rng.binomial(model.counts, twisted)
    n, c = model.counts, model.exposures
    # log(p/pt) = log D and log((1-p)/(1-pt)) = theta c + log D
    # with D = p + (1-p) exp(-theta c); exact also at p = 1
    tc = theta[:, None] * c
    log_d = np.log(probs + (1.0 - probs) * np.exp(-tc))
    log_w = np.where(theta != 0.0, (n * log_d + (n - d) * tc).sum(axis=1), 0.0)
    weight = np.where(lr_v > 0.0, lr_v * np.exp(log_w), 0.0)
    return np.stack((d @ c, weight))


def is_tail_block(ctx: RunContext, rng: RngStream, size: int) -> np.ndarray:
    """Weighted indicators: the likelihood ratio where the loss event occurs, else 0."""
    loss, weight = _is_loss_and_weight(ctx, rng, size)
    return np.where(ctx.model.exceeds(loss), weight, 0.0)


def condmc_block(ctx: RunContext, rng: RngStream, size: int) -> np.ndarray:
    """Conditional exceedance probabilities given the obligor exponentials.

    Draws a (size, n) matrix of obligor exponentials, maps each column onto
    the mixing-variable scale of its group, and returns the stable survival
    function at the order statistic of each row that tips the cumulative
    exposure above n*b.
    """
    return ctx.law.sf(_tipping_times(ctx.model, rng, size))


def _tipping_times(model: LossModel, rng: RngStream, size: int) -> np.ndarray:
    """Per row, the mixing-variable-scale time of the default that tips the
    loss above n*b; the (size, n) draw is freed before the survival call."""
    o = rng.standard_exponential((size, model.n))
    o /= model.obligor_phis
    if model.k is not None:
        o.partition(model.k - 1, axis=1)
        return o[:, model.k - 1].copy()
    order = np.argsort(o, axis=1, kind="stable")
    cum = np.cumsum(model.obligor_exposures[order], axis=1)
    # first default after which the loss event holds
    idx = np.count_nonzero(~model.exceeds(cum), axis=1)
    if idx.max() >= model.n:
        raise ValueError(f"loss level unattainable: n*b={model.nb} >= total exposure")
    rows = np.arange(size)
    return o[rows, order[rows, idx]]


# aggregation and runners ---------------------------------------------------


def _finite(values: np.ndarray) -> np.ndarray:
    """``values``, or NumericalError with the count of its non-finite entries."""
    bad = values.size - np.count_nonzero(np.isfinite(values))
    if bad:
        raise NumericalError(f"{bad} of {values.size} replication values are not finite")
    return values


def aggregate(values: np.ndarray, *, seed: int = 0, runtime_s: float = 0.0) -> EstimateReport:
    """Fold per-replication values into a report; a non-finite value is a
    NumericalError.

    The relative error is that of the final estimate (per-replication std
    over sqrt(m), divided by the mean).  Variance reduction compares the
    per-replication variance against the Bernoulli variance p(1-p) a plain
    indicator estimator with the same mean would have.
    """
    values = np.asarray(values, dtype=float)
    m = values.size
    if m < 2:
        raise ValueError("aggregation needs at least 2 replications")
    _finite(values)
    mean = float(values.mean())
    var = float(values.var(ddof=1))
    std_error = math.sqrt(var / m)
    notes = []
    if mean > 0.0:
        rel = 100.0 * std_error / mean
    else:
        rel = math.nan
        notes.append("relative error undefined (zero estimate)")
    if var > 0.0:
        vr = mean * (1.0 - mean) / var
    else:
        vr = math.inf
        notes.append("variance reduction capped (+inf): degenerate replication values")
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


def replicate(ctx: RunContext, block) -> np.ndarray:
    """Outputs of ``block(ctx, rng, size)`` over all m replications of the run.

    Block j covers replications jB .. min((j+1)B, m) - 1 and draws from
    ``RngStream(seed).substream(j)``; the last axis of the result indexes the
    replications in order.
    """
    m = ctx.config.m
    root = RngStream(ctx.config.seed)
    return np.concatenate(
        [block(ctx, root.substream(j), min(B, m - start)) for j, start in enumerate(range(0, m, B))],
        axis=-1,
    )


_BLOCKS = {
    "naive": naive_tail_block,
    "importance": is_tail_block,
    "conditional": condmc_block,
}
_KINDS = tuple(_BLOCKS)


def run_tail_estimate(config: EstimatorConfig) -> EstimateReport:
    """Estimate the loss-event probability with the configured estimator."""
    t0 = time.perf_counter()
    ctx = RunContext(config)
    values = replicate(ctx, _BLOCKS[config.kind])
    return aggregate(values, seed=config.seed, runtime_s=time.perf_counter() - t0)


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
    losses, weights = replicate(ctx, _is_loss_and_weight)
    exceed = ctx.model.exceeds(losses)
    if not exceed.any():
        raise EstimationError(
            f"no replication exceeded the loss level (m={config.m}); increase m"
        )
    num = np.where(exceed, (losses - nb) * weights, 0.0)
    den = np.where(exceed, weights, 0.0)
    pair = _finite(np.vstack([num, den]))
    num_mean = float(num.mean())
    den_mean = float(den.mean())
    if den_mean <= 0.0:
        raise EstimationError(
            "all exceeding replications carried zero likelihood weight; increase m"
        )
    estimate = nb + num_mean / den_mean
    cov = np.cov(pair, ddof=1)
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
