"""Archimedean generators and copula sampling via the mixture representation.

An Archimedean copula is determined by a generator ``phi``; when ``phi_inv``
is the Laplace transform of a positive mixing variable V, the copula can be
sampled exactly as ``U_i = phi_inv(R_i / V)`` with i.i.d. standard
exponentials R_i.  The Gumbel family is the one implemented; its mixing
variable is the positive stable law with index 1/alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream
from .stable import PositiveStableLaw


@dataclass(frozen=True)
class GumbelGenerator:
    """Gumbel generator phi(t) = (-ln t)**alpha with alpha > 1."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 1.0:
            raise ValueError(f"Gumbel tail index must exceed 1, got {self.alpha}")

    def phi(self, u: float) -> float:
        """Generator value at u in (0, 1]."""
        if not 0.0 < u <= 1.0:
            raise ValueError(f"generator argument must lie in (0, 1], got {u}")
        # route through log1p for u near 1 to keep the small result exact
        return (-math.log1p(u - 1.0)) ** self.alpha

    def phi_one_minus(self, eps: float) -> float:
        """phi(1 - eps) computed from eps directly, exact for tiny eps."""
        if not 0.0 <= eps < 1.0:
            raise ValueError(f"eps must lie in [0, 1), got {eps}")
        return (-math.log1p(-eps)) ** self.alpha

    def phi_inv(self, s: float) -> float:
        """Inverse generator at s >= 0; the mixing variable's Laplace transform."""
        if s < 0.0:
            raise ValueError(f"inverse generator argument must be >= 0, got {s}")
        return math.exp(-(s ** (1.0 / self.alpha)))

    def mixing_law(self) -> PositiveStableLaw:
        """Distribution of the mixture variable V with Laplace transform phi_inv."""
        return PositiveStableLaw(1.0 / self.alpha)

    def phi_inv_many(self, s: np.ndarray) -> np.ndarray:
        return np.exp(-(np.asarray(s, dtype=float) ** (1.0 / self.alpha)))


def sample_uniforms(
    gen: GumbelGenerator, n: int, v: float, rng: RngStream
) -> np.ndarray:
    """Draw n copula coordinates conditionally on a mixture realization v > 0.

    Returns U_i = phi_inv(R_i / v), conditionally independent given v; over a
    fresh v per call the joint law is the generator's Archimedean copula with
    uniform marginals.
    """
    if v <= 0.0:
        raise ValueError(f"mixture realization must be positive, got {v}")
    r = rng.standard_exponential(n)
    return gen.phi_inv_many(r / v)
