"""The Gumbel generator of the Archimedean copula and its mixing law.

The copula is determined by its generator ``phi``, whose inverse is the
Laplace transform of a positive mixing variable V.  For the Gumbel family,
phi(t) = (-ln t)**alpha and V follows the positive stable law with index
1/alpha; conditionally on V, obligors default independently (see
:class:`~archcredit.portfolio.LossModel`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .stable import PositiveStableLaw


@dataclass(frozen=True)
class GumbelGenerator:
    """Gumbel generator phi(t) = (-ln t)**alpha with alpha > 1."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 1.0:
            raise ValueError(f"Gumbel tail index must exceed 1, got {self.alpha}")

    def phi_one_minus(self, eps: float) -> float:
        """phi(1 - eps) computed from eps directly, exact for tiny eps."""
        if not 0.0 <= eps < 1.0:
            raise ValueError(f"eps must lie in [0, 1), got {eps}")
        return (-math.log1p(-eps)) ** self.alpha

    def mixing_law(self) -> PositiveStableLaw:
        """Distribution of the mixture variable V, whose Laplace transform is
        the inverse generator exp(-s**(1/alpha))."""
        return PositiveStableLaw(1.0 / self.alpha)
