"""Splittable deterministic random streams.

Every sampler in this package draws from an :class:`RngStream`.  A stream is
identified by a root seed plus a key of substream indices; substreams derived
from the same (seed, key) are statistically independent and reproducible.
The Monte Carlo estimators run replications in blocks of B = 64, and block j
draws everything from ``RngStream(seed).substream(j)``, so blocks can run in
any order without changing results.  A block makes the draws and the twist
solve that its binomial draws read; the run evaluates the stable law's
``sf``/``pdf``, the splice factor and the weights once over all blocks'
draws, and aggregates.
"""

from __future__ import annotations

import numbers

import numpy as np


def _nonnegative_int(value, what: str) -> int:
    """``value`` as an int; a bool or a non-integral number is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {value!r}")
    return int(value)


class RngStream:
    """A PCG64 generator addressed by ``(seed, key)``.

    ``substream(i)`` derives an independent child stream; the derivation uses
    ``SeedSequence(seed, spawn_key=key + (i,))``, which is deterministic and
    collision-resistant across the whole key tree.
    """

    __slots__ = ("seed", "key", "_gen")

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        # int() would run a float or bool seed or key as its int part
        self.seed = _nonnegative_int(seed, "seed")
        self.key = tuple(_nonnegative_int(k, "substream key") for k in key)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.key))
        )

    def substream(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.key + tuple(indices))

    # thin draw layer -------------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def standard_exponential(self, size=None):
        return self._gen.standard_exponential(size)

    def standard_gamma(self, shape, size=None):
        return self._gen.standard_gamma(shape, size)

    def binomial(self, n, p, size=None):
        return self._gen.binomial(n, p, size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, key={self.key})"
