"""Splittable deterministic random streams.

Every sampler in this package draws from an :class:`RngStream`.  A stream is
identified by a root seed plus a key of substream indices; substreams derived
from the same (seed, key) are statistically independent and reproducible, so
replications can run in any order without changing results.
"""

from __future__ import annotations

import numpy as np


class RngStream:
    """A PCG64 generator addressed by ``(seed, key)``.

    ``substream(i)`` derives an independent child stream; the derivation uses
    ``SeedSequence(seed, spawn_key=key + (i,))``, which is deterministic and
    collision-resistant across the whole key tree.
    """

    __slots__ = ("seed", "key", "_gen")

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        if seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
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

    def binomial(self, n: int, p: float, size=None):
        return self._gen.binomial(n, p, size)

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, key={self.key})"
