"""Empirical cumulative distribution functions.

Every evaluation figure in the paper (Figs. 9, 10, 12) is a CDF of either
per-run throughput gain or per-packet bit error rate.  The
:class:`EmpiricalCDF` here is the single representation those experiment
runners and benchmark harnesses use to report results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class EmpiricalCDF:
    """Empirical CDF of a sample of real values.

    The CDF is right-continuous: ``evaluate(x)`` is the fraction of samples
    less than or equal to ``x``.
    """

    samples: Tuple[float, ...] = field(default_factory=tuple)

    @classmethod
    def from_samples(cls, values: Iterable[float]) -> "EmpiricalCDF":
        """The CDF of ``values``; rejects an empty or NaN-holding sample."""
        data = tuple(float(v) for v in values)
        if not data:
            raise ConfigurationError("an empirical CDF needs at least one sample")
        if any(np.isnan(v) for v in data):
            raise ConfigurationError("CDF samples must not contain NaN")
        return cls(samples=tuple(sorted(data)))

    @property
    def n(self) -> int:
        """Number of underlying samples."""
        return len(self.samples)

    def evaluate(self, x: float) -> float:
        """Fraction of samples ``<= x``."""
        if not self.samples:
            raise ConfigurationError("empty CDF")
        return float(np.searchsorted(np.asarray(self.samples), x, side="right")) / self.n

    def quantile(self, q: float) -> float:
        """Smallest sample value with CDF at least ``q`` (0 < q <= 1)."""
        if not 0.0 < q <= 1.0:
            raise ConfigurationError("quantile level must lie in (0, 1]")
        index = int(np.ceil(q * self.n)) - 1
        return self.samples[max(index, 0)]

    @property
    def median(self) -> float:
        """The 0.5 quantile."""
        return self.quantile(0.5)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        return float(np.mean(self.samples))

    @property
    def maximum(self) -> float:
        """The largest sample."""
        return self.samples[-1]

    def table(self, points: Sequence[float]) -> List[Tuple[float, float]]:
        """Evaluate the CDF at the given points, returning (x, F(x)) pairs."""
        return [(float(p), self.evaluate(float(p))) for p in points]

    def __len__(self) -> int:
        """Number of underlying samples."""
        return self.n
