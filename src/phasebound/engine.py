"""Exact expectations over measurement records.

Every risk and bound in this package is an expectation over binary-outcome
records, reduced to sums over the m+1 outcome tallies.
``expect_values_over_tallies`` is that exact sum for a per-tally value vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GhzParityModel, ModelError, tally_pmf
from .numerics import NumericalFailure


@dataclass(frozen=True)
class OutcomeTally:
    """Sufficient statistic of a record: k_plus outcomes +1 out of m shots."""

    k_plus: int
    m: int

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 0:
            raise ModelError(f"m must be a nonnegative integer, got {self.m!r}")
        if not isinstance(self.k_plus, (int, np.integer)) or not 0 <= self.k_plus <= self.m:
            raise ModelError(f"k_plus must lie in 0..{self.m}, got {self.k_plus!r}")

    @property
    def k_minus(self) -> int:
        return self.m - self.k_plus


def expect_values_over_tallies(values, theta0: float, m: int, model: GhzParityModel) -> float:
    """Expectation of a precomputed per-tally value vector (index k = 0..m)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (m + 1,):
        raise ModelError(f"values must have length m+1={m + 1}")
    if not np.all(np.isfinite(values)):
        raise NumericalFailure("non-finite per-tally values")
    return float(np.sum(values * tally_pmf(model, theta0, m)))
