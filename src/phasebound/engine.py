"""Exact expectations over measurement records.

Every risk and bound in this package is an expectation over binary-outcome
records, reduced to sums over the m+1 outcome tallies.
``expect_values_over_tallies`` is that exact sum for a per-tally value vector.
"""

from __future__ import annotations

import numpy as np

from .model import GhzParityModel, ModelError, tally_pmf_matrix
from .numerics import NumericalFailure


def expect_values_over_tallies(values, theta0: float, m: int, model: GhzParityModel) -> float:
    """Expectation of a precomputed per-tally value vector (index k = 0..m)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (m + 1,):
        raise ModelError(f"values must have length m+1={m + 1}")
    if not np.all(np.isfinite(values)):
        raise NumericalFailure("non-finite per-tally values")
    return float(np.sum(values * tally_pmf_matrix(model, m, [theta0])[:, 0]))
