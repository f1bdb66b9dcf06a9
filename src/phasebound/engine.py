"""Exact expectations over measurement records.

Every risk and bound in this package is an expectation over binary-outcome
records, reduced to sums over the m+1 outcome tallies.  At a fixed true phase
theta0 each sum weighs a per-tally value vector with the tally pmf column
``tally_column(theta0, m, model)``; a caller that needs several sums at one
(theta0, m) builds the column once and passes it to each.
"""

from __future__ import annotations

import numpy as np

from .model import GhzParityModel, ModelError, tally_pmf_matrix
from .numerics import NumericalFailure


def tally_column(theta0: float, m: int, model: GhzParityModel) -> np.ndarray:
    """The tally pmf p(k | theta0) for k = 0..m: the one-phase column of ``tally_pmf_matrix``."""
    return tally_pmf_matrix(model, m, [theta0])[:, 0]


def expect_values_over_tallies(values, pmf: np.ndarray) -> float:
    """Expectation of a per-tally value vector (index k = 0..m) under the tally pmf ``pmf``."""
    values = np.asarray(values, dtype=float)
    if values.shape != pmf.shape:
        raise ModelError(f"values must have length m+1={pmf.size}")
    if not np.all(np.isfinite(values)):
        raise NumericalFailure("non-finite per-tally values")
    return float(np.sum(values * pmf))
