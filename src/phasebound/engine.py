"""Exact expectations over measurement records.

Every risk and bound in this package is an expectation over binary-outcome
records, reduced to sums over the m+1 outcome tallies.  At a fixed true phase
theta0 each sum weighs a per-tally value vector with the tally pmf column
``tally_column(theta0, m, model)``, which is built once per (theta0, m,
model) and shared by every sum at that cell.
"""

from __future__ import annotations

import functools

import numpy as np

from .model import GhzParityModel, ModelError, tally_pmf_matrix
from .numerics import NumericalFailure


@functools.lru_cache(maxsize=1)
def tally_column(theta0: float, m: int, model: GhzParityModel) -> np.ndarray:
    """The tally pmf p(k | theta0) for k = 0..m: the one-phase column of ``tally_pmf_matrix``.

    Memoised for the last cell only, so the frequentist risk and the
    likelihood-averaged Bayesian sums of one sweep row share one kernel call
    and no earlier row's column is kept; the column is read-only.
    """
    column = tally_pmf_matrix(model, m, [theta0])[:, 0]
    column.flags.writeable = False
    return column


def expect_values_over_tallies(values, pmf: np.ndarray) -> float:
    """Expectation of a per-tally value vector (index k = 0..m) under the tally pmf ``pmf``."""
    values = np.asarray(values, dtype=float)
    if values.shape != pmf.shape:
        raise ModelError(f"values must have length m+1={pmf.size}")
    if not np.all(np.isfinite(values)):
        raise NumericalFailure("non-finite per-tally values")
    return float(np.sum(values * pmf))
