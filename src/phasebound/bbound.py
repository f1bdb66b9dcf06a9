"""Bayesian lower bounds on the posterior variance at a fixed true phase.

The Ghosh bound dominates the posterior variance for each individual record:

    (f - 1)^2 / J_post <= Var_post,

where J_post is the Fisher information of the posterior density itself and
f is a boundary term built from the posterior values at the domain endpoints
(it vanishes whenever the prior vanishes there).  Averaging the per-record
bound over the likelihood gives a record-independent bound on the average
posterior variance.

Asymptotically the posterior approaches a Gaussian centred at the true phase
with variance 1/(m F) (Laplace-Bernstein-von Mises); on that reference
density the Ghosh bound is saturated, which is the regime where Bayesian and
frequentist error bars agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimate import PosteriorMeanEstimator, posterior_table
from .model import GhzParityModel, tally_pmf
from .numerics import DERIVATIVE_NOISE_REL, NumericalFailure, PriorDensity


class NonIntegrablePosteriorError(NumericalFailure):
    """The posterior Fisher information diverges (zero density, nonzero slope)."""


@dataclass(frozen=True)
class GhoshTable:
    """Per-tally Ghosh quantities for every record of m shots under one prior."""

    m: int
    marginal: np.ndarray        # p_mar(k), sums to 1 over k
    mean: np.ndarray            # posterior means theta_BL(k)
    variance: np.ndarray        # posterior variance about the mean
    boundary: np.ndarray        # boundary terms f(k, a, b)
    information: np.ndarray     # posterior Fisher information J(k)
    ghosh: np.ndarray           # (f - 1)^2 / J
    failure: str | None = None  # why the Ghosh bound is invalid; raised by ghosh_table


# Cells (rows x nodes) of one block of the posterior table: 2 MB per float64 array.
_BLOCK_CELLS = 1 << 18


def posterior_summary(prior: PriorDensity, m: int, model: GhzParityModel) -> GhoshTable:
    """Per-tally posterior summary for all tallies k = 0..m.

    Built in blocks of tallies of at most ``_BLOCK_CELLS`` cells each (131
    rows on 2001 nodes); every returned quantity is one number per tally, so
    memory stays O(block x nodes) however large m is.  Nothing is cached
    here: ``PosteriorMeanEstimator.summary`` builds it once per m and serves
    both the posterior means and ``ghosh_table``.

    A Ghosh-validity failure is recorded in ``failure`` instead of raised, so
    the posterior means stay available for priors whose Ghosh bound is
    undefined.
    """
    grid = prior.grid
    nodes, w = grid.nodes, grid.weights
    a, b = grid.a, grid.b
    rows = max(_BLOCK_CELLS // grid.node_count, 1)
    marginal, means, variance, boundary, information = (np.empty(m + 1) for _ in range(5))
    failure = None
    for k0 in range(0, m + 1, rows):
        k1 = min(k0 + rows, m + 1)
        dens, ddens, marginal[k0:k1] = posterior_table(prior, m, model, k0, k1)
        mean = means[k0:k1] = (dens * nodes) @ w
        variance[k0:k1] = ((nodes[None, :] - mean[:, None]) ** 2 * dens) @ w

        zero = dens == 0.0
        if failure is None and np.any(zero):
            floor = DERIVATIVE_NOISE_REL * np.max(np.abs(ddens), axis=1, keepdims=True)
            bad = zero & (np.abs(ddens) > floor)
            if np.any(bad):
                k_bad = k0 + int(np.flatnonzero(np.any(bad, axis=1))[0])
                failure = f"posterior for tally k={k_bad} has a zero with nonzero slope"
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = np.where(zero, 0.0, ddens**2 / np.where(zero, 1.0, dens))
        information[k0:k1] = integrand @ w
        boundary[k0:k1] = b * dens[:, -1] - a * dens[:, 0] - mean * (dens[:, -1] - dens[:, 0])

    num = (boundary - 1.0) ** 2
    degenerate = information <= 0.0
    undefined = degenerate & (num > 1e-18)
    if failure is None and np.any(undefined):
        k_bad = int(np.flatnonzero(undefined)[0])
        failure = f"zero posterior information with nonzero numerator at tally k={k_bad}"
    ghosh = np.where(degenerate, 0.0, num / np.where(degenerate, 1.0, information))
    for v in (marginal, means, variance, boundary, information, ghosh):
        v.flags.writeable = False
    return GhoshTable(m=m, marginal=marginal, mean=means, variance=variance, boundary=boundary,
                      information=information, ghosh=ghosh, failure=failure)


def ghosh_table(bayes: PosteriorMeanEstimator, m: int) -> GhoshTable:
    """Vectorised Ghosh bound components for all tallies k = 0..m at once.

    Returns ``bayes.summary(m)``, which its posterior means share, or raises
    its Ghosh-validity failure as ``NonIntegrablePosteriorError``.
    """
    table = bayes.summary(m)
    if table.failure is not None:
        raise NonIntegrablePosteriorError(table.failure)
    return table


def averaged_ghosh(theta0: float, m: int, bayes: PosteriorMeanEstimator) -> float:
    """Likelihood-averaged Ghosh bound: sum_k GB(k) p(k | theta0).

    Lower-bounds the likelihood-averaged posterior variance; per-tally
    failures propagate with the offending tally named.
    """
    table = ghosh_table(bayes, m)
    weights = tally_pmf(bayes.model, theta0, m)
    return float(np.sum(table.ghosh * weights))


def averaged_posterior_variance(theta0: float, m: int, bayes: PosteriorMeanEstimator) -> float:
    """Likelihood average of the posterior variance at fixed theta0."""
    table = ghosh_table(bayes, m)
    weights = tally_pmf(bayes.model, theta0, m)
    return float(np.sum(table.variance * weights))
