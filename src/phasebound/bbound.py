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

import math
from dataclasses import dataclass

import numpy as np

from .estimate import Posterior, posterior_table
from .model import GhzParityModel, ModelError, PhaseDomain, tally_pmf
from .numerics import (
    DEFAULTS,
    NonIntegrablePriorError,
    NumericalFailure,
    PriorDensity,
    QuadratureGrid,
    Tolerances,
    fisher_information_of_density,
    integrate,
)


class NonIntegrablePosteriorError(NumericalFailure):
    """The posterior Fisher information diverges (zero density, nonzero slope)."""


@dataclass(frozen=True)
class GhoshInputs:
    """Posterior, estimate, and domain entering one Ghosh bound evaluation."""

    posterior: Posterior
    theta_bl: float
    domain: PhaseDomain

    def __post_init__(self):
        if not self.domain.contains(self.theta_bl):
            raise ModelError(f"theta_bl={self.theta_bl} outside the phase domain")


def boundary_term(inputs: GhoshInputs) -> float:
    """f = b p(b) - a p(a) - theta_bl (p(b) - p(a)) from posterior boundary values."""
    pa, pb = inputs.posterior.boundary_values
    a, b = inputs.domain.a, inputs.domain.b
    return b * pb - a * pa - inputs.theta_bl * (pb - pa)


def posterior_fisher_information(post: Posterior, tol: Tolerances = DEFAULTS) -> float:
    """Integral of (dp_post/dtheta)^2 / p_post over the phase domain.

    Nodes where the density vanishes contribute nothing when the derivative
    vanishes with it (up to rounding noise); a genuine zero with nonzero slope
    makes the integral divergent and raises.
    """
    try:
        return fisher_information_of_density(post.density, post.density_derivative,
                                             post.grid, tol=tol, what="posterior")
    except NonIntegrablePriorError as exc:
        raise NonIntegrablePosteriorError(str(exc)) from exc


def ghosh_bound(inputs: GhoshInputs, tol: Tolerances = DEFAULTS) -> float:
    """Ghosh lower bound (f - 1)^2 / J_post on the posterior variance."""
    f = boundary_term(inputs)
    j = posterior_fisher_information(inputs.posterior, tol=tol)
    num = (f - 1.0) ** 2
    if j <= 0.0:
        # a constant posterior has f = 1 exactly; the bound degenerates to 0
        if num <= 1e-18:
            return 0.0
        raise NonIntegrablePosteriorError("zero posterior information with nonzero numerator")
    return num / j


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


def posterior_summary(prior: PriorDensity, m: int, model: GhzParityModel,
                      tol: Tolerances = DEFAULTS) -> GhoshTable:
    """Per-tally posterior summary for all tallies k = 0..m.

    The posterior-mean estimator and ``ghosh_table`` both read it, so the
    posterior table is built once per (prior, m) rather than once per
    consumer.  It is built in blocks of tallies of at most ``_BLOCK_CELLS``
    cells each (131 rows on 2001 nodes), and every returned quantity is one
    number per tally, so memory stays O(block x nodes) however large m is.
    The result is memoised in the prior's single ``posterior_slot``, keyed by
    (m, model, tol); the slot holds only the summary's length-(m+1) vectors.
    The slot is replaced by one store of a (key, summary) tuple, so a
    concurrent caller can only miss it, never read a summary of another key.

    A Ghosh-validity failure is recorded in ``failure`` instead of raised, so
    the posterior means stay available for priors whose Ghosh bound is
    undefined.
    """
    key = (m, model, tol)
    entry = prior.posterior_slot[0]
    if entry is not None and entry[0] == key:
        return entry[1]
    table = _summarise(prior, m, model, tol)
    prior.posterior_slot[0] = (key, table)
    return table


# Cells (rows x nodes) of one block of the posterior table: 2 MB per float64 array.
_BLOCK_CELLS = 1 << 18


def _summarise(prior: PriorDensity, m: int, model: GhzParityModel,
               tol: Tolerances) -> GhoshTable:
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
            floor = tol.derivative_noise_rel * np.max(np.abs(ddens), axis=1, keepdims=True)
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


def ghosh_table(prior: PriorDensity, m: int, model: GhzParityModel,
                tol: Tolerances = DEFAULTS) -> GhoshTable:
    """Vectorised Ghosh bound components for all tallies k = 0..m at once.

    Returns the memoised ``posterior_summary``, or raises its Ghosh-validity
    failure as ``NonIntegrablePosteriorError``.
    """
    table = posterior_summary(prior, m, model, tol=tol)
    if table.failure is not None:
        raise NonIntegrablePosteriorError(table.failure)
    return table


def averaged_ghosh(theta0: float, m: int, model: GhzParityModel, prior: PriorDensity,
                   tol: Tolerances = DEFAULTS) -> float:
    """Likelihood-averaged Ghosh bound: sum_k GB(k) p(k | theta0).

    Lower-bounds the likelihood-averaged posterior variance; per-tally
    failures propagate with the offending tally named.
    """
    table = ghosh_table(prior, m, model, tol=tol)
    weights = tally_pmf(model, theta0, m)
    return float(np.sum(table.ghosh * weights))


def averaged_posterior_variance(theta0: float, m: int, model: GhzParityModel,
                                prior: PriorDensity, tol: Tolerances = DEFAULTS) -> float:
    """Likelihood average of the posterior variance at fixed theta0."""
    table = ghosh_table(prior, m, model, tol=tol)
    weights = tally_pmf(model, theta0, m)
    return float(np.sum(table.variance * weights))


def lbvm_reference(theta0: float, m: int, model: GhzParityModel,
                   grid: QuadratureGrid | None = None) -> Posterior:
    """Gaussian reference posterior: mean theta0, variance 1/(m F), renormalised.

    This is the large-m limit shape of the true posterior; the returned object
    carries the analytic density derivative so it can feed the Ghosh bound,
    which it saturates.
    """
    if m < 1:
        raise ModelError("m must be >= 1")
    grid = grid or QuadratureGrid.simpson(PhaseDomain().a, PhaseDomain().b)
    fisher = float(model.fisher_information(theta0))
    scale = m * fisher
    density = np.exp(-0.5 * scale * (grid.nodes - theta0) ** 2)
    norm = integrate(density, grid)
    if norm <= 0.0:
        raise NumericalFailure("reference posterior underflowed on the grid")
    density = density / norm
    derivative = -scale * (grid.nodes - theta0) * density
    density.flags.writeable = False
    derivative.flags.writeable = False
    return Posterior(grid=grid, density=density, density_derivative=derivative,
                     tally=None, marginal=math.nan)
