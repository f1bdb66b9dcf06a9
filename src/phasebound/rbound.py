"""Bounds for a fluctuating true phase distributed as p(theta0).

Between records the true phase drifts according to a density p(theta0);
within one record of m shots it is fixed.  Risks are therefore outer
integrals over theta0 of the exact per-phase tally sums.

Two different risk functions carry two different bound families:

* the averaged mean square error is bounded by the Van Trees bound
  (1 over the prior-averaged Fisher information plus the prior's own Fisher
  information) and by the Ziv-Zakai bound (an integral of minimum
  error probabilities of binary hypothesis tests);
* the averaged estimator variance keeps its bias dependence and is bounded
  by the averaged Cramer-Rao bound and its Van Trees-style companion.

When the Bayesian prior coincides with the physical fluctuation density, the
marginal-averaged posterior variance equals the averaged MSE of the posterior
mean, so the same Van Trees and Ziv-Zakai bounds apply to it, and the
marginal-averaged Ghosh bound sits between them:
posterior variance >= aGBr >= VTB.

No ordering between the Van Trees and Ziv-Zakai bounds is asserted anywhere:
neither dominates the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bbound import ghosh_table
from .estimate import Estimator
from .fbound import check_chain
from .model import (
    GhzParityModel,
    ModelError,
    tally_pmf,
    tally_pmf_dtheta_matrix,
    tally_pmf_matrix,
)
from .numerics import (
    NonIntegrablePriorError,
    NumericalFailure,
    PriorDensity,
    QuadratureGrid,
    custom_prior,
    family45_prior,
    flat_prior,
    integrate,
    prior_fisher_information,
)

__all__ = [
    "HypothesisTestCell", "PriorDensity", "flat_prior", "family45_prior",
    "custom_prior", "avg_estimator_variance", "avg_mse",
    "van_trees", "pmin", "ziv_zakai",
    "acrlb", "fvtb", "estimator_chain_report", "agbr",
    "bayes_avg_posterior_variance", "bayes_chain_report", "tally_marginal",
    "EstimatorChainReport", "BayesChainReport",
]


@dataclass(frozen=True)
class HypothesisTestCell:
    """Minimum-error probability of one binary phase-discrimination test."""

    theta0: float
    h: float
    pmin: float
    empty: bool = False


# Simpson nodes of the theta0 grid of every outer integral.
_OUTER_NODES = 201
# Largest |integral of the prior on the theta0 grid - 1| that still resolves the prior.
_OUTER_MASS_TOL = 1e-10


def _outer_grid(prior: PriorDensity) -> tuple[QuadratureGrid, np.ndarray]:
    """The theta0 grid of every outer integral, and the prior density on it.

    Raises ``NumericalFailure`` when the grid cannot resolve the prior, that
    is when the density integrates to 1 only within more than 1e-10 on it
    (for the exponential-sine family from about alpha = 500 on 201 nodes);
    the bounds of such a prior would be off by that much or more.
    """
    g = QuadratureGrid.simpson(prior.domain.a, prior.domain.b, _OUTER_NODES)
    p = prior.density(g.nodes)
    mass = integrate(p, g)
    if not abs(mass - 1.0) <= _OUTER_MASS_TOL:
        raise NumericalFailure(
            f"the {g.node_count}-node theta0 grid does not resolve the prior "
            f"({_prior_name(prior)}): it holds prior mass {mass!r}, "
            f"off by more than {_OUTER_MASS_TOL:g}")
    return g, p


def _prior_name(prior: PriorDensity) -> str:
    return f"{prior.kind} prior" if prior.alpha is None else f"alpha={prior.alpha:g}"


def _cell(m: int, prior: PriorDensity) -> str:
    return f"m={m}, {_prior_name(prior)}"


def avg_estimator_variance(estimator: Estimator, prior_true: PriorDensity,
                           m: int, model: GhzParityModel) -> float:
    """Estimator variance averaged over the fluctuation density of theta0."""
    g, p = _outer_grid(prior_true)
    pmf = tally_pmf_matrix(model, m, g.nodes)
    v = estimator.values(m)
    means = v @ pmf
    var = ((v[:, None] - means[None, :]) ** 2 * pmf).sum(axis=0)
    return integrate(var * p, g)


def avg_mse(estimator: Estimator, prior_true: PriorDensity, m: int,
            model: GhzParityModel) -> float:
    """Mean square error averaged over the fluctuation density of theta0."""
    g, p = _outer_grid(prior_true)
    pmf = tally_pmf_matrix(model, m, g.nodes)
    v = estimator.values(m)
    mse = ((v[:, None] - g.nodes[None, :]) ** 2 * pmf).sum(axis=0)
    return integrate(mse * p, g)


def _require_vanishing_boundary(prior: PriorDensity, what: str):
    if not prior.vanishes_at_boundaries:
        raise NonIntegrablePriorError(
            f"{what} requires the fluctuation density to vanish at the domain "
            f"boundaries; the {prior.kind} prior does not")


def van_trees(prior_true: PriorDensity, m: int, model: GhzParityModel) -> float:
    """Van Trees bound 1 / (m <F> + J_prior) on the averaged mean square error.

    <F> is the Fisher information averaged over the fluctuation density (equal
    to N^2 here) and J_prior the prior's own Fisher information.  The
    derivation needs the density to vanish at the boundaries; a flat prior is
    rejected because its edge discontinuities make J_prior divergent.
    """
    if m < 1:
        raise ModelError("m must be >= 1")
    _require_vanishing_boundary(prior_true, "the Van Trees bound")
    avg_fisher = integrate(model.fisher_information(prior_true.grid.nodes)
                           * prior_true.values, prior_true.grid)
    j_prior = prior_fisher_information(prior_true)
    return 1.0 / (m * avg_fisher + j_prior)


def pmin(theta0: float, h: float, prior_true: PriorDensity, m: int,
         model: GhzParityModel) -> HypothesisTestCell:
    """Minimum error probability for discriminating theta0 from theta0 + h.

    The hypotheses are weighted by the fluctuation density (extended by zero
    outside the domain).  A cell whose two prior weights are both zero is
    flagged empty.  The value is the total-variation form
    1/2 (1 - sum_k |w0 p(k|theta0) - w1 p(k|theta0+h)|).
    """
    if not h > 0.0:
        raise ModelError("pmin requires h > 0")
    w0 = float(prior_true.density(theta0))
    w1 = float(prior_true.density(theta0 + h))
    total = w0 + w1
    if total == 0.0:
        return HypothesisTestCell(theta0=theta0, h=h, pmin=math.nan, empty=True)
    if w0 == 0.0 or w1 == 0.0:
        return HypothesisTestCell(theta0=theta0, h=h, pmin=0.0)
    w0, w1 = w0 / total, w1 / total
    p0 = tally_pmf(model, theta0, m)
    p1 = tally_pmf(model, theta0 + h, m)
    value = 0.5 * (1.0 - float(np.sum(np.abs(w0 * p0 - w1 * p1))))
    return HypothesisTestCell(theta0=theta0, h=h, pmin=min(max(value, 0.0), 0.5))


def ziv_zakai(prior_true: PriorDensity, m: int, model: GhzParityModel) -> float:
    """Ziv-Zakai bound on the averaged MSE from a continuum of binary tests.

    (1/2) integral over h in (0, b - a] of h times the theta0-integral of
    (p(theta0) + p(theta0 + h)) P_min(theta0, theta0 + h).  The theta0 axis is
    the outer grid every other theta0 integral uses, and the h axis has the
    same node spacing, so every shifted phase lands on that grid and the tally
    distributions are evaluated once.  The density is extended by zero outside
    the domain, which truncates the h range at the domain width; cells where
    either hypothesis has zero weight contribute nothing.

    P_min is taken in the total-variation form 1/2 (1 - sum_k |w0 p0 - w1 p1|),
    which cancels when P_min is small.  Against the cancellation-free
    sum_k min(w0 p0, w1 p1), the bound for alpha = 10 is off by 1.8e-12
    relative at m = 100 and 1.9e-10 at m = 5000 (at most 4e-14 for m <= 20
    and the priors of the tests).  Since the
    likelihood ratio of two tally distributions is monotone in k, the min
    form also follows from the two CDFs at the crossing tally, in
    O(n m + n^2) instead of O(n^2 m); that form matches the min-sum oracle to
    4e-16.  It is not used yet because the recorded reference outputs carry
    the cancellation error of this form and would have to be re-recorded.
    """
    if m < 1:
        raise ModelError("m must be >= 1")
    g, p = _outer_grid(prior_true)
    n, nodes, w_theta = g.node_count, g.nodes, g.weights
    pmf = tally_pmf_matrix(model, m, nodes)
    h_weights = QuadratureGrid.simpson(0.0, prior_true.domain.width, n).weights

    total = 0.0
    for i in range(1, n):
        h = nodes[i] - g.a
        shifted = np.zeros(n)
        shifted[:n - i] = p[i:]
        both = (p > 0.0) & (shifted > 0.0)
        if not np.any(both):
            continue
        idx = np.flatnonzero(both)
        s = p[idx] + shifted[idx]
        tv = np.abs((p[idx] / s) * pmf[:, idx]
                    - (shifted[idx] / s) * pmf[:, idx + i]).sum(axis=0)
        p_min = np.clip(0.5 * (1.0 - tv), 0.0, 0.5)
        inner = float(np.sum(w_theta[idx] * s * p_min))
        total += h_weights[i] * h * inner
    return max(0.5 * total, 0.0)


def acrlb(estimator: Estimator, prior_true: PriorDensity, m: int,
          model: GhzParityModel) -> float:
    """Averaged Cramer-Rao bound: integral of (d<est>/dtheta0)^2/(m F) p(theta0)."""
    g, p = _outer_grid(prior_true)
    bias_derivative = estimator.values(m) @ tally_pmf_dtheta_matrix(model, m, g.nodes)
    fisher = model.fisher_information(g.nodes)
    return integrate(bias_derivative**2 / (m * fisher) * p, g)


def fvtb(estimator: Estimator, prior_true: PriorDensity, m: int,
         model: GhzParityModel) -> float:
    """Van Trees-style bound on the averaged estimator variance (bias enters).

    (integral of d<est>/dtheta0 p)^2 over (m <F> + J_prior); same boundary
    condition as the Van Trees bound.
    """
    _require_vanishing_boundary(prior_true, "the variance Van Trees bound")
    g, p = _outer_grid(prior_true)
    bias_derivative = estimator.values(m) @ tally_pmf_dtheta_matrix(model, m, g.nodes)
    numerator = integrate(bias_derivative * p, g) ** 2
    avg_fisher = integrate(model.fisher_information(g.nodes) * p, g)
    j_prior = prior_fisher_information(prior_true)
    return numerator / (m * avg_fisher + j_prior)


@dataclass(frozen=True)
class EstimatorChainReport:
    """Averaged-variance chain: avg variance >= aCRLB >= fVTB."""

    avg_variance: float
    acrlb: float
    fvtb: float


def estimator_chain_report(estimator: Estimator, prior_true: PriorDensity, m: int,
                           model: GhzParityModel) -> EstimatorChainReport:
    """Evaluate and assert the averaged-variance bound chain."""
    report = EstimatorChainReport(
        avg_variance=avg_estimator_variance(estimator, prior_true, m, model),
        acrlb=acrlb(estimator, prior_true, m, model),
        fvtb=fvtb(estimator, prior_true, m, model),
    )
    check_chain([("avg_variance", report.avg_variance), ("acrlb", report.acrlb),
                 ("fvtb", report.fvtb)], _cell(m, prior_true))
    return report


def tally_marginal(prior_true: PriorDensity, m: int, model: GhzParityModel) -> np.ndarray:
    """Record distribution p(k) = integral of p(k|theta0) p(theta0) dtheta0."""
    g, p = _outer_grid(prior_true)
    return tally_pmf_matrix(model, m, g.nodes) @ (g.weights * p)


def _matched(prior_bayes: PriorDensity, prior_true: PriorDensity) -> bool:
    return prior_bayes is prior_true or (
        prior_bayes.grid is prior_true.grid
        and np.array_equal(prior_bayes.values, prior_true.values))


def agbr(prior_bayes: PriorDensity, prior_true: PriorDensity, m: int,
         model: GhzParityModel) -> float:
    """Averaged Ghosh bound for a random phase: sum_k GB(k) p(k).

    The Bayesian prior behind the posteriors may differ from the physical
    fluctuation density.  When they coincide and the boundary terms vanish,
    the value comes from ``bayes_chain_report``, which asserts the chain
    posterior variance >= aGBr >= VTB.
    """
    if _matched(prior_bayes, prior_true) and prior_bayes.vanishes_at_boundaries:
        return bayes_chain_report(prior_bayes, m, model).agbr
    table = ghosh_table(prior_bayes, m, model)
    return float(np.sum(table.ghosh * tally_marginal(prior_true, m, model)))


def bayes_avg_posterior_variance(prior_bayes: PriorDensity, prior_true: PriorDensity,
                                 m: int, model: GhzParityModel) -> float:
    """Posterior variance averaged over the record distribution of a random phase.

    With matched priors this equals the joint-density average of
    (theta - theta_BL(record))^2, the Bayesian analogue of the averaged MSE.
    For m = 0 it reduces to the prior variance.
    """
    if m == 0:
        return prior_bayes.variance()
    table = ghosh_table(prior_bayes, m, model)
    weights = tally_marginal(prior_true, m, model)
    return float(np.sum(table.variance * weights))


@dataclass(frozen=True)
class BayesChainReport:
    """Matched-prior chain: averaged posterior variance >= aGBr >= VTB."""

    bayes_variance: float
    agbr: float
    van_trees: float


def bayes_chain_report(prior: PriorDensity, m: int, model: GhzParityModel) -> BayesChainReport:
    """Evaluate and assert the matched-prior Bayesian bound chain."""
    table = ghosh_table(prior, m, model)
    weights = tally_marginal(prior, m, model)
    report = BayesChainReport(
        bayes_variance=float(np.sum(table.variance * weights)),
        agbr=float(np.sum(table.ghosh * weights)),
        van_trees=van_trees(prior, m, model),
    )
    check_chain([("bayes_variance", report.bayes_variance), ("agbr", report.agbr),
                 ("van_trees", report.van_trees)], _cell(m, prior))
    return report
