"""Bayesian lower bounds on the posterior variance at a fixed true phase.

The Ghosh bound dominates the posterior variance for each individual record:

    (f - 1)^2 / J_post <= Var_post,

where J_post is the Fisher information of the posterior density itself and
f is a boundary term built from the posterior values at the domain endpoints
(it vanishes whenever the prior vanishes there).  Averaging the per-record
bound over the likelihood gives a record-independent bound on the average
posterior variance.  That average, and the averaged posterior variance it
bounds, weigh with the tally column at theta0 (``engine.tally_column``, built
once per (theta0, m) and shared with the frequentist risk there).

Asymptotically the posterior approaches a Gaussian centred at the true phase
with variance 1/(m F) (Laplace-Bernstein-von Mises); on that reference
density the Ghosh bound is saturated, which is the regime where Bayesian and
frequentist error bars agree.
"""

from __future__ import annotations

from .engine import expect_values_over_tallies, tally_column
from .estimate import GhoshTable, PosteriorMeanEstimator
from .numerics import NumericalFailure


class NonIntegrablePosteriorError(NumericalFailure):
    """The posterior Fisher information diverges (zero density, nonzero slope)."""


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
    failures propagate with the offending tally named.  The column
    p(. | theta0) is ``tally_column``'s, shared with the other sums at
    (theta0, m).
    """
    return expect_values_over_tallies(ghosh_table(bayes, m).ghosh,
                                      tally_column(theta0, m, bayes.model))


def averaged_posterior_variance(theta0: float, m: int, bayes: PosteriorMeanEstimator) -> float:
    """Likelihood average of the posterior variance at fixed theta0 (column as above)."""
    return expect_values_over_tallies(ghosh_table(bayes, m).variance,
                                      tally_column(theta0, m, bayes.model))
