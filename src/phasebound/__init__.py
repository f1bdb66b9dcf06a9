"""Frequentist and Bayesian phase-estimation risks and their lower bounds.

The package evaluates, for a binary-outcome interferometric likelihood
(an N-qubit GHZ probe with parity readout):

* exact frequentist risks of maximum-likelihood and Bayesian estimators,
  with the full Barankin / extended-Chapman-Robbins / Chapman-Robbins /
  Cramer-Rao bound hierarchy (``fbound``);
* Bayesian posterior variances and the Ghosh bound family (``bbound``);
* averaged risks and bounds for a randomly fluctuating phase: Van Trees,
  Ziv-Zakai, averaged Cramer-Rao, and the averaged Ghosh bound (``rbound``);
* a quadrature/optimisation kernel and the prior families (``numerics``),
  exact tally expectations (``engine``), and a CSV command-line harness
  (``cli``).
"""

__version__ = "0.1.0"

from .bbound import averaged_ghosh, averaged_posterior_variance, ghosh_table
from .estimate import (
    Estimator,
    MaximumLikelihoodEstimator,
    PosteriorMeanEstimator,
    RiskReport,
    frequentist_risk,
)
from .fbound import (
    BoundReport,
    HierarchyViolationError,
    barankin,
    barankin_at,
    chrb,
    chrb_block,
    chrb_objective,
    crlb,
    echrb,
    echrb_block,
    hierarchy_report,
)
from .model import GhzParityModel, PhaseDomain
from .numerics import (
    NumericalFailure,
    PriorDensity,
    QuadratureGrid,
    custom_prior,
    family45_prior,
    flat_prior,
    integrate,
    maximize_1d,
    prior_fisher_information,
    solve_spd,
    solve_spd_stack,
)
from .rbound import (
    acrlb,
    avg_estimator_variance,
    avg_mse,
    bayes_chain_report,
    estimator_chain_report,
    fvtb,
    tally_marginal,
    van_trees,
    ziv_zakai,
)
