"""Test-only oracles that cross-check the package's exact sums.

None of these is used by the command-line program.  Each computes a quantity
the package also computes, by an independent route:

* ``expect_over_tallies`` - the expectation of f(tally) as a Python loop over
  the m+1 tallies, against the package's vectorised sums;
* a splitmix64 sampler (``SeededSampler``, ``sample_tally``,
  ``sample_tallies``, ``derive_seed``) for Monte Carlo checks of those sums;
* ``decision_rule_error_probability`` - the error probability of the optimal
  likelihood-ratio test, tally by tally, against ``rbound.pmin``;
* ``lbvm_reference`` - the Gaussian (Bernstein-von Mises) reference posterior
  that saturates the Ghosh bound.

PRNG: splitmix64.  The state advances by the 64-bit golden-ratio increment
0x9E3779B97F4A7C15 and each output is finalised with the standard two-round
xor-multiply mix; uniforms are the top 53 bits scaled by 2^-53.  Identical
seeds give identical draw sequences on every platform, and ``derive_seed``
produces decorrelated per-task seeds.
"""

from __future__ import annotations

import math

import numpy as np

from phasebound.engine import OutcomeTally, expect_values_over_tallies
from phasebound.estimate import Posterior
from phasebound.model import GhzParityModel, ModelError, PhaseDomain, tally_pmf, tally_probability
from phasebound.numerics import NumericalFailure, PriorDensity, QuadratureGrid, integrate

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def expect_over_tallies(f, theta0: float, m: int, model: GhzParityModel) -> float:
    """Exact expectation of f(tally) over records of m shots at phase theta0."""
    values = np.array([f(OutcomeTally(k, m)) for k in range(m + 1)], dtype=float)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NumericalFailure(f"f produced a non-finite value at tally k={bad}")
    return expect_values_over_tallies(values, theta0, m, model)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def derive_seed(seed: int, task_index: int) -> int:
    """Decorrelated child seed for parallel task ``task_index``."""
    state = (seed + (task_index + 1) * _GAMMA) & _MASK64
    return int(_mix64(np.array([state], dtype=np.uint64))[0])


class SeededSampler:
    """splitmix64 uniform source; single-owner, draw index advances monotonically."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self.counter = 0

    def uniforms(self, count: int) -> np.ndarray:
        """Next ``count`` uniforms in [0, 1), each from one splitmix64 output."""
        if count < 0:
            raise ModelError("count must be nonnegative")
        idx = np.arange(self.counter + 1, self.counter + count + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            states = np.uint64(self.seed) + idx * np.uint64(_GAMMA)
            out = _mix64(states)
        self.counter += count
        return (out >> np.uint64(11)).astype(np.float64) * 2.0**-53


def sample_tally(sampler: SeededSampler, theta0: float, m: int,
                 model: GhzParityModel) -> OutcomeTally:
    """One Binomial(m, p_plus(theta0)) tally drawn by inverse CDF."""
    k = sample_tallies(sampler, theta0, m, model, 1)[0]
    return OutcomeTally(int(k), m)


def sample_tallies(sampler: SeededSampler, theta0: float, m: int,
                   model: GhzParityModel, count: int) -> np.ndarray:
    """``count`` independent tallies; one uniform consumed per draw."""
    if m < 1:
        raise ModelError("sampling requires m >= 1")
    cdf = np.cumsum(tally_pmf(model, theta0, m))
    u = sampler.uniforms(count)
    return np.minimum(np.searchsorted(cdf, u, side="right"), m).astype(np.int64)


def decision_rule_error_probability(theta0: float, h: float, prior_true: PriorDensity,
                                    m: int, model: GhzParityModel) -> float:
    """Error probability of the optimal likelihood-ratio test, simulated tally by tally.

    Independent reference for ``pmin``: for each tally the rule compares the
    weighted likelihoods and picks the larger; the accumulated probability of
    deciding wrongly equals the minimum error probability.
    """
    if not h > 0.0:
        raise ModelError("h must be > 0")
    w0 = float(prior_true.density(theta0))
    w1 = float(prior_true.density(theta0 + h))
    total = w0 + w1
    if total == 0.0:
        return math.nan
    w0, w1 = w0 / total, w1 / total
    error = 0.0
    for k in range(m + 1):
        like0 = tally_probability(model, theta0, m, k)
        like1 = tally_probability(model, theta0 + h, m, k)
        if w0 * like0 > w1 * like1:
            error += w1 * like1      # rule picks hypothesis 0; wrong when 1 holds
        else:
            error += w0 * like0      # rule picks hypothesis 1; wrong when 0 holds
    return error


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
