"""Test-only oracles that cross-check the package's exact sums.

None of these is used by the command-line program.  Each computes a quantity
the package also computes, by an independent route:

* ``expect_over_tallies`` - the expectation of f(tally) as a Python loop over
  the m+1 tallies, each passed as an ``OutcomeTally``, against the package's
  vectorised sums;
* a splitmix64 sampler (``SeededSampler``, ``sample_tally``,
  ``sample_tallies``, ``derive_seed``) for Monte Carlo checks of those sums;
* ``decision_rule_error_probability`` - the error probability of the optimal
  likelihood-ratio test, tally by tally from ``scipy_tally_probability``,
  against the P_min of Ziv-Zakai's test pairs (``rbound._pmin_columns``);
* ``ziv_zakai_shift_loop`` - the Ziv-Zakai bound as a loop over shifts that
  sums |w0 p0 - w1 p1| over every tally, against ``rbound.ziv_zakai``;
* ``triu_shift_pairs`` and ``ziv_zakai_triu`` - the test pairs ordered by
  sorting ``np.triu_indices`` on the shift, and the Ziv-Zakai bound on them
  with a bisection that indexes the pmf and CDF matrices by (row, column)
  arrays, as the package computed both before the pairs were built in
  order and the search moved onto flat indices and reused buffers; against
  ``rbound._shift_pairs`` and ``rbound.ziv_zakai`` with ``==``;
* ``pmin_bisection`` and ``ziv_zakai_bisection`` - P_min of many test
  pairs with every crossing tally found by bisection on the whole
  (m+2)-row table of a zero row above the pmf and its column CDFs, and the
  Ziv-Zakai bound on it, as the package computed them before the crossings
  came from their closed form and the CDFs were accumulated over blocks of
  rows; against ``rbound._pmin_columns`` and ``rbound.ziv_zakai`` with
  ``==``;
* ``whole_matrix_marginal``, ``whole_matrix_avg_variance`` and
  ``whole_matrix_avg_mse`` - the tally marginal and the averaged risks from
  one whole (m+1) x 201 pmf, as the package computed them before it
  streamed them through blocks of rows or phases; against
  ``rbound.tally_marginal``, ``rbound.avg_estimator_variance`` and
  ``rbound.avg_mse`` with ``==`` (gemv sums a whole matrix's rows in lanes
  that depend on the OpenBLAS thread count from about 2600 rows on, so
  larger m are compared with one BLAS thread);
* ``full_width_posterior_summary`` (with ``full_width_posterior_table``) -
  the per-tally posterior summary with every pass over whole rows of the
  grid, as it was before the passes were trimmed to each block's nonzero
  column window, on the scipy pmf, in blocks of 64 tallies of its own,
  whose gemv sums are the whole table's, and its slope check over every
  cell; against ``estimate.posterior_summary``, field for field with ``==``;
* ``full_width_pmf_with_dtheta`` and ``score_pmf_derivative`` - the pmf
  and its derivative by Pascal's rule on the scipy B_(m-1), as the summary
  derived them before it took the closed-form score, and the scipy pmf with
  its derivative by that score; against each other and against
  ``model.tally_pmf_matrix`` and ``tally_pmf_dtheta_matrix``;
* ``likelihood_span`` - the aligned span of phases outside of which a
  block of pmf rows is exactly 0, as ``model._likelihood_windows`` found it
  beside the window before it returned the window alone; against the
  windows the posterior summary hands its blocks and the pmf's zeros;
* ``lbvm_reference`` - the Gaussian (Bernstein-von Mises) reference posterior
  that saturates the Ghosh bound, returned as a prior so that the posterior
  summary at m = 0 evaluates it;
* ``fisher_information_from_table`` (raising ``SingularModelError``) - the
  Fisher information as the direct sum over outcomes, against the reduced
  form N^2 of ``GhzParityModel.fisher_information``;
* ``bias_derivative_fd`` - the estimator-mean derivative by central finite
  differences, against the analytic one of ``frequentist_risk``;
* ``ConstantEstimator`` - an estimator that ignores the data, a degenerate
  test double with zero variance and zero bias derivative;
* ``scalar_maximize_1d`` - one supremum search with scalar golden-section
  steps, and ``scalar_chrb`` and ``scalar_echrb``, the ChRB and EChRB
  searches of one m at a time, as the package ran them before its searches
  were stepped in lock-step over a block of m; against ``chrb_block`` and
  ``echrb_block`` with ``==``;
* ``scipy_log_binomial``, ``scipy_tally_probability``,
  ``scipy_tally_pmf_matrix`` and ``scipy_tally_pmf_dtheta_matrix`` - the
  tally kernels written with ``scipy.special.gammaln`` and ``xlogy``, the
  formulas the recorded references were computed with, against which the
  package's log n! table and per-node logs must agree bit for bit.

PRNG: splitmix64.  The state advances by the 64-bit golden-ratio increment
0x9E3779B97F4A7C15 and each output is finalised with the standard two-round
xor-multiply mix; uniforms are the top 53 bits scaled by 2^-53.  Identical
seeds give identical draw sequences on every platform, and ``derive_seed``
produces decorrelated per-task seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from phasebound.engine import expect_values_over_tallies, tally_column
from phasebound.estimate import DegeneratePosteriorError, Estimator, GhoshTable
from phasebound.fbound import (
    _CHRB_COARSE,
    _ECHRB_GRID,
    _ECHRB_REFINE_ROUNDS,
    _chrb_value,
    _echrb_grid_eval,
    _single_shot_probs,
)
from phasebound.model import (
    GhzParityModel,
    ModelError,
    PhaseDomain,
    _aligned,
    _grid_logs,
    _live_span,
    _row_bounds,
    tally_pmf_matrix,
)
from phasebound.numerics import (
    _GOLDEN_REL_TOL,
    DERIVATIVE_NOISE_REL,
    NumericalFailure,
    PriorDensity,
    QuadratureGrid,
    custom_prior,
)
from phasebound.rbound import _outer_grid, _shift_pairs

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


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


def expect_over_tallies(f, theta0: float, m: int, model: GhzParityModel) -> float:
    """Exact expectation of f(tally) over records of m shots at phase theta0."""
    values = np.array([f(OutcomeTally(k, m)) for k in range(m + 1)], dtype=float)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NumericalFailure(f"f produced a non-finite value at tally k={bad}")
    return expect_values_over_tallies(values, tally_column(theta0, m, model))


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
    cdf = np.cumsum(scipy_tally_probability(model, float(theta0), m, np.arange(m + 1)))
    u = sampler.uniforms(count)
    return np.minimum(np.searchsorted(cdf, u, side="right"), m).astype(np.int64)


def decision_rule_error_probability(theta0: float, h: float, prior_true: PriorDensity,
                                    m: int, model: GhzParityModel) -> float:
    """Error probability of the optimal likelihood-ratio test, simulated tally by tally.

    Independent reference for P_min: for each tally the rule compares the
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
        like0 = scipy_tally_probability(model, theta0, m, k)
        like1 = scipy_tally_probability(model, theta0 + h, m, k)
        if w0 * like0 > w1 * like1:
            error += w1 * like1      # rule picks hypothesis 0; wrong when 1 holds
        else:
            error += w0 * like0      # rule picks hypothesis 1; wrong when 0 holds
    return error


def ziv_zakai_shift_loop(prior_true: PriorDensity, m: int, model: GhzParityModel) -> float:
    """Ziv-Zakai bound with P_min = 1/2 (1 - sum_k |w0 p0 - w1 p1|), one shift at a time.

    Same outer grid, shift axis and total-variation form as ``rbound.ziv_zakai``,
    but every test pair sums its tallies directly, in O(n^2 m).
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


def triu_shift_pairs(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Node pairs i < j with both weights positive, by a stable sort of the upper triangle on j - i.

    Returns ``(first, second, shifts, starts)`` like ``rbound._shift_pairs``.
    """
    first, second = np.triu_indices(p.size, 1)
    order = np.argsort(second - first, kind="stable")
    first, second = first[order], second[order]
    keep = (p[first] > 0.0) & (p[second] > 0.0)
    first, second = first[keep], second[keep]
    shifts, starts = np.unique(second - first, return_index=True)
    return first, second, shifts, starts


def ziv_zakai_triu(prior_true: PriorDensity, m: int, model: GhzParityModel) -> float:
    """Ziv-Zakai bound on the ``triu_shift_pairs``, every pair's crossing tally by bisection.

    The same operations as ``rbound.ziv_zakai``, with the pmf and its column
    CDFs in separate matrices read at (row, column) index arrays, and new
    pair arrays at every step.
    """
    g, p = _outer_grid(prior_true)
    n, nodes = g.node_count, g.nodes
    first, second, shifts, starts = triu_shift_pairs(p)
    s = p[first] + p[second]
    a, b, p_plus = p[first] / s, p[second] / s, model.prob_plus(nodes)
    pmf = tally_pmf_matrix(model, m, nodes)
    rows = pmf.shape[0]
    cdf = np.zeros((rows + 1, n))
    np.cumsum(pmf, axis=0, out=cdf[1:])
    nonzero = pmf > 0.0
    start = nonzero.argmax(axis=0)
    stop = rows - nonzero[::-1].argmax(axis=0)
    lo = np.minimum(start[first], start[second])
    hi = np.maximum(stop[first], stop[second])
    down = p_plus[second] < p_plus[first]
    active = lo < hi
    while active.any():
        mid = np.minimum((lo + hi) // 2, rows - 1)
        hit = (a * pmf[mid, first] >= b * pmf[mid, second]) == down
        hi = np.where(active & hit, mid, hi)
        lo = np.where(active & ~hit, mid + 1, lo)
        active = lo < hi
    d_end = a * cdf[-1, first] - b * cdf[-1, second]
    tv = d_end - 2.0 * (a * cdf[lo, first] - b * cdf[lo, second])
    p_min = np.clip(0.5 * (1.0 - np.where(down, tv, -tv)), 0.0, 0.5)
    inner = np.add.reduceat(g.weights[first] * s * p_min, starts)
    h_weights = QuadratureGrid.simpson(0.0, prior_true.domain.width, n).weights
    total = float(np.sum(h_weights[shifts] * (nodes[shifts] - g.a) * inner))
    return max(0.5 * total, 0.0)


def pmin_bisection(pmf: np.ndarray, first: np.ndarray, second: np.ndarray, a: np.ndarray,
                   b: np.ndarray, p_plus: np.ndarray) -> np.ndarray:
    """P_min = 1/2 (1 - TV) of the weighted column pairs of ``pmf``, crossings by bisection.

    Each pair's crossing tally is the first k of the union [lo, hi) of the
    two columns' supports where a pmf[k, first] >= b pmf[k, second] agrees
    with the orientation p_plus[second] < p_plus[first] (hi if none),
    bisected on the whole table; TV = D(m+1) - 2 D(k*) from the column CDFs,
    negated where the second column lies higher.
    """
    rows = pmf.shape[0]
    table = np.zeros((rows + 1, pmf.shape[1]))
    table[1:] = pmf
    nonzero = pmf > 0.0
    start = nonzero.argmax(axis=0)
    stop = rows - nonzero[::-1].argmax(axis=0)
    lo = np.minimum(start[first], start[second])
    hi = np.maximum(stop[first], stop[second])
    down = p_plus[second] < p_plus[first]
    active = lo < hi
    while active.any():
        mid = np.minimum((lo + hi) >> 1, rows - 1)
        hit = (pmf[mid, first] * a >= pmf[mid, second] * b) == down
        hi = np.where(active & hit, mid, hi)
        lo = np.where(active & ~hit, mid + 1, lo)
        active = lo < hi
    cdf = np.cumsum(table, axis=0)
    tv = (cdf[rows, first] * a - cdf[rows, second] * b) \
        - (cdf[lo, first] * a - cdf[lo, second] * b) * 2.0
    tv = np.where(down, tv, -tv)
    return np.clip((1.0 - tv) * 0.5, 0.0, 0.5)


def ziv_zakai_bisection(prior_true: PriorDensity, m: int, model: GhzParityModel) -> float:
    """Ziv-Zakai bound on the ``rbound._shift_pairs``, P_min by ``pmin_bisection``."""
    g, p = _outer_grid(prior_true)
    n, nodes = g.node_count, g.nodes
    first, second, shifts, starts = _shift_pairs(p)
    s = p[first] + p[second]
    p_min = pmin_bisection(tally_pmf_matrix(model, m, nodes), first, second, p[first] / s,
                           p[second] / s, model.prob_plus(nodes))
    inner = np.add.reduceat(g.weights[first] * s * p_min, starts)
    h_weights = QuadratureGrid.simpson(0.0, prior_true.domain.width, n).weights
    total = float(np.sum(h_weights[shifts] * (nodes[shifts] - g.a) * inner))
    return max(0.5 * total, 0.0)


def whole_matrix_marginal(prior_true: PriorDensity, m: int, model: GhzParityModel) -> np.ndarray:
    """The tally marginal as one product of the whole pmf with the theta0 weights."""
    g, p = _outer_grid(prior_true)
    return tally_pmf_matrix(model, m, g.nodes) @ (g.weights * p)


def whole_matrix_avg_variance(estimator: Estimator, prior_true: PriorDensity, m: int,
                              model: GhzParityModel) -> float:
    """The averaged estimator variance from the whole pmf."""
    g, p = _outer_grid(prior_true)
    pmf = tally_pmf_matrix(model, m, g.nodes)
    v = estimator.values(m)
    var = ((v[:, None] - (v @ pmf)[None, :]) ** 2 * pmf).sum(axis=0)
    return float(np.sum(g.weights * (var * p)))


def whole_matrix_avg_mse(estimator: Estimator, prior_true: PriorDensity, m: int,
                         model: GhzParityModel) -> float:
    """The averaged mean square error from the whole pmf."""
    g, p = _outer_grid(prior_true)
    pmf = tally_pmf_matrix(model, m, g.nodes)
    mse = ((estimator.values(m)[:, None] - g.nodes[None, :]) ** 2 * pmf).sum(axis=0)
    return float(np.sum(g.weights * (mse * p)))


def full_width_pmf_with_dtheta(model: GhzParityModel, m: int, thetas, k0: int = 0,
                               k1: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Tally pmf and its d/dtheta for k0 <= k < k1 by Pascal's rule on whole rows of B_(m-1).

    pmf(k) = p_+ B(k-1) + p_- B(k) and dpmf(k) = m p_+' [B(k-1) - B(k)], with
    B = the scipy pmf of m - 1 shots: a route to both arrays independent of
    the log-domain kernel and of the closed-form score.
    """
    thetas = np.asarray(thetas, dtype=float)
    k1 = m + 1 if k1 is None else k1
    if m == 0:
        return np.ones((1, thetas.size)), np.zeros((1, thetas.size))
    lo = max(k0 - 1, 0)
    prev = scipy_tally_pmf_matrix(model, m - 1, thetas, lo, min(k1, m))
    pp = model.prob_plus(thetas)
    rows = k1 - k0
    top = min(k1, m) - k0
    s = int(k0 == 0)
    off = k0 - lo
    pmf = np.empty((rows, thetas.size))
    dpmf = np.empty_like(pmf)
    np.multiply(prev[off:off + top], 1.0 - pp, out=pmf[:top])
    pmf[top:] = 0.0
    np.multiply(prev[off + s - 1:off + rows - 1], pp, out=dpmf[s:])
    pmf[s:] += dpmf[s:]
    if s:
        np.negative(prev[0], out=dpmf[0])
    np.subtract(prev[off + s - 1:off + top - 1], prev[off + s:off + top], out=dpmf[s:top])
    if top < rows:
        dpmf[top] = prev[off + top - 1]
    dpmf *= m * model.dprob_dtheta(thetas)
    return pmf, dpmf


def score_pmf_derivative(model: GhzParityModel, m: int, thetas, k0: int = 0,
                         k1: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The scipy tally pmf for k0 <= k < k1 and its d/dtheta by the closed-form score.

    dpmf(k) = pmf(k) c (k - m p_+) with c = p_+' / (p_+ p_-), and c = 0
    where p_+ p_- = 0, as the posterior summary weighs the pmf.
    """
    thetas = np.asarray(thetas, dtype=float)
    k1 = m + 1 if k1 is None else k1
    pmf = scipy_tally_pmf_matrix(model, m, thetas, k0, k1)
    k = np.arange(k0, k1, dtype=float)
    return pmf, pmf * (_score_factor(model, thetas) * (k[:, None] - m * model.prob_plus(thetas)))


def _score_factor(model: GhzParityModel, thetas: np.ndarray) -> np.ndarray:
    """p_+' / (p_+ p_-) at every phase, 0 where p_+ p_- = 0."""
    pp = model.prob_plus(thetas)
    both = pp * (1.0 - pp)
    return np.where(both == 0.0, 0.0,
                    model.dprob_dtheta(thetas) / np.where(both == 0.0, 1.0, both))


def full_width_posterior_table(prior: PriorDensity, m: int, model: GhzParityModel, k0: int = 0,
                               k1: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalised posterior densities, pmf and marginals of tallies k0..k1-1, on whole rows."""
    grid = prior.grid
    pmf = scipy_tally_pmf_matrix(model, m, grid.nodes, k0, k1)
    density = pmf * prior.values
    marginal = density @ grid.weights
    bad = ~(np.isfinite(marginal) & (marginal > 0.0))
    if np.any(bad):
        k_bad = k0 + int(np.flatnonzero(bad)[0])
        raise DegeneratePosteriorError(
            f"posterior normalisation underflowed for tally k={k_bad}, m={m}, {prior.name}, "
            f"{grid.node_count}-node grid")
    density /= marginal[:, None]
    return density, pmf, marginal


# Rows of the whole-row summary's blocks: a multiple of 16, so that each row's matrix-vector
# sums are those of one gemv over the whole table whatever blocks the package takes.
_FULL_WIDTH_ROWS = 64


def full_width_posterior_summary(prior: PriorDensity, m: int, model: GhzParityModel) -> GhoshTable:
    """Per-tally posterior summary in blocks of 64 tallies, every pass on whole rows.

    The information is sum_j w_j dens score^2, with the posterior's score
    k c + pi'/pi - m p_+ c (c as in ``score_pmf_derivative``, pi'/pi = 0
    where pi = 0); the slope is dens score, and pmf pi' / p_mar(k) where
    pi = 0.
    """
    grid = prior.grid
    nodes, w = grid.nodes, grid.weights
    a, b = grid.a, grid.b
    c = _score_factor(model, nodes)
    zero_prior = prior.values == 0.0
    prior_score = np.where(zero_prior, 0.0,
                           prior.derivative / np.where(zero_prior, 1.0, prior.values))
    e = prior_score - m * model.prob_plus(nodes) * c
    rows = _FULL_WIDTH_ROWS
    marginal, means, variance, boundary, information = (np.empty(m + 1) for _ in range(5))
    failure = None
    for k0 in range(0, m + 1, rows):
        k1 = min(k0 + rows, m + 1)
        dens, pmf, marginal[k0:k1] = full_width_posterior_table(prior, m, model, k0, k1)
        mean = means[k0:k1] = (dens * nodes) @ w
        variance[k0:k1] = ((nodes[None, :] - mean[:, None]) ** 2 * dens) @ w
        score = np.arange(k0, k1, dtype=float)[:, None] * c + e
        information[k0:k1] = (score**2 * dens) @ w
        boundary[k0:k1] = b * dens[:, -1] - a * dens[:, 0] - mean * (dens[:, -1] - dens[:, 0])

        slope = np.where(zero_prior, pmf * prior.derivative / marginal[k0:k1, None], dens * score)
        zero = dens == 0.0
        if failure is None and np.any(zero):
            floor = DERIVATIVE_NOISE_REL * np.max(np.abs(slope), axis=1, keepdims=True)
            bad = zero & (np.abs(slope) > floor)
            if np.any(bad):
                k_bad = k0 + int(np.flatnonzero(np.any(bad, axis=1))[0])
                failure = (f"posterior has a zero with nonzero slope at tally k={k_bad}, "
                           f"m={m}, {prior.name}, {grid.node_count}-node grid")

    num = (boundary - 1.0) ** 2
    degenerate = information <= 0.0
    undefined = degenerate & (num > 1e-18)
    if failure is None and np.any(undefined):
        k_bad = int(np.flatnonzero(undefined)[0])
        failure = (f"zero posterior information with nonzero numerator at tally k={k_bad}, "
                   f"m={m}, {prior.name}, {grid.node_count}-node grid")
    ghosh = np.where(degenerate, 0.0, num / np.where(degenerate, 1.0, information))
    return GhoshTable(m=m, marginal=marginal, mean=means, variance=variance, boundary=boundary,
                      information=information, ghosh=ghosh, failure=failure)


def likelihood_span(model: GhzParityModel, m: int, thetas, k0: int, k1: int) -> slice:
    """Phases outside of which the pmf rows k0 <= k < k1 are exactly 0, aligned as a window.

    The whole grid with no shots (m = 0); empty if the rows are 0 at every phase.
    """
    thetas = np.asarray(thetas, dtype=float)
    if m == 0:
        return slice(0, thetas.size)
    upper, _ = _row_bounds(m, np.arange(k0, k1), *_grid_logs(model, thetas))
    return _aligned(*_live_span(upper), thetas.size)


def lbvm_reference(theta0: float, m: int, model: GhzParityModel,
                   grid: QuadratureGrid | None = None) -> PriorDensity:
    """Gaussian reference posterior: mean theta0, variance 1/(m F), renormalised.

    This is the large-m limit shape of the true posterior.  It is returned as
    a prior with the analytic density derivative, so that the m = 0 row of
    ``PosteriorMeanEstimator(model, ref).summary(0)`` is this density and its
    Ghosh bound, which it saturates.
    """
    if m < 1:
        raise ModelError("m must be >= 1")
    grid = grid or QuadratureGrid.simpson(PhaseDomain().a, PhaseDomain().b)
    fisher = float(model.fisher_information(theta0))
    scale = m * fisher
    density = np.exp(-0.5 * scale * (grid.nodes - theta0) ** 2)
    derivative = -scale * (grid.nodes - theta0) * density
    return custom_prior(grid, density, derivative)


class SingularModelError(ModelError):
    """A likelihood table has p(mu|theta) = 0 with a nonzero derivative."""


def fisher_information_from_table(probs, dprobs) -> float:
    """Fisher information of a tabulated finite-outcome likelihood.

    Uses the term-wise convention 0^2/0 := 0 where an outcome has zero
    probability and zero derivative; a zero-probability outcome with a
    nonzero derivative makes the information undefined.
    """
    probs = np.asarray(probs, dtype=float)
    dprobs = np.asarray(dprobs, dtype=float)
    if probs.shape != dprobs.shape:
        raise ModelError("probs and dprobs must have matching shapes")
    zero = probs == 0.0
    if np.any(zero & (dprobs != 0.0)):
        raise SingularModelError("p(mu|theta)=0 with nonzero derivative")
    terms = np.where(zero, 0.0, dprobs**2 / np.where(zero, 1.0, probs))
    return float(np.sum(terms))


def bias_derivative_fd(estimator: Estimator, theta0: float, m: int,
                       model: GhzParityModel, step: float | None = None) -> float:
    """Central finite-difference cross-check of the analytic bias derivative."""
    if step is None:
        step = 1e-5 * estimator.domain.width
    v = estimator.values(m)
    up = expect_values_over_tallies(v, tally_column(theta0 + step, m, model))
    dn = expect_values_over_tallies(v, tally_column(theta0 - step, m, model))
    return (up - dn) / (2.0 * step)


class ConstantEstimator(Estimator):
    """Ignores the data; useful as a degenerate reference."""

    def __init__(self, value: float, domain: PhaseDomain | None = None):
        super().__init__(GhzParityModel(), domain or PhaseDomain())
        self.value = float(value)

    def _compute_values(self, m: int) -> np.ndarray:
        return np.full(m + 1, self.value)


def scipy_log_binomial(m: int, k) -> np.ndarray:
    """log C(m, k) from scipy's log-gamma, exact to rounding for all m."""
    k = np.asarray(k, dtype=float)
    return gammaln(m + 1.0) - gammaln(k + 1.0) - gammaln(m - k + 1.0)


def scipy_tally_probability(model: GhzParityModel, theta, m: int, k):
    """C(m,k) p_+^k p_-^(m-k) in the log domain, with xlogy's 0 log 0 = 0."""
    k = np.asarray(k)
    pp = model.prob_plus(theta)
    pm = 1.0 - pp
    out = np.exp(scipy_log_binomial(m, k) + xlogy(k, pp) + xlogy(m - k, pm))
    return float(out) if np.ndim(out) == 0 else out


def scipy_tally_pmf_matrix(model: GhzParityModel, m: int, thetas, k0: int = 0,
                           k1: int | None = None, *, cols: slice | None = None,
                           out: np.ndarray | None = None) -> np.ndarray:
    """Rows k0 <= k < k1 (default every k) of the tally pmf at every phase.

    Takes the kernel's ``cols`` and ``out``, so that it can stand in for
    ``tally_pmf_matrix``: every column is computed, and ``out``, when given,
    receives the columns ``cols`` (every column without ``cols``).
    """
    k1 = m + 1 if k1 is None else k1
    thetas = np.asarray(thetas, dtype=float)
    pmf = scipy_tally_probability(model, thetas[None, :], m, np.arange(k0, k1)[:, None])
    if out is None:
        return pmf
    out[...] = pmf if cols is None else pmf[:, cols]
    return out


def scipy_tally_pmf_dtheta_matrix(model: GhzParityModel, m: int, thetas) -> np.ndarray:
    """d/dtheta of the scipy tally pmf: the pmf times the score c (k p_- - (m - k) p_+).

    c = p_+' / (p_+ p_-), 0 where p_+ p_- = 0, and p_- = 1 - p_+.
    """
    thetas = np.asarray(thetas, dtype=float)
    pp = model.prob_plus(thetas)[None, :]
    k = np.arange(m + 1, dtype=float)[:, None]
    score = (k * (1.0 - pp) - (m - k) * pp) * _score_factor(model, thetas)
    return scipy_tally_pmf_matrix(model, m, thetas) * score


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_maximize_1d(f, lo: float, hi: float, coarse_points: int) -> tuple[float, float]:
    """One supremum search with scalar golden-section steps, as the package searched before
    its searches were stepped in lock-step.

    ``f`` takes the whole coarse grid as an array, then one float per golden
    step, and returns a float there.  The returned value is the best sample
    seen, so never below the coarse-grid maximum.
    """
    if not lo < hi:
        raise ModelError(f"search interval requires lo < hi, got [{lo}, {hi}]")
    xs = np.linspace(lo, hi, coarse_points)
    vals = np.broadcast_to(np.asarray(f(xs), dtype=float), xs.shape)
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    if np.all(vals == -np.inf):
        raise NumericalFailure("objective invalid on the whole coarse grid")
    i = int(np.argmax(vals))
    best_x, best_v = float(xs[i]), float(vals[i])

    refine_tol = _GOLDEN_REL_TOL * (hi - lo)
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, coarse_points - 1)])
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for x, v in ((c, fc), (d, fd)):
        if math.isfinite(v) and v > best_v:
            best_x, best_v = x, v
    while b - a > refine_tol:
        if (fc if math.isfinite(fc) else -math.inf) > (fd if math.isfinite(fd) else -math.inf):
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
            if math.isfinite(fc) and fc > best_v:
                best_x, best_v = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
            if math.isfinite(fd) and fd > best_v:
                best_x, best_v = d, fd
    return best_x, best_v


def scalar_chrb(theta0: float, m: int, model: GhzParityModel,
                domain: PhaseDomain) -> tuple[float, float]:
    """(argmax, value) of the ChRB search at one m through ``scalar_maximize_1d``."""
    p0p, p0m = _single_shot_probs(model, theta0, domain)

    def objective(lam):
        value = _chrb_value(theta0, m, model, lam, domain, p0p, p0m)
        return value if value.ndim else float(value)

    return scalar_maximize_1d(objective, domain.a - theta0, domain.b - theta0, _CHRB_COARSE)


def scalar_echrb(theta0: float, m: int, model: GhzParityModel, domain: PhaseDomain,
                 seed_lambdas=()) -> tuple[float, float, float, float]:
    """(value, lambda1, lambda2, A) of the EChRB search at one m, its zoom rounds run one
    m at a time, as the package ran them before they were stacked over a block of m."""
    p0p, p0m = _single_shot_probs(model, theta0, domain)
    lo, hi = domain.a - theta0, domain.b - theta0
    l1s = l2s = np.linspace(lo, hi, _ECHRB_GRID)
    if len(seed_lambdas):
        l1s = np.sort(np.concatenate([l2s, np.asarray(seed_lambdas, dtype=float)]))
        l1s = l1s[np.concatenate(([True], l1s[1:] != l1s[:-1]))]
    best = (-math.inf, math.nan, math.nan)
    for round_idx in range(_ECHRB_REFINE_ROUNDS + 1):
        g, _ = _echrb_grid_eval(theta0, m, model, l1s[:, None], l2s[None, :], p0p, p0m)
        if np.all(g == -np.inf):
            if round_idx == 0:
                raise NumericalFailure("every (lambda1, lambda2) cell was excluded")
            break
        i, j = np.unravel_index(int(np.argmax(g)), g.shape)
        if g[i, j] > best[0]:
            best = (float(g[i, j]), float(l1s[i]), float(l2s[j]))
        if round_idx == _ECHRB_REFINE_ROUNDS:
            break
        span1 = (l1s[-1] - l1s[0]) / max(l1s.size - 1, 1)
        span2 = (l2s[-1] - l2s[0]) / max(l2s.size - 1, 1)
        l1s = np.linspace(max(lo, best[1] - span1), min(hi, best[1] + span1), 21)
        l2s = np.linspace(max(lo, best[2] - span2), min(hi, best[2] + span2), 21)
    value, l1, l2 = best
    _, a_star = _echrb_grid_eval(theta0, m, model, np.asarray([l1]), np.asarray([l2]), p0p, p0m)
    return value, l1, l2, float(a_star[0])
