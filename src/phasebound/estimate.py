"""Estimators, posterior construction, and the risk functions they feed.

The maximum-likelihood estimator is a closed form on every identifiable
domain, where cos(N theta) is monotone (``model.require_identifiable``).
Frequentist risks are exact tally sums: the mean, variance, and mean square
error of an estimator satisfy MSE = variance + bias^2 identically.  The
derivative of the estimator mean with respect to the true phase (the quantity
that turns the unbiased Cramer-Rao bound into its biased form) weighs with
the tally pmf times the likelihood's closed-form score (``model._score``).

Bayesian posteriors are held on a quadrature grid.  The posterior's score is
assembled analytically, from the likelihood's closed-form score and the
prior's, never by differencing grid values: the posterior Fisher information
downstream is sensitive to differentiation noise.  The per-tally posterior
summary streams the pmf in blocks of tallies, each on its window of nodes,
and writes every block's density and products into the workspace (see
``model._Workspace``), so a sweep over m allocates no block-sized array
after its first row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import expect_values_over_tallies, tally_column
from .model import (
    GhzParityModel,
    ModelError,
    PhaseDomain,
    _block_extent,
    _likelihood_windows,
    _row_range,
    _score,
    _score_factor,
    _workspace,
    require_identifiable,
    tally_pmf_matrix,
)
from .numerics import DERIVATIVE_NOISE_REL, NumericalFailure, PriorDensity


class DegeneratePosteriorError(NumericalFailure):
    """The posterior normalisation integral underflowed to zero."""


@dataclass(frozen=True)
class RiskReport:
    """Frequentist risk summary of one estimator at one (theta0, m)."""

    mean: float
    variance: float
    mse: float
    bias_derivative: float


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


def _branch_mle(k_plus, m: int, model: GhzParityModel, branch: int) -> np.ndarray:
    """Closed-form MLE of an array of k_+ on the branch N [a, b] in [j pi, (j+1) pi].

    There cos(N theta) = (-1)^j cos(N theta - j pi) is monotone, so the
    likelihood of each tally peaks where p_+ = k_+/m:
    N theta = j pi + arccos((-1)^j (k_+ - k_-)/m); ``Estimator.values``
    clips it to [a, b].  ``math.acos`` is applied per element:
    ``np.arccos`` differs from it in the last bit for some arguments, and
    the references were recorded with it.
    """
    x = (2 * k_plus - m) / m
    if branch % 2:
        x = -x
    acos = np.array([math.acos(v) for v in x.tolist()])
    return (branch * math.pi + acos) / model.n_qubits


class Estimator:
    """Maps outcome tallies to phases, clipped to the domain; nothing is kept per m."""

    def __init__(self, model: GhzParityModel, domain: PhaseDomain):
        self.model = model
        self.domain = domain

    def _compute_values(self, m: int) -> np.ndarray:
        raise NotImplementedError

    def values(self, m: int) -> np.ndarray:
        vals = np.clip(self._compute_values(m), self.domain.a, self.domain.b)
        vals.flags.writeable = False
        return vals


class MaximumLikelihoodEstimator(Estimator):
    """The maximum-likelihood phase of every tally, clipped to [a, b].

    The domain must be identifiable: N [a, b] inside one branch
    [j pi, (j+1) pi] (``require_identifiable``, which raises ``ModelError``
    otherwise).  cos(N theta) is monotone there, so the MLE is the closed
    form (j pi + arccos(+-(k_+ - k_-)/m))/N of ``_branch_mle``; on the
    default domain [0, pi/2] for N = 2, j = 0 and it is
    (1/N) arccos((k_+ - k_-)/m).
    """

    def __init__(self, model: GhzParityModel, domain: PhaseDomain):
        super().__init__(model, domain)
        self._branch = require_identifiable(model, domain)

    def _compute_values(self, m: int) -> np.ndarray:
        if m < 1:
            raise ModelError("MLE requires at least one shot")
        return _branch_mle(np.arange(m + 1), m, self.model, self._branch)


class PosteriorMeanEstimator(Estimator):
    """The posterior mean of every tally under ``prior``."""

    def __init__(self, model: GhzParityModel, prior: PriorDensity):
        super().__init__(model, prior.domain)
        self.prior = prior
        self._summary: GhoshTable | None = None

    def summary(self, m: int) -> GhoshTable:
        """The per-tally posterior summary for m, kept until another m is asked for."""
        if self._summary is None or self._summary.m != m:
            self._summary = posterior_summary(self.prior, m, self.model)
        return self._summary

    def _compute_values(self, m: int) -> np.ndarray:
        return self.summary(m).mean


def _tally_cell(prior: PriorDensity, m: int, k: int) -> str:
    return f"tally k={k}, m={m}, {prior.name}, {prior.grid.node_count}-node grid"


def posterior_table(prior: PriorDensity, m: int, model: GhzParityModel, k0: int = 0,
                    k1: int | None = None, *, cols: slice | None = None,
                    out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Normalised posterior densities and marginals for the tallies k0 <= k < k1.

    Returns ``(density, marginal)``: the density of shape (k1 - k0, width of
    ``cols``), every node without ``cols``, and the marginal tally
    probabilities of length k1 - k0; the default range is every tally,
    k = 0..m.  A row with an underflowed marginal raises, naming its tally
    k0 + i.

    The likelihood comes from ``tally_pmf_matrix``, on the window of nodes
    ``cols``: by default every node, or any window that holds the rows' span
    (``model._likelihood_windows``), outside of which it is zero, and starts
    on a multiple of ``_WINDOW_ALIGN`` nodes (the posterior summary passes a
    narrower one).  The kernel writes it into ``out``, a (k1 - k0, width of
    ``cols``) array, or a new array of that shape, which is returned; it is
    turned into the density in place.  The marginals are one matrix-vector
    product per block of ``_block_extent`` rows over the window, blocks
    aligned as the summary's, so they do not depend on the BLAS thread
    count.  ``posterior_summary`` asks for one block of rows at a time, so
    that its memory stays O(block x window).
    """
    grid = prior.grid
    k0, k1 = _row_range(m, k0, k1)
    if cols is None:
        cols = slice(0, grid.node_count)
    dens = tally_pmf_matrix(model, m, grid.nodes, k0, k1, cols=cols, out=out)
    dens *= prior.values[cols]
    w, marginal = grid.weights[cols], np.empty(k1 - k0)
    step = _block_extent(k1 - k0, dens.shape[1])
    for r0 in range(0, k1 - k0, step):
        marginal[r0:r0 + step] = dens[r0:r0 + step] @ w
    bad = ~(np.isfinite(marginal) & (marginal > 0.0))
    if np.any(bad):
        k_bad = k0 + int(np.flatnonzero(bad)[0])
        raise DegeneratePosteriorError(
            f"posterior normalisation underflowed for {_tally_cell(prior, m, k_bad)}")
    dens /= marginal[:, None]
    return dens, marginal


def _steep_zero(prior: PriorDensity, m: int, model: GhzParityModel, k0: int, k1: int,
                cols: slice, slope_zeros: np.ndarray, dens: np.ndarray, score: np.ndarray,
                marginal: np.ndarray) -> int | None:
    """The first tally of the block whose posterior is 0 where its slope is not noise, or None.

    The posterior's slope is dens * score, but at a zero of the prior, where
    it is pmf pi' / p_mar(k).  So a cell of zero density has a nonzero slope
    only at the prior's zeros of nonzero slope, ``slope_zeros``: the rows
    whose pmf is nonzero at one of them in the window are checked, with
    their largest |slope| over the window.  The pmf there is read through
    one more window of the kernel; the flat and exponential-sine priors have
    no such zero.
    """
    j = slope_zeros[(slope_zeros >= cols.start) & (slope_zeros < cols.stop)]
    if not j.size:
        return None
    pmf = tally_pmf_matrix(model, m, prior.grid.nodes, k0, k1,
                           cols=slice(j[0], j[-1] + 1))[:, j - j[0]]
    rows = np.flatnonzero(pmf.any(axis=1))
    if not rows.size:
        return None
    slope = np.abs(pmf[rows] * prior.derivative[j] / marginal[rows, None])
    largest = np.maximum(np.max(np.abs(dens[rows] * score[rows]), axis=1), np.max(slope, axis=1))
    steep = np.any(slope > DERIVATIVE_NOISE_REL * largest[:, None], axis=1)
    return k0 + int(rows[steep][0]) if steep.any() else None


def posterior_summary(prior: PriorDensity, m: int, model: GhzParityModel) -> GhoshTable:
    """Per-tally posterior summary for all tallies k = 0..m.

    Built in blocks of tallies, in the workspace; every returned quantity is
    one number per tally, so memory stays O(block x window) however large m
    is.  Each block is one ``posterior_table`` window of the pmf itself,
    turned into the posterior density in place, with the products beside
    it, as contiguous (rows, window width) arrays.  The
    information weighs the density by the squared score of the posterior,
    k c + e on row k, from the likelihood's closed-form score c (k - m p_+)
    (``model._score_factor``) and the prior's pi'/pi, with
    e = pi'/pi - m p_+ c formed here once per m (pi'/pi is 0 where pi is,
    and so is the density): nothing is divided by the density, so a cell of
    zero density adds an exact 0.  No derivative table is built.

    Each block runs on its window of nodes, the part of the likelihood's
    span where some row of it lies within the cut (``model._peak_cut``, 100
    nats on 2001 nodes) of its peak, found once per block here
    (``_likelihood_windows``, with the log prior computed once); a cell
    outside is an exact zero or lies below half an ulp of each of its row's
    sums, so it changes no double.  A block starts on a multiple of
    ``model._BLAS_ALIGN`` tallies and takes as many as fit in
    ``model._BLOCK_CELLS`` cells of its own window (``_block_extent``):
    32 rows on the whole 2001-node grid, about 160 on the windows of about
    366 nodes at m = 5000, at least ``model._BLAS_ALIGN`` on any grid.  Its
    rows are first sized by the last block's window, then cut back, and the
    window found again, while its own window is too wide for them.  So
    aligned, every matrix-vector product gives each row the doubles of one
    over the whole (m+1)-row table, and the summary does not depend on the
    blocks (the tests compare blocks of 16, 32 and 48 rows with one block,
    with ``==``).  The boundary term needs the density only at the two end
    nodes: after the blocks, one two-column kernel call reads them for every
    tally, from the grid's cached logs, so they are the doubles of a window
    that holds them (0 outside a block's span).  Nothing is cached here:
    ``PosteriorMeanEstimator.summary`` keeps the last m's, which serves both
    the posterior means and ``ghosh_table`` of a sweep row.

    A Ghosh-validity failure is recorded in ``failure`` instead of raised, so
    the posterior means stay available for priors whose Ghosh bound is
    undefined: the first tally whose posterior is zero where its slope is
    not noise (``_steep_zero``, which checks the prior's zeros of nonzero
    slope), else the first with zero information and a nonzero numerator.
    """
    grid = prior.grid
    nodes, n = grid.nodes, grid.node_count
    marginal, means, variance, information = (np.empty(m + 1) for _ in range(4))
    with np.errstate(divide="ignore"):
        log_p = np.log(prior.values)
    log_prior = log_p, np.where(prior.values > 0.0, log_p, np.max(log_p))
    c = _score_factor(model, nodes)
    prior_score = np.divide(prior.derivative, prior.values, out=np.zeros(nodes.size),
                            where=prior.values != 0.0)
    e = prior_score - m * model.prob_plus(nodes) * c
    slope_zeros = np.flatnonzero((prior.values == 0.0) & (prior.derivative != 0.0))
    failure = None
    k0, width = 0, n
    while k0 <= m:
        k1 = k0 + _block_extent(m + 1 - k0, width)
        while True:
            cols = _likelihood_windows(model, m, nodes, k0, k1, log_prior)
            width = cols.stop - cols.start
            rows = _block_extent(m + 1 - k0, width)
            if k0 + rows >= k1:
                break
            k1 = k0 + rows
        theta, w = nodes[cols], grid.weights[cols]
        shape = (k1 - k0, width)
        dens, marginal[k0:k1] = posterior_table(prior, m, model, k0, k1, cols=cols,
                                                out=_workspace.take("scratch", shape))
        work = _workspace.take("derivative", shape)
        mean = means[k0:k1] = np.multiply(dens, theta, out=work) @ w
        np.subtract(theta[None, :], mean[:, None], out=work)
        np.square(work, out=work)
        work *= dens
        variance[k0:k1] = work @ w

        score = np.einsum("i,j->ij", np.arange(k0, k1, dtype=float), c[cols], out=work)
        score += e[cols]
        if failure is None:                      # the first failure stands
            bad = _steep_zero(prior, m, model, k0, k1, cols, slope_zeros, dens, score,
                              marginal[k0:k1])
            if bad is not None:
                failure = ("posterior has a zero with nonzero slope at "
                           + _tally_cell(prior, m, bad))
        integrand = np.square(score, out=work)
        integrand *= dens
        information[k0:k1] = integrand @ w
        k0 = k1

    ends = tally_pmf_matrix(model, m, nodes, cols=slice(0, n, n - 1))
    ends *= prior.values[[0, -1]]
    ends /= marginal[:, None]
    first, last = ends.T
    boundary = grid.b * last - grid.a * first - means * (last - first)
    num = (boundary - 1.0) ** 2
    degenerate = information <= 0.0
    undefined = degenerate & (num > 1e-18)
    if failure is None and np.any(undefined):
        k_bad = int(np.flatnonzero(undefined)[0])
        failure = ("zero posterior information with nonzero numerator at "
                   + _tally_cell(prior, m, k_bad))
    ghosh = np.where(degenerate, 0.0, num / np.where(degenerate, 1.0, information))
    for v in (marginal, means, variance, boundary, information, ghosh):
        v.flags.writeable = False
    return GhoshTable(m=m, marginal=marginal, mean=means, variance=variance, boundary=boundary,
                      information=information, ghosh=ghosh, failure=failure)


def frequentist_risk(estimator: Estimator, theta0: float, m: int,
                     model: GhzParityModel) -> RiskReport:
    """Mean, variance, MSE, and mean-derivative of an estimator, by exact sums.

    The three sums weigh with the tally pmf column at theta0
    (``tally_column``, which the Bayesian sums at the same (theta0, m)
    share).  The bias derivative d<theta_est>/dtheta0 weighs with the
    pmf's derivative, that column times the likelihood's score at theta0
    (``model._score``): the doubles of ``tally_pmf_dtheta_matrix``'s column.
    """
    pmf = tally_column(theta0, m, model)
    v = estimator.values(m)
    mean = expect_values_over_tallies(v, pmf)
    variance = expect_values_over_tallies((v - mean) ** 2, pmf)
    mse = expect_values_over_tallies((v - theta0) ** 2, pmf)
    dpmf = pmf * _score(model, m, np.arange(m + 1), [theta0])[:, 0]
    bias_derivative = float(np.sum(v * dpmf))
    return RiskReport(mean=mean, variance=variance, mse=mse,
                      bias_derivative=bias_derivative)
