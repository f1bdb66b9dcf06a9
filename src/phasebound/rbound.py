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

The Bayesian posteriors take the fluctuation density itself as their prior.
The marginal-averaged posterior variance then equals the averaged MSE of the
posterior mean, so the same Van Trees and Ziv-Zakai bounds apply to it, and
the marginal-averaged Ghosh bound sits between them:
posterior variance >= aGBr >= VTB (``bayes_chain_report``).

No ordering between the Van Trees and Ziv-Zakai bounds is asserted anywhere:
neither dominates the other.

Ziv-Zakai tests every pair of theta0 nodes at once.  The pairs are built in
the order of their shift (``_shift_pairs``), and each pair's crossing tally
is found by a bisection that reads the pmf at flat indices into per-pair
buffers of the thread's workspace (``_pmin_columns``), as is the pmf table
itself while it fits there; a sweep over m allocates no per-pair array in
the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bbound import ghosh_table
from .estimate import Estimator, PosteriorMeanEstimator
from .fbound import check_chain
from .model import (
    GhzParityModel,
    ModelError,
    _workspace,
    tally_pmf_dtheta_matrix,
    tally_pmf_matrix,
)
from .numerics import (
    NonIntegrablePriorError,
    NumericalFailure,
    PriorDensity,
    QuadratureGrid,
    integrate,
    prior_fisher_information,
)

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


def _tally_cdf_table(model: GhzParityModel, m: int, thetas: np.ndarray) -> np.ndarray:
    """The (m+2) x len(thetas) table of ``_pmin_columns``: a zero row above the tally pmf.

    It lives in the thread's workspace while it fits there.
    """
    table = _workspace.take("scratch", (m + 2, thetas.size))
    table.fill(0.0)
    tally_pmf_matrix(model, m, thetas, out=table[1:])
    return table


def _pmin_columns(table: np.ndarray, first: np.ndarray, second: np.ndarray,
                  a: np.ndarray, b: np.ndarray, p_plus: np.ndarray) -> np.ndarray:
    """P_min = 1/2 (1 - TV) of many weighted pairs of tally distributions.

    ``table`` is a zero row above the pmf, one tally distribution per column
    (``_tally_cdf_table``), at single-shot probabilities ``p_plus``; it is
    turned into the column CDFs C[k] = sum_{k' < k} pmf[k'] in place.  Pair
    t tests column first[t], weighted a[t], against column second[t],
    weighted b[t] (a + b = 1), and TV = sum_k |a pmf[k, first] - b pmf[k, second]|.

    The likelihood ratio of two tally distributions is monotone in k, so the
    summand changes sign at one crossing tally k*, and with
    D(k) = a C[k, first] - b C[k, second], TV = D(m+1) - 2 D(k*) when the
    second distribution lies lower (smaller p_plus) and its negative
    otherwise.  The orientation comes from p_plus pair by pair, not from the
    order of the columns.  k* is found for every pair at once by bisection
    on a pmf[k, first] >= b pmf[k, second] over the union of the two
    columns' nonzero supports.  Outside it both tallies are zero, so the
    predicate (0 >= 0) holds on both sides of the crossing; inside it both
    are zero only between the two supports, where the predicate already
    agrees with the orientation.

    Every read is a ``take`` at flat indices, and every per-pair array is a
    row of the thread's workspace, so a call allocates no pair-sized array.
    The result is such a row too, valid until the next call in the thread.
    """
    pmf = table[1:]
    rows, width = pmf.shape
    size = first.size
    lo, hi, mid, at, shift = _workspace.take("pair_index", (5, size), np.intp)
    x, y, z = _workspace.take("pair_value", (3, size))
    down, active, hit, move = _workspace.take("pair_flag", (4, size), bool)
    nonzero = pmf > 0.0
    start = nonzero.argmax(axis=0)
    stop = rows - nonzero[::-1].argmax(axis=0)
    del nonzero
    # mode="clip" writes straight into ``out``; every index is in range but those below
    np.minimum(start.take(first, out=mid, mode="clip"), start.take(second, out=at, mode="clip"),
               out=lo)
    np.maximum(stop.take(first, out=mid, mode="clip"), stop.take(second, out=at, mode="clip"),
               out=hi)
    np.less(p_plus.take(second, out=y, mode="clip"), p_plus.take(first, out=x, mode="clip"),
            out=down)
    np.subtract(second, first, out=shift)
    flat = pmf.ravel()
    np.less(lo, hi, out=active)
    while active.any():
        np.add(lo, hi, out=mid)
        np.right_shift(mid, 1, out=mid)
        np.multiply(mid, width, out=at)          # a finished pair may sit at lo = rows: its
        at += first                              # reads are clipped, and ignored below
        flat.take(at, out=x, mode="clip")
        x *= a                                   # a pmf[mid, first]
        at += shift
        flat.take(at, out=y, mode="clip")
        y *= b                                   # b pmf[mid, second]
        np.greater_equal(x, y, out=hit)
        np.equal(hit, down, out=hit)
        np.logical_and(active, hit, out=move)
        np.copyto(hi, mid, where=move)
        np.greater(active, hit, out=move)        # active and not hit
        mid += 1
        np.copyto(lo, mid, where=move)
        np.less(lo, hi, out=active)

    np.cumsum(pmf, axis=0, out=pmf)              # the table now holds C[0] .. C[m+1]
    cdf = table.ravel()
    np.add(first, rows * width, out=at)          # D(m+1) into x
    cdf.take(at, out=x, mode="clip")
    x *= a
    at += shift
    cdf.take(at, out=y, mode="clip")
    y *= b
    x -= y
    np.multiply(lo, width, out=at)               # D(k*) into y
    at += first
    cdf.take(at, out=y, mode="clip")
    y *= a
    at += shift
    cdf.take(at, out=z, mode="clip")
    z *= b
    y -= z
    y *= 2.0
    x -= y                                       # TV, up to its orientation
    np.negative(x, out=x, where=np.logical_not(down, out=hit))
    np.subtract(1.0, x, out=x)
    x *= 0.5
    return np.clip(x, 0.0, 0.5, out=x)


def pmin(theta0: float, h: float, prior_true: PriorDensity, m: int,
         model: GhzParityModel) -> float:
    """Minimum error probability for discriminating theta0 from theta0 + h.

    The hypotheses are weighted by the fluctuation density (extended by zero
    outside the domain).  A cell whose two prior weights are both zero is
    empty and gives NaN; one with exactly one zero weight gives 0.  The value
    is the total-variation form 1/2 (1 - sum_k |w0 p(k|theta0) - w1 p(k|theta0+h)|),
    evaluated at the crossing tally exactly as ``ziv_zakai`` evaluates it.
    """
    if not h > 0.0:
        raise ModelError("pmin requires h > 0")
    w0 = float(prior_true.density(theta0))
    w1 = float(prior_true.density(theta0 + h))
    total = w0 + w1
    if total == 0.0:
        return math.nan
    if w0 == 0.0 or w1 == 0.0:
        return 0.0
    thetas = np.array([theta0, theta0 + h])
    value = _pmin_columns(_tally_cdf_table(model, m, thetas), np.array([0]), np.array([1]),
                          np.array([w0 / total]), np.array([w1 / total]),
                          model.prob_plus(thetas))
    return float(value[0])


def _shift_pairs(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Node pairs i < j with p[i] > 0 and p[j] > 0, ordered by shift j - i and then by i.

    Returns ``(first, second, shifts, starts)``: the pairs' two nodes, every
    shift that has a pair, and the index of its first pair.  The order is
    that of the nonzero cells of the n x n mask both[d, i] = (p[i] > 0 and
    p[i + d] > 0), read row by row, so it is built directly, not sorted.
    """
    n = p.size
    weighted = p > 0.0
    padded = np.zeros(2 * n, bool)
    padded[:n] = weighted
    both = np.lib.stride_tricks.sliding_window_view(padded, n)[:n] & weighted
    both[0] = False                              # shift 0 pairs a node with itself
    shift, first = np.nonzero(both)
    counts = both.sum(axis=1)
    shifts = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[shifts]
    return first, first + shift, shifts, starts


@dataclass(frozen=True)
class _ZivZakaiPairs:
    """What the Bayesian rows need of one prior at every m: its theta0 grid and test pairs.

    ``grid`` and ``density`` are ``_outer_grid(prior)``.  ``a`` and ``b``
    are the pairs' normalised prior weights, ``weights`` each pair's theta0
    quadrature weight times its summed prior weight, and ``h_factor`` each
    shift's h-axis quadrature weight times h.  Built once per prior by
    ``_ziv_zakai_pairs``; ``ziv_zakai`` and ``bayes_chain_report`` take it.
    """

    prior: PriorDensity
    grid: QuadratureGrid
    density: np.ndarray
    first: np.ndarray
    second: np.ndarray
    a: np.ndarray
    b: np.ndarray
    weights: np.ndarray
    starts: np.ndarray
    h_factor: np.ndarray

    def outer_grid(self, prior: PriorDensity) -> tuple[QuadratureGrid, np.ndarray]:
        """``_outer_grid(prior)``, held here; raises if these pairs belong to another prior."""
        if prior is not self.prior:
            raise ValueError("Ziv-Zakai pairs passed with a prior they were not built for")
        return self.grid, self.density


def _ziv_zakai_pairs(prior_true: PriorDensity) -> _ZivZakaiPairs:
    """The m-free part of ``ziv_zakai`` and ``bayes_chain_report`` under ``prior_true``."""
    g, p = _outer_grid(prior_true)
    n, nodes = g.node_count, g.nodes
    first, second, shifts, starts = _shift_pairs(p)
    a, b = p[first], p[second]
    s = a + b
    a /= s
    b /= s
    h_weights = QuadratureGrid.simpson(0.0, prior_true.domain.width, n).weights
    return _ZivZakaiPairs(prior=prior_true, grid=g, density=p, first=first, second=second,
                          a=a, b=b, weights=g.weights[first] * s, starts=starts,
                          h_factor=h_weights[shifts] * (nodes[shifts] - g.a))


def ziv_zakai(prior_true: PriorDensity, m: int, model: GhzParityModel,
              pairs: _ZivZakaiPairs | None = None) -> float:
    """Ziv-Zakai bound on the averaged MSE from a continuum of binary tests.

    (1/2) integral over h in (0, b - a] of h times the theta0-integral of
    (p(theta0) + p(theta0 + h)) P_min(theta0, theta0 + h).  The theta0 axis is
    the outer grid every other theta0 integral uses, and the h axis has the
    same node spacing, so every shifted phase lands on that grid and the tally
    distributions are evaluated once.  The density is extended by zero outside
    the domain, which truncates the h range at the domain width; cells where
    either hypothesis has zero weight contribute nothing.

    Every test pair of nodes is evaluated at once from the column CDFs of the
    one pmf matrix and a crossing tally per pair (see ``_pmin_columns``): the
    pmf and CDFs cost O(n m), the bisection O(n^2 log m), against O(n^2 m)
    for a sum over tallies per pair.  The pairs come ordered by shift
    (``_shift_pairs``), so the theta0 sums for each shift are one
    ``np.add.reduceat`` over them.  The pairs and their weights do not
    depend on m: a sweep builds them once (``_ziv_zakai_pairs``) and passes
    them as ``pairs``.

    P_min stays in the total-variation form 1/2 (1 - TV), which cancels when
    P_min is small.  Against the cancellation-free
    sum_k min(w0 p0, w1 p1), which the same CDFs give at the crossing tally,
    the bound for alpha = 10 is off by 1.8e-12 relative at m = 100 and
    1.9e-10 at m = 5000 (at most 4e-14 for m <= 20 and the priors of the
    tests).  The recorded reference outputs carry that cancellation error, so
    switching to the min form means re-recording them.
    """
    if m < 1:
        raise ModelError("m must be >= 1")
    if pairs is None:
        pairs = _ziv_zakai_pairs(prior_true)
    nodes = pairs.outer_grid(prior_true)[0].nodes
    p_min = _pmin_columns(_tally_cdf_table(model, m, nodes), pairs.first, pairs.second,
                          pairs.a, pairs.b, model.prob_plus(nodes))
    inner = np.add.reduceat(pairs.weights * p_min, pairs.starts)
    total = float(np.sum(pairs.h_factor * inner))
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
    return _marginal_on(model, m, *_outer_grid(prior_true))


def _marginal_on(model: GhzParityModel, m: int, g: QuadratureGrid, p: np.ndarray) -> np.ndarray:
    """``tally_marginal`` of the prior whose density on the theta0 grid ``g`` is ``p``."""
    return tally_pmf_matrix(model, m, g.nodes) @ (g.weights * p)


@dataclass(frozen=True)
class BayesChainReport:
    """Matched-prior chain: averaged posterior variance >= aGBr >= VTB."""

    bayes_variance: float
    agbr: float
    van_trees: float


def bayes_chain_report(bayes: PosteriorMeanEstimator, m: int,
                       pairs: _ZivZakaiPairs | None = None) -> BayesChainReport:
    """Evaluate and assert the matched-prior Bayesian bound chain under ``bayes.prior``.

    ``pairs``, when a sweep has built them for ``bayes.prior``, supply the
    theta0 grid of the tally marginal.
    """
    prior, model = bayes.prior, bayes.model
    table = ghosh_table(bayes, m)
    weights = (tally_marginal(prior, m, model) if pairs is None
               else _marginal_on(model, m, *pairs.outer_grid(prior)))
    report = BayesChainReport(
        bayes_variance=float(np.sum(table.variance * weights)),
        agbr=float(np.sum(table.ghosh * weights)),
        van_trees=van_trees(prior, m, model),
    )
    check_chain([("bayes_variance", report.bayes_variance), ("agbr", report.agbr),
                 ("van_trees", report.van_trees)], _cell(m, prior))
    return report
