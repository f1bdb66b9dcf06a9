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
the order of their shift (``_shift_pairs``); each pair's crossing tally has
a closed form in the kernel's logs (``_crossings``), and the column CDFs are
accumulated block by block, one streamed path for every m
(``_pmin_columns``).  The pairs do not depend on m, so this module builds
them once per prior and model and keeps them for the last few priors
(``_ziv_zakai_pairs``); a sweep passes nothing down.

Every theta0-grid stage (the tally marginal, the averaged risks and
Ziv-Zakai) holds at most one block of ``model._BLOCK_CELLS`` cells of the
pmf at a time, in the workspace, with its per-pair arrays there
too: the whole (m+1) x 201 pmf up to m = 325, blocks of rows beyond (the
marginal and Ziv-Zakai), or blocks of phases (the averaged risks, whose sums
run over the tallies of one phase).  The posterior summary's blocks have the
same budget, so no stage writes more of the workspace than another.  Each
block starts on a multiple of ``model._BLAS_ALIGN`` rows or phases and gives
the doubles of the whole matrix (``model._block_extent``).  ``acrlb`` and
``fvtb`` take the pmf derivative in the same workspace blocks of phases
(``_mean_slope``), so none of these stages depends on the BLAS thread count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bbound import ghosh_table
from .estimate import Estimator, PosteriorMeanEstimator
from .fbound import check_chain
from .model import (
    GhzParityModel,
    ModelError,
    _block_extent,
    _grid_logs,
    _workspace,
    tally_pmf_dtheta_matrix,
    tally_pmf_matrix,
)
from .numerics import (
    _PRIOR_MASS_TOL,
    NonIntegrablePriorError,
    NumericalFailure,
    PriorDensity,
    QuadratureGrid,
    integrate,
    prior_fisher_information,
)

# Simpson nodes of the theta0 grid of every outer integral.
_OUTER_NODES = 201


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
    if not abs(mass - 1.0) <= _PRIOR_MASS_TOL:
        raise NumericalFailure(
            f"the {g.node_count}-node theta0 grid does not resolve the prior "
            f"({prior.name}): it holds prior mass {mass!r}, "
            f"off by more than {_PRIOR_MASS_TOL:g}")
    return g, p


def _pmf_row_blocks(model: GhzParityModel, m: int, thetas: np.ndarray):
    """The tally pmf at ``thetas`` in blocks of rows, as (k0, rows k0.. of the pmf) pairs.

    Each block is written into the workspace and is valid until the next.
    The blocks are aligned (``model._block_extent``), so a matrix-vector
    product of the blocks gives the whole matrix's doubles.
    """
    rows, n = m + 1, thetas.size
    step = _block_extent(rows, n)
    for k0 in range(0, rows, step):
        block = _workspace.take("scratch", (min(step, rows - k0), n))
        yield k0, tally_pmf_matrix(model, m, thetas, k0, k0 + len(block), out=block)


def _pmf_column_blocks(model: GhzParityModel, m: int, thetas: np.ndarray,
                       derivative: bool = False):
    """The tally pmf (or with ``derivative`` its d/dtheta) in blocks of phases of ``thetas``.

    Each block, a (phase slice, those columns) pair, is a contiguous
    (m + 1) x width array in the workspace, valid until the next.  Aligned
    like the row blocks, each column is summed over k by OpenBLAS's gemv as
    in the whole matrix (with two threads the whole matrix's columns are
    not, from about 2600 rows on).
    """
    kernel = tally_pmf_dtheta_matrix if derivative else tally_pmf_matrix
    rows, n = m + 1, thetas.size
    step = _block_extent(n, rows)
    for c0 in range(0, n, step):
        cols = slice(c0, min(c0 + step, n))
        block = _workspace.take("scratch", (rows, cols.stop - c0))
        yield cols, kernel(model, m, thetas, cols=cols, out=block)


def _column_spreads(model: GhzParityModel, m: int, thetas: np.ndarray, v: np.ndarray,
                    centres: np.ndarray | None = None) -> np.ndarray:
    """Per phase, sum over k of (v[k] - c)^2 pmf[k] at that phase.

    c is ``centres`` at the phase, or the mean of v under its pmf when
    ``centres`` is None.  Every sum runs over the tallies of one phase, so
    the pmf goes through in blocks of phases (``_pmf_column_blocks``) with
    its products in the workspace, and the blocks change no double.
    """
    out = np.empty(thetas.size)
    for cols, pmf in _pmf_column_blocks(model, m, thetas):
        c = v @ pmf if centres is None else centres[cols]
        work = np.subtract(v[:, None], c, out=_workspace.take("derivative", pmf.shape))
        np.square(work, out=work)
        work *= pmf
        np.add.reduce(work, axis=0, out=out[cols])
    return out


def avg_estimator_variance(estimator: Estimator, prior_true: PriorDensity,
                           m: int, model: GhzParityModel) -> float:
    """Estimator variance averaged over the fluctuation density of theta0."""
    g, p = _outer_grid(prior_true)
    var = _column_spreads(model, m, g.nodes, estimator.values(m))
    return integrate(var * p, g)


def avg_mse(estimator: Estimator, prior_true: PriorDensity, m: int,
            model: GhzParityModel) -> float:
    """Mean square error averaged over the fluctuation density of theta0."""
    g, p = _outer_grid(prior_true)
    mse = _column_spreads(model, m, g.nodes, estimator.values(m), g.nodes)
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


class _TestPairs(NamedTuple):
    """Weighted pairs of phases tested against each other.

    Pair t weighs the tally distribution at phase first[t] by a[t] against
    the one at phase second[t] by b[t] (a + b = 1); ``down`` is True where
    the second lies lower (smaller p_+).
    """

    first: np.ndarray
    second: np.ndarray
    a: np.ndarray
    b: np.ndarray
    down: np.ndarray


def _crossings(model: GhzParityModel, m: int, thetas: np.ndarray, pairs: _TestPairs,
               k: np.ndarray, rows: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Every pair's crossing tally k*, in closed form from the grid's logs.

    The test at tally k is a pmf[k, first] >= b pmf[k, second] where the
    second distribution lies lower, and its negation otherwise; k* is the
    first tally where it holds, m + 1 if none.  log C(m, k) cancels from
    the log ratio of the two sides, r(k) = c + k u + (m - k) v with
    c = log a - log b and u, v the differences of log p_+ and log p_- of the
    two phases (``model._grid_logs``): linear in k, rising where the second
    lies lower and falling otherwise.  r(0) = c + m v and r(m) = c + m u
    drop the vanishing term (0 log 0 = 0, as the kernel does), so they
    decide k* = 0 and k* = m + 1 exactly, at the deterministic end nodes too.
    Otherwise r crosses 0 at x = -r(0) / (u - v), and k* is ceil(x) where
    the second lies lower and floor(x) + 1 where it lies higher, in [1, m].
    x is NaN only where a node has p_+ = 1, so that its pmf is 0 below
    k = m: the test first holds at k = m, or, where the other node has
    p_+ = 0, on the tallies [1, m], over which the CDFs of
    ``_pmin_columns`` are flat; k* = m.  Near a tie, where r is 0 but for
    rounding at a tally (mirror pairs about pi/4 at k = m/2), the rounding
    of x may break it unlike the pmf's doubles would, which moves P_min by
    an ulp or two.

    ``rows`` are four float workspace rows of the pairs' length and ``ends``
    two bool ones; k* is written into the intp row ``k``, which is returned.
    """
    f, s, down = pairs.first, pairs.second, pairs.down
    u, v, r, t = rows
    none, first = ends
    logpp, logpm = _grid_logs(model, thetas)
    # mode="clip" writes straight into ``out``; every index is in range
    with np.errstate(invalid="ignore", divide="ignore"):   # the log of p = 0 is -inf: NaN, inf
        np.subtract(logpp.take(f, out=u, mode="clip"), logpp.take(s, out=t, mode="clip"), out=u)
        np.subtract(logpm.take(f, out=v, mode="clip"), logpm.take(s, out=t, mode="clip"), out=v)
        np.subtract(np.log(pairs.a, out=r), np.log(pairs.b, out=t), out=r)
        np.multiply(u, m, out=t)
        t += r                                   # r(m)
        np.not_equal(np.greater_equal(t, 0.0, out=none), down, out=none)      # fails at k = m
        np.multiply(v, m, out=t)
        r += t                                   # r(0)
        np.equal(np.greater_equal(r, 0.0, out=first), down, out=first)        # holds at k = 0
        u -= v
        np.divide(r, u, out=r)
        np.negative(r, out=r)                    # x
        np.floor(r, out=t)
        t += 1.0
        np.ceil(r, out=t, where=down)
        np.fmin(t, m, out=t)                     # a NaN becomes m
        np.fmax(t, 1.0, out=t)
    np.copyto(k, t, casting="unsafe")
    np.copyto(k, 0, where=first)
    np.copyto(k, m + 1, where=none)
    return k


def _pmin_columns(model: GhzParityModel, m: int, thetas: np.ndarray,
                  pairs: _TestPairs) -> np.ndarray:
    """P_min = 1/2 (1 - TV) of many weighted pairs of tally distributions at ``thetas``.

    TV = sum_k |a pmf[k, first] - b pmf[k, second]| (``_TestPairs``).  The
    likelihood ratio of two tally distributions is monotone in k, so the
    summand changes sign at one crossing tally k* (``_crossings``, in closed
    form), and with the column CDFs C[k] = sum_{k' < k} pmf[k'] and
    D(k) = a C[k, first] - b C[k, second], TV = D(m+1) - 2 D(k*) when the
    second distribution lies lower and its negative otherwise.

    The CDFs are accumulated over blocks of rows (``_pmf_row_blocks``), one
    block while the whole pmf fits in one: each block's first row takes the
    previous block's last CDF row, and a cumsum in place gives the whole
    matrix's cumsum bit for bit.  Each pair reads D(k*) by one gather from
    the block that holds that CDF row, and D(m+1) after the last one.
    Every per-pair array is a row of the workspace, so a call allocates no
    pair-sized or table-sized array; the result is such a row too, valid
    until the next call.
    """
    n, f, s, a, b = thetas.size, pairs.first, pairs.second, pairs.a, pairs.b
    # the pairs' rows share the buffers the posterior summary has already written: k*,
    # two of intp (of float while the crossings are found), then x, y and D(k*)
    rows = _workspace.take("derivative", (6, f.size))
    index, (x, y, d) = rows[:3].view(np.intp), rows[3:]
    inside, below, up = _workspace.take("zero", (3, f.size), bool)
    k = _crossings(model, m, thetas, pairs, index[0], rows[1:5], (inside, below))
    d.fill(0.0)                                  # D(0) = 0
    carry = np.zeros(n)
    row, at = index[1:]
    for k0, block in _pmf_row_blocks(model, m, thetas):
        block[0] += carry
        np.cumsum(block, axis=0, out=block)      # C[k0 + 1] .. C[k0 + rows]
        np.greater(k, k0, out=inside)            # the pairs whose CDF row k* - 1 is here
        inside &= np.less_equal(k, k0 + len(block), out=below)
        np.subtract(k, k0 + 1, out=row)
        np.clip(row, 0, len(block) - 1, out=row)
        row *= n
        cdf = block.ravel()
        # mode="clip" writes straight into ``out``; every index is in range
        cdf.take(np.add(row, f, out=at), out=x, mode="clip")
        x *= a
        cdf.take(np.add(row, s, out=at), out=y, mode="clip")
        y *= b
        x -= y
        np.copyto(d, x, where=inside)
        carry = block[-1].copy()
    carry.take(f, out=x, mode="clip")            # D(m+1) - 2 D(k*), up to its orientation
    x *= a
    carry.take(s, out=y, mode="clip")
    y *= b
    x -= y
    d *= 2.0
    x -= d
    np.negative(x, out=x, where=np.logical_not(pairs.down, out=up))
    np.subtract(1.0, x, out=x)
    x *= 0.5
    return np.clip(x, 0.0, 0.5, out=x)


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
    """What ``ziv_zakai`` needs of one prior and model at every m: theta0 grid and test pairs.

    ``grid`` is the theta0 grid of ``_outer_grid(prior)``.  ``tests`` are the
    node pairs with their normalised prior weights and orientations
    (``_TestPairs``), ``weights`` each pair's theta0 quadrature weight times
    its summed prior weight, and ``h_factor`` each shift's h-axis
    quadrature weight times h.  Built by ``_ziv_zakai_pairs``.
    """

    grid: QuadratureGrid
    tests: _TestPairs
    weights: np.ndarray
    starts: np.ndarray
    h_factor: np.ndarray


@functools.lru_cache(maxsize=4)
def _ziv_zakai_pairs(prior_true: PriorDensity, model: GhzParityModel) -> _ZivZakaiPairs:
    """The m-free part of ``ziv_zakai`` under ``prior_true``, kept for the last few priors.

    Keyed by the prior object (priors hash by identity) and the model.
    """
    g, p = _outer_grid(prior_true)
    n, nodes = g.node_count, g.nodes
    first, second, shifts, starts = _shift_pairs(p)
    a, b = p[first], p[second]
    s = a + b
    weights = g.weights.take(first)
    weights *= s
    a /= s
    b /= s
    del s
    p_plus = model.prob_plus(nodes)
    down = np.less(p_plus.take(second), p_plus.take(first))
    h_weights = QuadratureGrid.simpson(0.0, prior_true.domain.width, n).weights
    return _ZivZakaiPairs(grid=g, tests=_TestPairs(first, second, a, b, down), weights=weights,
                          starts=starts, h_factor=h_weights[shifts] * (nodes[shifts] - g.a))


def ziv_zakai(prior_true: PriorDensity, m: int, model: GhzParityModel) -> float:
    """Ziv-Zakai bound on the averaged MSE from a continuum of binary tests.

    (1/2) integral over h in (0, b - a] of h times the theta0-integral of
    (p(theta0) + p(theta0 + h)) P_min(theta0, theta0 + h).  The theta0 axis is
    the outer grid every other theta0 integral uses, and the h axis has the
    same node spacing, so every shifted phase lands on that grid and the tally
    distributions are evaluated once.  The density is extended by zero outside
    the domain, which truncates the h range at the domain width; cells where
    either hypothesis has zero weight contribute nothing.

    Every test pair of nodes is evaluated at once from the column CDFs of the
    pmf and a crossing tally per pair (see ``_pmin_columns``): the pmf and
    CDFs cost O(n m), the crossings O(n^2) in closed form (``_crossings``),
    against O(n^2 m) for a sum over tallies per pair.  The pairs come ordered by shift
    (``_shift_pairs``), so the theta0 sums for each shift are one
    ``np.add.reduceat`` over them.  The pairs, their weights and
    orientations do not depend on m: they are built once per prior and model
    (``_ziv_zakai_pairs``) and reused by every m of a sweep.

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
    pairs = _ziv_zakai_pairs(prior_true, model)
    p_min = _pmin_columns(model, m, pairs.grid.nodes, pairs.tests)
    inner = np.add.reduceat(pairs.weights * p_min, pairs.starts)
    total = float(np.sum(pairs.h_factor * inner))
    return max(0.5 * total, 0.0)


def _mean_slope(estimator: Estimator, m: int, model: GhzParityModel,
                thetas: np.ndarray) -> np.ndarray:
    """d<est>/dtheta0 at every phase: the sum over k of v[k] d pmf(k | theta0) / dtheta0.

    The pmf derivative goes through in blocks of phases
    (``_pmf_column_blocks``), so it does not depend on the BLAS thread count.
    """
    v = estimator.values(m)
    return np.concatenate([v @ dpmf for _, dpmf in _pmf_column_blocks(model, m, thetas, True)])


def acrlb(estimator: Estimator, prior_true: PriorDensity, m: int,
          model: GhzParityModel) -> float:
    """Averaged Cramer-Rao bound: integral of (d<est>/dtheta0)^2/(m F) p(theta0)."""
    g, p = _outer_grid(prior_true)
    bias_derivative = _mean_slope(estimator, m, model, g.nodes)
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
    bias_derivative = _mean_slope(estimator, m, model, g.nodes)
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
                 ("fvtb", report.fvtb)], f"m={m}, {prior_true.name}")
    return report


def tally_marginal(prior_true: PriorDensity, m: int, model: GhzParityModel) -> np.ndarray:
    """Record distribution p(k) = integral of p(k|theta0) p(theta0) dtheta0.

    One matrix-vector product per block of rows of the pmf on the theta0
    grid (``_pmf_row_blocks``), each the whole product's doubles on its rows.
    """
    g, p = _outer_grid(prior_true)
    w = g.weights * p
    marginal = np.empty(m + 1)
    for k0, block in _pmf_row_blocks(model, m, g.nodes):
        np.matmul(block, w, out=marginal[k0:k0 + len(block)])
    return marginal


@dataclass(frozen=True)
class BayesChainReport:
    """Matched-prior chain: averaged posterior variance >= aGBr >= VTB."""

    bayes_variance: float
    agbr: float
    van_trees: float


def bayes_chain_report(bayes: PosteriorMeanEstimator, m: int) -> BayesChainReport:
    """Evaluate and assert the matched-prior Bayesian bound chain under ``bayes.prior``.

    The per-tally posterior variance and Ghosh bound are averaged over the
    record distribution (``tally_marginal``).
    """
    prior, model = bayes.prior, bayes.model
    table = ghosh_table(bayes, m)
    weights = tally_marginal(prior, m, model)
    report = BayesChainReport(
        bayes_variance=float(np.sum(table.variance * weights)),
        agbr=float(np.sum(table.ghosh * weights)),
        van_trees=van_trees(prior, m, model),
    )
    check_chain([("bayes_variance", report.bayes_variance), ("agbr", report.agbr),
                 ("van_trees", report.van_trees)], f"m={m}, {prior.name}")
    return report
