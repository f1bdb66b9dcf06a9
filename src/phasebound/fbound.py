"""Frequentist lower bounds on estimator variance at a fixed true phase.

The family is built from likelihood ratios L(mu | t, theta0) between test
phases t and the true phase theta0.  For m independent shots of a binary
outcome, every second moment of likelihood ratios factorises over shots, so
all Gram entries reduce to

    E[L(t_i) L(t_j)] = s(t_i, t_j)^m,
    s(t_i, t_j) = 1 + (p_+(t_i) - p_+(theta0)) (p_+(t_j) - p_+(theta0)) / (p_+ p_-)(theta0),

and the centred entries E[(L_i - 1)(L_j - 1)] = s^m - 1 are evaluated as
expm1(m * log1p(s - 1)): exact even when the offsets shrink to zero, which is
where the suprema migrate as m grows.

Bounds, from weakest to tightest.  ``chrb``, ``echrb`` and the Barankin
bounds hold for unbiased estimators; bias enters only through ``crlb``'s
``bias_derivative``.

* ``crlb`` - (d<est>/dtheta0)^2 / (m F);
* ``chrb`` - two-point Chapman-Robbins ratio, supremum over one offset;
* ``echrb`` - three-point extension with coefficients (1, A, -1); the optimal
  A is the stationary point of a ratio of quadratics, available in closed
  form, so only the two offsets are searched;
* ``barankin_at`` / ``barankin`` - optimal-coefficient bound for a family of
  test points, solved through the centred Gram system; placements are
  improved by deterministic coordinate search.

ChRB and the Barankin coordinate search use a deterministic grid plus
golden-section refinement, and EChRB zooms its grid around the best cell.
Reported values are lower estimates of the true suprema (finite grids,
finite n).  ChRB and EChRB are raised to the CRLB, the lambda -> 0 limit
both families hold, where their search falls short of it, and
``hierarchy_report`` seeds each bound with its predecessor's argmax, so the
chain BB >= EChRB >= ChRB >= CRLB holds by construction.

Every search is batched over a block of sample sizes.  ``chrb_block`` hands
``maximize_1d`` one search per m, all on the one offset interval, and their
golden-section brackets step in lock-step, so each step is one array
evaluation of the whole block;
``echrb_block`` runs its zoom rounds and its final coefficient evaluation
over the whole block at once.  ``chrb`` and ``echrb`` are the blocks of one.
Every objective takes arrays only, computes each element with the same
arithmetic whatever the array's shape, and is evaluated in row chunks of at
most ``_SEARCH_CELLS`` cells.  The EChRB grid is an outer product: the
per-offset terms are computed once per axis and only the cross moment is a
full 2-D array; its first grid, its zoom rounds and its final coefficient
share one objective, ``_echrb_grid_eval``.  The Barankin coordinate search
evaluates each batch of candidate placements as one stack of Gram systems
(``solve_spd_stack``); ``barankin_at`` is that stack with one placement,
through ``solve_spd``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import GhzParityModel, ModelError, PhaseDomain, require_identifiable
from .numerics import AllNanGridError, NumericalFailure, maximize_1d, solve_spd, solve_spd_stack

_CHRB_COARSE = 401             # coarse points of the ChRB supremum search
_ECHRB_GRID = 101              # points per axis of the first (lambda1, lambda2) grid
_ECHRB_REFINE_ROUNDS = 3       # zooms of the EChRB grid around its best cell
_OFFSET_SEPARATION = 1e-9      # least distance of test points from theta0 and each other
_OFFSET_FLOOR = 1e-13          # offsets below this count as the excluded lambda = 0
_CHAIN_SLACK = 1e-9            # chain-step shortfall allowed, relative below 1, absolute above
_SEARCH_CELLS = 1 << 12        # cells of one row chunk of a batched search evaluation


class NoAdmissibleOffsetError(NumericalFailure):
    """No test phase keeps the likelihood ratio defined and distinct."""


class HierarchyViolationError(NumericalFailure):
    """A bound chain inequality failed beyond the optimizer slack."""


def check_chain(chain, cell: str) -> None:
    """Assert an ordered [(name, value), ...] chain, each value >= the next.

    A step u >= v may fall short by ``_CHAIN_SLACK * min(1, max(|u|, |v|))``:
    relative for values below 1, where the bounds of a concentrated prior
    live, and absolute above.  A larger gap raises ``HierarchyViolationError``
    naming both bounds, their values and ``cell``.
    """
    for (upper, u), (lower, v) in zip(chain, chain[1:]):
        slack = _CHAIN_SLACK * min(1.0, max(abs(u), abs(v)))
        if u - v < -slack:
            raise HierarchyViolationError(
                f"{upper}={u!r} < {lower}={v!r} beyond slack {slack:.3g} at {cell}")


@dataclass(frozen=True)
class BoundReport:
    """One named bound value with its optimizer coordinates and diagnostics."""

    name: str
    value: float
    argmax: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def _single_shot_probs(model: GhzParityModel, theta0: float,
                       domain: PhaseDomain) -> tuple[float, float]:
    """p_+ and p_- at theta0, after checking that ``domain`` is identifiable."""
    require_identifiable(model, domain)
    p0p = float(model.prob_plus(theta0))
    p0m = 1.0 - p0p
    if p0p <= 0.0 or p0m <= 0.0:
        raise NoAdmissibleOffsetError(
            f"theta0={theta0} gives a deterministic outcome; likelihood ratios undefined")
    return p0p, p0m


def _gram_power(m, increment):
    """s^m - 1 evaluated as expm1(m log1p(s-1)); maps s <= 0 to -1 exactly; ``m`` broadcasts.

    s <= 0 gives log1p(-1) = -inf, and then expm1(-inf) = -1.
    """
    with np.errstate(divide="ignore", over="ignore"):
        return np.expm1(m * np.log1p(np.maximum(increment, -1.0)))


def _sample_sizes(ms) -> np.ndarray:
    ms = np.asarray(ms, dtype=np.int64)
    if ms.ndim != 1 or ms.size == 0 or np.any(ms < 1):
        raise ModelError("m must be >= 1")
    return ms


def _row_chunks(rows: int, cells_per_row: int) -> list[slice]:
    """Slices over ``rows`` rows of at most ``_SEARCH_CELLS`` cells each (one row at least)."""
    step = max(1, _SEARCH_CELLS // max(cells_per_row, 1))
    return [slice(i, i + step) for i in range(0, rows, step)]


def crlb(theta0: float, m: int, model: GhzParityModel,
         bias_derivative: float = 1.0) -> BoundReport:
    """Cramer-Rao bound (d<est>/dtheta0)^2 / (m F(theta0)); unbiased form by default."""
    if m < 1:
        raise ModelError("m must be >= 1")
    fisher = float(model.fisher_information(theta0))
    if fisher <= 0.0:
        raise NumericalFailure("F(theta0) = 0: Cramer-Rao bound undefined")
    value = bias_derivative**2 / (m * fisher)
    return BoundReport(name="crlb", value=value,
                       argmax={"bias_derivative": float(bias_derivative)},
                       diagnostics={"fisher_information": fisher})


def _chrb_value(theta0, m, model, lam, domain, p0p, p0m):
    """Two-point ratio lambda^2 / (s^m - 1) at offsets ``lam``, elementwise; ``m`` broadcasts.

    Offsets below ``_OFFSET_FLOOR`` or leaving the domain, and those with
    a non-positive denominator, give -inf; a non-finite denominator gives 0.
    """
    lam = np.asarray(lam, dtype=float)
    t = theta0 + lam
    d = model.prob_plus(t) - p0p
    den = _gram_power(m, d * d / (p0p * p0m))
    excluded = ((np.abs(lam) < _OFFSET_FLOOR) | (t < domain.a - 1e-15)
                | (t > domain.b + 1e-15) | (den <= 0.0))
    # a NaN or infinite denominator gives lambda^2 / inf = 0
    return np.where(excluded, -np.inf, lam * lam / np.where(den > 0.0, den, np.inf))


def _crlb_floored(name, values, argmaxes, theta0, ms, model) -> list[BoundReport]:
    """One report per row, raised to the CRLB 1/(m F(theta0)) where the search fell short of it.

    The ChRB and EChRB families hold the lambda -> 0 limit of the two-point
    ratio, which is the CRLB.  On the domain's edge that limit is their
    supremum, and p_+(theta0 + lambda) - p_+(theta0) cancels near it, so the
    search's best falls short.  A raised report keeps the best evaluated
    point as its argmax and records ``floored_by: "crlb"``.
    """
    floors = [crlb(theta0, int(m), model).value for m in ms]
    return [BoundReport(name=name, value=float(max(v, f)), argmax=arg,
                        diagnostics={"floored_by": "crlb"} if v < f else {})
            for v, f, arg in zip(values, floors, argmaxes)]


def chrb(theta0: float, m: int, model: GhzParityModel,
         domain: PhaseDomain = PhaseDomain()) -> BoundReport:
    """Chapman-Robbins bound: supremum of the two-point ratio over the offset.

    The admissible offsets keep theta0 + lambda inside the phase domain and
    exclude lambda = 0.  Supremum by coarse grid plus golden-section
    refinement; the reported value is the best evaluated point, or the
    lambda -> 0 limit 1/(m F(theta0)) where that is larger, hence a lower
    estimate of the true supremum.  ``chrb_block`` at one sample size.
    """
    return chrb_block(theta0, [m], model, domain)[0]


def chrb_block(theta0: float, ms, model: GhzParityModel,
               domain: PhaseDomain = PhaseDomain()) -> list[BoundReport]:
    """``chrb`` at every sample size of ``ms``, one report each, searched in lock-step.

    Row k of each search array is the offset search at ``ms[k]``; each row
    reaches the argmax and value that a search at that m alone reaches.  A row
    whose every offset is excluded raises ``NoAdmissibleOffsetError`` naming
    its m and theta0.
    """
    ms = _sample_sizes(ms)
    p0p, p0m = _single_shot_probs(model, theta0, domain)
    lo, hi = domain.a - theta0, domain.b - theta0
    if hi - lo <= 2 * _OFFSET_FLOOR:
        raise NoAdmissibleOffsetError(f"no admissible offsets in the domain at theta0={theta0!r}")

    def objective(lam):
        m_col = ms.reshape((-1,) + (1,) * (lam.ndim - 1))
        out = np.empty(lam.shape)
        for rows in _row_chunks(len(lam), lam[0].size):
            out[rows] = _chrb_value(theta0, m_col[rows], model, lam[rows], domain, p0p, p0m)
        return out

    try:
        args, values = maximize_1d(objective, lo, hi, ms.size, coarse_points=_CHRB_COARSE)
    except AllNanGridError as exc:
        raise NoAdmissibleOffsetError(
            f"every candidate offset was excluded at m={int(ms[exc.rows[0]])}, "
            f"theta0={theta0!r}") from exc
    return _crlb_floored("chrb", values, [{"lambda": float(a)} for a in args],
                         theta0, ms, model)


def _echrb_grid_eval(theta0, m, model, L1, L2, p0p, p0m):
    """EChRB objective and optimal A at offsets (L1, L2); the objective is -inf where excluded.

    ``L1``, ``L2`` and ``m`` broadcast together and every value is elementwise:
    paired 1-D arrays give one value per pair, and a column ``l1s[:, None]``
    against a row ``l2s[None, :]`` gives the whole grid while every
    per-offset term is computed once per axis.  The moments are
    c0 = s_11^m - 1, c1 = s_12^m - 1 and c2 = s_22^m.
    """
    q = p0p * p0m
    d1 = model.prob_plus(theta0 + L1) - p0p
    d2 = model.prob_plus(theta0 + L2) - p0p
    c0 = _gram_power(m, d1 * d1 / q)
    c1 = _gram_power(m, d1 * d2 / q)
    c2 = _gram_power(m, d2 * d2 / q) + 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_star = (L1 * c1 - L2 * c0) / (L2 * c1 - L1 * c2)
        den = c0 + 2.0 * a_star * c1 + a_star**2 * c2
        g = np.where(den > 0.0, (L1 + a_star * L2) ** 2 / den, -np.inf)
        g_limit = np.where(c2 > 0.0, L2 * L2 / c2, -np.inf)
    g = np.fmax(np.where(np.isfinite(g), g, -np.inf),
                np.where(np.isfinite(g_limit), g_limit, -np.inf))
    bad = (np.abs(L1) < _OFFSET_FLOOR) | (np.abs(L2) < _OFFSET_FLOOR) \
        | (np.abs(L1 - L2) < _OFFSET_SEPARATION) | ~np.isfinite(c0) | (c0 <= 0.0)
    return np.where(bad, -np.inf, g), a_star


def echrb(theta0: float, m: int, model: GhzParityModel,
          domain: PhaseDomain = PhaseDomain(),
          seed_lambdas=()) -> BoundReport:
    """Extended Chapman-Robbins bound over two offsets and one free coefficient.

    For each admissible (lambda1, lambda2) the inner coefficient A maximises a
    ratio of quadratics; its stationary point is taken in closed form and
    compared with the A -> infinity limit.  The offset pair is searched on a
    grid (optionally seeded with extra lambda1 candidates, each of which must
    keep theta0 + lambda1 in the domain) and refined by deterministic zooming
    around the best cell; as in ``chrb``, a value below the lambda -> 0 limit
    1/(m F(theta0)) is raised to it.  ``echrb_block`` at one sample size.
    """
    return echrb_block(theta0, [m], model, domain, [seed_lambdas])[0]


def echrb_block(theta0: float, ms, model: GhzParityModel,
                domain: PhaseDomain = PhaseDomain(),
                seed_lambdas=None) -> list[BoundReport]:
    """``echrb`` at every sample size of ``ms``; ``seed_lambdas[k]`` seeds the search at ``ms[k]``.

    Every value comes from ``_echrb_grid_eval``: the first grid of each m
    (``_ECHRB_GRID`` points per axis plus its seeds on the lambda1 axis) is
    evaluated m by m, and the 21 x 21 zoom rounds and the final coefficient
    evaluation run over the whole block, in row chunks.  A row whose zoom
    grid is wholly excluded stops refining, as a lone search would.  A row
    whose first grid is wholly excluded raises ``NoAdmissibleOffsetError``
    naming its m and theta0.
    """
    ms = _sample_sizes(ms)
    p0p, p0m = _single_shot_probs(model, theta0, domain)
    lo, hi = domain.a - theta0, domain.b - theta0
    seed_rows = [()] * ms.size if seed_lambdas is None else list(seed_lambdas)
    if len(seed_rows) != ms.size:
        raise ModelError(f"{len(seed_rows)} seed rows for {ms.size} sample sizes")

    grid = np.linspace(lo, hi, _ECHRB_GRID)
    best = np.empty((3, ms.size))             # value, lambda1, lambda2 of each row
    spans = np.empty((2, ms.size))            # cell widths of each row's last grid
    for k, (m, seeds) in enumerate(zip(ms, seed_rows)):
        seeds = np.asarray(seeds, dtype=float)
        # the test point theta0 + lambda1 must lie in the domain, as in barankin_at
        if not np.all((seeds >= lo - 1e-15) & (seeds <= hi + 1e-15)):
            raise ModelError(f"seed offsets {seeds.tolist()} put a test point outside the "
                             f"phase domain [{domain.a}, {domain.b}]")
        # the grid and its seeds, sorted and deduplicated; np.unique would import numpy.ma
        l1s = np.sort(np.concatenate([grid, seeds]))
        l1s = l1s[np.concatenate(([True], l1s[1:] != l1s[:-1]))]
        g, _ = _echrb_grid_eval(theta0, m, model, l1s[:, None], grid[None, :], p0p, p0m)
        if np.all(g == -np.inf):
            raise NoAdmissibleOffsetError(
                f"every (lambda1, lambda2) cell was excluded at m={int(m)}, theta0={theta0!r}")
        i, j = np.unravel_index(int(np.argmax(g)), g.shape)
        best[:, k] = g[i, j], l1s[i], grid[j]
        spans[:, k] = ((l1s[-1] - l1s[0]) / max(l1s.size - 1, 1),
                       (grid[-1] - grid[0]) / max(grid.size - 1, 1))

    alive = np.ones(ms.size, dtype=bool)
    for _ in range(_ECHRB_REFINE_ROUNDS):
        l1s, l2s = (np.linspace(np.maximum(lo, centre - span), np.minimum(hi, centre + span),
                                21, axis=-1)
                    for centre, span in zip(best[1:], spans))
        for rows in _row_chunks(ms.size, 21 * 21):
            g, _ = _echrb_grid_eval(theta0, ms[rows, None, None], model, l1s[rows, :, None],
                                    l2s[rows, None, :], p0p, p0m)
            g = g.reshape(g.shape[0], -1)
            flat = np.argmax(g, axis=1)
            top = g[np.arange(g.shape[0]), flat]
            better = alive[rows] & (top > best[0, rows])
            i, j = np.divmod(flat, 21)
            r = np.arange(g.shape[0])
            best[:, rows] = np.where(better, (top, l1s[rows][r, i], l2s[rows][r, j]),
                                     best[:, rows])
            # a wholly excluded zoom grid ends that row's refinement
            alive[rows] &= top != -np.inf
        spans = np.stack([(l1s[:, -1] - l1s[:, 0]) / 20, (l2s[:, -1] - l2s[:, 0]) / 20])

    _, a_star = _echrb_grid_eval(theta0, ms, model, best[1], best[2], p0p, p0m)
    return _crlb_floored("echrb", best[0],
                         [{"lambda1": float(l1), "lambda2": float(l2), "a_coefficient": float(a)}
                          for l1, l2, a in zip(best[1], best[2], a_star)],
                         theta0, ms, model)


def barankin_at(theta0: float, m: int, model: GhzParityModel, test_points,
                domain: PhaseDomain = PhaseDomain()) -> BoundReport:
    """Barankin-type bound for a fixed test-point family, optimal coefficients.

    With the centred ratios (L_i - 1), the optimal coefficients solve
    B a = d with B_ij = E[(L_i - 1)(L_j - 1)] = s(t_i, t_j)^m - 1 and
    d_i = t_i - theta0; the value is the quadratic form d^T B^{-1} d.  A
    single test point reproduces the Chapman-Robbins ratio at that offset.
    Ill-conditioning is repaired by a ridge (which can only lower the value,
    keeping it a valid bound) and reported in the diagnostics.
    """
    pts = tuple(float(t) for t in test_points)
    n = len(pts)
    if not 1 <= n <= 6:
        raise ModelError("between 1 and 6 test points are required")
    p0p, p0m = _single_shot_probs(model, theta0, domain)
    for t in pts:
        if t < domain.a - 1e-15 or t > domain.b + 1e-15:
            raise ModelError(f"test point {t} outside the phase domain")
        if abs(t - theta0) < _OFFSET_SEPARATION:
            raise ModelError("test points must differ from theta0 by >= 1e-9")
    t = np.array(pts)
    # the closest pair of points is adjacent in sorted order
    if np.any(np.diff(np.sort(t)) < _OFFSET_SEPARATION):
        raise ModelError("test points must be mutually distinct by >= 1e-9")

    sol = solve_spd(_gram_stack(theta0, m, model, t[None], p0p, p0m)[0], t - theta0)
    return BoundReport(
        name="barankin", value=max(sol.quadratic_form, 0.0),
        argmax={"test_points": pts, "coefficients": tuple(sol.coefficients)},
        diagnostics={"condition": sol.condition, "ridge_used": sol.ridge_used,
                     "ill_conditioned": sol.ill_conditioned})


def _gram_stack(theta0, m, model, placements, p0p, p0m):
    """Centred Gram matrices s(t_i, t_j)^m - 1 of the (K, n) placements: shape (K, n, n).

    Entry by entry the arithmetic of ``_chrb_value``'s increment and ``_gram_power``.
    """
    d = model.prob_plus(placements) - p0p
    return _gram_power(m, d[:, :, None] * d[:, None, :] / (p0p * p0m))


def _barankin_values(theta0, m, model, placements, p0p, p0m):
    """``barankin_at``'s value for each of the (K, n) placements, as one stacked solve.

    A placement with a point closer than ``_OFFSET_SEPARATION`` to theta0 or
    to another point, a non-finite Gram matrix (s^m overflows for far points
    at large m) or no finite solution scores -inf instead of raising.  The
    points must lie in the domain.
    """
    gram = _gram_stack(theta0, m, model, placements, p0p, p0m)
    # |t - theta0| and the gaps between points are the gaps of the sorted row with theta0
    ordered = np.sort(np.concatenate([placements, np.full((len(placements), 1), theta0)], axis=1))
    too_close = (ordered[:, 1:] - ordered[:, :-1]).min(axis=1) < _OFFSET_SEPARATION
    if np.count_nonzero(too_close):
        gram[too_close] = np.nan
    form = np.maximum(solve_spd_stack(gram, placements - theta0).quadratic_form, 0.0)
    form[np.isnan(form)] = -np.inf
    return form


def barankin(theta0: float, m: int, model: GhzParityModel, test_points,
             domain: PhaseDomain = PhaseDomain()) -> BoundReport:
    """Barankin bound with the test-point placement improved by coordinate search.

    Starts from ``test_points``, which ``barankin_at`` validates, then
    re-optimises one test point at a time with a 25-point grid-plus-golden
    search, for at most two sweeps over the points.  Each search evaluates
    its candidate placements as one stack (``_barankin_values``).
    Deterministic throughout; the result is a lower estimate of the supremum
    over placements of this family size.
    """
    start = barankin_at(theta0, m, model, test_points, domain)
    p0p, p0m = _single_shot_probs(model, theta0, domain)

    pts = np.array(start.argmax["test_points"])
    val = start.value
    for _ in range(2):
        improved = False
        for i in range(pts.size):
            def coord_obj(ts, _moved=np.arange(pts.size) == i, _pts=pts.copy()):
                # one placement per candidate: point i at the candidate, the others fixed
                placements = np.where(_moved, ts.reshape(-1, 1), _pts)
                return _barankin_values(theta0, m, model, placements, p0p, p0m).reshape(ts.shape)

            try:
                arg, v = maximize_1d(coord_obj, domain.a, domain.b, 1, coarse_points=25)
            except AllNanGridError:
                continue
            if v[0] > val + 1e-12 * max(1.0, abs(val)):
                pts[i] = arg[0]
                val = float(v[0])
                improved = True
        if not improved:
            break
    return barankin_at(theta0, m, model, pts, domain)


def _admissible_seed(lam: float, lo: float, hi: float, sep: float) -> float:
    """Push an offset away from zero and into [lo, hi] by at least ``sep``."""
    if abs(lam) < sep:
        lam = sep if hi >= sep else -sep
    return min(max(lam, lo), hi)


def hierarchy_report(theta0: float, m: int, model: GhzParityModel,
                     domain: PhaseDomain = PhaseDomain()) -> list[BoundReport]:
    """All four unbiased bounds, ordered [barankin, echrb, chrb, crlb].

    Each bound's search is seeded with the previous argmax, so the chain
    BB >= EChRB >= ChRB >= CRLB holds by construction up to solver slack;
    a violation beyond ``check_chain``'s slack raises ``HierarchyViolationError``
    naming the offending pair.
    """
    crlb_report = crlb(theta0, m, model)
    chrb_report = chrb(theta0, m, model, domain)
    echrb_report = echrb(theta0, m, model, domain,
                         seed_lambdas=[chrb_report.argmax["lambda"]])

    lo, hi = domain.a - theta0, domain.b - theta0
    sep = _OFFSET_SEPARATION
    l1 = _admissible_seed(echrb_report.argmax["lambda1"], lo, hi, sep)
    l2 = _admissible_seed(echrb_report.argmax["lambda2"], lo, hi, sep)
    if abs(l1 - l2) < sep:
        l2 = _admissible_seed(l2 + (2 * sep if l2 + 2 * sep <= hi else -2 * sep), lo, hi, sep)
    try:
        bb_report = barankin(theta0, m, model, (theta0 + l1, theta0 + l2), domain)
    except (ModelError, NumericalFailure):
        bb_report = BoundReport(name="barankin", value=-math.inf)
    if bb_report.value < echrb_report.value:
        # the ridge can only underestimate; EChRB is itself a valid lower
        # estimate of the Barankin supremum, so take the better of the two
        bb_report = BoundReport(name="barankin", value=echrb_report.value,
                                argmax=dict(echrb_report.argmax),
                                diagnostics={**bb_report.diagnostics, "floored_by": "echrb"})

    reports = [bb_report, echrb_report, chrb_report, crlb_report]
    check_chain([(r.name, r.value) for r in reports], f"m={m}, theta0={theta0!r}")
    return reports
