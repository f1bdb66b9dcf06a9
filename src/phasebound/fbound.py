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

Bounds, from weakest to tightest:

* ``crlb`` - (d<est>/dtheta0)^2 / (m F);
* ``chrb`` - two-point Chapman-Robbins ratio, supremum over one offset;
* ``echrb`` - three-point extension with coefficients (1, A, -1); the optimal
  A is the stationary point of a ratio of quadratics, available in closed
  form, so only the two offsets are searched;
* ``barankin_at`` / ``barankin`` - optimal-coefficient bound for a family of
  test points, solved through the centred Gram system; placements are
  improved by deterministic coordinate search.

All suprema use deterministic grids plus golden-section refinement; reported
values are lower estimates of the true suprema (finite grids, finite n), and
``hierarchy_report`` seeds each bound with its predecessor's argmax so the
chain BB >= EChRB >= ChRB >= CRLB holds by construction.

The grids are evaluated as whole arrays.  Every objective handed to
``maximize_1d`` takes an array or a float: the coarse grid arrives as one
array, golden-section points as floats, and each element is computed with
the same arithmetic as a lone float would be, so the two stages agree bit for
bit.  ``chrb_objective`` (the ChRB ratio) works elementwise this way; the
Barankin coordinate objective loops over the points it is given, one
``barankin_at`` solve each.  The EChRB grid is an outer product: the
per-offset terms are computed once per axis and only the cross moment is a
full 2-D array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import GhzParityModel, ModelError, PhaseDomain, require_identifiable
from .numerics import AllNanGridError, NumericalFailure, maximize_1d, solve_spd

_CHRB_COARSE = 401             # coarse points of the ChRB supremum search
_ECHRB_GRID = 101              # points per axis of the first (lambda1, lambda2) grid
_ECHRB_REFINE_ROUNDS = 3       # zooms of the EChRB grid around its best cell
_OFFSET_SEPARATION = 1e-9      # least distance of test points from theta0 and each other
_OFFSET_FLOOR = 1e-13          # offsets below this count as the excluded lambda = 0
_CHAIN_SLACK = 1e-9            # chain-step shortfall allowed, relative below 1, absolute above


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


@dataclass(frozen=True)
class BarankinConfig:
    """Test-point family and bias handling for the Barankin-type bounds."""

    test_points: tuple = ()
    unbiased: bool = True
    mean_function: object = None

    def __post_init__(self):
        pts = tuple(float(t) for t in self.test_points)
        object.__setattr__(self, "test_points", pts)
        if len(pts) > 6:
            raise ModelError("at most 6 test points are supported")
        for i, t in enumerate(pts):
            for u in pts[i + 1:]:
                if abs(t - u) < _OFFSET_SEPARATION:
                    raise ModelError("test points must be mutually distinct by >= 1e-9")
        if not self.unbiased and self.mean_function is None:
            raise ModelError("biased bounds need a mean_function")


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


def _pair_increment(model, theta0, t1, t2, p0p, p0m):
    """s(t1, t2) - 1, the centred single-shot cross moment; exact, cancellation free."""
    d1 = model.prob_plus(t1) - p0p
    d2 = model.prob_plus(t2) - p0p
    return d1 * d2 / (p0p * p0m)


def _gram_power(m: int, increment):
    """s^m - 1 evaluated as expm1(m log1p(s-1)); maps s = 0 to -1 exactly."""
    increment = np.asarray(increment, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.expm1(m * np.log1p(increment))
    out = np.where(increment <= -1.0, -1.0, out)
    return float(out) if out.ndim == 0 else out


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


def chrb_objective(theta0: float, m: int, model: GhzParityModel, lam,
                   config: BarankinConfig | None = None,
                   domain: PhaseDomain | None = None):
    """Chapman-Robbins ratio at offset lambda (no supremum); float or array, as ``lam`` is."""
    config = config or BarankinConfig()
    domain = domain or PhaseDomain()
    p0p, p0m = _single_shot_probs(model, theta0, domain)
    return _chrb_value(theta0, m, model, lam, config, domain, p0p, p0m)


def _mean_shift(config: BarankinConfig, theta0: float, t):
    """Biased estimator-mean difference mean_function(t) - mean_function(theta0), elementwise."""
    return np.vectorize(config.mean_function, otypes=[float])(t) - config.mean_function(theta0)


def _chrb_value(theta0, m, model, lam, config, domain, p0p, p0m):
    """Two-point ratio num / (s^m - 1) at offsets ``lam``, elementwise.

    Offsets below ``_OFFSET_FLOOR`` or leaving the domain, and those with
    a non-positive denominator, give -inf; a non-finite denominator gives 0.
    Returns a float for a float ``lam`` and an array for an array.
    """
    lam = np.asarray(lam, dtype=float)
    t = theta0 + lam
    num = lam * lam if config.unbiased else _mean_shift(config, theta0, t) ** 2
    den = _gram_power(m, _pair_increment(model, theta0, t, t, p0p, p0m))
    excluded = ((np.abs(lam) < _OFFSET_FLOOR) | (t < domain.a - 1e-15)
                | (t > domain.b + 1e-15) | (den <= 0.0))
    # a NaN or infinite denominator gives num / inf = 0
    value = np.where(excluded, -np.inf, num / np.where(den > 0.0, den, np.inf))
    return float(value) if value.ndim == 0 else value


def chrb(theta0: float, m: int, model: GhzParityModel,
         config: BarankinConfig | None = None,
         domain: PhaseDomain | None = None) -> BoundReport:
    """Chapman-Robbins bound: supremum of the two-point ratio over the offset.

    The admissible offsets keep theta0 + lambda inside the phase domain and
    exclude lambda = 0.  Supremum by coarse grid plus golden-section
    refinement; the reported value is the best evaluated point, hence a lower
    estimate of the true supremum.
    """
    config = config or BarankinConfig()
    domain = domain or PhaseDomain()
    if m < 1:
        raise ModelError("m must be >= 1")
    p0p, p0m = _single_shot_probs(model, theta0, domain)
    lo, hi = domain.a - theta0, domain.b - theta0
    if hi - lo <= 2 * _OFFSET_FLOOR:
        raise NoAdmissibleOffsetError("no admissible offsets in the domain")

    def objective(lam):
        return _chrb_value(theta0, m, model, lam, config, domain, p0p, p0m)

    try:
        arg, value = maximize_1d(objective, lo, hi, coarse_points=_CHRB_COARSE)
    except AllNanGridError as exc:
        raise NoAdmissibleOffsetError("every candidate offset was excluded") from exc
    return BoundReport(name="chrb", value=value, argmax={"lambda": arg},
                       diagnostics={"coarse_points": _CHRB_COARSE})


def _echrb_grid_eval(theta0, m, model, L1, L2, config, p0p, p0m):
    """EChRB objective on offset grids, optimal A in closed form; -inf where excluded.

    ``L1`` and ``L2`` broadcast against each other: paired 1-D arrays give one
    value per pair, and a column ``l1s[:, None]`` against a row ``l2s[None, :]``
    gives the whole grid while every per-offset term is computed once per axis.
    """
    q = p0p * p0m
    d1 = model.prob_plus(theta0 + L1) - p0p
    d2 = model.prob_plus(theta0 + L2) - p0p
    c0 = _gram_power(m, d1 * d1 / q)
    c1 = _gram_power(m, d1 * d2 / q)
    c2 = _gram_power(m, d2 * d2 / q) + 1.0
    if config.unbiased:
        e1, e2 = L1, L2
    else:
        e1 = _mean_shift(config, theta0, theta0 + L1)
        e2 = _mean_shift(config, theta0, theta0 + L2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_star = (e1 * c1 - e2 * c0) / (e2 * c1 - e1 * c2)
        den = c0 + 2.0 * a_star * c1 + a_star**2 * c2
        g = np.where(den > 0.0, (e1 + a_star * e2) ** 2 / den, -np.inf)
        g_limit = np.where(c2 > 0.0, e2 * e2 / c2, -np.inf)
    g = np.fmax(np.where(np.isfinite(g), g, -np.inf),
                np.where(np.isfinite(g_limit), g_limit, -np.inf))
    bad = (np.abs(L1) < _OFFSET_FLOOR) | (np.abs(L2) < _OFFSET_FLOOR) \
        | (np.abs(L1 - L2) < _OFFSET_SEPARATION) | ~np.isfinite(c0) | (c0 <= 0.0)
    return np.where(bad, -np.inf, g), a_star


def echrb(theta0: float, m: int, model: GhzParityModel,
          config: BarankinConfig | None = None,
          domain: PhaseDomain | None = None,
          seed_lambdas=()) -> BoundReport:
    """Extended Chapman-Robbins bound over two offsets and one free coefficient.

    For each admissible (lambda1, lambda2) the inner coefficient A maximises a
    ratio of quadratics; its stationary point is taken in closed form and
    compared with the A -> infinity limit.  The offset pair is searched on a
    grid (optionally seeded with extra lambda1 candidates) and refined by
    deterministic zooming around the best cell.
    """
    config = config or BarankinConfig()
    domain = domain or PhaseDomain()
    if m < 1:
        raise ModelError("m must be >= 1")
    p0p, p0m = _single_shot_probs(model, theta0, domain)
    lo, hi = domain.a - theta0, domain.b - theta0

    l1s = l2s = np.linspace(lo, hi, _ECHRB_GRID)
    if len(seed_lambdas):
        l1s = np.unique(np.concatenate([l2s, np.asarray(seed_lambdas, dtype=float)]))

    best = (-math.inf, math.nan, math.nan)
    for round_idx in range(_ECHRB_REFINE_ROUNDS + 1):
        g, _ = _echrb_grid_eval(theta0, m, model, l1s[:, None], l2s[None, :],
                                config, p0p, p0m)
        if np.all(g == -np.inf):
            if round_idx == 0:
                raise NoAdmissibleOffsetError("every (lambda1, lambda2) cell was excluded")
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
    _, a_star = _echrb_grid_eval(theta0, m, model, np.asarray([l1]), np.asarray([l2]),
                                 config, p0p, p0m)
    return BoundReport(
        name="echrb", value=value,
        argmax={"lambda1": l1, "lambda2": l2, "a_coefficient": float(a_star[0])},
        diagnostics={"grid_points": _ECHRB_GRID, "refine_rounds": _ECHRB_REFINE_ROUNDS})


def barankin_at(theta0: float, m: int, model: GhzParityModel, test_points,
                config: BarankinConfig | None = None,
                domain: PhaseDomain | None = None) -> BoundReport:
    """Barankin-type bound for a fixed test-point family, optimal coefficients.

    With the centred ratios (L_i - 1), the optimal coefficients solve
    B a = d with B_ij = E[(L_i - 1)(L_j - 1)] = s(t_i, t_j)^m - 1 and
    d_i = t_i - theta0 (or mean differences for biased estimators); the value
    is the quadratic form d^T B^{-1} d.  A single test point reproduces the
    Chapman-Robbins ratio at that offset.  Ill-conditioning is repaired by a
    ridge (which can only lower the value, keeping it a valid bound) and
    reported in the diagnostics.
    """
    config = config or BarankinConfig()
    domain = domain or PhaseDomain()
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
    for i in range(n):
        for j in range(i + 1, n):
            if abs(pts[i] - pts[j]) < _OFFSET_SEPARATION:
                raise ModelError("test points must be mutually distinct by >= 1e-9")

    B = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            B[i, j] = B[j, i] = _gram_power(
                m, _pair_increment(model, theta0, pts[i], pts[j], p0p, p0m))
    d = np.array(pts) - theta0 if config.unbiased else _mean_shift(config, theta0, np.array(pts))
    sol = solve_spd(B, d)
    return BoundReport(
        name="barankin", value=max(sol.quadratic_form, 0.0),
        argmax={"test_points": pts, "coefficients": tuple(sol.coefficients)},
        diagnostics={"condition": sol.condition, "ridge_used": sol.ridge_used,
                     "ill_conditioned": sol.ill_conditioned})


def barankin(theta0: float, m: int, model: GhzParityModel,
             config: BarankinConfig,
             domain: PhaseDomain | None = None) -> BoundReport:
    """Barankin bound with the test-point placement improved by coordinate search.

    Starts from ``config.test_points``, then re-optimises one test point at a
    time with a 25-point grid-plus-golden search, for at most two sweeps over
    the points.  Deterministic throughout; the result is a lower estimate of
    the supremum over placements of this family size.
    """
    domain = domain or PhaseDomain()
    require_identifiable(model, domain)     # evaluate() below turns ModelError into -inf
    if not config.test_points:
        raise ModelError("config.test_points must provide an initial placement")

    def evaluate(pts) -> float:
        try:
            return barankin_at(theta0, m, model, pts, config, domain).value
        except (ModelError, NumericalFailure):
            return -math.inf

    pts = list(config.test_points)
    val = evaluate(pts)
    if not math.isfinite(val):
        raise NoAdmissibleOffsetError("no admissible test-point placement found")
    for _ in range(2):
        improved = False
        for i in range(len(pts)):
            def coord_obj(ts, _i=i, _pts=pts):
                # one barankin_at solve per candidate, for a float or an array
                vals = [evaluate(_pts[:_i] + [float(t)] + _pts[_i + 1:])
                        for t in np.atleast_1d(ts)]
                return vals[0] if np.ndim(ts) == 0 else np.array(vals)

            try:
                arg, v = maximize_1d(coord_obj, domain.a, domain.b, coarse_points=25)
            except AllNanGridError:
                continue
            if v > val + 1e-12 * max(1.0, abs(val)):
                pts[i] = arg
                val = v
                improved = True
        if not improved:
            break
    return barankin_at(theta0, m, model, pts, config, domain)


def _admissible_seed(lam: float, lo: float, hi: float, sep: float) -> float:
    """Push an offset away from zero and into [lo, hi] by at least ``sep``."""
    if abs(lam) < sep:
        lam = sep if hi >= sep else -sep
    return min(max(lam, lo), hi)


def hierarchy_report(theta0: float, m: int, model: GhzParityModel,
                     domain: PhaseDomain | None = None) -> list[BoundReport]:
    """All four unbiased bounds, ordered [barankin, echrb, chrb, crlb].

    Each bound's search is seeded with the previous argmax, so the chain
    BB >= EChRB >= ChRB >= CRLB holds by construction up to solver slack;
    a violation beyond ``check_chain``'s slack raises ``HierarchyViolationError``
    naming the offending pair.
    """
    domain = domain or PhaseDomain()
    config = BarankinConfig()
    crlb_report = crlb(theta0, m, model)
    chrb_report = chrb(theta0, m, model, config, domain)
    echrb_report = echrb(theta0, m, model, config, domain,
                         seed_lambdas=[chrb_report.argmax["lambda"]])

    lo, hi = domain.a - theta0, domain.b - theta0
    sep = _OFFSET_SEPARATION
    l1 = _admissible_seed(echrb_report.argmax["lambda1"], lo, hi, sep)
    l2 = _admissible_seed(echrb_report.argmax["lambda2"], lo, hi, sep)
    if abs(l1 - l2) < sep:
        l2 = _admissible_seed(l2 + (2 * sep if l2 + 2 * sep <= hi else -2 * sep), lo, hi, sep)
    try:
        bb_report = barankin(theta0, m, model,
                             BarankinConfig(test_points=(theta0 + l1, theta0 + l2)),
                             domain)
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
