"""Shared numerical kernel: quadrature, supremum search, SPD solves, priors.

Composite Simpson quadrature is used everywhere, on fixed node sets: the
posterior integrals on the prior's grid, and the theta0 integrals of
``rbound`` on their own 201-node grid.  Fixed grids keep the emitted numbers
bit-stable.  Grid sizes and tolerances are fixed module constants, each in
the module that reads it; the three shared ones, ``POSTERIOR_NODES``,
``DERIVATIVE_NOISE_REL`` and ``_PRIOR_MASS_TOL``, live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelError, PhaseDomain


class NumericalFailure(RuntimeError):
    """A computation produced non-finite or non-integrable values."""


class AllNanGridError(NumericalFailure):
    """Every coarse-grid sample of an objective was invalid, in the search rows ``rows``."""

    def __init__(self, message: str, rows=()):
        super().__init__(message)
        self.rows = tuple(rows)


class IndefiniteMatrixError(NumericalFailure):
    """A Gram matrix stayed indefinite even after ridge repair."""


class NonIntegrablePriorError(NumericalFailure):
    """Prior Fisher information does not exist (zero density, nonzero slope)."""


POSTERIOR_NODES = 2001          # Simpson nodes of the default posterior/prior grid
DERIVATIVE_NOISE_REL = 1e-12    # |p'| below this (relative to max |p'|) counts as vanishing
_PRIOR_MASS_TOL = 1e-10         # largest |prior mass on a grid - 1| that still resolves the prior
_GOLDEN_REL_TOL = 1e-10         # golden-section bracket width, relative to the interval
_RIDGE_SCALE = 1e-12            # Tikhonov ridge, times trace(B)/n
_CONDITION_CAP = 1e12           # condition number above which the ridge engages


@dataclass(frozen=True)
class QuadratureGrid:
    """Composite-Simpson nodes and weights on [a, b]; node count odd, >= 3."""

    a: float
    b: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @classmethod
    def simpson(cls, a: float, b: float, node_count: int = POSTERIOR_NODES) -> "QuadratureGrid":
        if node_count < 3 or node_count % 2 == 0:
            raise ModelError(f"Simpson grid needs an odd node count >= 3, got {node_count}")
        if not a < b:
            raise ModelError(f"grid requires a < b, got [{a}, {b}]")
        nodes = np.linspace(a, b, node_count)
        h = (b - a) / (node_count - 1)
        w = np.ones(node_count)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= h / 3.0
        nodes.flags.writeable = False
        w.flags.writeable = False
        return cls(a=a, b=b, nodes=nodes, weights=w)

    @property
    def node_count(self) -> int:
        return self.nodes.size


def integrate(values, grid: QuadratureGrid) -> float:
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ModelError("values length does not match the grid")
    if not np.all(np.isfinite(values)):
        raise NumericalFailure("non-finite integrand values")
    return float(np.sum(grid.weights * values))


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def maximize_1d(f, lo: float, hi: float, searches: int,
                coarse_points: int) -> tuple[np.ndarray, np.ndarray]:
    """``searches`` supremum searches on [lo, hi] in lock-step: coarse grid, then golden section.

    Deterministic.  Row k of every array passed to ``f`` belongs to search k.
    ``f`` is called only with arrays and returns one value per point,
    elementwise: once with the one coarse grid of ``coarse_points`` points,
    broadcast (read-only) to shape (``searches``, ``coarse_points``), then
    once per golden-section step with one point per search, shape
    (``searches``,).  It may return -inf or NaN to exclude a point; the
    coarse array it returns may be overwritten.  Every row takes the
    comparisons and updates of a lone scalar search; a row whose bracket has
    already shrunk below the tolerance keeps its state while the others
    step, and its value at those steps is ignored.  Returns the
    (``searches``,) argmaxes and values, each the best sample of its row, so
    never below that row's coarse-grid maximum.  A row whose whole coarse
    grid is invalid raises ``AllNanGridError`` naming the rows.
    """
    if not lo < hi:
        raise ModelError(f"search interval requires lo < hi, got [{lo}, {hi}]")
    rows = np.arange(searches)
    xs = np.broadcast_to(np.linspace(lo, hi, coarse_points), (searches, coarse_points))
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        raise ModelError(f"objective returned shape {vals.shape} for points of shape {xs.shape}")
    if not vals.flags.writeable:
        vals = vals.copy()
    invalid = np.isfinite(vals)
    np.logical_not(invalid, out=invalid)
    vals[invalid] = -np.inf
    i = np.argmax(vals, axis=1)
    xs_seen, vals_seen = [xs[rows, i]], [vals[rows, i]]   # each row's samples, in order
    dead = np.flatnonzero(vals_seen[0] == -np.inf)
    if dead.size:
        raise AllNanGridError("objective invalid on the whole coarse grid", rows=dead.tolist())
    a = xs[rows, np.maximum(i - 1, 0)]
    b = xs[rows, np.minimum(i + 1, coarse_points - 1)]

    def sample(x):
        """f at x, each non-finite value mapped to -inf: an excluded point."""
        v = np.asarray(f(x), dtype=float)
        v = np.where(np.isfinite(v), v, -np.inf)
        xs_seen.append(x)
        vals_seen.append(v)
        return v

    refine_tol = _GOLDEN_REL_TOL * (hi - lo)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = sample(c), sample(d)
    active = b - a > refine_tol
    while np.any(active):
        # the bracket moves left where f(c) beats f(d)
        left = fc > fd
        a_new, b_new = np.where(left, a, c), np.where(left, d, b)
        step = _INVPHI * (b_new - a_new)
        x = np.where(left, b_new - step, a_new + step)
        fx = sample(x)
        vals_seen[-1] = np.where(active, fx, -np.inf)   # a finished row ignores this step
        # left: b, d, fd = d, c, fc and x is the new c; right: a, c, fc = c, d, fd and x is d
        state = (a_new, b_new, np.where(left, x, d), np.where(left, fx, fd),
                 np.where(left, c, x), np.where(left, fc, fx))
        a, b, c, fc, d, fd = (np.where(active, new, old)
                              for new, old in zip(state, (a, b, c, fc, d, fd)))
        active = b - a > refine_tol
    # the first best sample of each row: a scalar search keeps a sample only if it beats its best
    best = np.argmax(vals_seen, axis=0)
    return np.asarray(xs_seen)[best, rows], np.asarray(vals_seen)[best, rows]


@dataclass(frozen=True)
class SpdSolution:
    coefficients: np.ndarray
    quadratic_form: float
    condition: float
    ridge_used: bool
    ill_conditioned: bool


@dataclass(frozen=True)
class SpdStack:
    """Row-wise solutions of a stack of systems; a row that could not be solved
    (non-finite input, non-positive ridge, singular even with the ridge, or a
    non-finite quadratic form) has quadratic form NaN."""

    coefficients: np.ndarray     # (K, n)
    quadratic_form: np.ndarray   # (K,)
    condition: np.ndarray        # (K,), NaN where the matrix is non-finite
    ridge_used: np.ndarray       # (K,) bool
    ill_conditioned: np.ndarray  # (K,) bool


def _solve_rows(matrices, rhs) -> np.ndarray:
    """B[k]^-1 d[k] for every row; NaN rows where B[k] is singular."""
    try:
        return np.linalg.solve(matrices, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for k in range(rhs.shape[0]):
            try:
                out[k] = np.linalg.solve(matrices[k], rhs[k])
            except np.linalg.LinAlgError:
                pass
        return out


def _forms(rhs, coefficients) -> np.ndarray:
    """d[k]^T a[k] for every row, each as the dot product ``d @ a`` of one row."""
    return np.matmul(rhs[:, None, :], coefficients[:, :, None])[:, 0, 0]


def solve_spd_stack(matrices, rhs) -> SpdStack:
    """Solve B[k] a = d[k] for a (K, n, n) stack of symmetric matrices, with ridge fallback.

    Row by row this is ``solve_spd``, with the same arithmetic: a row whose B
    is not numerically SPD (smallest eigenvalue <= 0 or condition number above
    ``_CONDITION_CAP``) is solved with a ridge of ``_RIDGE_SCALE * trace(B)/n``
    and flagged ill-conditioned when doubling the ridge moves the quadratic
    form by more than 1e-6 relative.  Rows that cannot be solved, a non-finite
    matrix or right-hand side among them, get a NaN quadratic form instead of
    raising; symmetry is not checked.  Every stack takes the same path: a
    non-finite matrix is decomposed as the identity and its row is then
    reset to NaN, neither of which changes a finite row, and the rows that
    need no ridge are solved as one stack, however many others do.
    """
    B = np.asarray(matrices, dtype=float)
    d = np.asarray(rhs, dtype=float)
    n = d.shape[1]
    finite = np.isfinite(B).all(axis=(1, 2))
    # decompose the identity in place of a non-finite matrix; its results are dropped below
    B = np.where(finite[:, None, None], B, np.eye(n))
    eigs = np.linalg.eigvalsh(B)
    cond = np.full(len(B), np.inf)
    with np.errstate(over="ignore"):
        # a subnormal smallest eigenvalue overflows the ratio to inf
        np.divide(eigs[:, -1], eigs[:, 0], out=cond, where=eigs[:, 0] > 0)
    ridged = cond > _CONDITION_CAP        # true where eigs[:, 0] <= 0, too
    ill = np.zeros(ridged.shape, dtype=bool)
    coef = np.full(d.shape, np.nan)
    plain = ~ridged
    coef[plain] = _solve_rows(B[plain], d[plain])
    rows = np.flatnonzero(ridged)
    ridge = _RIDGE_SCALE * np.trace(B[rows], axis1=1, axis2=2) / n
    usable = (ridge > 0) & np.isfinite(ridge)
    rows, ridge = rows[usable], ridge[usable]
    if rows.size:
        eye = np.eye(n)
        coef[rows] = _solve_rows(B[rows] + ridge[:, None, None] * eye, d[rows])
        doubled = _solve_rows(B[rows] + (2.0 * ridge)[:, None, None] * eye, d[rows])
        form, form_doubled = _forms(d[rows], coef[rows]), _forms(d[rows], doubled)
        denom = np.maximum(np.maximum(np.abs(form), np.abs(form_doubled)), 1e-300)
        ill[rows] = np.abs(form - form_doubled) / denom > 1e-6
    form = _forms(d, coef)
    form[~np.isfinite(form)] = np.nan
    form[~finite] = cond[~finite] = np.nan
    ridged &= finite
    ill &= finite
    return SpdStack(coefficients=coef, quadratic_form=form, condition=cond,
                    ridge_used=ridged, ill_conditioned=ill)


def solve_spd(matrix, rhs) -> SpdSolution:
    """Solve B a = d for symmetric positive-definite B, with ridge fallback.

    Returns the coefficients, the quadratic form d^T a = d^T B^-1 d, and a
    condition estimate.  If B is not numerically SPD, a ridge of
    ``_RIDGE_SCALE * trace(B)/n`` is added; the solution is flagged
    ill-conditioned when doubling the ridge moves the quadratic form by more
    than 1e-6 relative.  This is ``solve_spd_stack`` on a stack of one, after
    checking the shapes, finiteness and symmetry, and raising where the stack
    would give NaN.
    """
    B = np.asarray(matrix, dtype=float)
    d = np.asarray(rhs, dtype=float)
    n = d.size
    if B.shape != (n, n):
        raise ModelError(f"matrix shape {B.shape} does not match rhs size {n}")
    if n > 6:
        raise ModelError("SPD solves are capped at n <= 6 test points")
    if not np.all(np.isfinite(B)) or not np.all(np.isfinite(d)):
        raise NumericalFailure("non-finite Gram matrix or right-hand side")
    if not np.allclose(B, B.T, rtol=0.0, atol=1e-10 * max(1.0, float(np.abs(B).max()))):
        raise ModelError("matrix is not symmetric")
    sol = solve_spd_stack(B[None], d[None])
    form = float(sol.quadratic_form[0])
    if math.isnan(form):
        raise IndefiniteMatrixError("no finite solution, even with the ridge "
                                    f"(condition {float(sol.condition[0]):.3g})")
    return SpdSolution(coefficients=sol.coefficients[0], quadratic_form=form,
                       condition=float(sol.condition[0]), ridge_used=bool(sol.ridge_used[0]),
                       ill_conditioned=bool(sol.ill_conditioned[0]))


# ---------------------------------------------------------------------------
# Prior densities on the phase domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PriorDensity:
    """Density on [a, b], held on a quadrature grid plus an off-grid density evaluator.

    ``values`` are renormalised so the grid quadrature is exactly 1; the same
    correction is applied to ``derivative`` (on the grid) and to ``density``
    (anywhere), so boundary values, interior values, and integrals stay
    mutually consistent; a prior caches nothing derived from it.  Priors
    compare and hash by identity, so the stages that memoise what they
    derive from a prior (``rbound._ziv_zakai_pairs``) key on the object.
    """

    kind: str
    domain: PhaseDomain
    grid: QuadratureGrid
    values: np.ndarray = field(repr=False)
    derivative: np.ndarray = field(repr=False)
    vanishes_at_boundaries: bool
    alpha: float | None = None
    _pdf: object = field(default=None, repr=False)

    @property
    def name(self) -> str:
        """The prior as messages name it: ``alpha=10`` in the family, else ``<kind> prior``."""
        return f"{self.kind} prior" if self.alpha is None else f"alpha={self.alpha:g}"

    def density(self, theta):
        """Density at arbitrary phases, extended by zero outside [a, b]."""
        theta = np.asarray(theta, dtype=float)
        inside = (theta >= self.domain.a) & (theta <= self.domain.b)
        out = np.where(inside, self._pdf(theta), 0.0)
        return float(out) if out.ndim == 0 else out


def _finalize_prior(kind, domain, grid, raw_values, raw_derivative, vanishes, alpha, pdf):
    norm = integrate(raw_values, grid)
    if norm <= 0 or not math.isfinite(norm):
        raise NumericalFailure(f"prior normalisation integral is {norm}")
    values = raw_values / norm
    derivative = raw_derivative / norm
    values.flags.writeable = False
    derivative.flags.writeable = False
    return PriorDensity(
        kind=kind, domain=domain, grid=grid, values=values, derivative=derivative,
        vanishes_at_boundaries=vanishes, alpha=alpha,
        _pdf=lambda t, _f=pdf, _n=norm: _f(t) / _n,
    )


def flat_prior(domain: PhaseDomain = PhaseDomain(),
               grid: QuadratureGrid | None = None) -> PriorDensity:
    """Uniform density 1/(b-a), not vanishing at the boundaries, on a grid spanning the domain."""
    grid = grid or QuadratureGrid.simpson(domain.a, domain.b)
    if not (abs(grid.a - domain.a) <= 1e-12 and abs(grid.b - domain.b) <= 1e-12):
        raise ModelError(f"the flat prior on [{domain.a}, {domain.b}] needs a grid spanning it, "
                         f"got [{grid.a}, {grid.b}]")
    c = 1.0 / domain.width
    values = np.full(grid.node_count, c)
    deriv = np.zeros(grid.node_count)
    return _finalize_prior("flat", domain, grid, values, deriv, False, None,
                           lambda t: np.full(np.shape(t), c) if np.ndim(t) else c)


def family45_prior(alpha: float, grid: QuadratureGrid | None = None) -> PriorDensity:
    """One-parameter prior family (2/pi)(e^{alpha sin^2(2 theta)} - 1) / (e^{alpha/2} I0(alpha/2) - 1).

    Defined on [0, pi/2], vanishing quadratically at both endpoints for every
    alpha.  Negative alpha broadens the density toward flat; large positive
    alpha concentrates it near pi/4 (approximately Gaussian with variance
    1/(8 alpha)).  alpha = 0 uses the limiting form (4/pi) sin^2(2 theta).

    Raises ``NumericalFailure`` unless its trapezoid mass on the grid is 1 within
    ``_PRIOR_MASS_TOL``: on 2001 nodes for about -3e4 <= alpha <= 2e4.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ModelError(f"prior alpha must be finite, got {alpha!r}")
    grid = grid or QuadratureGrid.simpson(0.0, math.pi / 2)
    domain = PhaseDomain(grid.a, grid.b)
    if not (abs(grid.a) <= 1e-12 and abs(grid.b - math.pi / 2) <= 1e-12):
        raise ModelError("the exponential-sine prior family is defined on [0, pi/2]")

    if alpha == 0.0:
        def pdf(t):
            return (4.0 / math.pi) * np.sin(2.0 * np.asarray(t, dtype=float)) ** 2

        def dpdf(t):
            return (8.0 / math.pi) * np.sin(4.0 * np.asarray(t, dtype=float))

    else:
        # e^{-max(alpha, 0)} (e^{alpha s^2} - 1), up to sign: no factor overflows,
        # and _finalize_prior normalises on the grid.
        shift = max(alpha, 0.0)

        def pdf(t):
            s2 = np.sin(2.0 * np.asarray(t, dtype=float)) ** 2
            return np.exp(shift * (s2 - 1.0)) * -np.expm1(-abs(alpha) * s2)

        def dpdf(t):
            t = np.asarray(t, dtype=float)
            s2 = np.sin(2.0 * t) ** 2
            return np.exp(alpha * s2 - shift) * 2.0 * abs(alpha) * np.sin(4.0 * t)

    values = np.asarray(pdf(grid.nodes), dtype=float)
    deriv = np.asarray(dpdf(grid.nodes), dtype=float)
    prior = _finalize_prior("family45", domain, grid, values, deriv, True, alpha, pdf)
    mass = float(np.trapezoid(prior.values, grid.nodes))
    if not abs(mass - 1.0) <= _PRIOR_MASS_TOL:
        raise NumericalFailure(
            f"the {grid.node_count}-node grid does not resolve the alpha={alpha:g} prior: "
            f"its trapezoid mass is {mass!r}, off by more than {_PRIOR_MASS_TOL:g}")
    return prior


def custom_prior(grid: QuadratureGrid, values, derivative=None) -> PriorDensity:
    """Prior from tabulated nonnegative values; derivative by central differences if absent."""
    values = np.asarray(values, dtype=float).copy()
    if values.shape != grid.nodes.shape:
        raise ModelError("values length does not match the grid")
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise ModelError("prior values must be finite and nonnegative")
    if derivative is None:
        derivative = np.gradient(values, grid.nodes)
    derivative = np.asarray(derivative, dtype=float).copy()
    if derivative.shape != grid.nodes.shape:
        raise ModelError("derivative length does not match the grid")
    if not np.all(np.isfinite(derivative)):
        raise ModelError("prior derivative must be finite")
    domain = PhaseDomain(grid.a, grid.b)
    vanishes = values[0] == 0.0 and values[-1] == 0.0
    nodes = grid.nodes

    def pdf(t, _n=nodes, _v=values):
        return np.interp(np.asarray(t, dtype=float), _n, _v)

    return _finalize_prior("custom", domain, grid, values, derivative, vanishes, None, pdf)


def fisher_information_of_density(values, derivative, grid: QuadratureGrid,
                                  what: str = "density") -> float:
    """Integral of (p')^2 / p with the vanishing-term convention.

    Nodes where the density is zero contribute nothing provided the derivative
    also vanishes there (up to relative rounding noise); a zero density with a
    genuinely nonzero slope makes the integral divergent and raises.
    """
    values = np.asarray(values, dtype=float)
    derivative = np.asarray(derivative, dtype=float)
    zero = values == 0.0
    if np.any(zero):
        floor = DERIVATIVE_NOISE_REL * float(np.max(np.abs(derivative), initial=0.0))
        if np.any(zero & (np.abs(derivative) > floor)):
            raise NonIntegrablePriorError(
                f"{what} has zero values with nonzero slope; (p')^2/p is not integrable")
    integrand = np.where(zero, 0.0, derivative**2 / np.where(zero, 1.0, values))
    return integrate(integrand, grid)


def prior_fisher_information(prior: PriorDensity) -> float:
    return fisher_information_of_density(prior.values, prior.derivative, prior.grid,
                                         what=f"{prior.kind} prior")
