"""Shared numerical kernel: quadrature, supremum search, SPD solves, priors.

Composite Simpson quadrature is used everywhere so that every integrand,
prior, and likelihood is evaluated on one shared set of nodes; this keeps
sweeps cacheable and the emitted numbers bit-stable.  Grid sizes and
tolerances are fixed module constants, each in the module that reads it; the
two shared ones, ``POSTERIOR_NODES`` and ``DERIVATIVE_NOISE_REL``, live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelError, PhaseDomain


class NumericalFailure(RuntimeError):
    """A computation produced non-finite or non-integrable values."""


class AllNanGridError(NumericalFailure):
    """Every coarse-grid sample of an objective was invalid."""


class IndefiniteMatrixError(NumericalFailure):
    """A Gram matrix stayed indefinite even after ridge repair."""


class NonIntegrablePriorError(NumericalFailure):
    """Prior Fisher information does not exist (zero density, nonzero slope)."""


POSTERIOR_NODES = 2001          # Simpson nodes of the default posterior/prior grid
DERIVATIVE_NOISE_REL = 1e-12    # |p'| below this (relative to max |p'|) counts as vanishing
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

    def half_resolution(self) -> "QuadratureGrid":
        if (self.node_count - 1) % 4 != 0:
            raise ModelError("half-resolution grid requires (n-1) divisible by 4")
        return QuadratureGrid.simpson(self.a, self.b, (self.node_count - 1) // 2 + 1)


def integrate(values, grid: QuadratureGrid) -> float:
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ModelError("values length does not match the grid")
    if not np.all(np.isfinite(values)):
        raise NumericalFailure("non-finite integrand values")
    return float(np.sum(grid.weights * values))


def integrate_with_error(values, grid: QuadratureGrid) -> tuple[float, float]:
    """Simpson value plus a Richardson-style error estimate from half resolution."""
    full = integrate(values, grid)
    half_grid = grid.half_resolution()
    half = integrate(np.asarray(values, dtype=float)[::2], half_grid)
    return full, abs(full - half) / 15.0


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def maximize_1d(f, lo: float, hi: float, coarse_points: int) -> tuple[float, float]:
    """Deterministic supremum search: coarse grid, then golden-section refinement.

    ``f`` must accept both an array and a float.  The coarse stage calls it
    once with the whole ``coarse_points`` grid as an ndarray and takes the
    array it returns (one value per point, elementwise as if each point were
    passed alone); golden-section refinement then calls it with one float at
    a time and expects a float back.  ``f`` may return -inf or NaN to exclude
    points.  The returned value is the best sample seen, so it never falls
    below the coarse-grid maximum.
    """
    if not lo < hi:
        raise ModelError(f"search interval requires lo < hi, got [{lo}, {hi}]")
    refine_tol = _GOLDEN_REL_TOL * (hi - lo)

    xs = np.linspace(lo, hi, coarse_points)
    vals = np.broadcast_to(np.asarray(f(xs), dtype=float), xs.shape)
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    if np.all(vals == -np.inf):
        raise AllNanGridError("objective invalid on the whole coarse grid")
    i = int(np.argmax(vals))
    best_x, best_v = float(xs[i]), float(vals[i])

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


@dataclass(frozen=True)
class SpdSolution:
    coefficients: np.ndarray
    quadratic_form: float
    condition: float
    ridge_used: bool
    ill_conditioned: bool


def solve_spd(matrix, rhs) -> SpdSolution:
    """Solve B a = d for symmetric positive-definite B, with ridge fallback.

    Returns the coefficients, the quadratic form d^T a = d^T B^-1 d, and a
    condition estimate.  If B is not numerically SPD, a ridge of
    ``_RIDGE_SCALE * trace(B)/n`` is added; the solution is flagged
    ill-conditioned when doubling the ridge moves the quadratic form by more
    than 1e-6 relative.
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

    eigs = np.linalg.eigvalsh(B)
    with np.errstate(over="ignore"):     # a subnormal eigs[0] overflows to inf
        cond = math.inf if eigs[0] <= 0 else float(eigs[-1] / eigs[0])
    ridge_used = eigs[0] <= 0 or cond > _CONDITION_CAP
    ill = False
    if not ridge_used:
        a = np.linalg.solve(B, d)
        form = float(d @ a)
    else:
        ridge = _RIDGE_SCALE * float(np.trace(B)) / n
        if ridge <= 0 or not math.isfinite(ridge):
            raise IndefiniteMatrixError("Gram matrix has nonpositive trace")
        forms = []
        for r in (ridge, 2.0 * ridge):
            try:
                a = np.linalg.solve(B + r * np.eye(n), d)
            except np.linalg.LinAlgError as exc:
                raise IndefiniteMatrixError("ridge repair failed") from exc
            forms.append(float(d @ a))
        form = forms[0]
        a = np.linalg.solve(B + ridge * np.eye(n), d)
        denom = max(abs(forms[0]), abs(forms[1]), 1e-300)
        ill = abs(forms[0] - forms[1]) / denom > 1e-6
    if not math.isfinite(form):
        raise IndefiniteMatrixError("quadratic form is non-finite")
    return SpdSolution(coefficients=a, quadratic_form=form, condition=cond,
                       ridge_used=ridge_used, ill_conditioned=ill)


# ---------------------------------------------------------------------------
# Prior densities on the phase domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PriorDensity:
    """Density on [a, b], held on a quadrature grid plus analytic evaluators.

    ``values`` are renormalised so the grid quadrature is exactly 1; the same
    correction is applied to ``derivative`` and the off-grid evaluators, so
    boundary values, interior values, and integrals stay mutually consistent.

    ``posterior_slot`` is a one-entry memo owned by
    ``bbound.posterior_summary``: it holds the (key, summary) pair of the last
    per-tally posterior summary computed under this prior.
    """

    kind: str
    domain: PhaseDomain
    grid: QuadratureGrid
    values: np.ndarray = field(repr=False)
    derivative: np.ndarray = field(repr=False)
    vanishes_at_boundaries: bool
    alpha: float | None = None
    _pdf: object = field(default=None, repr=False, compare=False)
    _dpdf: object = field(default=None, repr=False, compare=False)
    posterior_slot: list = field(default_factory=lambda: [None], init=False,
                                 repr=False, compare=False)

    @property
    def boundary_values(self) -> tuple[float, float]:
        return float(self.values[0]), float(self.values[-1])

    def density(self, theta):
        """Density at arbitrary phases, extended by zero outside [a, b]."""
        theta = np.asarray(theta, dtype=float)
        inside = (theta >= self.domain.a) & (theta <= self.domain.b)
        out = np.where(inside, self._pdf(theta), 0.0)
        return float(out) if out.ndim == 0 else out

    def density_derivative(self, theta):
        theta = np.asarray(theta, dtype=float)
        inside = (theta >= self.domain.a) & (theta <= self.domain.b)
        out = np.where(inside, self._dpdf(theta), 0.0)
        return float(out) if out.ndim == 0 else out

    def mean(self) -> float:
        return integrate(self.grid.nodes * self.values, self.grid)

    def variance(self) -> float:
        mu = self.mean()
        return integrate((self.grid.nodes - mu) ** 2 * self.values, self.grid)


def _finalize_prior(kind, domain, grid, raw_values, raw_derivative, vanishes, alpha, pdf, dpdf):
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
        _dpdf=lambda t, _f=dpdf, _n=norm: _f(t) / _n,
    )


def flat_prior(domain: PhaseDomain | None = None,
               grid: QuadratureGrid | None = None) -> PriorDensity:
    """Uniform density 1/(b-a); does not vanish at the boundaries."""
    domain = domain or PhaseDomain()
    grid = grid or QuadratureGrid.simpson(domain.a, domain.b)
    c = 1.0 / domain.width
    values = np.full(grid.node_count, c)
    deriv = np.zeros(grid.node_count)
    return _finalize_prior("flat", domain, grid, values, deriv, False, None,
                           lambda t: np.full(np.shape(t), c) if np.ndim(t) else c,
                           lambda t: np.zeros(np.shape(t)) if np.ndim(t) else 0.0)


def family45_prior(alpha: float, grid: QuadratureGrid | None = None) -> PriorDensity:
    """One-parameter prior family (2/pi)(e^{alpha sin^2(2 theta)} - 1) / (e^{alpha/2} I0(alpha/2) - 1).

    Defined on [0, pi/2], vanishing quadratically at both endpoints for every
    alpha.  Negative alpha broadens the density toward flat; large positive
    alpha concentrates it near pi/4 (approximately Gaussian with variance
    1/(8 alpha)).  alpha = 0 uses the limiting form (4/pi) sin^2(2 theta).
    """
    alpha = float(alpha)
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
    return _finalize_prior("family45", domain, grid, values, deriv, True, alpha, pdf, dpdf)


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
    domain = PhaseDomain(grid.a, grid.b)
    vanishes = values[0] == 0.0 and values[-1] == 0.0
    nodes = grid.nodes

    def pdf(t, _n=nodes, _v=values):
        return np.interp(np.asarray(t, dtype=float), _n, _v)

    def dpdf(t, _n=nodes, _d=derivative):
        return np.interp(np.asarray(t, dtype=float), _n, _d)

    return _finalize_prior("custom", domain, grid, values, derivative, vanishes, None, pdf, dpdf)


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
