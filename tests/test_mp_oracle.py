"""The tally kernel against the exact binomial, evaluated at 50 digits with mpmath.

The scipy formulas of ``oracles.py`` repeat the package's double-precision
arithmetic, so they pin its doubles but cannot say how far those lie from the
true values.  Here the pmf C(m,k) p_+^k p_-^(m-k) and its theta-derivative
C(m,k) p_+' [k p_+^(k-1) p_-^(m-k) - (m-k) p_+^k p_-^(m-k-1)] are evaluated
exactly from the kernel's own double inputs p_+, p_- = 1 - p_+ and p_+', by
the ratio recurrence pmf(k+1) = pmf(k) (m-k)/(k+1) p_+/p_- (50 digits carry
its m roundings far below a double's).

``MEASURED`` is each kernel's worst error at each m, over the phases of the
``fixed_theta`` workload plus 0.1 and 1.4, N = 2: relative error on the cells
of at least 2.3e-308 (normal doubles) for the pmf, error relative to
m |p_+'| max_k pmf for the derivative.  A kernel may not get worse than twice
its figure (or one ulp where the figure is below that), and every cell whose
exact value is below 2.4e-324 must be exactly 0.  These figures are the
baseline that a change of the kernel's arithmetic must not worsen.
"""

import math

import mpmath
import numpy as np
import pytest

from phasebound.model import (
    GhzParityModel,
    tally_pmf_dtheta_matrix,
    tally_pmf_matrix,
    tally_pmf_with_dtheta,
)

THETAS = [math.pi / 4, math.pi / 8, math.pi / 6, math.pi / 3, 3 * math.pi / 8, 0.1, 1.4]
# m: worst error of tally_pmf_matrix, tally_pmf_with_dtheta's pmf, tally_pmf_dtheta_matrix,
# tally_pmf_with_dtheta's derivative (0 where the kernel is exact up to the oracle's rounding)
MEASURED = {
    1: (1.2e-16, 0.0, 0.0, 0.0),
    2: (2.44e-16, 1.2e-16, 1.14e-16, 1.14e-16),
    3: (7.6e-16, 2.87e-16, 2.05e-16, 1.63e-16),
    20: (9.03e-15, 8.45e-15, 1.55e-15, 5.58e-15),
    100: (1.05e-13, 8.74e-14, 1.35e-14, 6.24e-14),
    1000: (1.93e-12, 1.54e-12, 1.52e-13, 1.84e-12),
    5000: (1.57e-11, 1.35e-11, 5.62e-13, 1.47e-11),
}
NORMAL_MIN = 2.3e-308
EXACT_ZERO_BELOW = mpmath.mpf("2.4e-324")


def _hi_lo(values) -> tuple[np.ndarray, np.ndarray]:
    """Each exact value as a double and the double nearest its remainder."""
    hi = [float(x) for x in values]
    return np.array(hi), np.array([float(x - h) for x, h in zip(values, hi)])


def _exact_column(model: GhzParityModel, m: int, theta: float):
    """(pmf, derivative) at theta as (hi, lo) pairs, the tallies whose pmf is below the
    smallest subnormal's half, and |p_+'|."""
    p_plus = float(model.prob_plus(theta))
    slope = float(model.dprob_dtheta(theta))
    with mpmath.workdps(50):
        pp, pm, dp = mpmath.mpf(p_plus), mpmath.mpf(1.0 - p_plus), mpmath.mpf(slope)
        ratio, term = pp / pm, pm ** m
        pmf = [term]
        for k in range(m):
            term = term * (m - k) / (k + 1) * ratio
            pmf.append(term)
        up, down = dp / pp, dp / pm
        dpmf = [x * (k * up - (m - k) * down) for k, x in enumerate(pmf)]
        tiny = [k for k, x in enumerate(pmf) if x < EXACT_ZERO_BELOW]
        return _hi_lo(pmf), _hi_lo(dpmf), tiny, abs(slope)


def _failure(name: str, m: int, theta: float, pin: float, errors: np.ndarray,
             got: np.ndarray, exact: np.ndarray) -> list[str]:
    """The cell of the largest error, named, if that error is above ``pin``."""
    k = int(np.argmax(errors))
    if errors[k] <= pin:
        return []
    return [f"{name}, m={m}, theta={theta!r}, k={k}: got {got[k]!r}, exact {exact[k]!r}, "
            f"error {errors[k]:.3g} above {pin:.3g}"]


@pytest.mark.parametrize("m", sorted(MEASURED))
def test_kernels_against_exact_binomial(m):
    model = GhzParityModel(2)
    pmfs = {"tally_pmf_matrix": tally_pmf_matrix(model, m, THETAS)}
    pmfs["tally_pmf_with_dtheta"], with_dtheta = tally_pmf_with_dtheta(model, m, THETAS)
    derivatives = {"tally_pmf_dtheta_matrix": tally_pmf_dtheta_matrix(model, m, THETAS),
                   "tally_pmf_with_dtheta (derivative)": with_dtheta}
    pins = [2.0 * max(figure, 2.0**-53) for figure in MEASURED[m]]
    failures = []
    for j, theta in enumerate(THETAS):
        (p_hi, p_lo), (d_hi, d_lo), tiny, slope = _exact_column(model, m, theta)
        normal = p_hi >= NORMAL_MIN
        for (name, got), pin in zip(pmfs.items(), pins[:2]):
            errors = np.divide(np.abs((got[:, j] - p_hi) - p_lo), p_hi, where=normal,
                               out=np.zeros(m + 1))
            failures += _failure(name, m, theta, pin, errors, got[:, j], p_hi)
        scale = m * slope * p_hi.max()
        for (name, got), pin in zip(derivatives.items(), pins[2:]):
            errors = np.abs((got[:, j] - d_hi) - d_lo) / scale
            failures += _failure(name, m, theta, pin, errors, got[:, j], d_hi)
        for name, got in pmfs.items():
            failures += [f"{name}, m={m}, theta={theta!r}, k={k}: {got[k, j]!r} where the "
                         f"exact pmf is below 2.4e-324" for k in tiny if got[k, j] != 0.0]
        # at m = 5000 the far tails of every phase lie below 2.4e-324: that check is not vacuous
        assert tiny or m < 5000, theta
    assert failures == []

