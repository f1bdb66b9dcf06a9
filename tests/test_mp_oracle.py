"""The tally kernel and the posterior summary against the exact binomial, at 50 digits.

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

The posterior summary is checked on the prior's own nodes, so the oracle
shares its discretisation and differs from it only by rounding: on the
default 2001-node grid, from the exact binomial of the kernel's double p_+,
p_- = 1 - p_+ and p_+', and the prior's double values, derivatives and
Simpson weights, each tally's normalisation p_mar(k) = sum_j w_j L pi, its
posterior mean and variance, and its Ghosh bound (f - 1)^2 / J, with the
boundary term f from the end nodes and J = sum_j w_j (L' pi + L pi')^2 /
(L pi) / p_mar(k) over the nodes where L pi > 0.  ``POSTERIOR_MEASURED`` is
each quantity's worst relative error over the tallies of one (m, alpha),
pinned like the kernel's.  ``LARGE_M_MEASURED`` does the same for the
information, mean and variance of a few tallies at m = 100, 1000 and 5000,
where the summary's rounding grows with m.

Ziv-Zakai's crossing tallies (``rbound._crossings``, a closed form on the
kernel's logs) are checked against the exact first tally where
a p_+f^k p_-f^(m-k) >= b p_+s^k p_-s^(m-k) holds (its negation where the
second node lies higher), from the double p_+, p_- = 1 - p_+ and weights.
A pair that fails the check where the exact log ratio at k* - 1 or k* is
within 1e-9 of 0 has met a tie, which rounding may break either way; the
ties are mirror pairs about pi/4 at even m (ratio 1 at k = m/2 but for
rounding, at most 1.7e-12 from it in the log), and ``CROSSING_TIES`` pins
how many pairs of each prior break one so.

The converged slice does not share the package's nodes: J_prior of the
family45 prior, the integral of p'^2 / p over [0, pi/2], is evaluated by
``mpmath.quad`` at 40 digits on the closed forms e^(alpha sin^2 2 theta) - 1
and its derivative, normalised by their own quadrature.  So it sees the
grid's discretisation, and ``CONVERGED_MEASURED`` pins how far
``prior_fisher_information`` on the default 2001-node grid lies from it,
like the kernel's figures.  The averaged posterior variance
sum_k p_mar(k) Var(pi_k) is evaluated the same way, at 30 digits, on the
closed-form likelihood cos^2k theta sin^2(m-k) theta times the prior, and
``CONVERGED_VARIANCE_MEASURED`` pins both of the package's forms of it: the
posterior summary's own weighting and the value ``fig4`` prints.
"""

import functools

import math

import mpmath
import numpy as np
import pytest

from phasebound import (
    PhaseDomain,
    PosteriorMeanEstimator,
    QuadratureGrid,
    bayes_chain_report,
    custom_prior,
    family45_prior,
    flat_prior,
)
from phasebound import rbound
from phasebound.estimate import posterior_summary
from phasebound.model import (
    GhzParityModel,
    _score_factor,
    tally_pmf_dtheta_matrix,
    tally_pmf_matrix,
)
from phasebound.numerics import prior_fisher_information

THETAS = [math.pi / 4, math.pi / 8, math.pi / 6, math.pi / 3, 3 * math.pi / 8, 0.1, 1.4]
# m: worst error of tally_pmf_matrix, tally_pmf_dtheta_matrix (the pmf times the score
# c (k p_- - (m - k) p_+), ``model._score``) and the same score written c (k - m p_+), as the
# posterior summary weighs the pmf (``model._score_factor``'s c; 0 where exact up to the
# oracle's rounding).  That form rounds m p_+ before k - m p_+, and c carries 1 / (p_+ p_-): at
# m = 3 its figure is 19 times the derivative kernel's.
MEASURED = {
    1: (1.2e-16, 0.0, 1.84e-16),
    2: (2.44e-16, 1.14e-16, 2.06e-16),
    3: (7.6e-16, 2.05e-16, 3.96e-15),
    20: (9.03e-15, 1.55e-15, 1.94e-15),
    100: (1.05e-13, 1.35e-14, 1.3e-14),
    1000: (1.93e-12, 1.52e-13, 1.61e-13),
    5000: (1.57e-11, 5.62e-13, 5.67e-13),
}
# (m, alpha): worst relative error of posterior_summary's marginal, mean, variance and ghosh
POSTERIOR_MEASURED = {
    (1, -10.0): (7.41e-16, 1.52e-15, 1.8e-15, 6.27e-16),
    (1, 10.0): (1.54e-15, 2.07e-15, 1.43e-15, 1.56e-15),
    (1, 100.0): (5.69e-16, 8.69e-16, 6.18e-16, 1.8e-16),
    (2, -10.0): (4.93e-16, 1.51e-15, 1.13e-15, 3.99e-16),
    (2, 10.0): (9.71e-16, 1.48e-15, 1.27e-15, 8.27e-16),
    (2, 100.0): (3.73e-16, 1.3e-15, 7.04e-16, 1.14e-15),
    (3, -10.0): (5.35e-16, 7.09e-16, 4.55e-16, 1.08e-15),
    (3, 10.0): (5.1e-16, 5.51e-16, 1.04e-15, 1.03e-15),
    (3, 100.0): (4.22e-16, 5.66e-16, 3.81e-16, 4.4e-16),
    (20, -10.0): (4.32e-15, 1.41e-15, 1.11e-15, 3.31e-15),
    (20, 10.0): (4.55e-15, 1.06e-15, 8.52e-16, 1.1e-15),
    (20, 100.0): (4.46e-15, 7.48e-16, 6.9e-16, 7.49e-16),
}
SUMMARY_FIELDS = ("marginal", "mean", "variance", "ghosh")
POSTERIOR_GRID = QuadratureGrid.simpson(0.0, math.pi / 2)
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


def _failure(cell: str, pin: float, errors: np.ndarray, got: np.ndarray,
             exact: np.ndarray) -> list[str]:
    """The tally of the largest error in ``cell``, named, if that error is above ``pin``."""
    k = int(np.argmax(errors))
    if errors[k] <= pin:
        return []
    return [f"{cell}, k={k}: got {got[k]!r}, exact {exact[k]!r}, "
            f"error {errors[k]:.3g} above {pin:.3g}"]


@pytest.mark.parametrize("m", sorted(MEASURED))
def test_kernels_against_exact_binomial(m):
    model = GhzParityModel(2)
    pmf = tally_pmf_matrix(model, m, THETAS)
    pmfs = {"tally_pmf_matrix": pmf}
    tallies = np.arange(m + 1, dtype=float)[:, None]
    score = _score_factor(model, np.array(THETAS)) * (tallies - m * model.prob_plus(THETAS))
    derivatives = {"tally_pmf_dtheta_matrix": tally_pmf_dtheta_matrix(model, m, THETAS),
                   "score form pmf c (k - m p_+)": pmf * score}
    pins = [2.0 * max(figure, 2.0**-53) for figure in MEASURED[m]]
    failures = []
    for j, theta in enumerate(THETAS):
        (p_hi, p_lo), (d_hi, d_lo), tiny, slope = _exact_column(model, m, theta)
        normal = p_hi >= NORMAL_MIN
        for (name, got), pin in zip(pmfs.items(), pins[:1]):
            errors = np.divide(np.abs((got[:, j] - p_hi) - p_lo), p_hi, where=normal,
                               out=np.zeros(m + 1))
            failures += _failure(f"{name}, m={m}, theta={theta!r}", pin, errors, got[:, j],
                                 p_hi)
        scale = m * slope * p_hi.max()
        for (name, got), pin in zip(derivatives.items(), pins[1:]):
            errors = np.abs((got[:, j] - d_hi) - d_lo) / scale
            failures += _failure(f"{name}, m={m}, theta={theta!r}", pin, errors, got[:, j],
                                 d_hi)
        for name, got in pmfs.items():
            failures += [f"{name}, m={m}, theta={theta!r}, k={k}: {got[k, j]!r} where the "
                         f"exact pmf is below 2.4e-324" for k in tiny if got[k, j] != 0.0]
        # at m = 5000 the far tails of every phase lie below 2.4e-324: that check is not vacuous
        assert tiny or m < 5000, theta
    assert failures == []



def _exact_likelihood(model: GhzParityModel, m: int, nodes: np.ndarray):
    """Per tally k, lists over the nodes of the exact L, L' = dL/dtheta and L'^2 / L.

    L' and L'^2 / L are 0 where L is: those nodes carry no posterior mass.
    """
    rows = [([], [], []) for _ in range(m + 1)]
    c = [mpmath.binomial(m, k) for k in range(m + 1)]
    zero = mpmath.mpf(0)
    for p, s in zip(model.prob_plus(nodes).tolist(), model.dprob_dtheta(nodes).tolist()):
        pp, pm, dp = mpmath.mpf(p), mpmath.mpf(1.0 - p), mpmath.mpf(s)
        up, down = [mpmath.mpf(1)], [mpmath.mpf(1)]
        for _ in range(m):
            up.append(up[-1] * pp)
            down.append(down[-1] * pm)
        for k, (like, slope, score) in enumerate(rows):
            x = c[k] * up[k] * down[m - k]
            d = zero if not x else c[k] * dp * ((k * up[k - 1] * down[m - k] if k else zero)
                                                - ((m - k) * up[k] * down[m - k - 1] if k < m
                                                   else zero))
            like.append(x)
            slope.append(d)
            score.append(d * d / x if x else zero)
    return rows


@functools.lru_cache(maxsize=None)
def _prior_weights(alpha: float):
    """The prior on the default grid and, over its nodes, the exact sums' weights.

    w pi, w pi theta, w pi theta^2, w pi' and w pi'^2 / pi (the last two 0
    where pi is), and the nodes themselves.
    """
    def exact(values):
        return [mpmath.mpf(x) for x in values.tolist()]

    prior = family45_prior(alpha, POSTERIOR_GRID)
    nodes, zero = exact(prior.grid.nodes), mpmath.mpf(0)
    weights = [(w * p, w * p * t, w * p * t * t, w * d if p else zero,
                w * d * d / p if p else zero)
               for w, p, d, t in zip(exact(prior.grid.weights), exact(prior.values),
                                     exact(prior.derivative), nodes)]
    return prior, [list(column) for column in zip(*weights)], nodes


def _exact_summary(alpha: float, likelihood) -> dict[str, list]:
    """p_mar(k), mean, variance and Ghosh bound of every tally, exact on the prior's nodes."""
    prior, (a, a1, a2, b, c), nodes = _prior_weights(alpha)
    first, last = mpmath.mpf(float(prior.values[0])), mpmath.mpf(float(prior.values[-1]))
    exact = {name: [] for name in SUMMARY_FIELDS}
    for like, slope, score in likelihood:
        z = mpmath.fdot(like, a)
        mean = mpmath.fdot(like, a1) / z
        info = (mpmath.fdot(score, a) + 2 * mpmath.fdot(slope, b) + mpmath.fdot(like, c)) / z
        lo, hi = like[0] * first / z, like[-1] * last / z
        f = nodes[-1] * hi - nodes[0] * lo - mean * (hi - lo)
        exact["marginal"].append(z)
        exact["mean"].append(mean)
        exact["variance"].append(mpmath.fdot(like, a2) / z - mean * mean)
        exact["ghosh"].append((f - 1) ** 2 / info)
    return exact


@pytest.mark.parametrize("m", sorted({m for m, _ in POSTERIOR_MEASURED}))
def test_posterior_summary_against_exact_sums(m):
    model = GhzParityModel(2)
    failures = []
    with mpmath.workdps(50):
        likelihood = _exact_likelihood(model, m, POSTERIOR_GRID.nodes)
        for alpha in sorted(a for mm, a in POSTERIOR_MEASURED if mm == m):
            prior = _prior_weights(alpha)[0]
            got = posterior_summary(prior, m, model)
            exact = _exact_summary(alpha, likelihood)
            for name, figure in zip(SUMMARY_FIELDS, POSTERIOR_MEASURED[m, alpha]):
                values = getattr(got, name)
                errors = np.array([float(abs((mpmath.mpf(v) - x) / x))
                                   for v, x in zip(values.tolist(), exact[name])])
                failures += _failure(f"{name}, m={m}, alpha={alpha:g}",
                                     2.0 * max(figure, 2.0**-53), errors, values,
                                     np.array([float(x) for x in exact[name]]))
    assert failures == []


# (m, k): worst relative error of posterior_summary's information, mean and variance of one
# tally at large m, alpha = 10, on the prior's own nodes.  Before the summary took the closed-
# form score it derived the pmf's derivative by Pascal's rule, m p_+' (B(k-1) - B(k)) on
# B_(m-1), which cancels near each row's mode: its information errors were 1.5e-14, 5.17e-15,
# 1.83e-12, 2.02e-12, 7.42e-14, 2.04e-11 and 7.03e-13 on these tallies, in this order
LARGE_M_MEASURED = {
    (100, 5): (1.06e-16, 4.32e-16, 9.26e-17),
    (100, 50): (3.37e-16, 2.42e-16, 6.97e-16),
    (1000, 26): (4.57e-16, 4.24e-20, 3.97e-16),
    (1000, 80): (4.71e-16, 6.02e-17, 5.58e-16),
    (1000, 500): (9.61e-15, 9.43e-17, 9.24e-15),
    (5000, 79): (2.64e-16, 1.35e-16, 4.78e-16),
    (5000, 2500): (2.85e-14, 2.46e-16, 2.79e-14),
}
LARGE_M_FIELDS = ("information", "mean", "variance")


def _exact_tally(alpha: float, m: int, k: int) -> dict:
    """Information, mean and variance of tally k, exact on the prior's nodes, as ``_exact_summary``."""
    model = GhzParityModel(2)
    prior, (a, a1, a2, b, c), _ = _prior_weights(alpha)
    cmk, zero = mpmath.binomial(m, k), mpmath.mpf(0)
    like, slope, score = [], [], []
    for p, s in zip(model.prob_plus(prior.grid.nodes).tolist(),
                    model.dprob_dtheta(prior.grid.nodes).tolist()):
        pp, pm, dp = mpmath.mpf(p), mpmath.mpf(1.0 - p), mpmath.mpf(s)
        x = cmk * pp**k * pm**(m - k)
        d = zero if not x else cmk * dp * ((k * pp**(k - 1) * pm**(m - k) if k else zero)
                                          - ((m - k) * pp**k * pm**(m - k - 1) if k < m else zero))
        like.append(x)
        slope.append(d)
        score.append(d * d / x if x else zero)
    z = mpmath.fdot(like, a)
    mean = mpmath.fdot(like, a1) / z
    info = (mpmath.fdot(score, a) + 2 * mpmath.fdot(slope, b) + mpmath.fdot(like, c)) / z
    return {"information": info, "mean": mean, "variance": mpmath.fdot(like, a2) / z - mean * mean}


@pytest.mark.parametrize("m", sorted({m for m, _ in LARGE_M_MEASURED}))
def test_posterior_information_at_large_m(m):
    failures = []
    with mpmath.workdps(50):      # _prior_weights forms its exact products at 50 digits
        got = posterior_summary(_prior_weights(10.0)[0], m, GhzParityModel(2))
        for k in sorted(kk for mm, kk in LARGE_M_MEASURED if mm == m):
            exact = _exact_tally(10.0, m, k)
            for name, figure in zip(LARGE_M_FIELDS, LARGE_M_MEASURED[m, k]):
                value = float(getattr(got, name)[k])
                error = float(abs((mpmath.mpf(value) - exact[name]) / exact[name]))
                pin = 2.0 * max(figure, 2.0**-53)
                if error > pin:
                    failures.append(f"{name}, m={m}, k={k}: got {value!r}, exact "
                                    f"{float(exact[name])!r}, error {error:.3g} above {pin:.3g}")
    assert failures == []


# the m of the crossing check, and per prior the pairs, over all of them, that fail it on a
# tie; on [0, pi/2] every second node lies lower, and on the off-branch [-0.3, 1.2], where p_+
# peaks at 0, the pairs across 0 lie either way
CROSSING_MS = (1, 2, 3, 20, 100, 1000, 5000)
CROSSING_TIES = {"flat": 46, "alpha=10": 57, "alpha=-10": 63, "alpha=1": 63, "alpha=100": 49,
                 "off-branch": 0}
TIE_LOG_RATIO = 1e-9


def _crossing_prior(name: str):
    grid = QuadratureGrid.simpson(0.0, math.pi / 2)
    if name == "flat":
        return flat_prior(PhaseDomain(), grid)
    if name == "off-branch":
        grid = QuadratureGrid.simpson(-0.3, 1.2)
        return custom_prior(grid, np.sin(math.pi * (grid.nodes + 0.3) / 1.5) ** 2)
    return family45_prior(float(name.split("=")[1]), grid)


def _checked_pairs(tests, n: int) -> np.ndarray:
    """Every mirror pair (first + second = n - 1), every pair with an end node, every 37th other."""
    special = (tests.first + tests.second == n - 1) | (tests.first == 0) | (tests.second == n - 1)
    return np.sort(np.concatenate([np.flatnonzero(special), np.flatnonzero(~special)[::37]]))


def _log_sides(logs, m: int, k: int):
    """log of a p_+f^k p_-f^(m-k) and of b p_+s^k p_-s^(m-k), with 0 log 0 = 0."""
    log_a, log_b, (fp, fm), (sp, sm) = logs

    def power(e, log_p):
        return e * log_p if e else mpmath.mpf(0)

    return (log_a + power(k, fp) + power(m - k, fm), log_b + power(k, sp) + power(m - k, sm))


def _holds(lhs, rhs, down: bool):
    """The exact test at one tally: None where both sides are 0 (D is flat there)."""
    if lhs == rhs == -mpmath.inf:
        return None
    return (lhs >= rhs) == down


@pytest.mark.parametrize("name", sorted(CROSSING_TIES))
def test_crossing_tally_is_the_exact_first(name):
    # k* holds the test (or is m + 1) and the nearest tally below with a nonzero side
    # fails it; the log ratio is linear in k, so k* is then the first tally where the
    # test holds, but for the flat stretch of D where both sides vanish
    model = GhzParityModel(2)
    pairs = rbound._ziv_zakai_pairs(_crossing_prior(name), model)
    pick = _checked_pairs(pairs.tests, pairs.grid.node_count)
    tests = rbound._TestPairs(*(field[pick] for field in pairs.tests))
    p_plus = model.prob_plus(pairs.grid.nodes)
    ties, failures = 0, []
    with mpmath.workdps(50):
        def log(x):
            return mpmath.log(x) if x else -mpmath.inf

        node_logs = [(log(p), log(q)) for p, q in zip(p_plus.tolist(), (1.0 - p_plus).tolist())]
        pair_logs = [(log(a), log(b), node_logs[f], node_logs[s])
                     for f, s, a, b in zip(tests.first.tolist(), tests.second.tolist(),
                                           tests.a.tolist(), tests.b.tolist())]
        for m in CROSSING_MS:
            k = rbound._crossings(model, m, pairs.grid.nodes, tests, np.empty(pick.size, np.intp),
                                  np.empty((4, pick.size)), np.empty((2, pick.size), bool))
            for t, (kt, down, logs) in enumerate(zip(k.tolist(), tests.down.tolist(),
                                                     pair_logs)):
                below = kt - 1
                while below >= 0 and _holds(*_log_sides(logs, m, below), down) is None:
                    below -= 1
                probed = [j for j in (below, kt) if 0 <= j <= m]
                sides = [_log_sides(logs, m, j) for j in probed]
                if [_holds(lhs, rhs, down) for lhs, rhs in sides] == [j == kt for j in probed]:
                    continue
                if any(abs(lhs - rhs) < TIE_LOG_RATIO for lhs, rhs in sides):
                    ties += 1
                else:
                    failures.append(f"{name}, m={m}, pair ({tests.first[t]}, "
                                    f"{tests.second[t]}): k*={kt}")
    assert failures == []
    assert ties == CROSSING_TIES[name]


# alpha: J_prior of the family45 prior by mpmath.quad at 40 digits, and the relative error of
# prior_fisher_information on the default grid, which sets the integrand to 0 at the prior's
# zeros at both ends, where p'^2 / p tends to a nonzero limit
CONVERGED_MEASURED = {
    -10.0: ("27.727834769398362922", 1.18e-3),
    1.0: ("16.57088568002446821", 2.14e-4),
    10.0: ("71.5466642411771514", 9.22e-8),
    100.0: ("791.95917390279820207", 1.84e-16),
}


def _converged_prior_information(alpha: float):
    """J_prior of the family45 prior: the integral of f'^2 / f over that of f.

    f = e^(alpha sin^2 2t) - 1 is the unnormalised prior, f' its derivative.
    """
    a = mpmath.mpf(alpha)

    def f(t):
        return mpmath.expm1(a * mpmath.sin(2 * t) ** 2)

    def slope(t):
        return 2 * a * mpmath.sin(4 * t) * mpmath.exp(a * mpmath.sin(2 * t) ** 2)

    ends = [0, mpmath.pi / 4, mpmath.pi / 2]      # the prior peaks, or dips, at pi/4
    return mpmath.quad(lambda t: slope(t) ** 2 / f(t), ends) / mpmath.quad(f, ends)


@pytest.mark.parametrize("alpha", sorted(CONVERGED_MEASURED))
def test_prior_information_against_converged_quadrature(alpha):
    recorded, figure = CONVERGED_MEASURED[alpha]
    with mpmath.workdps(40):
        exact = _converged_prior_information(alpha)
        assert abs(exact / mpmath.mpf(recorded) - 1) < 1e-18
        got = prior_fisher_information(family45_prior(alpha, POSTERIOR_GRID))
        error = float(abs((mpmath.mpf(got) - exact) / exact))
    pin = 2.0 * max(figure, 2.0**-53)
    assert error <= pin, f"alpha={alpha:g}: got {got!r}, exact {float(exact)!r}, error {error:.3g}"


# (alpha, m): sum_k p_mar(k) Var(pi_k) under the family45 prior by mpmath.quad at 30 digits,
# and the relative errors of sum(summary.marginal * summary.variance) on the default grid and
# of bayes_chain_report's bayes_variance, which weighs the same variances with the tally
# marginal on the 201-node theta0 grid
CONVERGED_VARIANCE_MEASURED = {
    (-10.0, 1): ("0.08642494114250924015706431", 1.01e-11, 1.01e-11),
    (-10.0, 2): ("0.06210513913139591073262579", 1.14e-11, 1.14e-11),
    (-10.0, 3): ("0.04858734735797607370493323", 1.27e-11, 1.27e-11),
    (10.0, 1): ("0.01340221384364363665331462", 1.8e-14, 1.92e-14),
    (10.0, 2): ("0.01272590167498837664805727", 1.8e-14, 1.82e-14),
    (10.0, 3): ("0.01211431348240679448176821", 1.91e-14, 1.9e-14),
    (100.0, 1): ("0.001256433881423129955788518", 3.46e-19, 4.84e-15),
    (100.0, 2): ("0.001250151253749876225142178", 3.81e-17, 4.55e-15),
    (100.0, 3): ("0.001243931144398662017978404", 4e-17, 4.58e-15),
}


def _converged_posterior_variance(alpha: float, m: int):
    """sum_k p_mar(k) Var(pi_k) under the family45 prior, N = 2: sum_k (I2 - I1^2 / I0) / Z.

    I_j is C(m, k) times the integral of t^j p_+^k p_-^(m-k) f, with p_+ = cos^2 t and
    f = e^(alpha sin^2 2t) - 1, and Z the integral of f.  The mirror t -> pi/2 - t keeps f
    and swaps tallies k and m - k, so each k < m/2 counts twice.  Gauss-Legendre takes
    a third less time than tanh-sinh here, and the two agree to 28 digits.
    """
    a = mpmath.mpf(alpha)
    ends = [0, mpmath.pi / 4, mpmath.pi / 2]      # the prior peaks, or dips, at pi/4

    def quad(g):
        return mpmath.quad(g, ends, method="gauss-legendre")

    def f(t):
        return mpmath.expm1(a * mpmath.sin(2 * t) ** 2)

    total = 0
    for k in range(m // 2 + 1):
        def weighted(t, k=k):
            return mpmath.cos(t) ** (2 * k) * mpmath.sin(t) ** (2 * (m - k)) * f(t)

        i0 = quad(weighted)
        i1 = quad(lambda t: t * weighted(t))
        i2 = quad(lambda t: t * t * weighted(t))
        total += (1 if 2 * k == m else 2) * mpmath.binomial(m, k) * (i2 - i1 * i1 / i0)
    return total / quad(f)


@pytest.mark.parametrize("alpha,m", sorted(CONVERGED_VARIANCE_MEASURED))
def test_averaged_posterior_variance_against_converged_quadrature(alpha, m):
    recorded, *figures = CONVERGED_VARIANCE_MEASURED[alpha, m]
    prior = family45_prior(alpha, POSTERIOR_GRID)
    summary = PosteriorMeanEstimator(GhzParityModel(2), prior).summary(m)
    got = (float(np.sum(summary.marginal * summary.variance)),
           bayes_chain_report(PosteriorMeanEstimator(GhzParityModel(2), prior), m).bayes_variance)
    with mpmath.workdps(30):
        exact = _converged_posterior_variance(alpha, m)
        assert abs(exact / mpmath.mpf(recorded) - 1) < 1e-24
        errors = [float(abs((mpmath.mpf(g) - exact) / exact)) for g in got]
    for name, value, error, figure in zip(("summary", "emitted"), got, errors, figures):
        pin = 2.0 * max(figure, 2.0**-53)
        assert error <= pin, (f"alpha={alpha:g}, m={m}, {name}: got {value!r}, "
                              f"exact {float(exact)!r}, error {error:.3g}")
