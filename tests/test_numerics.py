import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebound.model import ModelError
from phasebound.numerics import (
    AllNanGridError,
    NonIntegrablePriorError,
    NumericalFailure,
    QuadratureGrid,
    custom_prior,
    family45_prior,
    fisher_information_of_density,
    integrate,
    integrate_with_error,
    maximize_1d,
    prior_fisher_information,
    solve_spd,
)


class TestSimpsonQuadrature:
    def test_weights_sum_to_interval(self, grid):
        assert abs(grid.weights.sum() - math.pi / 2) < 1e-12

    def test_sin_squared(self, grid):
        # closed form: integral of sin^2(2 theta) over [0, pi/2] is pi/4
        value = integrate(np.sin(2 * grid.nodes) ** 2, grid)
        assert value == pytest.approx(math.pi / 4, abs=1e-10)

    def test_constant(self, grid):
        assert integrate(np.ones(grid.node_count), grid) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_posterior_normaliser(self, grid):
        value = integrate((4 / math.pi) * np.cos(grid.nodes) ** 2, grid)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_fourth_order_convergence(self):
        # non-periodic interval, otherwise Simpson super-converges on sin^2
        exact = 0.3 - math.sin(2.4) / 8.0
        errors = []
        for n in (101, 201, 401):
            g = QuadratureGrid.simpson(0.0, 0.6, n)
            errors.append(abs(integrate(np.sin(2 * g.nodes) ** 2, g) - exact))
        assert errors[0] / max(errors[1], 1e-300) >= 8.0
        assert errors[1] / max(errors[2], 1e-300) >= 8.0

    def test_error_estimate(self, grid):
        value, err = integrate_with_error(np.sin(2 * grid.nodes) ** 2, grid)
        assert abs(value - math.pi / 4) <= max(err * 20, 1e-12)

    def test_rejects_even_node_count(self):
        with pytest.raises(ModelError):
            QuadratureGrid.simpson(0.0, 1.0, 100)

    def test_rejects_non_finite(self, grid):
        values = np.ones(grid.node_count)
        values[5] = math.nan
        with pytest.raises(Exception):
            integrate(values, grid)


class TestMaximize1d:
    def test_parabola(self):
        arg, val = maximize_1d(lambda x: -x * x, -1.0, 1.0, coarse_points=401)
        assert abs(arg) < 1e-9 and abs(val) < 1e-16

    def test_chapman_robbins_single_shot_objective(self):
        arg, val = maximize_1d(lambda x: x * x / np.sin(2 * x) ** 2, 1e-6, math.pi / 4,
                               coarse_points=401)
        assert arg == pytest.approx(math.pi / 4, abs=1e-9)
        assert val == pytest.approx((math.pi / 4) ** 2, rel=1e-12)

    def test_monotone_gives_boundary(self):
        arg, val = maximize_1d(lambda x: 3.0 * x, 0.0, 2.0, coarse_points=401)
        assert arg == pytest.approx(2.0, abs=1e-9)
        assert val == pytest.approx(6.0, rel=1e-9)

    def test_all_invalid_raises(self):
        with pytest.raises(AllNanGridError):
            maximize_1d(lambda x: math.nan, 0.0, 1.0, coarse_points=11)

    def test_coarse_stage_is_one_array_call(self):
        # one call with the whole grid, then only float calls (golden section)
        seen = []

        def f(x):
            seen.append(x)
            return -(x - 0.3) ** 2

        arg, _ = maximize_1d(f, -1.0, 1.0, coarse_points=57)
        assert isinstance(seen[0], np.ndarray) and seen[0].shape == (57,)
        np.testing.assert_array_equal(seen[0], np.linspace(-1.0, 1.0, 57))
        assert all(isinstance(x, float) for x in seen[1:]) and len(seen) > 2
        assert arg == pytest.approx(0.3, abs=1e-9)

    def test_excluded_interior_point(self):
        # -inf holes must not derail the bracket search
        arg, val = maximize_1d(lambda x: np.where(np.abs(x) < 1e-4, -np.inf, -np.abs(x)),
                               -1.0, 1.0, coarse_points=41)
        assert val > -2e-4


class TestSolveSpd:
    def test_identity(self):
        sol = solve_spd(np.eye(2), np.array([1.0, 2.0]))
        np.testing.assert_allclose(sol.coefficients, [1.0, 2.0])
        assert sol.quadratic_form == pytest.approx(5.0)
        assert not sol.ridge_used

    def test_diagonal(self):
        sol = solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(sol.coefficients, [1.0, 1.0])
        assert sol.quadratic_form == pytest.approx(6.0)

    def test_against_adjugate_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            b = a @ a.T + 0.5 * np.eye(3)
            d = rng.normal(size=3)
            # closed-form 3x3 inverse via the adjugate
            det = np.linalg.det(b)
            adj = np.empty((3, 3))
            for i in range(3):
                for j in range(3):
                    minor = np.delete(np.delete(b, i, axis=0), j, axis=1)
                    adj[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
            expected = d @ (adj / det) @ d
            assert solve_spd(b, d).quadratic_form == pytest.approx(expected, rel=1e-10)

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_rayleigh_quotient_supremum(self, seed):
        # d^T B^-1 d equals sup over directions a of (a.d)^2 / (a B a)
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 4))
        b = a @ a.T + 0.1 * np.eye(4)
        d = rng.normal(size=4)
        form = solve_spd(b, d).quadratic_form
        dirs = rng.normal(size=(10_000, 4))
        num = (dirs @ d) ** 2
        den = np.einsum("ij,jk,ik->i", dirs, b, dirs)
        assert float(np.max(num / den)) <= form + 1e-9

    def test_ridge_on_singular(self):
        b = np.array([[1.0, 1.0], [1.0, 1.0]])
        sol = solve_spd(b, np.array([1.0, -1.0]))
        assert sol.ridge_used

    def test_subnormal_eigenvalue_gives_infinite_condition(self):
        # eigs[-1] / eigs[0] overflows for a subnormal smallest eigenvalue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_spd(np.diag([5e-324, 1.0]), np.array([1.0, 1.0]))
        assert sol.condition == math.inf
        assert sol.ridge_used

    def test_rejects_asymmetric(self):
        with pytest.raises(ModelError):
            solve_spd(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1.0, 1.0]))

    def test_nan_gram_is_numerical_failure(self):
        # NaN must not reach the symmetry check, whose tolerance it turns into NaN
        with pytest.raises(NumericalFailure, match="non-finite"):
            solve_spd(np.array([[1.0, math.nan], [math.nan, 1.0]]), np.array([1.0, 1.0]))


class TestPriorFamilies:
    def test_flat_norm(self, flat, grid):
        assert integrate(flat.values, grid) == pytest.approx(1.0, abs=1e-12)
        assert not flat.vanishes_at_boundaries
        assert flat.density(0.3) == pytest.approx(2 / math.pi)
        assert flat.density(-0.1) == 0.0

    @pytest.mark.parametrize("alpha", [-100.0, -10.0, 0.0, 1.0, 10.0])
    def test_family_normalised(self, grid, alpha):
        prior = family45_prior(alpha, grid)
        assert abs(integrate(prior.values, grid) - 1.0) < 1e-9
        assert prior.vanishes_at_boundaries
        assert prior.values[0] == 0.0

    def test_limit_form_peak(self, grid):
        prior = family45_prior(0.0, grid)
        assert prior.density(math.pi / 4) == pytest.approx(4 / math.pi, rel=1e-9)

    def test_alpha_continuity_at_zero(self, grid):
        limit = family45_prior(0.0, grid)
        for alpha in (1e-6, -1e-6):
            near = family45_prior(alpha, grid)
            assert float(np.max(np.abs(near.values - limit.values))) < 1e-4

    def test_huge_alpha_log_branch(self):
        fine = QuadratureGrid.simpson(0.0, math.pi / 2, 16001)
        prior = family45_prior(1e4, fine)
        assert abs(integrate(prior.values, fine) - 1.0) < 1e-9
        peak = fine.nodes[int(np.argmax(prior.values))]
        assert peak == pytest.approx(math.pi / 4, abs=1e-3)
        # approximately Gaussian with variance 1/(8 alpha)
        assert prior.variance() == pytest.approx(1.0 / (8 * 1e4), rel=0.02)

    @pytest.mark.parametrize("alpha", [-1000.0, -100.0, -10.0, 1.0, 10.0, 100.0,
                                       599.0, 601.0, 1000.0])
    def test_family_matches_analytic_normaliser(self, grid, alpha):
        # (2/pi)(e^{a s^2} - 1) / (e^{a/2} I0(a/2) - 1), with I0(x) = i0e(x) e^{|x|}
        # rewritten so that no factor overflows
        s2 = np.sin(2.0 * grid.nodes) ** 2
        if alpha > 0:
            exact = (2 / math.pi) * np.exp(alpha * (s2 - 1.0)) * -np.expm1(-alpha * s2) \
                / (scipy.special.i0e(alpha / 2) - math.exp(-alpha))
        else:
            exact = (2 / math.pi) * -np.expm1(alpha * s2) / (1.0 - scipy.special.i0e(-alpha / 2))
        prior = family45_prior(alpha, grid)
        resolved = exact > 1e-300
        rel = np.abs(prior.values[resolved] - exact[resolved]) / exact[resolved]
        assert float(np.max(rel)) <= 1e-10

    @pytest.mark.parametrize("alpha", [-1e5, 1e5])
    def test_extreme_alpha_builds_finite_values(self, grid, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prior = family45_prior(alpha, grid)
        assert np.all(np.isfinite(prior.values)) and np.all(np.isfinite(prior.derivative))
        assert abs(integrate(prior.values, grid) - 1.0) < 1e-9

    def test_derivative_matches_finite_differences(self, grid):
        prior = family45_prior(10.0, grid)
        step = 1e-7
        for theta in (0.3, 0.7, 1.2):
            fd = (prior.density(theta + step) - prior.density(theta - step)) / (2 * step)
            assert prior.density_derivative(theta) == pytest.approx(fd, rel=1e-5)

    def test_wrong_domain_rejected(self):
        with pytest.raises(ModelError):
            family45_prior(1.0, QuadratureGrid.simpson(0.0, 1.0, 101))

    def test_custom_prior(self, grid):
        prior = custom_prior(grid, np.sin(grid.nodes) + 1.0)
        assert integrate(prior.values, grid) == pytest.approx(1.0, abs=1e-12)
        assert not prior.vanishes_at_boundaries

    def test_prior_fisher_information(self, grid):
        # high-precision reference for the exponential-sine prior at alpha = 10
        assert prior_fisher_information(family45_prior(10.0, grid)) == pytest.approx(
            71.546664241177151, rel=1e-4)
        # the endpoint vanishing-term convention biases J down by ~2e-4 relative
        assert prior_fisher_information(family45_prior(1.0, grid)) == pytest.approx(
            16.570885680024441, rel=5e-4)

    def test_flat_prior_has_zero_interior_information(self, flat):
        assert prior_fisher_information(flat) == 0.0

    def test_zero_with_slope_is_non_integrable(self, grid):
        values = np.maximum(grid.nodes - 0.7, 0.0)
        deriv = np.where(grid.nodes > 0.7, 1.0, 0.0)
        deriv[int(np.flatnonzero(values == 0.0)[-1])] = 0.5
        with pytest.raises(NonIntegrablePriorError):
            fisher_information_of_density(values, deriv, grid)
