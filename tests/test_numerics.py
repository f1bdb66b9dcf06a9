import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import scalar_maximize_1d

import phasebound.numerics as numerics_module
from phasebound.model import ModelError, PhaseDomain
from phasebound.numerics import (
    AllNanGridError,
    NonIntegrablePriorError,
    NumericalFailure,
    QuadratureGrid,
    custom_prior,
    family45_prior,
    fisher_information_of_density,
    flat_prior,
    integrate,
    maximize_1d,
    prior_fisher_information,
    solve_spd,
    solve_spd_stack,
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
        arg, val = maximize_1d(lambda x: -x * x, -1.0, 1.0, 1, coarse_points=401)
        assert abs(arg[0]) < 1e-9 and abs(val[0]) < 1e-16

    def test_chapman_robbins_single_shot_objective(self):
        arg, val = maximize_1d(lambda x: x * x / np.sin(2 * x) ** 2, 1e-6, math.pi / 4, 1,
                               coarse_points=401)
        assert arg[0] == pytest.approx(math.pi / 4, abs=1e-9)
        assert val[0] == pytest.approx((math.pi / 4) ** 2, rel=1e-12)

    def test_monotone_gives_boundary(self):
        arg, val = maximize_1d(lambda x: 3.0 * x, 0.0, 2.0, 1, coarse_points=401)
        assert arg[0] == pytest.approx(2.0, abs=1e-9)
        assert val[0] == pytest.approx(6.0, rel=1e-9)

    def test_all_invalid_raises(self):
        # the exception names the rows whose whole coarse grid is invalid
        def f(x):
            out = -x * x
            out[1] = math.nan
            return out

        with pytest.raises(AllNanGridError) as info:
            maximize_1d(f, 0.0, 1.0, 3, coarse_points=11)
        assert info.value.rows == (1,)
        with pytest.raises(AllNanGridError):
            maximize_1d(lambda x: np.full(x.shape, math.nan), 0.0, 1.0, 1, coarse_points=11)

    def test_coarse_stage_is_one_array_call(self):
        # one call with every row's grid, then one (K,) array per golden step
        seen = []

        def f(x):
            seen.append(x.copy())
            return -(x - np.array([0.3, -0.4]).reshape((-1,) + (1,) * (x.ndim - 1))) ** 2

        arg, _ = maximize_1d(f, -1.0, 1.0, 2, coarse_points=57)
        assert seen[0].shape == (2, 57)
        np.testing.assert_array_equal(seen[0], np.tile(np.linspace(-1.0, 1.0, 57), (2, 1)))
        assert all(x.shape == (2,) for x in seen[1:]) and len(seen) > 2
        np.testing.assert_allclose(arg, [0.3, -0.4], atol=1e-9)

    def test_excluded_interior_point(self):
        # -inf holes must not derail the bracket search
        arg, val = maximize_1d(lambda x: np.where(np.abs(x) < 1e-4, -np.inf, -np.abs(x)),
                               -1.0, 1.0, 1, coarse_points=41)
        assert val[0] > -2e-4

    def test_rows_equal_lone_scalar_searches(self):
        # every row takes the steps of a lone scalar search, also rows whose bracket
        # is one cell wide (argmax at an end: centres 5 and -5) and so finishes
        # before the others
        centres = np.array([0.3, -0.4, 5.0, -5.0, 0.123456789, 0.0])
        lo, hi = -1.0, 1.0

        def row_objective(k, x):
            with np.errstate(invalid="ignore"):
                value = -np.abs(x - centres[k]) ** 1.5 + 0.1 * np.sin(7 * x)
            return np.where(np.abs(x - 0.25) < 0.01, np.nan, value)   # a hole of NaN

        def f(x):
            return np.stack([row_objective(k, x[k]) for k in range(len(x))])

        def scalar_objective(k, x):
            value = row_objective(k, x)
            return value if np.ndim(value) else float(value)

        args, values = maximize_1d(f, lo, hi, len(centres), coarse_points=25)
        for k in range(len(centres)):
            want = scalar_maximize_1d(lambda x, k=k: scalar_objective(k, x), lo, hi, 25)
            assert (args[k], values[k]) == want, k


class TestSolveSpd:
    @pytest.mark.parametrize("matrix_7", ["non_finite", "finite"])
    def test_stack_rows_equal_one_solve_each(self, matrix_7):
        # SPD, singular (ridged), far-off-scale and non-finite rows in one stack; a stack
        # whose matrices are all finite takes the same path as one with a non-finite matrix
        rng = np.random.default_rng(3)
        a = rng.normal(size=(40, 3, 3))
        stack = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(3)
        stack[5] = np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        stack[6] = np.diag([5e-324, 1.0, 1.0])
        if matrix_7 == "non_finite":
            stack[7, 0, 1] = stack[7, 1, 0] = math.inf
        rhs = rng.normal(size=(40, 3))
        rhs[8, 2] = math.nan
        sol = solve_spd_stack(stack, rhs)
        unsolvable = (7, 8) if matrix_7 == "non_finite" else (8,)
        for k in range(40):
            if k in unsolvable:
                assert math.isnan(sol.quadratic_form[k])
                # the condition number belongs to the matrix: NaN only where it is non-finite
                assert math.isnan(sol.condition[k]) == (k == 7)
                assert not sol.ridge_used[k] and not sol.ill_conditioned[k]
                continue
            one = solve_spd(stack[k], rhs[k])
            assert np.array_equal(sol.coefficients[k], one.coefficients)
            assert (sol.quadratic_form[k], sol.condition[k], sol.ridge_used[k],
                    sol.ill_conditioned[k]) == (one.quadratic_form, one.condition,
                                                one.ridge_used, one.ill_conditioned)
        assert sol.ridge_used[5] and sol.ridge_used[6]

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
        d = np.array([1.0, -1.0])
        sol = solve_spd(b, d)
        assert sol.ridge_used
        ridge = numerics_module._RIDGE_SCALE * float(np.trace(b)) / 2
        assert np.array_equal(sol.coefficients, np.linalg.solve(b + ridge * np.eye(2), d))
        assert sol.quadratic_form == float(d @ sol.coefficients)

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
        mean = integrate(fine.nodes * prior.values, fine)
        variance = integrate((fine.nodes - mean) ** 2 * prior.values, fine)
        assert variance == pytest.approx(1.0 / (8 * 1e4), rel=0.02)

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
    def test_extreme_alpha_builds_finite_values(self, alpha):
        # on a grid that resolves the density: the default 2001 nodes do not (refused below)
        fine = QuadratureGrid.simpson(0.0, math.pi / 2, 16001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prior = family45_prior(alpha, fine)
        assert np.all(np.isfinite(prior.values)) and np.all(np.isfinite(prior.derivative))
        assert abs(integrate(prior.values, fine) - 1.0) < 1e-9

    @pytest.mark.parametrize("alpha", [-1e5, 1e5, 3e5])
    def test_unresolved_family_refused(self, grid, alpha):
        # a density a few node spacings wide: normalised by Simpson's rule, its trapezoid
        # mass on the same nodes is off by 5.4e-8 (-1e5), 3.0e-5 (1e5) and 2.4e-2 (3e5)
        with pytest.raises(NumericalFailure, match=f"the 2001-node grid does not resolve the "
                                                   f"alpha={alpha:g} prior: its trapezoid mass"):
            family45_prior(alpha, grid)

    def test_resolved_family_builds(self, grid):
        prior = family45_prior(2e4, grid)
        assert abs(np.trapezoid(prior.values, grid.nodes) - 1.0) <= 1e-12

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, grid, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match=f"prior alpha must be finite, got {alpha!r}"):
                family45_prior(alpha, grid)

    def test_derivative_matches_finite_differences(self, grid):
        prior = family45_prior(10.0, grid)
        step = 1e-7
        for theta in (0.3, 0.7, 1.2):
            i = int(np.argmin(np.abs(grid.nodes - theta)))
            node = grid.nodes[i]
            fd = (prior.density(node + step) - prior.density(node - step)) / (2 * step)
            assert prior.derivative[i] == pytest.approx(fd, rel=1e-5)

    def test_wrong_domain_rejected(self):
        with pytest.raises(ModelError):
            family45_prior(1.0, QuadratureGrid.simpson(0.0, 1.0, 101))

    @pytest.mark.parametrize("a,b", [(0.0, 2.0), (0.5, 1.0), (0.0, 1.0 + 2e-12)])
    def test_flat_prior_grid_must_span_domain(self, a, b):
        # a grid [0, 2] under the domain [0, 1] gave values 0.5 on the whole grid but a
        # density of 0 beyond theta = 1, so ziv_zakai reported an unresolved prior of mass 0.5
        with pytest.raises(ModelError, match=r"flat prior on \[0.0, 1.0\] needs a grid spanning"):
            flat_prior(PhaseDomain(0.0, 1.0), QuadratureGrid.simpson(a, b, 201))

    def test_flat_prior_grid_within_tolerance_accepted(self):
        grid = QuadratureGrid.simpson(0.0, 1.0 + 5e-13, 201)
        prior = flat_prior(PhaseDomain(0.0, 1.0), grid)
        assert integrate(prior.values, grid) == pytest.approx(1.0, abs=1e-12)

    def test_custom_prior(self, grid):
        prior = custom_prior(grid, np.sin(grid.nodes) + 1.0)
        assert integrate(prior.values, grid) == pytest.approx(1.0, abs=1e-12)
        assert not prior.vanishes_at_boundaries

    def test_custom_prior_rejects_derivative_of_wrong_length(self, grid):
        # checked here, not left to fail as a broadcast error inside the posterior table
        with pytest.raises(ModelError, match="derivative length"):
            custom_prior(grid, np.sin(grid.nodes) + 1.0, np.ones(5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_custom_prior_rejects_non_finite_derivative(self, grid, bad):
        # a NaN slope would give a posterior summary of NaN information and no failure
        derivative = np.cos(grid.nodes)
        derivative[100] = bad
        with pytest.raises(ModelError, match="derivative must be finite"):
            custom_prior(grid, np.sin(grid.nodes) + 1.0, derivative)

    def test_priors_compare_and_hash_by_identity(self, grid):
        # two priors of equal values are two keys of the stages that memoise per prior
        prior, twin = family45_prior(10.0, grid), family45_prior(10.0, grid)
        assert prior == prior and prior != twin
        assert len({prior, twin, prior}) == 2
        assert hash(prior) == hash(prior)

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
