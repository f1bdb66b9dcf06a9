import math

import numpy as np
import pytest

from oracles import ConstantEstimator, bias_derivative_fd
from phasebound.estimate import (
    DegeneratePosteriorError,
    MaximumLikelihoodEstimator,
    PosteriorMeanEstimator,
    frequentist_risk,
    posterior_table,
)
from phasebound.model import (
    GhzParityModel,
    ModelError,
    PhaseDomain,
    _score_factor,
    tally_pmf_dtheta_matrix,
    tally_pmf_matrix,
)
from phasebound.numerics import custom_prior, family45_prior, integrate, maximize_1d

# analytic values for the flat-prior single-shot (+1) posterior (4/pi) cos^2:
FLAT11_DENSITY_AT_ZERO = 4 / math.pi                 # 1.2732395447351628
FLAT11_MEAN = math.pi / 4 - 1 / math.pi              # 0.46708827721365764
FLAT11_VARIANCE = 0.10429557471369053                # pi^2/12 - 1/2 - mean^2


class TestMle:
    def test_balanced_tally(self, model, domain):
        mle = MaximumLikelihoodEstimator(model, domain).values(10)[5]
        assert mle == pytest.approx(math.pi / 4, abs=1e-15)

    def test_all_plus(self, model, domain):
        assert MaximumLikelihoodEstimator(model, domain).values(10)[10] == 0.0

    def test_three_of_four(self, model, domain):
        mle = MaximumLikelihoodEstimator(model, domain).values(4)[3]
        assert mle == pytest.approx(math.pi / 6, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    def test_maximises_tally_probability(self, model, domain, m):
        thetas = np.linspace(domain.a, domain.b, 20_001)
        probs = tally_pmf_matrix(model, m, thetas)
        mle = MaximumLikelihoodEstimator(model, domain).values(m)
        for k in range(m + 1):
            grid_argmax = thetas[int(np.argmax(probs[k]))]
            assert mle[k] == pytest.approx(grid_argmax, abs=2 * (domain.b - domain.a) / 20_000)

    def test_estimator_table_equals_per_tally_mle(self, model, domain):
        # the closed-form table over k = 0..m against the scalar formula,
        # written out one tally at a time
        est = MaximumLikelihoodEstimator(model, domain)
        for m in range(1, 301):
            formula = [float(domain.clip(math.acos(max(-1.0, min(1.0, (2 * k - m) / m))) / 2))
                       for k in range(m + 1)]
            assert est.values(m).tolist() == formula

    # domains off the branch [0, pi/N]: (N, a, b, j) with N [a, b] inside [j pi, (j+1) pi]
    OFF_BRANCH = [(1, -3.0, -0.2, -1), (2, math.pi / 2, math.pi, 1), (2, 1.7, 3.0, 1),
                  (3, -math.pi / 3, 0.0, -1), (3, 2.2, 3.1, 2)]

    def test_estimator_table_equals_per_tally_mle_off_branch(self):
        # the closed-form table over k = 0..m against the scalar formula on branch j,
        # N theta = j pi + arccos((-1)^j (k_+ - k_-)/m), written out one tally at a time
        for n, a, b, j in self.OFF_BRANCH:
            model, domain = GhzParityModel(n), PhaseDomain(a, b)
            est = MaximumLikelihoodEstimator(model, domain)
            for m in range(1, 101):
                formula = [float(domain.clip((j * math.pi + math.acos((-1) ** j * (2 * k - m) / m))
                                             / n)) for k in range(m + 1)]
                assert est.values(m).tolist() == formula, (n, a, b, m)

    def test_off_branch_table_equals_one_search_per_tally(self):
        # the closed form against a 1001-point maximize_1d of each tally's
        # log-likelihood, every tally's search stepped in lock-step (row k is
        # tally k), to the search's resolution (its argmax of a flat peak is
        # good to about sqrt(eps) relative)
        def search(model, domain, m):
            def loglik(theta):
                k = np.arange(m + 1).reshape((-1,) + (1,) * (theta.ndim - 1))
                pp = model.prob_plus(theta)
                with np.errstate(divide="ignore", invalid="ignore"):
                    val = k * np.log(pp) + (m - k) * np.log(1.0 - pp)
                return np.where(np.isfinite(val), val, -np.inf)
            return maximize_1d(loglik, np.full(m + 1, domain.a), np.full(m + 1, domain.b),
                               coarse_points=1001)[0]

        for n, a, b, _ in self.OFF_BRANCH:
            model, domain = GhzParityModel(n), PhaseDomain(a, b)
            est = MaximumLikelihoodEstimator(model, domain)
            for m in (1, 2, 7, 40):
                np.testing.assert_allclose(
                    est.values(m), search(model, domain, m),
                    rtol=0.0, atol=2e-8, err_msg=f"N={n} [{a}, {b}] m={m}")

    @pytest.mark.parametrize("n,a,b", [(1, -math.pi, 0.0), (2, math.pi / 2, math.pi),
                                       (3, -math.pi / 3, 0.0), (3, math.pi / 3, 2 * math.pi / 3)])
    @pytest.mark.parametrize("m", [1, 2, 3, 6, 25])
    def test_whole_odd_branch_solves_likelihood_equation(self, n, a, b, m):
        # on a whole branch j = +-1 no tally is clipped: each interior MLE has
        # p_+ = k/m to a few ulp, and every MLE is the argmax of a dense grid
        model, domain = GhzParityModel(n), PhaseDomain(a, b)
        mle = MaximumLikelihoodEstimator(model, domain).values(m)
        k = np.arange(m + 1)
        np.testing.assert_allclose(model.prob_plus(mle[1:-1]), k[1:-1] / m,
                                   rtol=0.0, atol=4 * np.finfo(float).eps)
        thetas = np.linspace(a, b, 200_001)
        grid_argmax = thetas[np.argmax(tally_pmf_matrix(model, m, thetas), axis=1)]
        np.testing.assert_allclose(mle, grid_argmax, rtol=0.0, atol=(b - a) / 200_000)

    def test_non_identifiable_domain_rejected(self, model):
        # [-0.3, 1.2] holds phases theta and -theta of equal likelihood: no MLE exists
        with pytest.raises(ModelError, match=r"not identifiable for model.N=2: N\*\[a, b\]"):
            MaximumLikelihoodEstimator(model, PhaseDomain(-0.3, 1.2))


class TestPosteriorConstruction:
    def test_flat_single_shot_density(self, model, flat):
        dens, marg = posterior_table(flat, 1, model, 1, 2)
        assert dens[0, 0] == pytest.approx(FLAT11_DENSITY_AT_ZERO, abs=1e-9)
        assert dens[0, -1] == pytest.approx(0.0, abs=1e-15)
        assert marg[0] == pytest.approx(0.5, abs=1e-12)

    def test_no_data_returns_prior(self, model, flat):
        dens, _ = posterior_table(flat, 0, model)
        np.testing.assert_allclose(dens[0], flat.values, atol=1e-14)

    def test_vanishing_prior_vanishes_in_posterior(self, model, grid):
        prior = family45_prior(10.0, grid)
        dens, _ = posterior_table(prior, 1, model, 1, 2)
        assert dens[0, 0] == 0.0
        assert abs(dens[0, -1]) < 1e-12

    @pytest.mark.parametrize("m", [1, 5, 11, 17, 24, 33, 42, 50])
    def test_normalisation_battery(self, model, grid, flat, m):
        for prior in (flat, family45_prior(-100.0, grid), family45_prior(-10.0, grid),
                      family45_prior(1.0, grid), family45_prior(10.0, grid)):
            dens, marg = posterior_table(prior, m, model)
            norms = dens @ grid.weights
            assert float(np.max(np.abs(norms - 1.0))) < 1e-9
            assert abs(marg.sum() - 1.0) < 1e-9

    def test_derivative_consistency(self, model, flat, grid):
        # the density times the closed-form score, as the summary's information weighs
        # it, against finite differences of the density (a flat prior adds no score)
        m, k = 5, 3
        dens, _ = posterior_table(flat, m, model, k, k + 1)
        c = _score_factor(model, grid.nodes)
        ddens = dens[0] * (k * c - m * model.prob_plus(grid.nodes) * c)
        inner = slice(1, -1)
        fd = np.gradient(dens[0], grid.nodes)
        np.testing.assert_allclose(ddens[inner], fd[inner], rtol=5e-3, atol=1e-4)


class TestBuildPosteriorRow:
    @pytest.mark.parametrize("m", [1, 7, 1000])
    def test_equals_full_table_row(self, model, grid, m):
        # a one-row posterior_table computes only its tally's row; the full pmf gives the same bits
        prior = family45_prior(10.0, grid)
        like = tally_pmf_matrix(model, m, grid.nodes)
        for k in (0, m // 2, m):
            raw = like[k] * prior.values
            marginal = raw @ grid.weights     # posterior_table's reduction, not integrate's
            dens, marg = posterior_table(prior, m, model, k, k + 1)
            assert marg[0] == marginal
            np.testing.assert_array_equal(dens[0], raw / marginal)

    @pytest.mark.parametrize("m", [1, 100, 1000])
    def test_window_without_out_is_window_shaped(self, model, grid, m):
        # called with cols and no out, posterior_table computes exactly its window: a
        # (rows, window width) array, equal to those rows and columns of the whole table.
        # The ramp prior is 0 below node 892, so the window [832, n) holds every nonzero
        # cell of the density and the marginals add the same terms; the rows start and end
        # on multiples of 16 tallies, or at m + 1, as the blocks of the whole table do
        prior = custom_prior(grid, np.maximum(grid.nodes - 0.7, 0.0), np.ones(grid.node_count))
        whole_dens, whole_marg = posterior_table(prior, m, model)
        cols = slice(832, grid.node_count)
        half = 16 * (m // 32)
        for k0, k1 in [(0, m + 1)] + ([(0, half), (half, m + 1)] if half else []):
            dens, marg = posterior_table(prior, m, model, k0, k1, cols=cols)
            assert dens.shape == (k1 - k0, grid.node_count - 832)
            np.testing.assert_array_equal(marg, whole_marg[k0:k1])
            np.testing.assert_array_equal(dens, whole_dens[k0:k1, cols])


class TestPosteriorSummaries:
    def test_single_shot_mean(self, model, flat):
        summary = PosteriorMeanEstimator(model, flat).summary(1)
        assert summary.mean[1] == pytest.approx(FLAT11_MEAN, abs=1e-10)

    def test_single_shot_variance(self, model, flat):
        summary = PosteriorMeanEstimator(model, flat).summary(1)
        assert summary.variance[1] == pytest.approx(FLAT11_VARIANCE, abs=1e-10)

    def test_symmetric_posterior_mean(self, model, flat):
        summary = PosteriorMeanEstimator(model, flat).summary(4)
        assert summary.mean[2] == pytest.approx(math.pi / 4, abs=1e-12)

    def test_variance_minimal_at_mean(self, model, flat, grid):
        summary = PosteriorMeanEstimator(model, flat).summary(7)
        dens, _ = posterior_table(flat, 7, model, 2, 3)
        v0 = summary.variance[2]
        for center in (0.3, 0.5, 1.0):
            assert integrate((grid.nodes - center) ** 2 * dens[0], grid) >= v0 - 1e-15

    def test_parallel_axis_identity(self, model, flat, grid):
        summary = PosteriorMeanEstimator(model, flat).summary(7)
        dens, _ = posterior_table(flat, 7, model, 2, 3)
        mu, v0 = summary.mean[2], summary.variance[2]
        c = 0.9
        assert integrate((grid.nodes - c) ** 2 * dens[0], grid) == pytest.approx(
            v0 + (c - mu) ** 2, abs=1e-12)

    def test_map_equals_mle_for_flat_prior(self, model, flat, domain):
        # gridded MAP agrees with the analytic MLE to one grid cell, every
        # tally up to m = 50
        cell = (domain.b - domain.a) / (flat.grid.node_count - 1)
        mle = MaximumLikelihoodEstimator(model, domain)
        for m in range(1, 51):
            dens, _ = posterior_table(flat, m, model)
            maps = flat.grid.nodes[np.argmax(dens, axis=1)]
            assert np.all(np.abs(maps - mle.values(m)) <= cell)


class TestFrequentistRisk:
    def test_mle_unbiased_at_symmetry_point(self, model, domain):
        est = MaximumLikelihoodEstimator(model, domain)
        for m in (1, 7, 30, 100):
            risk = frequentist_risk(est, math.pi / 4, m, model)
            assert abs(risk.mean - math.pi / 4) < 1e-12

    def test_variance_mse_bias_identity(self, model, domain, flat):
        estimators = [
            MaximumLikelihoodEstimator(model, domain),
            PosteriorMeanEstimator(model, flat),
        ]
        cells = [(0.3, 1), (0.3, 4), (math.pi / 4, 2), (math.pi / 4, 9),
                 (1.1, 3), (1.1, 16), (0.8, 25)]
        for est in estimators:
            for theta0, m in cells:
                risk = frequentist_risk(est, theta0, m, model)
                assert risk.mse == pytest.approx(
                    risk.variance + (risk.mean - theta0) ** 2, abs=1e-12)

    def test_zero_bias_makes_mse_equal_variance(self, model, domain):
        est = MaximumLikelihoodEstimator(model, domain)
        risk = frequentist_risk(est, math.pi / 4, 12, model)
        assert risk.mse == pytest.approx(risk.variance, abs=1e-12)

    def test_scaled_variance_approaches_crlb(self, model, domain):
        est = MaximumLikelihoodEstimator(model, domain)
        risk = frequentist_risk(est, math.pi / 4, 200, model)
        assert 200 * 4 * risk.variance == pytest.approx(1.0, rel=0.05)

    def test_bias_derivative_against_finite_differences(self, model, domain, flat):
        for est in (MaximumLikelihoodEstimator(model, domain),
                    PosteriorMeanEstimator(model, flat)):
            for theta0, m in ((math.pi / 4, 10), (0.6, 25)):
                analytic = frequentist_risk(est, theta0, m, model).bias_derivative
                fd = bias_derivative_fd(est, theta0, m, model)
                assert analytic == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("m", [1, 3, 300, 5000])
    def test_bias_derivative_weighs_with_the_derivative_kernel(self, model, domain, flat, m):
        # the cached pmf column times the score at theta0: the kernel's column, bit for bit
        for est in (MaximumLikelihoodEstimator(model, domain),
                    PosteriorMeanEstimator(model, flat)):
            v = est.values(m)
            for theta0 in (math.pi / 8, math.pi / 4, 1.4):
                got = frequentist_risk(est, theta0, m, model).bias_derivative
                dpmf = tally_pmf_dtheta_matrix(model, m, [theta0])[:, 0]
                assert got == float(np.sum(v * dpmf)), (theta0, type(est).__name__)

    def test_bias_derivative_trend_to_one(self, model, domain):
        est = MaximumLikelihoodEstimator(model, domain)
        gaps = [abs(frequentist_risk(est, math.pi / 4, m, model).bias_derivative - 1.0)
                for m in (10, 100, 1000)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_constant_estimator(self, model):
        est = ConstantEstimator(0.5)
        risk = frequentist_risk(est, 0.7, 9, model)
        assert risk.variance == pytest.approx(0.0, abs=1e-30)
        assert risk.mse == pytest.approx(0.04, abs=1e-15)
        assert risk.bias_derivative == pytest.approx(0.0, abs=1e-14)

    def test_estimates_stay_in_domain(self, model, grid):
        prior = family45_prior(-100.0, grid)
        est = PosteriorMeanEstimator(model, prior)
        for m in (1, 6):
            v = est.values(m)
            assert np.all(v >= 0.0) and np.all(v <= math.pi / 2)


class TestDegeneracy:
    def test_zero_likelihood_region(self, model, grid):
        # prior supported where the likelihood of k=m vanishes entirely
        values = np.where(grid.nodes > math.pi / 2 - 1e-4, 1.0, 0.0)
        prior = custom_prior(grid, values)
        with pytest.raises(DegeneratePosteriorError):
            posterior_table(prior, 40, model, 40, 41)
