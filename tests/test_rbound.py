import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasebound.rbound as rbound_module
from oracles import decision_rule_error_probability
from phasebound.estimate import (
    ConstantEstimator,
    MaximumLikelihoodEstimator,
    PosteriorMeanEstimator,
    build_posterior,
    frequentist_risk,
    posterior_mean,
)
from phasebound.engine import OutcomeTally
from phasebound.model import GhzParityModel, tally_pmf_matrix
from phasebound.numerics import (
    NonIntegrablePriorError,
    NumericalFailure,
    QuadratureGrid,
    family45_prior,
    flat_prior,
    integrate,
)
from phasebound.rbound import (
    acrlb,
    agbr,
    avg_estimator_variance,
    avg_mse,
    bayes_avg_posterior_variance,
    bayes_chain_report,
    estimator_chain_report,
    fvtb,
    pmin,
    tally_marginal,
    van_trees,
    ziv_zakai,
)

T0 = math.pi / 4


class TestAveragedRisks:
    def test_constant_estimator_has_zero_avg_variance(self, model, flat):
        assert avg_estimator_variance(ConstantEstimator(0.5), flat, 6, model) == pytest.approx(
            0.0, abs=1e-28)

    def test_matches_per_point_loop_oracle(self, model, domain, flat):
        # independent path: per-theta0 frequentist risks, same grid and weights
        est = MaximumLikelihoodEstimator(model, domain)
        m = 10
        g = QuadratureGrid.simpson(domain.a, domain.b, 201)
        oracle_var = oracle_mse = 0.0
        for node, weight in zip(g.nodes, g.weights):
            risk = frequentist_risk(est, float(node), m, model)
            density = float(flat.density(float(node)))
            oracle_var += weight * density * risk.variance
            oracle_mse += weight * density * risk.mse
        assert avg_estimator_variance(est, flat, m, model) == pytest.approx(
            oracle_var, abs=1e-12)
        assert avg_mse(est, flat, m, model) == pytest.approx(oracle_mse, abs=1e-12)

    def test_delta_like_prior_recovers_fixed_phase_variance(self, model, domain, monkeypatch):
        fine = QuadratureGrid.simpson(0.0, math.pi / 2, 16001)
        prior = family45_prior(1e4, fine)
        est = MaximumLikelihoodEstimator(model, domain)
        fixed = frequentist_risk(est, T0, 10, model).variance
        monkeypatch.setattr(rbound_module, "_OUTER_NODES", 4001)
        averaged = avg_estimator_variance(est, prior, 10, model)
        assert averaged == pytest.approx(fixed, rel=0.01)

    def test_constant_estimator_avg_mse_closed_form(self, model, flat):
        # integral of (pi/4 - theta)^2 * (2/pi) over [0, pi/2] = pi^2/48
        value = avg_mse(ConstantEstimator(T0), flat, 3, model)
        assert value == pytest.approx(math.pi**2 / 48, abs=1e-9)
        # pi/4 is the minimising constant
        assert avg_mse(ConstantEstimator(0.5), flat, 3, model) > value

    @pytest.mark.parametrize("make_est,m", [
        ("mle", 1), ("mle", 7), ("bayes", 5), ("bayes", 16),
    ])
    def test_mse_decomposition(self, model, domain, grid, flat, make_est, m):
        if make_est == "mle":
            est = MaximumLikelihoodEstimator(model, domain)
            prior = flat
        else:
            prior = family45_prior(1.0, grid)
            est = PosteriorMeanEstimator(model, prior)
        mse = avg_mse(est, prior, m, model)
        var = avg_estimator_variance(est, prior, m, model)
        # averaged squared bias, on the same outer rule
        g = QuadratureGrid.simpson(domain.a, domain.b, rbound_module._OUTER_NODES)
        means = est.values(m) @ tally_pmf_matrix(model, m, g.nodes)
        bias_sq = integrate((means - g.nodes) ** 2 * prior.density(g.nodes), g)
        assert mse == pytest.approx(var + bias_sq, abs=1e-10)
        assert mse >= var - 1e-12


class TestVanTrees:
    def test_large_m_value(self, model, grid):
        prior = family45_prior(10.0, grid)
        m = 1000
        assert m * van_trees(prior, m, model) == pytest.approx(0.25, rel=0.02)

    def test_flat_prior_rejected(self, model, flat):
        with pytest.raises(NonIntegrablePriorError):
            van_trees(flat, 5, model)

    def test_bounds_avg_mse_of_matched_bayes_estimator(self, model, grid):
        prior = family45_prior(10.0, grid)
        est = PosteriorMeanEstimator(model, prior)
        for m in (1, 5, 20):
            assert van_trees(prior, m, model) <= avg_mse(est, prior, m, model) + 1e-9


class TestHypothesisTesting:
    def test_identical_hypotheses_give_half(self, model, flat):
        cell = pmin(0.6, 1e-12, flat, 4, model)
        assert cell.pmin == pytest.approx(0.5, abs=1e-6)

    def test_orthogonal_single_shot(self, model, flat):
        cell = pmin(0.0, math.pi / 2, flat, 1, model)
        assert cell.pmin == pytest.approx(0.0, abs=1e-15)

    def test_interior_cell_matches_decision_rule(self, model, flat):
        cell = pmin(T0, math.pi / 8, flat, 3, model)
        assert 0.0 < cell.pmin < 0.5
        oracle = decision_rule_error_probability(T0, math.pi / 8, flat, 3, model)
        assert cell.pmin == pytest.approx(oracle, abs=1e-12)

    def test_random_cells_match_decision_rule(self, model, grid, flat):
        priors = [flat, family45_prior(1.0, grid)]
        rng = np.random.default_rng(123)
        for i in range(200):
            prior = priors[i % 2]
            theta0 = rng.uniform(0.0, math.pi / 2 - 1e-3)
            h = rng.uniform(1e-4, math.pi / 2 - theta0)
            m = int(rng.integers(1, 11))
            cell = pmin(theta0, h, prior, m, model)
            oracle = decision_rule_error_probability(theta0, h, prior, m, model)
            assert cell.pmin == pytest.approx(oracle, abs=1e-12)

    def test_empty_cell_flag(self, model, grid):
        # both hypotheses outside the domain: the zero extension kills both weights
        prior = family45_prior(10.0, grid)
        cell = pmin(-0.5, 0.2, prior, 3, model)
        assert cell.empty and math.isnan(cell.pmin)

    def test_zero_weight_hypothesis_gives_zero(self, model, grid):
        prior = family45_prior(10.0, grid)
        cell = pmin(0.0, 0.3, prior, 3, model)  # p(0) = 0, p(0.3) > 0
        assert cell.pmin == 0.0 and not cell.empty

    @given(st.floats(0.01, 1.5), st.floats(0.01, 1.5), st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_pmin_in_range(self, theta0, h, m):
        model = GhzParityModel(2)
        prior = flat_prior()
        cell = pmin(theta0, h, prior, m, model)
        if not cell.empty:
            assert 0.0 <= cell.pmin <= 0.5


class TestZivZakai:
    def test_below_avg_mse_of_matched_estimator(self, model, grid):
        prior = family45_prior(1.0, grid)
        est = PosteriorMeanEstimator(model, prior)
        for m in (1, 5, 10):
            assert ziv_zakai(prior, m, model) <= avg_mse(est, prior, m, model) + 1e-9

    def test_flat_prior_supported(self, model, flat):
        value = ziv_zakai(flat, 3, model)
        assert 0.0 < value < (math.pi / 2) ** 2

    def test_stable_under_grid_refinement(self, model, grid, monkeypatch):
        prior = family45_prior(1.0, grid)
        monkeypatch.setattr(rbound_module, "_OUTER_NODES", 201)
        coarse = ziv_zakai(prior, 5, model)
        monkeypatch.setattr(rbound_module, "_OUTER_NODES", 401)
        fine = ziv_zakai(prior, 5, model)
        assert coarse == pytest.approx(fine, rel=1e-3)


def _ziv_zakai_min_oracle(prior, m, model, n=201):
    """Ziv-Zakai with P_min = sum_k min(w0 p(k|theta0), w1 p(k|theta0+h)), free of cancellation."""
    g = QuadratureGrid.simpson(prior.domain.a, prior.domain.b, n)
    pmf = tally_pmf_matrix(model, m, g.nodes)
    p = prior.density(g.nodes)
    h_weights = QuadratureGrid.simpson(0.0, prior.domain.width, n).weights
    total = 0.0
    for i in range(1, n):
        w0, w1 = p[:n - i], p[i:]
        both = (w0 > 0.0) & (w1 > 0.0)
        s = np.where(both, w0 + w1, 1.0)
        p_min = np.minimum(w0 / s * pmf[:, :n - i], w1 / s * pmf[:, i:]).sum(axis=0)
        inner = np.sum(np.where(both, g.weights[:n - i] * s * p_min, 0.0))
        total += h_weights[i] * (g.nodes[i] - g.a) * inner
    return 0.5 * total


class TestZivZakaiOracle:
    @pytest.mark.parametrize("m", [1, 2, 5, 20])
    def test_matches_min_form(self, model, grid, flat, m):
        for prior in (flat, family45_prior(-10.0, grid), family45_prior(10.0, grid),
                      family45_prior(100.0, grid)):
            oracle = _ziv_zakai_min_oracle(prior, m, model)
            assert ziv_zakai(prior, m, model) == pytest.approx(oracle, rel=1e-13, abs=0.0)


class TestVarianceChain:
    @pytest.mark.parametrize("alpha", [1.0, 10.0])
    @pytest.mark.parametrize("m", [1, 5, 20, 50])
    def test_chain_for_matched_bayes_estimator(self, model, grid, alpha, m):
        prior = family45_prior(alpha, grid)
        est = PosteriorMeanEstimator(model, prior)
        report = estimator_chain_report(est, prior, m, model)
        assert report.avg_variance >= report.acrlb - 1e-9
        assert report.acrlb >= report.fvtb - 1e-9

    def test_acrlb_matches_per_point_loop(self, model, domain, grid):
        prior = family45_prior(1.0, grid)
        est = MaximumLikelihoodEstimator(model, domain)
        m = 6
        g = QuadratureGrid.simpson(domain.a, domain.b, 201)
        oracle = 0.0
        for node, weight in zip(g.nodes, g.weights):
            risk = frequentist_risk(est, float(node), m, model)
            oracle += weight * float(prior.density(float(node))) \
                * risk.bias_derivative**2 / (m * 4.0)
        assert acrlb(est, prior, m, model) == pytest.approx(oracle, abs=1e-12)

    def test_fvtb_below_acrlb_on_many_configurations(self, model, domain, grid):
        priors = [family45_prior(a, grid) for a in (-10.0, 1.0, 10.0)]
        estimators = [MaximumLikelihoodEstimator(model, domain)] + [
            PosteriorMeanEstimator(model, p) for p in priors]
        checked = 0
        for prior in priors:
            for est in estimators:
                for m in (2, 9):
                    assert fvtb(est, prior, m, model) <= acrlb(est, prior, m, model) + 1e-9
                    checked += 1
        assert checked >= 20

    def test_constant_estimator_acrlb_is_zero(self, model, grid):
        prior = family45_prior(1.0, grid)
        assert acrlb(ConstantEstimator(0.4), prior, 4, model) == pytest.approx(0.0, abs=1e-28)


class TestRandomPhaseBayes:
    def test_marginal_sums_to_one(self, model, grid):
        prior = family45_prior(1.0, grid)
        for m in (1, 9, 40):
            assert tally_marginal(prior, m, model).sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("m", [1, 5, 25])
    def test_matched_chain(self, model, grid, m):
        prior = family45_prior(1.0, grid)
        report = bayes_chain_report(prior, m, model)
        assert report.bayes_variance >= report.agbr - 1e-9
        assert report.agbr >= report.van_trees - 1e-9

    def test_agbr_verifies_chain_when_matched(self, model, grid):
        prior = family45_prior(1.0, grid)
        value = agbr(prior, prior, 5, model)
        assert value > 0.0

    def test_agbr_with_mismatched_priors(self, model, grid, flat):
        prior_true = family45_prior(10.0, grid)
        value = agbr(flat, prior_true, 4, model)
        assert 0.0 < value < (math.pi / 2) ** 2

    def test_bayes_variance_matches_joint_density_oracle(self, model, grid, monkeypatch):
        # Independent path: sum_k integral p(k|theta) p(theta) (theta - mean_k)^2,
        # assembled from per-tally posteriors and the same outer rule.
        prior = family45_prior(1.0, grid)
        m = 5
        monkeypatch.setattr(rbound_module, "_OUTER_NODES", grid.node_count)
        value = bayes_avg_posterior_variance(prior, prior, m, model)
        pmf = tally_pmf_matrix(model, m, grid.nodes)
        joint = pmf * prior.values
        oracle = 0.0
        for k in range(m + 1):
            post = build_posterior(prior, OutcomeTally(k, m), model)
            mean_k = posterior_mean(post)
            oracle += integrate(joint[k] * (grid.nodes - mean_k) ** 2, grid)
        assert value == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("m", [1, 5, 12])
    def test_matched_prior_variance_equals_avg_mse_of_posterior_mean(self, model, grid, m):
        # with matched priors the marginal-averaged posterior variance is the
        # averaged MSE of the posterior-mean estimator, integration order swapped
        prior = family45_prior(1.0, grid)
        est = PosteriorMeanEstimator(model, prior)
        lhs = bayes_avg_posterior_variance(prior, prior, m, model)
        rhs = avg_mse(est, prior, m, model)
        assert lhs == pytest.approx(rhs, abs=5e-9)

    def test_no_data_returns_prior_variance(self, model, grid):
        prior = family45_prior(10.0, grid)
        assert bayes_avg_posterior_variance(prior, prior, 0, model) == pytest.approx(
            prior.variance(), abs=1e-12)

    def test_monotone_decrease_in_m(self, model, grid):
        prior = family45_prior(10.0, grid)
        values = [bayes_avg_posterior_variance(prior, prior, m, model)
                  for m in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestOuterGridResolution:
    """Every theta0 integral refuses a prior that its 201-node grid cannot resolve."""

    @pytest.mark.parametrize("alpha", [-100.0, -10.0, 1.0, 10.0, 100.0, 300.0])
    def test_resolved_priors_accepted(self, model, grid, alpha):
        marginal = tally_marginal(family45_prior(alpha, grid), 3, model)
        assert marginal.sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("alpha", [500.0, 2000.0])
    def test_narrow_prior_rejected(self, model, grid, alpha):
        prior = family45_prior(alpha, grid)
        est = MaximumLikelihoodEstimator(model, prior.domain)
        for evaluate in (lambda: tally_marginal(prior, 3, model),
                         lambda: avg_mse(est, prior, 3, model),
                         lambda: avg_estimator_variance(est, prior, 3, model),
                         lambda: acrlb(est, prior, 3, model),
                         lambda: fvtb(est, prior, 3, model),
                         lambda: ziv_zakai(prior, 3, model)):
            with pytest.raises(NumericalFailure, match=f"201-node theta0 grid .*alpha={alpha:g}"):
                evaluate()
