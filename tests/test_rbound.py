import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasebound.rbound as rbound_module
from oracles import (
    ConstantEstimator,
    decision_rule_error_probability,
    pmin_bisection,
    triu_shift_pairs,
    ziv_zakai_bisection,
    ziv_zakai_shift_loop,
    ziv_zakai_triu,
)
from phasebound.cli import main
from phasebound.estimate import (
    MaximumLikelihoodEstimator,
    PosteriorMeanEstimator,
    frequentist_risk,
    posterior_table,
)
from phasebound.model import GhzParityModel, tally_pmf_matrix
from phasebound.numerics import (
    NonIntegrablePriorError,
    NumericalFailure,
    QuadratureGrid,
    custom_prior,
    family45_prior,
    flat_prior,
    integrate,
)
from phasebound.rbound import (
    acrlb,
    avg_estimator_variance,
    avg_mse,
    bayes_chain_report,
    estimator_chain_report,
    fvtb,
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


def _grid_pmin(prior, m, model):
    """Ziv-Zakai's test pairs of theta0-grid nodes under ``prior``, and their P_min at m."""
    pairs = rbound_module._ziv_zakai_pairs(prior, model)
    return pairs, rbound_module._pmin_columns(model, m, pairs.grid.nodes, pairs.tests).copy()


def _pair_index(pairs, i, j):
    return int(np.flatnonzero((pairs.tests.first == i) & (pairs.tests.second == j))[0])


class TestHypothesisTesting:
    """P_min of the binary tests Ziv-Zakai integrates, pair by pair against the decision rule."""

    def test_orthogonal_single_shot(self, model, flat):
        # nodes 0 and pi/2: p_+ = 1 against p_+ = 0
        pairs, p_min = _grid_pmin(flat, 1, model)
        assert p_min[_pair_index(pairs, 0, 200)] == pytest.approx(0.0, abs=1e-15)

    def test_interior_cell_matches_decision_rule(self, model, flat):
        pairs, p_min = _grid_pmin(flat, 3, model)
        value = p_min[_pair_index(pairs, 100, 150)]          # pi/4 against 3 pi/8
        assert 0.0 < value < 0.5
        theta0, theta1 = pairs.grid.nodes[[100, 150]]
        oracle = decision_rule_error_probability(theta0, theta1 - theta0, flat, 3, model)
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_random_cells_match_decision_rule(self, model, grid, flat):
        priors = [flat, family45_prior(1.0, grid)]
        rng = np.random.default_rng(123)
        for i in range(200):
            prior = priors[i % 2]
            m = int(rng.integers(1, 11))
            pairs, p_min = _grid_pmin(prior, m, model)
            t = int(rng.integers(p_min.size))
            theta0, theta1 = pairs.grid.nodes[[pairs.tests.first[t], pairs.tests.second[t]]]
            oracle = decision_rule_error_probability(theta0, theta1 - theta0, prior, m, model)
            assert p_min[t] == pytest.approx(oracle, abs=1e-12)

    @given(st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_pmin_in_range(self, m):
        # the flat prior's pairs hold the end nodes, where a crossing's closed form is NaN
        _, p_min = _grid_pmin(flat_prior(), m, GhzParityModel(2))
        assert np.all((p_min >= 0.0) & (p_min <= 0.5))


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
        rbound_module._ziv_zakai_pairs.cache_clear()     # the memo holds the 201-node pairs
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


class TestZivZakaiShiftLoop:
    # the crossing-tally evaluation reproduces the per-tally sum of |w0 p0 - w1 p1|
    @pytest.mark.parametrize("alpha,m", [
        *[(alpha, m) for alpha in (10.0, -10.0, 1.0, 100.0) for m in (1, 2, 3, 20, 100, 1000)],
        (10.0, 5000),   # the two supports of a wide test pair underflow apart
    ])
    def test_family45(self, model, grid, alpha, m):
        prior = family45_prior(alpha, grid)
        assert ziv_zakai(prior, m, model) == pytest.approx(
            ziv_zakai_shift_loop(prior, m, model), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("m", [1, 2, 20])
    def test_flat_prior(self, model, flat, m):
        # the endpoints are deterministic channels, p_plus in {0, 1}
        assert ziv_zakai(flat, m, model) == pytest.approx(
            ziv_zakai_shift_loop(flat, m, model), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("m", [1, 3, 20, 100])
    def test_p_plus_not_monotone_on_domain(self, model, m):
        # on [-0.3, 1.2] p_plus = cos^2(theta) rises up to 0 and falls after it,
        # so test pairs on opposite sides of 0 have opposite orientation
        g = QuadratureGrid.simpson(-0.3, 1.2)
        prior = custom_prior(g, np.sin(math.pi * (g.nodes + 0.3) / 1.5) ** 2)
        assert ziv_zakai(prior, m, model) == pytest.approx(
            ziv_zakai_shift_loop(prior, m, model), rel=1e-13, abs=0.0)


class TestZivZakaiPairs:
    @pytest.mark.parametrize("n", [3, 5, 201])
    def test_pair_order_matches_sorted_triangle(self, n):
        x = np.linspace(0.0, 1.0, n)
        vanishing = np.sin(math.pi * x)
        vanishing[[0, -1]] = 0.0                 # zero weight at the endpoints
        gaps = np.where(np.arange(n) % 3 == 1, 0.0, 1.0 + x)
        for p in (np.ones(n), vanishing, gaps):
            got = rbound_module._shift_pairs(p)
            want = triu_shift_pairs(p)
            for name, g, w in zip(("first", "second", "shifts", "starts"), got, want):
                np.testing.assert_array_equal(g, w, err_msg=name)

    @pytest.mark.parametrize("alpha", [10.0, -10.0, 1.0, 100.0])
    @pytest.mark.parametrize("m", [1, 2, 7, 100, 5000])
    def test_equals_triu_bisection(self, model, grid, alpha, m):
        # at alpha = 100 and m = 5000 a mirror pair's likelihood ratio is 1 within rounding
        # at k = m/2, and the closed form breaks that tie unlike the bisection: 1 ulp
        prior = family45_prior(alpha, grid)
        got, want = ziv_zakai(prior, m, model), ziv_zakai_triu(prior, m, model)
        assert abs(got - want) <= (math.ulp(want) if (m, alpha) == (5000, 100.0) else 0.0)

    @pytest.mark.parametrize("m", [1, 3, 20])
    def test_equals_triu_bisection_off_branch_and_flat(self, model, flat, m):
        g = QuadratureGrid.simpson(-0.3, 1.2)
        off_branch = custom_prior(g, np.sin(math.pi * (g.nodes + 0.3) / 1.5) ** 2)
        for prior in (flat, off_branch):
            assert ziv_zakai(prior, m, model) == ziv_zakai_triu(prior, m, model)

    @pytest.mark.parametrize("m", [1, 7, 100])
    def test_prebuilt_pairs_equal_own_pairs(self, model, grid, m):
        # a sweep's first row builds the pairs and every later row reads them from the
        # memo: a call on prebuilt pairs gives the doubles of one that builds its own
        prior = family45_prior(-10.0, grid)
        rbound_module._ziv_zakai_pairs(prior, model)
        prebuilt = ziv_zakai(prior, m, model)
        rbound_module._ziv_zakai_pairs.cache_clear()
        assert prebuilt == ziv_zakai(prior, m, model)

    def test_pairs_memo_keyed_by_prior(self, model, grid):
        # priors compare by identity: each prior object, even one of equal values, gets
        # pairs of its own, built once, and the same bound from them
        prior, twin = family45_prior(10.0, grid), family45_prior(10.0, grid)
        pairs = rbound_module._ziv_zakai_pairs(prior, model)
        assert rbound_module._ziv_zakai_pairs(prior, model) is pairs
        assert rbound_module._ziv_zakai_pairs(twin, model) is not pairs
        assert ziv_zakai(twin, 3, model) == ziv_zakai(prior, 3, model)

    def test_fig4_builds_pairs_once(self, tmp_path, monkeypatch):
        calls = []
        real = rbound_module._shift_pairs

        def counting(p):
            calls.append(p.size)
            return real(p)

        monkeypatch.setattr(rbound_module, "_shift_pairs", counting)
        assert main(["fig4", "--prior.alpha", "10", "--m.list", "1,2,3,5,8",
                     "--out", str(tmp_path / "fig4.csv")]) == 0
        assert calls == [201]

    def test_reused_buffers_do_not_leak_between_rows(self, model, grid, fresh_workspace):
        # each row on the reused workspace equals, bit for bit, one on a fresh workspace
        prior = family45_prior(10.0, grid)
        for m in (100, 3, 5000, 7, 100):
            want = fresh_workspace(ziv_zakai, prior, m, model)
            assert ziv_zakai(prior, m, model) == want


# every m of the bayes_sweep workload, m on either side of the one-block limit (325 and 326),
# and the large_m workload's m
CROSSING_MS = [*range(1, 101), 325, 326, 1000, 1303, 1304, 5000]
# mirror pairs about pi/4 have equal weights and a likelihood ratio of 1 within rounding at
# k = m/2, a tie that the closed form and the bisection may break differently: the P_min of
# such a pair may move by 1.5 ulps of 0.5 (the pair of nodes 90 and 110 does), that of the
# nodes 97 and 98 with 103 and 102 by two and three ulps, and the bound by one ulp where it does
MIRROR_TIE = 1.5 * math.ulp(0.5)
MIRROR_TIE_WIDE = {97: 2 * math.ulp(0.5), 98: 3 * math.ulp(0.5)}   # by the pair's first node


def _crossing_priors(grid, flat):
    return {"flat": flat, **{f"alpha={a:g}": family45_prior(a, grid)
                             for a in (10.0, -10.0, 1.0, 100.0)}}


class TestStreamedCrossings:
    """Closed-form crossings and CDFs in row blocks, against the whole-table bisection."""

    @pytest.mark.parametrize("name", ["flat", "alpha=10", "alpha=-10", "alpha=1", "alpha=100"])
    def test_ziv_zakai_equals_bisection(self, model, grid, flat, name):
        prior = _crossing_priors(grid, flat)[name]
        for m in CROSSING_MS:
            got, want = ziv_zakai(prior, m, model), ziv_zakai_bisection(prior, m, model)
            tie = (name, m) == ("alpha=100", 5000)
            assert abs(got - want) <= (math.ulp(want) if tie else 0.0), m

    @pytest.mark.parametrize("name", ["flat", "alpha=10", "alpha=-10", "alpha=1", "alpha=100"])
    def test_pmin_equals_bisection(self, model, grid, flat, name):
        # every test pair but the mirror pairs about pi/4 is equal, the end nodes among
        # them (p_+ = 1 at 0 and 0 at pi/2, weighted by the flat prior only), and every
        # mirror pair is held to MIRROR_TIE or its MIRROR_TIE_WIDE
        prior = _crossing_priors(grid, flat)[name]
        pairs = rbound_module._ziv_zakai_pairs(prior, model)
        nodes, first, second = pairs.grid.nodes, pairs.tests.first, pairs.tests.second
        mirror = first + second == nodes.size - 1
        tie = np.array([MIRROR_TIE_WIDE.get(int(i), MIRROR_TIE) for i in first[mirror]])
        for m in CROSSING_MS:
            got = rbound_module._pmin_columns(model, m, nodes, pairs.tests)
            want = pmin_bisection(tally_pmf_matrix(model, m, nodes), first, second,
                                  pairs.tests.a, pairs.tests.b, model.prob_plus(nodes))
            assert np.array_equal(got[~mirror], want[~mirror]), m
            assert np.all(np.abs(got[mirror] - want[mirror]) <= tie), m


_BLOCKS_PROBE = """
import math, sys
from oracles import whole_matrix_avg_mse, whole_matrix_avg_variance, whole_matrix_marginal
from phasebound import GhzParityModel, MaximumLikelihoodEstimator, PosteriorMeanEstimator
from phasebound import QuadratureGrid, family45_prior, flat_prior
from phasebound.model import tally_pmf_dtheta_matrix
from phasebound.rbound import _mean_slope, _outer_grid, avg_estimator_variance, avg_mse
from phasebound.rbound import tally_marginal
model = GhzParityModel(2)
grid = QuadratureGrid.simpson(0.0, math.pi / 2, 401)
for prior in (family45_prior(10.0, grid), flat_prior()):
    estimators = [MaximumLikelihoodEstimator(model, prior.domain),
                  PosteriorMeanEstimator(model, prior)]
    g = _outer_grid(prior)[0]
    for m in (1303, 1304, 2607, 5000):
        got = tally_marginal(prior, m, model)
        assert (got == whole_matrix_marginal(prior, m, model)).all(), ("marginal", m)
        for est in estimators:
            got = avg_estimator_variance(est, prior, m, model)
            assert got == whole_matrix_avg_variance(est, prior, m, model), ("variance", m)
            assert avg_mse(est, prior, m, model) == whole_matrix_avg_mse(est, prior, m, model), m
            slope = est.values(m) @ tally_pmf_dtheta_matrix(model, m, g.nodes)
            assert (_mean_slope(est, m, model, g.nodes) == slope).all(), ("slope", m)
print("ok")
"""


def test_streamed_theta0_stages_equal_whole_matrix():
    # past m = 325 the tally marginal streams blocks of 320 rows, and the averaged
    # risks and the mean slope behind acrlb and fvtb blocks of 16 to 192 phases; each
    # gives the whole matrix's doubles.  One BLAS thread: gemv sums a whole matrix of
    # 2607 rows or more in lanes that depend on the thread count, the 16-aligned
    # blocks do not
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "tests")])
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", _BLOCKS_PROBE], env=env, capture_output=True,
                         text=True)
    assert (out.returncode, out.stdout.strip()) == (0, "ok"), out.stderr


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
        report = bayes_chain_report(PosteriorMeanEstimator(model, prior), m)
        assert report.bayes_variance >= report.agbr - 1e-9
        assert report.agbr >= report.van_trees - 1e-9

    def test_bayes_variance_matches_joint_density_oracle(self, model, grid, monkeypatch):
        # Independent path: sum_k integral p(k|theta) p(theta) (theta - mean_k)^2,
        # assembled from per-tally posteriors and the same outer rule.
        prior = family45_prior(1.0, grid)
        m = 5
        monkeypatch.setattr(rbound_module, "_OUTER_NODES", grid.node_count)
        value = bayes_chain_report(PosteriorMeanEstimator(model, prior), m).bayes_variance
        pmf = tally_pmf_matrix(model, m, grid.nodes)
        joint = pmf * prior.values
        oracle = 0.0
        for k in range(m + 1):
            dens, _ = posterior_table(prior, m, model, k, k + 1)
            mean_k = integrate(grid.nodes * dens[0], grid)
            oracle += integrate(joint[k] * (grid.nodes - mean_k) ** 2, grid)
        assert value == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("m", [1, 5, 12])
    def test_matched_prior_variance_equals_avg_mse_of_posterior_mean(self, model, grid, m):
        # with matched priors the marginal-averaged posterior variance is the
        # averaged MSE of the posterior-mean estimator, integration order swapped
        prior = family45_prior(1.0, grid)
        est = PosteriorMeanEstimator(model, prior)
        lhs = bayes_chain_report(est, m).bayes_variance
        rhs = avg_mse(est, prior, m, model)
        assert lhs == pytest.approx(rhs, abs=5e-9)

    # alpha: the largest relative gap between the two sides of that identity over
    # m = 1, 2, 10, 100 and 1000.  avg_mse integrates over theta0 on the 201-node grid,
    # the posterior variance on the prior's 2001 nodes: the gap is that grid's error.
    IDENTITY_GAP = {100.0: 3.97e-15, 10.0: 4.44e-10, 1.0: 2.33e-7, -10.0: 2.14e-6}

    @pytest.mark.parametrize("alpha", sorted(IDENTITY_GAP))
    def test_matched_prior_identity_gap_is_the_theta0_grid_error(self, model, grid, alpha):
        prior = family45_prior(alpha, grid)
        est = PosteriorMeanEstimator(model, prior)
        gaps = {}
        for m in (1, 2, 10, 100, 1000):
            variance = bayes_chain_report(est, m).bayes_variance
            gaps[m] = abs(avg_mse(est, prior, m, model) - variance) / variance
        assert max(gaps.values()) <= 2.0 * self.IDENTITY_GAP[alpha], gaps

    def test_monotone_decrease_in_m(self, model, grid):
        prior = family45_prior(10.0, grid)
        bayes = PosteriorMeanEstimator(model, prior)
        values = [bayes_chain_report(bayes, m).bayes_variance for m in (1, 2, 4, 8, 16)]
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
