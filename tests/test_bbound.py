import math
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import phasebound.bbound as bbound_module
from oracles import lbvm_reference
from phasebound.bbound import (
    GhoshInputs,
    NonIntegrablePosteriorError,
    averaged_ghosh,
    averaged_posterior_variance,
    boundary_term,
    ghosh_bound,
    ghosh_table,
    posterior_fisher_information,
    posterior_summary,
)
from phasebound.cli import main
from phasebound.engine import OutcomeTally
from phasebound.estimate import (
    DegeneratePosteriorError,
    PosteriorMeanEstimator,
    build_posterior,
    posterior_mean,
    posterior_table,
    posterior_variance,
)
from phasebound.model import GhzParityModel, PhaseDomain
from phasebound.numerics import (
    QuadratureGrid,
    custom_prior,
    family45_prior,
    integrate,
)

T0 = math.pi / 4

# flat-prior single-shot (+1) posterior (4/pi) cos^2 on [0, pi/2]:
#   mean  = pi/4 - 1/pi,  f = mean * 4/pi,  J = 4,  bound = (f-1)^2/4
FLAT11_F = 0.59471526543064891
FLAT11_GHOSH = 0.041063929018737341
FLAT11_VARIANCE = 0.10429557471369053


def _inputs(post, domain=None):
    return GhoshInputs(posterior=post, theta_bl=posterior_mean(post),
                       domain=domain or PhaseDomain())


def _interior_zero_prior(grid):
    # density identically zero below 0.7 but claimed slope 1 everywhere
    return custom_prior(grid, np.maximum(grid.nodes - 0.7, 0.0), np.ones(grid.node_count))


class TestBoundaryTerm:
    def test_vanishing_prior_gives_zero(self, model, grid):
        for alpha in (-100.0, -10.0, 1.0, 10.0):
            prior = family45_prior(alpha, grid)
            for tally in (OutcomeTally(1, 1), OutcomeTally(3, 5)):
                post = build_posterior(prior, tally, model)
                assert abs(boundary_term(_inputs(post))) < 1e-12

    def test_flat_single_shot_value(self, model, flat):
        post = build_posterior(flat, OutcomeTally(1, 1), model)
        assert boundary_term(_inputs(post)) == pytest.approx(FLAT11_F, abs=1e-9)

    def test_direct_substitution(self, model, flat, domain):
        # k = m posterior: density vanishes at b only, so f = -theta_bl*(0 - p(a))...
        # check the formula against a hand-assembled expression
        post = build_posterior(flat, OutcomeTally(2, 2), model)
        pa, pb = post.boundary_values
        mean = posterior_mean(post)
        expected = domain.b * pb - domain.a * pa - mean * (pb - pa)
        assert boundary_term(_inputs(post)) == expected


class TestGhoshBound:
    def test_flat_single_shot(self, model, flat):
        post = build_posterior(flat, OutcomeTally(1, 1), model)
        gb = ghosh_bound(_inputs(post))
        var = posterior_variance(post)
        assert var == pytest.approx(FLAT11_VARIANCE, abs=1e-9)
        # the endpoint convention biases J down by ~3e-4 relative
        assert gb == pytest.approx(FLAT11_GHOSH, rel=1e-3)
        assert gb <= var + 1e-9

    def test_posterior_information_value(self, model, flat):
        post = build_posterior(flat, OutcomeTally(1, 1), model)
        assert posterior_fisher_information(post) == pytest.approx(4.0, rel=1e-3)

    def test_saturated_on_gaussian_reference(self, model, grid):
        post = lbvm_reference(T0, 100, model, grid)
        gb = ghosh_bound(_inputs(post))
        var = posterior_variance(post)
        assert gb == pytest.approx(1.0 / (100 * 4), abs=1e-8)
        assert abs(gb - var) < 1e-6

    def test_prior_only_bound_below_prior_variance(self, model, grid):
        prior = family45_prior(10.0, grid)
        post = build_posterior(prior, OutcomeTally(0, 0), model)
        gb = ghosh_bound(_inputs(post))
        assert gb <= posterior_variance(post) + 1e-9
        assert posterior_variance(post) == pytest.approx(prior.variance(), abs=1e-12)

    def test_flat_posterior_degenerates_to_zero(self, model, flat):
        post = build_posterior(flat, OutcomeTally(0, 0), model)
        assert ghosh_bound(_inputs(post)) == 0.0

    @pytest.mark.parametrize("m", [1, 3, 7, 20, 50])
    def test_dominance_battery(self, model, prior_battery, m):
        for name, prior in prior_battery.items():
            table = ghosh_table(prior, m, model)
            worst = float(np.max(table.ghosh - table.variance))
            assert worst <= 1e-9, f"{name}, m={m}: ghosh exceeds variance by {worst}"

    def test_interior_zero_posterior_rejected(self, model, grid):
        # (p')^2/p diverges where the density is zero with slope 1
        with pytest.raises(NonIntegrablePosteriorError):
            ghosh_table(_interior_zero_prior(grid), 1, model)


class TestAveragedGhosh:
    def test_below_averaged_posterior_variance(self, model, prior_battery):
        for name, prior in prior_battery.items():
            for m in (1, 4, 11, 30, 60, 100):
                agb = averaged_ghosh(T0, m, model, prior)
                apv = averaged_posterior_variance(T0, m, model, prior)
                assert agb <= apv + 1e-9, (name, m)

    def test_flat_prior_large_m_approaches_crlb(self, model, flat):
        m = 1000
        assert m * averaged_ghosh(T0, m, model, flat) == pytest.approx(0.25, rel=0.05)

    def test_flat_prior_small_m_below_unbiased_crlb(self, model, flat):
        values = [m * averaged_ghosh(T0, m, model, flat) for m in range(1, 21)]
        assert min(values) < 0.25


class TestLbvmReference:
    def test_variance_value(self, model, grid):
        post = lbvm_reference(T0, 100, model, grid)
        assert posterior_variance(post) == pytest.approx(0.0025, abs=1e-9)

    def test_normalised(self, model, grid):
        post = lbvm_reference(T0, 7, model, grid)
        assert integrate(post.density, grid) == pytest.approx(1.0, abs=1e-12)

    def test_sup_norm_distance_decreases(self, model, flat, grid):
        # the true posterior approaches the Gaussian reference as m grows
        distances = []
        for m in (10, 100, 1000):
            k = round(m * float(model.prob_plus(T0)))
            post = build_posterior(flat, OutcomeTally(k, m), model)
            ref = lbvm_reference(T0, m, model, grid)
            distances.append(float(np.max(np.abs(post.density - ref.density))))
        assert distances[0] > distances[1] > distances[2]


@pytest.fixture
def posterior_calls(monkeypatch):
    """Counts posterior_table builds per m, as seen by posterior_summary.

    A build is streamed in blocks of tallies; it counts once, at the block
    that starts at tally 0.
    """
    calls = Counter()

    def counting(prior, m, model, k0=0, k1=None):
        calls[m] += k0 == 0
        return posterior_table(prior, m, model, k0, k1)

    monkeypatch.setattr(bbound_module, "posterior_table", counting)
    return calls


class TestPosteriorSummary:
    def test_estimator_and_ghosh_table_share_one_build(self, model, grid, posterior_calls):
        prior = family45_prior(10.0, grid)
        for m in (1, 2, 7):
            means = PosteriorMeanEstimator(model, prior).values(m)
            table = ghosh_table(prior, m, model)
            np.testing.assert_array_equal(means, np.clip(table.mean, 0.0, math.pi / 2))
        assert posterior_calls == {1: 1, 2: 1, 7: 1}

    def test_mean_is_grid_average_of_table(self, model, grid):
        prior = family45_prior(-10.0, grid)
        dens, _, marginal = posterior_table(prior, 9, model)
        summary = posterior_summary(prior, 9, model)
        np.testing.assert_array_equal(summary.mean, (dens * grid.nodes) @ grid.weights)
        np.testing.assert_array_equal(summary.marginal, marginal)

    def test_memo_holds_only_length_m_vectors(self, model, grid):
        prior = family45_prior(10.0, grid)
        m = 12
        ghosh_table(prior, m, model)
        key, summary = prior.posterior_slot[0]
        assert key[0] == m
        arrays = [v for v in vars(summary).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 6
        assert all(a.size <= m + 1 and not a.flags.writeable for a in arrays)

    def test_key_change_rebuilds(self, model, grid, posterior_calls):
        # the memo key is (m, model): another model at the same m is a new build
        prior = family45_prior(1.0, grid)
        default = ghosh_table(prior, 4, model)
        other_model = ghosh_table(prior, 4, GhzParityModel(1))
        assert posterior_calls == {4: 2}
        assert other_model is not default
        assert ghosh_table(prior, 4, GhzParityModel(1)) is other_model
        assert posterior_calls == {4: 2}

    def test_failed_ghosh_check_keeps_posterior_mean(self, model, grid):
        prior = _interior_zero_prior(grid)
        with pytest.raises(NonIntegrablePosteriorError):
            ghosh_table(prior, 1, model)
        values = PosteriorMeanEstimator(model, prior).values(1)
        dens, _, _ = posterior_table(prior, 1, model)
        np.testing.assert_array_equal(values, (dens * grid.nodes) @ grid.weights)
        with pytest.raises(NonIntegrablePosteriorError):     # raised again from the memo
            ghosh_table(prior, 1, model)

    def test_concurrent_callers_get_their_own_m(self, model):
        # more threads than cores, switching often, all sharing one prior's slot
        grid = QuadratureGrid.simpson(0.0, math.pi / 2, 201)
        prior = family45_prior(10.0, grid)
        ms = [1, 2, 3, 4, 5, 6] * 8
        expected = {m: posterior_summary(family45_prior(10.0, grid), m, model).variance
                    for m in set(ms)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda m: posterior_summary(prior, m, model), ms,
                                    timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for m, summary in zip(ms, got):
            assert summary.m == m
            np.testing.assert_array_equal(summary.variance, expected[m])


SUMMARY_FIELDS = ("marginal", "mean", "variance", "boundary", "information", "ghosh")


class TestStreamedSummary:
    """posterior_summary in forced small blocks of tallies against one block."""

    @staticmethod
    def _summary(monkeypatch, prior, m, model, rows=None):
        # callers pass a fresh prior each time, so that the memo never answers
        with monkeypatch.context() as patch:
            if rows is not None:
                patch.setattr(bbound_module, "_BLOCK_CELLS", rows * prior.grid.node_count)
            return posterior_summary(prior, m, model)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 7, 20])
    def test_blocks_match_one_block(self, monkeypatch, model, grid, rows, m):
        whole = self._summary(monkeypatch, family45_prior(10.0, grid), m, model)
        blocked = self._summary(monkeypatch, family45_prior(10.0, grid), m, model, rows)
        for name in SUMMARY_FIELDS:
            np.testing.assert_allclose(getattr(blocked, name), getattr(whole, name),
                                       rtol=1e-14, atol=0.0, err_msg=name)
        assert blocked.failure is whole.failure is None

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_underflow_names_same_tally(self, monkeypatch, model, grid, rows):
        # support within 1e-3 of pi/2, where p_+ <= 1e-6: tallies k >= 54 of 60 underflow
        values = np.where(grid.nodes > math.pi / 2 - 1e-3, 1.0, 0.0)
        messages = []
        for block in (None, rows):
            with pytest.raises(DegeneratePosteriorError) as info:
                self._summary(monkeypatch, custom_prior(grid, values), 60, model, block)
            messages.append(str(info.value))
        assert "tally k=54," in messages[0]
        assert messages[1] == messages[0]

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("m,k_bad", [(7, 2), (20, 14)])
    def test_ghosh_failure_names_same_tally(self, monkeypatch, model, grid, rows, m, k_bad):
        # zero below 0.05 with slope 1: the likelihood reaches that region from k = k_bad on
        values, slope = np.maximum(grid.nodes - 0.05, 0.0), np.ones(grid.node_count)
        whole = self._summary(monkeypatch, custom_prior(grid, values, slope), m, model)
        blocked = self._summary(monkeypatch, custom_prior(grid, values, slope), m, model, rows)
        assert whole.failure == f"posterior for tally k={k_bad} has a zero with nonzero slope"
        assert blocked.failure == whole.failure

    def test_memory_stays_blocked_at_large_m(self, model, grid):
        # one 3001 x 2001 float64 table is 48 MB, and a whole-table summary holds several
        prior = family45_prior(10.0, grid)
        tracemalloc.start()
        try:
            posterior_summary(prior, 3000, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestCliPosteriorBuilds:
    ARGS = ["--prior.alpha", "10", "--grid.nodes", "401"]

    def test_one_build_per_fig3_row(self, tmp_path, posterior_calls):
        out = tmp_path / "fig3.csv"
        assert main(["fig3", *self.ARGS, "--m.list", "1,2,3,5,8", "--out", str(out)]) == 0
        assert posterior_calls == {1: 1, 2: 1, 3: 1, 5: 1, 8: 1}

    def test_one_build_per_bounds_cell(self, tmp_path, posterior_calls):
        out = tmp_path / "bounds.csv"
        assert main(["bounds", *self.ARGS, "--m.list", "6", "--out", str(out)]) == 0
        assert posterior_calls == {6: 1}
